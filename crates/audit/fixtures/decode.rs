//! Fixture: a join hot path that decodes records it only moves.
pub fn build(table: &mut Table, bytes: &[u8]) {
    table.insert(Row::read_from(bytes));
}

pub fn decoded(run: &[u8]) -> Vec<Row> {
    run.chunks_exact(16).map(Row::read_from).collect()
}

#[inline]
pub(crate) fn key_of(bytes: &[u8]) -> u64 {
    // audit:allow(decode) the key peek: only the key's loads survive inlining
    Row::read_from(bytes).key()
}

impl Codec for Row {
    fn read_from(buf: &[u8]) -> Self {
        Row(buf[0])
    }
}

#[cfg(test)]
mod tests {
    fn oracle(bytes: &[u8]) -> Row {
        Row::read_from(bytes)
    }
}
