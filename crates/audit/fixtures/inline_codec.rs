//! Fixture: a record codec as it must not be written — a key accessor
//! and an encoder that other crates can only call, never inline.
pub struct Row(pub u64, pub u64);

impl Storable for Row {
    const SIZE: usize = 16;

    fn write_to(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.0.to_le_bytes());
        buf[8..16].copy_from_slice(&self.1.to_le_bytes());
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap_or([0; 8]));
        Row(word(0), word(8))
    }
}

impl wisconsin::Record for Row {
    /// The first word.
    fn key(&self) -> u64 {
        self.0
    }
}
