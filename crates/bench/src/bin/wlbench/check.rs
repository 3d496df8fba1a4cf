//! Seeded input helpers and the order-independent checksum every
//! workload verifies its outputs with.

/// SplitMix64: the benchmark's own generator for shuffles and inserted
/// keys, so the engine receives only generated inputs and the same
/// seed always yields the same ones.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Multiplies a frozen cardinality by `--scale` (growth-preserving:
/// fanout, skew and the memory fraction stay fixed), never below 1.
pub fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Hash of one output row's column values.
pub fn row_hash(values: &[u64]) -> u64 {
    values.iter().fold(0x57A7_1571_C5A5_0001, |h, &v| {
        let h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    })
}

/// Row count plus the wrapping sum of row hashes: equal for two row
/// multisets whatever order they arrive in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checksum {
    pub rows: u64,
    pub sum: u64,
}

impl Checksum {
    pub fn add(&mut self, values: &[u64]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(values));
    }

    /// Adds every row `other` covers.
    pub fn merge(&mut self, other: &Checksum) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a [u64]>) -> Self {
        let mut c = Self::default();
        for row in rows {
            c.add(row);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let rows: [&[u64]; 3] = [&[1, 2], &[3, 4], &[1, 2]];
        let forward = Checksum::of(rows);
        let backward = Checksum::of([rows[2], rows[1], rows[0]]);
        assert_eq!(forward, backward);
        assert_eq!(forward.rows, 3);
        assert_ne!(forward, Checksum::of([rows[0], rows[1]]));
        let mut merged = Checksum::of([rows[0], rows[1]]);
        merged.merge(&Checksum::of([rows[2]]));
        assert_eq!(merged, forward);
        assert_ne!(
            Checksum::of([&[1u64, 2][..]]),
            Checksum::of([&[2u64, 1][..]]),
            "column order matters"
        );
    }

    #[test]
    fn generator_is_seeded_and_shuffle_permutes() {
        let draw = |seed| {
            let mut g = SplitMix64::new(seed);
            (0..4).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let mut items: Vec<u32> = (0..50).collect();
        SplitMix64::new(7).shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
        assert_eq!((scaled(200_000, 0.05), scaled(3, 0.01)), (10_000, 1));
    }
}
