//! Write-limited aggregation — the first extension the paper's §6 names
//! ("one might extend this work to … operations (e.g., aggregation)").
//!
//! Grouped aggregation shares the sorts' and joins' structure: a
//! write-incurring strategy materializes intermediate state (sorted
//! input or partitions), a write-limited strategy re-reads the input
//! instead. Aggregation is an especially grateful target because its
//! *output* is usually far smaller than its input, so avoiding
//! intermediate materialization leaves almost nothing to write at all.
//!
//! Strategies:
//! * [`sort_based_aggregate`] — classic: sort, then one grouping pass.
//!   The write-limited twist *is* segment sort's schedule with a folding
//!   consumer in the final merge, so the sorted input is never
//!   materialized (`x` controls how much of the input is run-generated
//!   versus rescanned).
//! * [`hash_aggregate`] — one-pass in-DRAM hash aggregation when the
//!   group state fits.
//! * [`segmented_hash_aggregate`] — Grace-style: materialize `x` of `k`
//!   partitions, iterate over the input for the rest (the SegJ of
//!   aggregation), over the joins' routed partition scan.

pub mod hash_agg;
pub mod sort_agg;

pub use hash_agg::{hash_aggregate, segmented_hash_aggregate};
pub use sort_agg::sort_based_aggregate;

use pmem_sim::Storable;

/// Per-group aggregate state: count, sum, min, max of the aggregated
/// value (avg = sum/count). 40 bytes on persistent memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupAgg {
    /// Group key.
    pub key: u64,
    /// Number of records in the group.
    pub count: u64,
    /// Sum of the aggregated attribute.
    pub sum: u64,
    /// Minimum of the aggregated attribute.
    pub min: u64,
    /// Maximum of the aggregated attribute.
    pub max: u64,
}

impl GroupAgg {
    /// Starts a group from its first value.
    pub fn seed(key: u64, value: u64) -> Self {
        Self {
            key,
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    /// Folds one more value into the group.
    pub fn fold(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another partial aggregate of the same group.
    ///
    /// # Panics
    /// Panics in debug builds if the keys differ.
    pub fn merge(&mut self, other: &GroupAgg) {
        debug_assert_eq!(self.key, other.key, "merging different groups");
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Storable for GroupAgg {
    const SIZE: usize = 40;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        for (i, v) in [self.key, self.count, self.sum, self.min, self.max]
            .iter()
            .enumerate()
        {
            buf[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        // `get` + `try_into().ok()` instead of `try_into().expect(..)`:
        // the agg operators are a panic-free zone. `Storable` callers
        // bound `buf` to exactly `SIZE` bytes, so every field is one
        // load; a short buffer is zero-padded, never a panic.
        let f = |i: usize| match buf.get(i * 8..i * 8 + 8).and_then(|w| w.try_into().ok()) {
            Some(word) => u64::from_le_bytes(word),
            None => zero_padded(buf.get(i * 8..).unwrap_or_default()),
        };
        Self {
            key: f(0),
            count: f(1),
            sum: f(2),
            min: f(3),
            max: f(4),
        }
    }
}

/// The little-endian value of `tail`'s (fewer than eight) bytes, the
/// missing high bytes read as zero.
#[cold]
fn zero_padded(tail: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (dst, src) in word.iter_mut().zip(tail) {
        *dst = *src;
    }
    u64::from_le_bytes(word)
}

impl wisconsin::Record for GroupAgg {
    #[inline]
    fn key(&self) -> u64 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fold_tracks_all_aggregates() {
        let mut g = GroupAgg::seed(7, 10);
        g.fold(4);
        g.fold(16);
        assert_eq!(g.count, 3);
        assert_eq!(g.sum, 30);
        assert_eq!(g.min, 4);
        assert_eq!(g.max, 16);
    }

    #[test]
    fn merge_combines_partials() {
        let mut a = GroupAgg::seed(1, 5);
        let mut b = GroupAgg::seed(1, 9);
        b.fold(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 15);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 9);
    }

    #[test]
    fn storable_roundtrip() {
        let g = GroupAgg {
            key: 1,
            count: 2,
            sum: 3,
            min: 4,
            max: 5,
        };
        let mut buf = [0u8; GroupAgg::SIZE];
        g.write_to(&mut buf);
        assert_eq!(GroupAgg::read_from(&buf), g);
    }

    #[test]
    fn short_buffers_read_as_zero_padded_never_panic() {
        let g = GroupAgg {
            key: 0x0807_0605_0403_0201,
            count: 0x1817_1615_1413_1211,
            sum: u64::MAX,
            min: 0x3837_3635_3433_3231,
            max: 0x4847_4645_4443_4241,
        };
        let mut full = [0u8; GroupAgg::SIZE];
        g.write_to(&mut full);
        for len in 0..=GroupAgg::SIZE {
            // The record a full buffer with everything past `len` zeroed
            // decodes to.
            let mut padded = [0u8; GroupAgg::SIZE];
            padded[..len].copy_from_slice(&full[..len]);
            assert_eq!(
                GroupAgg::read_from(&full[..len]),
                GroupAgg::read_from(&padded),
                "{len} bytes"
            );
        }
        assert_eq!(GroupAgg::read_from(&full[..12]).count, 0x1413_1211);
    }
}
