//! Shared join machinery: join context, hash partitioning, and in-memory
//! build/probe tables.

use crate::context::ExecContext;
use crate::parallel;
use pmem_sim::{thread_stats, IoStats, PCollection, RecordBuffer};
use std::collections::HashMap;
use wisconsin::{Pair, Record};

/// Hash-table blow-up factor `f`: "a hash table for a partition is 20%
/// larger than the partition itself" (§2.2.1).
pub const HASH_TABLE_FACTOR: f64 = 1.2;

/// The context join operators run in — the shared [`ExecContext`] under
/// the name their signatures use.
pub type JoinContext<'p> = ExecContext<'p>;

/// Partition hash: a strong 64-bit mix so modulo assignment is balanced
/// even on sequential keys.
#[inline]
pub fn partition_of(key: u64, partitions: usize) -> usize {
    let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % partitions as u64) as usize
}

/// An in-DRAM build table: key → records with that key.
#[derive(Debug)]
pub struct BuildTable<L: Record> {
    map: HashMap<u64, Vec<L>>,
    len: usize,
}

impl<L: Record> Default for BuildTable<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Record> BuildTable<L> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
            len: 0,
        }
    }

    /// Inserts one build-side record.
    pub fn insert(&mut self, record: L) {
        self.map.entry(record.key()).or_default().push(record);
        self.len += 1;
    }

    /// Number of records in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no records were inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the table, retaining allocations for reuse.
    pub fn clear(&mut self) {
        self.map.clear();
        self.len = 0;
    }

    /// Probes with `right`, appending one output pair per match.
    pub fn probe<R: Record>(&self, right: &R, out: &mut PCollection<Pair<L, R>>) {
        if let Some(matches) = self.map.get(&right.key()) {
            for l in matches {
                out.append(&Pair {
                    left: *l,
                    right: *right,
                });
            }
        }
    }

    /// Probes with `right`, serializing one pair per match into a DRAM
    /// buffer — the parallel executors' probe path: workers buffer their
    /// partition's matches and the coordinator flushes the buffers into
    /// the shared output collection in partition order.
    pub fn probe_buffered<R: Record>(&self, right: &R, out: &mut RecordBuffer<Pair<L, R>>) {
        if let Some(matches) = self.map.get(&right.key()) {
            for l in matches {
                out.push(&Pair {
                    left: *l,
                    right: *right,
                });
            }
        }
    }

    /// Number of matches `right` would produce, without writing output.
    pub fn match_count<R: Record>(&self, right: &R) -> usize {
        self.map.get(&right.key()).map_or(0, |v| v.len())
    }
}

/// What one pass of an iterative join does with a scanned record.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ScanAction {
    /// The record belongs to the pass's partition: build or probe it.
    Keep,
    /// Offload it to the next pass's input.
    Offload,
    /// Neither (a dead record in a lazy pass, or the last pass).
    Skip,
}

/// Per-pass ledger profile of an iterative (standard or lazy) hash
/// join: for every pass, the traffic of its independent input morsels.
/// Build and probe scans of one pass run one after the other; the
/// morsels within each scan fan out. Every entry is identical at any
/// degree of parallelism — the speedup harness schedules them onto DoP
/// workers for the deterministic critical-path estimate.
#[derive(Clone, Debug, Default)]
pub struct IterJoinProfile {
    /// Per pass, the build-side scan's per-morsel traffic.
    pub per_build_morsel: Vec<Vec<IoStats>>,
    /// Per pass, the probe-side scan's per-morsel traffic.
    pub per_probe_morsel: Vec<Vec<IoStats>>,
}

/// Morselized build-side pass scan: fans the scan of `src` out over
/// fixed-size morsels; kept records land in `table` and offloaded ones
/// in `next`, both applied on the coordinating thread in morsel order —
/// so the table's insertion order, the offload collection's record
/// order, and every charged counter are identical to the serial scan at
/// any DoP. Returns the per-morsel traffic (scan reads plus the
/// morsel's share of the offload writes).
pub(crate) fn build_pass_morsels<L: Record>(
    src: &PCollection<L>,
    ctx: &JoinContext<'_>,
    classify: impl Fn(&L) -> ScanAction + Sync,
    table: &mut BuildTable<L>,
    mut next: Option<&mut PCollection<L>>,
) -> Vec<IoStats> {
    let morsels = src
        .len()
        .div_ceil(super::grace::PARTITION_MORSEL_RECORDS)
        .max(1);
    let mut stats = Vec::with_capacity(morsels);
    parallel::for_each_ordered(
        ctx.threads(),
        morsels,
        |m| {
            let start = m * super::grace::PARTITION_MORSEL_RECORDS;
            let end = (start + super::grace::PARTITION_MORSEL_RECORDS).min(src.len());
            let mut keep: Vec<L> = Vec::new();
            let mut offload = RecordBuffer::new();
            for l in src.range_reader(start, end) {
                match classify(&l) {
                    ScanAction::Keep => keep.push(l),
                    ScanAction::Offload => offload.push(&l),
                    ScanAction::Skip => {}
                }
            }
            (keep, offload)
        },
        |_, task| {
            let before = thread_stats();
            let (keep, offload) = task.value;
            for l in keep {
                table.insert(l);
            }
            if let Some(next) = next.as_deref_mut() {
                next.append_buffer(&offload);
            }
            let flush = thread_stats().since(&before);
            stats.push(task.stats.plus(&flush));
        },
    );
    stats
}

/// Morselized probe-side pass scan, the counterpart of
/// [`build_pass_morsels`]: workers probe the shared (read-only) `table`
/// and buffer their matches and offloads; the coordinator flushes both
/// in morsel order, so output order, offload order, and counters are
/// DoP-invariant.
pub(crate) fn probe_pass_morsels<L: Record, R: Record>(
    src: &PCollection<R>,
    ctx: &JoinContext<'_>,
    classify: impl Fn(&R) -> ScanAction + Sync,
    table: &BuildTable<L>,
    out: &mut PCollection<Pair<L, R>>,
    mut next: Option<&mut PCollection<R>>,
) -> Vec<IoStats> {
    let morsels = src
        .len()
        .div_ceil(super::grace::PARTITION_MORSEL_RECORDS)
        .max(1);
    let mut stats = Vec::with_capacity(morsels);
    parallel::for_each_ordered(
        ctx.threads(),
        morsels,
        |m| {
            let start = m * super::grace::PARTITION_MORSEL_RECORDS;
            let end = (start + super::grace::PARTITION_MORSEL_RECORDS).min(src.len());
            let mut matches = RecordBuffer::new();
            let mut offload = RecordBuffer::new();
            for r in src.range_reader(start, end) {
                match classify(&r) {
                    ScanAction::Keep => table.probe_buffered(&r, &mut matches),
                    ScanAction::Offload => offload.push(&r),
                    ScanAction::Skip => {}
                }
            }
            (matches, offload)
        },
        |_, task| {
            let before = thread_stats();
            let (matches, offload) = task.value;
            out.append_buffer(&matches);
            if let Some(next) = next.as_deref_mut() {
                next.append_buffer(&offload);
            }
            let flush = thread_stats().since(&before);
            stats.push(task.stats.plus(&flush));
        },
    );
    stats
}

/// Reference in-memory join used to verify operator outputs in tests:
/// returns the number of matching pairs.
pub fn expected_match_count<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
) -> u64 {
    let _pause = left.device().metrics().pause();
    let mut table: HashMap<u64, u64> = HashMap::new();
    for l in left.reader() {
        *table.entry(l.key()).or_insert(0) += 1;
    }
    right
        .reader()
        .map(|r| table.get(&r.key()).copied().unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::WisconsinRecord;

    #[test]
    fn partition_of_is_balanced() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for key in 0..8000u64 {
            counts[partition_of(key, k)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "partition skew: {counts:?}");
        }
    }

    #[test]
    fn partition_of_is_deterministic_and_in_range() {
        for key in [0u64, 1, u64::MAX, 12345] {
            let p = partition_of(key, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(key, 7));
        }
    }

    #[test]
    fn build_table_probes_all_duplicates() {
        let dev = PmDevice::paper_default();
        let mut table = BuildTable::<WisconsinRecord>::new();
        table.insert(WisconsinRecord::from_key(5).with_payload(1));
        table.insert(WisconsinRecord::from_key(5).with_payload(2));
        table.insert(WisconsinRecord::from_key(9));
        let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "out");
        table.probe(&WisconsinRecord::from_key(5), &mut out);
        assert_eq!(out.len(), 2);
        table.probe(&WisconsinRecord::from_key(4), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(table.match_count(&WisconsinRecord::from_key(9)), 1);
    }

    #[test]
    fn grace_partition_count_scales_inversely_with_memory() {
        let dev = PmDevice::paper_default();
        let small = BufferPool::new(100 * 80);
        let big = BufferPool::new(1000 * 80);
        let ctx_small = JoinContext::new(&dev, LayerKind::BlockedMemory, &small);
        let ctx_big = JoinContext::new(&dev, LayerKind::BlockedMemory, &big);
        let ks = ctx_small.grace_partitions::<WisconsinRecord>(10_000);
        let kb = ctx_big.grace_partitions::<WisconsinRecord>(10_000);
        assert!(ks > kb);
        assert!(kb >= 1);
    }

    #[test]
    fn grace_applicability_bound() {
        let dev = PmDevice::paper_default();
        let pool = BufferPool::new(100 * 80); // M = 100 records
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        // √(1.2·8000) ≈ 98 < 100 → applicable.
        assert!(ctx.grace_applicable::<WisconsinRecord>(8000));
        // √(1.2·9000) ≈ 104 > 100 → not applicable.
        assert!(!ctx.grace_applicable::<WisconsinRecord>(9000));
    }
}
