//! Shared join machinery: join context, hash partitioning, and in-memory
//! build/probe tables.

use crate::context::ExecContext;
use crate::parallel;
use pmem_sim::{thread_stats, IoStats, PCollection, RecordBuffer, RecordView};
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

/// The join key of a scanned record, read in place: the view's length
/// is the constant `R::SIZE`, so once this inlines the decode of every
/// attribute but the key folds away.
#[inline]
pub(crate) fn view_key<R: Record>(view: &RecordView<'_, R>) -> u64 {
    R::read_from(view.bytes()).key()
}

/// End-of-chain / empty-slot marker of [`BuildTable`]'s `u32` record
/// indices; a table therefore holds at most `u32::MAX` records.
const NIL: u32 = u32::MAX;

/// One directory slot of a [`BuildTable`]: a distinct key and the first
/// and last record of its chain. `first == NIL` marks an empty slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    first: u32,
    last: u32,
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    first: NIL,
    last: NIL,
};

/// Directory slots allocated by the first insert.
const MIN_DIRECTORY: usize = 16;

/// An in-DRAM build table: key → records with that key.
///
/// Flat: the records sit in one vector in insertion order, each with a
/// link to the next record of the same key, and a power-of-two
/// open-addressing directory (linear probing under a multiplicative
/// hash, at most half full) maps a key to the first and last record of
/// its chain. A key's matches are walked first → last, i.e. in
/// insertion order.
#[derive(Debug)]
pub struct BuildTable<L: Record> {
    records: Vec<L>,
    /// `next[i]`: the next record with `records[i]`'s key, or `NIL`.
    next: Vec<u32>,
    directory: Vec<Slot>,
    /// Occupied directory slots (distinct keys).
    keys: usize,
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
            records: Vec::new(),
            next: Vec::new(),
            directory: Vec::new(),
            keys: 0,
        }
    }

    /// The directory slot `key` lives in, or the empty slot it would
    /// take. The directory must not be empty.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let mask = self.directory.len() - 1;
        // Fibonacci hashing: the top bits of key × 2⁶⁴/φ.
        let shift = 64 - self.directory.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            let slot = &self.directory[i];
            if slot.first == NIL || slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the directory (or allocates it) and re-seats every chain.
    fn grow_directory(&mut self) {
        let bigger = (self.directory.len() * 2).max(MIN_DIRECTORY);
        let old = std::mem::replace(&mut self.directory, vec![EMPTY_SLOT; bigger]);
        for slot in old.into_iter().filter(|s| s.first != NIL) {
            let i = self.slot_of(slot.key);
            self.directory[i] = slot;
        }
    }

    /// Inserts one build-side record.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` records.
    pub fn insert(&mut self, record: L) {
        let idx = self.records.len();
        assert!(
            idx < NIL as usize,
            "BuildTable is full: record indices are u32, at most {NIL} records"
        );
        let idx = idx as u32;
        if (self.keys + 1) * 2 > self.directory.len() {
            self.grow_directory();
        }
        let key = record.key();
        let i = self.slot_of(key);
        let slot = &mut self.directory[i];
        if slot.first == NIL {
            *slot = Slot {
                key,
                first: idx,
                last: idx,
            };
            self.keys += 1;
        } else {
            self.next[slot.last as usize] = idx;
            slot.last = idx;
        }
        self.records.push(record);
        self.next.push(NIL);
    }

    /// Number of records in the table.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were inserted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Clears the table, retaining allocations for reuse: the record and
    /// link vectors keep their capacity and the directory its size.
    pub fn clear(&mut self) {
        self.records.clear();
        self.next.clear();
        self.directory.fill(EMPTY_SLOT);
        self.keys = 0;
    }

    /// The records with key `key`, in insertion order.
    #[inline]
    pub(crate) fn matches(&self, key: u64) -> Matches<'_, L> {
        let first = if self.directory.is_empty() {
            NIL
        } else {
            self.directory[self.slot_of(key)].first
        };
        Matches {
            table: self,
            at: first,
        }
    }

    /// Probes with `right`, appending one output pair per match.
    pub fn probe<R: Record>(&self, right: &R, out: &mut PCollection<Pair<L, R>>) {
        for l in self.matches(right.key()) {
            out.append(&Pair {
                left: *l,
                right: *right,
            });
        }
    }

    /// Probes with `right`, serializing one pair per match into a DRAM
    /// buffer — the parallel executors' probe path: workers buffer their
    /// partition's matches and the coordinator flushes the buffers into
    /// the shared output collection in partition order.
    pub fn probe_buffered<R: Record>(&self, right: &R, out: &mut RecordBuffer<Pair<L, R>>) {
        for l in self.matches(right.key()) {
            out.push(&Pair {
                left: *l,
                right: *right,
            });
        }
    }

    /// One output pair per match of a scanned record still in its stored
    /// form: only the key is read unless it has a match.
    #[inline]
    fn matches_of_view<R: Record>(
        &self,
        right: &RecordView<'_, R>,
        mut emit: impl FnMut(&Pair<L, R>),
    ) {
        let mut matches = self.matches(view_key(right)).peekable();
        if matches.peek().is_some() {
            let right = right.get();
            for l in matches {
                emit(&Pair { left: *l, right });
            }
        }
    }

    /// [`BuildTable::probe`] with a scanned record still in its stored
    /// form.
    #[inline]
    pub(crate) fn probe_view<R: Record>(
        &self,
        right: &RecordView<'_, R>,
        out: &mut PCollection<Pair<L, R>>,
    ) {
        self.matches_of_view(right, |pair| out.append(pair));
    }

    /// [`BuildTable::probe_buffered`] with a scanned record still in its
    /// stored form.
    #[inline]
    pub(crate) fn probe_view_buffered<R: Record>(
        &self,
        right: &RecordView<'_, R>,
        out: &mut RecordBuffer<Pair<L, R>>,
    ) {
        self.matches_of_view(right, |pair| out.push(pair));
    }

    /// Number of matches `right` would produce, without writing output.
    pub fn match_count<R: Record>(&self, right: &R) -> usize {
        self.matches(right.key()).count()
    }
}

/// Iterator over one key's chain in a [`BuildTable`], first → last.
#[derive(Debug)]
pub(crate) struct Matches<'t, L: Record> {
    table: &'t BuildTable<L>,
    at: u32,
}

impl<'t, L: Record> Iterator for Matches<'t, L> {
    type Item = &'t L;

    #[inline]
    fn next(&mut self) -> Option<&'t L> {
        if self.at == NIL {
            return None;
        }
        let i = self.at as usize;
        self.at = self.table.next[i];
        Some(&self.table.records[i])
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
    classify: impl Fn(u64) -> ScanAction + Sync,
    table: &mut BuildTable<L>,
    mut next: Option<&mut PCollection<L>>,
) -> Vec<IoStats> {
    let morsels = src
        .len()
        .div_ceil(super::grace::PARTITION_MORSEL_RECORDS)
        .max(1);
    let mut stats = Vec::with_capacity(morsels);
    // A pass that offloads may move a whole morsel; one that does not
    // (a lazy pass, the last pass) buffers nothing.
    let offloads = next.is_some();
    parallel::for_each_ordered(
        ctx.threads(),
        morsels,
        |m| {
            let start = m * super::grace::PARTITION_MORSEL_RECORDS;
            let end = (start + super::grace::PARTITION_MORSEL_RECORDS).min(src.len());
            let mut keep: Vec<L> = Vec::new();
            let mut offload = RecordBuffer::with_capacity(if offloads { end - start } else { 0 });
            src.range_reader(start, end)
                .for_each_view(|l| match classify(view_key(&l)) {
                    ScanAction::Keep => keep.push(l.get()),
                    ScanAction::Offload => offload.push_bytes(l.bytes()),
                    ScanAction::Skip => {}
                });
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
    classify: impl Fn(u64) -> ScanAction + Sync,
    table: &BuildTable<L>,
    out: &mut PCollection<Pair<L, R>>,
    mut next: Option<&mut PCollection<R>>,
) -> Vec<IoStats> {
    let morsels = src
        .len()
        .div_ceil(super::grace::PARTITION_MORSEL_RECORDS)
        .max(1);
    let mut stats = Vec::with_capacity(morsels);
    let offloads = next.is_some();
    parallel::for_each_ordered(
        ctx.threads(),
        morsels,
        |m| {
            let start = m * super::grace::PARTITION_MORSEL_RECORDS;
            let end = (start + super::grace::PARTITION_MORSEL_RECORDS).min(src.len());
            let mut matches = RecordBuffer::new();
            let mut offload = RecordBuffer::with_capacity(if offloads { end - start } else { 0 });
            src.range_reader(start, end)
                .for_each_view(|r| match classify(view_key(&r)) {
                    ScanAction::Keep => table.probe_view_buffered(&r, &mut matches),
                    ScanAction::Offload => offload.push_bytes(r.bytes()),
                    ScanAction::Skip => {}
                });
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

    /// Differential check of one filled table against the `HashMap<u64,
    /// Vec<L>>` the table replaced: same length, same match counts, and
    /// the same pairs **in the same order** from all three probe paths,
    /// for every present key and a few absent ones.
    fn assert_matches_model(
        case: &str,
        table: &BuildTable<WisconsinRecord>,
        build: &[WisconsinRecord],
    ) {
        let mut model: HashMap<u64, Vec<WisconsinRecord>> = HashMap::new();
        for l in build {
            model.entry(l.key()).or_default().push(*l);
        }
        assert_eq!(table.len(), build.len(), "{case}");
        assert_eq!(table.is_empty(), build.is_empty(), "{case}");

        let mut keys: Vec<u64> = model.keys().copied().collect();
        keys.extend([1, u64::MAX - 1, 0x0123_4567_89ab_cdef, 1 << 63]);
        keys.sort_unstable();
        keys.dedup();
        let probes: Vec<WisconsinRecord> = keys
            .iter()
            .map(|&k| WisconsinRecord::from_key(k).with_payload(!k))
            .collect();
        let mut expected = Vec::new();
        for right in &probes {
            let matches = model.get(&right.key()).map_or(&[][..], Vec::as_slice);
            assert_eq!(
                table.match_count(right),
                matches.len(),
                "{case}: key {}",
                right.key()
            );
            expected.extend(matches.iter().map(|&left| Pair {
                left,
                right: *right,
            }));
        }

        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let mut direct = PCollection::new(&dev, kind, "probe");
        let mut buffered = RecordBuffer::new();
        let mut viewed = RecordBuffer::new();
        let staged = PCollection::from_records_uncounted(&dev, kind, "V", probes.iter().copied());
        let mut scan = staged.reader();
        for right in &probes {
            table.probe(right, &mut direct);
            table.probe_buffered(right, &mut buffered);
            let view = scan.next_view().expect("one view per probe record");
            table.probe_view_buffered(&view, &mut viewed);
        }
        assert_eq!(direct.to_vec_uncounted(), expected, "{case}: probe");
        for (path, buf) in [
            ("probe_buffered", buffered),
            ("probe_view_buffered", viewed),
        ] {
            let mut landed = PCollection::new(&dev, kind, path);
            landed.append_buffer(&buf);
            assert_eq!(landed.to_vec_uncounted(), expected, "{case}: {path}");
        }
    }

    #[test]
    fn build_table_agrees_with_the_hashmap_model_in_order() {
        let numbered = |keys: &mut dyn Iterator<Item = u64>| -> Vec<WisconsinRecord> {
            keys.zip(0u64..)
                .map(|(k, i)| WisconsinRecord::from_key(k).with_payload(i))
                .collect()
        };
        let cases: Vec<(&str, Vec<WisconsinRecord>)> = vec![
            ("empty", Vec::new()),
            // 1500 keys × 4 copies in permuted order: ten directory growths.
            ("uniform", wisconsin::join_right_input(1500, 4, 9)),
            ("zipf", wisconsin::skewed_input(6000, 4, 1.2, 9)),
            ("one key", numbered(&mut std::iter::repeat_n(7, 3000))),
            ("ascending", numbered(&mut (0..6000))),
            (
                "extremes",
                numbered(&mut (0..500).map(|i| if i % 3 == 0 { 0 } else { u64::MAX })),
            ),
            // Multiples of 2⁴⁰: all entropy in the bits a masking hash drops.
            (
                "high bits",
                numbered(&mut (0..4000).map(|i| (i % 1000) << 40)),
            ),
        ];
        // Each case on a fresh table, then all of them through one table
        // that is cleared and refilled.
        let mut reused = BuildTable::new();
        for (name, build) in &cases {
            let mut fresh = BuildTable::new();
            reused.clear();
            for l in build {
                fresh.insert(*l);
                reused.insert(*l);
            }
            assert_matches_model(name, &fresh, build);
            assert_matches_model(&format!("{name}, reused table"), &reused, build);
        }
    }

    #[test]
    fn clear_keeps_the_tables_allocations() {
        let mut table = BuildTable::new();
        for l in wisconsin::join_right_input(1500, 4, 3) {
            table.insert(l);
        }
        let (records, next, directory) = (
            table.records.capacity(),
            table.next.capacity(),
            table.directory.len(),
        );
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.match_count(&WisconsinRecord::from_key(5)), 0);
        assert_eq!(table.records.capacity(), records);
        assert_eq!(table.next.capacity(), next);
        assert_eq!(table.directory.len(), directory);
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
