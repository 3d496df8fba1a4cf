//! Shared join machinery: join context, hash partitioning, and in-memory
//! build/probe tables.

use crate::context::ExecContext;
use pmem_sim::{PCollection, RecordBuffer, RecordView, Storable};
use std::collections::HashMap;
use std::marker::PhantomData;
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
pub(crate) fn partition_of(key: u64, partitions: usize) -> usize {
    let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % partitions as u64) as usize
}

/// The join key of a record still in its stored form. Every
/// `Storable::read_from` and `Record::key` is `#[inline]` (`wl-audit`'s
/// `inline-codec` rule holds them to it), so in an optimized build the
/// decode of every attribute but the key folds away and this is the
/// key's loads alone; without the attribute a codec of another crate is
/// an out-of-line call that decodes the whole record.
#[inline]
pub(crate) fn key_of<R: Record>(bytes: &[u8]) -> u64 {
    // audit:allow(decode) the key peek: inlined, only the key's loads remain
    R::read_from(bytes).key()
}

/// [`key_of`] a scanned record.
#[inline]
pub(crate) fn view_key<R: Record>(view: &RecordView<'_, R>) -> u64 {
    key_of::<R>(view.bytes())
}

/// Where a join's output rows go: straight into the output collection
/// (the serial operators) or into a worker's staging buffer (the
/// parallel ones) — the one thing the probe sites differ in.
pub trait RowSink<P: Storable> {
    /// Takes one row as its stored bytes.
    fn put(&mut self, row: &[u8]);
    /// Takes one row as its stored bytes in two parts, `head` then
    /// `tail` — how a pair arrives, as its left and right record.
    fn put_parts(&mut self, head: &[u8], tail: &[u8]);
}

impl<P: Storable> RowSink<P> for PCollection<P> {
    #[inline]
    fn put(&mut self, row: &[u8]) {
        self.append_bytes(row);
    }

    #[inline]
    fn put_parts(&mut self, head: &[u8], tail: &[u8]) {
        self.append_parts(head, tail);
    }
}

impl<P: Storable> RowSink<P> for RecordBuffer<P> {
    #[inline]
    fn put(&mut self, row: &[u8]) {
        self.push_bytes(row);
    }

    #[inline]
    fn put_parts(&mut self, head: &[u8], tail: &[u8]) {
        self.push_parts(head, tail);
    }
}

/// What a join lands for each match, where the match is found: every
/// schedule hands each matching build and probe record, as their stored
/// bytes, to its shape's [`OutputShape::emit`], so a shape that lands a
/// narrower row than the pair never writes the pair at all.
pub trait OutputShape<L: Record, R: Record>: Sync {
    /// The output record.
    type Out: Record;
    /// Lands the match of the stored build record `left` and probe
    /// record `right` in `sink`.
    fn emit(&self, left: &[u8], right: &[u8], sink: &mut impl RowSink<Self::Out>);
}

/// The identity shape: each match lands as the [`Pair`] of its two
/// records, their bytes copied as they were stored.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pairs;

impl<L: Record, R: Record> OutputShape<L, R> for Pairs {
    type Out = Pair<L, R>;

    #[inline]
    fn emit(&self, left: &[u8], right: &[u8], sink: &mut impl RowSink<Pair<L, R>>) {
        sink.put_parts(left, right);
    }
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

/// log₂ of the key filter's bits per directory slot. The directory is
/// at most half full, so 8 bits a slot are at least 16 a distinct key:
/// a key the table does not hold passes the filter with probability
/// 1 − e^(−1/16) ≈ 6 % at the fullest, in 1/16 of the directory's bytes.
const FILTER_BITS_PER_SLOT_LOG2: u32 = 3;

/// The multiplicative (Fibonacci) hash both the directory and the key
/// filter index by: their positions are top bits of key × 2⁶⁴/φ.
#[inline]
fn fib(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An in-DRAM build table: key → records with that key.
///
/// Flat: the records sit in one byte vector in insertion order, as they
/// were stored (a build scan copies them in and a probe copies them out,
/// neither decoding them), each with a link to the next record of the
/// same key, and a power-of-two
/// open-addressing directory (linear probing under a multiplicative
/// hash, at most half full) maps a key to the first and last record of
/// its chain. A key's matches are walked first → last, i.e. in
/// insertion order.
///
/// In front of the directory sits a **key filter**: one bit per held
/// key in a bitmap of eight bits per directory slot, indexed by three
/// more top bits of the same hash product. A rescanning join probes
/// with every record of its probe input on every pass and almost all of
/// them find nothing; those are turned away by one bit test in a bitmap
/// small enough to stay cache-resident, without touching the directory.
#[derive(Debug)]
pub struct BuildTable<L: Record> {
    /// The records' stored bytes, `L::SIZE` each, in insertion order.
    records: Vec<u8>,
    /// `next[i]`: the next record with record `i`'s key, or `NIL`.
    next: Vec<u32>,
    directory: Vec<Slot>,
    /// Occupied directory slots (distinct keys).
    keys: usize,
    /// The key filter's words; bit `fib(key) >> filter_shift` is set for
    /// every key held. Empty until the first insert, like the directory.
    filter: Vec<u64>,
    /// `64 − log₂(filter bits)`; the directory's shift is
    /// `FILTER_BITS_PER_SLOT_LOG2` more.
    filter_shift: u32,
    _marker: PhantomData<L>,
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
            filter: Vec::new(),
            filter_shift: 0,
            _marker: PhantomData,
        }
    }

    /// The directory slot the key with hash product `h` lives in, or the
    /// empty slot it would take. The directory must not be empty.
    #[inline]
    fn slot_of(&self, h: u64, key: u64) -> usize {
        let mask = self.directory.len() - 1;
        let mut i = (h >> (self.filter_shift + FILTER_BITS_PER_SLOT_LOG2)) as usize;
        loop {
            let slot = &self.directory[i];
            if slot.first == NIL || slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether the filter admits the key with hash product `h`: always
    /// when the table holds it, rarely when not, never in an empty table
    /// (no filter word to find).
    #[inline]
    fn may_hold(&self, h: u64) -> bool {
        let bit = (h >> self.filter_shift) as usize;
        self.filter
            .get(bit / 64)
            .is_some_and(|word| word >> (bit % 64) & 1 == 1)
    }

    /// Admits the key with hash product `h` to the filter, which must
    /// have been allocated.
    #[inline]
    fn admit(&mut self, h: u64) {
        let bit = (h >> self.filter_shift) as usize;
        self.filter[bit / 64] |= 1 << (bit % 64);
    }

    /// Doubles the directory (or allocates it), re-seats every chain and
    /// rebuilds the filter at the new size.
    fn grow_directory(&mut self) {
        let bigger = (self.directory.len() * 2).max(MIN_DIRECTORY);
        let old = std::mem::replace(&mut self.directory, vec![EMPTY_SLOT; bigger]);
        let filter_bits_log2 = bigger.trailing_zeros() + FILTER_BITS_PER_SLOT_LOG2;
        self.filter_shift = u64::BITS - filter_bits_log2;
        self.filter = vec![0; (1usize << filter_bits_log2) / 64];
        for slot in old.into_iter().filter(|s| s.first != NIL) {
            let h = fib(slot.key);
            let i = self.slot_of(h, slot.key);
            self.directory[i] = slot;
            self.admit(h);
        }
    }

    /// Inserts one build-side record given as its stored bytes (`L::SIZE`
    /// bytes a scan lent out): only its key is read.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` records, or unless
    /// `bytes` is one record.
    #[inline]
    pub(crate) fn insert_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), L::SIZE, "insert_bytes takes one record");
        self.link(key_of::<L>(bytes));
        self.records.extend_from_slice(bytes);
    }

    /// Inserts one build-side record, stored as `insert_bytes` stores its
    /// bytes.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` records.
    pub fn insert(&mut self, record: L) {
        self.link(record.key());
        let start = self.records.len();
        self.records.resize(start + L::SIZE, 0);
        record.write_to(&mut self.records[start..]);
    }

    /// Chains the record about to be inserted under `key`.
    #[inline]
    fn link(&mut self, key: u64) {
        let idx = self.next.len();
        assert!(
            idx < NIL as usize,
            "BuildTable is full: record indices are u32, at most {NIL} records"
        );
        let idx = idx as u32;
        if (self.keys + 1) * 2 > self.directory.len() {
            self.grow_directory();
        }
        let h = fib(key);
        let i = self.slot_of(h, key);
        let slot = &mut self.directory[i];
        if slot.first == NIL {
            *slot = Slot {
                key,
                first: idx,
                last: idx,
            };
            self.keys += 1;
            self.admit(h);
        } else {
            self.next[slot.last as usize] = idx;
            slot.last = idx;
        }
        self.next.push(NIL);
    }

    /// Number of records in the table.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True if no records were inserted.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Clears the table, retaining allocations for reuse: the record and
    /// link vectors keep their capacity, the directory and the filter
    /// their size.
    pub fn clear(&mut self) {
        self.records.clear();
        self.next.clear();
        self.directory.fill(EMPTY_SLOT);
        self.filter.fill(0);
        self.keys = 0;
    }

    /// The stored bytes of the records with key `key`, in insertion
    /// order: the filter turns away most keys the table does not hold,
    /// the directory the rest.
    #[inline]
    pub(crate) fn matches(&self, key: u64) -> Matches<'_, L> {
        let h = fib(key);
        let first = if self.may_hold(h) {
            self.directory[self.slot_of(h, key)].first
        } else {
            NIL
        };
        Matches {
            table: self,
            at: first,
        }
    }

    /// Probes with `right`, serializing one pair per match into a DRAM
    /// buffer — the probe of one decoded record (encoded once, then
    /// `BuildTable::probe_bytes`), and the per-record reference the
    /// probe kernel `BuildTable::probe_run` is tested against.
    pub fn probe_buffered<R: Record>(&self, right: &R, out: &mut RecordBuffer<Pair<L, R>>) {
        let mut stored = vec![0; R::SIZE];
        right.write_to(&mut stored);
        self.probe_bytes(&stored, &Pairs, out);
    }

    /// Probes with one record of `R` still in its stored form (`R::SIZE`
    /// bytes a scan lent out): only the key is read, and each match
    /// lands in `sink` as `shape` emits it from the two records' bytes.
    /// The per-record entry of [`BuildTable::probe_run`], for scans that
    /// route each record before probing.
    #[inline]
    pub(crate) fn probe_bytes<R: Record, S: OutputShape<L, R>>(
        &self,
        bytes: &[u8],
        shape: &S,
        sink: &mut impl RowSink<S::Out>,
    ) {
        for left in self.matches(key_of::<R>(bytes)) {
            shape.emit(left, bytes, sink);
        }
    }

    /// The probe kernel: probes with every record of `run` — whole
    /// records of `R` back to back, as [`RecordReader::for_each_run`]
    /// lends them — in order, emitting each one's matches into `sink`.
    ///
    /// [`RecordReader::for_each_run`]: pmem_sim::RecordReader::for_each_run
    #[inline]
    pub(crate) fn probe_run<R: Record, S: OutputShape<L, R>>(
        &self,
        run: &[u8],
        shape: &S,
        sink: &mut impl RowSink<S::Out>,
    ) {
        for bytes in run.chunks_exact(R::SIZE) {
            self.probe_bytes(bytes, shape, sink);
        }
    }
}

/// Iterator over one key's chain in a [`BuildTable`], first → last: each
/// record's stored bytes.
#[derive(Debug)]
pub(crate) struct Matches<'t, L: Record> {
    table: &'t BuildTable<L>,
    at: u32,
}

impl<'t, L: Record> Iterator for Matches<'t, L> {
    type Item = &'t [u8];

    #[inline]
    fn next(&mut self) -> Option<&'t [u8]> {
        if self.at == NIL {
            return None;
        }
        let i = self.at as usize;
        self.at = self.table.next[i];
        Some(&self.table.records[i * L::SIZE..(i + 1) * L::SIZE])
    }
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
        let mut out = RecordBuffer::new();
        table.probe_buffered(&WisconsinRecord::from_key(5), &mut out);
        assert_eq!(out.len(), 2);
        table.probe_buffered(&WisconsinRecord::from_key(4), &mut out);
        assert_eq!(out.len(), 2);
        let mut landed = PCollection::new(&dev, LayerKind::BlockedMemory, "out");
        landed.append_buffer(&out);
        assert_eq!(landed.len(), 2);
        assert_eq!(table.matches(9).count(), 1);
    }

    /// Differential check of one filled table against the `HashMap<u64,
    /// Vec<L>>` the table replaced: same length, same match counts, and
    /// the same pairs **in the same order** from the per-record probe and
    /// from the probe kernel into either sink, for every present key and a
    /// few absent ones.
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
            let held: Vec<WisconsinRecord> = table
                .matches(right.key())
                .map(WisconsinRecord::read_from)
                .collect();
            assert_eq!(held, matches, "{case}: key {}", right.key());
            expected.extend(matches.iter().map(|&left| Pair {
                left,
                right: *right,
            }));
        }

        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let mut direct = PCollection::new(&dev, kind, "probe");
        let mut buffered = RecordBuffer::new();
        let mut scanned = RecordBuffer::new();
        for right in &probes {
            table.probe_buffered(right, &mut buffered);
        }
        let probe_input =
            PCollection::from_records_uncounted(&dev, kind, "V", probes.iter().copied());
        probe_input
            .reader()
            .for_each_run(|run| table.probe_run(run, &Pairs, &mut scanned));
        probe_input
            .reader()
            .for_each_run(|run| table.probe_run(run, &Pairs, &mut direct));
        assert_eq!(
            direct.to_vec_uncounted(),
            expected,
            "{case}: probe_run, direct"
        );
        for (path, buf) in [("probe_buffered", buffered), ("probe_run", scanned)] {
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
        // that is cleared and refilled with the records' stored bytes.
        let mut reused = BuildTable::new();
        for (name, build) in &cases {
            let mut fresh = BuildTable::new();
            reused.clear();
            for l in build {
                fresh.insert(*l);
            }
            for bytes in encode(build).chunks_exact(WisconsinRecord::SIZE) {
                reused.insert_bytes(bytes);
            }
            assert_matches_model(name, &fresh, build);
            assert_matches_model(&format!("{name}, reused table"), &reused, build);
        }
    }

    /// `records` in their stored form, back to back — a run as a scan
    /// lends it.
    fn encode<R: Record>(records: &[R]) -> Vec<u8> {
        let mut bytes = vec![0u8; records.len() * R::SIZE];
        for (r, buf) in records.iter().zip(bytes.chunks_exact_mut(R::SIZE)) {
            r.write_to(buf);
        }
        bytes
    }

    /// The stored bytes of `col`.
    fn stored<P: Storable>(col: &PCollection<P>) -> Vec<u8> {
        let mut bytes = Vec::new();
        col.reader()
            .for_each_run(|run| bytes.extend_from_slice(run));
        bytes
    }

    /// Kernel ≡ oracle for one table and one probe record type: over
    /// runs of no, one and all of `probes`, `probe_run` into a buffer
    /// and into a collection stores byte for byte what the per-record
    /// `probe_buffered` loop stores.
    fn assert_kernel_matches_oracle<R: Record>(
        case: &str,
        table: &BuildTable<WisconsinRecord>,
        probes: &[R],
    ) {
        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let landed = |buf: &RecordBuffer<Pair<WisconsinRecord, R>>| {
            let mut col = PCollection::new(&dev, kind, "landed");
            col.append_buffer(buf);
            stored(&col)
        };
        for n in [0, 1, probes.len()] {
            let probes = &probes[..n];
            let mut oracle = RecordBuffer::new();
            for right in probes {
                table.probe_buffered(right, &mut oracle);
            }
            let run = encode(probes);
            let mut buffered = RecordBuffer::new();
            table.probe_run::<R, _>(&run, &Pairs, &mut buffered);
            let mut direct = PCollection::new(&dev, kind, "direct");
            table.probe_run::<R, _>(&run, &Pairs, &mut direct);
            let want = landed(&oracle);
            let what = format!("{case}, {n} probe records of {} bytes", R::SIZE);
            assert_eq!(want.len(), oracle.len() * (80 + R::SIZE), "{what}");
            assert!(landed(&buffered) == want, "{what}: buffer sink");
            assert!(stored(&direct) == want, "{what}: collection sink");
        }
    }

    #[test]
    fn probe_kernel_emits_what_the_per_record_probe_emits() {
        let numbered = |keys: &mut dyn Iterator<Item = u64>| -> Vec<WisconsinRecord> {
            keys.zip(0u64..)
                .map(|(k, i)| WisconsinRecord::from_key(k).with_payload(i))
                .collect()
        };
        let filled = |build: &[WisconsinRecord]| {
            let mut table = BuildTable::new();
            for l in build {
                table.insert(*l);
            }
            table
        };
        let unique = wisconsin::join_right_input(700, 1, 5);
        let zipf = wisconsin::skewed_input(1500, 4, 1.2, 9);
        let mut reused = filled(&zipf);
        reused.clear();
        for l in &unique {
            reused.insert(*l);
        }
        // 40 distinct keys: allocated at 16 slots, doubled at the 9th,
        // 17th and 33rd key.
        let grown = filled(&numbered(&mut (0..80).map(|i| (i % 40) * 1000)));
        assert_eq!(grown.directory.len(), MIN_DIRECTORY << 3);
        let cases = [
            ("unique", filled(&unique)),
            (
                "all-duplicate",
                filled(&numbered(&mut std::iter::repeat_n(7, 300))),
            ),
            ("zipf", filled(&zipf)),
            (
                "keys 0 and u64::MAX",
                filled(&numbered(&mut (0..60).map(|i| {
                    if i % 3 == 0 {
                        0
                    } else {
                        u64::MAX
                    }
                }))),
            ),
            ("empty", BuildTable::new()),
            ("reused after clear", reused),
            ("grown three times", grown),
        ];
        for (case, table) in &cases {
            // Every held key, as many keys near them and a few at the
            // edges, in an order that scatters hits among misses.
            let held = table.records.chunks_exact(WisconsinRecord::SIZE);
            let mut keys: Vec<u64> = held.map(key_of::<WisconsinRecord>).collect();
            keys.extend([0, 1, u64::MAX - 1, u64::MAX, 1 << 63]);
            keys.sort_unstable();
            keys.dedup();
            let near: Vec<u64> = keys.iter().map(|k| k.wrapping_add(1_000_003)).collect();
            keys.extend(near);
            keys.sort_unstable_by_key(|&k| fib(k));

            let of = |f: &dyn Fn(u64) -> WisconsinRecord| keys.iter().map(|&k| f(k)).collect();
            let wide: Vec<WisconsinRecord> = of(&|k| WisconsinRecord::from_key(k).with_payload(!k));
            let other: Vec<WisconsinRecord> = of(&|k| WisconsinRecord::from_key(!k));
            assert_kernel_matches_oracle::<u64>(case, table, &keys);
            assert_kernel_matches_oracle::<(u64, u64)>(
                case,
                table,
                &keys.iter().map(|&k| (k, !k)).collect::<Vec<_>>(),
            );
            assert_kernel_matches_oracle(case, table, &wide);
            assert_kernel_matches_oracle(
                case,
                table,
                &wide
                    .iter()
                    .zip(&other)
                    .map(|(&left, &right)| Pair { left, right })
                    .collect::<Vec<_>>(),
            );
        }
    }

    /// Share of `absent` the filter lets through, after checking that it
    /// lets every key of `held` through.
    fn false_positive_rate(table: &BuildTable<u64>, held: &[u64], absent: &[u64]) -> f64 {
        assert!(
            held.iter().all(|&k| table.may_hold(fib(k))),
            "held key rejected"
        );
        let passed = absent.iter().filter(|&&k| table.may_hold(fib(k))).count();
        passed as f64 / absent.len() as f64
    }

    #[test]
    fn key_filter_admits_every_held_key_and_few_others() {
        // 4096 distinct keys fill 8192 slots to the half `insert` allows.
        const HELD: usize = 4096;
        const ABSENT: usize = 1_000_000;
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut xorshift = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Keys scattered over all of u64, and keys of one dense domain —
        // a block of a permuted table probed with the rest of it.
        let scattered: Vec<u64> = (0..HELD + ABSENT).map(|_| xorshift()).collect();
        let mut dense: Vec<u64> = (0..(HELD + ABSENT) as u64).collect();
        for i in (1..dense.len()).rev() {
            dense.swap(i, xorshift() as usize % (i + 1));
        }
        for (domain, keys) in [("scattered", scattered), ("dense", dense)] {
            let (held, absent) = keys.split_at(HELD);
            let mut table = BuildTable::new();
            for &k in held {
                table.insert(k);
            }
            assert_eq!(table.keys * 2, table.directory.len(), "{domain}: fullest");
            let fullest = false_positive_rate(&table, held, absent);
            assert!(fullest <= 0.08, "{domain}: {fullest} at the fullest");

            // One more key doubles the directory; the rebuilt filter
            // still admits every key and is half as dense.
            table.insert(absent[0]);
            assert_eq!(table.directory.len(), 4 * HELD);
            assert!(table.may_hold(fib(absent[0])));
            let grown = false_positive_rate(&table, held, &absent[1..]);
            assert!(grown <= 0.05, "{domain}: {grown} after growing");

            table.clear();
            assert!(!held.iter().any(|&k| table.may_hold(fib(k))), "{domain}");
            for &k in absent.iter().take(HELD) {
                table.insert(k);
            }
            let refilled = false_positive_rate(&table, &absent[..HELD], held);
            assert!(refilled <= 0.08, "{domain}: {refilled} after clear");
        }
    }

    /// `read_from(write_to(r)) == r`, and `key_of` the stored bytes is
    /// `r.key()`.
    fn assert_codec<R: Record + PartialEq + std::fmt::Debug>(records: &[R]) {
        for r in records {
            let mut bytes = vec![0xa5u8; R::SIZE];
            r.write_to(&mut bytes);
            assert_eq!(R::read_from(&bytes), *r);
            assert_eq!(key_of::<R>(&bytes), r.key(), "{r:?}");
        }
    }

    #[test]
    fn every_record_type_round_trips_and_lends_its_key() {
        let keys = [0, 1, 0x0123_4567_89ab_cdef, 1 << 63, u64::MAX];
        let wide = keys.map(|k| WisconsinRecord::from_key(k).with_payload(!k));
        assert_codec::<u64>(&keys);
        assert_codec(&keys.map(|k| (k, !k)));
        assert_codec(&wide);
        assert_codec(&wide.map(|left| Pair {
            left,
            right: WisconsinRecord::from_key(left.payload()),
        }));
        assert_codec(&keys.map(|k| {
            let mut group = crate::agg::GroupAgg::seed(k, !k);
            group.fold(k / 2);
            group
        }));
    }

    #[test]
    fn clear_keeps_the_tables_allocations() {
        let mut table = BuildTable::new();
        for l in wisconsin::join_right_input(1500, 4, 3) {
            table.insert(l);
        }
        let (records, next, directory, filter) = (
            table.records.capacity(),
            table.next.capacity(),
            table.directory.len(),
            table.filter.len(),
        );
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.matches(5).count(), 0);
        assert_eq!(table.records.capacity(), records);
        assert_eq!(table.next.capacity(), next);
        assert_eq!(table.directory.len(), directory);
        assert_eq!(table.filter.len(), filter);
        assert_eq!(filter * 64, directory << FILTER_BITS_PER_SLOT_LOG2);
    }

    #[test]
    fn grace_partition_count_scales_inversely_with_memory() {
        let dev = PmDevice::paper_default();
        let small = BufferPool::new(100 * 80);
        let big = BufferPool::new(1000 * 80);
        let ctx_small = JoinContext::new(&dev, LayerKind::BlockedMemory, &small);
        let ctx_big = JoinContext::new(&dev, LayerKind::BlockedMemory, &big);
        let ks = ctx_small.capacity::<WisconsinRecord>().partitions(10_000.0);
        let kb = ctx_big.capacity::<WisconsinRecord>().partitions(10_000.0);
        assert!(ks > kb);
        assert!(kb >= 1.0);
        assert_eq!((ks, kb), (121.0, 13.0));
    }

    #[test]
    fn grace_applicability_bound() {
        let dev = PmDevice::paper_default();
        let pool = BufferPool::new(100 * 80); // M = 100 records
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let capacity = ctx.capacity::<WisconsinRecord>();
        // √(1.2·8000) ≈ 98 < 100 → applicable.
        assert!(capacity.grace_applicable(8000.0));
        // √(1.2·9000) ≈ 104 > 100 → not applicable.
        assert!(!capacity.grace_applicable(9000.0));
    }
}
