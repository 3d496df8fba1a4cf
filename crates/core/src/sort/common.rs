//! Shared sorting machinery: the sort context, heap entries, the k-way
//! merge driver and the key-range grid of the parallel final passes.

use crate::context::ExecContext;
use crate::join::common::{key_of, view_key};
use pmem_sim::{PCollection, ReadCursor, RecordReader};
use wisconsin::Record;

/// The context sort operators run in — the shared [`ExecContext`] under
/// the name their signatures use.
pub type SortContext<'p> = ExecContext<'p>;

/// A heap entry: where a record sorts — its key and a tiebreak sequence,
/// so duplicate keys retain a total order inside heaps — and the slot of
/// the record's stored bytes in the heap's slab. It orders by `(key,
/// seq)` alone, so a heap of entries makes exactly the moves a heap of
/// the records themselves would.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    /// Sort key.
    key: u64,
    /// Tiebreaker (input position), keeps heaps totally ordered.
    seq: u64,
    /// Where the record's bytes sit in the slab.
    pub(crate) slot: usize,
}

impl Entry {
    /// The entry of the record sorting at `(key, seq)` in slot `slot`.
    #[inline]
    pub(crate) fn new((key, seq): (u64, u64), slot: usize) -> Self {
        Self { key, seq, slot }
    }

    /// Where the entry sorts: `(key, seq)`.
    #[inline]
    pub(crate) fn at(&self) -> (u64, u64) {
        (self.key, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at() == other.at()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at().cmp(&other.at())
    }
}

/// Merge fan-in afforded by the DRAM budget: one block-sized read buffer
/// per open run (at least two-way).
pub(crate) fn merge_fan_in(ctx: &SortContext<'_>) -> usize {
    (ctx.pool().budget() / ctx.device().config().block_size).max(2)
}

/// A cursor over each of `runs`, whole, ready for a [`KWayMerge`].
pub(crate) fn run_sources<R: Record>(runs: &[PCollection<R>]) -> Vec<MergeSource<'_, R>> {
    runs.iter().map(|r| MergeSource::run(r.reader())).collect()
}

/// Records per key-range segment of the parallel final merge. The
/// segment grid depends only on the merged record count — never on the
/// degree of parallelism — so the splitter keys, the per-run boundary
/// searches, and every charged counter are DoP-invariant.
pub(crate) const MERGE_SEGMENT_RECORDS: usize = 8192;

/// Samples up to `count` keys from a sorted collection at evenly spaced
/// positions through one forward cursor (charged like a sparse scan).
pub(crate) fn sample_keys<R: Record>(col: &PCollection<R>, count: usize) -> Vec<u64> {
    if col.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut cursor = ReadCursor::new();
    (0..count)
        .map(|j| {
            col.get_with_cursor(j * col.len() / count, &mut cursor)
                .key()
        })
        .collect()
}

/// Reduces a pooled key sample to `segments − 1` splitter keys at the
/// sample's quantiles. Heavily skewed samples may repeat a splitter;
/// the repeated ranges are simply empty — correct, just less parallel
/// (all-equal keys are the worst case and degrade to one segment).
pub(crate) fn splitters_from_samples(mut sample: Vec<u64>, segments: usize) -> Vec<u64> {
    if sample.is_empty() {
        return Vec::new();
    }
    sample.sort_unstable();
    (1..segments)
        .map(|i| sample[i * sample.len() / segments])
        .collect()
}

/// First index in the sorted `col` whose key is ≥ `key`, by binary
/// search over counted point reads (a handful of random accesses per
/// boundary; the probe sequence depends only on the data).
pub(crate) fn lower_bound_by_key<R: Record>(col: &PCollection<R>, key: u64) -> usize {
    let (mut lo, mut hi) = (0usize, col.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if col.get(mid).key() < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Segment boundaries of a sorted collection under `splitters`:
/// `splitters.len() + 2` nondecreasing positions from 0 to `len`, so
/// segment `i` is `cuts[i]..cuts[i + 1]`.
pub(crate) fn key_range_cuts<R: Record>(col: &PCollection<R>, splitters: &[u64]) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(splitters.len() + 2);
    cuts.push(0);
    for &s in splitters {
        cuts.push(lower_bound_by_key(col, s));
    }
    cuts.push(col.len());
    cuts
}

/// A k-way tournament (loser tree) over stream indices: `log₂ k`
/// comparisons per emitted record regardless of which stream wins,
/// versus the up-to-`2·log₂ k` sift of a binary heap — the difference
/// shows at high merge fan-in. Equal keys tie-break by the smaller
/// stream index, which makes the merge *stable by stream* and lets the
/// range-partitioned final merge reproduce the serial output exactly.
#[derive(Debug)]
pub(crate) struct LoserTree {
    /// `node[0]`: the overall winner leaf; `node[1..p]`: the loser leaf
    /// of the internal match at that slot.
    node: Vec<usize>,
    /// Leaf count padded to the next power of two (padding leaves are
    /// permanently exhausted).
    p: usize,
}

/// Whether leaf `a` beats leaf `b` given the streams' current head keys
/// (`None` = exhausted, loses to everything; ties go to the smaller
/// index).
fn beats(a: usize, b: usize, keys: &[Option<u64>]) -> bool {
    match (
        keys.get(a).copied().flatten(),
        keys.get(b).copied().flatten(),
    ) {
        (Some(x), Some(y)) => (x, a) < (y, b),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

impl LoserTree {
    /// Builds the tournament over `keys.len()` streams.
    pub(crate) fn new(keys: &[Option<u64>]) -> Self {
        let p = keys.len().max(1).next_power_of_two();
        let mut tree = Self {
            node: vec![0; p],
            p,
        };
        tree.node[0] = tree.build(1, keys);
        tree
    }

    /// Plays out the subtree under internal node `n`, recording losers;
    /// returns the subtree's winning leaf.
    fn build(&mut self, n: usize, keys: &[Option<u64>]) -> usize {
        if n >= self.p {
            return n - self.p;
        }
        let a = self.build(2 * n, keys);
        let b = self.build(2 * n + 1, keys);
        if beats(a, b, keys) {
            self.node[n] = b;
            a
        } else {
            self.node[n] = a;
            b
        }
    }

    /// Index of the stream holding the smallest head.
    pub(crate) fn winner(&self) -> usize {
        self.node[0]
    }

    /// Replays the winner's path after its stream advanced (`keys` must
    /// reflect the new head): exactly `log₂ p` matches.
    pub(crate) fn replay(&mut self, keys: &[Option<u64>]) {
        let mut w = self.node[0];
        let mut n = (self.p + w) >> 1;
        while n >= 1 {
            if beats(self.node[n], w, keys) {
                std::mem::swap(&mut self.node[n], &mut w);
            }
            n >>= 1;
        }
        self.node[0] = w;
    }
}

/// One sorted input of a [`KWayMerge`], exposing its head as *key +
/// stored bytes*: a merge compares keys and moves bytes, so a record
/// that is only merged is never decoded.
pub(crate) struct MergeSource<'a, R: Record>(Source<'a, R>);

enum Source<'a, R: Record> {
    /// A sorted run, or a slice of one — an immutable batch read in
    /// place: the head stays where the reader found it.
    Run(RecordReader<'a, R>),
    /// A sorted stream of DRAM batches of stored records, one batch after
    /// another (a deferred selection stream, a batch per pass): the head
    /// is the record ending at `end` in the current batch.
    Batches {
        batches: Box<dyn Iterator<Item = Vec<u8>> + 'a>,
        batch: Vec<u8>,
        end: usize,
    },
    /// Any other sorted stream of records (keys in DRAM). The head
    /// arrives decoded and is serialized only if its bytes are asked for.
    Stream {
        records: Box<dyn Iterator<Item = R> + 'a>,
        head: Option<R>,
        stored: Vec<u8>,
    },
}

impl<'a, R: Record> MergeSource<'a, R> {
    /// A cursor over a sorted run through `reader`. It pulls: each
    /// record is charged as it becomes the head, exactly as iterating
    /// the reader would — a merge interleaves its runs, so none of them
    /// may be charged ahead.
    pub(crate) fn run(reader: RecordReader<'a, R>) -> Self {
        Self(Source::Run(reader))
    }

    /// A cursor over sorted batches of stored records, each batch's
    /// records back to back, every record of a batch sorting at or after
    /// the last of the batch before.
    pub(crate) fn batches(batches: impl Iterator<Item = Vec<u8>> + 'a) -> Self {
        Self(Source::Batches {
            batches: Box::new(batches),
            batch: Vec::new(),
            end: 0,
        })
    }

    fn boxed(records: Box<dyn Iterator<Item = R> + 'a>) -> Self {
        Self(Source::Stream {
            records,
            head: None,
            stored: vec![0; R::SIZE],
        })
    }

    /// Moves on to the next record and returns its key; `None` once the
    /// source is exhausted.
    #[inline]
    fn advance(&mut self) -> Option<u64> {
        match &mut self.0 {
            Source::Run(reader) => reader.next_view().map(|v| view_key(&v)),
            Source::Batches {
                batches,
                batch,
                end,
            } => {
                if *end == batch.len() {
                    *batch = batches.find(|b| !b.is_empty())?;
                    *end = 0;
                }
                *end += R::SIZE;
                Some(key_of::<R>(&batch[*end - R::SIZE..*end]))
            }
            Source::Stream { records, head, .. } => {
                *head = records.next();
                head.as_ref().map(Record::key)
            }
        }
    }

    /// The stored bytes of the record the last [`MergeSource::advance`]
    /// moved to (`None` before the first).
    #[inline]
    fn head_bytes(&mut self) -> Option<&[u8]> {
        match &mut self.0 {
            Source::Run(reader) => reader.last_view().map(|v| v.bytes()),
            Source::Batches { batch, end, .. } => batch.get(end.checked_sub(R::SIZE)?..*end),
            Source::Stream { head, stored, .. } => {
                (*head)?.write_to(stored);
                Some(stored)
            }
        }
    }

    /// The head, decoded.
    #[inline]
    fn head_record(&self) -> Option<R> {
        match &self.0 {
            Source::Run(reader) => reader.last_view().map(|v| v.get()),
            Source::Batches { batch, end, .. } => {
                batch.get(end.checked_sub(R::SIZE)?..*end).map(R::read_from)
            }
            Source::Stream { head, .. } => *head,
        }
    }
}

/// K-way merge of sorted sources on a loser tree; equal keys come out
/// in source-index order. The one merge driver: it lands winners as
/// stored bytes (`for_each_bytes` — the run merges, which
/// only move records) or hands them out decoded to consumers that must
/// see records (the [`Iterator`] — the aggregation pipeline).
pub struct KWayMerge<'a, R: Record> {
    sources: Vec<MergeSource<'a, R>>,
    keys: Vec<Option<u64>>,
    tree: LoserTree,
}

impl<'a, R: Record> KWayMerge<'a, R> {
    /// Merges arbitrary sorted record streams.
    pub fn new(streams: Vec<Box<dyn Iterator<Item = R> + 'a>>) -> Self {
        Self::from_sources(streams.into_iter().map(MergeSource::boxed).collect())
    }

    /// Primes every source and builds the tournament.
    pub(crate) fn from_sources(mut sources: Vec<MergeSource<'a, R>>) -> Self {
        let keys: Vec<Option<u64>> = sources.iter_mut().map(MergeSource::advance).collect();
        let tree = LoserTree::new(&keys);
        Self {
            sources,
            keys,
            tree,
        }
    }

    /// Lets `take` have the winning source's head, then advances that
    /// source and replays the tournament; `None` once every source is
    /// exhausted.
    #[inline]
    fn pop<T>(&mut self, take: impl FnOnce(&mut MergeSource<'a, R>) -> Option<T>) -> Option<T> {
        let i = self.tree.winner();
        // An exhausted winner means every source is exhausted.
        self.keys.get(i).copied().flatten()?;
        let source = self.sources.get_mut(i)?;
        let taken = take(source)?;
        self.keys[i] = source.advance();
        self.tree.replay(&self.keys);
        Some(taken)
    }

    /// Runs the merge to the end, lending each record's stored bytes to
    /// `land` in merged order.
    pub(crate) fn for_each_bytes(mut self, mut land: impl FnMut(&[u8])) {
        while self
            .pop(|winner| winner.head_bytes().map(&mut land))
            .is_some()
        {}
    }
}

impl<'a, R: Record> Iterator for KWayMerge<'a, R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.pop(|winner| winner.head_record())
    }
}

/// Asserts a collection is sorted by key (test helper).
pub fn is_sorted_by_key<R: Record>(col: &PCollection<R>) -> bool {
    // audit:allow(uncounted-api) test-only verification read, outside the measured path
    let v = col.to_vec_uncounted();
    v.windows(2).all(|w| w[0].key() <= w[1].key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::ext_merge::chunked_runs;
    use crate::sort::kernel::{generate_runs, merge_final, merge_into, Land};
    use pmem_sim::{BufferPool, IoStats, LayerKind, Pm, PmDevice, RecordBuffer, Storable};
    use wisconsin::{sort_input, KeyOrder, WisconsinRecord};

    fn stage(n: u64, order: KeyOrder) -> (Pm, PCollection<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let col = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "input",
            sort_input(n, order, 42),
        );
        (dev, col)
    }

    // Run generation and the merge passes are `kernel.rs`'s; their tests
    // stay beside the merge driver's.

    /// Replacement selection over all of `input`, as segment sort runs it.
    fn runs_of(
        input: &PCollection<WisconsinRecord>,
        capacity: usize,
        ctx: &SortContext<'_>,
    ) -> Vec<PCollection<WisconsinRecord>> {
        generate_runs(input.reader(), capacity, || ctx.fresh("run"))
    }

    #[test]
    fn replacement_selection_runs_are_sorted_and_complete() {
        let (dev, input) = stage(5000, KeyOrder::Random);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = runs_of(&input, 100, &ctx);
        let mut total = 0;
        for run in &runs {
            assert!(is_sorted_by_key(run));
            total += run.len();
        }
        assert_eq!(total, 5000);
    }

    #[test]
    fn replacement_selection_runs_average_2m_on_random_input() {
        let (dev, input) = stage(20_000, KeyOrder::Random);
        let pool = BufferPool::new(200 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = runs_of(&input, 200, &ctx);
        let avg = 20_000.0 / runs.len() as f64;
        assert!(
            avg > 1.5 * 200.0 && avg < 2.5 * 200.0,
            "average run length {avg} not near 2M"
        );
    }

    #[test]
    fn sorted_input_yields_single_run() {
        let (dev, input) = stage(5000, KeyOrder::Sorted);
        let pool = BufferPool::new(64 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = runs_of(&input, 64, &ctx);
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn reverse_input_yields_runs_of_m() {
        let (dev, input) = stage(1000, KeyOrder::Reverse);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = runs_of(&input, 100, &ctx);
        assert_eq!(runs.len(), 10); // worst case: every run exactly M
    }

    #[test]
    fn parallel_run_generation_is_dop_invariant() {
        // Same chunked runs — contents, names, and charged traffic — at
        // every degree of parallelism.
        let gen_at = |threads: usize| {
            let (dev, input) = stage(6_000, KeyOrder::Random);
            let pool = BufferPool::new(100 * 80);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let (runs, chunks) = chunked_runs(&input, 100, &ctx);
            let delta = dev.snapshot().since(&before);
            let summary: Vec<(String, Vec<u64>)> = runs
                .iter()
                .map(|r| {
                    (
                        r.name().to_string(),
                        r.to_vec_uncounted().iter().map(Record::key).collect(),
                    )
                })
                .collect();
            (summary, delta, chunks)
        };
        let (serial, d1, chunks) = gen_at(1);
        assert!(serial.len() > 1, "input must span several chunks");
        assert_eq!(chunks.tasks.len(), 15, "a task per 4M-record chunk");
        let mut total = 0;
        for (_, keys) in &serial {
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            total += keys.len();
        }
        assert_eq!(total, 6_000);
        for threads in [2, 4] {
            let (par, dn, chunks_n) = gen_at(threads);
            assert_eq!(serial, par, "runs must not depend on DoP");
            assert_eq!(d1, dn, "counters must not depend on DoP");
            assert_eq!(chunks, chunks_n, "ledgers must not depend on DoP");
        }
    }

    #[test]
    fn small_inputs_use_the_serial_generator_unchanged() {
        let (dev, input) = stage(300, KeyOrder::Random);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(4);
        // 300 <= 4·100: one chunk, byte-for-byte the serial algorithm.
        let (chunked, chunks) = chunked_runs(&input, 100, &ctx);
        assert_eq!(chunks.tasks.len(), 1);
        let ctx2 = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let serial = runs_of(&input, 100, &ctx2);
        assert_eq!(chunked.len(), serial.len());
        for (a, b) in chunked.iter().zip(&serial) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.to_vec_uncounted(), b.to_vec_uncounted());
        }
    }

    #[test]
    fn merge_runs_produces_total_order() {
        let (dev, input) = stage(8000, KeyOrder::Random);
        let pool = BufferPool::new(128 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = runs_of(&input, 128, &ctx);
        assert!(
            runs.len() > merge_fan_in(&ctx),
            "needs an intermediate pass"
        );
        let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "sorted");
        let phases = merge_into(runs, &ctx, &mut out);
        assert!(phases.len() >= 2, "intermediate and final passes");
        assert_eq!(out.len(), 8000);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn merge_handles_empty_and_single_run() {
        let dev = PmDevice::paper_default();
        let pool = BufferPool::new(8192);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "empty");
        merge_into(Vec::<PCollection<WisconsinRecord>>::new(), &ctx, &mut out);
        assert!(out.is_empty());

        let one = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "r",
            (0..10).map(WisconsinRecord::from_key),
        );
        let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "single");
        merge_into(vec![one], &ctx, &mut out);
        assert_eq!(out.len(), 10);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn entry_ordering_breaks_ties_by_seq() {
        let a = Entry::new((5, 0), 1);
        let b = Entry::new((5, 1), 0);
        assert!(a < b);
        // The slot plays no part.
        assert_eq!(Entry::new((5, 1), 7), b);
    }

    #[test]
    fn loser_tree_emits_total_order_with_stream_index_ties() {
        // Three streams with interleaved and duplicate keys: the merge
        // must be sorted, and equal keys must come out in stream order.
        let streams: Vec<Vec<u64>> = vec![vec![1, 4, 4, 9], vec![2, 4, 9], vec![4, 7]];
        let mut keys: Vec<Option<u64>> = streams.iter().map(|s| s.first().copied()).collect();
        let mut pos = vec![0usize; streams.len()];
        let mut tree = LoserTree::new(&keys);
        let mut merged = Vec::new();
        loop {
            let i = tree.winner();
            let Some(k) = keys[i] else { break };
            merged.push((k, i));
            pos[i] += 1;
            keys[i] = streams[i].get(pos[i]).copied();
            tree.replay(&keys);
        }
        assert_eq!(
            merged,
            vec![
                (1, 0),
                (2, 1),
                (4, 0),
                (4, 0),
                (4, 1),
                (4, 2),
                (7, 2),
                (9, 0),
                (9, 1),
            ]
        );
    }

    #[test]
    fn one_driver_merges_run_cursors_streams_and_mixtures_alike() {
        // Every flavour of source in one merge: a run cursor, batches of
        // stored records (uneven, one of them empty) and a decoded stream.
        fn mixed(runs: &[PCollection<WisconsinRecord>]) -> KWayMerge<'_, WisconsinRecord> {
            let mut stored = Vec::new();
            runs[1].for_each_run_uncounted(|run| stored.extend_from_slice(run));
            let mut batches = Vec::new();
            for records in [7, 0, 100, 1] {
                let rest = stored.split_off(records * WisconsinRecord::SIZE);
                batches.push(std::mem::replace(&mut stored, rest));
            }
            batches.push(stored);
            let decoded = runs[2].to_vec_uncounted().into_iter();
            let sources = vec![
                MergeSource::run(runs[0].reader()),
                MergeSource::batches(batches.into_iter()),
                MergeSource::boxed(Box::new(decoded)),
            ];
            KWayMerge::from_sources(sources)
        }

        // Three sorted runs with duplicate keys across and within runs;
        // payloads tell the copies apart, so the expected output pins
        // the tie-break (equal keys in source order) as well.
        let runs_of = |dev: &Pm| -> Vec<PCollection<WisconsinRecord>> {
            (0..3u64)
                .map(|r| {
                    PCollection::from_records_uncounted(
                        dev,
                        LayerKind::BlockedMemory,
                        format!("r{r}"),
                        (0..500u64).map(move |i| {
                            WisconsinRecord::from_key((i + r) / 3).with_payload(r * 1000 + i)
                        }),
                    )
                })
                .collect()
        };
        let dev = PmDevice::paper_default();
        let runs = runs_of(&dev);
        let mut expected: Vec<WisconsinRecord> = runs
            .iter()
            .flat_map(PCollection::to_vec_uncounted)
            .collect();
        expected.sort_by_key(Record::key); // stable: run order within a key

        // Run cursors, landed as bytes.
        let before = dev.snapshot();
        let mut landed: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "landed");
        KWayMerge::from_sources(run_sources(&runs)).for_each_bytes(|rec| landed.append_bytes(rec));
        let by_bytes = dev.snapshot().since(&before);
        assert_eq!(landed.to_vec_uncounted(), expected);

        // Boxed streams, handed out decoded — on a twin device: reading
        // a run through a cursor charges what iterating its reader does.
        let twin_dev = PmDevice::paper_default();
        let twin_runs = runs_of(&twin_dev);
        let streams: Vec<Box<dyn Iterator<Item = WisconsinRecord> + '_>> = twin_runs
            .iter()
            .map(|r| Box::new(r.reader()) as Box<dyn Iterator<Item = WisconsinRecord> + '_>)
            .collect();
        let mut typed = PCollection::new(&twin_dev, LayerKind::BlockedMemory, "landed");
        for rec in KWayMerge::new(streams) {
            typed.append(&rec);
        }
        assert_eq!(typed.to_vec_uncounted(), expected);
        assert_eq!(twin_dev.snapshot(), by_bytes);

        // A mixture, through both outlets.
        assert_eq!(mixed(&runs).collect::<Vec<_>>(), expected);
        let mut bytes = RecordBuffer::new();
        mixed(&runs).for_each_bytes(|rec| bytes.push_bytes(rec));
        let mut landed: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "mixed");
        landed.append_buffer(&bytes);
        assert_eq!(landed.to_vec_uncounted(), expected);

        // No sources, and only empty ones.
        assert_eq!(
            KWayMerge::<WisconsinRecord>::from_sources(Vec::new()).count(),
            0
        );
        let empty: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "empty");
        let empties = vec![
            MergeSource::run(empty.reader()),
            MergeSource::batches(vec![Vec::new()].into_iter()),
            MergeSource::boxed(Box::new(std::iter::empty())),
        ];
        KWayMerge::from_sources(empties).for_each_bytes(|_| panic!("nothing to land"));
    }

    #[test]
    fn loser_tree_handles_degenerate_stream_counts() {
        // Zero streams: the virtual winner is exhausted.
        let tree = LoserTree::new(&[]);
        assert_eq!(tree.winner(), 0);
        // One stream: it always wins until exhausted.
        let mut keys = vec![Some(3u64)];
        let mut tree = LoserTree::new(&keys);
        assert_eq!(tree.winner(), 0);
        keys[0] = None;
        tree.replay(&keys);
        assert_eq!(tree.winner(), 0);
    }

    #[test]
    fn lower_bound_by_key_finds_first_not_less() {
        let dev = PmDevice::paper_default();
        let col = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "s",
            [1u64, 3, 3, 3, 8, 9].map(WisconsinRecord::from_key),
        );
        assert_eq!(lower_bound_by_key(&col, 0), 0);
        assert_eq!(lower_bound_by_key(&col, 3), 1);
        assert_eq!(lower_bound_by_key(&col, 4), 4);
        assert_eq!(lower_bound_by_key(&col, 9), 5);
        assert_eq!(lower_bound_by_key(&col, 100), 6);
    }

    #[test]
    fn parallel_final_merge_matches_serial_merge_exactly() {
        // The range-partitioned final pass must produce byte-identical
        // output to the serial tournament, and identical counters at
        // every DoP (the grid depends on the data, not the workers).
        let make_runs = |dev: &Pm| -> Vec<PCollection<WisconsinRecord>> {
            (0..4u64)
                .map(|r| {
                    PCollection::from_records_uncounted(
                        dev,
                        LayerKind::BlockedMemory,
                        format!("r{r}"),
                        (0..6000u64).map(move |i| {
                            WisconsinRecord::from_key(i / 2 + r).with_payload(r * 10_000 + i)
                        }),
                    )
                })
                .collect()
        };
        let serial = {
            let dev = PmDevice::paper_default();
            let runs = make_runs(&dev);
            let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "serial");
            KWayMerge::from_sources(run_sources(&runs)).for_each_bytes(|rec| out.append_bytes(rec));
            out.to_vec_uncounted()
        };
        let mut baseline = None;
        for threads in [1, 2, 4] {
            let dev = PmDevice::paper_default();
            let runs = make_runs(&dev);
            let pool = BufferPool::new(200 * 80);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "parallel");
            let before = dev.snapshot();
            let phases = merge_final(&runs, None, 0, &ctx, &Land { by_range: true }, &mut out);
            let delta = dev.snapshot().since(&before);
            assert!(phases[1].tasks.len() > 1, "spans several segments");
            assert_eq!(out.to_vec_uncounted(), serial, "DoP {threads}");
            match &baseline {
                None => baseline = Some((delta, phases)),
                Some((d, p)) => {
                    assert_eq!(*d, delta, "counters differ at DoP {threads}");
                    assert_eq!(*p, phases, "ledgers differ at DoP {threads}");
                }
            }
        }
    }

    #[test]
    fn segment_ledgers_cover_the_whole_parallel_merge() {
        // Splitter sampling and boundary probes are a one-task phase of
        // their own, the segments' reads and output writes the next: the
        // two cover the pass's device delta exactly.
        let dev = PmDevice::paper_default();
        let runs: Vec<PCollection<WisconsinRecord>> = (0..3u64)
            .map(|r| {
                PCollection::from_records_uncounted(
                    &dev,
                    LayerKind::BlockedMemory,
                    format!("r{r}"),
                    (0..8000u64).map(move |i| WisconsinRecord::from_key(3 * i + r)),
                )
            })
            .collect();
        let pool = BufferPool::new(200 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(4);
        let mut out = PCollection::new(&dev, LayerKind::BlockedMemory, "out");
        let before = dev.snapshot();
        let phases = merge_final(&runs, None, 0, &ctx, &Land { by_range: true }, &mut out);
        let delta = dev.snapshot().since(&before);
        assert_eq!(phases.len(), 2, "the cuts, then the segments");
        assert_eq!(phases[0].tasks.len(), 1);
        assert!(phases[1].tasks.len() > 1);
        let covered = phases
            .iter()
            .flat_map(|phase| &phase.tasks)
            .fold(IoStats::default(), |acc, s| acc.plus(s));
        assert_eq!(
            (covered.cl_reads, covered.cl_writes, covered.calls),
            (delta.cl_reads, delta.cl_writes, delta.calls)
        );
    }
}
