//! Shared sorting machinery: sort context, run generation via replacement
//! selection, and k-way merging.

use crate::context::ExecContext;
use crate::join::common::view_key;
use crate::parallel;
use pmem_sim::{thread_stats, IoStats, PCollection, ReadCursor, RecordBuffer, RecordReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wisconsin::Record;

/// The context sort operators run in — the shared [`ExecContext`] under
/// the name their signatures use.
pub type SortContext<'p> = ExecContext<'p>;

/// A heap entry carrying the record, its key, and a tiebreak sequence so
/// duplicate keys retain a total order inside heaps.
#[derive(Clone, Copy, Debug)]
pub struct Entry<R> {
    /// Sort key.
    pub key: u64,
    /// Tiebreaker (input position), keeps heaps totally ordered.
    pub seq: u64,
    /// The record itself.
    pub record: R,
}

impl<R> Entry<R> {
    /// Wraps `record` with its key and a sequence number.
    pub fn new(record: R, seq: u64) -> Self
    where
        R: Record,
    {
        Self {
            key: record.key(),
            seq,
            record,
        }
    }
}

impl<R> PartialEq for Entry<R> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<R> Eq for Entry<R> {}
impl<R> PartialOrd for Entry<R> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<R> Ord for Entry<R> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

/// Generates sorted runs from `input` using replacement selection with a
/// DRAM heap of `capacity` records; runs average twice the heap size on
/// random input (the classic result the paper's Eq. 1 uses).
pub fn generate_runs_replacement<R: Record>(
    input: &PCollection<R>,
    capacity: usize,
    ctx: &SortContext<'_>,
) -> Vec<PCollection<R>> {
    generate_runs_replacement_range(input, 0..input.len(), capacity, ctx)
}

/// Range variant of [`generate_runs_replacement`], used by segment sort to
/// process only a slice of the input.
pub fn generate_runs_replacement_range<R: Record>(
    input: &PCollection<R>,
    range: std::ops::Range<usize>,
    capacity: usize,
    ctx: &SortContext<'_>,
) -> Vec<PCollection<R>> {
    generate_runs_with(input, range, capacity, || ctx.fresh::<R>("run"))
}

/// Chunk width for parallel run generation, in multiples of the DRAM
/// heap capacity `M`. Replacement selection emits runs averaging `2M` on
/// random input, so a `4M` chunk yields ~2 runs and the expected run
/// count (and with it the merge-pass count) matches the unchunked
/// generator; only run *boundaries* move. The width depends on `M` and
/// the input alone — never on the degree of parallelism — so the runs,
/// their names, and every counter are DoP-invariant.
const RUN_GEN_CHUNK_CAPACITIES: usize = 4;

/// Parallel run generation: splits the input into fixed `4M`-record
/// chunks and runs replacement selection on each chunk across the worker
/// pool. Chunk boundaries are a function of the DRAM budget only, so the
/// produced runs are identical at any degree of parallelism; inputs no
/// larger than one chunk fall back to the serial generator unchanged.
pub fn generate_runs_parallel<R: Record>(
    input: &PCollection<R>,
    capacity: usize,
    ctx: &SortContext<'_>,
) -> Vec<PCollection<R>> {
    generate_runs_parallel_profiled(input, capacity, ctx).0
}

/// [`generate_runs_parallel`] plus each chunk's traffic as charged by
/// its worker's thread-local ledger — the run-generation half of the
/// speedup harness's critical-path profile.
pub fn generate_runs_parallel_profiled<R: Record>(
    input: &PCollection<R>,
    capacity: usize,
    ctx: &SortContext<'_>,
) -> (Vec<PCollection<R>>, Vec<IoStats>) {
    let chunk = capacity.saturating_mul(RUN_GEN_CHUNK_CAPACITIES).max(1);
    if input.len() <= chunk {
        let before = thread_stats();
        let runs = generate_runs_replacement(input, capacity, ctx);
        return (runs, vec![thread_stats().since(&before)]);
    }
    let n_chunks = input.len().div_ceil(chunk);
    // Mint one name prefix per chunk on the coordinating thread; workers
    // derive their run names locally, so naming stays deterministic.
    let prefixes: Vec<String> = (0..n_chunks).map(|_| ctx.fresh_name("run")).collect();
    let mut all: Vec<PCollection<R>> = Vec::with_capacity(n_chunks * 2);
    let mut per_chunk = Vec::with_capacity(n_chunks);
    parallel::for_each_ordered(
        ctx.threads(),
        n_chunks,
        |c| {
            let start = c * chunk;
            let end = (start + chunk).min(input.len());
            let mut local = 0u32;
            generate_runs_with(input, start..end, capacity, || {
                let name = format!("{}.{local}", prefixes[c]);
                local += 1;
                PCollection::new(ctx.device(), ctx.kind(), name)
            })
        },
        |_, out| {
            all.extend(out.value);
            per_chunk.push(out.stats);
        },
    );
    (all, per_chunk)
}

/// Replacement selection over `range` with caller-supplied run
/// allocation — the shared core of the serial and chunk-parallel
/// generators.
fn generate_runs_with<R: Record>(
    input: &PCollection<R>,
    range: std::ops::Range<usize>,
    capacity: usize,
    mut next_run: impl FnMut() -> PCollection<R>,
) -> Vec<PCollection<R>> {
    assert!(
        capacity > 0,
        "replacement selection needs at least 1 record of DRAM"
    );
    let mut runs: Vec<PCollection<R>> = Vec::new();
    let mut current: BinaryHeap<Reverse<Entry<R>>> = BinaryHeap::with_capacity(capacity);
    let mut next: Vec<Entry<R>> = Vec::new();
    let mut run = next_run();
    let mut last_out: Option<u64> = None;

    let mut seq = 0u64;
    input
        .range_reader(range.start, range.end)
        .for_each_view(|view| {
            // Every record enters a heap, so every record is decoded.
            let e = Entry::new(view.get(), seq);
            seq += 1;
            if current.len() + next.len() < capacity {
                // Heap not yet at capacity: stage into the current run if the
                // record can still extend it, otherwise into the next run.
                match last_out {
                    Some(k) if e.key < k => next.push(e),
                    _ => current.push(Reverse(e)),
                }
            } else {
                // Evict the minimum of the current run, then place the new
                // record into current (if it can extend the run) or next.
                if let Some(Reverse(min)) = current.pop() {
                    run.append(&min.record);
                    last_out = Some(min.key);
                }
                if Some(e.key) >= last_out {
                    current.push(Reverse(e));
                } else {
                    next.push(e);
                }
                if current.is_empty() {
                    runs.push(std::mem::replace(&mut run, next_run()));
                    current.extend(next.drain(..).map(Reverse));
                    last_out = None;
                }
            }
        });

    // Drain the tail: finish the current run, then the next run.
    while let Some(Reverse(min)) = current.pop() {
        run.append(&min.record);
    }
    if !run.is_empty() {
        runs.push(run);
    }
    if !next.is_empty() {
        next.sort_unstable();
        let mut tail = next_run();
        for e in next {
            tail.append(&e.record);
        }
        runs.push(tail);
    }
    runs
}

/// Merge fan-in afforded by the DRAM budget: one block-sized read buffer
/// per open run (at least two-way).
pub fn merge_fan_in(ctx: &SortContext<'_>) -> usize {
    (ctx.pool().budget() / ctx.device().config().block_size).max(2)
}

/// Merges `runs` (each individually sorted) into a single collection,
/// performing as many passes as the fan-in dictates — the paper's
/// `log_M |T|` merge phase.
pub fn merge_runs<R: Record>(
    mut runs: Vec<PCollection<R>>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> PCollection<R> {
    if runs.len() == 1 {
        // A single run is already the sorted output; returning it directly
        // avoids a spurious rewrite (its name stays "run-…", which is
        // cosmetic — cost fidelity matters more than the label).
        if let Some(run) = runs.pop() {
            return run;
        }
    }
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    merge_runs_into(runs, ctx, &mut out);
    out
}

/// Per-pass ledger profile of a multi-pass merge: one entry per pass,
/// each holding the traffic of that pass's independent tasks (merge
/// groups for intermediate passes, key-range segments for the final
/// one). The speedup harness turns these into critical-path estimates.
#[derive(Clone, Debug, Default)]
pub struct MergeProfile {
    /// Per pass, the per-task traffic in execution (task-index) order.
    pub passes: Vec<Vec<IoStats>>,
}

/// Merges `runs` and **appends** the result to `out` (which may already
/// hold a sorted prefix smaller than every run record, as in hybrid
/// sort). Intermediate passes reduce the run count to the fan-in; the
/// final pass range-partitions the key space and streams each segment
/// into `out` in splitter order.
pub fn merge_runs_into<R: Record>(
    runs: Vec<PCollection<R>>,
    ctx: &SortContext<'_>,
    out: &mut PCollection<R>,
) {
    let _ = merge_runs_into_profiled(runs, ctx, out);
}

/// [`merge_runs_into`] plus the per-pass, per-task ledger profile.
pub fn merge_runs_into_profiled<R: Record>(
    mut runs: Vec<PCollection<R>>,
    ctx: &SortContext<'_>,
    out: &mut PCollection<R>,
) -> MergeProfile {
    let mut profile = MergeProfile::default();
    if runs.is_empty() {
        return profile;
    }
    let fan_in = merge_fan_in(ctx);
    while runs.len() > fan_in {
        // The groups of one intermediate pass are independent merges, so
        // they fan out across the worker pool. Target names are minted
        // up front on this thread; each group's reads and writes touch
        // only its own runs and target, so the counters are identical to
        // the serial pass at any DoP.
        let groups: Vec<&[PCollection<R>]> = runs.chunks(fan_in).collect();
        let names: Vec<String> = (0..groups.len()).map(|_| ctx.fresh_name("merge")).collect();
        let mut merged = Vec::with_capacity(groups.len());
        let mut pass = Vec::with_capacity(groups.len());
        parallel::for_each_ordered(
            ctx.threads(),
            groups.len(),
            |g| {
                let mut next = PCollection::new(ctx.device(), ctx.kind(), names[g].clone());
                merge_group(groups[g], &mut next);
                next
            },
            |_, task| {
                merged.push(task.value);
                pass.push(task.stats);
            },
        );
        drop(groups);
        runs = merged;
        profile.passes.push(pass);
    }
    if runs.len() == 1 && out.is_empty() {
        // Concatenation with an empty prefix: copying is unavoidable to
        // land the data in `out`, but prefer the cheap path when the
        // caller can take ownership via `merge_runs` instead.
        let before = thread_stats();
        runs[0]
            .reader()
            .for_each_view(|r| out.append_bytes(r.bytes()));
        profile.passes.push(vec![thread_stats().since(&before)]);
        return profile;
    }
    profile.passes.push(merge_group_parallel(&runs, ctx, out));
    profile
}

/// Streams one merge group into `out` using a tournament over the run
/// heads.
pub fn merge_group<R: Record>(group: &[PCollection<R>], out: &mut PCollection<R>) {
    KWayMerge::from_sources(run_sources(group)).for_each_bytes(|rec| out.append_bytes(rec));
}

/// A cursor over each of `runs`, whole, ready for a [`KWayMerge`].
pub(crate) fn run_sources<R: Record>(runs: &[PCollection<R>]) -> Vec<MergeSource<'_, R>> {
    runs.iter().map(|r| MergeSource::run(r.reader())).collect()
}

/// Records per key-range segment of the parallel final merge. The
/// segment grid depends only on the merged record count — never on the
/// degree of parallelism — so the splitter keys, the per-run boundary
/// searches, and every charged counter are DoP-invariant.
pub const MERGE_SEGMENT_RECORDS: usize = 8192;

/// Final-pass merge of one group, range-partitioned across the worker
/// pool: splitter keys are sampled from the runs, each worker merges its
/// key range from **all** runs into an ordered segment, and the
/// coordinator concatenates the segments in splitter order. The output
/// is byte-identical to [`merge_group`] (equal keys tie-break by run
/// index in both), and the counters are identical at any DoP. Returns
/// the per-segment traffic (segment reads plus its share of the output
/// flush).
pub fn merge_group_parallel<R: Record>(
    group: &[PCollection<R>],
    ctx: &SortContext<'_>,
    out: &mut PCollection<R>,
) -> Vec<IoStats> {
    let total: usize = group.iter().map(PCollection::len).sum();
    let segments = total.div_ceil(MERGE_SEGMENT_RECORDS).max(1);
    if group.len() <= 1 || segments <= 1 {
        let before = thread_stats();
        merge_group(group, out);
        return vec![thread_stats().since(&before)];
    }
    let cuts = run_segment_cuts(group, segments);
    let mut per_segment = Vec::with_capacity(segments);
    parallel::for_each_ordered(
        ctx.threads(),
        segments,
        |seg| {
            let len = cuts.iter().map(|c| c[seg + 1] - c[seg]).sum();
            let mut buf = RecordBuffer::with_capacity(len);
            KWayMerge::from_sources(segment_sources(group, &cuts, seg))
                .for_each_bytes(|rec| buf.push_bytes(rec));
            buf
        },
        |_, task| {
            // The flush is serialized here for count determinism, but the
            // writes belong to the segment (a medium serving DoP workers
            // would land each segment from its own worker); charge them
            // to the segment's cost through the coordinator's ledger.
            let before = thread_stats();
            out.append_buffer(&task.value);
            let flush = thread_stats().since(&before);
            per_segment.push(task.stats.plus(&flush));
        },
    );
    per_segment
}

/// One segment's merge inputs under a [`run_segment_cuts`] grid: run
/// `r`'s records in `cuts[r][seg]..cuts[r][seg + 1]`, as cursors ready
/// for a [`KWayMerge`].
pub(crate) fn segment_sources<'a, R: Record>(
    runs: &'a [PCollection<R>],
    cuts: &[Vec<usize>],
    seg: usize,
) -> Vec<MergeSource<'a, R>> {
    runs.iter()
        .zip(cuts)
        .map(|(run, cuts)| MergeSource::run(run.range_reader(cuts[seg], cuts[seg + 1])))
        .collect()
}

/// The shared scaffolding of the range-partitioned passes over a set of
/// sorted runs: pool an evenly spaced key sample from every run, reduce
/// it to quantile splitters, and cut each run at them — `cuts[r][i]..
/// cuts[r][i + 1]` is run `r`'s slice of segment `i`. The grid depends
/// only on the data, so it is identical at any DoP.
pub(crate) fn run_segment_cuts<R: Record>(
    runs: &[PCollection<R>],
    segments: usize,
) -> Vec<Vec<usize>> {
    let mut sample: Vec<u64> = Vec::with_capacity(runs.len() * segments);
    for run in runs {
        sample.extend(sample_keys(run, segments));
    }
    let splitters = splitters_from_samples(sample, segments);
    runs.iter().map(|r| key_range_cuts(r, &splitters)).collect()
}

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
pub struct LoserTree {
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
    pub fn new(keys: &[Option<u64>]) -> Self {
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
    pub fn winner(&self) -> usize {
        self.node[0]
    }

    /// Replays the winner's path after its stream advanced (`keys` must
    /// reflect the new head): exactly `log₂ p` matches.
    pub fn replay(&mut self, keys: &[Option<u64>]) {
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
pub struct MergeSource<'a, R: Record>(Source<'a, R>);

enum Source<'a, R: Record> {
    /// A sorted run, or a slice of one — an immutable batch read in
    /// place: the head stays where the reader found it.
    Run(RecordReader<'a, R>),
    /// Any other sorted stream of records (a deferred selection stream,
    /// keys in DRAM). The head arrives decoded and is serialized only if
    /// its bytes are asked for.
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
    pub fn run(reader: RecordReader<'a, R>) -> Self {
        Self(Source::Run(reader))
    }

    /// An adapter over any sorted stream of records.
    pub fn stream(records: impl Iterator<Item = R> + 'a) -> Self {
        Self::boxed(Box::new(records))
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
            Source::Stream { head, .. } => *head,
        }
    }
}

/// K-way merge of sorted sources on a [`LoserTree`]; equal keys come out
/// in source-index order. The one merge driver: it lands winners as
/// stored bytes ([`KWayMerge::for_each_bytes`] — the run merges, which
/// only move records) or hands them out decoded to consumers that must
/// see records (the [`Iterator`] — the aggregation pipeline).
pub struct KWayMerge<'a, R: Record> {
    sources: Vec<MergeSource<'a, R>>,
    keys: Vec<Option<u64>>,
    tree: LoserTree,
}

impl<'a, R: Record> KWayMerge<'a, R> {
    /// Merges arbitrary sorted record streams ([`MergeSource::stream`]).
    pub fn new(streams: Vec<Box<dyn Iterator<Item = R> + 'a>>) -> Self {
        Self::from_sources(streams.into_iter().map(MergeSource::boxed).collect())
    }

    /// Primes every source and builds the tournament.
    pub fn from_sources(mut sources: Vec<MergeSource<'a, R>>) -> Self {
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
    pub fn for_each_bytes(mut self, mut land: impl FnMut(&[u8])) {
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
    use pmem_sim::{BufferPool, LayerKind, Pm, PmDevice};
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

    #[test]
    fn replacement_selection_runs_are_sorted_and_complete() {
        let (dev, input) = stage(5000, KeyOrder::Random);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = generate_runs_replacement(&input, 100, &ctx);
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
        let runs = generate_runs_replacement(&input, 200, &ctx);
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
        let runs = generate_runs_replacement(&input, 64, &ctx);
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn reverse_input_yields_runs_of_m() {
        let (dev, input) = stage(1000, KeyOrder::Reverse);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = generate_runs_replacement(&input, 100, &ctx);
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
            let runs = generate_runs_parallel(&input, 100, &ctx);
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
            (summary, delta)
        };
        let (serial, d1) = gen_at(1);
        assert!(serial.len() > 1, "input must span several chunks");
        let mut total = 0;
        for (_, keys) in &serial {
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            total += keys.len();
        }
        assert_eq!(total, 6_000);
        for threads in [2, 4] {
            let (par, dn) = gen_at(threads);
            assert_eq!(serial, par, "runs must not depend on DoP");
            assert_eq!(d1, dn, "counters must not depend on DoP");
        }
    }

    #[test]
    fn small_inputs_use_the_serial_generator_unchanged() {
        let (dev, input) = stage(300, KeyOrder::Random);
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(4);
        // 300 <= 4·100: one chunk, byte-for-byte the serial algorithm.
        let chunked = generate_runs_parallel(&input, 100, &ctx);
        let ctx2 = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let serial = generate_runs_replacement(&input, 100, &ctx2);
        assert_eq!(chunked.len(), serial.len());
        for (a, b) in chunked.iter().zip(&serial) {
            assert_eq!(a.to_vec_uncounted(), b.to_vec_uncounted());
        }
    }

    #[test]
    fn merge_runs_produces_total_order() {
        let (dev, input) = stage(8000, KeyOrder::Random);
        let pool = BufferPool::new(128 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let runs = generate_runs_replacement(&input, 128, &ctx);
        let out = merge_runs(runs, &ctx, "sorted");
        assert_eq!(out.len(), 8000);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn merge_handles_empty_and_single_run() {
        let dev = PmDevice::paper_default();
        let pool = BufferPool::new(8192);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = merge_runs(Vec::<PCollection<WisconsinRecord>>::new(), &ctx, "empty");
        assert!(out.is_empty());

        let one = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "r",
            (0..10).map(WisconsinRecord::from_key),
        );
        let out = merge_runs(vec![one], &ctx, "single");
        assert_eq!(out.len(), 10);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn entry_ordering_breaks_ties_by_seq() {
        let a = Entry::new(WisconsinRecord::from_key(5), 0);
        let b = Entry::new(WisconsinRecord::from_key(5), 1);
        assert!(a < b);
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
        // Both flavours of source in one merge.
        fn mixed(runs: &[PCollection<WisconsinRecord>]) -> KWayMerge<'_, WisconsinRecord> {
            let mut sources = run_sources(&runs[..2]);
            sources.push(MergeSource::stream(runs[2].to_vec_uncounted().into_iter()));
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
            MergeSource::stream(std::iter::empty()),
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
            merge_group(&runs, &mut out);
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
            let per_segment = merge_group_parallel(&runs, &ctx, &mut out);
            let delta = dev.snapshot().since(&before);
            assert!(per_segment.len() > 1, "spans several segments");
            assert_eq!(out.to_vec_uncounted(), serial, "DoP {threads}");
            match &baseline {
                None => baseline = Some((delta, per_segment)),
                Some((d, p)) => {
                    assert_eq!(*d, delta, "counters differ at DoP {threads}");
                    assert_eq!(*p, per_segment, "ledgers differ at DoP {threads}");
                }
            }
        }
    }

    #[test]
    fn segment_ledgers_cover_the_whole_parallel_merge() {
        // Splitter sampling and boundary probes run on the coordinator;
        // everything else — segment reads and output writes — must land
        // in the per-segment ledgers.
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
        let per_segment = merge_group_parallel(&runs, &ctx, &mut out);
        let delta = dev.snapshot().since(&before);
        let covered = per_segment
            .iter()
            .fold(pmem_sim::IoStats::default(), |acc, s| acc.plus(s));
        assert_eq!(covered.cl_writes, delta.cl_writes, "writes all attributed");
        assert!(covered.cl_reads <= delta.cl_reads);
        let residual = delta.cl_reads - covered.cl_reads;
        assert!(
            (residual as f64) < 0.05 * delta.cl_reads as f64,
            "splitter/boundary residual {residual} of {} reads",
            delta.cl_reads
        );
    }
}
