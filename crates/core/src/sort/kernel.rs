//! The kernels every sort and sort-based aggregation is a schedule over.
//!
//! * **Run generation** ([`RunGen`], [`generate_runs`]): two-heap
//!   replacement selection into runs the caller allocates.
//! * The **selection heap** ([`select`]): one scan keeping the `M`
//!   smallest records past a boundary; what it rejects or displaces
//!   overflows to the caller ([`Overflow`]).
//! * The **intermediate merge pass** ([`merge_down`]) and the
//!   **range-partitioned final pass** ([`merge_final`]), which hands the
//!   merged records to a [`Consume`]r: [`Land`] them, or fold them.
//!
//! The merge passes fan out over groups and key ranges that depend on the
//! data only, so output order and every counter are identical at any DoP,
//! and every kernel returns its ledger: a sort's [`Phases`] are its
//! kernels' ledgers in order.

use super::common::{
    key_range_cuts, merge_fan_in, run_sources, sample_keys, splitters_from_samples, Entry,
    KWayMerge, MergeSource, SortContext, MERGE_SEGMENT_RECORDS,
};
use crate::join::common::view_key;
use crate::parallel::{fan_out, measured, Phases};
use pmem_sim::{PCollection, RecordBuffer, RecordReader, RecordView};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wisconsin::Record;

/// Replacement selection with `capacity` records of DRAM: `current` is
/// the run being written, as a min-heap, and `next` holds what arrived too
/// small to extend it. An entry extends the run unless it sorts before the
/// last record written, by `(key, seq)` — which hybrid sort's displaced
/// entries need, and which for a scan's records (each newer than
/// everything written) is the classic key-only test. Runs average `2M` on
/// random input, the paper's Eq. 1.
pub(crate) struct RunGen<R: Record, F> {
    capacity: usize,
    current: BinaryHeap<Reverse<Entry<R>>>,
    next: Vec<Entry<R>>,
    last: Option<(u64, u64)>,
    run: PCollection<R>,
    runs: Vec<PCollection<R>>,
    next_run: F,
}

impl<R: Record, F: FnMut() -> PCollection<R>> RunGen<R, F> {
    /// Starts the first run, allocated (as every later one) by `next_run`.
    pub(crate) fn new(capacity: usize, mut next_run: F) -> Self {
        assert!(
            capacity > 0,
            "replacement selection needs at least 1 record of DRAM"
        );
        Self {
            capacity,
            current: BinaryHeap::with_capacity(capacity),
            next: Vec::new(),
            last: None,
            run: next_run(),
            runs: Vec::new(),
            next_run,
        }
    }

    /// Admits `e`, first writing the current run's minimum once DRAM is
    /// full; a run ends when nothing left in DRAM can extend it.
    #[inline]
    pub(crate) fn push(&mut self, e: Entry<R>) {
        let full = self.current.len() + self.next.len() >= self.capacity;
        if full {
            if let Some(Reverse(min)) = self.current.pop() {
                self.run.append(&min.record);
                self.last = Some(min.at());
            }
        }
        if self.last.is_some_and(|last| e.at() < last) {
            self.next.push(e);
        } else {
            self.current.push(Reverse(e));
        }
        if full && self.current.is_empty() {
            self.runs
                .push(std::mem::replace(&mut self.run, (self.next_run)()));
            self.current.extend(self.next.drain(..).map(Reverse));
            self.last = None;
        }
    }

    /// Drains DRAM — the current run, then the next — and returns the runs.
    pub(crate) fn finish(mut self) -> Vec<PCollection<R>> {
        while let Some(Reverse(min)) = self.current.pop() {
            self.run.append(&min.record);
        }
        if !self.run.is_empty() {
            self.runs.push(self.run);
        }
        if !self.next.is_empty() {
            self.next.sort_unstable();
            let mut tail = (self.next_run)();
            for e in &self.next {
                tail.append(&e.record);
            }
            self.runs.push(tail);
        }
        self.runs
    }
}

/// Replacement selection over every record of `scan`, into runs
/// allocated by `next_run`.
pub(crate) fn generate_runs<R: Record>(
    scan: RecordReader<'_, R>,
    capacity: usize,
    next_run: impl FnMut() -> PCollection<R>,
) -> Vec<PCollection<R>> {
    let mut generator = RunGen::new(capacity, next_run);
    let mut seq = 0;
    scan.for_each_view(|view| {
        generator.push(Entry::new(view.get(), seq));
        seq += 1;
    });
    generator.finish()
}

/// What the selection heap passes on during its scan.
pub(crate) enum Overflow<'v, R: Record> {
    /// A record that lost to the full heap's maximum, as stored, with its
    /// position in the scan.
    Rejected(RecordView<'v, R>, u64),
    /// The heap's maximum, displaced by a smaller record.
    Displaced(Entry<R>),
}

/// The selection heap: one scan keeping the `capacity` smallest records
/// whose `(key, position)` is strictly past `boundary` — the last record
/// an earlier pass emitted — returned in ascending order. Every other
/// record past the boundary overflows to `overflow`. The key decides,
/// read in place, so a record the scan skips or rejects is never decoded.
pub(crate) fn select<R: Record>(
    scan: RecordReader<'_, R>,
    capacity: usize,
    boundary: Option<(u64, u64)>,
    mut overflow: impl FnMut(Overflow<'_, R>),
) -> Vec<Entry<R>> {
    let mut heap: BinaryHeap<Entry<R>> = BinaryHeap::with_capacity(capacity + 1);
    let mut pos = 0;
    scan.for_each_view(|view| {
        let at = (view_key(&view), pos);
        pos += 1;
        if boundary.is_some_and(|b| at <= b) {
            return;
        }
        if heap.len() >= capacity {
            match heap.peek() {
                Some(max) if at < max.at() => {
                    if let Some(max) = heap.pop() {
                        overflow(Overflow::Displaced(max));
                    }
                }
                _ => return overflow(Overflow::Rejected(view, at.1)),
            }
        }
        heap.push(Entry {
            key: at.0,
            seq: at.1,
            record: view.get(),
        });
    });
    let mut batch = heap.into_vec();
    batch.sort_unstable();
    batch
}

/// The intermediate merge pass, repeated until at most `fan_in` runs
/// remain: each pass merges groups of `fan_in` consecutive runs, across
/// the worker pool, into runs named under `prefix` (minted here first, so
/// names and counters are DoP-invariant). Returns the runs and a phase
/// per pass.
pub(crate) fn merge_down<R: Record>(
    mut runs: Vec<PCollection<R>>,
    fan_in: usize,
    prefix: &str,
    ctx: &SortContext<'_>,
) -> (Vec<PCollection<R>>, Phases) {
    let mut phases = Phases::new();
    while runs.len() > fan_in {
        let groups: Vec<&[PCollection<R>]> = runs.chunks(fan_in).collect();
        let names: Vec<String> = groups.iter().map(|_| ctx.fresh_name(prefix)).collect();
        let merge = |g: usize| {
            let mut run = PCollection::new(ctx.device(), ctx.kind(), names[g].clone());
            KWayMerge::from_sources(run_sources(groups[g]))
                .for_each_bytes(|rec| run.append_bytes(rec));
            run
        };
        let mut merged = Vec::with_capacity(groups.len());
        phases.push(fan_out(ctx, groups.len(), merge, |run| merged.push(run)));
        drop(groups);
        runs = merged;
    }
    (runs, phases)
}

/// What the final merge pass does with the merged records.
pub(crate) trait Consume<R: Record>: Sync {
    /// What lands in the output.
    type Out: Record;

    /// Whether a pass over runs alone may split into key ranges, each
    /// consumed on its own.
    fn by_range(&self) -> bool;

    /// Consumes `merge` to the end, lending `land` the stored bytes of
    /// each output record in order.
    fn consume(&self, merge: KWayMerge<'_, R>, land: impl FnMut(&[u8]));
}

/// Lands every merged record as it is stored — by key range, or as one
/// stream.
pub(crate) struct Land {
    pub(crate) by_range: bool,
}

impl<R: Record> Consume<R> for Land {
    type Out = R;

    fn by_range(&self) -> bool {
        self.by_range
    }

    fn consume(&self, merge: KWayMerge<'_, R>, land: impl FnMut(&[u8])) {
        merge.for_each_bytes(land);
    }
}

/// The final merge pass: `runs` and, if any, a sorted `stream` behind
/// them, merged into `consume` and landed in `out`. Over runs alone past
/// one [`MERGE_SEGMENT_RECORDS`] segment, and if the consumer allows, the
/// pass range-partitions: splitter keys at the quantiles of a key sample
/// pooled from every run cut every run (a one-task phase; the grid
/// depends on the data only), and each key range is merged and consumed
/// on a worker into a buffer that lands in splitter order — the output
/// and counters of the serial pass at any DoP, as equal keys tie-break by
/// run index in both. A stream cannot be cut, so a pass with one is
/// serial.
pub(crate) fn merge_final<R: Record, C: Consume<R>>(
    runs: &[PCollection<R>],
    stream: Option<MergeSource<'_, R>>,
    ctx: &SortContext<'_>,
    consume: &C,
    out: &mut PCollection<C::Out>,
) -> Phases {
    let total: usize = runs.iter().map(PCollection::len).sum();
    let segments = total.div_ceil(MERGE_SEGMENT_RECORDS);
    if stream.is_some() || runs.len() < 2 || segments < 2 || !consume.by_range() {
        let mut sources = run_sources(runs);
        sources.extend(stream);
        let ((), io) = measured(|| {
            let merge = KWayMerge::from_sources(sources);
            consume.consume(merge, |rec| out.append_bytes(rec));
        });
        return vec![vec![io]];
    }
    let (cuts, grid) = measured(|| {
        let sample = runs.iter().flat_map(|r| sample_keys(r, segments)).collect();
        let splitters = splitters_from_samples(sample, segments);
        runs.iter()
            .map(|r| key_range_cuts(r, &splitters))
            .collect::<Vec<_>>()
    });
    let segment = |seg: usize| {
        let (mut sources, mut len) = (Vec::with_capacity(runs.len()), 0);
        for (run, c) in runs.iter().zip(&cuts) {
            sources.push(MergeSource::run(run.range_reader(c[seg], c[seg + 1])));
            len += c[seg + 1] - c[seg];
        }
        let mut buf = RecordBuffer::with_capacity(len);
        consume.consume(KWayMerge::from_sources(sources), |rec| buf.push_bytes(rec));
        buf
    };
    let segments = fan_out(ctx, segments, segment, |buf| out.append_buffer(&buf));
    vec![vec![grid], segments]
}

/// External mergesort's merge phase, as hybrid sort shares it: `runs`
/// merged down to the fan-in under `merge`, then landed after whatever
/// `out` already holds.
pub(crate) fn merge_into<R: Record>(
    runs: Vec<PCollection<R>>,
    ctx: &SortContext<'_>,
    out: &mut PCollection<R>,
) -> Phases {
    let (runs, mut phases) = merge_down(runs, merge_fan_in(ctx), "merge", ctx);
    phases.extend(merge_final(&runs, None, ctx, &Land { by_range: true }, out));
    phases
}
