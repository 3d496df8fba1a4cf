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
//! Records move through all of them as their stored bytes. The two heaps
//! sift thin [`Entry`]s — key, sequence number and the slot of a byte
//! slab holding the record — so a sift moves 24 bytes whatever the
//! record's width; a record is copied into the slab once when it arrives
//! and out once when it lands (`append_bytes`) or overflows, and a
//! selection pass hands out its batch as the sorted records' bytes
//! ([`Batch`]). Only the key is ever read (`key_of`), and `wl-audit`'s
//! `decode` rule keeps this file free of whole-record decodes.
//!
//! The merge passes fan out over groups and key ranges that depend on the
//! data only, so output order and every counter are identical at any DoP,
//! and every kernel returns its labelled phases: a sort's [`Phases`] are
//! its kernels' phases in order.

use super::common::{
    key_range_cuts, merge_fan_in, run_sources, sample_keys, splitters_from_samples, Entry,
    KWayMerge, MergeSource, SortContext, MERGE_SEGMENT_RECORDS,
};
use crate::join::common::view_key;
use crate::parallel::{fan_out, measured, Label, Phases};
use pmem_sim::{PCollection, RecordBuffer, RecordReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use wisconsin::Record;

/// The stored bytes of the records a heap holds, one `R::SIZE`-byte slot
/// each: the heap itself sifts [`Entry`]s (key, sequence, slot), and a
/// record's bytes are copied in once when it arrives and out once when
/// it leaves, never decoded.
struct Slab<R> {
    bytes: Vec<u8>,
    _marker: PhantomData<R>,
}

impl<R: Record> Slab<R> {
    /// An empty slab with room for `records` slots.
    fn with_capacity(records: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(records.saturating_mul(R::SIZE)),
            _marker: PhantomData,
        }
    }

    /// The record in `slot`.
    #[inline]
    fn get(&self, slot: usize) -> &[u8] {
        let at = slot * R::SIZE;
        &self.bytes[at..at + R::SIZE]
    }

    /// Stores `bytes` in `slot`: an occupied one, or the first past the
    /// last occupied one.
    #[inline]
    fn put(&mut self, slot: usize, bytes: &[u8]) {
        let at = slot * R::SIZE;
        if at == self.bytes.len() {
            self.bytes.extend_from_slice(bytes);
        } else {
            self.bytes[at..at + R::SIZE].copy_from_slice(bytes);
        }
    }
}

/// Replacement selection with `capacity` records of DRAM: `current` is
/// the run being written, as a min-heap, and `next` holds what arrived too
/// small to extend it; the records themselves sit in the slab. An entry
/// extends the run unless it sorts before the last record written, by
/// `(key, seq)` — which hybrid sort's displaced entries need, and which
/// for a scan's records (each newer than everything written) is the
/// classic key-only test. Runs average `2M` on random input, the paper's
/// Eq. 1.
pub(crate) struct RunGen<R: Record, F> {
    capacity: usize,
    current: BinaryHeap<Reverse<Entry>>,
    next: Vec<Entry>,
    slab: Slab<R>,
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
            slab: Slab::with_capacity(capacity),
            last: None,
            run: next_run(),
            runs: Vec::new(),
            next_run,
        }
    }

    /// Admits the record stored as `bytes` that sorts at `at`, first
    /// writing the current run's minimum once DRAM is full (the record
    /// takes its slot); a run ends when nothing left in DRAM can extend
    /// it.
    #[inline]
    pub(crate) fn push(&mut self, at: (u64, u64), bytes: &[u8]) {
        let held = self.current.len() + self.next.len();
        let full = held >= self.capacity;
        // Until DRAM first fills, no record leaves: slots fill in order.
        let mut slot = held;
        if full {
            if let Some(Reverse(min)) = self.current.pop() {
                self.run.append_bytes(self.slab.get(min.slot));
                self.last = Some(min.at());
                slot = min.slot;
            }
        }
        self.slab.put(slot, bytes);
        let e = Entry::new(at, slot);
        if self.last.is_some_and(|last| at < last) {
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
            self.run.append_bytes(self.slab.get(min.slot));
        }
        if !self.run.is_empty() {
            self.runs.push(self.run);
        }
        if !self.next.is_empty() {
            self.next.sort_unstable();
            let mut tail = (self.next_run)();
            for e in &self.next {
                tail.append_bytes(self.slab.get(e.slot));
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
        generator.push((view_key(&view), seq), view.bytes());
        seq += 1;
    });
    generator.finish()
}

/// What the selection heap passes on during its scan: a record as
/// stored, with where it sorts (its key and position in the scan).
pub(crate) enum Overflow<'v> {
    /// A record that lost to the full heap's maximum.
    Rejected((u64, u64), &'v [u8]),
    /// The heap's maximum, displaced by a smaller record.
    Displaced((u64, u64), &'v [u8]),
}

impl<'v> Overflow<'v> {
    /// Where the record sorts, and its stored bytes.
    #[inline]
    pub(crate) fn record(&self) -> ((u64, u64), &'v [u8]) {
        match *self {
            Overflow::Rejected(at, bytes) | Overflow::Displaced(at, bytes) => (at, bytes),
        }
    }
}

/// What a selection pass keeps: its records' stored bytes back to back
/// in ascending `(key, position)` order, and where the last of them
/// sorts.
pub(crate) struct Batch {
    pub(crate) bytes: Vec<u8>,
    pub(crate) last: Option<(u64, u64)>,
}

/// The selection heap: one scan keeping the `capacity` smallest records
/// whose `(key, position)` is strictly past `boundary` — the last record
/// an earlier pass emitted — returned in ascending order. Every other
/// record past the boundary overflows to `overflow`. The key decides,
/// read in place, and records move as their stored bytes, so no record
/// is decoded.
pub(crate) fn select<R: Record>(
    scan: RecordReader<'_, R>,
    capacity: usize,
    boundary: Option<(u64, u64)>,
    mut overflow: impl FnMut(Overflow<'_>),
) -> Batch {
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(capacity + 1);
    let mut slab = Slab::<R>::with_capacity(capacity);
    let mut pos = 0;
    scan.for_each_view(|view| {
        let at = (view_key(&view), pos);
        pos += 1;
        if boundary.is_some_and(|b| at <= b) {
            return;
        }
        // Until the heap first fills, no record leaves: slots fill in order.
        let mut slot = heap.len();
        if heap.len() >= capacity {
            match heap.peek() {
                Some(max) if at < max.at() => {
                    if let Some(max) = heap.pop() {
                        overflow(Overflow::Displaced(max.at(), slab.get(max.slot)));
                        slot = max.slot;
                    }
                }
                _ => return overflow(Overflow::Rejected(at, view.bytes())),
            }
        }
        slab.put(slot, view.bytes());
        heap.push(Entry::new(at, slot));
    });
    let mut sorted = heap.into_vec();
    sorted.sort_unstable();
    let mut bytes = Vec::with_capacity(sorted.len() * R::SIZE);
    for e in &sorted {
        bytes.extend_from_slice(slab.get(e.slot));
    }
    Batch {
        bytes,
        last: sorted.last().map(Entry::at),
    }
}

/// The intermediate merge pass, repeated until at most `fan_in` runs
/// remain: each pass merges groups of `fan_in` consecutive runs, across
/// the worker pool, into runs named under `prefix` (minted here first, so
/// names and counters are DoP-invariant). Returns the runs and a
/// [`Label::Merge`] phase per pass, counted from 0.
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
        let label = Label::Merge(phases.len());
        let land = |run| merged.push(run);
        phases.push(fan_out(ctx, label, groups.len(), merge, land));
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
/// serial. `pass` is the pass's index among the merge passes, its label
/// [`Label::Merge`]`(pass)`.
pub(crate) fn merge_final<R: Record, C: Consume<R>>(
    runs: &[PCollection<R>],
    stream: Option<MergeSource<'_, R>>,
    pass: usize,
    ctx: &SortContext<'_>,
    consume: &C,
    out: &mut PCollection<C::Out>,
) -> Phases {
    let total: usize = runs.iter().map(PCollection::len).sum();
    let segments = total.div_ceil(MERGE_SEGMENT_RECORDS);
    if stream.is_some() || runs.len() < 2 || segments < 2 || !consume.by_range() {
        let mut sources = run_sources(runs);
        sources.extend(stream);
        let ((), merge) = measured(Label::Merge(pass), || {
            let merge = KWayMerge::from_sources(sources);
            consume.consume(merge, |rec| out.append_bytes(rec));
        });
        return vec![merge];
    }
    let (cuts, grid) = measured(Label::Cuts, || {
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
    let land = |buf: RecordBuffer<C::Out>| out.append_buffer(&buf);
    vec![
        grid,
        fan_out(ctx, Label::Merge(pass), segments, segment, land),
    ]
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
    let land = Land { by_range: true };
    phases.extend(merge_final(&runs, None, phases.len(), ctx, &land, out));
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{LayerKind, PmDevice, Storable};
    use wisconsin::{sort_input, KeyOrder, WisconsinRecord};

    /// A fat heap entry — the record itself beside where it sorts: the
    /// reference the thin kernels are held to.
    #[derive(Clone, Copy, Debug)]
    struct Fat {
        key: u64,
        seq: u64,
        record: WisconsinRecord,
    }

    impl Fat {
        fn new(record: WisconsinRecord, seq: u64) -> Self {
            Self {
                key: record.key(),
                seq,
                record,
            }
        }

        fn at(&self) -> (u64, u64) {
            (self.key, self.seq)
        }
    }

    impl PartialEq for Fat {
        fn eq(&self, other: &Self) -> bool {
            self.at() == other.at()
        }
    }
    impl Eq for Fat {}
    impl PartialOrd for Fat {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Fat {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.at().cmp(&other.at())
        }
    }

    /// Reference two-heap replacement selection over fat entries, its
    /// runs as records.
    struct FatRunGen {
        capacity: usize,
        current: BinaryHeap<Reverse<Fat>>,
        next: Vec<Fat>,
        last: Option<(u64, u64)>,
        run: Vec<WisconsinRecord>,
        runs: Vec<Vec<WisconsinRecord>>,
    }

    impl FatRunGen {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                current: BinaryHeap::new(),
                next: Vec::new(),
                last: None,
                run: Vec::new(),
                runs: Vec::new(),
            }
        }

        fn push(&mut self, e: Fat) {
            let full = self.current.len() + self.next.len() >= self.capacity;
            if full {
                if let Some(Reverse(min)) = self.current.pop() {
                    self.run.push(min.record);
                    self.last = Some(min.at());
                }
            }
            if self.last.is_some_and(|last| e.at() < last) {
                self.next.push(e);
            } else {
                self.current.push(Reverse(e));
            }
            if full && self.current.is_empty() {
                self.runs.push(std::mem::take(&mut self.run));
                self.current.extend(self.next.drain(..).map(Reverse));
                self.last = None;
            }
        }

        fn finish(mut self) -> Vec<Vec<WisconsinRecord>> {
            while let Some(Reverse(min)) = self.current.pop() {
                self.run.push(min.record);
            }
            if !self.run.is_empty() {
                self.runs.push(self.run);
            }
            if !self.next.is_empty() {
                self.next.sort_unstable();
                self.runs.push(self.next.iter().map(|e| e.record).collect());
            }
            self.runs
        }
    }

    /// What a selection heap passed on, in order: whether it was
    /// displaced (or rejected), where it sorts, and its stored bytes.
    type Spills = Vec<(bool, (u64, u64), Vec<u8>)>;

    /// Reference selection heap over fat entries: the ascending batch,
    /// and every overflow in order.
    fn fat_select(
        input: &[WisconsinRecord],
        capacity: usize,
        boundary: Option<(u64, u64)>,
        mut overflow: impl FnMut(bool, Fat),
    ) -> Vec<Fat> {
        let mut heap: BinaryHeap<Fat> = BinaryHeap::new();
        for (pos, record) in (0u64..).zip(input) {
            let e = Fat::new(*record, pos);
            if boundary.is_some_and(|b| e.at() <= b) {
                continue;
            }
            if heap.len() >= capacity {
                match heap.peek() {
                    Some(max) if e.at() < max.at() => {
                        if let Some(max) = heap.pop() {
                            overflow(true, max);
                        }
                    }
                    _ => {
                        overflow(false, e);
                        continue;
                    }
                }
            }
            heap.push(e);
        }
        let mut batch = heap.into_vec();
        batch.sort_unstable();
        batch
    }

    fn encode(records: impl IntoIterator<Item = WisconsinRecord>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in records {
            let at = bytes.len();
            bytes.resize(at + WisconsinRecord::SIZE, 0);
            r.write_to(&mut bytes[at..]);
        }
        bytes
    }

    fn stored(col: &PCollection<WisconsinRecord>) -> Vec<u8> {
        let mut bytes = Vec::new();
        col.for_each_run_uncounted(|run| bytes.extend_from_slice(run));
        bytes
    }

    /// Random, one-key, descending and Zipf inputs of `n` records; the
    /// payloads tell equal keys apart.
    fn inputs(n: u64) -> Vec<(&'static str, Vec<WisconsinRecord>)> {
        let one_key = (0..n).map(|i| WisconsinRecord::from_key(7).with_payload(i));
        vec![
            ("random", sort_input(n, KeyOrder::Random, 3)),
            ("one key", one_key.collect()),
            ("descending", sort_input(n, KeyOrder::Reverse, 3)),
            ("zipf", wisconsin::skewed_input(n, 4, 1.2, 3)),
        ]
    }

    const CAPACITIES: [usize; 3] = [1, 2, 4096];

    #[test]
    fn run_generation_matches_the_fat_entry_reference() {
        let dev = PmDevice::paper_default();
        for (name, input) in inputs(9000) {
            let staged = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "input",
                input.iter().copied(),
            );
            for capacity in CAPACITIES {
                let runs = generate_runs(staged.reader(), capacity, || {
                    PCollection::new(&dev, LayerKind::BlockedMemory, "run")
                });
                let mut reference = FatRunGen::new(capacity);
                for (seq, r) in (0u64..).zip(&input) {
                    reference.push(Fat::new(*r, seq));
                }
                let reference = reference.finish();
                let case = format!("{name}, M = {capacity}");
                assert_eq!(runs.len(), reference.len(), "{case}: runs");
                for (i, (run, want)) in runs.iter().zip(reference).enumerate() {
                    assert!(stored(run) == encode(want), "{case}: run {i}");
                }
            }
        }
    }

    #[test]
    fn selection_heap_matches_the_fat_entry_reference() {
        let dev = PmDevice::paper_default();
        for (name, input) in inputs(9000) {
            let staged = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "input",
                input.iter().copied(),
            );
            for capacity in CAPACITIES {
                // Up to three passes, each past the last batch's end, as
                // selection sort runs them.
                let mut boundary = None;
                for pass in 0..3 {
                    let case = format!("{name}, M = {capacity}, pass {pass}");
                    let mut spills: Spills = Vec::new();
                    let batch = select(staged.reader(), capacity, boundary, |spill| {
                        let displaced = matches!(spill, Overflow::Displaced(..));
                        let (at, bytes) = spill.record();
                        spills.push((displaced, at, bytes.to_vec()));
                    });
                    let mut want_spills: Spills = Vec::new();
                    let want = fat_select(&input, capacity, boundary, |displaced, e| {
                        want_spills.push((displaced, e.at(), encode([e.record])));
                    });
                    assert!(spills == want_spills, "{case}: overflow");
                    assert!(
                        batch.bytes == encode(want.iter().map(|e| e.record)),
                        "{case}"
                    );
                    assert_eq!(batch.last, want.last().map(Fat::at), "{case}: last");
                    let Some(last) = batch.last else { break };
                    boundary = Some(last);
                }
            }
        }
    }

    #[test]
    fn hybrid_feed_matches_the_fat_entry_reference() {
        // HybS: the selection heap's rejected and displaced records, in
        // the order it passes them on, feed run generation.
        let dev = PmDevice::paper_default();
        for (name, input) in inputs(9000) {
            let staged = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "input",
                input.iter().copied(),
            );
            for (rs, rr) in [(1, 1), (2, 4096), (4096, 2), (4096, 4096), (0, 2)] {
                let case = format!("{name}, |Rs| = {rs}, |Rr| = {rr}");
                let mut generator = RunGen::new(rr, || {
                    PCollection::new(&dev, LayerKind::BlockedMemory, "run")
                });
                let (mut displaced, mut rejected) = (0, 0);
                let batch = select(staged.reader(), rs, None, |spill| {
                    match spill {
                        Overflow::Displaced(..) => displaced += 1,
                        Overflow::Rejected(..) => rejected += 1,
                    }
                    let (at, bytes) = spill.record();
                    generator.push(at, bytes);
                });
                let runs = generator.finish();
                let mut reference = FatRunGen::new(rr);
                let want = fat_select(&input, rs, None, |_, e| reference.push(e));
                let reference = reference.finish();
                assert!(
                    batch.bytes == encode(want.iter().map(|e| e.record)),
                    "{case}"
                );
                assert_eq!(runs.len(), reference.len(), "{case}: runs");
                for (i, (run, want)) in runs.iter().zip(reference).enumerate() {
                    assert!(stored(run) == encode(want), "{case}: run {i}");
                }
                // One key and descending input only ever reject or only
                // ever displace.
                if rs > 0 && matches!(name, "random" | "zipf") {
                    assert!(displaced > 0 && rejected > 0, "{case}: a mixed feed");
                }
            }
        }
    }
}
