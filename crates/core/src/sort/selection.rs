//! Multi-pass selection sort — the write-minimal building block.
//!
//! The generalization of selection sort described in §2.1.1: with `M`
//! buffers of DRAM, repeatedly scan the input maintaining a max-heap of
//! the `M` smallest not-yet-output records; after each scan, sort and
//! append the heap to the output. Each element is written exactly once (at
//! its final location) at the price of `|T|/M` full read passes — total
//! cost `r·|T|·(|T|/M + λ)`.
//!
//! Duplicate keys and equal-key boundaries are handled exactly as the
//! paper prescribes: a record enters the heap only if its `(key, position)`
//! is strictly after the `(maxKey, maxPos)` boundary of the previous pass,
//! so overlapping passes never emit a record twice.

use super::common::SortContext;
use crate::join::common::view_key;
use pmem_sim::PCollection;
use std::collections::BinaryHeap;
use wisconsin::Record;

/// One output boundary: the largest `(key, position)` emitted so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Boundary {
    key: u64,
    pos: u64,
}

/// Sorts `input` by repeated selection scans, writing each record once.
pub fn selection_sort<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> PCollection<R> {
    let _span = pmem_sim::span::span("alg selection-sort");
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    selection_sort_into(input, ctx, &mut out);
    out
}

/// A *deferred* selection sort: an iterator that yields the records of
/// `input[range]` in ascending key order without materializing anything.
/// Each exhausted DRAM batch triggers a rescan of the slice for the next
/// `capacity` minima — the stream trades reads for the writes a
/// materialized run would cost, which is exactly how segment sort keeps
/// its write count at `x·|T|` + output.
pub struct SelectionStream<'a, R: Record> {
    input: &'a PCollection<R>,
    range: std::ops::Range<usize>,
    capacity: usize,
    boundary: Option<Boundary>,
    batch: std::vec::IntoIter<super::common::Entry<R>>,
    emitted: usize,
}

impl<'a, R: Record> SelectionStream<'a, R> {
    /// Creates the stream over `input[range]` with a DRAM heap of
    /// `capacity` records.
    pub fn new(input: &'a PCollection<R>, range: std::ops::Range<usize>, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "selection stream needs at least 1 record of DRAM"
        );
        Self {
            input,
            range,
            capacity,
            boundary: None,
            batch: Vec::new().into_iter(),
            emitted: 0,
        }
    }

    fn refill(&mut self) {
        let mut heap: BinaryHeap<super::common::Entry<R>> =
            BinaryHeap::with_capacity(self.capacity + 1);
        let (boundary, capacity) = (self.boundary, self.capacity);
        let mut pos = 0u64;
        self.input
            .range_reader(self.range.start, self.range.end)
            .for_each_view(|view| {
                // The key decides, read in place: most records of a
                // rescan are already emitted or lose to the heap's
                // maximum, and are never decoded.
                let cand = Boundary {
                    key: view_key(&view),
                    pos,
                };
                pos += 1;
                if boundary.is_some_and(|b| cand <= b) {
                    return;
                }
                if heap.len() >= capacity {
                    let loses = heap
                        .peek()
                        .is_some_and(|max| (cand.key, cand.pos) >= (max.key, max.seq));
                    if loses {
                        return;
                    }
                    heap.pop();
                }
                heap.push(super::common::Entry {
                    key: cand.key,
                    seq: cand.pos,
                    record: view.get(),
                });
            });
        let mut batch: Vec<super::common::Entry<R>> = heap.into_vec();
        batch.sort_unstable();
        self.boundary = batch.last().map(|e| Boundary {
            key: e.key,
            pos: e.seq,
        });
        self.emitted += batch.len();
        self.batch = batch.into_iter();
    }
}

impl<'a, R: Record> Iterator for SelectionStream<'a, R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        if let Some(e) = self.batch.next() {
            return Some(e.record);
        }
        if self.emitted >= self.range.len() {
            return None;
        }
        self.refill();
        self.batch.next().map(|e| e.record)
    }
}

/// Like [`selection_sort`] but appends to an existing collection — used by
/// segment sort, whose long run is a selection-sorted suffix.
pub fn selection_sort_into<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    out: &mut PCollection<R>,
) {
    selection_sort_range_into(input, 0..input.len(), ctx, out);
}

/// Range variant of [`selection_sort_into`]: sorts only records
/// `[range.start, range.end)` of `input`, rescanning just that slice.
/// The condition from the paper — value ≥ previous pass's max AND
/// position after the previous max's position — is enforced by the
/// underlying [`SelectionStream`] via a strict `(key, pos)` boundary.
pub fn selection_sort_range_into<R: Record>(
    input: &PCollection<R>,
    range: std::ops::Range<usize>,
    ctx: &SortContext<'_>,
    out: &mut PCollection<R>,
) {
    let capacity = ctx.capacity_records::<R>();
    for record in SelectionStream::new(input, range, capacity) {
        out.append(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use pmem_sim::{BufferPool, LayerKind, Pm, PmDevice};
    use wisconsin::{sort_input, KeyOrder, WisconsinRecord};

    fn run(n: u64, mem_records: usize, order: KeyOrder) -> (Pm, PCollection<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, order, 5),
        );
        let pool = BufferPool::new(mem_records * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = selection_sort(&input, &ctx, "sorted");
        (dev, out)
    }

    #[test]
    fn sorts_random_input_completely() {
        let (_, out) = run(3000, 100, KeyOrder::Random);
        assert_eq!(out.len(), 3000);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn writes_exactly_input_size() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(2000, KeyOrder::Random, 6),
        );
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = selection_sort(&input, &ctx, "sorted");
        let d = dev.snapshot().since(&before);
        // Write-minimal: exactly the output's buffers, nothing more.
        assert_eq!(d.cl_writes, out.buffers());
    }

    #[test]
    fn read_passes_scale_with_input_over_memory() {
        let dev = PmDevice::paper_default();
        let n = 2000u64;
        let m = 200usize; // |T|/M = 10 passes
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 7),
        );
        let pool = BufferPool::new(m * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let _ = selection_sort(&input, &ctx, "sorted");
        let d = dev.snapshot().since(&before);
        let passes = d.cl_reads as f64 / input.buffers() as f64;
        assert!((passes - 10.0).abs() < 0.5, "read passes: {passes}");
    }

    #[test]
    fn handles_duplicates_without_loss() {
        let (_, out) = run(1500, 64, KeyOrder::FewDistinct { distinct: 3 });
        assert_eq!(out.len(), 1500);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn sorted_input_still_one_write_per_record() {
        let (_, out) = run(500, 50, KeyOrder::Sorted);
        assert_eq!(out.len(), 500);
        assert!(is_sorted_by_key(&out));
    }

    #[test]
    fn memory_larger_than_input_is_single_pass() {
        let (_, out) = run(100, 1000, KeyOrder::Reverse);
        assert_eq!(out.len(), 100);
        assert!(is_sorted_by_key(&out));
    }
}
