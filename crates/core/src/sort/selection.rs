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
use super::kernel::select;
use crate::parallel::{measured, Label, Phases};
use pmem_sim::PCollection;
use std::ops::Range;
use wisconsin::Record;

/// SelS's schedule: repeated selection scans, writing each record once.
pub(crate) fn phased<R: Record>(
    input: &PCollection<R>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> (PCollection<R>, Phases) {
    let _op = ctx.operator("selection-sort", input.len() * R::SIZE);
    let capacity = ctx.capacity::<R>().records();
    select_into(input, capacity, |_, _, _| None, ctx, output_name)
}

/// The whole of `input` through [`selection_passes`] into a new output:
/// a sort that is one [`Label::Select`] phase.
pub(crate) fn select_into<R: Record>(
    input: &PCollection<R>,
    capacity: usize,
    materialize: impl FnMut(u64, usize, usize) -> Option<PCollection<R>>,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> (PCollection<R>, Phases) {
    let (out, phase) = measured(Label::Select, || {
        let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
        for batch in selection_passes(input, 0..input.len(), capacity, materialize) {
            for record in batch.chunks_exact(R::SIZE) {
                out.append_bytes(record);
            }
        }
        out
    });
    (out, vec![phase])
}

/// Selection passes over `input[range]` with a heap of `capacity`
/// records: the records in ascending key order, as stored, a DRAM batch
/// per pass, each batch the selection heap past the last record emitted
/// ([`select`]'s, its records back to back). Nothing
/// is materialized — a pass trades a rescan for the writes a run would
/// cost, which is how segment sort keeps its write count at `x·|T|` +
/// output — unless `materialize`, asked before each pass with the pass
/// number, the source's length and how many records are still to come,
/// returns an intermediate: that pass's overflow, exactly the records it
/// leaves unemitted, lands there, and the passes go on over it, numbered
/// from 1 again (lazy sort).
pub(crate) fn selection_passes<'a, R: Record>(
    input: &'a PCollection<R>,
    range: Range<usize>,
    capacity: usize,
    mut materialize: impl FnMut(u64, usize, usize) -> Option<PCollection<R>> + 'a,
) -> impl Iterator<Item = Vec<u8>> + 'a {
    let mut source: Option<PCollection<R>> = None;
    let (mut boundary, mut left, mut pass) = (None, range.len(), 0);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        pass += 1;
        let scan = match &source {
            Some(intermediate) => intermediate.reader(),
            None => input.range_reader(range.start, range.end),
        };
        let mut sink = materialize(pass, scan.remaining(), left);
        // What the pass leaves unemitted moves to the intermediate as
        // bytes, undecoded.
        let batch = select(scan, capacity, boundary, |spill| {
            if let Some(to) = &mut sink {
                to.append_bytes(spill.record().1);
            }
        });
        boundary = Some(batch.last?);
        left -= batch.bytes.len() / R::SIZE;
        if let Some(intermediate) = sink {
            debug_assert_eq!(intermediate.len(), left, "the unemitted records");
            (source, boundary, pass) = (Some(intermediate), None, 0);
        }
        Some(batch.bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use crate::sort::SortAlgorithm;
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
        let out = SortAlgorithm::SelS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
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
        let out = SortAlgorithm::SelS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
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
        let _ = SortAlgorithm::SelS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
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
