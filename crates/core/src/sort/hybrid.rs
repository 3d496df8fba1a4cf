//! HybS — hybrid sort (§2.1.2, Algorithm 1).
//!
//! DRAM is split into a *selection region* `Rs` and a
//! *replacement-selection region* `Rr`. `Rs` is a max-heap that ends up
//! holding the globally smallest `|Rs|` records — they are written
//! **once**, directly to the output prefix, bypassing run generation and
//! merging entirely. Every record displaced from (or never admitted to)
//! `Rs` flows through `Rr`, the classic two-heap replacement-selection
//! structure (`current` run heap + `next` run staging), producing runs
//! that are merged after the `Rs` prefix. `Rs` is the selection heap and
//! `Rr` run generation, the two run-producing sort kernels.
//!
//! The write intensity `x` is the fraction of DRAM given to the
//! **write-incurring** replacement region (so `x = 1` degenerates to
//! plain external mergesort, mirroring segment sort's knob): a higher
//! intensity yields longer runs (shallower merging, better response time)
//! but forgoes the write savings of a large selection region — the
//! trade-off of Fig. 9.
//!
//! Invariant making the prefix correct: the maximum of `Rs` decreases
//! monotonically, so every record ever evicted to `Rr` is ≥ the final
//! maximum of `Rs`.

use super::common::SortContext;
use super::kernel::{merge_into, select, RunGen};
use crate::parallel::{measured, Label, Phases};
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// HybS's schedule: one scan through the selection heap (`Rs`, no
/// boundary), whose overflow feeds run generation (`Rr`); the heap lands
/// as the output prefix, and ExMS's merge phase lands the runs after it.
/// At `x = 0`, `Rr` is clamped to one record so that inputs larger than
/// DRAM still make progress.
pub(crate) fn phased<R: Record>(
    input: &PCollection<R>,
    x: f64,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<(PCollection<R>, Phases), PmError> {
    let _op = ctx.operator("hybrid-sort", input.len() * R::SIZE);
    if !(0.0..=1.0).contains(&x) {
        return Err(PmError::InvalidParameter {
            name: "x",
            message: format!("write intensity must be in [0,1], got {x}"),
        });
    }
    let capacity = ctx.capacity::<R>().records();
    let rr_cap = (((capacity as f64) * x).floor() as usize)
        .max(1)
        .min(capacity);
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let (runs, scan) = measured(Label::RunGen, || {
        let mut rr = RunGen::new(rr_cap, || ctx.fresh::<R>("hyb-run"));
        let rs = select(input.reader(), capacity - rr_cap, None, |spill| {
            let (at, bytes) = spill.record();
            rr.push(at, bytes);
        });
        for record in rs.bytes.chunks_exact(R::SIZE) {
            out.append_bytes(record);
        }
        rr.finish()
    });
    let mut phases = vec![scan];
    phases.extend(merge_into(runs, ctx, &mut out));
    Ok((out, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use crate::sort::SortAlgorithm;
    use pmem_sim::{BufferPool, IoStats, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};

    fn sort_with_x(n: u64, m_records: usize, x: f64) -> (IoStats, PCollection<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 13),
        );
        let pool = BufferPool::new(m_records * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = SortAlgorithm::HybS { x }
            .run(&input, &ctx, "sorted")
            .expect("valid x");
        (dev.snapshot().since(&before), out)
    }

    #[test]
    fn sorts_at_various_intensities() {
        for x in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let (_, out) = sort_with_x(4000, 200, x);
            assert_eq!(out.len(), 4000, "x={x}");
            assert!(is_sorted_by_key(&out), "x={x}");
            let keys: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
            assert_eq!(keys, (0..4000).collect::<Vec<_>>(), "x={x}");
        }
    }

    /// x = 1 gives the selection region nothing and routes every record
    /// through replacement selection: ExMS, counter for counter and record
    /// for record, on every layer at any DoP — within one `4M`
    /// run-generation chunk and with at least two runs. Past that the two
    /// part by a few cachelines: ExMS generates runs chunk by chunk over a
    /// `4M`-record grid (hybrid sort over the whole input at once), and
    /// hands a lone run back as its output without rewriting it (hybrid
    /// sort lands it after its, here empty, selected prefix).
    #[test]
    fn full_intensity_degenerates_to_exms() {
        use crate::sort::tests::{assert_same_run, device_run, LAYERS};
        use pmem_sim::Storable;
        let records = sort_input(400, KeyOrder::Random, 17);
        let input_lines = pmem_sim::cachelines(400 * WisconsinRecord::SIZE);
        for kind in LAYERS {
            for threads in [1, 4] {
                let hybs = device_run(&records, kind, 100, threads, |input, ctx| {
                    SortAlgorithm::HybS { x: 1.0 }.run(input, ctx, "out")
                });
                let exms = device_run(&records, kind, 100, threads, |input, ctx| {
                    SortAlgorithm::ExMS.run(input, ctx, "out")
                });
                // Two runs or more: the runs and the merged output are
                // each written once.
                assert!(exms.0.cl_writes >= 2 * input_lines, "{kind:?}: one run");
                assert_same_run(&format!("{kind:?}, DoP {threads}"), &hybs, &exms);
            }
        }
    }

    #[test]
    fn lower_intensity_saves_writes_when_merging_stays_single_pass() {
        // With memory = 20% of the input both settings merge in one pass,
        // so the selection region's once-written records dominate the
        // write delta.
        let (lo, _) = sort_with_x(5000, 1000, 0.5);
        let (hi, _) = sort_with_x(5000, 1000, 0.9);
        assert!(
            lo.cl_writes < hi.cl_writes,
            "x=0.5 writes {} should be below x=0.9 writes {}",
            lo.cl_writes,
            hi.cl_writes
        );
    }

    #[test]
    fn rejects_out_of_range_intensity() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(10, KeyOrder::Random, 1),
        );
        let pool = BufferPool::new(8000);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        for x in [1.2, -0.2] {
            assert!(SortAlgorithm::HybS { x }.run(&input, &ctx, "s").is_err());
        }
    }

    #[test]
    fn duplicates_survive() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(2000, KeyOrder::FewDistinct { distinct: 4 }, 3),
        );
        let pool = BufferPool::new(64 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = SortAlgorithm::HybS { x: 0.5 }
            .run(&input, &ctx, "sorted")
            .expect("valid");
        assert_eq!(out.len(), 2000);
        assert!(is_sorted_by_key(&out));
    }
}
