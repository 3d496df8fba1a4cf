//! SegS — segment sort (§2.1.1).
//!
//! The input is split at the *write intensity* `x ∈ (0, 1)`: the first
//! `x·|T|` records are sorted with external mergesort (write-incurring,
//! fast), the remaining `(1−x)·|T|` records are turned into **one longer
//! run** with multi-pass selection sort (write-limited, read-heavy). All
//! runs are then merged. Cost model: Eq. 1/2; the cost-optimal `x` solves
//! Eq. 3 (closed form in Eq. 4, see [`crate::cost::sort_costs`]).
//!
//! `x` is the knob: `x → 1` behaves like external mergesort, `x → 0`
//! approaches the write-minimal `|T|` writes of pure selection sort.

use super::common::{merge_fan_in, MergeSource, SortContext};
use super::kernel::{generate_runs, merge_down, merge_final, Consume, Land};
use super::selection::selection_passes;
use crate::parallel::{measured, Label, Phases};
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// SegS's schedule ([`segmented`]), its final merge landed as one stream
/// — over runs alone too, at `x = 1`, which is where it parts from ExMS
/// past one merge segment.
pub(crate) fn phased<R: Record>(
    input: &PCollection<R>,
    x: f64,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<(PCollection<R>, Phases), PmError> {
    let _op = ctx.operator("segment-sort", input.len() * R::SIZE);
    let land = Land { by_range: false };
    segmented(input, x, ctx, "seg-merge", &land, output_name)
}

/// The schedule segment sort and sort-based aggregation share: run
/// generation over the write-incurring prefix `[0, x·|T|)`, its runs
/// pre-merged under `prefix` down to the fan-in less the one slot the
/// selection stream takes, then one final merge of the runs and the
/// *deferred* selection-sorted suffix into `consume` — the suffix
/// regenerates itself by rescanning instead of being materialized as a
/// long run, so its records are written only as `consume` lands them.
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ x ≤ 1`.
pub(crate) fn segmented<R: Record, C: Consume<R>>(
    input: &PCollection<R>,
    x: f64,
    ctx: &SortContext<'_>,
    prefix: &str,
    consume: &C,
    output_name: &str,
) -> Result<(PCollection<C::Out>, Phases), PmError> {
    if !(0.0..=1.0).contains(&x) {
        return Err(PmError::InvalidParameter {
            name: "x",
            message: format!("write intensity must be in [0,1], got {x}"),
        });
    }
    let n = input.len();
    let split = ((n as f64) * x).round() as usize;
    let capacity = ctx.capacity::<R>().records();
    let prefix_scan = input.range_reader(0, split);
    let generate = || generate_runs(prefix_scan, capacity, || ctx.fresh("run"));
    let (runs, generation) = measured(Label::RunGen, generate);
    let fan_in = merge_fan_in(ctx).saturating_sub(1).max(2);
    let (runs, merges) = merge_down(runs, fan_in, prefix, ctx);
    let suffix = (split < n)
        .then(|| MergeSource::batches(selection_passes(input, split..n, capacity, |_, _, _| None)));
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let pass = merges.len();
    let mut phases = vec![generation];
    phases.extend(merges);
    phases.extend(merge_final(&runs, suffix, pass, ctx, consume, &mut out));
    Ok((out, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
    use crate::sort::SortAlgorithm;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};

    fn sort_with_x(
        n: u64,
        m_records: usize,
        x: f64,
    ) -> (pmem_sim::IoStats, PCollection<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(n, KeyOrder::Random, 9),
        );
        let pool = BufferPool::new(m_records * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = SortAlgorithm::SegS { x }
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

    #[test]
    fn lower_intensity_writes_less() {
        let (hi, _) = sort_with_x(6000, 150, 0.8);
        let (lo, _) = sort_with_x(6000, 150, 0.2);
        assert!(
            lo.cl_writes < hi.cl_writes,
            "writes at x=0.2 ({}) should be below x=0.8 ({})",
            lo.cl_writes,
            hi.cl_writes
        );
    }

    #[test]
    fn lower_intensity_reads_more() {
        let (hi, _) = sort_with_x(6000, 150, 0.8);
        let (lo, _) = sort_with_x(6000, 150, 0.2);
        assert!(
            lo.cl_reads > hi.cl_reads,
            "reads at x=0.2 ({}) should exceed x=0.8 ({})",
            lo.cl_reads,
            hi.cl_reads
        );
    }

    #[test]
    fn zero_intensity_is_selection_sort() {
        // x = 0 generates no runs and merges the selection stream alone:
        // it *is* SelS, counter for counter and record for record, on
        // every layer at any DoP — at both sizes of the counter corpus,
        // the larger past one 8192-record merge segment.
        use crate::sort::tests::{assert_same_run, device_run, LAYERS};
        for n in [1200, 20_000] {
            let records = sort_input(n, KeyOrder::Random, 31);
            let m = n as usize / 20; // the corpus's 5 % budget
            for kind in LAYERS {
                for threads in [1, 4] {
                    let segs = device_run(&records, kind, m, threads, |input, ctx| {
                        SortAlgorithm::SegS { x: 0.0 }.run(input, ctx, "out")
                    });
                    let sels = device_run(&records, kind, m, threads, |input, ctx| {
                        SortAlgorithm::SelS.run(input, ctx, "out")
                    });
                    assert_eq!(segs.1.len(), n as usize);
                    assert_same_run(&format!("{n}, {kind:?}, DoP {threads}"), &segs, &sels);
                }
            }
        }
    }

    /// x = 1 run-generates the whole input and merges the runs: ExMS,
    /// counter for counter and record for record, on every layer at any
    /// DoP — within one `4M` run-generation chunk and with at least two
    /// runs. Past that the schedules part by a few cachelines, for four
    /// reasons:
    /// * ExMS generates runs chunk by chunk over a `4M`-record grid,
    ///   segment sort over the whole prefix at once;
    /// * segment sort pre-merges down to fan-in − 1 runs, to leave a
    ///   slot for its selection stream, ExMS down to the fan-in;
    /// * ExMS hands a lone run back as its output without rewriting it,
    ///   segment sort merges it into the output;
    /// * ExMS range-partitions its final merge past 8192 records,
    ///   segment sort lands it as one stream.
    #[test]
    fn full_intensity_is_exms_within_one_chunk() {
        use crate::sort::tests::{assert_same_run, device_run, LAYERS};
        use pmem_sim::Storable;
        let records = sort_input(400, KeyOrder::Random, 17);
        let input_lines = pmem_sim::cachelines(400 * WisconsinRecord::SIZE);
        for kind in LAYERS {
            for threads in [1, 4] {
                let segs = device_run(&records, kind, 100, threads, |input, ctx| {
                    SortAlgorithm::SegS { x: 1.0 }.run(input, ctx, "out")
                });
                let exms = device_run(&records, kind, 100, threads, |input, ctx| {
                    SortAlgorithm::ExMS.run(input, ctx, "out")
                });
                // Two runs or more: the runs and the merged output are
                // each written once.
                assert!(exms.0.cl_writes >= 2 * input_lines, "{kind:?}: one run");
                assert_same_run(&format!("{kind:?}, DoP {threads}"), &segs, &exms);
            }
        }
    }

    #[test]
    fn rejects_out_of_range_intensity() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "t",
            sort_input(100, KeyOrder::Random, 1),
        );
        let pool = BufferPool::new(8000);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        for x in [1.5, -0.1] {
            assert!(SortAlgorithm::SegS { x }.run(&input, &ctx, "s").is_err());
        }
    }
}
