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

use super::common::{
    generate_runs_replacement_range, run_sources, KWayMerge, MergeSource, SortContext,
};
use super::selection::SelectionStream;
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// Sorts `input` with write intensity `x` (fraction handled by external
/// mergesort).
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ x ≤ 1` (the
/// boundary values degrade gracefully to pure selection sort / pure
/// external mergesort).
pub fn segment_sort<R: Record>(
    input: &PCollection<R>,
    x: f64,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<PCollection<R>, PmError> {
    let _span = pmem_sim::span::span("alg segment-sort");
    if !(0.0..=1.0).contains(&x) {
        return Err(PmError::InvalidParameter {
            name: "x",
            message: format!("write intensity must be in [0,1], got {x}"),
        });
    }
    let n = input.len();
    let split = ((n as f64) * x).round() as usize;
    let capacity = ctx.capacity_records::<R>();

    // Write-incurring segment: external-mergesort run generation over the
    // prefix [0, split).
    let mut runs = generate_runs_replacement_range(input, 0..split, capacity, ctx);

    // Pre-merge the runs down to the fan-in, reserving one slot for the
    // deferred selection stream.
    let fan_in = super::common::merge_fan_in(ctx).saturating_sub(1).max(2);
    while runs.len() > fan_in {
        let mut merged: Vec<PCollection<R>> = Vec::new();
        for group in runs.chunks(fan_in) {
            let mut next = ctx.fresh::<R>("seg-merge");
            super::common::merge_group(group, &mut next);
            merged.push(next);
        }
        runs = merged;
    }

    // Final merge: mergesort runs plus the *deferred* selection-sorted
    // suffix [split, n), which regenerates itself by rescanning instead
    // of being materialized as a long run — its records are written
    // exactly once, at their final location in the output.
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let mut sources = run_sources(&runs);
    if split < n {
        sources.push(MergeSource::stream(SelectionStream::new(
            input,
            split..n,
            capacity,
        )));
    }
    KWayMerge::from_sources(sources).for_each_bytes(|rec| out.append_bytes(rec));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::common::is_sorted_by_key;
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
        let out = segment_sort(&input, x, &ctx, "sorted").expect("valid x");
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
        assert!(segment_sort(&input, 1.5, &ctx, "s").is_err());
        assert!(segment_sort(&input, -0.1, &ctx, "s").is_err());
    }
}
