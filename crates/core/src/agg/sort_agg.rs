//! Sort-based aggregation with a write-limited pipeline.
//!
//! The classic plan sorts the input and makes one grouping pass. On
//! persistent memory the sorted intermediate is pure write waste — the
//! aggregation output is tiny. This operator therefore reuses segment
//! sort's internals but *pipes the merge into the aggregator*: the only
//! materialized collection is the per-group output. At `x = 0` writes
//! are exactly the output; at `x = 1` the run files of a full external
//! mergesort are written (but never the sorted result itself).

use crate::agg::GroupAgg;
use crate::parallel;
use crate::sort::common::{
    generate_runs_replacement_range, merge_fan_in, merge_group, run_segment_cuts, run_sources,
    segment_sources, KWayMerge, MergeSource, SortContext, MERGE_SEGMENT_RECORDS,
};
use crate::sort::selection::SelectionStream;
use pmem_sim::{PCollection, PmError, RecordBuffer};
use wisconsin::Record;

/// Aggregates `input` by key, extracting the aggregated value with
/// `value_of`, using a sort-based pipeline at write intensity `x`.
/// Output groups are emitted in ascending key order.
///
/// At full write intensity the final merge-aggregate pass
/// range-partitions the key space across the worker pool (groups cannot
/// straddle a splitter, so segments aggregate independently); lower
/// intensities keep the deferred selection stream, which regenerates
/// itself by rescanning the input and therefore merges serially.
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ x ≤ 1`.
pub fn sort_based_aggregate<R: Record>(
    input: &PCollection<R>,
    x: f64,
    value_of: impl Fn(&R) -> u64 + Sync,
    ctx: &SortContext<'_>,
    output_name: &str,
) -> Result<PCollection<GroupAgg>, PmError> {
    let _span = pmem_sim::span::span("alg sort-agg");
    if !(0.0..=1.0).contains(&x) {
        return Err(PmError::InvalidParameter {
            name: "x",
            message: format!("write intensity must be in [0,1], got {x}"),
        });
    }
    let n = input.len();
    let split = ((n as f64) * x).round() as usize;
    let capacity = ctx.capacity_records::<R>();

    // Write-incurring prefix: external-mergesort runs. Pre-merge passes
    // fan out over their independent groups (names minted up front, so
    // naming and counters are DoP-invariant).
    let mut runs = generate_runs_replacement_range(input, 0..split, capacity, ctx);
    let fan_in = merge_fan_in(ctx).saturating_sub(1).max(2);
    while runs.len() > fan_in {
        let groups: Vec<&[PCollection<R>]> = runs.chunks(fan_in).collect();
        let names: Vec<String> = (0..groups.len())
            .map(|_| ctx.fresh_name("agg-merge"))
            .collect();
        let merged = parallel::map_ordered(ctx.threads(), groups.len(), |g| {
            let mut next = PCollection::new(ctx.device(), ctx.kind(), names[g].clone());
            merge_group(groups[g], &mut next);
            next
        });
        drop(groups);
        runs = merged;
    }

    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let segments = n.div_ceil(MERGE_SEGMENT_RECORDS).max(1);
    if split == n && runs.len() > 1 && segments > 1 {
        aggregate_runs_parallel(&runs, &value_of, segments, ctx, &mut out);
        return Ok(out);
    }

    // Merge streams straight into the aggregator: the sorted sequence is
    // consumed, never written.
    let mut sources = run_sources(&runs);
    if split < n {
        sources.push(MergeSource::stream(SelectionStream::new(
            input,
            split..n,
            capacity,
        )));
    }

    let mut current: Option<GroupAgg> = None;
    for record in KWayMerge::from_sources(sources) {
        fold_into(&mut current, &record, &value_of, |g| out.append(g));
    }
    if let Some(g) = current {
        out.append(&g);
    }
    Ok(out)
}

/// Folds one record into the running group, emitting the finished group
/// when the key advances.
fn fold_into<R: Record>(
    current: &mut Option<GroupAgg>,
    record: &R,
    value_of: &impl Fn(&R) -> u64,
    mut emit: impl FnMut(&GroupAgg),
) {
    let (key, value) = (record.key(), value_of(record));
    match current.as_mut() {
        Some(g) if g.key == key => g.fold(value),
        Some(g) => {
            emit(g);
            *current = Some(GroupAgg::seed(key, value));
        }
        None => *current = Some(GroupAgg::seed(key, value)),
    }
}

/// Range-partitioned final merge-aggregate: splitter keys sampled from
/// the runs carve the key space into segments; every group falls wholly
/// inside one segment, so each worker merges and aggregates its ranges
/// independently and the coordinator concatenates the group outputs in
/// splitter order — identical rows and counters at any DoP.
fn aggregate_runs_parallel<R: Record>(
    runs: &[PCollection<R>],
    value_of: &(impl Fn(&R) -> u64 + Sync),
    segments: usize,
    ctx: &SortContext<'_>,
    out: &mut PCollection<GroupAgg>,
) {
    let cuts = run_segment_cuts(runs, segments);
    parallel::for_each_ordered(
        ctx.threads(),
        segments,
        |seg| {
            let mut buf = RecordBuffer::new();
            let mut current: Option<GroupAgg> = None;
            for record in KWayMerge::from_sources(segment_sources(runs, &cuts, seg)) {
                fold_into(&mut current, &record, value_of, |g| buf.push(g));
            }
            if let Some(g) = current {
                buf.push(&g);
            }
            buf
        },
        |_, task| out.append_buffer(&task.value),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice, Storable};
    use wisconsin::{sort_input, KeyOrder, WisconsinRecord};

    fn reference(records: &[WisconsinRecord]) -> Vec<GroupAgg> {
        let mut map = std::collections::BTreeMap::<u64, GroupAgg>::new();
        for r in records {
            use wisconsin::Record as _;
            map.entry(r.key())
                .and_modify(|g| g.fold(r.payload()))
                .or_insert_with(|| GroupAgg::seed(r.key(), r.payload()));
        }
        map.into_values().collect()
    }

    fn run(x: f64, distinct: u64) -> (pmem_sim::IoStats, Vec<GroupAgg>, Vec<GroupAgg>) {
        let dev = PmDevice::paper_default();
        let records = sort_input(5000, KeyOrder::FewDistinct { distinct }, 3);
        let expect = reference(&records);
        let input =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
        let pool = BufferPool::new(200 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = sort_based_aggregate(&input, x, |r| r.payload(), &ctx, "agg").expect("valid x");
        (
            dev.snapshot().since(&before),
            out.to_vec_uncounted(),
            expect,
        )
    }

    #[test]
    fn aggregates_match_reference_at_all_intensities() {
        for x in [0.0, 0.3, 0.7, 1.0] {
            let (_, got, expect) = run(x, 50);
            assert_eq!(got, expect, "x={x}");
        }
    }

    #[test]
    fn zero_intensity_writes_only_the_output() {
        let (stats, got, _) = run(0.0, 10);
        let out_bytes = got.len() * GroupAgg::SIZE;
        assert_eq!(stats.cl_writes, pmem_sim::cachelines(out_bytes));
    }

    #[test]
    fn higher_intensity_writes_more_reads_less() {
        let (lo, _, _) = run(0.1, 100);
        let (hi, _, _) = run(0.9, 100);
        assert!(lo.cl_writes < hi.cl_writes);
        assert!(lo.cl_reads > hi.cl_reads);
    }

    #[test]
    fn single_group_collapses_to_one_row() {
        let (_, got, expect) = run(0.5, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got, expect);
        assert_eq!(got[0].count, 5000);
    }
}
