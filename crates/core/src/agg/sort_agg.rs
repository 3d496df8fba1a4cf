//! Sort-based aggregation with a write-limited pipeline.
//!
//! The classic plan sorts the input and makes one grouping pass. On
//! persistent memory the sorted intermediate is pure write waste — the
//! aggregation output is tiny. This operator therefore runs segment
//! sort's schedule with a *folding* consumer in the final merge: the only
//! materialized collection is the per-group output. At `x = 0` writes
//! are exactly the output; at `x = 1` the run files of a full external
//! mergesort are written (but never the sorted result itself).

use crate::agg::GroupAgg;
use crate::sort::kernel::Consume;
use crate::sort::segment::segmented;
use crate::sort::{KWayMerge, SortContext};
use pmem_sim::{PCollection, PmError, Storable};
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
    let _op = ctx.operator("sort-agg", input.len() * R::SIZE);
    let fold = Fold(value_of);
    segmented(input, x, ctx, "agg-merge", &fold, output_name).map(|(out, _)| out)
}

/// Folds merged records into one [`GroupAgg`] per key, each landed as
/// the key advances.
struct Fold<F>(F);

impl<R: Record, F: Fn(&R) -> u64 + Sync> Consume<R> for Fold<F> {
    type Out = GroupAgg;

    fn by_range(&self) -> bool {
        true
    }

    fn consume(&self, merge: KWayMerge<'_, R>, mut land: impl FnMut(&[u8])) {
        let mut stored = [0u8; GroupAgg::SIZE];
        let mut emit = |g: &GroupAgg| {
            g.write_to(&mut stored);
            land(&stored);
        };
        let mut group: Option<GroupAgg> = None;
        for record in merge {
            let (key, value) = (record.key(), (self.0)(&record));
            match group.as_mut() {
                Some(g) if g.key == key => g.fold(value),
                _ => {
                    if let Some(done) = group.replace(GroupAgg::seed(key, value)) {
                        emit(&done);
                    }
                }
            }
        }
        if let Some(done) = group {
            emit(&done);
        }
    }
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
