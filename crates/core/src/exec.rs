//! Counted staging: the one step between a plan's streaming segments
//! and its blocking operators.
//!
//! §3.1 describes each algorithm as "a physical operator … \[that
//! provides\] a standard iterator interface". Here every blocking
//! algorithm — sort, join, aggregation — is a function over persistent
//! collections, and [`pmem_sim::RecordReader`] is the iterator. What
//! remains between them is [`stage`]: one counted scan that filters or
//! reshapes a collection into a new one, so all persistent-memory
//! traffic keeps flowing through the same counted collections.

use pmem_sim::{LayerKind, PCollection, Pm};
use wisconsin::Record;

/// Scans `input` once and materializes, as a persistent collection
/// named `name`, every record `f` maps to `Some` — a filter, a reshape,
/// or both. The reads and writes are real and counted.
pub fn stage<R: Record, O: Record>(
    input: &PCollection<R>,
    mut f: impl FnMut(R) -> Option<O>,
    dev: &Pm,
    kind: LayerKind,
    name: &str,
) -> PCollection<O> {
    let _span = pmem_sim::span::span_with(|| format!("stage {name}"));
    let reader = input.reader();
    let mut out = PCollection::new(dev, kind, name);
    reader.for_each_view(|r| {
        if let Some(o) = f(r.get()) {
            out.append(&o);
        }
    });
    pmem_sim::flush_thread_accounting();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::sort_based_aggregate;
    use crate::join::{JoinAlgorithm, JoinContext};
    use crate::sort::{SortAlgorithm, SortContext};
    use pmem_sim::{BufferPool, PmDevice};
    use wisconsin::{join_input, sort_input, KeyOrder, Pair, WisconsinRecord};

    #[test]
    fn scan_filter_pipeline_streams() {
        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let input = PCollection::from_records_uncounted(
            &dev,
            kind,
            "T",
            sort_input(100, KeyOrder::Random, 1),
        );
        let staged = stage(
            &input,
            |r| (r.key() < 10).then_some(r),
            &dev,
            kind,
            "filtered",
        );
        let rows = staged.to_vec_uncounted();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.key() < 10));
    }

    #[test]
    fn sort_operator_orders_filtered_rows() {
        // A sort over a filter, lowered as the planner lowers it: the
        // streaming segment staged, the sort run over the staged rows.
        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let input = PCollection::from_records_uncounted(
            &dev,
            kind,
            "T",
            sort_input(500, KeyOrder::Random, 2),
        );
        let pool = BufferPool::new(64 * 80);
        let even = |r: WisconsinRecord| r.key().is_multiple_of(2).then_some(r);
        let staged = stage(&input, even, &dev, kind, "filtered");
        let ctx = SortContext::new(&dev, kind, &pool);
        let sorted = SortAlgorithm::SegS { x: 0.5 }
            .run(&staged, &ctx, "sorted")
            .expect("valid knob");
        let rows = sorted.to_vec_uncounted();
        assert_eq!(rows.len(), 250);
        assert!(rows.windows(2).all(|w| w[0].key() <= w[1].key()));
    }

    #[test]
    fn join_then_aggregate_composes() {
        // SELECT l.key, count(*), sum(r.payload) FROM T JOIN V GROUP BY key
        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let w = join_input(50, 4, 3);
        let left = PCollection::from_records_uncounted(&dev, kind, "T", w.left);
        let right = PCollection::from_records_uncounted(&dev, kind, "V", w.right);
        let pool = BufferPool::new(100 * 160);
        let ctx = JoinContext::new(&dev, kind, &pool);
        let joined = JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "joined")
            .expect("applicable");
        let payload = |p: &Pair<WisconsinRecord, WisconsinRecord>| p.right.payload();
        let groups =
            sort_based_aggregate(&joined, 0.0, payload, &ctx, "groups").expect("valid knob");
        let groups = groups.to_vec_uncounted();
        assert_eq!(groups.len(), 50);
        assert!(groups.iter().all(|g| g.count == 4));
        let total: u64 = groups.iter().map(|g| g.sum).sum();
        assert_eq!(total, (0..200u64).sum::<u64>());
    }

    #[test]
    fn stage_reads_its_input_once_and_counts_its_writes() {
        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let input = PCollection::from_records_uncounted(
            &dev,
            kind,
            "T",
            sort_input(200, KeyOrder::Random, 8),
        );
        let filter = |r: WisconsinRecord| (r.key() < 50).then_some(r);
        let map = |r: WisconsinRecord| Some(r.with_payload(r.key() * 2));
        let counted = |run: &dyn Fn() -> PCollection<WisconsinRecord>| {
            let before = dev.snapshot();
            let out = run();
            (out, dev.snapshot().since(&before))
        };
        for (what, (out, delta), rows) in [
            (
                "filter",
                counted(&|| stage(&input, filter, &dev, kind, "filtered")),
                50,
            ),
            (
                "map",
                counted(&|| stage(&input, map, &dev, kind, "mapped")),
                200,
            ),
        ] {
            assert_eq!(out.len(), rows, "{what}");
            assert_eq!(delta.cl_writes, out.buffers(), "{what}: writes are counted");
            assert_eq!(
                delta.cl_reads,
                input.buffers(),
                "{what}: one scan of the input"
            );
        }
    }
}
