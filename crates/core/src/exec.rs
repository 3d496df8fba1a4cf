//! Volcano-style streaming operators and the staging step.
//!
//! §3.1 describes each algorithm as "a physical operator … \[that
//! provides\] a standard iterator interface". This module supplies the
//! streaming half of that interface: [`PhysOperator`] is the
//! open/next/close contract, [`ScanOp`], [`FilterOp`] and [`MapOp`]
//! compose a plan's streaming segments (`scan → filter → map`), and
//! [`stage`] materializes a segment as a persistent collection at a
//! blocking boundary. Blocking work — sorts, joins, aggregations — runs
//! as the crate's algorithms over staged collections, so all
//! persistent-memory traffic keeps flowing through the same counted
//! collections.

use pmem_sim::{LayerKind, PCollection, Pm, PmError, RecordReader};
use wisconsin::Record;

/// The Volcano contract: `open` prepares (and for blocking operators,
/// runs) the computation; `next` streams records; `close` releases
/// state.
pub trait PhysOperator {
    /// Record type produced.
    type Item: Record;

    /// Prepares the operator (blocking operators do their work here).
    ///
    /// # Errors
    /// Propagates algorithm applicability/parameter errors.
    fn open(&mut self) -> Result<(), PmError>;

    /// Produces the next record, or `None` when exhausted.
    fn next(&mut self) -> Option<Self::Item>;

    /// Pushes every remaining record to `sink`, in order — what a
    /// consumer that takes the whole output ([`stage`], a blocking
    /// operator's `open`) calls in place of a `next` loop. Provided as that loop; streaming operators
    /// override it to hand their child's drain through, so a scan at
    /// the bottom is consumed inside this call and can charge a run of
    /// records at a time instead of one per pull.
    fn drain(&mut self, sink: &mut dyn FnMut(Self::Item)) {
        while let Some(r) = self.next() {
            sink(r);
        }
    }

    /// Releases operator state.
    fn close(&mut self);
}

/// Leaf operator: scans a persistent collection.
pub struct ScanOp<'a, R: Record> {
    input: &'a PCollection<R>,
    reader: Option<RecordReader<'a, R>>,
}

impl<'a, R: Record> ScanOp<'a, R> {
    /// Creates a scan over `input`.
    pub fn new(input: &'a PCollection<R>) -> Self {
        Self {
            input,
            reader: None,
        }
    }
}

impl<'a, R: Record> PhysOperator for ScanOp<'a, R> {
    type Item = R;

    fn open(&mut self) -> Result<(), PmError> {
        self.reader = Some(self.input.reader());
        Ok(())
    }

    fn next(&mut self) -> Option<R> {
        self.reader.as_mut()?.next()
    }

    fn drain(&mut self, sink: &mut dyn FnMut(R)) {
        if let Some(reader) = self.reader.take() {
            reader.for_each_view(|r| sink(r.get()));
        }
    }

    fn close(&mut self) {
        self.reader = None;
    }
}

/// Streaming filter.
pub struct FilterOp<I: PhysOperator, P> {
    child: I,
    predicate: P,
}

impl<I: PhysOperator, P: FnMut(&I::Item) -> bool> FilterOp<I, P> {
    /// Filters `child` with `predicate`.
    pub fn new(child: I, predicate: P) -> Self {
        Self { child, predicate }
    }
}

impl<I: PhysOperator, P: FnMut(&I::Item) -> bool> PhysOperator for FilterOp<I, P> {
    type Item = I::Item;

    fn open(&mut self) -> Result<(), PmError> {
        self.child.open()
    }

    fn next(&mut self) -> Option<I::Item> {
        loop {
            let r = self.child.next()?;
            if (self.predicate)(&r) {
                return Some(r);
            }
        }
    }

    fn drain(&mut self, sink: &mut dyn FnMut(I::Item)) {
        let predicate = &mut self.predicate;
        self.child.drain(&mut |r| {
            if predicate(&r) {
                sink(r);
            }
        });
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Streaming record-to-record map: reshapes each child record (the
/// planner's chain-join lowering folds joined pairs into flat n-way
/// rows with it).
pub struct MapOp<I: PhysOperator, F> {
    child: I,
    f: F,
}

impl<I: PhysOperator, F> MapOp<I, F> {
    /// Maps `child`'s records through `f`.
    pub fn new(child: I, f: F) -> Self {
        Self { child, f }
    }
}

impl<I: PhysOperator, O: Record, F: FnMut(&I::Item) -> O> PhysOperator for MapOp<I, F> {
    type Item = O;

    fn open(&mut self) -> Result<(), PmError> {
        self.child.open()
    }

    fn next(&mut self) -> Option<O> {
        self.child.next().map(|r| (self.f)(&r))
    }

    fn drain(&mut self, sink: &mut dyn FnMut(O)) {
        let f = &mut self.f;
        self.child.drain(&mut |r| sink(f(&r)));
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Boxed operators delegate, so plan trees whose shape is only known at
/// run time (e.g. those the planner lowers) can compose heterogeneous
/// operator chains behind one item type.
impl<O: PhysOperator + ?Sized> PhysOperator for Box<O> {
    type Item = O::Item;

    fn open(&mut self) -> Result<(), PmError> {
        (**self).open()
    }

    fn next(&mut self) -> Option<Self::Item> {
        (**self).next()
    }

    fn drain(&mut self, sink: &mut dyn FnMut(Self::Item)) {
        (**self).drain(sink);
    }

    fn close(&mut self) {
        (**self).close();
    }
}

/// A type-erased operator over records of type `R`.
pub type DynOp<'a, R> = Box<dyn PhysOperator<Item = R> + 'a>;

/// Runs `op` and materializes its output as a persistent collection
/// named `name` — the staging step blocking consumers (joins, sorts
/// over arbitrary children) use. The writes are real and counted.
///
/// # Errors
/// Propagates the operator's `open()` error.
pub fn stage<O: PhysOperator>(
    op: &mut O,
    dev: &Pm,
    kind: LayerKind,
    name: &str,
) -> Result<PCollection<O::Item>, PmError> {
    let _span = pmem_sim::span::span_with(|| format!("stage {name}"));
    op.open()?;
    let mut out = PCollection::new(dev, kind, name);
    op.drain(&mut |r| out.append(&r));
    op.close();
    pmem_sim::flush_thread_accounting();
    Ok(out)
}

/// Drains an opened operator into a DRAM vector (test/driver helper).
pub fn collect<O: PhysOperator>(op: &mut O) -> Result<Vec<O::Item>, PmError> {
    op.open()?;
    let mut v = Vec::new();
    op.drain(&mut |r| v.push(r));
    op.close();
    Ok(v)
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
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(100, KeyOrder::Random, 1),
        );
        let mut plan = FilterOp::new(ScanOp::new(&input), |r: &WisconsinRecord| r.key() < 10);
        let rows = collect(&mut plan).expect("streaming plan cannot fail");
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
        let mut plan = FilterOp::new(ScanOp::new(&input), |r: &WisconsinRecord| {
            r.key().is_multiple_of(2)
        });
        let staged = stage(&mut plan, &dev, kind, "filtered").expect("streaming plan");
        let ctx = SortContext::new(&dev, kind, &pool);
        let sorted = SortAlgorithm::SegS { x: 0.5 }
            .run(&staged, &ctx, "sorted")
            .expect("valid knob");
        let rows = collect(&mut ScanOp::new(&sorted)).expect("streaming plan");
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
        let groups = collect(&mut ScanOp::new(&groups)).expect("streaming plan");
        assert_eq!(groups.len(), 50);
        assert!(groups.iter().all(|g| g.count == 4));
        let total: u64 = groups.iter().map(|g| g.sum).sum();
        assert_eq!(total, (0..200u64).sum::<u64>());
    }

    #[test]
    fn boxed_operators_compose_and_stage_counts_writes() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(200, KeyOrder::Random, 8),
        );
        // Type-erased chain, as the planner's lowering builds them.
        let mut op: DynOp<'_, WisconsinRecord> =
            Box::new(FilterOp::new(ScanOp::new(&input), |r: &WisconsinRecord| {
                r.key() < 50
            }));
        let before = dev.snapshot();
        let staged = stage(&mut op, &dev, LayerKind::BlockedMemory, "staged").expect("stages");
        let delta = dev.snapshot().since(&before);
        assert_eq!(staged.len(), 50);
        assert_eq!(
            delta.cl_writes,
            staged.buffers(),
            "staging writes are counted"
        );
        assert_eq!(delta.cl_reads, input.buffers(), "one scan of the input");
    }

    #[test]
    fn drain_pushes_what_next_pulls_for_the_same_charges() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(300, KeyOrder::Random, 6),
        );
        let plan = || {
            MapOp::new(
                FilterOp::new(ScanOp::new(&input), |r: &WisconsinRecord| {
                    !r.key().is_multiple_of(3)
                }),
                |r: &WisconsinRecord| r.with_payload(r.key() * 2),
            )
        };
        // Pulled to the end, and pulled for five records then drained.
        let mut runs = Vec::new();
        for pulled in [usize::MAX, 5] {
            let mut op = plan();
            let before = dev.snapshot();
            op.open().expect("streaming plan cannot fail");
            let mut rows = Vec::new();
            while rows.len() < pulled {
                let Some(r) = op.next() else { break };
                rows.push(r);
            }
            op.drain(&mut |r| rows.push(r));
            assert!(op.next().is_none(), "a drained operator is exhausted");
            op.close();
            runs.push((rows, dev.snapshot().since(&before)));
        }
        assert_eq!(runs[0].0.len(), 200);
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn operators_are_reopenable() {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(20, KeyOrder::Random, 4),
        );
        let mut scan = ScanOp::new(&input);
        assert_eq!(collect(&mut scan).expect("ok").len(), 20);
        assert_eq!(collect(&mut scan).expect("ok").len(), 20);
    }
}
