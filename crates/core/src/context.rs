//! The execution context every operator runs in.

use crate::join::HASH_TABLE_FACTOR;
use crate::parallel;
use pmem_sim::span::{span_with, Span};
use pmem_sim::{BufferPool, LayerKind, PCollection, Pm, PmError, Reservation, Storable};
use std::sync::atomic::{AtomicU64, Ordering};
use wisconsin::Record;

/// Execution context shared by every sort, join and aggregation
/// operator: the device, the persistence layer for intermediate results
/// and output, and the DRAM budget.
///
/// The context is `Sync`, so merge passes and the partition-parallel
/// executors can share it across a scoped worker pool; `threads` is the
/// degree of parallelism they fan out to (default: `WL_THREADS` or
/// serial).
#[derive(Debug)]
pub struct ExecContext<'p> {
    dev: Pm,
    kind: LayerKind,
    pool: &'p BufferPool,
    next_id: AtomicU64,
    threads: usize,
}

impl<'p> ExecContext<'p> {
    /// Creates a context writing intermediates/output through `kind`.
    pub fn new(dev: &Pm, kind: LayerKind, pool: &'p BufferPool) -> Self {
        Self {
            dev: dev.clone(),
            kind,
            pool,
            next_id: AtomicU64::new(0),
            threads: parallel::resolve_threads(None),
        }
    }

    /// Overrides the degree of parallelism for merge fan-ins and
    /// partitioned algorithms.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Degree of parallelism merge passes and partitioned algorithms fan
    /// out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Device handle.
    pub fn device(&self) -> &Pm {
        &self.dev
    }

    /// Persistence layer used for intermediates and output.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// DRAM budget.
    pub(crate) fn pool(&self) -> &'p BufferPool {
        self.pool
    }

    /// What the DRAM budget holds of `R` records.
    pub(crate) fn capacity<R: Storable>(&self) -> Capacity {
        Capacity::new(self.pool.budget(), R::SIZE)
    }

    /// Opens operator `name`'s `alg {name}` span and holds its DRAM
    /// working set of `bytes` until the caller drops the pair (bind it
    /// as `let _op = …`; `let _ = …` drops both at once): all of it if
    /// it fits, the rest of the budget otherwise — the refused full-size
    /// attempt is the memory-pressure event `exhausted` counts. The
    /// working set is the schedule's first input: a sort's or
    /// aggregation's input, or a join's build side as the schedule
    /// receives it (the deferred-σ join's unfiltered source). Every
    /// schedule entry opens it as its first statement, before any knob
    /// validation, so a refused call is counted like any other. Pure
    /// telemetry: it charges no device counter, and capacity decisions
    /// read the budget.
    pub(crate) fn operator(&self, name: &str, bytes: usize) -> (Span, Option<Reservation<'p>>) {
        let pool = self.pool;
        let hold = pool
            .reserve(bytes)
            .or_else(|_| pool.reserve(bytes.min(pool.available())));
        (span_with(|| format!("alg {name}")), hold.ok())
    }

    /// Allocates a fresh unique collection name. Names are handed out on
    /// the coordinating thread before workers spawn, so they stay
    /// deterministic at any degree of parallelism.
    pub(crate) fn fresh_name(&self, prefix: &str) -> String {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}-{id}")
    }

    /// Allocates a fresh uniquely-named collection for an intermediate
    /// result.
    pub fn fresh<R: Record>(&self, prefix: &str) -> PCollection<R> {
        PCollection::new(&self.dev, self.kind, self.fresh_name(prefix))
    }
}

/// What a DRAM budget holds: the one capacity rule the operators size
/// by and the planner costs with, `f` being [`HASH_TABLE_FACTOR`]. Row
/// counts are `f64`: the planner passes its estimates as they are, the
/// engine its whole counts (exact below 2⁵³).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Capacity {
    bytes: usize,
    records: usize,
    build_records: usize,
}

impl Capacity {
    /// A budget of `bytes`, held in records of `record_size` bytes.
    #[inline]
    pub fn new(bytes: usize, record_size: usize) -> Self {
        Self {
            bytes,
            records: (bytes / record_size).max(1),
            build_records: ((bytes as f64 / HASH_TABLE_FACTOR) as usize / record_size).max(1),
        }
    }

    /// The budget in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// `⌊bytes/size⌋` records, at least one: the paper's `M` in records.
    #[inline]
    pub fn records(&self) -> usize {
        self.records
    }

    /// `⌊⌊bytes/f⌋/size⌋` records, at least one: what a build table holds
    /// once its blow-up is paid — one nested-loops block, at most one
    /// Grace partition.
    #[inline]
    pub fn build_records(&self) -> usize {
        self.build_records
    }

    /// The Grace partition (or block) count of a build side of `t_rows`:
    /// `k = ⌈f·|T|/M⌉`, at least one.
    #[inline]
    pub fn partitions(&self, t_rows: f64) -> f64 {
        (t_rows / self.build_records as f64).ceil().max(1.0)
    }

    /// The §2.2.1 Grace test `M > √(f·|T|)` in records: the partition
    /// count must not exceed the fan-out the budget can drive.
    #[inline]
    pub fn grace_applicable(&self, t_rows: f64) -> bool {
        self.records as f64 > (HASH_TABLE_FACTOR * t_rows).sqrt()
    }

    /// [`Capacity::partitions`] of a Grace-family join over `t_records`,
    /// or the error `algorithm` refuses it with when the Grace test fails.
    pub(crate) fn grace_partitions(
        &self,
        t_records: usize,
        algorithm: &str,
    ) -> Result<usize, PmError> {
        if !self.grace_applicable(t_records as f64) {
            return Err(PmError::InsufficientMemory {
                requirement: format!(
                    "{algorithm} needs M > sqrt(f*|T|): M = {} records, |T| = {t_records}",
                    self.records
                ),
            });
        }
        Ok(self.partitions(t_records as f64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use crate::adaptive::adaptive_grace_join;
    use crate::agg::{hash_aggregate, segmented_hash_aggregate, sort_based_aggregate};
    use crate::join::{grace_join_profiled, guided_join_with, JoinAlgorithm, JoinContext, Pairs};
    use crate::pipeline::filtered_iterate_join;
    use crate::sort::{external_merge_sort_profiled, SortAlgorithm, SortContext};
    use pmem_sim::{BufferPool, LayerKind, PCollection, Pm, PmDevice, Storable};
    use wisconsin::{join_input, sort_input, KeyOrder, Record, WisconsinRecord};

    /// DRAM budget of the runs below, in Wisconsin records.
    const M: usize = 100;

    /// The pool telemetry one run leaves on a fresh pool of `M` records:
    /// `(reservations, exhausted, high_water)`.
    fn telemetry(run: impl FnOnce(&BufferPool)) -> (u64, u64, usize) {
        let pool = BufferPool::new(M * WisconsinRecord::SIZE);
        run(&pool);
        (pool.reservations(), pool.exhausted(), pool.high_water())
    }

    /// Every run of every operator entry holds its working set once: the
    /// whole input (a sort's or aggregation's) or build side (a join's)
    /// when it fits the budget, otherwise one refused full-size attempt
    /// and then the whole budget.
    #[test]
    fn every_run_holds_its_working_set_once() {
        let budget = M * WisconsinRecord::SIZE;
        let sorts = [
            SortAlgorithm::ExMS,
            SortAlgorithm::SegS { x: 0.0 },
            SortAlgorithm::SegS { x: 1.0 },
            SortAlgorithm::HybS { x: 0.0 },
            SortAlgorithm::HybS { x: 1.0 },
            SortAlgorithm::LaS,
            SortAlgorithm::SelS,
        ];
        let joins = [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::HybJ { x: 0.0, y: 0.0 },
            JoinAlgorithm::HybJ { x: 0.0, y: 1.0 },
            JoinAlgorithm::HybJ { x: 1.0, y: 0.0 },
            JoinAlgorithm::HybJ { x: 1.0, y: 1.0 },
            JoinAlgorithm::SegJ { frac: 0.0 },
            JoinAlgorithm::SegJ { frac: 1.0 },
            JoinAlgorithm::LaJ,
            JoinAlgorithm::SMJ { x: 0.0 },
            JoinAlgorithm::SMJ { x: 1.0 },
            JoinAlgorithm::CGJ,
        ];
        let kind = LayerKind::BlockedMemory;
        // 3M records overflow the budget, M/2 fit it.
        for (rows, want) in [(3 * M, (1, 1, budget)), (M / 2, (1, 0, budget / 2))] {
            for algo in sorts {
                let got = telemetry(|pool| {
                    let dev = PmDevice::paper_default();
                    let records = sort_input(rows as u64, KeyOrder::Random, 5);
                    let input = PCollection::from_records_uncounted(&dev, kind, "T", records);
                    let ctx = SortContext::new(&dev, kind, pool);
                    algo.run(&input, &ctx, "out").expect("valid");
                });
                assert_eq!(got, want, "{algo}, {rows} records");
            }
            for algo in joins {
                let got = telemetry(|pool| {
                    let dev = PmDevice::paper_default();
                    let w = join_input(rows as u64, 2, 5);
                    let left = PCollection::from_records_uncounted(&dev, kind, "T", w.left);
                    let right = PCollection::from_records_uncounted(&dev, kind, "V", w.right);
                    let ctx = JoinContext::new(&dev, kind, pool);
                    algo.run(&left, &right, &ctx, "out").expect("applicable");
                });
                assert_eq!(got, want, "{algo}, {rows} build records");
            }
            for (entry, run) in ENTRIES {
                let got = telemetry(|pool| run(pool, rows));
                assert_eq!(got, want, "{entry}, {rows} input records");
            }
        }
    }

    /// Staged on blocked memory, uncounted.
    fn stage(dev: &Pm, name: &str, records: Vec<WisconsinRecord>) -> PCollection<WisconsinRecord> {
        PCollection::from_records_uncounted(dev, LayerKind::BlockedMemory, name, records)
    }

    /// A sort's or aggregation's input, on a fresh device.
    fn sort_run(records: Vec<WisconsinRecord>) -> (Pm, PCollection<WisconsinRecord>) {
        let dev = PmDevice::paper_default();
        let input = stage(&dev, "T", records);
        (dev, input)
    }

    /// A join's build side of `rows` records and its probe side, on a
    /// fresh device.
    fn join_run(
        rows: usize,
    ) -> (
        Pm,
        PCollection<WisconsinRecord>,
        PCollection<WisconsinRecord>,
    ) {
        let dev = PmDevice::paper_default();
        let w = join_input(rows as u64, 2, 5);
        let (left, right) = (stage(&dev, "T", w.left), stage(&dev, "V", w.right));
        (dev, left, right)
    }

    /// An operator entry: its name, and a run on `(pool, rows)`.
    type Entry = (&'static str, fn(&BufferPool, usize));

    /// Every public operator entry outside the two handles, each run on
    /// a sort's or aggregation's input, or a join's build side, of the
    /// given number of records.
    const ENTRIES: [Entry; 9] = [
        ("guided_join_with", |pool, rows| {
            let (dev, left, right) = join_run(rows);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, pool);
            guided_join_with(&left, &right, &[0, 1, 2], &Pairs, &ctx, "out").expect("applicable");
        }),
        ("filtered_iterate_join", |pool, rows| {
            let (dev, left, right) = join_run(rows);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, pool);
            let even = |r: &WisconsinRecord| r.key().is_multiple_of(2);
            filtered_iterate_join(&left, even, 0.5, &right, &Pairs, &ctx, "out")
                .expect("applicable");
        }),
        ("adaptive_grace_join", |pool, rows| {
            let (dev, left, right) = join_run(rows);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, pool);
            adaptive_grace_join(&left, &right, &ctx, "out").expect("applicable");
        }),
        ("sort_based_aggregate x = 0", |pool, rows| {
            let (dev, input) = sort_run(sort_input(rows as u64, KeyOrder::Random, 5));
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, pool);
            sort_based_aggregate(&input, 0.0, |r| r.payload(), &ctx, "out").expect("valid");
        }),
        ("sort_based_aggregate x = 1", |pool, rows| {
            let (dev, input) = sort_run(sort_input(rows as u64, KeyOrder::Random, 5));
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, pool);
            sort_based_aggregate(&input, 1.0, |r| r.payload(), &ctx, "out").expect("valid");
        }),
        ("hash_aggregate", |pool, rows| {
            // Ten distinct keys: the groups fit the budget at any size.
            let (dev, input) = sort_run(join_input(10, rows as u64 / 10, 5).right);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, pool);
            hash_aggregate(&input, |r| r.payload(), &ctx, "out").expect("groups fit");
        }),
        ("segmented_hash_aggregate", |pool, rows| {
            let (dev, input) = sort_run(sort_input(rows as u64, KeyOrder::Random, 5));
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, pool);
            segmented_hash_aggregate(&input, 4, 2, |r| r.payload(), &ctx, "out").expect("valid");
        }),
        ("external_merge_sort_profiled", |pool, rows| {
            let (dev, input) = sort_run(sort_input(rows as u64, KeyOrder::Random, 5));
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, pool);
            external_merge_sort_profiled(&input, &ctx, "out");
        }),
        ("grace_join_profiled", |pool, rows| {
            let (dev, left, right) = join_run(rows);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, pool);
            grace_join_profiled(&left, &right, &ctx, "out").expect("applicable");
        }),
    ];
}
