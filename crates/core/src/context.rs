//! The execution context every operator runs in.

use crate::join::HASH_TABLE_FACTOR;
use crate::parallel;
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

    /// Holds an operator's DRAM working set of `bytes` for its blocking
    /// phase: all of it if it fits, the rest of the budget otherwise
    /// (external algorithms run at capacity — the refused full-size
    /// attempt is the memory-pressure event `exhausted` telemetry counts).
    /// Pure telemetry: capacity decisions read the budget, not the
    /// reservation ledger.
    pub(crate) fn hold_working_set(&self, bytes: usize) -> Option<Reservation<'p>> {
        let pool = self.pool;
        pool.reserve(bytes)
            .or_else(|_| pool.reserve(bytes.min(pool.available())))
            .ok()
    }

    /// Allocates a fresh unique collection name. Names are handed out on
    /// the coordinating thread before workers spawn, so they stay
    /// deterministic at any degree of parallelism.
    pub fn fresh_name(&self, prefix: &str) -> String {
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
