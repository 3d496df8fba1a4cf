//! The execution context every operator runs in.

use crate::join::HASH_TABLE_FACTOR;
use crate::parallel;
use pmem_sim::{BufferPool, LayerKind, PCollection, Pm, PmError, Reservation};
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
    pub fn pool(&self) -> &'p BufferPool {
        self.pool
    }

    /// How many `R` records fit in the DRAM budget (the paper's `M`
    /// expressed in records).
    pub fn capacity_records<R: Record>(&self) -> usize {
        (self.pool.budget() / R::SIZE).max(1)
    }

    /// Build-side records that fit in DRAM once the `f = 1.2` hash-table
    /// blow-up is paid.
    pub fn build_capacity<R: Record>(&self) -> usize {
        ((self.pool.budget() as f64 / HASH_TABLE_FACTOR) as usize / R::SIZE).max(1)
    }

    /// Grace-join partition count for a build side of `t_records`:
    /// `k = ⌈f·|T| / M⌉`, at least one.
    pub fn grace_partitions<R: Record>(&self, t_records: usize) -> usize {
        let cap = self.build_capacity::<R>();
        t_records.div_ceil(cap).max(1)
    }

    /// Whether Grace join is applicable: `M > √(f·|T|)` in buffer units
    /// (§2.2.1) — equivalently, the partition count must not exceed the
    /// fan-out the budget can drive.
    pub fn grace_applicable<R: Record>(&self, t_records: usize) -> bool {
        let m = self.capacity_records::<R>() as f64;
        m > (HASH_TABLE_FACTOR * t_records as f64).sqrt()
    }

    /// [`ExecContext::grace_applicable`] as the error `algorithm` refuses
    /// a build side of `t_records` with.
    pub(crate) fn require_grace<R: Record>(
        &self,
        t_records: usize,
        algorithm: &str,
    ) -> Result<(), PmError> {
        if self.grace_applicable::<R>(t_records) {
            return Ok(());
        }
        Err(PmError::InsufficientMemory {
            requirement: format!(
                "{algorithm} needs M > sqrt(f*|T|): M = {} records, |T| = {t_records}",
                self.capacity_records::<R>()
            ),
        })
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
