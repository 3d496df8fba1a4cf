//! The database-wide metrics registry behind `SHOW METRICS`.
//!
//! One [`EngineMetrics`] lives in the [`crate::Database`] and aggregates
//! across every session and query: queries executed, result rows /
//! bytes / batches actually delivered to clients (the simulated device
//! never sees delivery — result drains are uncounted reads — so the
//! registry is the only place this traffic is visible), buffer-pool
//! pressure, the planner's work, and host wall time spent planning and
//! executing. Counters are atomics;
//! [`EngineMetrics::snapshot`] takes a consistent-enough point-in-time
//! copy for reporting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic engine-wide counters. All methods are `&self` and
/// lock-free; streams fold their totals in as they finish.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    queries: AtomicU64,
    result_rows: AtomicU64,
    result_bytes: AtomicU64,
    result_batches: AtomicU64,
    pool_reservations: AtomicU64,
    pool_exhausted: AtomicU64,
    pool_peak_bytes: AtomicU64,
    exec_wall_ns: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    fsyncs: AtomicU64,
    recoveries: AtomicU64,
    replayed_records: AtomicU64,
    ingest_rows_appended: AtomicU64,
    ingest_table_copies: AtomicU64,
    plans: AtomicU64,
    plan_splits: AtomicU64,
    plan_wall_ns: AtomicU64,
    stats_settles: AtomicU64,
    checkpoint_wall_ns: AtomicU64,
    recovery_wall_ns: AtomicU64,
}

impl EngineMetrics {
    /// Notes that a query plan started executing.
    pub fn note_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one result batch delivered to a client. `bytes` is the
    /// projected payload size — delivery traffic the simulated device
    /// does not account (`range_to_vec_uncounted` drains are invisible
    /// to the cacheline ledger by design).
    pub fn note_delivery(&self, rows: u64, bytes: u64) {
        self.result_batches.fetch_add(1, Ordering::Relaxed);
        self.result_rows.fetch_add(rows, Ordering::Relaxed);
        self.result_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Folds a finished query's buffer-pool counters and host wall time
    /// into the registry.
    pub fn note_run(&self, reservations: u64, exhausted: u64, peak_bytes: u64, wall_ns: u64) {
        self.pool_reservations
            .fetch_add(reservations, Ordering::Relaxed);
        self.pool_exhausted.fetch_add(exhausted, Ordering::Relaxed);
        self.pool_peak_bytes
            .fetch_max(peak_bytes, Ordering::Relaxed);
        self.exec_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// Notes one WAL record appended (and fsynced) with its framed size.
    pub fn note_wal_append(&self, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Notes one fsync issued by a durable code path (WAL or checkpoint).
    pub fn note_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a completed crash recovery that replayed `records` WAL
    /// records past the checkpoint and took `wall_ns` of host time from
    /// reading the checkpoint to resetting the log (the fresh checkpoint
    /// it ends with included — that share is also in
    /// `checkpoint_wall_ns`).
    pub fn note_recovery(&self, records: u64, wall_ns: u64) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.replayed_records.fetch_add(records, Ordering::Relaxed);
        self.recovery_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// Notes one checkpoint written (a `CHECKPOINT` statement's or the
    /// one every open ends with) and the host wall time it took to
    /// assemble, write and fsync.
    pub fn note_checkpoint(&self, wall_ns: u64) {
        self.checkpoint_wall_ns
            .fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// Notes `tables` tables whose statistics a catalog snapshot had to
    /// settle: batches merged by `INSERT`s, derived once for the reader.
    pub fn note_stats_settles(&self, tables: u64) {
        self.stats_settles.fetch_add(tables, Ordering::Relaxed);
    }

    /// Notes an applied `INSERT` (live or replayed) of `rows` rows;
    /// `copied` when readers still held the table, so it was copied
    /// before the append instead of extended in place.
    pub fn note_ingest(&self, rows: u64, copied: bool) {
        self.ingest_rows_appended.fetch_add(rows, Ordering::Relaxed);
        self.ingest_table_copies
            .fetch_add(u64::from(copied), Ordering::Relaxed);
    }

    /// Notes one statement planned: the join splits its order search
    /// costed (a host-independent work count) and the host wall time the
    /// planner took.
    pub fn note_plan(&self, splits: u64, wall_ns: u64) {
        self.plans.fetch_add(1, Ordering::Relaxed);
        self.plan_splits.fetch_add(splits, Ordering::Relaxed);
        self.plan_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            result_rows: self.result_rows.load(Ordering::Relaxed),
            result_bytes: self.result_bytes.load(Ordering::Relaxed),
            result_batches: self.result_batches.load(Ordering::Relaxed),
            pool_reservations: self.pool_reservations.load(Ordering::Relaxed),
            pool_exhausted: self.pool_exhausted.load(Ordering::Relaxed),
            pool_peak_bytes: self.pool_peak_bytes.load(Ordering::Relaxed),
            exec_wall_ns: self.exec_wall_ns.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            ingest_rows_appended: self.ingest_rows_appended.load(Ordering::Relaxed),
            ingest_table_copies: self.ingest_table_copies.load(Ordering::Relaxed),
            plans: self.plans.load(Ordering::Relaxed),
            plan_splits: self.plan_splits.load(Ordering::Relaxed),
            plan_wall_ns: self.plan_wall_ns.load(Ordering::Relaxed),
            stats_settles: self.stats_settles.load(Ordering::Relaxed),
            checkpoint_wall_ns: self.checkpoint_wall_ns.load(Ordering::Relaxed),
            recovery_wall_ns: self.recovery_wall_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the [`EngineMetrics`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Query plans executed (EXPLAIN variants included — they run).
    pub queries: u64,
    /// Result rows delivered to clients.
    pub result_rows: u64,
    /// Result payload bytes delivered to clients.
    pub result_bytes: u64,
    /// Result batches delivered to clients.
    pub result_batches: u64,
    /// Buffer-pool reservations granted.
    pub pool_reservations: u64,
    /// Buffer-pool reservation attempts refused (memory pressure).
    pub pool_exhausted: u64,
    /// Largest buffer-pool high-water mark any query reached, in bytes.
    pub pool_peak_bytes: u64,
    /// Host wall time spent executing and draining queries.
    pub exec_wall_ns: u64,
    /// WAL records appended (each fsynced before the statement applies).
    pub wal_appends: u64,
    /// Framed WAL bytes appended.
    pub wal_bytes: u64,
    /// fsyncs issued by durable code paths (WAL appends + checkpoints).
    pub fsyncs: u64,
    /// Crash recoveries performed by `Database::reopen`.
    pub recoveries: u64,
    /// WAL records replayed past checkpoints during recoveries.
    pub replayed_records: u64,
    /// Rows `INSERT`s appended to tables (live statements and replay).
    pub ingest_rows_appended: u64,
    /// `INSERT`s that had to copy the table first because a catalog
    /// snapshot or an open result stream still read the old version.
    pub ingest_table_copies: u64,
    /// Statements planned (`SELECT` and every `EXPLAIN` variant).
    pub plans: u64,
    /// Join splits the planner's order search costed for them.
    pub plan_splits: u64,
    /// Host wall time spent in the planner.
    pub plan_wall_ns: u64,
    /// Table statistics settled for a reader: each is one derivation of
    /// histogram and heavy hitters covering every batch `INSERT`s (live
    /// or replayed) merged in since the previous one.
    pub stats_settles: u64,
    /// Host wall time spent writing checkpoints (`CHECKPOINT`
    /// statements and the one every open ends with).
    pub checkpoint_wall_ns: u64,
    /// Host wall time `Database::reopen` spent recovering: checkpoint
    /// load, WAL replay and the fresh checkpoint (whose share is also in
    /// `checkpoint_wall_ns`).
    pub recovery_wall_ns: u64,
}

impl MetricsSnapshot {
    /// The counters as `(name, value)` rows in a stable order — the
    /// `SHOW METRICS` surface golden tests diff against.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries", self.queries),
            ("result_delivery_rows", self.result_rows),
            ("result_delivery_bytes", self.result_bytes),
            ("result_delivery_batches", self.result_batches),
            ("pool_reservations", self.pool_reservations),
            ("pool_exhausted", self.pool_exhausted),
            ("pool_peak_bytes", self.pool_peak_bytes),
            ("exec_wall_ns", self.exec_wall_ns),
            ("wal_appends", self.wal_appends),
            ("wal_bytes", self.wal_bytes),
            ("fsyncs", self.fsyncs),
            ("recoveries", self.recoveries),
            ("replayed_records", self.replayed_records),
            ("ingest_rows_appended", self.ingest_rows_appended),
            ("ingest_table_copies", self.ingest_table_copies),
            ("plans", self.plans),
            ("plan_splits", self.plan_splits),
            ("plan_wall_ns", self.plan_wall_ns),
            ("stats_settles", self.stats_settles),
            ("checkpoint_wall_ns", self.checkpoint_wall_ns),
            ("recovery_wall_ns", self.recovery_wall_ns),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_peak_takes_max() {
        let m = EngineMetrics::default();
        m.note_query();
        m.note_query();
        m.note_delivery(10, 160);
        m.note_delivery(5, 80);
        m.note_run(3, 1, 4096, 1_000);
        m.note_run(2, 0, 1024, 2_000);
        m.note_wal_append(40);
        m.note_wal_append(24);
        m.note_fsync();
        m.note_recovery(7, 9_000);
        m.note_checkpoint(4_000);
        m.note_checkpoint(1_000);
        m.note_stats_settles(2);
        m.note_stats_settles(0);
        m.note_ingest(8, false);
        m.note_ingest(3, true);
        m.note_plan(3025, 1_000);
        m.note_plan(1, 500);
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.result_rows, 15);
        assert_eq!(s.result_bytes, 240);
        assert_eq!(s.result_batches, 2);
        assert_eq!(s.pool_reservations, 5);
        assert_eq!(s.pool_exhausted, 1);
        assert_eq!(s.pool_peak_bytes, 4096, "peak is a max, not a sum");
        assert_eq!(s.exec_wall_ns, 3_000);
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes, 64);
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.replayed_records, 7);
        assert_eq!(s.ingest_rows_appended, 11);
        assert_eq!(s.ingest_table_copies, 1);
        assert_eq!(s.plans, 2);
        assert_eq!(s.plan_splits, 3026);
        assert_eq!(s.plan_wall_ns, 1_500);
        assert_eq!(s.stats_settles, 2);
        assert_eq!(s.checkpoint_wall_ns, 5_000);
        assert_eq!(s.recovery_wall_ns, 9_000);
    }

    #[test]
    fn snapshot_rows_are_stable_and_complete() {
        let s = MetricsSnapshot::default();
        let names: Vec<&str> = s.rows().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "queries",
                "result_delivery_rows",
                "result_delivery_bytes",
                "result_delivery_batches",
                "pool_reservations",
                "pool_exhausted",
                "pool_peak_bytes",
                "exec_wall_ns",
                "wal_appends",
                "wal_bytes",
                "fsyncs",
                "recoveries",
                "replayed_records",
                "ingest_rows_appended",
                "ingest_table_copies",
                "plans",
                "plan_splits",
                "plan_wall_ns",
                "stats_settles",
                "checkpoint_wall_ns",
                "recovery_wall_ns",
            ]
        );
    }
}
