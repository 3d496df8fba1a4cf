//! I/O accounting: cacheline read/write counters and the simulated clock.
//!
//! The paper instruments its C++ implementation to report response time and
//! the numbers of cacheline reads and writes (§4, "Datasets and metrics").
//! We reproduce the same three metrics deterministically: the simulated
//! response time is `reads·r + writes·w + software_overhead`.
//!
//! # Sharded hot-path accounting
//!
//! Counting must not serialize the harness: if every counted access did a
//! `fetch_add` on shared atomics, partition-parallel workers would spend
//! their wall-clock ping-ponging the counter cachelines instead of
//! scaling (measured: critical-path speedups of 3.4–6.2× at DoP 4–8 with
//! wall-clock stuck at ≤ 1.0×). So the *only* hot-path bookkeeping is
//! thread-local:
//!
//! * every charge lands in the calling thread's cumulative ledger
//!   ([`thread_stats`]) — what an operator's phase ledger and its
//!   profile spans both difference, so per-task costs are neither
//!   perturbed by siblings nor perturb them — and
//! * in a per-thread, per-bank *shard* of pending deltas, which is
//!   bulk-published into the shared [`Metrics`] bank by
//!   `Bank::merge_shard` at flush points: [`flush_thread_shards`] calls
//!   at worker-pool task ends and barrier joins and bulk
//!   `append_buffer` flushes — and implicitly whenever the owning thread
//!   reads the bank ([`Metrics::snapshot`] flushes the caller's own
//!   shard first, so single-threaded observations are always exact).
//!
//! A thread's shard also flushes when the thread exits (a thread-local
//! destructor), so raw `thread::scope` users and mid-task panics never
//! lose pending counts — and a flush zeroes the shard, so counts are
//! never published twice. Cross-thread visibility relies on the same
//! happens-before edges the results themselves use (channel sends, scope
//! joins), which is why `Relaxed` atomics remain sufficient. Multi-field
//! [`Metrics::snapshot`]s are only guaranteed internally consistent while
//! no other thread is mid-operation — the executors take their
//! measurement snapshots on the coordinating thread, outside parallel
//! sections.

use crate::config::LatencyProfile;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Internal software-time resolution: picoseconds per nanosecond. Storing
/// integer picoseconds makes concurrent accumulation exact (u64 addition
/// commutes; f64 addition does not).
pub(crate) const PS_PER_NS: f64 = 1000.0;

/// A point-in-time snapshot of device counters.
///
/// Snapshots form an affine space: subtracting two snapshots yields the
/// traffic of the interval between them, which is how the harness isolates
/// the cost of a single operation from the cost of loading its inputs
/// (the paper factors data loading out of its timings).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoStats {
    /// Cachelines read from persistent memory.
    pub cl_reads: u64,
    /// Cachelines written to persistent memory.
    pub cl_writes: u64,
    /// Accumulated software overhead in nanoseconds (filesystem calls,
    /// allocator work) on top of raw medium latency.
    pub software_ns: f64,
    /// Number of I/O calls issued to persistence layers.
    pub calls: u64,
}

impl IoStats {
    /// Traffic between `earlier` and `self` (i.e., `self - earlier`).
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not actually earlier — every
    /// field is checked, so a reset (or a snapshot torn across a reset)
    /// between the two observations is caught instead of silently
    /// producing wrapped counters or negative software time.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        debug_assert!(
            self.cl_reads >= earlier.cl_reads,
            "cl_reads went backwards: {} < {}",
            self.cl_reads,
            earlier.cl_reads
        );
        debug_assert!(
            self.cl_writes >= earlier.cl_writes,
            "cl_writes went backwards: {} < {}",
            self.cl_writes,
            earlier.cl_writes
        );
        debug_assert!(
            self.software_ns >= earlier.software_ns,
            "software_ns went backwards: {} < {}",
            self.software_ns,
            earlier.software_ns
        );
        debug_assert!(
            self.calls >= earlier.calls,
            "calls went backwards: {} < {}",
            self.calls,
            earlier.calls
        );
        IoStats {
            cl_reads: self.cl_reads - earlier.cl_reads,
            cl_writes: self.cl_writes - earlier.cl_writes,
            software_ns: self.software_ns - earlier.software_ns,
            calls: self.calls - earlier.calls,
        }
    }

    /// Component-wise sum (used to reconcile per-worker ledgers against
    /// the device totals).
    #[must_use]
    pub fn plus(&self, other: &IoStats) -> IoStats {
        IoStats {
            cl_reads: self.cl_reads + other.cl_reads,
            cl_writes: self.cl_writes + other.cl_writes,
            software_ns: self.software_ns + other.software_ns,
            calls: self.calls + other.calls,
        }
    }

    /// Simulated elapsed time in nanoseconds under `latency`.
    pub fn time_ns(&self, latency: &LatencyProfile) -> f64 {
        self.cl_reads as f64 * latency.read_ns
            + self.cl_writes as f64 * latency.write_ns
            + self.software_ns
    }

    /// Simulated elapsed time in seconds under `latency`.
    pub fn time_secs(&self, latency: &LatencyProfile) -> f64 {
        self.time_ns(latency) / 1e9
    }

    /// Abstract cost in read units: `reads + λ·writes` (the paper's cost
    /// expressions are all stated in multiples of `r`).
    pub fn cost_units(&self, lambda: f64) -> f64 {
        self.cl_reads as f64 + lambda * self.cl_writes as f64
    }
}

/// Traffic in raw integer units (picoseconds for software time) — what
/// the thread ledgers and the shards accumulate, so every sum is exact
/// under any order and any grouping of the charges. Converted to an
/// [`IoStats`] only when observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RawStats {
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) software_ps: u64,
    pub(crate) calls: u64,
}

impl RawStats {
    pub(crate) const ZERO: RawStats = RawStats {
        reads: 0,
        writes: 0,
        software_ps: 0,
        calls: 0,
    };

    pub(crate) fn add(&mut self, other: &RawStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.software_ps += other.software_ps;
        self.calls += other.calls;
    }

    fn from_io(stats: &IoStats) -> RawStats {
        RawStats {
            reads: stats.cl_reads,
            writes: stats.cl_writes,
            software_ps: (stats.software_ns * PS_PER_NS).round() as u64,
            calls: stats.calls,
        }
    }

    fn to_io(self) -> IoStats {
        IoStats {
            cl_reads: self.reads,
            cl_writes: self.writes,
            software_ns: self.software_ps as f64 / PS_PER_NS,
            calls: self.calls,
        }
    }
}

thread_local! {
    /// Per-thread mirror of everything the current thread has charged to
    /// any [`Metrics`] bank.
    static LEDGER: Cell<RawStats> = const { Cell::new(RawStats::ZERO) };
}

#[inline]
fn ledger_update(f: impl FnOnce(&mut RawStats)) {
    let _ = LEDGER.try_with(|l| {
        let mut v = l.get();
        f(&mut v);
        l.set(v);
    });
}

/// Cumulative traffic charged *by the calling thread* since it started,
/// across all devices. Monotonic and never reset; take two observations
/// and [`IoStats::since`] them to cost a code region. This is the
/// per-worker ledger the parallel executor uses: unlike a device
/// snapshot, it is unaffected by concurrent siblings, so per-partition
/// cost deltas stay deterministic at any degree of parallelism.
pub fn thread_stats() -> IoStats {
    LEDGER.with(Cell::get).to_io()
}

thread_local! {
    static ADOPTED: Cell<RawStats> = const { Cell::new(RawStats::ZERO) };
}

/// Credits `stats` — traffic charged by *another* thread on this thread's
/// behalf (a completed worker task whose results this thread consumed) —
/// to the calling thread's adopted ledger, so [`thread_flow`] accounts
/// for delegated work. Adopted amounts are kept in the same raw integer
/// units as the ledger itself, so adoption round-trips exactly.
pub fn adopt(stats: &IoStats) {
    ADOPTED.with(|l| {
        let mut v = l.get();
        v.add(&RawStats::from_io(stats));
        l.set(v);
    });
}

/// [`thread_stats`] plus everything this thread has [`adopt`]ed from
/// workers: the total traffic this thread is *responsible* for. Like the
/// ledger it is monotonic and never reset, so flow deltas around a code
/// region cost that region inclusive of any parallel fan-out it consumed
/// — which is exactly the quantity profiling spans report.
pub fn thread_flow() -> IoStats {
    let mut flow = LEDGER.with(Cell::get);
    flow.add(&ADOPTED.with(Cell::get));
    flow.to_io()
}

/// Source of unique bank identities. Weak handles alone cannot key the
/// shard registry: an `Arc<Bank>` address can be reused by a later
/// allocation, so shards match on an id that is never reused.
static NEXT_BANK_ID: AtomicU64 = AtomicU64::new(1);

/// The shared counter core of a [`Metrics`] bank. Threads never touch
/// these atomics per access; [`Bank::merge_shard`] publishes a thread
/// shard's pending deltas in bulk at flush points.
#[derive(Debug)]
struct Bank {
    id: u64,
    cl_reads: AtomicU64,
    cl_writes: AtomicU64,
    software_ps: AtomicU64,
    calls: AtomicU64,
}

impl Bank {
    fn new() -> Self {
        Bank {
            id: NEXT_BANK_ID.fetch_add(1, Ordering::Relaxed),
            cl_reads: AtomicU64::new(0),
            cl_writes: AtomicU64::new(0),
            software_ps: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Bulk-publishes one thread shard into the shared counters: a
    /// handful of `fetch_add`s per flush, regardless of how many accesses
    /// the shard buffered. This is the only place pending deltas enter
    /// the bank (the `ledger-only` wl-audit rule pins callers to this
    /// file).
    fn merge_shard(&self, total: &RawStats) {
        if total.reads != 0 {
            self.cl_reads.fetch_add(total.reads, Ordering::Relaxed);
        }
        if total.writes != 0 {
            self.cl_writes.fetch_add(total.writes, Ordering::Relaxed);
        }
        if total.software_ps != 0 {
            self.software_ps
                .fetch_add(total.software_ps, Ordering::Relaxed);
        }
        if total.calls != 0 {
            self.calls.fetch_add(total.calls, Ordering::Relaxed);
        }
    }
}

/// A thread's pending shard for one bank: its not-yet-published deltas,
/// in raw integer units, so neither the order shards merge in nor how
/// charges were grouped can show in a total. The bank is held weakly so
/// a dropped device never keeps thread state alive (and a dead bank's
/// pending deltas are discarded at the next flush).
#[derive(Debug)]
struct Shard {
    bank_id: u64,
    bank: Weak<Bank>,
    delta: RawStats,
}

/// Every shard the current thread has pending. Dropping the registry —
/// the thread-local destructor, running at thread exit even on panic —
/// flushes everything, so raw-thread callers and mid-task panics never
/// lose counts.
#[derive(Debug, Default)]
struct ShardRegistry {
    shards: Vec<Shard>,
}

impl ShardRegistry {
    fn flush_all(&mut self) {
        for s in &mut self.shards {
            if let Some(bank) = s.bank.upgrade() {
                bank.merge_shard(&s.delta);
            }
        }
        // Zeroing by clearing: a published delta must never merge twice.
        self.shards.clear();
    }
}

impl Drop for ShardRegistry {
    fn drop(&mut self) {
        self.flush_all();
    }
}

thread_local! {
    static SHARDS: RefCell<ShardRegistry> = RefCell::new(ShardRegistry::default());
}

/// Buffers a delta in the calling thread's shard for `bank`. If the
/// thread-local registry is already destroyed (a charge from inside
/// another thread-local's destructor), publishes directly — correctness
/// over buffering on that cold path.
#[inline]
fn buffer_in_shard(bank: &Arc<Bank>, f: impl FnOnce(&mut RawStats)) {
    let mut f = Some(f);
    let buffered = SHARDS.try_with(|reg| {
        let reg = &mut *reg.borrow_mut();
        let idx = reg.shards.iter().position(|s| s.bank_id == bank.id);
        let slot = match idx {
            Some(i) => &mut reg.shards[i],
            None => {
                reg.shards.push(Shard {
                    bank_id: bank.id,
                    bank: Arc::downgrade(bank),
                    delta: RawStats::ZERO,
                });
                reg.shards.last_mut().expect("just pushed")
            }
        };
        (f.take().expect("applied once"))(&mut slot.delta);
    });
    if buffered.is_err() {
        if let Some(f) = f.take() {
            let mut delta = RawStats::ZERO;
            f(&mut delta);
            bank.merge_shard(&delta);
        }
    }
}

/// Publishes every pending shard of the calling thread into its bank and
/// zeroes the shards. The worker pool calls this at task ends and
/// barrier joins; `PCollection::append_buffer` and the exec operators
/// call it at their flush/span boundaries; bank reads flush implicitly.
/// Safe (and cheap — a no-op on empty shards) to call anywhere.
pub fn flush_thread_shards() {
    let _ = SHARDS.try_with(|reg| reg.borrow_mut().flush_all());
}

/// Interior-mutable counter bank shared by every collection of a device.
///
/// The bank is `Send + Sync`; charges buffer in per-thread shards and
/// publish at flush points (see the module docs), so totals are exact
/// under any interleaving once the charging threads have flushed —
/// thread exit, [`flush_thread_shards`], and same-thread reads all
/// flush.
#[derive(Debug)]
pub struct Metrics {
    bank: Arc<Bank>,
    paused: AtomicBool,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Suspends accounting on a [`Metrics`] bank for its lifetime.
///
/// Used by test/harness facilities (e.g., draining a collection to verify
/// its contents) that must not perturb the measured experiment. The pause
/// flag is device-global: pausing while parallel workers are mid-flight
/// would suppress their accounting too, so pauses belong on the
/// coordinating thread only.
#[derive(Debug)]
pub struct PauseGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.metrics.paused.store(false, Ordering::Relaxed);
    }
}

impl Metrics {
    /// Creates a zeroed counter bank.
    pub fn new() -> Self {
        Metrics {
            bank: Arc::new(Bank::new()),
            paused: AtomicBool::new(false),
        }
    }

    /// Suspends accounting until the returned guard is dropped.
    ///
    /// # Panics
    /// Panics if accounting is already paused (pauses do not nest; a nested
    /// pause would silently re-enable accounting too early).
    pub fn pause(&self) -> PauseGuard<'_> {
        assert!(
            !self.paused.swap(true, Ordering::Relaxed),
            "metrics already paused"
        );
        PauseGuard { metrics: self }
    }

    /// Records `n` cacheline reads (thread-locally; published at the next
    /// flush point — no shared atomics on this path).
    #[inline]
    pub fn add_reads(&self, n: u64) {
        if !self.paused.load(Ordering::Relaxed) {
            ledger_update(|l| l.reads += n);
            buffer_in_shard(&self.bank, |d| d.reads += n);
        }
    }

    /// Records `n` cacheline writes (thread-locally; published at the
    /// next flush point).
    #[inline]
    pub fn add_writes(&self, n: u64) {
        if !self.paused.load(Ordering::Relaxed) {
            ledger_update(|l| l.writes += n);
            buffer_in_shard(&self.bank, |d| d.writes += n);
        }
    }

    /// Records one charge a persistence layer computed with its
    /// [`crate::charge::ChargeRule`]: traffic, layer calls and their
    /// software time, in the bank's integer units. A call costs a whole
    /// number of picoseconds, so the software time of `n` calls is the
    /// same however the calls are grouped into charges — a scan charged
    /// a run at a time, a bulk append and their record-at-a-time twins
    /// all sum to the same picosecond. A zero charge touches nothing.
    #[inline]
    pub(crate) fn add_charge(&self, charge: RawStats) {
        if charge != RawStats::ZERO && !self.paused.load(Ordering::Relaxed) {
            ledger_update(|l| l.add(&charge));
            buffer_in_shard(&self.bank, |d| d.add(&charge));
        }
    }

    /// Current counter values. Flushes the calling thread's own pending
    /// shards first, so a thread always observes its own charges;
    /// other threads' charges appear once they reach a flush point.
    pub fn snapshot(&self) -> IoStats {
        flush_thread_shards();
        IoStats {
            cl_reads: self.bank.cl_reads.load(Ordering::Relaxed),
            cl_writes: self.bank.cl_writes.load(Ordering::Relaxed),
            software_ns: self.bank.software_ps.load(Ordering::Relaxed) as f64 / PS_PER_NS,
            calls: self.bank.calls.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero, discarding the calling thread's
    /// pending shard for this bank. Thread-local ledgers are cumulative
    /// and unaffected. Like snapshots, resets belong on the coordinating
    /// thread outside parallel sections.
    pub fn reset(&self) {
        let _ = SHARDS.try_with(|reg| {
            reg.borrow_mut()
                .shards
                .retain(|s| s.bank_id != self.bank.id);
        });
        self.bank.cl_reads.store(0, Ordering::Relaxed);
        self.bank.cl_writes.store(0, Ordering::Relaxed);
        self.bank.software_ps.store(0, Ordering::Relaxed);
        self.bank.calls.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let m = Metrics::new();
        m.add_reads(3);
        m.add_writes(2);
        m.add_charge(RawStats {
            calls: 1,
            software_ps: 5_000,
            ..RawStats::ZERO
        });
        let s = m.snapshot();
        assert_eq!(s.cl_reads, 3);
        assert_eq!(s.cl_writes, 2);
        assert_eq!(s.software_ns, 5.0);
        assert_eq!(s.calls, 1);
    }

    #[test]
    fn since_computes_interval_traffic() {
        let m = Metrics::new();
        m.add_reads(10);
        let before = m.snapshot();
        m.add_reads(5);
        m.add_writes(7);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.cl_reads, 5);
        assert_eq!(delta.cl_writes, 7);
    }

    #[test]
    fn time_matches_latency_profile() {
        let s = IoStats {
            cl_reads: 100,
            cl_writes: 10,
            software_ns: 50.0,
            calls: 0,
        };
        let t = s.time_ns(&LatencyProfile::PCM);
        assert!((t - (100.0 * 10.0 + 10.0 * 150.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn cost_units_weight_writes_by_lambda() {
        let s = IoStats {
            cl_reads: 4,
            cl_writes: 2,
            ..Default::default()
        };
        assert!((s.cost_units(15.0) - 34.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.add_reads(1);
        m.add_writes(1);
        m.reset();
        assert_eq!(m.snapshot(), IoStats::default());
    }

    #[test]
    fn reset_discards_this_threads_pending_shard() {
        let m = Metrics::new();
        m.add_reads(9); // pending, unflushed
        m.reset();
        // The pending 9 reads must not resurface at the next flush.
        assert_eq!(m.snapshot(), IoStats::default());
        m.add_reads(2);
        assert_eq!(m.snapshot().cl_reads, 2);
    }

    #[test]
    fn metrics_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
        assert_send_sync::<IoStats>();
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        // Raw spawn + join so the thread-exit shard flush is visible
        // (scope's implicit join does not wait for TLS destructors).
        let m = std::sync::Arc::new(Metrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.add_reads(1);
                        m.add_writes(2);
                        m.add_charge(RawStats {
                            calls: 1,
                            software_ps: 500,
                            ..RawStats::ZERO
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker ok");
        }
        let s = m.snapshot();
        assert_eq!(s.cl_reads, 40_000);
        assert_eq!(s.cl_writes, 80_000);
        assert_eq!(s.calls, 40_000);
        assert!((s.software_ns - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn thread_ledger_mirrors_this_threads_traffic_only() {
        let m = Metrics::new();
        let before = thread_stats();
        m.add_reads(7);
        m.add_writes(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                // A sibling's traffic must not appear in our ledger.
                m.add_reads(1000);
                let own = thread_stats();
                assert!(own.cl_reads >= 1000);
                // Publish before the scope joins (the implicit join does
                // not wait for the thread-exit TLS flush).
                flush_thread_shards();
            });
        });
        let delta = thread_stats().since(&before);
        assert_eq!(delta.cl_reads, 7);
        assert_eq!(delta.cl_writes, 3);
        assert_eq!(m.snapshot().cl_reads, 1007);
    }

    #[test]
    fn explicit_flush_publishes_without_a_bank_read() {
        // A worker flushes mid-life (no snapshot, no exit); the
        // coordinator must observe its counts.
        let m = std::sync::Arc::new(Metrics::new());
        let (flushed_tx, flushed_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                m.add_reads(41);
                flush_thread_shards();
                flushed_tx.send(()).expect("receiver alive");
                // Stay alive until the coordinator has looked, so the
                // observation cannot be satisfied by the exit flush.
                done_rx.recv().expect("sender alive");
            })
        };
        flushed_rx.recv().expect("worker flushed");
        assert_eq!(m.snapshot().cl_reads, 41);
        done_tx.send(()).expect("worker alive");
        worker.join().expect("worker exits cleanly");
    }

    #[test]
    fn flush_is_idempotent_and_never_double_merges() {
        let m = Metrics::new();
        m.add_writes(6);
        flush_thread_shards();
        flush_thread_shards();
        assert_eq!(m.snapshot().cl_writes, 6);
        // And a snapshot-triggered flush after an explicit one is also
        // publish-once.
        assert_eq!(m.snapshot().cl_writes, 6);
    }

    #[test]
    fn panicking_thread_publishes_its_shard_exactly_once() {
        let m = std::sync::Arc::new(Metrics::new());
        let handle = {
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                m.add_reads(7);
                panic!("mid-task failure");
            })
        };
        assert!(handle.join().is_err(), "the thread must have panicked");
        // The thread-local destructor flushed the shard on unwind: the
        // partial traffic is published once, not lost, not doubled.
        assert_eq!(m.snapshot().cl_reads, 7);
        assert_eq!(m.snapshot().cl_reads, 7);
    }

    #[test]
    fn paused_accounting_skips_ledger_too() {
        let m = Metrics::new();
        let before = thread_stats();
        {
            let _p = m.pause();
            m.add_reads(5);
        }
        assert_eq!(thread_stats().since(&before).cl_reads, 0);
    }

    #[test]
    fn adopted_traffic_flows_but_stays_out_of_thread_stats() {
        let m = Metrics::new();
        let own0 = thread_stats();
        let flow0 = thread_flow();
        m.add_reads(2);
        adopt(&IoStats {
            cl_reads: 10,
            cl_writes: 4,
            software_ns: 1.5,
            calls: 3,
        });
        let own = thread_stats().since(&own0);
        assert_eq!(own.cl_reads, 2);
        assert_eq!(own.cl_writes, 0);
        let flow = thread_flow().since(&flow0);
        assert_eq!(flow.cl_reads, 12);
        assert_eq!(flow.cl_writes, 4);
        assert_eq!(flow.calls, 3);
        assert!((flow.software_ns - 1.5).abs() < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "went backwards")]
    fn since_rejects_non_monotonic_software_time() {
        let later = IoStats {
            software_ns: 1.0,
            ..Default::default()
        };
        let earlier = IoStats {
            software_ns: 2.0,
            ..Default::default()
        };
        let _ = later.since(&earlier);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "calls went backwards")]
    fn since_rejects_non_monotonic_calls() {
        let later = IoStats::default();
        let earlier = IoStats {
            calls: 3,
            ..Default::default()
        };
        let _ = later.since(&earlier);
    }
}
