//! Scoped-thread worker pool for partition-parallel execution.
//!
//! The paper's partitioned algorithms (Grace/segmented joins, the
//! external-merge fan-ins, hybrid join's spilled partitions) do
//! independent per-partition work that the reference implementation runs
//! strictly serially. This module supplies the execution substrate that
//! lets them fan out over `std::thread::scope` — no extra dependencies —
//! while keeping the *simulated* cost model intact:
//!
//! * the device counters are sharded ([`pmem_sim::Metrics`] buffers
//!   per-thread and bulk-merges at flush points), and this pool is where
//!   the flush points live: each task publishes its shard before its
//!   result ships, and the pool flushes again at the join barrier — so
//!   totals are exact at every point the coordinator can observe them,
//!   without a shared atomic RMW per counted access;
//! * each task's own traffic is measured through the per-thread ledger
//!   ([`pmem_sim::thread_stats`]), so per-partition cost deltas are
//!   deterministic at any degree of parallelism; and
//! * results are consumed **in task-index order** on the calling thread,
//!   so anything the caller serializes (output flushes, runtime-rule
//!   bookkeeping) happens in exactly the order the serial executor used.
//!
//! Simulated time is traffic-derived and therefore unchanged by
//! parallelism; what the pool buys is wall-clock scaling of the harness
//! itself.
//!
//! One call records a phase: every operator fans out through `fan_out`
//! and runs a serial step through `measured`, each under a [`Label`].
//! Both return the [`Phase`] an operator's ledger ([`Phases`]) is made
//! of, and under an armed profile both open the span of that label —
//! `fan_out`'s with a `task-i` leaf per task, `measured`'s with none.

use crate::context::ExecContext;
use pmem_sim::metrics::{adopt, thread_flow};
use pmem_sim::{span, thread_stats, IoStats};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

/// Environment variable holding the default degree of parallelism.
pub const THREADS_ENV: &str = "WL_THREADS";

/// The one knob-precedence rule for the degree of parallelism, shared by
/// every context, operator, and binary:
///
/// 1. an explicit setting (`with_threads`, the database builder's
///    `threads`, a session's `SET threads`, `wlsql --threads`),
/// 2. the `WL_THREADS` environment variable,
/// 3. serial (1), matching the paper's single-threaded implementation.
///
/// Zero and unparsable values are treated as unset at every level.
/// `resolve_threads(None)` is the default every context starts from.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or(1)
}

/// One task's result plus the traffic its worker charged while running
/// it (taken from the worker's thread-local flow ledger, so concurrent
/// siblings cannot perturb it and nested fan-out the task consumed is
/// included).
#[derive(Debug)]
struct TaskOutput<T> {
    /// The task's return value.
    value: T,
    /// Cacheline traffic the task charged to the device.
    stats: IoStats,
    /// Host wall-clock duration of the task in nanoseconds.
    wall_ns: u64,
    /// Profiler id of the thread that ran the task.
    thread: u64,
}

impl<T> TaskOutput<T> {
    /// Runs task `i` on the calling thread and measures it.
    fn run(task: &impl Fn(usize) -> T, i: usize) -> Self {
        let before = thread_flow();
        let t0 = Instant::now();
        let value = task(i);
        TaskOutput {
            value,
            stats: thread_flow().since(&before),
            wall_ns: t0.elapsed().as_nanos() as u64,
            thread: span::thread_id(),
        }
    }

    /// Attaches task `i`'s leaf to the innermost open span (a no-op
    /// unless a profile is armed).
    fn attach(&self, i: usize) {
        if span::profiling() {
            span::attach_task(format!("task-{i}"), self.thread, self.wall_ns, self.stats);
        }
    }
}

/// How many tasks may be in flight (running or completed but not yet
/// consumed) beyond the next index the coordinator is waiting for, per
/// worker. Bounds the DRAM held in unconsumed task outputs when one
/// slow task (a skewed partition) stalls the in-order consumption.
const BACKPRESSURE_WINDOW_PER_WORKER: usize = 2;

/// Runs `n_tasks` independent tasks with up to `threads` workers and
/// hands each result to `consume` **in task-index order** on the calling
/// thread.
///
/// With `threads <= 1` (or a single task) everything runs inline on the
/// caller — byte-for-byte the serial execution. Otherwise workers pull
/// task indices from a shared counter and stream results back; the
/// caller re-orders them, so `consume(0)` … `consume(n-1)` always fire
/// in order even though tasks complete out of order. Workers stay within
/// a bounded window ahead of the consumption point, so unconsumed
/// outputs cannot pile up behind one slow task. Worker panics propagate
/// to the caller when the scope joins. Under an armed profile each task
/// attaches a `task-i` leaf to the innermost open span.
fn for_each_ordered<T, F, C>(threads: usize, n_tasks: usize, task: F, mut consume: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(TaskOutput<T>),
{
    if n_tasks == 0 {
        return;
    }
    let workers = threads.min(n_tasks);
    if workers <= 1 {
        for i in 0..n_tasks {
            let out = TaskOutput::run(&task, i);
            // Inline tasks ran on the coordinator, so their traffic is
            // already in its ledger — attach the leaf, adopt nothing.
            out.attach(i);
            consume(out);
        }
        pmem_sim::flush_thread_accounting();
        pmem_sim::audit::flush_barrier();
        return;
    }

    let window = workers * BACKPRESSURE_WINDOW_PER_WORKER;
    let next = AtomicUsize::new(0);
    // Consumption watermark: tasks with index >= watermark + window wait
    // until the coordinator catches up. The task the coordinator is
    // blocked on is always below the bound, so progress is guaranteed.
    let progress = (Mutex::new(0usize), Condvar::new());
    // Sticky panic flag: once a task unwinds, parked workers stop
    // waiting (the stalled watermark would never advance past the lost
    // task), the pool drains, and the scope join re-raises the panic.
    let aborted = std::sync::atomic::AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, TaskOutput<T>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let task = &task;
            let progress = &progress;
            let aborted = &aborted;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                {
                    let (lock, cvar) = progress;
                    let mut consumed = lock.lock().expect("progress lock poisoned");
                    while !aborted.load(Ordering::Relaxed) && i >= consumed.saturating_add(window) {
                        consumed = cvar.wait(consumed).expect("progress lock poisoned");
                    }
                }
                let release = ReleaseOnPanic { progress, aborted };
                let out = TaskOutput::run(task, i);
                std::mem::forget(release);
                // Publish this task's pending accounting before the
                // result ships: the channel send orders the merge before
                // the coordinator consumes the task, so snapshots taken
                // after consumption always cover it.
                pmem_sim::flush_thread_accounting();
                if tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // Re-order completions so the caller observes task-index order.
        let mut pending: Vec<Option<TaskOutput<T>>> = (0..n_tasks).map(|_| None).collect();
        let mut next_out = 0usize;
        while next_out < n_tasks {
            match rx.recv() {
                Ok((i, out)) => {
                    pending[i] = Some(out);
                    while next_out < n_tasks {
                        match pending[next_out].take() {
                            Some(out) => {
                                // The task ran on a worker: credit its
                                // traffic to the coordinator's flow
                                // ledger so enclosing spans (and nested
                                // pools run from within a task) account
                                // for the delegated work.
                                adopt(&out.stats);
                                out.attach(next_out);
                                consume(out);
                                next_out += 1;
                            }
                            None => break,
                        }
                    }
                    let (lock, cvar) = &progress;
                    *lock.lock().expect("progress lock poisoned") = next_out;
                    cvar.notify_all();
                }
                // All senders gone with tasks missing: a worker panicked;
                // the scope join below re-raises it.
                Err(_) => break,
            }
        }
    });
    // Publish anything the consume callbacks buffered on the coordinator
    // (output flushes land here), then mark the race-auditor barrier: the
    // join ordered every worker write before whatever the next phase
    // writes.
    pmem_sim::flush_thread_accounting();
    pmem_sim::audit::flush_barrier();
}

/// Drop guard armed around a task invocation: runs only when the task
/// unwinds (the success path `mem::forget`s it), setting the sticky
/// abort flag and waking parked siblings so the pool drains and the
/// scope join can propagate the panic.
struct ReleaseOnPanic<'a> {
    progress: &'a (Mutex<usize>, Condvar),
    aborted: &'a std::sync::atomic::AtomicBool,
}

impl Drop for ReleaseOnPanic<'_> {
    fn drop(&mut self) {
        // Publish the failed task's partial accounting while still on the
        // worker thread: the scope join happens-after this, so the
        // coordinator observes the partial traffic exactly once (never
        // lost to the unwind, never double-merged by the exit flush —
        // flushing zeroes the shard).
        pmem_sim::flush_thread_accounting();
        self.aborted.store(true, Ordering::Relaxed);
        let (lock, cvar) = self.progress;
        // Take the lock so no waiter can re-park between its flag check
        // and its wait; ignore poisoning — we are already unwinding.
        drop(lock.lock());
        cvar.notify_all();
    }
}

/// What a phase of a sort or join does: the closed set of names its
/// ledger and its profile spans carry, with a pass index as data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Run generation: replacement selection into sorted runs.
    RunGen,
    /// Selection passes that emit the sorted output (SelS, LaS).
    Select,
    /// Merge pass `k`, counted from 0; the last is the final pass.
    Merge(usize),
    /// The key-range cuts a range-partitioned pass splits at.
    Cuts,
    /// CGJ's frequency scans of both inputs.
    HeavyHitters,
    /// A routed partition scan of one input.
    Partition,
    /// Independent tasks, each building a table and probing it.
    BuildProbe,
    /// One input's scan in pass `p` of an iterative hash join.
    Pass(usize),
    /// The deferred-σ pass that writes the view as it scans.
    Materialize,
    /// SMJ's merge co-scan of its two sorted inputs.
    CoScan,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::RunGen => f.write_str("run-gen"),
            Label::Select => f.write_str("select"),
            Label::Merge(k) => write!(f, "merge {k}"),
            Label::Cuts => f.write_str("cuts"),
            Label::HeavyHitters => f.write_str("heavy-hitters"),
            Label::Partition => f.write_str("partition"),
            Label::BuildProbe => f.write_str("build-probe"),
            Label::Pass(p) => write!(f, "pass {p}"),
            Label::Materialize => f.write_str("materialize"),
            Label::CoScan => f.write_str("co-scan"),
        }
    }
}

/// One phase of an operator: what it does and the traffic of each of its
/// independent tasks (a serial step is a phase of one task).
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// What the phase does.
    pub label: Label,
    /// Each task's traffic, in task order.
    pub tasks: Vec<IoStats>,
}

/// An operator's phase ledger: its phases in execution order, together
/// the operator's whole device delta.
pub type Phases = Vec<Phase>;

/// Runs `f` as the serial phase `label` and returns its result beside
/// the phase: one task, the traffic `f` charged (fan-out it consumed
/// included).
pub(crate) fn measured<T>(label: Label, f: impl FnOnce() -> T) -> (T, Phase) {
    let _span = span::span_with(|| label.to_string());
    let before = thread_flow();
    let value = f();
    let tasks = vec![thread_flow().since(&before)];
    (value, Phase { label, tasks })
}

/// The one fan-out every operator runs its parallel phases through:
/// `tasks` tasks across the worker pool as the phase `label`, their
/// results `land`ed on the calling thread in task order. Each task's
/// ledger is its own traffic plus its landing's — serialized here for
/// count determinism, but traffic that belongs to the task (a medium
/// serving DoP workers would land each task's output from its own
/// worker).
pub(crate) fn fan_out<T: Send>(
    ctx: &ExecContext<'_>,
    label: Label,
    tasks: usize,
    task: impl Fn(usize) -> T + Sync,
    mut land: impl FnMut(T),
) -> Phase {
    let _span = span::span_with(|| label.to_string());
    let mut ledger = Vec::with_capacity(tasks);
    for_each_ordered(ctx.threads(), tasks, task, |task| {
        let before = thread_stats();
        land(task.value);
        ledger.push(task.stats.plus(&thread_stats().since(&before)));
    });
    Phase {
        label,
        tasks: ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};

    /// Every task's value, in task-index order.
    fn map_ordered<T: Send>(
        threads: usize,
        n_tasks: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(n_tasks);
        for_each_ordered(threads, n_tasks, task, |r| out.push(r.value));
        out
    }

    #[test]
    fn results_arrive_in_index_order_at_any_dop() {
        for threads in [1, 2, 3, 8] {
            let squares = map_ordered(threads, 20, |i| i * i);
            assert_eq!(squares, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn per_task_ledgers_sum_to_the_device_delta() {
        let dev = PmDevice::paper_default();
        let cols: Vec<PCollection<u64>> = (0..8)
            .map(|i| {
                PCollection::from_records_uncounted(
                    &dev,
                    LayerKind::BlockedMemory,
                    format!("c{i}"),
                    (0..500u64).map(|j| j * (i + 1)),
                )
            })
            .collect();
        let before = dev.snapshot();
        let mut ledgers = Vec::new();
        for_each_ordered(
            4,
            cols.len(),
            |i| cols[i].reader().sum::<u64>(),
            |out| ledgers.push(out.stats),
        );
        let delta = dev.snapshot().since(&before);
        let total = ledgers
            .iter()
            .fold(pmem_sim::IoStats::default(), |acc, s| acc.plus(s));
        assert_eq!(total, delta);
        assert!(ledgers.iter().all(|s| s.cl_reads > 0));
    }

    #[test]
    fn serial_and_parallel_charge_identical_traffic() {
        let run = |threads: usize| {
            let dev = PmDevice::paper_default();
            let cols: Vec<PCollection<u64>> = (0..6)
                .map(|i| {
                    PCollection::from_records_uncounted(
                        &dev,
                        LayerKind::Pmfs,
                        format!("c{i}"),
                        0..1000u64,
                    )
                })
                .collect();
            let before = dev.snapshot();
            let sums = map_ordered(threads, cols.len(), |i| cols[i].reader().sum::<u64>());
            (sums, dev.snapshot().since(&before))
        };
        let (s1, d1) = run(1);
        let (s4, d4) = run(4);
        assert_eq!(s1, s4);
        assert_eq!(d1, d4);
    }

    #[test]
    fn degree_from_env_defaults_to_serial() {
        // The variable is unset in the test environment unless the CI
        // matrix sets it; accept either but require a positive degree.
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn explicit_threads_outrank_every_default() {
        // Per-call explicit beats everything, including whatever
        // WL_THREADS the test run was given.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), resolve_threads(None));
    }

    #[test]
    fn task_outputs_carry_wall_and_thread_at_any_dop() {
        for threads in [1, 4] {
            let mut threads_seen = std::collections::HashSet::new();
            for_each_ordered(
                threads,
                6,
                |i| i,
                |out| {
                    threads_seen.insert(out.thread);
                },
            );
            assert!(!threads_seen.is_empty());
            assert!(threads_seen.len() <= threads);
        }
    }

    #[test]
    fn coordinator_flow_adopts_parallel_task_traffic() {
        let dev = PmDevice::paper_default();
        let cols: Vec<PCollection<u64>> = (0..8)
            .map(|i| {
                PCollection::from_records_uncounted(
                    &dev,
                    LayerKind::BlockedMemory,
                    format!("c{i}"),
                    0..400u64,
                )
            })
            .collect();
        let before_dev = dev.snapshot();
        let before_flow = pmem_sim::thread_flow();
        let sums = map_ordered(4, cols.len(), |i| cols[i].reader().sum::<u64>());
        assert_eq!(sums.len(), cols.len());
        let dev_delta = dev.snapshot().since(&before_dev);
        let flow_delta = pmem_sim::thread_flow().since(&before_flow);
        // All traffic happened on workers, but the coordinator adopted it
        // at consumption time, so its flow ledger covers the device delta.
        assert_eq!(flow_delta.cl_reads, dev_delta.cl_reads);
        assert_eq!(flow_delta.cl_writes, dev_delta.cl_writes);
        assert_eq!(flow_delta.calls, dev_delta.calls);
    }

    #[test]
    fn pool_profiles_have_identical_counters_at_any_dop() {
        let profile = |threads: usize| {
            let dev = PmDevice::paper_default();
            let cols: Vec<PCollection<u64>> = (0..5)
                .map(|i| {
                    PCollection::from_records_uncounted(
                        &dev,
                        LayerKind::BlockedMemory,
                        format!("c{i}"),
                        0..300u64,
                    )
                })
                .collect();
            let pool = BufferPool::new(1 << 16);
            let ctx = ExecContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            pmem_sim::span::begin_profile("pool");
            let scan = |i: usize| cols[i].reader().sum::<u64>();
            let phase = fan_out(&ctx, Label::Partition, cols.len(), scan, |_| {});
            let tree = pmem_sim::span::end_profile().expect("profile recorded");
            (tree, phase)
        };
        let (p1, phase1) = profile(1);
        let (p4, phase4) = profile(4);
        p1.validate().expect("serial tree sums");
        p4.validate().expect("parallel tree sums");
        assert_eq!(phase1, phase4);
        for p in [&p1, &p4] {
            assert_eq!(p.task_count(), 5);
            let span = p.find("partition").expect("phase span");
            assert_eq!(span.children.len(), 5, "a leaf per task");
            assert_eq!(
                (span.io.cl_reads, span.io.cl_writes, span.io.calls),
                (p1.io.cl_reads, p1.io.cl_writes, p1.io.calls),
            );
        }
    }

    #[test]
    fn serial_phases_open_a_span_without_task_leaves() {
        let dev = PmDevice::paper_default();
        let col =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "c", 0..300u64);
        pmem_sim::span::begin_profile("serial");
        let (_, phase) = measured(Label::Merge(2), || col.reader().sum::<u64>());
        let tree = pmem_sim::span::end_profile().expect("profile recorded");
        let span = tree.find("merge 2").expect("phase span");
        assert!(span.children.is_empty());
        assert_eq!(phase.tasks, vec![span.io]);
    }

    #[test]
    fn mid_task_panic_publishes_partial_accounting_exactly_once() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use wisconsin::Record;

        let dev = PmDevice::paper_default();
        let coll = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "P",
            (0..64).map(wisconsin::WisconsinRecord::from_key),
        );
        let scan = || coll.reader().map(|r| r.key()).sum::<u64>();

        // The cost of one full counted scan, measured serially.
        let before = dev.snapshot();
        scan();
        let one = dev.snapshot().since(&before);
        assert!(one.cl_reads > 0, "the scan is counted");

        // Two tasks across two workers; the second panics after charging a
        // full scan. Workers pull task indices unconditionally, so both
        // tasks always execute and the surviving total is deterministic:
        // exactly two scans — the panicking task's partial ledger included
        // (published by the worker's unwind), never lost or double-merged.
        let before = dev.snapshot();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_ordered(
                2,
                2,
                |i| {
                    scan();
                    if i == 1 {
                        panic!("injected mid-task failure");
                    }
                    i
                },
                |_| {},
            );
        }));
        assert!(caught.is_err(), "the worker panic propagates at the join");
        let after = dev.snapshot().since(&before);
        assert_eq!(
            after,
            one.plus(&one),
            "partial ledger published exactly once"
        );
        // Re-reading the bank must not merge anything a second time.
        assert_eq!(dev.snapshot().since(&before), after);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            for_each_ordered(
                4,
                8,
                |i| {
                    if i == 5 {
                        panic!("boom");
                    }
                    i
                },
                |_| {},
            );
        });
        assert!(result.is_err());
    }
}
