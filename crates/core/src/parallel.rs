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
//! Every operator fans out through `fan_out`, which also keeps the
//! per-task ledger its phase ledger (`Phases`) is made of; a serial
//! step's ledger is `measured`.

use crate::context::ExecContext;
use pmem_sim::metrics::{adopt, thread_flow};
use pmem_sim::{span, thread_stats, IoStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

/// Environment variable holding the default degree of parallelism.
pub const THREADS_ENV: &str = "WL_THREADS";

/// Process-wide explicit degree of parallelism (0 = unset). Set by CLI
/// flags like `repro --threads N`; outranks the environment variable.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide explicit degree of parallelism, as a CLI
/// `--threads` flag does. Outranks `WL_THREADS` in [`resolve_threads`];
/// pass 0 to clear it.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The one knob-precedence rule for the degree of parallelism, shared by
/// every context, operator, and binary:
///
/// 1. an explicit per-call setting (`with_threads`, a session knob),
/// 2. a process-wide explicit setting ([`set_default_threads`], i.e. a
///    `--threads` CLI flag),
/// 3. the `WL_THREADS` environment variable,
/// 4. serial (1), matching the paper's single-threaded implementation.
///
/// Zero and unparsable values are treated as unset at every level.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| Some(DEFAULT_THREADS.load(Ordering::Relaxed)).filter(|&n| n > 0))
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or(1)
}

/// The default degree of parallelism when nothing explicit was given:
/// [`resolve_threads`] with no per-call override.
pub fn degree_from_env() -> usize {
    resolve_threads(None)
}

/// One task's result plus the traffic its worker charged while running
/// it (taken from the worker's thread-local flow ledger, so concurrent
/// siblings cannot perturb it and nested fan-out the task consumed is
/// included).
#[derive(Debug)]
pub struct TaskOutput<T> {
    /// The task's return value.
    pub value: T,
    /// Cacheline traffic the task charged to the device.
    pub stats: IoStats,
    /// Host wall-clock duration of the task in nanoseconds.
    pub wall_ns: u64,
    /// Profiler id of the thread that ran the task.
    pub thread: u64,
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
/// to the caller when the scope joins.
pub fn for_each_ordered<T, F, C>(threads: usize, n_tasks: usize, task: F, mut consume: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, TaskOutput<T>),
{
    if n_tasks == 0 {
        return;
    }
    // Phase span covering the whole fan-out; per-task leaves attach under
    // it at consumption time, so a profile records the pool's shape (task
    // counts, which threads ran what, per-task wall) at any DoP. All of
    // this is inert unless a profile is armed on the coordinator.
    let _pool_span = span::span_with(|| format!("tasks[{n_tasks}]"));
    let workers = threads.min(n_tasks);
    if workers <= 1 {
        for i in 0..n_tasks {
            let before = thread_flow();
            let t0 = Instant::now();
            let value = task(i);
            let out = TaskOutput {
                value,
                stats: thread_flow().since(&before),
                wall_ns: t0.elapsed().as_nanos() as u64,
                thread: span::thread_id(),
            };
            // Inline tasks ran on the coordinator, so their traffic is
            // already in its ledger — attach the leaf, adopt nothing.
            if span::profiling() {
                span::attach_task(format!("task-{i}"), out.thread, out.wall_ns, out.stats);
            }
            consume(i, out);
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
                let before = thread_flow();
                let t0 = Instant::now();
                let value = task(i);
                let out = TaskOutput {
                    value,
                    stats: thread_flow().since(&before),
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    thread: span::thread_id(),
                };
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
                                if span::profiling() {
                                    span::attach_task(
                                        format!("task-{next_out}"),
                                        out.thread,
                                        out.wall_ns,
                                        out.stats,
                                    );
                                }
                                consume(next_out, out);
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

/// An operator's phase ledger: its phases in execution order, each the
/// traffic of its independent tasks (a serial step is a phase of one
/// task), together the operator's whole device delta.
pub(crate) type Phases = Vec<Vec<IoStats>>;

/// Runs `f` and returns the traffic it charged (fan-out it consumed
/// included) beside its result: the ledger of a serial phase.
pub(crate) fn measured<T>(f: impl FnOnce() -> T) -> (T, IoStats) {
    let before = thread_flow();
    let value = f();
    (value, thread_flow().since(&before))
}

/// The one fan-out every operator runs its parallel phases through:
/// `tasks` tasks across the worker pool, their results `land`ed on the
/// calling thread in task order. Returns each task's ledger: its own
/// traffic plus its landing's — serialized here for count determinism,
/// but traffic that belongs to the task (a medium serving DoP workers
/// would land each task's output from its own worker).
pub(crate) fn fan_out<T: Send>(
    ctx: &ExecContext<'_>,
    tasks: usize,
    task: impl Fn(usize) -> T + Sync,
    mut land: impl FnMut(T),
) -> Vec<IoStats> {
    let mut ledger = Vec::with_capacity(tasks);
    for_each_ordered(ctx.threads(), tasks, task, |_, task| {
        let before = thread_stats();
        land(task.value);
        ledger.push(task.stats.plus(&thread_stats().since(&before)));
    });
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{LayerKind, PCollection, PmDevice};

    /// Every task's value, in task-index order.
    fn map_ordered<T: Send>(
        threads: usize,
        n_tasks: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(n_tasks);
        for_each_ordered(threads, n_tasks, task, |_, r| out.push(r.value));
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
            |_, out| ledgers.push(out.stats),
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
        assert!(degree_from_env() >= 1);
    }

    #[test]
    fn explicit_threads_outrank_every_default() {
        // Per-call explicit beats everything, including the process-wide
        // CLI default and whatever WL_THREADS the test run was given.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), degree_from_env());
    }

    #[test]
    fn task_outputs_carry_wall_and_thread_at_any_dop() {
        for threads in [1, 4] {
            let mut threads_seen = std::collections::HashSet::new();
            for_each_ordered(
                threads,
                6,
                |i| i,
                |_, out| {
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
            pmem_sim::span::begin_profile("pool");
            let _ = map_ordered(threads, cols.len(), |i| cols[i].reader().sum::<u64>());
            pmem_sim::span::end_profile().expect("profile recorded")
        };
        let p1 = profile(1);
        let p4 = profile(4);
        p1.validate().expect("serial tree sums");
        p4.validate().expect("parallel tree sums");
        assert_eq!(p1.task_count(), 5);
        assert_eq!(p4.task_count(), 5);
        assert_eq!(p1.io.cl_reads, p4.io.cl_reads);
        assert_eq!(p1.io.cl_writes, p4.io.cl_writes);
        assert_eq!(p1.io.calls, p4.io.calls);
        let pool1 = p1.find("tasks[5]").expect("phase span");
        let pool4 = p4.find("tasks[5]").expect("phase span");
        assert_eq!(pool1.children_io().cl_reads, pool4.children_io().cl_reads);
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
                |_, _| {},
            );
        });
        assert!(result.is_err());
    }
}
