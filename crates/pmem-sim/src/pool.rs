//! DRAM buffer-pool accounting.
//!
//! The algorithms are given a budget of `M` buffers of DRAM (the paper's
//! "bufferpool", Fig. 3). [`BufferPool`] tracks that budget: algorithms
//! reserve bytes for their heaps and working blocks, reservations release
//! on drop, and a high-water mark records the actual peak so tests can
//! assert that no algorithm exceeds its allowance.
//!
//! # Per-thread quota leases
//!
//! Admission mirrors the sharded metrics design (see `metrics`): the
//! shared pool core is only touched when a thread's *lease* cannot cover
//! a request. A successful draw grows the lease by exactly the shortfall
//! (so the admitted total and high-water mark stay exact); releases park
//! the bytes as lease slack for same-thread reuse, and
//! [`flush_thread_leases`] — called from the same barrier/task-end flush
//! points as the metrics shards, from the thread-exit destructor, and
//! implicitly by the pool's own getters — returns slack and publishes
//! the buffered reservation count. The hot path (an operator re-reserving
//! working memory it just released) is therefore RMW-free; budget safety
//! never depends on flushing, because a draw can only admit bytes the
//! CAS proves are within budget.
//!
//! Failed reservations publish eagerly: `exhausted` increments exactly
//! once per refused attempt, at the attempt, so memory-pressure
//! telemetry (`SHOW METRICS`) is never deferred behind a barrier.

use crate::error::PmError;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Source of unique pool identities (see the bank ids in `metrics`: weak
/// pointers alone cannot key thread-local state because addresses can be
/// reused).
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// The shared admission state of a [`BufferPool`].
#[derive(Debug)]
struct PoolCore {
    id: u64,
    budget: usize,
    /// Bytes admitted to thread leases (used + parked slack).
    admitted: AtomicUsize,
    high_water: AtomicUsize,
    reservations: AtomicU64,
    exhausted: AtomicU64,
    /// Draws that actually hit the shared core (diagnostic: lease reuse
    /// keeps this far below `reservations`).
    draws: AtomicU64,
}

impl PoolCore {
    /// Admits `need` more bytes, or refuses and counts the exhaustion.
    /// `caller_free` is the requesting lease's slack, folded into the
    /// error's `available` so callers see what they could still get.
    fn draw(&self, need: usize, requested: usize, caller_free: usize) -> Result<(), PmError> {
        let mut admitted = self.admitted.load(Ordering::Relaxed);
        loop {
            if admitted + need > self.budget {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(PmError::BudgetExceeded {
                    requested,
                    available: (self.budget - admitted) + caller_free,
                });
            }
            match self.admitted.compare_exchange_weak(
                admitted,
                admitted + need,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => admitted = actual,
            }
        }
        self.high_water
            .fetch_max(admitted + need, Ordering::Relaxed);
        self.draws.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// One thread's lease against one pool: bytes admitted to this thread
/// (`leased`), the portion live reservations hold (`used`), and grants
/// not yet published to the shared reservation counter.
#[derive(Debug)]
struct Lease {
    pool_id: u64,
    core: Weak<PoolCore>,
    leased: usize,
    used: usize,
    pending_grants: u64,
}

/// Every lease the current thread holds. Dropping the registry — the
/// thread-local destructor, running at thread exit even on panic —
/// flushes everything, so worker slack always returns to the budget.
#[derive(Debug, Default)]
struct LeaseRegistry {
    leases: Vec<Lease>,
}

impl LeaseRegistry {
    fn flush_all(&mut self) {
        for lease in &mut self.leases {
            if let Some(core) = lease.core.upgrade() {
                if lease.pending_grants != 0 {
                    core.reservations
                        .fetch_add(lease.pending_grants, Ordering::Relaxed);
                }
                let slack = lease.leased - lease.used;
                if slack != 0 {
                    core.admitted.fetch_sub(slack, Ordering::Relaxed);
                }
            }
            lease.pending_grants = 0;
            lease.leased = lease.used;
        }
        // Leases with live reservations must survive the flush so their
        // eventual release still finds its slot; empty leases go.
        self.leases.retain(|l| l.used != 0);
    }
}

impl Drop for LeaseRegistry {
    fn drop(&mut self) {
        self.flush_all();
    }
}

thread_local! {
    static LEASES: RefCell<LeaseRegistry> = RefCell::new(LeaseRegistry::default());
}

/// Returns the calling thread's parked lease slack to every pool and
/// publishes buffered reservation counts. Called at the same flush
/// points as `metrics::flush_thread_shards`; cheap when nothing is
/// parked. Safe to call anywhere.
pub fn flush_thread_leases() {
    let _ = LEASES.try_with(|reg| reg.borrow_mut().flush_all());
}

/// Runs `f` on the calling thread's lease for `core`, creating an empty
/// lease on first use. Falls back to `f` on a detached one-off lease if
/// the thread-local registry is already destroyed (the caller must then
/// settle with the core directly — see the call sites).
fn with_lease<R>(core: &Arc<PoolCore>, f: impl FnOnce(&mut Lease) -> R) -> Result<R, R> {
    let mut f = Some(f);
    let out = LEASES.try_with(|reg| {
        let reg = &mut *reg.borrow_mut();
        let idx = reg.leases.iter().position(|l| l.pool_id == core.id);
        let slot = match idx {
            Some(i) => &mut reg.leases[i],
            None => {
                reg.leases.push(Lease {
                    pool_id: core.id,
                    core: Arc::downgrade(core),
                    leased: 0,
                    used: 0,
                    pending_grants: 0,
                });
                reg.leases.last_mut().expect("just pushed")
            }
        };
        (f.take().expect("applied once"))(slot)
    });
    match out {
        Ok(r) => Ok(r),
        Err(_) => {
            let mut detached = Lease {
                pool_id: core.id,
                core: Arc::downgrade(core),
                leased: 0,
                used: 0,
                pending_grants: 0,
            };
            Err((f.take().expect("not yet applied"))(&mut detached))
        }
    }
}

/// A DRAM budget of `M` buffers (expressed in bytes).
///
/// A pool can be shared by parallel partition workers (each worker's
/// build table draws from the same budget; the paper's `M` is a
/// per-operator allowance, which under a degree of parallelism `d` is
/// shared `d` ways). Admission goes through per-thread leases, so the
/// shared counters are only touched when a lease grows — never once per
/// reservation on a steady-state hot path.
#[derive(Debug)]
pub struct BufferPool {
    core: Arc<PoolCore>,
}

impl BufferPool {
    /// Creates a pool with `budget` bytes of DRAM.
    pub fn new(budget: usize) -> Self {
        Self {
            core: Arc::new(PoolCore {
                id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
                budget,
                admitted: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
                reservations: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
                draws: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a pool sized as `fraction` of `input_bytes` (the paper's
    /// sweeps express memory as 1%–15% of the input size).
    pub fn fraction_of(input_bytes: usize, fraction: f64) -> Self {
        assert!(fraction > 0.0, "memory fraction must be positive");
        Self::new((input_bytes as f64 * fraction).round() as usize)
    }

    /// Total budget in bytes.
    pub fn budget(&self) -> usize {
        self.core.budget
    }

    /// Budget expressed in the paper's buffer units (cachelines).
    pub fn budget_buffers(&self) -> u64 {
        crate::config::cachelines(self.core.budget)
    }

    /// Bytes currently admitted (live reservations; the calling thread's
    /// parked slack is returned first, other threads' slack returns at
    /// their next flush point).
    pub fn used(&self) -> usize {
        flush_thread_leases();
        self.core.admitted.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.core.budget - self.used()
    }

    /// Peak admission observed over the pool's lifetime. Draws admit
    /// exactly the shortfall of a request, so this is the exact peak of
    /// simultaneously leased bytes.
    pub fn high_water(&self) -> usize {
        self.core.high_water.load(Ordering::Relaxed)
    }

    /// Successful reservations granted over the pool's lifetime
    /// (including lease-covered grants; the calling thread's buffered
    /// grants are published first).
    pub fn reservations(&self) -> u64 {
        flush_thread_leases();
        self.core.reservations.load(Ordering::Relaxed)
    }

    /// Reservation attempts refused because the budget was exhausted
    /// (callers typically respond by spilling or chunking — the paper's
    /// memory-starved regimes — so this counts memory-pressure events).
    /// Published eagerly at the refused attempt, exactly once per
    /// attempt, never deferred to a flush point.
    pub fn exhausted(&self) -> u64 {
        self.core.exhausted.load(Ordering::Relaxed)
    }

    /// Draws that had to touch the shared admission counters (lease
    /// reuse keeps this far below [`BufferPool::reservations`] on
    /// steady-state paths; exposed for contention diagnostics).
    pub fn draws(&self) -> u64 {
        self.core.draws.load(Ordering::Relaxed)
    }

    /// Reserves `bytes`, failing if the budget would be exceeded.
    ///
    /// Covered from the calling thread's lease slack when possible (no
    /// shared access); otherwise draws exactly the shortfall from the
    /// pool core. A refused draw increments `exhausted` exactly once.
    pub fn reserve(&self, bytes: usize) -> Result<Reservation<'_>, PmError> {
        let outcome = with_lease(&self.core, |lease| {
            let free = lease.leased - lease.used;
            if free < bytes {
                let core = lease.core.upgrade().expect("pool outlives reservation");
                core.draw(bytes - free, bytes, free)?;
                lease.leased += bytes - free;
            }
            lease.used += bytes;
            lease.pending_grants += 1;
            Ok(())
        });
        match outcome {
            Ok(granted) => granted?,
            Err(granted) => {
                granted?;
                // Thread-local storage is gone (destructor-context
                // caller): the detached lease can't be flushed later, so
                // settle the grant with the core immediately. `used`
                // stays admitted until the Reservation's drop returns it
                // directly.
                self.core.reservations.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(Reservation {
            pool: self,
            bytes,
            _same_thread: PhantomData,
        })
    }

    /// Returns `bytes` from a release to the calling thread's lease
    /// (parked as slack for reuse), or straight to the core if the
    /// thread-local registry is gone.
    fn release(&self, bytes: usize) {
        let outcome = with_lease(&self.core, |lease| {
            debug_assert!(lease.used >= bytes, "release exceeds lease");
            lease.used -= bytes;
        });
        if outcome.is_err() {
            self.core.admitted.fetch_sub(bytes, Ordering::Relaxed);
        }
    }
}

/// An RAII slice of the DRAM budget; releases on drop.
///
/// Releases return bytes to the reserving thread's lease, so a
/// reservation must drop on the thread that took it (`!Send` enforces
/// this — the executors reserve working memory on the thread that uses
/// it, so nothing ships reservations across threads).
#[derive(Debug)]
pub struct Reservation<'p> {
    pool: &'p BufferPool,
    bytes: usize,
    _same_thread: PhantomData<*const ()>,
}

impl Reservation<'_> {
    /// Reserved size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// How many fixed-size records fit in this reservation.
    pub fn records(&self, record_size: usize) -> usize {
        self.bytes / record_size
    }

    /// Shrinks the reservation, returning `give_back` bytes to the pool.
    ///
    /// # Panics
    /// Panics if `give_back` exceeds the reservation.
    pub fn shrink(&mut self, give_back: usize) {
        assert!(
            give_back <= self.bytes,
            "cannot give back more than reserved"
        );
        self.bytes -= give_back;
        self.pool.release(give_back);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let pool = BufferPool::new(1000);
        {
            let r = pool.reserve(600).expect("fits");
            assert_eq!(r.bytes(), 600);
            assert_eq!(pool.available(), 400);
        }
        assert_eq!(pool.available(), 1000);
        assert_eq!(pool.high_water(), 600);
    }

    #[test]
    fn over_reservation_fails() {
        let pool = BufferPool::new(100);
        let _a = pool.reserve(80).expect("fits");
        assert!(pool.reserve(30).is_err());
        assert_eq!(pool.reservations(), 1);
        assert_eq!(pool.exhausted(), 1);
    }

    #[test]
    fn exhaustion_counts_exactly_once_per_failed_attempt() {
        let pool = BufferPool::new(100);
        let _a = pool.reserve(80).expect("fits");
        for _ in 0..3 {
            assert!(pool.reserve(30).is_err());
        }
        assert_eq!(pool.exhausted(), 3);
        assert_eq!(pool.reservations(), 1);
        // A covered retry after the holder shrinks does not add to
        // either counter's failure side.
        drop(_a);
        let _b = pool.reserve(30).expect("fits now");
        assert_eq!(pool.exhausted(), 3);
        assert_eq!(pool.reservations(), 2);
    }

    #[test]
    fn failed_reserve_reports_lease_slack_as_available() {
        let pool = BufferPool::new(100);
        drop(pool.reserve(40).expect("fits")); // parks 40 of slack
        let _hold = pool.reserve(30).expect("covered by slack");
        // Slack 10 + unadmitted 60 = 70 available; 80 must fail and say so.
        let err = pool.reserve(80).expect_err("over budget");
        match err {
            PmError::BudgetExceeded {
                requested,
                available,
            } => {
                assert_eq!(requested, 80);
                assert_eq!(available, 70);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn lease_reuse_skips_the_shared_core() {
        let pool = BufferPool::new(1000);
        for _ in 0..50 {
            drop(pool.reserve(300).expect("fits"));
        }
        // One draw admitted the lease; 49 reuses were thread-local.
        assert_eq!(pool.draws(), 1);
        assert_eq!(pool.reservations(), 50);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.high_water(), 300);
    }

    #[test]
    fn fraction_of_computes_budget() {
        let pool = BufferPool::fraction_of(1_000_000, 0.05);
        assert_eq!(pool.budget(), 50_000);
    }

    #[test]
    fn shrink_returns_bytes() {
        let pool = BufferPool::new(100);
        let mut r = pool.reserve(100).expect("fits");
        r.shrink(40);
        assert_eq!(pool.available(), 40);
        assert_eq!(r.bytes(), 60);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let pool = BufferPool::new(100);
        drop(pool.reserve(90));
        let _r = pool.reserve(10).expect("fits");
        assert_eq!(pool.high_water(), 90);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }

    #[test]
    fn concurrent_reservations_never_exceed_budget() {
        // Raw spawn + join: join waits for full thread teardown, so the
        // thread-exit lease flush is visible here (scope's implicit join
        // does not wait for TLS destructors).
        let pool = std::sync::Arc::new(BufferPool::new(1000));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(r) = pool.reserve(300) {
                            assert!(pool.used() <= pool.budget());
                            drop(r);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker ok");
        }
        // Thread exit flushed every lease's slack back to the budget.
        assert_eq!(pool.used(), 0);
        assert!(pool.high_water() <= 1000);
    }
}
