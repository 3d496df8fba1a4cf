//! The simulated persistent-memory device: configuration plus shared
//! counters.
//!
//! A [`PmDevice`] plays the role the instrumented persistent-memory region
//! plays in the paper's testbed: every persistent collection routes its
//! cacheline traffic through the device's [`Metrics`], and the simulated
//! response time of an operation is derived from the counter deltas around
//! it. Algorithms never see the device directly; they operate on
//! [`crate::collection::PCollection`]s bound to it.

use crate::config::DeviceConfig;
use crate::fault::{FaultKind, FaultPlan, FaultState, WriteVerdict};
use crate::metrics::{IoStats, Metrics};
use std::sync::{Arc, Mutex};

/// A simulated persistent-memory device.
///
/// `PmDevice` is `Send + Sync`: its counter bank is atomic, so
/// partition-parallel workers can share one device handle and charge
/// traffic concurrently while totals stay exact.
#[derive(Debug)]
pub struct PmDevice {
    config: DeviceConfig,
    metrics: Metrics,
    /// Fault-injection schedule for file-backed writes (crash harness
    /// hook); consulted only by the file layer, so the lock is off every
    /// simulated-memory hot path.
    fault: Mutex<FaultState>,
}

/// Shared handle to a device. Collections hold clones of this handle;
/// it is `Arc` so worker pools can fan partition work out across threads
/// (the paper's implementation is single-threaded, but its per-partition
/// work is embarrassingly parallel).
pub type Pm = Arc<PmDevice>;

impl PmDevice {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Pm {
        Arc::new(Self {
            config,
            metrics: Metrics::new(),
            fault: Mutex::new(FaultState::default()),
        })
    }

    /// Creates a device with the paper's default configuration
    /// (10 ns / 150 ns PCM latencies, 1024-byte blocks).
    pub fn paper_default() -> Pm {
        Self::new(DeviceConfig::paper_default())
    }

    /// Device configuration.
    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Counter bank (used by backends; algorithms should prefer
    /// [`PmDevice::snapshot`]).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current counter snapshot.
    pub fn snapshot(&self) -> IoStats {
        self.metrics.snapshot()
    }

    /// Simulated time elapsed since the device was created (or last reset),
    /// in seconds.
    pub fn now_secs(&self) -> f64 {
        self.snapshot().time_secs(&self.config.latency)
    }

    /// The medium's write/read cost ratio λ.
    pub fn lambda(&self) -> f64 {
        self.config.latency.lambda()
    }

    /// Resets all counters (e.g., after loading inputs, which the paper
    /// factors out of its reported timings).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// Arms a fault-injection plan for the device's file-backed writes.
    /// Replaces any previous plan and resets the durable-byte counter.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.fault.lock().expect("fault state").arm(plan);
    }

    /// Removes the fault plan; file-backed writes succeed again.
    pub fn disarm_faults(&self) {
        self.fault.lock().expect("fault state").disarm();
    }

    /// File-backed bytes durably written since the plan was armed —
    /// harnesses measure a fault-free run with [`FaultPlan::observe`]
    /// to place kill points on later runs.
    pub fn fault_bytes_written(&self) -> u64 {
        self.fault.lock().expect("fault state").bytes_written()
    }

    /// Verdict for a file-backed write of `len` bytes (file layer only).
    pub(crate) fn fault_before_write(&self, len: usize) -> WriteVerdict {
        self.fault.lock().expect("fault state").before_write(len)
    }

    /// Whether a file-backed fsync may proceed (file layer only).
    pub(crate) fn fault_before_sync(&self) -> Result<(), FaultKind> {
        self.fault.lock().expect("fault state").before_sync()
    }

    /// Seed for torn-tail garbling (file layer only).
    pub(crate) fn fault_garble_seed(&self) -> u64 {
        self.fault.lock().expect("fault state").garble_seed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyProfile;

    #[test]
    fn device_is_send_and_sync() {
        // Compile-time guarantee the worker pool relies on: a device
        // handle may be shared across scoped threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmDevice>();
        assert_send_sync::<Pm>();
    }

    #[test]
    fn device_reports_lambda_from_config() {
        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, 5.0)),
        );
        assert!((dev.lambda() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_clock() {
        let dev = PmDevice::paper_default();
        dev.metrics().add_writes(1000);
        assert!(dev.now_secs() > 0.0);
        dev.reset_metrics();
        assert_eq!(dev.now_secs(), 0.0);
    }
}
