//! Fault injection for the file-backed persistence layer.
//!
//! Durable code paths (the WAL, checkpoints) must survive the one event
//! the simulated layers never see: the process dying mid-write. This
//! module gives a device a [`FaultPlan`] — a deterministic description
//! of *when* its file-backed writes start failing and *how* (clean
//! refusal, short write, torn tail, out of space) — so a crash harness
//! can sweep kill points over a workload and assert that recovery
//! reconstructs exactly the acknowledged prefix.
//!
//! The hook sits in the device ([`crate::PmDevice::arm_faults`]): every
//! file-backed write asks the device for a verdict before touching the
//! OS file, and once a fault trips, every later write and fsync fails
//! until the plan is disarmed. Plans are plain data seeded by the
//! harness, so a failing seed reproduces byte-for-byte.

/// How an injected failure presents to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The simulated process died: the in-flight write was cut at the
    /// kill offset and nothing later reaches the file.
    Crash,
    /// The device ran out of space: the write is refused in full, no
    /// bytes reach the file.
    NoSpace,
}

impl FaultKind {
    /// Stable human-readable cause string (surfaced in I/O errors).
    pub fn describe(&self) -> &'static str {
        match self {
            FaultKind::Crash => "injected crash: process killed mid-write",
            FaultKind::NoSpace => "injected ENOSPC: no space left on device",
        }
    }
}

/// A deterministic fault schedule for file-backed writes.
///
/// Byte offsets count *file-backed bytes attempted since the plan was
/// armed*, across every file on the device — the WAL and checkpoint
/// share one budget, which is exactly how a real kill behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill the process once this many bytes have been written: the
    /// write that crosses the boundary is truncated at it, and every
    /// later write or fsync fails with [`FaultKind::Crash`].
    pub kill_after_bytes: Option<u64>,
    /// Refuse (in full) the write that would cross this many bytes with
    /// [`FaultKind::NoSpace`], and every write after it.
    pub enospc_after_bytes: Option<u64>,
    /// When killing mid-write, also garble the tail of the surviving
    /// prefix — a torn page, distinguishable from a clean short write
    /// only by checksums.
    pub torn_tail: bool,
    /// Seed for the torn-tail garble pattern.
    pub garble_seed: u64,
}

impl FaultPlan {
    /// A plan that never fires — armed only to count durable bytes
    /// (harnesses use the total to place kill points on later runs).
    pub fn observe() -> Self {
        Self {
            kill_after_bytes: None,
            enospc_after_bytes: None,
            torn_tail: false,
            garble_seed: 0,
        }
    }

    /// Kill after `bytes` durable bytes; `torn` garbles the cut tail.
    pub fn kill_at(bytes: u64, torn: bool, garble_seed: u64) -> Self {
        Self {
            kill_after_bytes: Some(bytes),
            enospc_after_bytes: None,
            torn_tail: torn,
            garble_seed,
        }
    }

    /// Run out of space after `bytes` durable bytes.
    pub fn enospc_at(bytes: u64) -> Self {
        Self {
            kill_after_bytes: None,
            enospc_after_bytes: Some(bytes),
            torn_tail: false,
            garble_seed: 0,
        }
    }
}

/// The device-side verdict for one file-backed write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Write all bytes.
    Full,
    /// Write only the first `keep` bytes, then fail: a short write
    /// (`torn == false`) or a torn page (`torn == true`, the layer
    /// garbles the tail of the kept prefix).
    Partial {
        /// Bytes that reach the file.
        keep: usize,
        /// Whether to garble the tail of the kept prefix.
        torn: bool,
    },
    /// Refuse the write entirely.
    Refuse(FaultKind),
}

/// Mutable fault bookkeeping owned by the device.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    plan: Option<FaultPlan>,
    bytes_written: u64,
    tripped: Option<FaultKind>,
}

impl FaultState {
    pub(crate) fn arm(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        self.bytes_written = 0;
        self.tripped = None;
    }

    pub(crate) fn disarm(&mut self) {
        self.plan = None;
        self.tripped = None;
    }

    pub(crate) fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    pub(crate) fn garble_seed(&self) -> u64 {
        self.plan.map_or(0, |p| p.garble_seed)
    }

    /// Verdict for a write of `len` bytes; accounts the bytes that will
    /// reach the file.
    pub(crate) fn before_write(&mut self, len: usize) -> WriteVerdict {
        if let Some(kind) = self.tripped {
            return WriteVerdict::Refuse(kind);
        }
        let Some(plan) = self.plan else {
            return WriteVerdict::Full;
        };
        let end = self.bytes_written + len as u64;
        if let Some(limit) = plan.enospc_after_bytes {
            if end > limit {
                self.tripped = Some(FaultKind::NoSpace);
                return WriteVerdict::Refuse(FaultKind::NoSpace);
            }
        }
        if let Some(limit) = plan.kill_after_bytes {
            if end > limit {
                let keep = limit.saturating_sub(self.bytes_written) as usize;
                self.bytes_written = limit;
                self.tripped = Some(FaultKind::Crash);
                return WriteVerdict::Partial {
                    keep,
                    torn: plan.torn_tail,
                };
            }
        }
        self.bytes_written = end;
        WriteVerdict::Full
    }

    /// Whether an fsync may proceed (fails once a fault has tripped —
    /// data cut by the kill can never be made durable).
    pub(crate) fn before_sync(&self) -> Result<(), FaultKind> {
        match self.tripped {
            Some(kind) => Err(kind),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_state_passes_everything() {
        let mut s = FaultState::default();
        assert_eq!(s.before_write(1000), WriteVerdict::Full);
        assert!(s.before_sync().is_ok());
        assert_eq!(s.tripped, None);
    }

    #[test]
    fn observe_plan_counts_bytes_without_firing() {
        let mut s = FaultState::default();
        s.arm(FaultPlan::observe());
        assert_eq!(s.before_write(100), WriteVerdict::Full);
        assert_eq!(s.before_write(28), WriteVerdict::Full);
        assert_eq!(s.bytes_written(), 128);
        assert!(s.before_sync().is_ok());
    }

    #[test]
    fn kill_truncates_the_crossing_write_and_kills_the_rest() {
        let mut s = FaultState::default();
        s.arm(FaultPlan::kill_at(150, true, 7));
        assert_eq!(s.before_write(100), WriteVerdict::Full);
        assert_eq!(
            s.before_write(100),
            WriteVerdict::Partial {
                keep: 50,
                torn: true
            }
        );
        assert_eq!(s.tripped, Some(FaultKind::Crash));
        assert_eq!(
            s.before_write(10),
            WriteVerdict::Refuse(FaultKind::Crash),
            "dead after the kill"
        );
        assert_eq!(s.before_sync(), Err(FaultKind::Crash));
    }

    #[test]
    fn kill_exactly_at_a_boundary_spares_the_completed_write() {
        let mut s = FaultState::default();
        s.arm(FaultPlan::kill_at(100, false, 0));
        assert_eq!(s.before_write(100), WriteVerdict::Full);
        assert!(s.before_sync().is_ok(), "boundary write was fully durable");
        assert_eq!(
            s.before_write(1),
            WriteVerdict::Partial {
                keep: 0,
                torn: false
            }
        );
    }

    #[test]
    fn enospc_refuses_in_full() {
        let mut s = FaultState::default();
        s.arm(FaultPlan::enospc_at(64));
        assert_eq!(s.before_write(64), WriteVerdict::Full);
        assert_eq!(s.before_write(1), WriteVerdict::Refuse(FaultKind::NoSpace));
        assert_eq!(s.tripped, Some(FaultKind::NoSpace));
    }

    #[test]
    fn disarm_clears_the_trip() {
        let mut s = FaultState::default();
        s.arm(FaultPlan::kill_at(0, false, 0));
        assert!(matches!(s.before_write(1), WriteVerdict::Partial { .. }));
        s.disarm();
        assert_eq!(s.before_write(1), WriteVerdict::Full);
    }
}
