//! Device configuration: latency profiles and granularities.
//!
//! The paper (§2, §4) models persistent-memory I/O in *buffers* equal to the
//! cacheline size and charges `r` cost units per cacheline read and `w` per
//! cacheline write, with `λ = w/r > 1`. The evaluation uses a 10 ns read
//! latency and a 150 ns write latency (following Qureshi et al. and
//! Mnemosyne), and sweeps the write latency between 50 ns and 200 ns in the
//! sensitivity analysis (Fig. 11).

/// Size of one cacheline in bytes — the paper's I/O *buffer* unit.
pub const CACHELINE: usize = 64;

/// Default collection block size in bytes (§4: "We therefore report
/// measurements for 1024-byte blocks").
pub const DEFAULT_BLOCK: usize = 1024;

/// RAM-disk record size in bytes (§3.2: "files are organized in 512-byte
/// records"). The file layer goes through a real block filesystem, so
/// its I/O rounds to the same records.
pub const RAMDISK_RECORD: usize = 512;

/// Per-cacheline read/write latencies of the simulated medium.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyProfile {
    /// Nanoseconds to read one cacheline from persistent memory.
    pub read_ns: f64,
    /// Nanoseconds to write one cacheline to persistent memory.
    pub write_ns: f64,
}

impl LatencyProfile {
    /// The paper's default phase-change-memory profile: 10 ns reads,
    /// 150 ns writes (λ = 15).
    pub const PCM: Self = Self {
        read_ns: 10.0,
        write_ns: 150.0,
    };

    /// Creates a profile from a read latency and a write/read ratio λ.
    ///
    /// # Panics
    /// Panics if `read_ns` is not positive or `lambda < 1` (the paper
    /// assumes λ > 1; λ = 1 is allowed for symmetric-I/O baselines).
    pub fn with_lambda(read_ns: f64, lambda: f64) -> Self {
        assert!(read_ns > 0.0, "read latency must be positive");
        assert!(lambda >= 1.0, "write/read ratio must be >= 1");
        Self {
            read_ns,
            write_ns: read_ns * lambda,
        }
    }

    /// The write/read cost ratio λ = w/r.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.write_ns / self.read_ns
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self::PCM
    }
}

/// Full configuration of a simulated persistent-memory device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Medium latencies (per cacheline).
    pub latency: LatencyProfile,
    /// Collection block size in bytes; a small multiple of the cacheline.
    pub block_size: usize,
    /// Per-call software overhead of the PMFS backend (ns). PMFS is a
    /// kernel filesystem doing CPU load/store file access, so its overhead
    /// is small (§3.2).
    pub pmfs_call_ns: f64,
    /// Per-call software overhead of the RAM-disk backend (ns). The RAM
    /// disk goes through block-device filesystem paths, so its per-call
    /// cost is markedly higher.
    pub ramdisk_call_ns: f64,
    /// Per-call software overhead of the file-backed layer (ns): a real
    /// syscall into a disk filesystem, costlier than the memory-mounted
    /// RAM disk.
    pub file_call_ns: f64,
}

impl DeviceConfig {
    /// Paper-default configuration: PCM latencies, 1024-byte blocks.
    pub fn paper_default() -> Self {
        Self {
            latency: LatencyProfile::PCM,
            block_size: DEFAULT_BLOCK,
            pmfs_call_ns: 60.0,
            ramdisk_call_ns: 220.0,
            file_call_ns: 400.0,
        }
    }

    /// Overrides the latency profile, keeping other knobs.
    pub fn with_latency(mut self, latency: LatencyProfile) -> Self {
        self.latency = latency;
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Converts a byte count to the number of cachelines it occupies.
#[inline]
pub fn cachelines(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(CACHELINE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_profile_lambda_is_fifteen() {
        assert!((LatencyProfile::PCM.lambda() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn with_lambda_reconstructs_write_latency() {
        let p = LatencyProfile::with_lambda(10.0, 8.0);
        assert!((p.write_ns - 80.0).abs() < 1e-12);
        assert!((p.lambda() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "write/read ratio")]
    fn with_lambda_rejects_sub_unit_ratio() {
        let _ = LatencyProfile::with_lambda(10.0, 0.5);
    }

    #[test]
    fn cacheline_rounding() {
        assert_eq!(cachelines(0), 0);
        assert_eq!(cachelines(1), 1);
        assert_eq!(cachelines(64), 1);
        assert_eq!(cachelines(65), 2);
        assert_eq!(cachelines(80), 2);
        assert_eq!(cachelines(1024), 16);
    }
}
