//! # pmem-sim — persistent-memory cost simulator
//!
//! Software stand-in for the instrumented persistent-memory testbed of
//! *Write-limited sorts and joins for persistent memory* (Viglas, VLDB
//! 2014). The paper injects artificial per-cacheline delays (10 ns reads /
//! 150 ns writes) after every persistent-memory access and reports response
//! time plus cacheline read/write counts; this crate reproduces the same
//! cost structure deterministically:
//!
//! * every persistent collection charges its cacheline traffic to a shared
//!   [`device::PmDevice`], and
//! * simulated response time is `reads·r + writes·w + software overhead`.
//!
//! The four §3.2 persistence-layer implementations (blocked memory, PMFS,
//! RAM disk, dynamic arrays) are provided as [`layer::LayerKind`] variants
//! that differ only in how much traffic and overhead the same logical
//! workload costs — exactly the axis the paper's implementation comparison
//! explores.
//!
//! ```
//! use pmem_sim::{DeviceConfig, LayerKind, PCollection, PmDevice};
//!
//! let dev = PmDevice::new(DeviceConfig::paper_default());
//! let mut col = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "numbers");
//! for i in 0..1000 {
//!     col.append(&i);
//! }
//! let sum: u64 = col.reader().sum();
//! assert_eq!(sum, 499_500);
//! let stats = dev.snapshot();
//! assert_eq!(stats.cl_writes, col.buffers()); // 8000 B = 125 cachelines
//! assert_eq!(stats.cl_reads, col.buffers());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod charge;
pub mod collection;
pub mod config;
pub mod device;
pub mod energy;
pub mod error;
pub mod fault;
pub mod layer;
pub mod metrics;
pub mod pages;
pub mod pool;
pub mod span;

pub use collection::{PCollection, RecordBuffer, RecordReader, RecordView, Storable};

/// Publishes every piece of pending per-thread accounting — metrics
/// shards ([`metrics::flush_thread_shards`]) and buffer-pool leases
/// ([`pool::flush_thread_leases`]) — into the shared banks/pools. The
/// worker pool calls this at task ends and barrier joins; operators call
/// it at span boundaries and bulk-append flushes. Cheap when nothing is
/// pending; safe to call anywhere.
pub fn flush_thread_accounting() {
    metrics::flush_thread_shards();
    pool::flush_thread_leases();
}
pub use charge::ChargeRule;
pub use config::{cachelines, DeviceConfig, LatencyProfile, CACHELINE};
pub use device::{Pm, PmDevice};
pub use energy::{EnergyModel, WearModel};
pub use error::PmError;
pub use fault::{FaultKind, FaultPlan, WriteVerdict};
pub use layer::{FileStats, LayerKind, ReadCursor, Storage};
pub use metrics::{flush_thread_shards, thread_flow, thread_stats, IoStats, Metrics};
pub use pages::{PageId, PageStore};
pub use pool::{flush_thread_leases, BufferPool, Reservation};
pub use span::SpanNode;
