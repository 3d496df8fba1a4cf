//! The per-layer charge rule: how much medium traffic and how many
//! layer calls the same logical I/O costs on each §3.2 persistence
//! layer. It is stated here once and read by both sides: a
//! [`crate::layer::Storage`] computes every charge it makes through its
//! rule and adds the result to the device's bank (the rule itself never
//! charges), and a planner prices the traffic it predicts for a plan
//! node with the same rule ([`ChargeRule::calls`]).

use crate::config::{cachelines, DeviceConfig, CACHELINE, RAMDISK_RECORD};
use crate::layer::{LayerKind, ReadCursor};
use crate::metrics::{RawStats, PS_PER_NS};

/// One layer's charge rule under one device configuration.
///
/// * Medium traffic is counted in *granules*: 512-byte records on the
///   RAM disk and the file layer, cachelines on the byte-addressable
///   layers. A granule is charged at its first write since the storage
///   was last cleared, and at its first read through a cursor.
/// * Software overhead is one layer call per *call granule* first
///   touched — a 512-byte record on the RAM disk and the file layer, a
///   collection block on PMFS — at a whole number of picoseconds per
///   call. Blocked memory and the dynamic array make no calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChargeRule {
    /// The medium granule in bytes, a power of two, and its `log2`.
    granule: u64,
    granule_shift: u32,
    /// Bytes one layer call serves.
    call_granule: u64,
    /// Picoseconds per layer call; `None` on a layer that makes none.
    call_ps: Option<u64>,
}

impl ChargeRule {
    /// The rule of `kind` under `config`.
    pub fn new(kind: LayerKind, config: &DeviceConfig) -> Self {
        let (granule, call_granule, call_ns) = match kind {
            LayerKind::BlockedMemory | LayerKind::DynArray => (CACHELINE, config.block_size, 0.0),
            LayerKind::Pmfs => (CACHELINE, config.block_size, config.pmfs_call_ns),
            LayerKind::RamDisk => (RAMDISK_RECORD, RAMDISK_RECORD, config.ramdisk_call_ns),
            LayerKind::FileBacked => (RAMDISK_RECORD, RAMDISK_RECORD, config.file_call_ns),
        };
        Self {
            granule: granule as u64,
            granule_shift: granule.trailing_zeros(),
            call_granule: call_granule as u64,
            call_ps: (call_ns > 0.0).then(|| (call_ns * PS_PER_NS).round() as u64),
        }
    }

    /// The layer calls `cachelines` of traffic make — one per call
    /// granule the bytes span, rounded up; none on a layer that makes
    /// none — and their software time in nanoseconds: the planner's
    /// price for a node's predicted traffic.
    #[inline]
    pub fn calls(&self, cachelines: f64) -> (f64, f64) {
        self.call_ps.map_or((0.0, 0.0), |ps| {
            let calls = (cachelines * CACHELINE as f64 / self.call_granule as f64).ceil();
            (calls, calls * ps as f64 / PS_PER_NS)
        })
    }

    /// `reads` and `writes` cachelines and `calls` layer calls.
    #[inline]
    fn charge(&self, reads: u64, writes: u64, calls: u64) -> RawStats {
        RawStats {
            reads,
            writes,
            calls,
            software_ps: calls * self.call_ps.unwrap_or(0),
        }
    }

    /// Growing a storage from `old_len` to `new_len` bytes: each granule
    /// past the written-granule mark `written` (which moves to cover
    /// `new_len`) written once — write-back buffering within a granule —
    /// and one call per call granule first touched.
    #[inline]
    pub(crate) fn append(&self, old_len: usize, new_len: usize, written: &mut u64) -> RawStats {
        let granules = (new_len as u64 + self.granule - 1) >> self.granule_shift;
        let writes = (granules - *written) * (self.granule / CACHELINE as u64);
        *written = granules;
        let cg = self.call_granule;
        let calls = self.call_ps.map_or(0, |_| {
            (new_len as u64).div_ceil(cg) - (old_len as u64).div_ceil(cg)
        });
        self.charge(0, writes, calls)
    }

    /// Reading `count` back-to-back `size`-byte records from `offset`
    /// through `cursor`, exactly as `count` one-record reads would: per
    /// read, the granules the cursor has not counted yet, and — only
    /// when there are some — one call per call granule it has not
    /// charged yet (a sequential scan makes one call per block or
    /// record, not one per record). One read of all the bytes charges
    /// the same wherever that telescopes.
    ///
    /// Medium traffic always does: a granule is counted at its first
    /// touch, whatever the sizes of the reads that touch it. Calls do
    /// when every call-granule boundary is also a medium-granule
    /// boundary — every layer except PMFS over a block size that is not
    /// a multiple of the cacheline. There, a record that ends the scan
    /// across a block boundary but inside an already-counted cacheline
    /// is never charged its call, and only the record-at-a-time loop
    /// reproduces that.
    #[inline]
    pub(crate) fn read(
        &self,
        offset: usize,
        size: usize,
        count: usize,
        cursor: &mut ReadCursor,
    ) -> RawStats {
        if count <= 1 || self.call_ps.is_none() || self.call_granule.is_multiple_of(self.granule) {
            return self.read_bytes(offset, size * count, cursor);
        }
        let mut charge = RawStats::ZERO;
        for i in 0..count {
            charge.add(&self.read_bytes(offset + i * size, size, cursor));
        }
        charge
    }

    /// One read of bytes `[offset, offset + len)` through `cursor`.
    #[inline]
    fn read_bytes(&self, offset: usize, len: usize, cursor: &mut ReadCursor) -> RawStats {
        if len == 0 {
            return RawStats::ZERO;
        }
        let last = (offset + len - 1) as u64;
        let start = (offset as u64 >> self.granule_shift).max(cursor.next_granule);
        if last >> self.granule_shift < start {
            return RawStats::ZERO;
        }
        cursor.next_granule = (last >> self.granule_shift) + 1;
        let reads = (cursor.next_granule - start) * (self.granule / CACHELINE as u64);
        let mut calls = 0;
        if self.call_ps.is_some() {
            let (cg, last_cg) = (self.call_granule, last / self.call_granule);
            let start_cg = (offset as u64 / cg).max(cursor.next_call_granule);
            if last_cg >= start_cg {
                calls = last_cg + 1 - start_cg;
                cursor.next_call_granule = last_cg + 1;
            }
        }
        self.charge(reads, 0, calls)
    }

    /// A dynamic array's doubling copy of its `copied`-byte populated
    /// prefix: real persistent-memory traffic, the old region read and
    /// the new one written.
    pub(crate) fn growth_copy(&self, copied: usize) -> RawStats {
        self.charge(cachelines(copied), cachelines(copied), 0)
    }

    /// An fsync: one layer call.
    pub(crate) fn fsync(&self) -> RawStats {
        self.charge(0, 0, 1)
    }
}
