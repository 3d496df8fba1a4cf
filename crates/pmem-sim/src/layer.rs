//! The persistence layer: the thin abstraction between DRAM and persistent
//! memory (Fig. 3 of the paper) and its four §3.2 implementation
//! alternatives.
//!
//! All four backends store the same bytes and expose the same append/scan
//! interface; they differ in *how much I/O and software overhead* the same
//! logical traffic costs:
//!
//! * [`LayerKind::BlockedMemory`] — fixed-size blocks, byte-addressable,
//!   zero software overhead; the reference point ("shows the true
//!   potential of the hardware", §4.3). The paper's linked list of blocks
//!   is held in chunks of up to 64 blocks, so scans and appends move a
//!   chunk at a time; the block stays the unit of the cost model.
//! * [`LayerKind::Pmfs`] — byte-addressable filesystem; cacheline-granular
//!   I/O plus a small per-call cost.
//! * [`LayerKind::RamDisk`] — memory-mounted block filesystem; I/O rounded
//!   to 512-byte records plus a larger per-call cost.
//! * [`LayerKind::DynArray`] — capacity-doubling dynamic array over a
//!   persistent allocator; every expansion *copies* the populated prefix,
//!   paying counted reads and writes for it.
//!
//! A fifth, non-paper layer backs the engine's durability work:
//!
//! * [`LayerKind::FileBacked`] — writes a **real file** through the OS,
//!   so the simulated counts can be sanity-checked against actual I/O
//!   ([`Storage::file_stats`]), appends can fail ([`Storage::try_append`]
//!   under an armed [`crate::fault::FaultPlan`]), and a named file
//!   ([`Storage::create_file`]) survives the process. The WAL and
//!   checkpoint files of the database live on this layer.

use crate::charge::ChargeRule;
use crate::config::{DeviceConfig, CACHELINE};
use crate::device::PmDevice;
use crate::error::PmError;
use crate::fault::{FaultKind, WriteVerdict};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Selects one of the §3.2 persistence-layer implementations, or the
/// file-backed durability layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Linked list of fixed-size memory blocks; no overhead beyond raw
    /// medium latency.
    BlockedMemory,
    /// Byte-addressable filesystem (modeled after Intel PMFS).
    Pmfs,
    /// Memory-mounted block filesystem (512-byte records).
    RamDisk,
    /// Capacity-doubling dynamic array (C++ `std::vector` over a
    /// persistent-memory allocator).
    DynArray,
    /// A real file on the host filesystem (512-byte records, syscall
    /// overhead): durable across process exit, fallible under fault
    /// injection, with host-side I/O counters next to the simulated
    /// ones.
    FileBacked,
}

impl LayerKind {
    /// All four alternatives, in the paper's overhead order (best first).
    pub const ALL: [LayerKind; 4] = [
        LayerKind::BlockedMemory,
        LayerKind::Pmfs,
        LayerKind::RamDisk,
        LayerKind::DynArray,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            LayerKind::BlockedMemory => "blocked memory",
            LayerKind::Pmfs => "PMFS",
            LayerKind::RamDisk => "RAM disk",
            LayerKind::DynArray => "dyn. array",
            LayerKind::FileBacked => "file-backed",
        }
    }
}

/// Host-side I/O counters of a file-backed storage — the ground truth
/// the simulated counters are sanity-checked against.
///
/// A named file ([`Storage::create_file`]) is written through: one
/// `write(2)` per append, so `write_syscalls` counts appends. An
/// ephemeral scratch file ([`Storage::new`]) stages its host writes and
/// hands them to the OS in batches, so there `write_syscalls` ≤ appends
/// — while `bytes_written` still equals the logical bytes whenever it
/// is read, because [`Storage::file_stats`] flushes what is staged
/// first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileStats {
    /// `write(2)` calls issued to the OS file.
    pub write_syscalls: u64,
    /// Bytes actually handed to the OS file.
    pub bytes_written: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
}

/// Staged host writes of an ephemeral file go to the OS once this many
/// bytes are pending.
const EPHEMERAL_FLUSH_BYTES: usize = 64 * 1024;

/// The real OS file behind a [`LayerKind::FileBacked`] storage.
#[derive(Debug)]
struct FileBacking {
    path: PathBuf,
    file: fs::File,
    /// Anonymous scratch file (created by [`Storage::new`]); removed on
    /// drop. Named files ([`Storage::create_file`]) are left behind —
    /// durability is their point.
    ephemeral: bool,
    /// Behind a lock because the accessors that flush take `&self`;
    /// appends reach it through `&mut self` without locking.
    host: Mutex<HostWrites>,
}

/// What has, and what has not yet, been handed to the OS file.
#[derive(Debug, Default)]
struct HostWrites {
    /// Appended bytes of an ephemeral file not yet written to it. Nobody
    /// reads a scratch file back (reads come from the in-memory mirror)
    /// and its durability is nobody's concern (it is unlinked on drop),
    /// so its appends need not each pay a `write(2)`. Grown by the
    /// appends themselves — a collection that stays tiny stages tiny.
    /// Always empty for a named file.
    pending: Vec<u8>,
    stats: FileStats,
}

impl HostWrites {
    /// Hands the staged bytes to the OS file in one write.
    fn flush(&mut self, mut file: &fs::File) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = file.write_all(&self.pending);
        if written.is_ok() {
            self.stats.write_syscalls += 1;
            self.stats.bytes_written += self.pending.len() as u64;
        }
        self.pending.clear();
        written
    }
}

impl FileBacking {
    fn new(path: &Path, file: fs::File, ephemeral: bool) -> Self {
        Self {
            path: path.to_path_buf(),
            file,
            ephemeral,
            host: Mutex::new(HostWrites::default()),
        }
    }

    fn host(&self) -> MutexGuard<'_, HostWrites> {
        // Every update leaves the staged bytes and the counters valid,
        // so a panic elsewhere while the lock was held poisons nothing.
        self.host.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One append's bytes: written through on a named file, staged (and
    /// flushed past the threshold) on an ephemeral one.
    fn write(&mut self, data: &[u8]) -> std::io::Result<()> {
        let Self {
            file,
            ephemeral,
            host,
            ..
        } = self;
        let host = host.get_mut().unwrap_or_else(PoisonError::into_inner);
        if *ephemeral {
            host.pending.extend_from_slice(data);
            if host.pending.len() < EPHEMERAL_FLUSH_BYTES {
                return Ok(());
            }
            return host.flush(file);
        }
        file.write_all(data)?;
        host.stats.write_syscalls += 1;
        host.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Hands everything staged to the OS file.
    fn flush(&self) -> std::io::Result<()> {
        self.host().flush(&self.file)
    }
}

impl Drop for FileBacking {
    fn drop(&mut self) {
        if self.ephemeral {
            // Every appended byte reaches the OS file, even one about to
            // be unlinked: host I/O stays a function of the appends, not
            // of when the storage happened to be dropped.
            let _ = self.flush();
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Process-wide counter so concurrent ephemeral files get distinct names.
static EPHEMERAL_FILE_ID: AtomicU64 = AtomicU64::new(0);

/// Forward-only read cursor.
///
/// Sequential scans touch each cacheline once no matter how many records it
/// spans; the cursor remembers the next uncounted granule so overlapping
/// record reads are not double-charged. A fresh cursor (new scan) recounts
/// from the beginning — rescans are exactly what the write-limited
/// algorithms pay for, so they must be visible in the counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadCursor {
    pub(crate) next_granule: u64,
    /// Next call-granule not yet charged a layer call (sequential reads
    /// within one filesystem block/record share a single call).
    pub(crate) next_call_granule: u64,
}

impl ReadCursor {
    /// A cursor that will count from the first granule.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where a stored byte lives physically: the chunk holding it (see
/// [`chunk_blocks`]; the other layers are one contiguous chunk) and the
/// offset inside that chunk. A scan advances its place record by record,
/// so only seeking ([`Storage::place`]) ever divides — and the block size
/// need not be a power of two.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Place {
    chunk: usize,
    off: usize,
}

/// `log2` of the most blocks a blocked-memory chunk holds (64).
const MAX_CHUNK_SHIFT: usize = 6;

/// Chunks whose length doubles (1, 2, …, 64 blocks) before it stays put.
const DOUBLING_CHUNKS: usize = MAX_CHUNK_SHIFT + 1;

/// Blocks in the doubling chunks (127).
const DOUBLING_BLOCKS: usize = (1 << DOUBLING_CHUNKS) - 1;

/// Blocks in blocked-memory chunk `chunk`: 2^min(chunk, 6). A collection
/// of a few records holds one block, as the paper's linked list would; a
/// large one holds 64-block chunks, so a scan or an append crosses a
/// chunk end once per 64 blocks, and the allocator sees one allocation
/// for them instead of 64. The block stays the unit of everything
/// charged: cachelines, PMFS calls and the cost model never see chunks.
#[inline]
fn chunk_blocks(chunk: usize) -> usize {
    1 << chunk.min(MAX_CHUNK_SHIFT)
}

/// Blocks in the chunks before `chunk`: the index of its first block.
#[inline]
fn blocks_before(chunk: usize) -> usize {
    if chunk <= DOUBLING_CHUNKS {
        (1 << chunk) - 1
    } else {
        DOUBLING_BLOCKS + ((chunk - DOUBLING_CHUNKS) << MAX_CHUNK_SHIFT)
    }
}

/// The chunk holding block `block`.
#[inline]
fn chunk_of(block: usize) -> usize {
    if block < DOUBLING_BLOCKS {
        (block + 1).ilog2() as usize
    } else {
        DOUBLING_CHUNKS + ((block - DOUBLING_BLOCKS) >> MAX_CHUNK_SHIFT)
    }
}

/// Released chunks the cache keeps.
const CACHED_CHUNKS: usize = 8;

/// The blocked-memory chunks released most recently, by any storage in
/// the process, oldest first: at most [`CACHED_CHUNKS`] of them, so at
/// most 8 × 64 blocks. Handing every freed 64-block chunk straight back
/// to the allocator lets it return their memory to the OS, and the next
/// storage to grow (the next set-up staging its inputs) faults the same
/// amount back in; keeping the newest few keeps that memory in the
/// process. Keeping all of them would hold every collection's peak.
#[derive(Debug)]
struct ChunkCache(Vec<Vec<u8>>);

impl ChunkCache {
    /// The newest cached chunk with room for `capacity` bytes, if there
    /// is one, as it was released (its bytes are not cleared).
    fn take(&mut self, capacity: usize) -> Option<Vec<u8>> {
        let newest = self
            .0
            .iter()
            .rposition(|chunk| chunk.capacity() == capacity)?;
        Some(self.0.remove(newest))
    }

    /// Keeps the chunks of `released`, the last one newest, and frees the
    /// oldest chunks past [`CACHED_CHUNKS`]. Leaves `released` empty.
    fn release(&mut self, released: &mut Vec<Vec<u8>>) {
        // Only the newest `CACHED_CHUNKS` could stay: free the rest now.
        released.drain(..released.len().saturating_sub(CACHED_CHUNKS));
        let evicted = (self.0.len() + released.len()).saturating_sub(CACHED_CHUNKS);
        self.0.drain(..evicted);
        self.0.append(released);
    }
}

static CHUNK_CACHE: Mutex<ChunkCache> = Mutex::new(ChunkCache(Vec::new()));

fn chunk_cache() -> MutexGuard<'static, ChunkCache> {
    // Every update leaves the cache a valid list of chunks, so a panic
    // elsewhere while the lock was held poisons nothing.
    CHUNK_CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An empty chunk with room for `capacity` bytes: a released one from
/// the cache when it holds one of that capacity, emptied but not
/// re-zeroed, a fresh allocation otherwise. Appends fill it without ever
/// growing it, so its bytes never move.
fn take_chunk(capacity: usize) -> Vec<u8> {
    let cached = chunk_cache().take(capacity);
    match cached {
        Some(mut chunk) => {
            chunk.clear();
            chunk
        }
        None => Vec::with_capacity(capacity),
    }
}

/// Byte storage plus accounting for one persistent collection.
///
/// Reads ([`Storage::read_at`]) take `&self` and charge the device's
/// atomic counters, so any number of worker threads may scan one
/// collection concurrently; appends require `&mut self`.
#[derive(Debug)]
pub struct Storage {
    kind: LayerKind,
    /// Payload bytes. Blocked memory keeps its blocks in chunks of
    /// [`chunk_blocks`] blocks each: a chunk is created with that many
    /// blocks' capacity and holds exactly the bytes appended to it, so
    /// every chunk but the tail is full and none ever reallocates. The
    /// other backends are contiguous (file / array semantics).
    chunks: Vec<Vec<u8>>,
    contiguous: Vec<u8>,
    /// Logical length in bytes.
    len: usize,
    /// Dynamic-array capacity in bytes (DynArray only).
    capacity: usize,
    /// Granules already charged as written (ceil-delta accounting).
    written: u64,
    block_size: usize,
    /// What every append, read, growth copy and fsync charges.
    rule: ChargeRule,
    /// Real OS file (FileBacked only). `contiguous` doubles as an
    /// in-memory mirror so reads never touch the OS.
    file: Option<FileBacking>,
}

/// Initial dynamic-array capacity in bytes (one block).
const DYNARRAY_INITIAL_CAPACITY: usize = 1024;

impl Storage {
    /// Creates empty storage of the given kind under `config`.
    ///
    /// For [`LayerKind::FileBacked`] this creates an anonymous scratch
    /// file in the OS temp directory, removed when the storage drops;
    /// use [`Storage::create_file`] for a file that should survive.
    ///
    /// Such an *ephemeral* file is read only through the in-memory
    /// mirror and nobody depends on its durability, so its host writes
    /// are staged and handed to the OS in batches — past a size
    /// threshold, on [`Storage::fsync`], [`Storage::persist_as`],
    /// [`Storage::file_path`], [`Storage::file_stats`] and drop, and
    /// before an injected fault cuts or refuses an append — not one
    /// `write(2)` per append. Nothing else differs from a named file:
    /// the fault plan is consulted per append with that append's
    /// length, the simulated charge is made per append, and whoever
    /// looks at the file through those accessors finds every byte
    /// appended so far.
    ///
    /// # Panics
    /// Panics if the scratch file cannot be created (FileBacked only).
    pub fn new(kind: LayerKind, config: &DeviceConfig) -> Self {
        if kind == LayerKind::FileBacked {
            let path = std::env::temp_dir().join(format!(
                "wl-scratch-{}-{}.bin",
                std::process::id(),
                // audit:allow(counted-io) process-unique scratch-file id, not a device counter
                EPHEMERAL_FILE_ID.fetch_add(1, Ordering::Relaxed)
            ));
            return Self::create_file_at(&path, true, config)
                .expect("create ephemeral file-backed storage");
        }
        Self::empty(kind, config, None)
    }

    /// An empty storage of `kind`; `file` backs the file layer.
    fn empty(kind: LayerKind, config: &DeviceConfig, file: Option<FileBacking>) -> Self {
        Self {
            kind,
            chunks: Vec::new(),
            contiguous: Vec::new(),
            len: 0,
            capacity: 0,
            written: 0,
            block_size: config.block_size,
            rule: ChargeRule::new(kind, config),
            file,
        }
    }

    /// Creates (truncating) a named file-backed storage at `path`.
    /// The file persists after the storage drops.
    pub fn create_file(path: impl AsRef<Path>, config: &DeviceConfig) -> Result<Self, PmError> {
        Self::create_file_at(path.as_ref(), false, config)
    }

    fn create_file_at(
        path: &Path,
        ephemeral: bool,
        config: &DeviceConfig,
    ) -> Result<Self, PmError> {
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| PmError::Io {
                path: path.display().to_string(),
                offset: 0,
                cause: e.to_string(),
            })?;
        let file = FileBacking::new(path, file, ephemeral);
        Ok(Self::empty(LayerKind::FileBacked, config, Some(file)))
    }

    /// Which §3.2 alternative this storage implements.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Logical length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes have been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `data`, charging writes under this layer's model.
    ///
    /// # Panics
    /// Panics if the append fails — possible only on the file-backed
    /// layer (OS error or armed fault). Durable code paths that must
    /// survive failure use [`Storage::try_append`] instead.
    pub fn append(&mut self, data: &[u8], dev: &PmDevice) {
        if let Err(e) = self.try_append(data, dev) {
            panic!("append failed: {e}");
        }
    }

    /// Appends `data`, charging writes under this layer's model.
    ///
    /// On the simulated-memory layers this never fails. On the
    /// file-backed layer it consults the device's fault plan first: a
    /// kill mid-write leaves the surviving prefix in the file (garbled
    /// at the tail if the plan says torn) and returns [`PmError::Io`];
    /// ENOSPC refuses the write in full.
    pub fn try_append(&mut self, data: &[u8], dev: &PmDevice) -> Result<(), PmError> {
        if data.is_empty() {
            return Ok(());
        }
        if self.file.is_some() {
            return self.append_file(data, dev);
        }
        let old_len = self.len;
        let new_len = old_len + data.len();

        // Physical placement.
        match self.kind {
            LayerKind::BlockedMemory => self.append_blocked(data),
            LayerKind::DynArray => {
                self.grow_dynarray(new_len, dev);
                self.contiguous.extend_from_slice(data);
            }
            LayerKind::Pmfs | LayerKind::RamDisk => self.contiguous.extend_from_slice(data),
            LayerKind::FileBacked => unreachable!("file-backed handled above"),
        }
        self.len = new_len;
        let charge = self.rule.append(old_len, new_len, &mut self.written);
        dev.metrics().add_charge(charge);
        Ok(())
    }

    /// Appends one `len`-byte item that `fill` serializes — straight
    /// into the tail chunk or array when it fits there, through
    /// `scratch` (`len` bytes) when it straddles two chunks or must go to
    /// the OS file first. Stores and charges exactly what
    /// [`Storage::append`] of the same bytes would, `fill` seeing a
    /// zeroed destination either way.
    ///
    /// # Panics
    /// As [`Storage::append`].
    pub(crate) fn append_in_place(
        &mut self,
        len: usize,
        scratch: &mut [u8],
        dev: &PmDevice,
        fill: impl FnOnce(&mut [u8]),
    ) {
        if len == 0 {
            return;
        }
        let old_len = self.len;
        let new_len = old_len + len;
        let tail = match self.kind {
            LayerKind::BlockedMemory => {
                if self.reserved() == old_len {
                    self.push_chunk();
                }
                let room = self.reserved() - old_len;
                let chunk = self.chunks.last_mut().expect("tail chunk just ensured");
                if len <= room {
                    let used = chunk.len();
                    chunk.resize(used + len, 0);
                    Some(&mut chunk[used..])
                } else {
                    None
                }
            }
            LayerKind::FileBacked => None,
            LayerKind::DynArray | LayerKind::Pmfs | LayerKind::RamDisk => {
                if self.kind == LayerKind::DynArray {
                    self.grow_dynarray(new_len, dev);
                }
                self.contiguous.resize(new_len, 0);
                Some(&mut self.contiguous[old_len..])
            }
        };
        let Some(tail) = tail else {
            scratch.fill(0);
            fill(scratch);
            return self.append(scratch, dev);
        };
        fill(tail);
        self.len = new_len;
        let charge = self.rule.append(old_len, new_len, &mut self.written);
        dev.metrics().add_charge(charge);
    }

    fn append_file(&mut self, data: &[u8], dev: &PmDevice) -> Result<(), PmError> {
        let verdict = dev.fault_before_write(data.len());
        if verdict != WriteVerdict::Full {
            // The appends before this one succeeded: whatever the fault
            // leaves in the file comes after all of their bytes.
            self.flush_file()?;
        }
        match verdict {
            WriteVerdict::Full => self.file_write(data, dev),
            WriteVerdict::Refuse(kind) => Err(self.file_error(kind.describe())),
            WriteVerdict::Partial { keep, torn } => {
                if keep > 0 {
                    let mut kept = data[..keep].to_vec();
                    if torn {
                        // Garble the tail of the kept prefix: a torn page
                        // that only a checksum can tell from valid data.
                        let pat = (dev.fault_garble_seed() as u8) | 0x01;
                        let n = kept.len().min(CACHELINE);
                        let start = kept.len() - n;
                        for b in &mut kept[start..] {
                            *b ^= pat;
                        }
                    }
                    self.file_write(&kept, dev)?;
                    self.flush_file()?;
                }
                Err(self.file_error(FaultKind::Crash.describe()))
            }
        }
    }

    /// Hands `data` to the OS file (staged, on an ephemeral one) and the
    /// mirror, then charges the simulated counters for it.
    fn file_write(&mut self, data: &[u8], dev: &PmDevice) -> Result<(), PmError> {
        let old_len = self.len;
        let fb = self.file.as_mut().expect("file-backed storage");
        if let Err(e) = fb.write(data) {
            return Err(self.file_error(e.to_string()));
        }
        self.contiguous.extend_from_slice(data);
        self.len = old_len + data.len();
        let charge = self.rule.append(old_len, self.len, &mut self.written);
        dev.metrics().add_charge(charge);
        Ok(())
    }

    /// Hands an ephemeral file's staged bytes to the OS (a no-op on a
    /// named file, which stages nothing, and off the file layer).
    fn flush_file(&self) -> Result<(), PmError> {
        match self.file.as_ref().map(FileBacking::flush) {
            Some(Err(e)) => Err(self.file_error(e.to_string())),
            _ => Ok(()),
        }
    }

    /// [`PmError::Io`] at the current end of this storage's file.
    fn file_error(&self, cause: impl Into<String>) -> PmError {
        PmError::Io {
            path: self
                .file
                .as_ref()
                .map(|f| f.path.display().to_string())
                .unwrap_or_default(),
            offset: self.len as u64,
            cause: cause.into(),
        }
    }

    /// Forces written data to the OS file (file-backed only; a no-op on
    /// the simulated layers), staged bytes of an ephemeral file
    /// included. Charges one layer call. Fails if a fault has tripped —
    /// data cut by a kill can never be made durable.
    pub fn fsync(&mut self, dev: &PmDevice) -> Result<(), PmError> {
        if self.file.is_none() {
            return Ok(());
        }
        self.flush_file()?;
        if let Err(kind) = dev.fault_before_sync() {
            return Err(self.file_error(kind.describe()));
        }
        let fb = self.file.as_mut().expect("file-backed storage");
        if let Err(e) = fb.file.sync_data() {
            let cause = e.to_string();
            return Err(self.file_error(cause));
        }
        let fb = self.file.as_mut().expect("file-backed storage");
        fb.host().stats.fsyncs += 1;
        dev.metrics().add_charge(self.rule.fsync());
        Ok(())
    }

    /// Atomically renames the backing file (file-backed only); the open
    /// handle keeps writing to the same inode, so appends continue to
    /// land in the renamed file. This is the publish step of the
    /// write-tmp-fsync-rename discipline durable code uses. A scratch
    /// file published this way stops being ephemeral: what it had staged
    /// is written out first, and later appends are written through.
    pub fn persist_as(&mut self, new_path: impl AsRef<Path>) -> Result<(), PmError> {
        let new_path = new_path.as_ref();
        self.flush_file()?;
        let Some(fb) = self.file.as_mut() else {
            return Err(PmError::Io {
                path: new_path.display().to_string(),
                offset: 0,
                cause: "persist_as on a non-file-backed storage".into(),
            });
        };
        fs::rename(&fb.path, new_path).map_err(|e| PmError::Io {
            path: fb.path.display().to_string(),
            offset: 0,
            cause: e.to_string(),
        })?;
        fb.path = new_path.to_path_buf();
        fb.ephemeral = false;
        Ok(())
    }

    /// Host-side I/O counters (file-backed only), after handing any
    /// staged bytes to the OS — so `bytes_written` covers every append
    /// made so far.
    pub fn file_stats(&self) -> Option<FileStats> {
        let fb = self.file.as_ref()?;
        // Best effort, like `clear`: a failed write is simply not counted.
        let _ = fb.flush();
        Some(fb.host().stats)
    }

    /// Path of the backing file (file-backed only), after handing any
    /// staged bytes to the OS — so whoever opens the path finds every
    /// append made so far.
    pub fn file_path(&self) -> Option<&Path> {
        let fb = self.file.as_ref()?;
        let _ = fb.flush();
        Some(fb.path.as_path())
    }

    /// Bytes in the blocked-memory chunks allocated so far.
    #[inline]
    fn reserved(&self) -> usize {
        blocks_before(self.chunks.len()) * self.block_size
    }

    /// Bytes in blocked-memory chunk `chunk`.
    #[inline]
    fn chunk_bytes(&self, chunk: usize) -> usize {
        chunk_blocks(chunk) * self.block_size
    }

    /// Allocates the next blocked-memory chunk, empty.
    fn push_chunk(&mut self) {
        let chunk = take_chunk(self.chunk_bytes(self.chunks.len()));
        self.chunks.push(chunk);
    }

    fn append_blocked(&mut self, data: &[u8]) {
        // Free bytes in the tail chunk (none before the first chunk).
        let mut room = self.reserved() - self.len;
        let mut remaining = data;
        while !remaining.is_empty() {
            if room == 0 {
                self.push_chunk();
                room = self.chunk_bytes(self.chunks.len() - 1);
            }
            let chunk = self.chunks.last_mut().expect("chunk just ensured");
            let take = remaining.len().min(room);
            chunk.extend_from_slice(&remaining[..take]);
            room -= take;
            remaining = &remaining[take..];
        }
    }

    /// Doubles the dynamic array's capacity until `needed` bytes fit,
    /// charging each expansion's copy of the populated prefix.
    fn grow_dynarray(&mut self, needed: usize, dev: &PmDevice) {
        if self.capacity == 0 {
            self.capacity = DYNARRAY_INITIAL_CAPACITY;
        }
        while self.capacity < needed {
            // Doubling expansion: allocate 2× and copy the populated
            // prefix over — the copy is real persistent-memory traffic
            // (reads of the old region, writes of the new one), which is
            // exactly the §3.2 criticism of dynamic arrays.
            dev.metrics().add_charge(self.rule.growth_copy(self.len));
            self.capacity *= 2;
        }
        self.contiguous
            .reserve(needed.saturating_sub(self.contiguous.capacity()));
    }

    /// Reads `buf.len()` bytes at `offset`, charging reads through the
    /// forward-only `cursor`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_at(&self, offset: usize, buf: &mut [u8], cursor: &mut ReadCursor, dev: &PmDevice) {
        assert!(
            offset + buf.len() <= self.len,
            "read past end: offset {} + len {} > {}",
            offset,
            buf.len(),
            self.len
        );
        self.copy_out(&mut self.place(offset), buf);
        self.charge_read(offset, buf.len(), 1, cursor, dev);
    }

    /// Charges a forward read of `count` back-to-back `size`-byte
    /// records from `offset` through `cursor` ([`ChargeRule::read`]) —
    /// shared by [`Storage::read_at`] and the collections' in-place
    /// record views. The caller has checked the range against
    /// [`Storage::len`].
    #[inline]
    pub(crate) fn charge_read(
        &self,
        offset: usize,
        size: usize,
        count: usize,
        cursor: &mut ReadCursor,
        dev: &PmDevice,
    ) {
        dev.metrics()
            .add_charge(self.rule.read(offset, size, count, cursor));
    }

    /// Physical position of byte `offset` — the seek of a scan or point
    /// read, and the only positioning step that divides.
    #[inline]
    pub(crate) fn place(&self, offset: usize) -> Place {
        match self.kind {
            LayerKind::BlockedMemory => {
                let (block, within) = (offset / self.block_size, offset % self.block_size);
                let chunk = chunk_of(block);
                Place {
                    chunk,
                    off: (block - blocks_before(chunk)) * self.block_size + within,
                }
            }
            _ => Place {
                chunk: 0,
                off: offset,
            },
        }
    }

    /// Bytes from `place` to the end of the chunk holding it — how far a
    /// scan can read on without leaving contiguous memory: the rest of
    /// the chunk on blocked memory, the rest of the storage elsewhere.
    #[inline]
    pub(crate) fn chunk_room(&self, place: &Place) -> usize {
        match self.kind {
            LayerKind::BlockedMemory => self.chunk_bytes(place.chunk) - place.off,
            _ => self.len - place.off,
        }
    }

    /// The stored bytes `[place, place + len)`, **uncharged**, where they
    /// are contiguous in the chunk, array or file mirror holding them;
    /// `None` where they straddle two chunks (or run past the chunk).
    #[inline]
    pub(crate) fn contiguous_at(&self, place: &Place, len: usize) -> Option<&[u8]> {
        let chunk: &[u8] = match self.kind {
            LayerKind::BlockedMemory => self.chunks.get(place.chunk)?,
            _ => &self.contiguous,
        };
        chunk.get(place.off..place.off + len)
    }

    /// The stored bytes `[place, place + len)`, **uncharged** (pair every
    /// call with [`Storage::charge_read`]), advancing `place` past them:
    /// lent straight from the storage when they are contiguous there
    /// ([`Storage::contiguous_at`]), assembled in `scratch` when they
    /// straddle two chunks. The caller has checked the range against
    /// [`Storage::len`].
    #[inline]
    pub(crate) fn bytes_at<'s>(
        &'s self,
        place: &mut Place,
        len: usize,
        scratch: &'s mut Vec<u8>,
    ) -> &'s [u8] {
        if let Some(bytes) = self.contiguous_at(place, len) {
            self.advance(place, len);
            return bytes;
        }
        scratch.resize(len, 0);
        self.copy_out(place, scratch);
        &scratch[..len]
    }

    /// Moves `place` `by` bytes on within its chunk, stepping to the next
    /// chunk when that was the chunk's last byte.
    #[inline]
    fn advance(&self, place: &mut Place, by: usize) {
        place.off += by;
        if self.kind == LayerKind::BlockedMemory && place.off == self.chunk_bytes(place.chunk) {
            *place = Place {
                chunk: place.chunk + 1,
                off: 0,
            };
        }
    }

    /// Copies the stored bytes `[place, place + buf.len())` into `buf`,
    /// advancing `place` past them.
    fn copy_out(&self, place: &mut Place, buf: &mut [u8]) {
        if self.kind != LayerKind::BlockedMemory {
            buf.copy_from_slice(&self.contiguous[place.off..place.off + buf.len()]);
            return self.advance(place, buf.len());
        }
        let mut out = 0usize;
        while out < buf.len() {
            let take = (buf.len() - out).min(self.chunk_room(place));
            buf[out..out + take]
                .copy_from_slice(&self.chunks[place.chunk][place.off..place.off + take]);
            out += take;
            self.advance(place, take);
        }
    }

    /// Truncates to zero length. Dynamic arrays keep their capacity (as
    /// C++ `vector::clear` does); blocked memory releases its chunks to
    /// the cache of released chunks; file-backed storage truncates the
    /// OS file (best-effort).
    pub fn clear(&mut self) {
        self.release_chunks();
        self.contiguous.clear();
        self.len = 0;
        self.written = 0;
        if let Some(fb) = self.file.as_mut() {
            fb.host().pending.clear();
            let _ = fb.file.set_len(0);
            let _ = fb.file.seek(SeekFrom::Start(0));
        }
    }

    /// Hands the blocked-memory chunks to the cache of released chunks,
    /// the tail chunk newest.
    fn release_chunks(&mut self) {
        if !self.chunks.is_empty() {
            chunk_cache().release(&mut self.chunks);
        }
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        self.release_chunks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PmDevice;

    fn dev() -> crate::device::Pm {
        PmDevice::paper_default()
    }

    #[test]
    fn blocked_append_counts_ceil_delta_cachelines() {
        let d = dev();
        let mut s = Storage::new(LayerKind::BlockedMemory, d.config());
        s.append(&[0u8; 80], &d);
        assert_eq!(d.snapshot().cl_writes, 2); // ceil(80/64)
        s.append(&[0u8; 80], &d);
        assert_eq!(d.snapshot().cl_writes, 3); // ceil(160/64)
    }

    #[test]
    fn blocked_roundtrips_across_block_boundaries() {
        let d = dev();
        let mut s = Storage::new(LayerKind::BlockedMemory, d.config());
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        s.append(&data, &d);
        assert_eq!(s.len(), 5000);
        let mut buf = vec![0u8; 5000];
        let mut cur = ReadCursor::new();
        s.read_at(0, &mut buf, &mut cur, &d);
        assert_eq!(buf, data);
    }

    #[test]
    fn sequential_reads_do_not_double_count_shared_cachelines() {
        let d = dev();
        let mut s = Storage::new(LayerKind::BlockedMemory, d.config());
        s.append(&[7u8; 160], &d);
        let before = d.snapshot();
        let mut cur = ReadCursor::new();
        let mut buf = [0u8; 80];
        s.read_at(0, &mut buf, &mut cur, &d);
        s.read_at(80, &mut buf, &mut cur, &d);
        let delta = d.snapshot().since(&before);
        assert_eq!(delta.cl_reads, 3); // 160 bytes = 3 cachelines, not 4
    }

    #[test]
    fn fresh_cursor_recounts_a_rescan() {
        let d = dev();
        let mut s = Storage::new(LayerKind::BlockedMemory, d.config());
        s.append(&[1u8; 128], &d);
        let mut buf = [0u8; 128];
        let before = d.snapshot();
        let mut c1 = ReadCursor::new();
        s.read_at(0, &mut buf, &mut c1, &d);
        let mut c2 = ReadCursor::new();
        s.read_at(0, &mut buf, &mut c2, &d);
        assert_eq!(d.snapshot().since(&before).cl_reads, 4);
    }

    #[test]
    fn ramdisk_rounds_io_to_512_byte_records() {
        let d = dev();
        let mut s = Storage::new(LayerKind::RamDisk, d.config());
        s.append(&[0u8; 80], &d);
        // One 512-byte record = 8 cachelines.
        assert_eq!(d.snapshot().cl_writes, 8);
        let mut buf = [0u8; 80];
        let mut cur = ReadCursor::new();
        let before = d.snapshot();
        s.read_at(0, &mut buf, &mut cur, &d);
        assert_eq!(d.snapshot().since(&before).cl_reads, 8);
    }

    #[test]
    fn ramdisk_charges_call_overhead() {
        let d = dev();
        let mut s = Storage::new(LayerKind::RamDisk, d.config());
        s.append(&[0u8; 512], &d);
        assert!(d.snapshot().software_ns > 0.0);
    }

    #[test]
    fn pmfs_overhead_is_smaller_than_ramdisk() {
        let d1 = dev();
        let mut p = Storage::new(LayerKind::Pmfs, d1.config());
        let d2 = dev();
        let mut r = Storage::new(LayerKind::RamDisk, d2.config());
        let data = vec![0u8; 64 * 1024];
        p.append(&data, &d1);
        r.append(&data, &d2);
        assert!(d1.snapshot().software_ns < d2.snapshot().software_ns);
    }

    #[test]
    fn dynarray_charges_copy_traffic_on_doubling() {
        let d = dev();
        let mut s = Storage::new(LayerKind::DynArray, d.config());
        // Fill past several doublings, record at a time as the algorithms
        // do (a single bulk append behaves like reserve+insert and copies
        // nothing — also asserted below).
        for _ in 0..(8192 / 64) {
            s.append(&[0u8; 64], &d);
        }
        let stats = d.snapshot();
        // Payload writes: 8192/64 = 128 cachelines; anything beyond that
        // is expansion-copy amplification, which must be non-zero.
        assert!(
            stats.cl_writes > 128,
            "writes {} expected > 128",
            stats.cl_writes
        );
        assert!(stats.cl_reads > 0);
    }

    #[test]
    fn dynarray_roundtrips() {
        let d = dev();
        let mut s = Storage::new(LayerKind::DynArray, d.config());
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 255) as u8).collect();
        s.append(&data, &d);
        let mut buf = vec![0u8; 3000];
        s.read_at(0, &mut buf, &mut ReadCursor::new(), &d);
        assert_eq!(buf, data);
    }

    #[test]
    fn clear_resets_write_accounting() {
        let d = dev();
        let mut s = Storage::new(LayerKind::BlockedMemory, d.config());
        s.append(&[0u8; 64], &d);
        s.clear();
        assert_eq!(s.len(), 0);
        s.append(&[0u8; 64], &d);
        assert_eq!(d.snapshot().cl_writes, 2); // both fills counted
    }

    #[test]
    fn file_backed_roundtrips_and_counts_like_ramdisk() {
        let d = dev();
        let mut s = Storage::new(LayerKind::FileBacked, d.config());
        s.append(&[0u8; 80], &d);
        // One 512-byte record = 8 cachelines, same rounding as the RAM disk.
        assert_eq!(d.snapshot().cl_writes, 8);
        let mut buf = [0u8; 80];
        s.read_at(0, &mut buf, &mut ReadCursor::new(), &d);
        assert_eq!(buf, [0u8; 80]);
    }

    fn scratch_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wl-layer-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn file_backed_simulated_counts_match_host_io() {
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        let path = scratch_path("named-twin");
        // An ephemeral scratch file and a named twin, on a device each.
        let (d_eph, d_named) = (dev(), dev());
        let mut eph = Storage::new(LayerKind::FileBacked, d_eph.config());
        let mut named = Storage::create_file(&path, d_named.config()).unwrap();
        for chunk in data.chunks(100) {
            eph.append(chunk, &d_eph);
            named.append(chunk, &d_named);
        }
        eph.fsync(&d_eph).unwrap();
        named.fsync(&d_named).unwrap();
        let (eph_stats, named_stats) = (eph.file_stats().unwrap(), named.file_stats().unwrap());
        // Named: written through, one write(2) per append. Ephemeral:
        // staged, so fewer — here one, at the fsync.
        assert_eq!(named_stats.write_syscalls, 30);
        assert_eq!(eph_stats.write_syscalls, 1);
        for stats in [eph_stats, named_stats] {
            assert_eq!(stats.bytes_written, 3000, "host bytes == logical bytes");
            assert_eq!(stats.fsyncs, 1);
        }
        // Simulated traffic is charged per append on both, identically:
        // the same bytes at record granularity, a call per record first
        // touched plus the fsync.
        assert_eq!(d_eph.snapshot().cl_writes, 3000u64.div_ceil(512) * 8);
        assert_eq!(d_eph.snapshot(), d_named.snapshot());
        // And the files on disk really hold the bytes.
        assert_eq!(fs::read(eph.file_path().unwrap()).unwrap(), data);
        assert_eq!(fs::read(&path).unwrap(), data);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ephemeral_appends_reach_the_os_in_threshold_sized_batches() {
        let d = dev();
        let mut s = Storage::new(LayerKind::FileBacked, d.config());
        let record = [7u8; 80];
        let appends = 2560u64;
        for _ in 0..appends {
            s.append(&record, &d);
        }
        // A batch goes out with the append that fills it; the accessor
        // flushes the remainder.
        let per_batch = EPHEMERAL_FLUSH_BYTES.div_ceil(record.len()) as u64;
        let stats = s.file_stats().unwrap();
        assert_eq!(stats.write_syscalls, appends.div_ceil(per_batch));
        assert!(stats.write_syscalls * 100 < appends);
        assert_eq!(stats.bytes_written, appends * 80);
        let on_disk = fs::read(s.file_path().unwrap()).unwrap();
        assert_eq!(on_disk.len() as u64, appends * 80);
        // Publishing the file ends the staging: appends write through.
        let path = scratch_path("published");
        s.persist_as(&path).unwrap();
        s.append(&record, &d);
        assert_eq!(fs::read(&path).unwrap().len() as u64, (appends + 1) * 80);
        assert_eq!(
            s.file_stats().unwrap().write_syscalls,
            stats.write_syscalls + 1
        );
        drop(s);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tiny_ephemeral_files_stage_tiny_buffers() {
        // A partitioning operator opens scratch files by the thousand,
        // most of them small: the staging buffer grows with what is
        // appended, never to the flush threshold up front.
        let d = dev();
        let mut staged = 0;
        for _ in 0..1000 {
            let mut s = Storage::new(LayerKind::FileBacked, d.config());
            for _ in 0..3 {
                s.append(&[1u8; 80], &d);
            }
            let fb = s.file.as_ref().unwrap();
            staged += fb.host().pending.capacity();
        }
        assert!(
            staged <= 1000 * 1024,
            "{staged} bytes staged by 1000 three-record files"
        );
    }

    #[test]
    fn enospc_mid_spill_refuses_the_same_append_and_keeps_the_same_bytes() {
        // An operator spilling to a scratch file runs out of space: the
        // append that crosses the limit is refused and everything before
        // it is in the file — exactly as on a written-through named file.
        let record = |i: u8| [i; 80];
        let path = scratch_path("enospc-twin");
        let (d_eph, d_named) = (dev(), dev());
        let mut eph = Storage::new(LayerKind::FileBacked, d_eph.config());
        let mut named = Storage::create_file(&path, d_named.config()).unwrap();
        let mut refused = Vec::new();
        for (s, d) in [(&mut eph, &d_eph), (&mut named, &d_named)] {
            d.arm_faults(crate::fault::FaultPlan::enospc_at(1000));
            let first_refused = (0..20u8).find(|&i| s.try_append(&record(i), d).is_err());
            refused.push(first_refused);
            d.disarm_faults();
        }
        assert_eq!(refused, [Some(12), Some(12)]);
        let kept: Vec<u8> = (0..12u8).flat_map(record).collect();
        assert_eq!(eph.len(), kept.len());
        assert_eq!(fs::read(eph.file_path().unwrap()).unwrap(), kept);
        assert_eq!(fs::read(&path).unwrap(), kept);
        assert_eq!(d_eph.snapshot(), d_named.snapshot());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ephemeral_file_is_removed_on_drop() {
        let d = dev();
        let path = {
            let s = Storage::new(LayerKind::FileBacked, d.config());
            let p = s.file_path().unwrap().to_path_buf();
            assert!(p.exists());
            p
        };
        assert!(!path.exists());
    }

    #[test]
    fn named_file_survives_drop_and_reopens() {
        let d = dev();
        let path = std::env::temp_dir().join(format!("wl-layer-test-{}.bin", std::process::id()));
        {
            let mut s = Storage::create_file(&path, d.config()).unwrap();
            s.append(b"hello, durable world", &d);
            s.fsync(&d).unwrap();
        }
        assert_eq!(fs::read(&path).unwrap(), b"hello, durable world");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn armed_kill_truncates_the_file_and_fails_later_io() {
        let d = dev();
        let mut s = Storage::new(LayerKind::FileBacked, d.config());
        d.arm_faults(crate::fault::FaultPlan::kill_at(100, false, 0));
        s.try_append(&[1u8; 64], &d).unwrap();
        let err = s.try_append(&[2u8; 64], &d).unwrap_err();
        assert!(matches!(err, PmError::Io { .. }), "{err}");
        assert!(err.to_string().contains("injected crash"), "{err}");
        // The surviving prefix (64 full + 36 cut) is in the file.
        assert_eq!(s.len(), 100);
        assert_eq!(fs::read(s.file_path().unwrap()).unwrap().len(), 100);
        // Everything after the kill fails, including fsync.
        assert!(s.try_append(&[0u8; 1], &d).is_err());
        assert!(s.fsync(&d).is_err());
        d.disarm_faults();
        assert!(s.try_append(&[0u8; 1], &d).is_ok());
    }

    #[test]
    fn torn_tail_garbles_the_kept_prefix() {
        let d = dev();
        let mut s = Storage::new(LayerKind::FileBacked, d.config());
        d.arm_faults(crate::fault::FaultPlan::kill_at(100, true, 0xAB));
        assert!(s.try_append(&[0u8; 200], &d).is_err());
        let on_disk = fs::read(s.file_path().unwrap()).unwrap();
        assert_eq!(on_disk.len(), 100);
        assert!(
            on_disk.iter().any(|&b| b != 0),
            "torn tail must differ from the written zeros"
        );
        d.disarm_faults();
    }

    #[test]
    fn enospc_refuses_without_touching_the_file() {
        let d = dev();
        let mut s = Storage::new(LayerKind::FileBacked, d.config());
        d.arm_faults(crate::fault::FaultPlan::enospc_at(10));
        let err = s.try_append(&[0u8; 64], &d).unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(s.len(), 0);
        assert_eq!(fs::read(s.file_path().unwrap()).unwrap().len(), 0);
        d.disarm_faults();
    }

    #[test]
    fn place_walks_the_chunk_lengths() {
        // 1, 2, 4, …, 64 blocks, then 64 blocks a chunk.
        let chunk_blocks = |chunk: usize| [1, 2, 4, 8, 16, 32].get(chunk).copied().unwrap_or(64);
        for block_size in [1024, 1000, 80, 64] {
            let config = DeviceConfig {
                block_size,
                ..DeviceConfig::paper_default()
            };
            let s = Storage::new(LayerKind::BlockedMemory, &config);
            let (mut chunk, mut off) = (0, 0);
            for offset in 0..300 * block_size {
                let place = s.place(offset);
                let bytes = chunk_blocks(chunk) * block_size;
                assert_eq!(
                    (place.chunk, place.off, s.chunk_room(&place)),
                    (chunk, off, bytes - off),
                    "{block_size}-byte blocks, offset {offset}"
                );
                off += 1;
                if off == bytes {
                    (chunk, off) = (chunk + 1, 0);
                }
            }
            // Block 127 opens the first chunk past the doubling ones.
            assert_eq!(s.place(127 * block_size - 1).chunk, 6);
            assert_eq!(s.place(127 * block_size).chunk, 7);
            assert_eq!(s.place(191 * block_size).chunk, 8);
        }
    }

    #[test]
    fn recycled_chunks_reach_fill_zeroed() {
        // A block size no other test uses, so the chunks this test
        // releases are the cached ones of their lengths.
        let config = DeviceConfig {
            block_size: 72,
            ..DeviceConfig::paper_default()
        };
        let d = PmDevice::new(config.clone());
        let record = 24;
        let records = 200 * 72 / record;
        let mut dirty = Storage::new(LayerKind::BlockedMemory, &config);
        for _ in 0..records {
            dirty.append(&[0xA5; 24], &d);
        }
        drop(dirty);
        let mut s = Storage::new(LayerKind::BlockedMemory, &config);
        let mut scratch = vec![0u8; record];
        for i in 0..records {
            s.append_in_place(record, &mut scratch, &d, |buf| {
                assert!(buf.iter().all(|&b| b == 0), "record {i} sees stale bytes");
                buf.fill(0xA5);
            });
        }
        let mut back = vec![0u8; records * record];
        s.read_at(0, &mut back, &mut ReadCursor::new(), &d);
        assert!(back.iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn the_cache_hands_out_the_newest_chunk_and_keeps_eight() {
        // A chunk of `capacity` bytes whose first byte is `tag`.
        let chunk = |capacity: usize, tag: u8| {
            let mut chunk = Vec::with_capacity(capacity);
            chunk.push(tag);
            chunk
        };
        let mut cache = ChunkCache(Vec::new());
        cache.release(&mut vec![chunk(10, 1), chunk(20, 2), chunk(10, 3)]);
        let newest = cache.take(10).expect("two chunks of capacity 10");
        assert_eq!((newest.capacity(), newest[0]), (10, 3));
        assert_eq!(cache.take(30), None);
        // Twelve more: only the newest eight stay, the oldest go first.
        let mut released: Vec<Vec<u8>> = (4..16).map(|tag| chunk(10, tag)).collect();
        cache.release(&mut released);
        assert!(released.is_empty());
        let tags: Vec<u8> = cache.0.iter().map(|c| c[0]).collect();
        assert_eq!(tags, (8..16).collect::<Vec<u8>>());
        assert_eq!(cache.take(20), None);
    }

    #[test]
    fn appends_never_reallocate_a_chunk() {
        // A chunk that grew past its capacity would move: a record lent
        // out of it would dangle in the borrow checker's stead, and the
        // cache would key it wrongly. Block sizes a record divides and
        // ones it does not, so records straddle chunk ends.
        for block_size in [1024, 1000, 72] {
            let config = DeviceConfig {
                block_size,
                ..DeviceConfig::paper_default()
            };
            let d = PmDevice::new(config.clone());
            let mut s = Storage::new(LayerKind::BlockedMemory, &config);
            let mut model = Vec::new();
            let mut seen: Vec<*const u8> = Vec::new();
            let mut scratch = vec![0u8; 80];
            for i in 0..6000u32 {
                let byte = (i % 251) as u8;
                match i % 3 {
                    // In place, one record.
                    0 => {
                        s.append_in_place(80, &mut scratch, &d, |buf| buf.fill(byte));
                        model.extend([byte; 80]);
                    }
                    // A bulk append of an odd length.
                    1 => {
                        s.append(&[byte; 173], &d);
                        model.extend([byte; 173]);
                    }
                    // A bulk append spanning whole chunks.
                    _ if i % 300 == 2 => {
                        let big = vec![byte; 70 * block_size];
                        s.append(&big, &d);
                        model.extend(big);
                    }
                    _ => {}
                }
                let last = s.chunks.len() - 1;
                for (c, chunk) in s.chunks.iter().enumerate() {
                    let what = format!("{block_size}-byte blocks, append {i}, chunk {c}");
                    assert_eq!(chunk.capacity(), s.chunk_bytes(c), "{what}");
                    assert!(c == last || chunk.len() == chunk.capacity(), "{what}");
                    match seen.get(c) {
                        Some(&at) => assert_eq!(chunk.as_ptr(), at, "{what} moved"),
                        None => seen.push(chunk.as_ptr()),
                    }
                }
            }
            let mut back = vec![0u8; model.len()];
            s.read_at(0, &mut back, &mut ReadCursor::new(), &d);
            assert!(back == model, "{block_size}-byte blocks");
        }
    }

    #[test]
    fn all_kinds_store_identical_bytes() {
        // Past block 127, where blocked memory's chunks stop doubling.
        let data: Vec<u8> = (0..140_000u32).map(|i| (i * 37 % 256) as u8).collect();
        for kind in LayerKind::ALL {
            let d = dev();
            let mut s = Storage::new(kind, d.config());
            // Append in uneven chunks to stress boundary logic.
            for chunk in data.chunks(173) {
                s.append(chunk, &d);
            }
            assert_eq!(s.len(), data.len(), "{kind:?}");
            let mut buf = vec![0u8; data.len()];
            s.read_at(0, &mut buf, &mut ReadCursor::new(), &d);
            assert_eq!(buf, data, "{kind:?}");
        }
    }
}
