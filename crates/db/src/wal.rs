//! The write-ahead log: CRC-framed logical records on the file-backed
//! layer.
//!
//! The durability contract is append-then-fsync-then-apply: a statement
//! is acknowledged only after its WAL record is framed, appended, and
//! fsynced; the in-memory catalog changes afterwards. A crash therefore
//! leaves the log holding exactly the acknowledged prefix (plus at most
//! one torn tail frame, which recovery drops), and
//! [`crate::Database::reopen`] reconstructs precisely the acknowledged
//! statements.
//!
//! ## On-disk format
//!
//! ```text
//! header:  "WLWAL1\0\0" (8 bytes)  base_lsn (u64 LE)
//! frame:   len (u32 LE)  crc32 (u32 LE, IEEE, over payload)  payload
//! ```
//!
//! Records are *logical*: `CREATE TABLE … AS WISCONSIN` logs its
//! generator parameters (the generator is deterministic), `INSERT` logs
//! the keys, `DROP` logs the name. The record at index `i` of a log has
//! LSN `base_lsn + 1 + i`.
//!
//! ## Tail policy
//!
//! Reading a log distinguishes two kinds of damage:
//!
//! * **Torn tail** — the final frame is incomplete or fails its CRC and
//!   extends to end-of-file: the expected shape of a crash mid-append.
//!   The tail is dropped and recovery proceeds.
//! * **Mid-log corruption** — a frame fails its CRC with valid bytes
//!   after it, or a payload is malformed despite a good CRC: not
//!   producible by a crash, so it surfaces as a typed
//!   [`StorageError`] (never a panic, never silent data loss).
//!
//! ## Checksum
//!
//! Frames here and checkpoints in [`crate::durable`] are sealed with the
//! CRC-32 of IEEE 802.3 ([`crc32`], [`Crc32`]). A checkpoint is the
//! whole database, checksummed once when written and once when read, so
//! the checksum is an O(database) term of every checkpoint and every
//! reopen and has to run near memory speed: it is a slicing-by-16
//! kernel — sixteen input bytes a step through sixteen 256-entry tables
//! built by `const fn` at compile time (16 KiB; the container has no
//! checksum crate, and safe Rust over tables beats a dependency) —
//! about ten times the byte-at-a-time loop it replaced, which the tests
//! keep as the oracle it must agree with on every length, alignment and
//! split. The values are the format's, unchanged.

use crate::error::StorageError;
use pmem_sim::{Pm, Storage};
use std::path::{Path, PathBuf};

/// Log-file magic: format name + version, 8 bytes.
const MAGIC: &[u8; 8] = b"WLWAL1\0\0";
/// Header length: magic + base LSN.
const HEADER_LEN: usize = 16;
/// Frame header length: payload length + CRC.
const FRAME_HEADER: usize = 8;

/// File name of the live log inside a database directory.
pub const WAL_FILE: &str = "wal.log";
/// Staging name for log resets (published by atomic rename).
pub const WAL_TMP: &str = "wal.tmp";

/// Bytes one step of the checksum kernel consumes.
const CRC_SLICES: usize = 16;

/// CRC-32 (IEEE 802.3, reflected) lookup tables for slicing-by-16, built
/// at compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the checksum register after byte `b` followed
/// by `k` zero bytes, which is what lets sixteen input bytes be folded
/// in with sixteen independent lookups instead of a sixteen-deep
/// dependency chain.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A CRC-32 (IEEE) in progress: feed the input in any number of pieces
/// with [`Crc32::update`], read the checksum with [`Crc32::finish`]. The
/// value depends on the bytes only, not on where they were split — so a
/// checkpoint is checksummed run by run while it is assembled (each run
/// still in cache from the copy) instead of in a second pass over the
/// finished image.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub const fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `data` in, sixteen bytes a step and the tail bytewise.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut steps = data.chunks_exact(CRC_SLICES);
        for s in &mut steps {
            // The register only reaches the first four bytes; the other
            // twelve lookups do not depend on the previous step.
            let w = [
                u32::from_le_bytes([s[0], s[1], s[2], s[3]]) ^ c,
                u32::from_le_bytes([s[4], s[5], s[6], s[7]]),
                u32::from_le_bytes([s[8], s[9], s[10], s[11]]),
                u32::from_le_bytes([s[12], s[13], s[14], s[15]]),
            ];
            c = 0;
            let mut k = CRC_SLICES;
            for word in w {
                for byte in word.to_le_bytes() {
                    k -= 1;
                    c ^= t[k][byte as usize];
                }
            }
        }
        for &b in steps.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed in so far.
    pub const fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// One logical WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE name AS WISCONSIN(rows, fanout)` with the
    /// generator seed — enough to regenerate the table exactly.
    Create {
        /// Table name.
        name: String,
        /// Distinct keys.
        rows: u64,
        /// Records per key.
        fanout: u64,
        /// Permutation seed.
        seed: u64,
        /// Zipf exponent of the key draw (0 = uniform). Serialized as a
        /// trailing optional field: records written before the knob
        /// existed decode as uniform, so old logs stay replayable.
        skew: f64,
    },
    /// `INSERT INTO table VALUES …` — the inserted keys.
    Insert {
        /// Target table.
        table: String,
        /// Keys inserted, in statement order.
        keys: Vec<u64>,
    },
    /// `DROP TABLE name`.
    Drop {
        /// Table name.
        name: String,
    },
}

const TAG_CREATE: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DROP: u8 = 3;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "identifier too long");
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Copies `b` into a zero-padded `N`-byte array without any fallible
/// conversion — the panic-free alternative to a fallible `try_into`
/// for fixed-width little-endian reads. Callers bound `b` to exactly
/// `N` bytes first (via [`Cursor::take`] or a checked slice); a shorter
/// input zero-pads rather than panicking.
pub(crate) fn le_array<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = *src;
    }
    a
}

/// Byte cursor over a record payload; every read is bounds-checked so
/// malformed payloads surface as `Err`, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(le_array(self.take(8)?)))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = u16::from_le_bytes(le_array(self.take(2)?)) as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "non-UTF-8 identifier".to_string())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

impl WalRecord {
    /// Serializes the record payload (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Create {
                name,
                rows,
                fanout,
                seed,
                skew,
            } => {
                buf.push(TAG_CREATE);
                put_str(&mut buf, name);
                buf.extend_from_slice(&rows.to_le_bytes());
                buf.extend_from_slice(&fanout.to_le_bytes());
                buf.extend_from_slice(&seed.to_le_bytes());
                // Trailing optional field: uniform creates keep the
                // legacy layout byte-for-byte.
                if *skew != 0.0 {
                    buf.extend_from_slice(&skew.to_bits().to_le_bytes());
                }
            }
            WalRecord::Insert { table, keys } => {
                buf.push(TAG_INSERT);
                put_str(&mut buf, table);
                buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for k in keys {
                    buf.extend_from_slice(&k.to_le_bytes());
                }
            }
            WalRecord::Drop { name } => {
                buf.push(TAG_DROP);
                put_str(&mut buf, name);
            }
        }
        buf
    }

    /// Deserializes a record payload; `Err` is a human-readable cause.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        let tag = cur.take(1)?[0];
        let rec = match tag {
            TAG_CREATE => {
                let name = cur.str()?;
                let rows = cur.u64()?;
                let fanout = cur.u64()?;
                let seed = cur.u64()?;
                let skew = if cur.remaining() > 0 {
                    f64::from_bits(cur.u64()?)
                } else {
                    0.0
                };
                if !(0.0..=4.0).contains(&skew) {
                    return Err(format!("skew {skew} out of range"));
                }
                WalRecord::Create {
                    name,
                    rows,
                    fanout,
                    seed,
                    skew,
                }
            }
            TAG_INSERT => {
                let table = cur.str()?;
                let n = u32::from_le_bytes(le_array(cur.take(4)?)) as usize;
                let mut keys = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    keys.push(cur.u64()?);
                }
                WalRecord::Insert { table, keys }
            }
            TAG_DROP => WalRecord::Drop { name: cur.str()? },
            other => return Err(format!("unknown record tag {other}")),
        };
        cur.done()?;
        Ok(rec)
    }
}

/// A parsed log: base LSN, intact records, and how much tail (if any)
/// was dropped as torn.
#[derive(Clone, Debug, PartialEq)]
pub struct WalReadout {
    /// LSN the log starts after (records begin at `base_lsn + 1`).
    pub base_lsn: u64,
    /// Intact records in append order.
    pub records: Vec<WalRecord>,
    /// Bytes dropped from the end as a torn/incomplete tail (0 = clean).
    pub dropped_tail_bytes: u64,
}

impl WalReadout {
    /// LSN of the last intact record (or `base_lsn` if none).
    pub fn last_lsn(&self) -> u64 {
        self.base_lsn + self.records.len() as u64
    }

    fn empty() -> Self {
        Self {
            base_lsn: 0,
            records: Vec::new(),
            dropped_tail_bytes: 0,
        }
    }
}

/// Parses the log at `path` under the tail policy described in the
/// module docs. A missing file reads as an empty log (a crash between
/// checkpoint publication and log creation leaves exactly that state).
pub fn read_wal(path: &Path) -> Result<WalReadout, StorageError> {
    let display = path.display().to_string();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReadout::empty()),
        Err(e) => return Err(StorageError::file(display, e.to_string())),
    };
    if bytes.len() < HEADER_LEN {
        // A header can only be cut short by a crash during initial
        // creation, before any record could have been acknowledged:
        // the committed state is empty.
        return Ok(WalReadout {
            dropped_tail_bytes: bytes.len() as u64,
            ..WalReadout::empty()
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::at(display, 0, "bad WAL magic"));
    }
    let base_lsn = u64::from_le_bytes(le_array(&bytes[8..16]));
    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    let mut dropped_tail_bytes = 0u64;
    while off < bytes.len() {
        let rem = bytes.len() - off;
        if rem < FRAME_HEADER {
            dropped_tail_bytes = rem as u64;
            break;
        }
        let len = u32::from_le_bytes(le_array(&bytes[off..off + 4])) as usize;
        let crc = u32::from_le_bytes(le_array(&bytes[off + 4..off + 8]));
        if len > rem - FRAME_HEADER {
            // Incomplete payload: the append was cut mid-frame.
            dropped_tail_bytes = rem as u64;
            break;
        }
        let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crc32(payload) != crc {
            if off + FRAME_HEADER + len == bytes.len() {
                // The damaged frame is the last thing in the file: a
                // torn tail, exactly what a kill mid-append produces.
                dropped_tail_bytes = rem as u64;
                break;
            }
            return Err(StorageError::at(
                display,
                off as u64,
                "WAL frame CRC mismatch with valid data after it (mid-log corruption)",
            ));
        }
        let rec = WalRecord::decode(payload).map_err(|cause| {
            StorageError::at(
                display.clone(),
                off as u64,
                format!("bad WAL record: {cause}"),
            )
        })?;
        records.push(rec);
        off += FRAME_HEADER + len;
    }
    Ok(WalReadout {
        base_lsn,
        records,
        dropped_tail_bytes,
    })
}

/// An open, appendable log.
#[derive(Debug)]
pub struct Wal {
    storage: Storage,
    next_lsn: u64,
}

impl Wal {
    /// Creates a fresh log in `dir` starting after `base_lsn`, staged
    /// as `wal.tmp` and published by atomic rename — the previous log
    /// stays intact until the new header is durable.
    pub fn create(dir: &Path, dev: &Pm, base_lsn: u64) -> Result<Self, StorageError> {
        let tmp = dir.join(WAL_TMP);
        let mut storage = Storage::create_file(&tmp, dev.config()).map_err(StorageError::from)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&base_lsn.to_le_bytes());
        storage
            .try_append(&header, dev)
            .map_err(StorageError::from)?;
        storage.fsync(dev).map_err(StorageError::from)?;
        storage
            .persist_as(dir.join(WAL_FILE))
            .map_err(StorageError::from)?;
        Ok(Self {
            storage,
            next_lsn: base_lsn + 1,
        })
    }

    /// Appends and fsyncs one record; on success the record is durable
    /// and its LSN assigned. Returns `(lsn, framed_bytes)`. On error the
    /// record is *not* acknowledged (the statement must fail).
    pub fn append(&mut self, record: &WalRecord, dev: &Pm) -> Result<(u64, u64), StorageError> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.storage
            .try_append(&frame, dev)
            .map_err(StorageError::from)?;
        self.storage.fsync(dev).map_err(StorageError::from)?;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok((lsn, frame.len() as u64))
    }

    /// LSN of the last acknowledged record (or the base LSN if none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Path of the log file.
    pub fn path(&self) -> PathBuf {
        self.storage
            .file_path()
            .map(Path::to_path_buf)
            .unwrap_or_default()
    }
}

#[cfg(test)]
#[path = "wal_tests.rs"]
mod tests;
