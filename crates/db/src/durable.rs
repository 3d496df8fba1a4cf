//! Checkpoints and the durable-state bookkeeping behind
//! [`crate::Database::reopen`].
//!
//! A checkpoint is a full materialization of the catalog — every bound
//! table's name, key domain, and rows — stamped with the LSN of the
//! last statement it covers and sealed by a trailing CRC. It is written
//! to `checkpoint.tmp`, fsynced, and published by atomic rename, so a
//! crash mid-checkpoint leaves the previous checkpoint (and the log
//! that reaches past it) untouched.
//!
//! Recovery = load the checkpoint, replay the intact WAL records with
//! LSNs past it, then write a *fresh* checkpoint and reset the log —
//! which both bounds replay time and scrubs any torn tail without ever
//! physically truncating a file in place.
//!
//! ## Checkpoint format
//!
//! ```text
//! magic "WLCKPT1\0" (8 bytes)
//! last_lsn (u64 LE)   table_count (u32 LE)
//! per table: name_len (u16 LE) + name bytes,
//!            key_domain (u64 LE), rows (u64 LE), rows × 80-byte records
//! crc32 (u32 LE, IEEE, over every preceding byte)
//! ```
//!
//! The rows of the image are the rows as the table's collection stores
//! them, so a table crosses a checkpoint in either direction as bytes:
//! [`CheckpointWriter`] takes them a storage run at a time and
//! checksums each run as it lands, and a loaded [`CheckpointData`]
//! lends each table's rows as one slice of the file it read — no row is
//! decoded on the way out or on the way in.

use crate::error::StorageError;
use crate::wal::{crc32, le_array, Crc32};
use pmem_sim::{Pm, Storable, Storage};
use std::ops::Range;
use std::path::Path;
use wisconsin::{Record, WisconsinRecord};

/// Checkpoint magic: format name + version, 8 bytes.
const MAGIC: &[u8; 8] = b"WLCKPT1\0";

/// File name of the live checkpoint inside a database directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Staging name for checkpoint writes (published by atomic rename).
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// A checkpoint image under assembly: the header, then per table
/// [`CheckpointWriter::table`] followed by its rows as stored bytes in
/// any number of [`CheckpointWriter::rows`] pieces, then
/// [`CheckpointWriter::publish`]. The checksum runs along.
#[derive(Debug)]
pub struct CheckpointWriter {
    image: Vec<u8>,
    crc: Crc32,
    /// Tables the header announced and `table` has not yet started.
    tables_due: i64,
    /// What the image measures once every announced row is in
    /// (`usize::MAX`, which no image reaches, after an announcement
    /// that cannot be kept).
    bytes_due: usize,
}

impl CheckpointWriter {
    /// Starts an image covering statements up to `last_lsn`, of `tables`
    /// tables.
    pub fn new(last_lsn: u64, tables: u32) -> Self {
        let mut writer = Self {
            image: Vec::new(),
            crc: Crc32::new(),
            tables_due: i64::from(tables),
            bytes_due: 0,
        };
        writer.put(MAGIC);
        writer.put(&last_lsn.to_le_bytes());
        writer.put(&tables.to_le_bytes());
        writer.bytes_due = writer.image.len();
        writer
    }

    fn put(&mut self, bytes: &[u8]) {
        self.crc.update(bytes);
        self.image.extend_from_slice(bytes);
    }

    /// Starts the next table; `rows × 80` bytes of
    /// [`CheckpointWriter::rows`] must follow.
    pub fn table(&mut self, name: &str, key_domain: u64, rows: u64) {
        self.tables_due -= 1;
        let Ok(name_len) = u16::try_from(name.len()) else {
            self.bytes_due = usize::MAX;
            return;
        };
        let row_bytes = usize::try_from(rows)
            .unwrap_or(usize::MAX)
            .saturating_mul(WisconsinRecord::SIZE);
        self.bytes_due = self
            .bytes_due
            .saturating_add(2 + name.len() + 8 + 8)
            .saturating_add(row_bytes);
        // Room for the table and the trailing checksum in one step, so
        // the image is not copied while it grows; a size that cannot be
        // had fails where the rows arrive, not here.
        let _ = self.image.try_reserve(
            self.bytes_due
                .saturating_sub(self.image.len())
                .saturating_add(4),
        );
        self.put(&name_len.to_le_bytes());
        self.put(name.as_bytes());
        self.put(&key_domain.to_le_bytes());
        self.put(&rows.to_le_bytes());
    }

    /// Adds rows of the current table as the collection stores them.
    pub fn rows(&mut self, stored: &[u8]) {
        self.put(stored);
    }

    /// Seals the image, writes it (one append through the
    /// fault-injectable file layer), fsyncs, and atomically publishes
    /// it in `dir`. Returns the byte size written. An image whose
    /// tables or rows are not what its headers announced is refused
    /// before anything touches the directory.
    pub fn publish(mut self, dir: &Path, dev: &Pm) -> Result<u64, StorageError> {
        let tmp = dir.join(CHECKPOINT_TMP);
        if self.tables_due != 0 || self.bytes_due != self.image.len() {
            return Err(StorageError::at(
                tmp.display().to_string(),
                self.image.len() as u64,
                "checkpoint image does not match its table headers",
            ));
        }
        let crc = self.crc.finish();
        self.image.extend_from_slice(&crc.to_le_bytes());

        let mut storage = Storage::create_file(&tmp, dev.config()).map_err(StorageError::from)?;
        storage
            .try_append(&self.image, dev)
            .map_err(StorageError::from)?;
        storage.fsync(dev).map_err(StorageError::from)?;
        storage
            .persist_as(dir.join(CHECKPOINT_FILE))
            .map_err(StorageError::from)?;
        Ok(self.image.len() as u64)
    }
}

/// Where one table sits in a loaded checkpoint.
#[derive(Debug, PartialEq)]
struct TableSpan {
    name: String,
    key_domain: u64,
    rows: Range<usize>,
}

/// A loaded, validated checkpoint: the file's bytes and where each
/// table's rows lie in them.
#[derive(Debug, PartialEq)]
pub struct CheckpointData {
    /// LSN of the last statement this checkpoint covers; recovery
    /// replays only WAL records with larger LSNs.
    pub last_lsn: u64,
    image: Vec<u8>,
    tables: Vec<TableSpan>,
}

/// One table's full state inside a loaded checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointTable<'a> {
    /// Table name.
    pub name: &'a str,
    /// Key-domain size the planner estimates selectivities against.
    pub key_domain: u64,
    /// Every row as stored: a whole number of 80-byte records.
    pub rows: &'a [u8],
}

impl CheckpointData {
    /// The tables, in the order the checkpoint lists them (name order).
    pub fn tables(&self) -> impl Iterator<Item = CheckpointTable<'_>> {
        self.tables.iter().map(|t| CheckpointTable {
            name: &t.name,
            key_domain: t.key_domain,
            rows: self.image.get(t.rows.clone()).unwrap_or_default(),
        })
    }
}

impl<'a> CheckpointTable<'a> {
    /// The rows' keys in table order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + 'a {
        stored_keys(self.rows)
    }
}

/// The keys of rows in their stored form, in order, peeked in place:
/// the record codec is `#[inline]`, so decoding for the key alone folds
/// down to the key's loads.
pub(crate) fn stored_keys(rows: &[u8]) -> impl Iterator<Item = u64> + '_ {
    rows.chunks_exact(WisconsinRecord::SIZE)
        .map(|row| WisconsinRecord::read_from(row).key())
}

/// Loads the checkpoint in `dir`. `None` means no checkpoint exists (a
/// directory never initialized as a database). Any damage — truncation,
/// bad magic, CRC mismatch — is a typed error: checkpoints are
/// published atomically, so a bad one is real corruption, not a crash
/// artifact.
pub fn read_checkpoint(dir: &Path) -> Result<Option<CheckpointData>, StorageError> {
    let path = dir.join(CHECKPOINT_FILE);
    let display = path.display().to_string();
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::file(display, e.to_string())),
    };
    let truncated = |at: usize, what: &str| {
        StorageError::at(
            display.clone(),
            at as u64,
            format!("truncated checkpoint: {what}"),
        )
    };
    if bytes.len() < MAGIC.len() + 8 + 4 + 4 {
        return Err(truncated(bytes.len(), "shorter than an empty checkpoint"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::at(display, 0, "bad checkpoint magic"));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(le_array(&bytes[bytes.len() - 4..]));
    if crc32(body) != stored_crc {
        return Err(StorageError::at(
            display,
            (bytes.len() - 4) as u64,
            "checkpoint CRC mismatch",
        ));
    }
    let mut pos = MAGIC.len();
    let take = |pos: &mut usize, n: usize, what: &str| -> Result<&[u8], StorageError> {
        if body.len() - *pos < n {
            return Err(truncated(*pos, what));
        }
        let out = &body[*pos..*pos + n];
        *pos += n;
        Ok(out)
    };
    let last_lsn = u64::from_le_bytes(le_array(take(&mut pos, 8, "last_lsn")?));
    let table_count = u32::from_le_bytes(le_array(take(&mut pos, 4, "table count")?)) as usize;
    let mut tables = Vec::with_capacity(table_count.min(1 << 16));
    for _ in 0..table_count {
        let name_len = u16::from_le_bytes(le_array(take(&mut pos, 2, "name length")?)) as usize;
        let name = String::from_utf8(take(&mut pos, name_len, "name")?.to_vec())
            .map_err(|_| truncated(pos, "non-UTF-8 table name"))?;
        let key_domain = u64::from_le_bytes(le_array(take(&mut pos, 8, "key domain")?));
        let rows = u64::from_le_bytes(le_array(take(&mut pos, 8, "row count")?));
        // A count no file can hold must not wrap into one that fits.
        let row_bytes = usize::try_from(rows)
            .ok()
            .and_then(|rows| rows.checked_mul(WisconsinRecord::SIZE))
            .ok_or_else(|| truncated(pos, "rows"))?;
        let start = pos;
        take(&mut pos, row_bytes, "rows")?;
        tables.push(TableSpan {
            name,
            key_domain,
            rows: start..pos,
        });
    }
    if pos != body.len() {
        return Err(truncated(pos, "trailing bytes after last table"));
    }
    Ok(Some(CheckpointData {
        last_lsn,
        image: bytes,
        tables,
    }))
}

/// What [`crate::Database::reopen`] found and did. Every field is
/// deterministic for a given on-disk state, so the wlsql banner built
/// from it can be golden-tested.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True if the directory held no database and one was initialized.
    pub fresh: bool,
    /// Tables live after recovery.
    pub tables: u64,
    /// Rows live after recovery.
    pub rows: u64,
    /// WAL records replayed past the checkpoint.
    pub replayed_records: u64,
    /// Torn/incomplete WAL tail bytes dropped.
    pub dropped_wal_bytes: u64,
}

impl RecoveryReport {
    /// The one-line banner wlsql prints on open.
    pub fn banner(&self) -> String {
        if self.fresh {
            "durable: fresh database".to_string()
        } else {
            let mut line = format!(
                "durable: recovered {} tables ({} rows), replayed {} wal records",
                self.tables, self.rows, self.replayed_records
            );
            if self.dropped_wal_bytes > 0 {
                line.push_str(&format!(
                    ", dropped {} torn tail bytes",
                    self.dropped_wal_bytes
                ));
            }
            line
        }
    }
}

#[cfg(test)]
#[path = "durable_tests.rs"]
mod tests;
