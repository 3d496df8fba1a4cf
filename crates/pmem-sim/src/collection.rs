//! Persistent collections: typed, append-only record sequences hosted on a
//! simulated persistent-memory device.
//!
//! A [`PCollection`] is the paper's *persistent collection* (Fig. 3): the
//! unit the runtime algorithms read from and offload to. Records are
//! fixed-width ([`Storable`]), appended sequentially, and scanned through
//! forward-only readers whose cacheline traffic is charged to the owning
//! device.
//!
//! The unit a scan hands out is the record's *stored bytes*
//! ([`RecordReader::next_view`]): a consumer decodes only what it keeps
//! ([`RecordView::get`]) and moves the rest as bytes
//! ([`PCollection::append_bytes`], [`RecordBuffer::push_bytes`]), so a
//! record that is only moved is never decoded. Every byte handed out
//! this way has been charged; uncharged byte access stays private to
//! this crate.

use crate::config::cachelines;
use crate::device::Pm;
use crate::layer::{LayerKind, Place, ReadCursor, Storage};
use std::marker::PhantomData;

/// A fixed-width record that can live in persistent memory.
///
/// Implementations must round-trip exactly: `read_from(write_to(r)) == r`.
pub trait Storable: Copy {
    /// Serialized size in bytes.
    const SIZE: usize;

    /// Serializes into `buf` (exactly `SIZE` bytes).
    fn write_to(&self, buf: &mut [u8]);

    /// Deserializes from `buf` (exactly `SIZE` bytes).
    fn read_from(buf: &[u8]) -> Self;
}

impl Storable for u64 {
    const SIZE: usize = 8;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"))
    }
}

impl Storable for (u64, u64) {
    const SIZE: usize = 16;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.0.to_le_bytes());
        buf[8..16].copy_from_slice(&self.1.to_le_bytes());
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        (
            u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        )
    }
}

/// A typed persistent collection of `R` records.
#[derive(Debug)]
pub struct PCollection<R: Storable> {
    name: String,
    dev: Pm,
    storage: Storage,
    n_records: usize,
    scratch: Vec<u8>,
    /// Write-range ledger of the access-discipline race auditor
    /// ([`crate::audit`]); debug builds only.
    #[cfg(debug_assertions)]
    write_audit: crate::audit::WriteAudit,
    _marker: PhantomData<R>,
}

impl<R: Storable> PCollection<R> {
    /// Creates an empty collection named `name` on `dev` using the given
    /// persistence-layer implementation.
    pub fn new(dev: &Pm, kind: LayerKind, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            dev: dev.clone(),
            storage: Storage::new(kind, dev.config()),
            n_records: 0,
            scratch: vec![0u8; R::SIZE],
            #[cfg(debug_assertions)]
            write_audit: crate::audit::WriteAudit::default(),
            _marker: PhantomData,
        }
    }

    /// Collection name (unique identifiers are the runtime's only
    /// assumption about collections, §3.1).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Persistence-layer implementation backing this collection.
    pub fn kind(&self) -> LayerKind {
        self.storage.kind()
    }

    /// The device this collection is charged to.
    pub fn device(&self) -> &Pm {
        &self.dev
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// True if the collection holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Size in bytes.
    pub fn bytes(&self) -> usize {
        self.storage.len()
    }

    /// Size in the paper's buffer units (cachelines).
    pub fn buffers(&self) -> u64 {
        cachelines(self.storage.len())
    }

    /// Appends one record, charging writes to the device. The record
    /// serializes straight into the tail of the storage.
    pub fn append(&mut self, record: &R) {
        self.storage
            .append_in_place(R::SIZE, &mut self.scratch, &self.dev, |buf| {
                record.write_to(buf);
            });
        self.n_records += 1;
        #[cfg(debug_assertions)]
        self.note_write(1, crate::span::thread_id());
    }

    /// Appends one record given as its stored bytes (a
    /// [`RecordView::bytes`] of another collection of `R`), charged and
    /// audited exactly as [`PCollection::append`] of the
    /// decoded record would be — the way to move a record without a
    /// decode → encode round trip.
    ///
    /// # Panics
    /// Panics unless `bytes` is exactly `R::SIZE` long.
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), R::SIZE, "append_bytes takes one record");
        self.storage.append(bytes, &self.dev);
        self.n_records += 1;
        #[cfg(debug_assertions)]
        self.note_write(1, crate::span::thread_id());
    }

    /// Appends one record given as its stored bytes in two parts, `head`
    /// then `tail` (a join pair as its left record's bytes and its right
    /// record's), charged and audited exactly as
    /// [`PCollection::append`] of the whole record would be: the parts
    /// are copied straight into the tail of the storage.
    ///
    /// # Panics
    /// Panics unless the parts are `R::SIZE` bytes together.
    pub fn append_parts(&mut self, head: &[u8], tail: &[u8]) {
        assert_eq!(
            head.len() + tail.len(),
            R::SIZE,
            "append_parts takes one record"
        );
        self.storage
            .append_in_place(R::SIZE, &mut self.scratch, &self.dev, |buf| {
                let (front, back) = buf.split_at_mut(head.len());
                front.copy_from_slice(head);
                back.copy_from_slice(tail);
            });
        self.n_records += 1;
        #[cfg(debug_assertions)]
        self.note_write(1, crate::span::thread_id());
    }

    /// Records the last `records` records as written by thread `owner`
    /// in the race auditor's ledger.
    #[cfg(debug_assertions)]
    fn note_write(&mut self, records: usize, owner: u64) {
        self.write_audit
            .note(&self.name, self.n_records - records, self.n_records, owner);
    }

    /// Appends every record in `records`.
    pub fn extend_from_slice(&mut self, records: &[R]) {
        for r in records {
            self.append(r);
        }
    }

    /// Appends a pre-serialized batch of records in one storage append.
    ///
    /// This is the flush half of the parallel executors' output path:
    /// workers serialize their partition's output into a
    /// [`RecordBuffer`] off the critical section, and the coordinating
    /// thread lands the bytes here in deterministic partition order. The
    /// charged traffic telescopes to exactly what the same records
    /// appended one at a time would cost on the granular layers (writes
    /// and calls are both ceil-delta accounted); the dynamic-array layer
    /// treats the batch as a single reserve-and-insert, as a bulk
    /// `vector` insertion would.
    pub fn append_buffer(&mut self, buf: &RecordBuffer<R>) {
        if buf.is_empty() {
            return;
        }
        self.storage.append(&buf.bytes, &self.dev);
        self.n_records += buf.n_records;
        // A bulk flush is an accounting boundary: publish this thread's
        // pending shards so coordinator-side snapshots taken right after
        // landing a batch observe it.
        crate::flush_thread_accounting();
        // The flushed range belongs to the thread that *filled* the
        // buffer (a worker), not the one landing it (the coordinator).
        #[cfg(debug_assertions)]
        self.note_write(
            buf.n_records,
            buf.owner.unwrap_or_else(crate::span::thread_id),
        );
    }

    /// A fresh forward-only reader positioned at the first record. Each
    /// reader re-counts the cachelines it touches, so creating a second
    /// reader models the rescans lazy algorithms pay for.
    pub fn reader(&self) -> RecordReader<'_, R> {
        self.range_reader(0, self.n_records)
    }

    /// A reader over records `[start, end)` — used by segment algorithms
    /// that process a contiguous slice of the input. Seeking to `start`
    /// is free (the medium is byte-addressable); only touched cachelines
    /// are charged.
    ///
    /// # Panics
    /// Panics if `start > end` or `end` exceeds the collection length.
    pub fn range_reader(&self, start: usize, end: usize) -> RecordReader<'_, R> {
        assert!(
            start <= end && end <= self.n_records,
            "bad range {start}..{end}"
        );
        RecordReader {
            col: self,
            next_record: start,
            end,
            cursor: ReadCursor::new(),
            place: self.storage.place(start * R::SIZE),
            last: None,
            scratch: Vec::new(),
        }
    }

    /// Reads the record at `idx` through an ad-hoc cursor (charged as an
    /// isolated random access).
    pub fn get(&self, idx: usize) -> R {
        let mut cursor = ReadCursor::new();
        self.get_with_cursor(idx, &mut cursor)
    }

    /// Reads the record at `idx` through a caller-held cursor, so
    /// forward sequences of point reads are charged like a scan (records
    /// sharing a cacheline count it once). Used by iterator-style
    /// consumers that cannot hold a borrowing [`RecordReader`].
    pub fn get_with_cursor(&self, idx: usize, cursor: &mut ReadCursor) -> R {
        assert!(
            idx < self.n_records,
            "record {idx} out of {}",
            self.n_records
        );
        let offset = idx * R::SIZE;
        self.storage
            .charge_read(offset, R::SIZE, 1, cursor, &self.dev);
        let mut place = self.storage.place(offset);
        R::read_from(self.storage.bytes_at(&mut place, R::SIZE, &mut Vec::new()))
    }

    /// Removes all records; write accounting restarts from zero.
    pub fn clear(&mut self) {
        self.storage.clear();
        self.n_records = 0;
    }

    /// Drains the collection into a DRAM vector **without** charging reads
    /// — test/harness convenience for verifying contents out-of-band.
    pub fn to_vec_uncounted(&self) -> Vec<R> {
        self.range_to_vec_uncounted(0, self.n_records)
    }

    /// Reads records `[start, end)` into a DRAM vector **without**
    /// charging reads — the result-delivery path streaming consumers use
    /// to hand batches to the client outside the simulated cost model
    /// (the run that *produced* the collection was already counted).
    pub fn range_to_vec_uncounted(&self, start: usize, end: usize) -> Vec<R> {
        let _pause = self.dev.metrics().pause();
        let scan = self.range_reader(start, end);
        let mut records = Vec::with_capacity(scan.remaining());
        scan.for_each_view(|r| records.push(r.get()));
        records
    }

    /// Lends every record's stored bytes to `visit`, a run at a time
    /// ([`RecordReader::for_each_run`]), **without** charging reads — how
    /// a checkpoint copies a table out: as stored, never decoded, and
    /// outside the cost model like the load that staged it.
    pub fn for_each_run_uncounted(&self, visit: impl FnMut(&[u8])) {
        let _pause = self.dev.metrics().pause();
        self.reader().for_each_run(visit);
    }

    /// Appends whole records given as their stored bytes in one storage
    /// append, **without** charging writes — how recovery lands a
    /// checkpointed table. Leaves the collection exactly as
    /// [`PCollection::extend_uncounted`] of the decoded records would.
    ///
    /// # Panics
    /// Panics unless `bytes` is a whole number of records.
    pub fn extend_bytes_uncounted(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len() % R::SIZE, 0, "whole records only");
        let dev = self.dev.clone();
        let _pause = dev.metrics().pause();
        self.storage.append(bytes, &dev);
        let records = bytes.len() / R::SIZE;
        self.n_records += records;
        #[cfg(debug_assertions)]
        self.note_write(records, crate::span::thread_id());
    }

    /// Builds a collection from `records` **without** charging writes.
    ///
    /// The paper factors the cost of loading input data out of its reported
    /// timings ("our tests did not perform any disk I/O apart from the
    /// necessary for loading the data before processing, which we have
    /// factored out", §4); experiment inputs are staged through this
    /// constructor so only the algorithm's own traffic is measured.
    pub fn from_records_uncounted(
        dev: &Pm,
        kind: LayerKind,
        name: impl Into<String>,
        records: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut col = Self::new(dev, kind, name);
        col.extend_uncounted(records);
        col
    }

    /// Appends `records` in place **without** charging writes — the
    /// ingest path of an already-staged table: rows a statement adds are
    /// load traffic exactly like the rows the table was created with, so
    /// they extend the collection the way
    /// [`PCollection::from_records_uncounted`] filled it.
    pub fn extend_uncounted(&mut self, records: impl IntoIterator<Item = R>) {
        let dev = self.dev.clone();
        let _pause = dev.metrics().pause();
        for r in records {
            self.append(&r);
        }
    }
}

/// A DRAM staging buffer of serialized records, built by parallel
/// workers and flushed into a [`PCollection`] with
/// [`PCollection::append_buffer`].
///
/// Buffer contents live in (unbudgeted) DRAM and charge nothing until
/// flushed; serializing in the worker keeps the coordinating thread's
/// flush a single bulk copy.
#[derive(Debug)]
pub struct RecordBuffer<R: Storable> {
    bytes: Vec<u8>,
    n_records: usize,
    /// Profiler id of the thread that first pushed into this buffer —
    /// the range's owner when it lands ([`crate::audit`]); debug only.
    #[cfg(debug_assertions)]
    owner: Option<u64>,
    _marker: PhantomData<R>,
}

impl<R: Storable> Default for RecordBuffer<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Storable> RecordBuffer<R> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty buffer with room for `records` records — for
    /// callers that know a bound (a morsel's or segment's length), so the
    /// buffer does not re-allocate its way up to it.
    pub fn with_capacity(records: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(records * R::SIZE),
            n_records: 0,
            #[cfg(debug_assertions)]
            owner: None,
            _marker: PhantomData,
        }
    }

    /// Serializes one record onto the end of the buffer.
    pub fn push(&mut self, record: &R) {
        #[cfg(debug_assertions)]
        self.note_owner();
        let start = self.bytes.len();
        self.bytes.resize(start + R::SIZE, 0);
        record.write_to(&mut self.bytes[start..]);
        self.n_records += 1;
    }

    /// Copies one record given as its stored bytes (a
    /// [`RecordView::bytes`] of a collection of `R`) onto the end of the
    /// buffer — [`RecordBuffer::push`] without the decode → encode round
    /// trip.
    ///
    /// # Panics
    /// Panics unless `bytes` is exactly `R::SIZE` long.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), R::SIZE, "push_bytes takes one record");
        #[cfg(debug_assertions)]
        self.note_owner();
        self.bytes.extend_from_slice(bytes);
        self.n_records += 1;
    }

    /// Copies one record given as its stored bytes in two parts, `head`
    /// then `tail`, onto the end of the buffer — how a join lands a pair
    /// as its two records' bytes, neither decoded.
    ///
    /// # Panics
    /// Panics unless the parts are `R::SIZE` bytes together.
    pub fn push_parts(&mut self, head: &[u8], tail: &[u8]) {
        assert_eq!(
            head.len() + tail.len(),
            R::SIZE,
            "push_parts takes one record"
        );
        #[cfg(debug_assertions)]
        self.note_owner();
        self.bytes.extend_from_slice(head);
        self.bytes.extend_from_slice(tail);
        self.n_records += 1;
    }

    /// Claims the buffer for the calling thread, or panics if another
    /// thread already filled it.
    #[cfg(debug_assertions)]
    fn note_owner(&mut self) {
        let me = crate::span::thread_id();
        match self.owner {
            None => self.owner = Some(me),
            Some(owner) if owner != me => panic!(
                "race auditor: RecordBuffer filled by threads {owner} and {me}; \
                 a staging buffer belongs to exactly one worker"
            ),
            Some(_) => {}
        }
    }

    /// The buffered records' stored bytes, one record at a time.
    pub fn records(&self) -> std::slice::ChunksExact<'_, u8> {
        self.bytes.chunks_exact(R::SIZE)
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }
}

/// One record as stored: the bytes a scan lends out
/// ([`RecordReader::next_view`]), already charged, decoded only on
/// request.
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'a, R: Storable> {
    bytes: &'a [u8],
    _marker: PhantomData<R>,
}

impl<'a, R: Storable> RecordView<'a, R> {
    /// The record's `R::SIZE` stored bytes.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Decodes the record.
    #[inline]
    pub fn get(&self) -> R {
        R::read_from(self.bytes)
    }
}

/// Forward-only record iterator over a [`PCollection`].
#[derive(Debug)]
pub struct RecordReader<'a, R: Storable> {
    col: &'a PCollection<R>,
    next_record: usize,
    end: usize,
    cursor: ReadCursor,
    /// Where the next record's bytes start.
    place: Place,
    /// Where the record [`RecordReader::next_view`] handed out last
    /// starts; `None` before the first.
    last: Option<Place>,
    /// Assembles the records that straddle two storage chunks; empty
    /// until the first one.
    scratch: Vec<u8>,
}

impl<'a, R: Storable> RecordReader<'a, R> {
    /// Index of the record the next call to `next` will return.
    pub fn position(&self) -> usize {
        self.next_record
    }

    /// Remaining record count.
    pub fn remaining(&self) -> usize {
        self.end - self.next_record
    }

    /// Lends the next record's stored bytes, charging the read exactly
    /// as [`Iterator::next`] does (which is this plus a decode): a slice
    /// straight into the storage, or the reader's own scratch for a
    /// record that straddles two storage chunks.
    #[inline]
    pub fn next_view(&mut self) -> Option<RecordView<'_, R>> {
        if self.next_record >= self.end {
            return None;
        }
        let col = self.col;
        let offset = self.next_record * R::SIZE;
        col.storage
            .charge_read(offset, R::SIZE, 1, &mut self.cursor, &col.dev);
        self.next_record += 1;
        self.last = Some(self.place);
        Some(RecordView {
            bytes: col
                .storage
                .bytes_at(&mut self.place, R::SIZE, &mut self.scratch),
            _marker: PhantomData,
        })
    }

    /// Lends the record the last [`RecordReader::next_view`] handed out
    /// once more — it was charged then and is not charged again; `None`
    /// before the first. This is what lets a merge cursor keep a run's
    /// head between calls without copying it out: the bytes stay where
    /// they are (the storage, or the reader's scratch for a record that
    /// straddles two storage chunks) until the reader moves on.
    #[inline]
    pub fn last_view(&self) -> Option<RecordView<'_, R>> {
        let last = self.last?;
        let bytes = match self.col.storage.contiguous_at(&last, R::SIZE) {
            Some(bytes) => bytes,
            None => self.scratch.get(..R::SIZE)?,
        };
        Some(RecordView {
            bytes,
            _marker: PhantomData,
        })
    }

    /// Lends the remaining records to `visit` a *run* at a time, in
    /// order: a run is the maximal sequence of whole records contiguous
    /// in one storage chunk (the rest of a chunk of up to 64 blocks on
    /// blocked memory, the rest of the range elsewhere), handed out as
    /// one slice of `k · R::SIZE` bytes and charged in one step. A record that straddles two chunks is a run of its own,
    /// assembled in the reader's scratch.
    ///
    /// What a full scan charges this way is, counter for counter, what
    /// it charges record by record through [`RecordReader::next_view`].
    /// Only the order differs: a run's records are charged before the
    /// first of them is visited. That is sound here because the scan is
    /// consumed inside this call; a caller that may stop early, or that
    /// holds its reader across calls, pulls with `next_view`, which
    /// charges each record as it is handed out.
    #[inline]
    pub fn for_each_run(mut self, mut visit: impl FnMut(&[u8])) {
        let col = self.col;
        while self.next_record < self.end {
            let whole = col.storage.chunk_room(&self.place) / R::SIZE;
            let records = whole.clamp(1, self.end - self.next_record);
            col.storage.charge_read(
                self.next_record * R::SIZE,
                R::SIZE,
                records,
                &mut self.cursor,
                &col.dev,
            );
            self.next_record += records;
            visit(
                col.storage
                    .bytes_at(&mut self.place, records * R::SIZE, &mut self.scratch),
            );
        }
    }

    /// Lends every remaining record to `visit`, in order — the records
    /// of [`RecordReader::for_each_run`], one view each (views borrow
    /// the scan, so this cannot be an [`Iterator`]).
    #[inline]
    pub fn for_each_view(self, mut visit: impl FnMut(RecordView<'_, R>)) {
        self.for_each_run(|run| {
            for bytes in run.chunks_exact(R::SIZE) {
                visit(RecordView {
                    bytes,
                    _marker: PhantomData,
                });
            }
        });
    }
}

impl<'a, R: Storable> Iterator for RecordReader<'a, R> {
    type Item = R;

    #[inline]
    fn next(&mut self) -> Option<R> {
        self.next_view().map(|v| v.get())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl<'a, R: Storable> ExactSizeIterator for RecordReader<'a, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PmDevice;

    #[test]
    fn append_then_scan_roundtrips() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        for i in 0..1000u64 {
            c.append(&(i * 7));
        }
        let read: Vec<u64> = c.reader().collect();
        assert_eq!(read, (0..1000u64).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn buffers_match_ceil_bytes_over_cacheline() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        for i in 0..100u64 {
            c.append(&i);
        }
        assert_eq!(c.bytes(), 800);
        assert_eq!(c.buffers(), 13); // ceil(800/64)
    }

    #[test]
    fn full_scan_costs_len_in_buffers() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        for i in 0..1000u64 {
            c.append(&i);
        }
        let before = dev.snapshot();
        let _: Vec<u64> = c.reader().collect();
        assert_eq!(dev.snapshot().since(&before).cl_reads, c.buffers());
    }

    #[test]
    fn two_readers_double_the_read_traffic() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        for i in 0..512u64 {
            c.append(&i);
        }
        let before = dev.snapshot();
        let _: Vec<u64> = c.reader().collect();
        let _: Vec<u64> = c.reader().collect();
        assert_eq!(dev.snapshot().since(&before).cl_reads, 2 * c.buffers());
    }

    #[test]
    fn get_fetches_by_index() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::Pmfs, "t");
        for i in 0..64u64 {
            c.append(&(i * i));
        }
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(7), 49);
        assert_eq!(c.get(63), 63 * 63);
    }

    #[test]
    fn tuple_records_roundtrip() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<(u64, u64)>::new(&dev, LayerKind::DynArray, "t");
        c.append(&(1, 2));
        c.append(&(u64::MAX, 0));
        let v: Vec<(u64, u64)> = c.reader().collect();
        assert_eq!(v, vec![(1, 2), (u64::MAX, 0)]);
    }

    #[test]
    fn to_vec_uncounted_leaves_counters_unchanged() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::RamDisk, "t");
        for i in 0..100u64 {
            c.append(&i);
        }
        let before = dev.snapshot();
        let v = c.to_vec_uncounted();
        assert_eq!(v.len(), 100);
        assert_eq!(dev.snapshot(), before);
    }

    #[test]
    fn extend_uncounted_appends_in_place_and_charges_nothing() {
        for kind in [LayerKind::BlockedMemory, LayerKind::FileBacked] {
            let dev = PmDevice::paper_default();
            let mut c = PCollection::from_records_uncounted(&dev, kind, "t", 0..100u64);
            c.extend_uncounted(100..107u64);
            assert_eq!(dev.snapshot(), crate::IoStats::default(), "{kind:?}");
            assert_eq!(c.to_vec_uncounted(), (0..107u64).collect::<Vec<_>>());
            // Indistinguishable from a collection staged in one go: a
            // counted append afterwards is charged the same on both.
            let twin_dev = PmDevice::paper_default();
            let mut twin = PCollection::from_records_uncounted(&twin_dev, kind, "t", 0..107u64);
            for k in 107..140u64 {
                c.append(&k);
                twin.append(&k);
            }
            assert_eq!(dev.snapshot(), twin_dev.snapshot(), "{kind:?}");
        }
    }

    #[test]
    fn reader_position_tracks_records() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        for i in 0..10u64 {
            c.append(&i);
        }
        let mut r = c.reader();
        assert_eq!(r.position(), 0);
        r.next();
        r.next();
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 8);
    }

    /// An 80-byte record: does not divide the 1024-byte block, the
    /// 64-byte cacheline or the 512-byte file record, so appends keep
    /// landing across all three boundaries.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Wide([u64; 10]);

    impl Storable for Wide {
        const SIZE: usize = 80;

        fn write_to(&self, buf: &mut [u8]) {
            for (chunk, a) in buf.chunks_exact_mut(8).zip(self.0) {
                chunk.copy_from_slice(&a.to_le_bytes());
            }
        }

        fn read_from(buf: &[u8]) -> Self {
            let mut attrs = buf
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
            Wide(std::array::from_fn(|_| attrs.next().expect("80 bytes")))
        }
    }

    #[test]
    fn stored_bytes_cross_uncounted_and_land_as_the_records_would() {
        let records: Vec<Wide> = (0..333u64)
            .map(|i| Wide(std::array::from_fn(|a| i * 1000 + a as u64)))
            .collect();
        for kind in [
            LayerKind::BlockedMemory,
            LayerKind::Pmfs,
            LayerKind::RamDisk,
            LayerKind::DynArray,
            LayerKind::FileBacked,
        ] {
            // Out of one collection a run at a time, as a checkpoint
            // copies a table; into another in one piece, as recovery
            // lands it. Neither side is charged.
            let dev = PmDevice::paper_default();
            let src = PCollection::from_records_uncounted(&dev, kind, "src", records.clone());
            let mut image = Vec::new();
            let mut runs = 0;
            src.for_each_run_uncounted(|run| {
                assert_eq!(run.len() % Wide::SIZE, 0, "{kind:?}: whole records");
                image.extend_from_slice(run);
                runs += 1;
            });
            assert!(runs < records.len(), "{kind:?}: runs, not records");
            let mut landed = PCollection::<Wide>::new(&dev, kind, "dst");
            landed.extend_bytes_uncounted(&image);
            assert_eq!(dev.snapshot(), crate::IoStats::default(), "{kind:?}");
            assert_eq!(landed.to_vec_uncounted(), records, "{kind:?}");

            // Indistinguishable afterwards from the table staged record
            // by record: counted appends and a scan cost the same.
            let twin_dev = PmDevice::paper_default();
            let mut twin =
                PCollection::from_records_uncounted(&twin_dev, kind, "dst", records.clone());
            for r in &records[..40] {
                landed.append(r);
                twin.append(r);
            }
            assert_eq!(landed.reader().count(), twin.reader().count());
            assert_eq!(dev.snapshot(), twin_dev.snapshot(), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "whole records only")]
    fn extend_bytes_uncounted_rejects_a_partial_record() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        c.extend_bytes_uncounted(&[0u8; 12]);
    }

    #[test]
    fn append_buffer_charges_like_per_record_appends() {
        let records: Vec<Wide> = (0..200u64)
            .map(|i| Wide(std::array::from_fn(|a| i * 1000 + a as u64)))
            .collect();
        for kind in [
            LayerKind::BlockedMemory,
            LayerKind::Pmfs,
            LayerKind::RamDisk,
            LayerKind::DynArray,
            LayerKind::FileBacked,
        ] {
            // The stored bytes come from views of a staged source, on its
            // own device so its reads stay out of the comparison.
            let ds = PmDevice::paper_default();
            let src = PCollection::from_records_uncounted(
                &ds,
                LayerKind::BlockedMemory,
                "src",
                records.iter().copied(),
            );
            let mut views = src.reader();
            // `moved` mixes the byte-level calls (whole records and records
            // in two parts) into the typed ones;
            // `typed` is the same call shape with typed calls only;
            // `single` appends every record on its own.
            let d1 = PmDevice::paper_default();
            let mut moved = PCollection::<Wide>::new(&d1, kind, "col");
            let d2 = PmDevice::paper_default();
            let mut typed = PCollection::<Wide>::new(&d2, kind, "col");
            let d3 = PmDevice::paper_default();
            let mut single = PCollection::<Wide>::new(&d3, kind, "col");
            // Interleave plain and buffered appends so batch boundaries
            // land mid-cacheline and mid-call-granule.
            let mut rest = records.iter();
            for round in 0..5 {
                for i in 0..3 {
                    let view = views.next_view().expect("source record");
                    match i {
                        0 => moved.append_bytes(view.bytes()),
                        1 => moved.append(&view.get()),
                        _ => {
                            let (head, tail) = view.bytes().split_at(8 * (1 + round));
                            moved.append_parts(head, tail);
                        }
                    }
                    let r = rest.next().expect("source record");
                    typed.append(r);
                    single.append(r);
                }
                let mut mixed = RecordBuffer::new();
                let mut plain = RecordBuffer::with_capacity(37);
                for i in 0..37 {
                    let view = views.next_view().expect("source record");
                    match i % 3 {
                        0 => mixed.push(&view.get()),
                        1 => mixed.push_bytes(view.bytes()),
                        _ => {
                            let (head, tail) = view.bytes().split_at(i % Wide::SIZE);
                            mixed.push_parts(head, tail);
                        }
                    }
                    let r = rest.next().expect("source record");
                    plain.push(r);
                    single.append(r);
                }
                assert_eq!(mixed.len(), plain.len());
                moved.append_buffer(&mixed);
                typed.append_buffer(&plain);
            }
            // Byte-level and typed calls are interchangeable on every
            // layer: same bytes, counters and host I/O.
            assert_eq!(moved.to_vec_uncounted(), records, "{kind:?}");
            assert_eq!(typed.to_vec_uncounted(), records, "{kind:?}");
            assert_eq!(d1.snapshot(), d2.snapshot(), "{kind:?}");
            assert_eq!(
                moved.storage.file_stats(),
                typed.storage.file_stats(),
                "{kind:?}"
            );
            // A batch costs what its records cost one at a time — on the
            // granular layers; the dynamic array reserves once per batch
            // and the file layer issues one write per call.
            if !matches!(kind, LayerKind::DynArray | LayerKind::FileBacked) {
                assert_eq!(single.to_vec_uncounted(), records, "{kind:?}");
                assert_eq!(d1.snapshot(), d3.snapshot(), "{kind:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "takes one record")]
    fn two_part_appends_reject_a_wrong_length() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<(u64, u64)>::new(&dev, LayerKind::BlockedMemory, "t");
        c.append_parts(&[0u8; 8], &[0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "takes one record")]
    fn byte_level_appends_reject_a_wrong_length() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        c.append_bytes(&[0u8; 16]);
    }

    #[test]
    fn clear_empties_collection() {
        let dev = PmDevice::paper_default();
        let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "t");
        c.append(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.reader().count(), 0);
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use crate::device::PmDevice;
    use crate::layer::LayerKind;

    /// Software time on the device counters is exact however the charges
    /// are grouped and whatever order the shards merge in.
    #[test]
    fn breakdown_software_time_is_exact_under_any_grouping_and_merge_order() {
        // 100 ps a call: 0.1 ns has no exact `f64`, so software time
        // summed in floats differs in its last bits between one charge
        // per record, one per run, and four shards merged in whatever
        // order their threads finish.
        const BLOCKS: usize = 40;
        let config = crate::DeviceConfig {
            pmfs_call_ns: 0.1,
            ..crate::DeviceConfig::paper_default()
        };
        let per_block = config.block_size / u64::SIZE;
        let records = BLOCKS * per_block;
        let stage = |blocks: usize| {
            let dev = PmDevice::new(config.clone());
            let keys = 0..(blocks * per_block) as u64;
            let col = PCollection::from_records_uncounted(&dev, LayerKind::Pmfs, "t", keys);
            (dev, col)
        };
        // Earlier traffic of the scanning thread, on some other device.
        let advance_ledger = |blocks: usize| {
            let (_dev, col) = stage(blocks);
            assert_eq!(col.reader().count(), col.len());
        };
        let scan = |how: &(dyn Fn(&PCollection<u64>) + Sync)| {
            let (dev, col) = stage(BLOCKS);
            how(&col);
            dev.snapshot()
        };
        let by_record = scan(&|col| {
            advance_ledger(1);
            assert_eq!(col.reader().count(), records);
        });
        let by_run = scan(&|col| {
            advance_ledger(7);
            col.reader().for_each_view(|_| {});
        });
        // Quarters cut at block boundaries, so the four cursors together
        // touch every cacheline and block exactly once.
        let by_threads = scan(&|col| {
            std::thread::scope(|s| {
                for q in 0..4 {
                    s.spawn(move || {
                        advance_ledger(3 * q + 1);
                        let quarter = col.range_reader(q * records / 4, (q + 1) * records / 4);
                        assert_eq!(quarter.count(), records / 4);
                        crate::flush_thread_shards();
                    });
                }
            });
        });
        assert_eq!(by_record.calls, BLOCKS as u64);
        assert_eq!(by_record.software_ns, BLOCKS as f64 * 100.0 / 1000.0);
        assert_eq!(by_record, by_run);
        assert_eq!(by_record, by_threads);
    }
}
