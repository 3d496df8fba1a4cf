//! A page store: update-in-place pages with dirty-span write accounting.
//!
//! Collections ([`crate::collection::PCollection`]) are append-only —
//! the right shape for runs and partitions, but not for index nodes.
//! [`PageStore`] complements them: fixed-size pages addressed by
//! [`PageId`], where a read charges the whole page (a node lookup pulls
//! the node) and a write charges only the cachelines its byte span
//! actually touches. That asymmetry is what makes write-limited index
//! layouts measurable: an insertion that appends one entry to an
//! unsorted leaf dirties one or two cachelines, while a sorted-order
//! insertion shifts half the page and dirties everything after the
//! insertion point (Chen et al., cited by the paper as \[2\], make
//! exactly this argument for PCM B⁺-trees).

use crate::config::{cachelines, CACHELINE};
use crate::device::Pm;

/// Identifier of a page within a [`PageStore`].
pub type PageId = u32;

/// A persistent-memory page store.
///
/// Like [`crate::collection::PCollection`], a store is `Send` (its
/// device handle is an `Arc` over atomic counters), so index workloads
/// can move between worker threads; mutation still requires `&mut self`,
/// one writer at a time.
#[derive(Debug)]
pub struct PageStore {
    dev: Pm,
    page_size: usize,
    pages: Vec<Box<[u8]>>,
}

impl PageStore {
    /// Creates an empty store of `page_size`-byte pages on `dev`.
    ///
    /// # Panics
    /// Panics unless `page_size` is a positive multiple of the cacheline
    /// size.
    pub fn new(dev: &Pm, page_size: usize) -> Self {
        assert!(
            page_size > 0 && page_size.is_multiple_of(CACHELINE),
            "page size must be a positive multiple of {CACHELINE}"
        );
        Self {
            dev: dev.clone(),
            page_size,
            pages: Vec::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no pages have been allocated.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Allocates a zeroed page. Allocation itself is not charged; the
    /// first write to the page is.
    pub fn alloc(&mut self) -> PageId {
        let id = self.pages.len() as PageId;
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        id
    }

    /// Reads a whole page, charging `page_size / 64` cacheline reads.
    ///
    /// # Panics
    /// Panics if `id` was never allocated.
    pub fn read(&self, id: PageId) -> &[u8] {
        self.dev.metrics().add_reads(cachelines(self.page_size));
        &self.pages[id as usize]
    }

    /// Writes `data` at `offset` within the page, charging only the
    /// cachelines the span `[offset, offset + data.len())` touches.
    ///
    /// # Panics
    /// Panics if the span exceeds the page.
    pub fn write(&mut self, id: PageId, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.page_size,
            "write span {}..{} exceeds page size {}",
            offset,
            offset + data.len(),
            self.page_size
        );
        if data.is_empty() {
            return;
        }
        let first = offset / CACHELINE;
        let last = (offset + data.len() - 1) / CACHELINE;
        self.dev.metrics().add_writes((last - first + 1) as u64);
        self.pages[id as usize][offset..offset + data.len()].copy_from_slice(data);
    }

    /// The device this store charges.
    pub fn device(&self) -> &Pm {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PmDevice;

    #[test]
    fn read_charges_whole_page() {
        let dev = PmDevice::paper_default();
        let mut s = PageStore::new(&dev, 1024);
        let p = s.alloc();
        let before = dev.snapshot();
        let _ = s.read(p);
        assert_eq!(dev.snapshot().since(&before).cl_reads, 16);
    }

    #[test]
    fn small_write_charges_one_cacheline() {
        let dev = PmDevice::paper_default();
        let mut s = PageStore::new(&dev, 1024);
        let p = s.alloc();
        let before = dev.snapshot();
        s.write(p, 16, &[1u8; 16]);
        assert_eq!(dev.snapshot().since(&before).cl_writes, 1);
    }

    #[test]
    fn straddling_write_charges_both_lines() {
        let dev = PmDevice::paper_default();
        let mut s = PageStore::new(&dev, 1024);
        let p = s.alloc();
        let before = dev.snapshot();
        s.write(p, 60, &[1u8; 8]); // spans cachelines 0 and 1
        assert_eq!(dev.snapshot().since(&before).cl_writes, 2);
    }

    #[test]
    fn full_page_write_charges_all_lines() {
        let dev = PmDevice::paper_default();
        let mut s = PageStore::new(&dev, 512);
        let p = s.alloc();
        let before = dev.snapshot();
        s.write(p, 0, &[7u8; 512]);
        assert_eq!(dev.snapshot().since(&before).cl_writes, 8);
    }

    #[test]
    fn data_round_trips() {
        let dev = PmDevice::paper_default();
        let mut s = PageStore::new(&dev, 256);
        let a = s.alloc();
        let b = s.alloc();
        s.write(a, 10, b"hello");
        s.write(b, 0, b"world");
        assert_eq!(&s.read(a)[10..15], b"hello");
        assert_eq!(&s.read(b)[..5], b"world");
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_unaligned_page_size() {
        let dev = PmDevice::paper_default();
        let _ = PageStore::new(&dev, 100);
    }
}
