//! The per-layer charge rule against a brute-force reference.
//!
//! Random sequences of appends, `read_at` reads, record-view reads
//! (pulled views, runs, point reads through a cursor), `fsync`s and
//! `clear`s run on every layer — PMFS included at block sizes that are
//! not a multiple of the cacheline — and after every step the device's
//! counters must equal a reference that charges the layer's §3.2 rule
//! the slow way: it marks each medium granule and each call granule an
//! append or a cursor touches, one by one, and charges the first touch.
//!
//! - Medium traffic: the granule is 512-byte records on the RAM disk
//!   and the file layer and cachelines elsewhere; a write charges each
//!   granule once until the storage is cleared, a read once per cursor.
//! - Layer calls (PMFS, RAM disk, file layer only): one per call granule
//!   first touched — 512-byte records on the RAM disk and the file
//!   layer, collection blocks on PMFS — by an append, or by a read that
//!   touches a new medium granule; one per `fsync` on the file layer.
//!   Each call costs the layer's call cost in whole picoseconds.
//! - The dynamic array starts at one block's capacity and doubles it
//!   until an append fits, each doubling reading and writing the
//!   populated prefix's cachelines.

use pmem_sim::{
    DeviceConfig, IoStats, LayerKind, PCollection, Pm, PmDevice, ReadCursor, RecordBuffer,
    Storable, Storage,
};
use std::collections::HashSet;

const KINDS: [LayerKind; 5] = [
    LayerKind::BlockedMemory,
    LayerKind::Pmfs,
    LayerKind::RamDisk,
    LayerKind::DynArray,
    LayerKind::FileBacked,
];

/// Block sizes: the paper's, one no power of two, and two that are not
/// a multiple of the cacheline.
const BLOCK_SIZES: [usize; 4] = [1024, 1000, 72, 100];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn below(rng: &mut u64, n: usize) -> usize {
    (splitmix(rng) % n as u64) as usize
}

/// What one reference cursor has touched.
#[derive(Default)]
struct RefCursor {
    granules: HashSet<usize>,
    calls: HashSet<usize>,
}

/// The layer's charge rule, computed granule by granule.
struct Reference {
    kind: LayerKind,
    granule: usize,
    call_granule: usize,
    call_ps: u64,
    fsync_ps: u64,
    len: usize,
    capacity: usize,
    written: HashSet<usize>,
    appended_calls: HashSet<usize>,
    reads: u64,
    writes: u64,
    calls: u64,
    ps: u64,
}

impl Reference {
    fn new(kind: LayerKind, config: &DeviceConfig) -> Self {
        let ps = |ns: f64| (ns * 1000.0).round() as u64;
        let (granule, call_granule, call_ns) = match kind {
            LayerKind::BlockedMemory | LayerKind::DynArray => (64, config.block_size, 0.0),
            LayerKind::Pmfs => (64, config.block_size, config.pmfs_call_ns),
            LayerKind::RamDisk => (512, 512, config.ramdisk_call_ns),
            LayerKind::FileBacked => (512, 512, config.file_call_ns),
        };
        Self {
            kind,
            granule,
            call_granule,
            call_ps: ps(call_ns),
            fsync_ps: ps(config.file_call_ns),
            len: 0,
            capacity: 0,
            written: HashSet::new(),
            appended_calls: HashSet::new(),
            reads: 0,
            writes: 0,
            calls: 0,
            ps: 0,
        }
    }

    fn cachelines_per_granule(&self) -> u64 {
        (self.granule / 64) as u64
    }

    fn call(&mut self) {
        self.calls += 1;
        self.ps += self.call_ps;
    }

    fn append(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let end = self.len + n;
        if self.kind == LayerKind::DynArray {
            if self.capacity == 0 {
                self.capacity = 1024;
            }
            while self.capacity < end {
                let copied = self.len.div_ceil(64) as u64;
                self.reads += copied;
                self.writes += copied;
                self.capacity *= 2;
            }
        }
        for g in self.len / self.granule..=(end - 1) / self.granule {
            if self.written.insert(g) {
                self.writes += self.cachelines_per_granule();
            }
        }
        if self.call_ps > 0 {
            for cg in self.len / self.call_granule..=(end - 1) / self.call_granule {
                if self.appended_calls.insert(cg) {
                    self.call();
                }
            }
        }
        self.len = end;
    }

    fn read(&mut self, cursor: &mut RefCursor, offset: usize, n: usize) {
        if n == 0 {
            return;
        }
        let end = offset + n;
        let mut fresh = 0;
        for g in offset / self.granule..=(end - 1) / self.granule {
            if cursor.granules.insert(g) {
                fresh += 1;
            }
        }
        if fresh == 0 {
            return;
        }
        self.reads += fresh * self.cachelines_per_granule();
        if self.call_ps > 0 {
            for cg in offset / self.call_granule..=(end - 1) / self.call_granule {
                if cursor.calls.insert(cg) {
                    self.call();
                }
            }
        }
    }

    fn fsync(&mut self) {
        if self.kind == LayerKind::FileBacked {
            self.calls += 1;
            self.ps += self.fsync_ps;
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.written.clear();
        self.appended_calls.clear();
    }

    fn assert_matches(&self, dev: &Pm, what: &str) {
        let s: IoStats = dev.snapshot();
        let got = (
            s.cl_reads,
            s.cl_writes,
            s.calls,
            (s.software_ns * 1000.0).round() as u64,
        );
        let want = (self.reads, self.writes, self.calls, self.ps);
        assert_eq!(got, want, "{what}: (reads, writes, calls, ps)");
    }
}

fn config(block_size: usize) -> DeviceConfig {
    DeviceConfig {
        block_size,
        ..DeviceConfig::paper_default()
    }
}

/// A bare storage: appends of any length, forward reads through two
/// cursors at once, fsyncs and clears.
fn drive_storage(kind: LayerKind, block_size: usize, seed: u64) {
    let config = config(block_size);
    let dev = PmDevice::new(config.clone());
    let mut storage = Storage::new(kind, &config);
    let mut reference = Reference::new(kind, &config);
    let mut rng = seed;
    // Each cursor with its twin and the offset its next read may start
    // at (reads through one cursor only move forward).
    let mut cursors: Vec<(ReadCursor, RefCursor, usize)> = (0..2)
        .map(|_| (ReadCursor::new(), RefCursor::default(), 0))
        .collect();
    let mut buf = vec![0u8; 4096];
    for step in 0..300 {
        let what = format!("{kind:?}, {block_size}-byte blocks, seed {seed}, step {step}");
        match below(&mut rng, 20) {
            0..=7 => {
                let n = [1, 7, 63, 64, 80, 173, 511, 512, 1500, 3000][below(&mut rng, 10)];
                let byte = splitmix(&mut rng) as u8;
                storage.append(&vec![byte; n], &dev);
                reference.append(n);
            }
            8..=15 => {
                let (cursor, twin, from) = &mut cursors[below(&mut rng, 2)];
                let offset = *from + below(&mut rng, 200);
                let n = 1 + below(&mut rng, 700);
                if offset + n > storage.len() {
                    // Past the end: a fresh scan from the start.
                    (*cursor, *twin, *from) = (ReadCursor::new(), RefCursor::default(), 0);
                    continue;
                }
                storage.read_at(offset, &mut buf[..n], cursor, &dev);
                reference.read(twin, offset, n);
                *from = offset + below(&mut rng, n + 1);
            }
            16 | 17 => {
                storage.fsync(&dev).expect("fsync");
                reference.fsync();
            }
            18 => {
                storage.clear();
                reference.clear();
                for c in &mut cursors {
                    *c = (ReadCursor::new(), RefCursor::default(), 0);
                }
            }
            _ => {
                // A read that overlaps the last one: counted granules
                // are not counted again.
                let (cursor, twin, from) = &mut cursors[below(&mut rng, 2)];
                let n = 1 + below(&mut rng, 100);
                if *from + n <= storage.len() {
                    storage.read_at(*from, &mut buf[..n], cursor, &dev);
                    reference.read(twin, *from, n);
                }
            }
        }
        reference.assert_matches(&dev, &what);
    }
}

/// An `N`-byte record of opaque bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Blob<const N: usize>([u8; N]);

impl<const N: usize> Storable for Blob<N> {
    const SIZE: usize = N;

    fn write_to(&self, buf: &mut [u8]) {
        buf[..N].copy_from_slice(&self.0);
    }

    fn read_from(buf: &[u8]) -> Self {
        Blob(buf[..N].try_into().expect("N bytes"))
    }
}

/// A collection of `N`-byte records: record and bulk appends, clears,
/// and reads through views, runs, partial pulls and point reads — each
/// charged as the reference charges the same records read one by one.
fn drive_collection<const N: usize>(kind: LayerKind, block_size: usize, seed: u64) {
    let config = config(block_size);
    let dev = PmDevice::new(config.clone());
    let mut col: PCollection<Blob<N>> = PCollection::new(&dev, kind, "col");
    let mut reference = Reference::new(kind, &config);
    let mut rng = seed;
    let record = |rng: &mut u64| Blob(std::array::from_fn(|_| splitmix(rng) as u8));
    for step in 0..120 {
        let what = format!("{kind:?}, {N}-byte records, {block_size}-byte blocks, step {step}");
        let n = col.len();
        let (a, b) = {
            let (x, y) = (below(&mut rng, n + 1), below(&mut rng, n + 1));
            (x.min(y), x.max(y))
        };
        let mut cursor = RefCursor::default();
        match below(&mut rng, 12) {
            0..=2 => {
                col.append(&record(&mut rng));
                reference.append(N);
            }
            3 | 4 => {
                let mut buf = RecordBuffer::new();
                let k = 1 + below(&mut rng, 60);
                for _ in 0..k {
                    buf.push(&record(&mut rng));
                }
                col.append_buffer(&buf);
                reference.append(k * N);
            }
            5 => {
                col.range_reader(a, b).for_each_view(|_| {});
                for i in a..b {
                    reference.read(&mut cursor, i * N, N);
                }
            }
            6 => {
                col.range_reader(a, b).for_each_run(|_| {});
                for i in a..b {
                    reference.read(&mut cursor, i * N, N);
                }
            }
            7 => {
                // Pulled a few at a time, then dropped early.
                let pulled = below(&mut rng, b - a + 1);
                let mut reader = col.range_reader(a, b);
                for _ in 0..pulled {
                    reader.next_view().expect("a view");
                }
                for i in a..a + pulled {
                    reference.read(&mut cursor, i * N, N);
                }
            }
            8 | 9 => {
                // Point reads, forward, through one cursor.
                let mut read = ReadCursor::new();
                let mut i = a;
                while i < b {
                    col.get_with_cursor(i, &mut read);
                    reference.read(&mut cursor, i * N, N);
                    i += 1 + below(&mut rng, 4);
                }
            }
            10 => {
                col.clear();
                reference.clear();
            }
            _ => {
                let _ = col.reader().count();
                for i in 0..n {
                    reference.read(&mut cursor, i * N, N);
                }
            }
        }
        reference.assert_matches(&dev, &what);
    }
}

#[test]
fn bare_storage_charges_the_reference_rule() {
    for kind in KINDS {
        for block_size in BLOCK_SIZES {
            for seed in 0..3 {
                drive_storage(kind, block_size, seed * 1000 + block_size as u64);
            }
        }
    }
}

#[test]
fn record_views_charge_the_reference_rule() {
    for kind in KINDS {
        for block_size in BLOCK_SIZES {
            let seed = block_size as u64;
            drive_collection::<8>(kind, block_size, seed);
            drive_collection::<80>(kind, block_size, seed + 1);
            drive_collection::<24>(kind, block_size, seed + 2);
        }
    }
}
