//! The view and run paths are the `read_at` path, byte for byte and
//! count for count: for every layer, record size, block size and scan
//! range, the bytes [`RecordReader::next_view`] (and `last_view` after
//! it), `for_each_view` and `for_each_run` lend, the records `next()` and
//! [`PCollection::get_with_cursor`] decode, and everything they charge —
//! device counters and the thread ledger — equal a twin scan driven record by record through
//! [`Storage::read_at`], the way the reader worked before views. The
//! pull path (`next_view`, `next()`) additionally charges nothing ahead:
//! dropped after `n` records it has charged what the twin charged for
//! those `n`.

use pmem_sim::{
    thread_stats, DeviceConfig, IoStats, LayerKind, PCollection, Pm, PmDevice, ReadCursor,
    Storable, Storage,
};

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

const KINDS: [LayerKind; 5] = [
    LayerKind::BlockedMemory,
    LayerKind::Pmfs,
    LayerKind::RamDisk,
    LayerKind::DynArray,
    LayerKind::FileBacked,
];

/// Records per collection: several blocks even at 8 bytes a record.
const RECORDS: usize = 300;

/// Blocks a deep collection reaches: past block 127, where blocked
/// memory's chunks stop doubling.
const DEEP_BLOCKS: usize = 200;

/// The blocked-memory chunk holding block `block`, by walking the chunk
/// lengths: 1, 2, 4, …, 64 blocks, then 64 blocks a chunk.
fn chunk_of(block: usize) -> usize {
    let (mut chunk, mut end) = (0, 1);
    while end <= block {
        chunk += 1;
        end += 1 << chunk.min(6);
    }
    chunk
}

/// Prefix lengths of the early-drop check: past the first block boundary
/// at every record size (128 eight-byte records fill a 1024-byte block).
const PREFIX_WINDOW: usize = 140;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything one scan charged: device counters and this thread's
/// ledger.
#[derive(Debug, PartialEq)]
struct Charged {
    device: IoStats,
    thread: IoStats,
}

/// Runs `scan` against a zeroed `dev` and reports what it charged.
fn charged(dev: &Pm, scan: impl FnOnce()) -> Charged {
    dev.metrics().reset();
    let before = thread_stats();
    scan();
    Charged {
        thread: thread_stats().since(&before),
        device: dev.snapshot(),
    }
}

/// The scan ranges of one configuration of `n` records: empty,
/// single-record, whole, one that starts and ends on a block-straddling
/// record (where the sizes produce one), one across the start of block
/// 127 (where the collection reaches it), and seeded random ones.
fn ranges(n: usize, size: usize, block_size: usize, rng: &mut u64) -> Vec<(usize, usize)> {
    let mut ranges = vec![(0, 0), (n, n), (n / 2, n / 2), (0, 1), (n - 1, n), (0, n)];
    let straddlers: Vec<usize> = (0..n)
        .filter(|i| i * size / block_size != ((i + 1) * size - 1) / block_size)
        .collect();
    if let (Some(&first), Some(&last)) = (straddlers.first(), straddlers.last()) {
        ranges.extend([(first, first + 1), (first, last + 1)]);
    }
    let block_127 = 127 * block_size / size;
    if block_127 + 3 <= n {
        ranges.push((block_127 - 3, block_127 + 3));
    }
    for _ in 0..8 {
        let a = (splitmix(rng) % (n as u64 + 1)) as usize;
        let b = (splitmix(rng) % (n as u64 + 1)) as usize;
        ranges.push((a.min(b), a.max(b)));
    }
    ranges
}

fn check<const N: usize>(kind: LayerKind, block_size: usize, n: usize) {
    let what = format!("{kind:?}, {n} {N}-byte records, {block_size}-byte blocks");
    let mut rng = (N * block_size) as u64;
    let config = DeviceConfig {
        block_size,
        ..DeviceConfig::paper_default()
    };
    let records: Vec<Blob<N>> = (0..n)
        .map(|_| Blob(std::array::from_fn(|_| splitmix(&mut rng) as u8)))
        .collect();

    let dev = PmDevice::new(config.clone());
    let col = PCollection::from_records_uncounted(&dev, kind, "col", records.iter().copied());
    // The twin holds the same bytes in a bare `Storage` and scans them the
    // way the reader did before views: `read_at` into a buffer per record.
    let twin_dev = PmDevice::new(config);
    let mut twin = Storage::new(kind, twin_dev.config());
    {
        let _pause = twin_dev.metrics().pause();
        for r in &records {
            twin.append(&r.0, &twin_dev);
        }
    }
    let twin_scan = |start: usize, end: usize| {
        charged(&twin_dev, || {
            let mut cursor = ReadCursor::new();
            let mut buf = [0u8; N];
            for (i, record) in records.iter().enumerate().take(end).skip(start) {
                twin.read_at(i * N, &mut buf, &mut cursor, &twin_dev);
                assert_eq!(buf, record.0, "{what}: twin record {i}");
            }
        })
    };

    for (start, end) in ranges(n, N, block_size, &mut rng) {
        let what = format!("{what}, records {start}..{end}");
        let expected = twin_scan(start, end);

        let views = charged(&dev, || {
            let mut reader = col.range_reader(start, end);
            assert!(
                reader.last_view().is_none(),
                "{what}: nothing handed out yet"
            );
            for (i, record) in records.iter().enumerate().take(end).skip(start) {
                assert_eq!(reader.position(), i, "{what}");
                let view = reader.next_view().expect("a view per record");
                assert_eq!(view.bytes(), record.0, "{what}: view {i}");
                assert_eq!(view.get(), *record, "{what}: view {i}");
                // Lent again, any number of times, for nothing.
                for _ in 0..2 {
                    let again = reader.last_view().expect("the view just handed out");
                    assert_eq!(again.bytes(), record.0, "{what}: last view {i}");
                }
            }
            assert!(reader.next_view().is_none(), "{what}");
        });
        assert_eq!(views, expected, "{what}: next_view");

        let decoded = charged(&dev, || {
            let got: Vec<Blob<N>> = col.range_reader(start, end).collect();
            assert_eq!(got, records[start..end], "{what}: next");
        });
        assert_eq!(decoded, expected, "{what}: next");

        let viewed = charged(&dev, || {
            let mut expect = records[start..end].iter();
            col.range_reader(start, end).for_each_view(|view| {
                let record = expect.next().expect("no more views than records");
                assert_eq!(view.bytes(), record.0, "{what}: for_each_view");
                assert_eq!(view.get(), *record, "{what}: for_each_view");
            });
            assert!(
                expect.next().is_none(),
                "{what}: for_each_view stopped early"
            );
        });
        assert_eq!(viewed, expected, "{what}: for_each_view");

        // Runs: the scanned bytes in order, each run a whole number of
        // records, cut exactly where the storage stops being contiguous
        // (a chunk end on blocked memory, nowhere on the other layers) —
        // a record that straddles two chunks travels alone.
        // The chunk holding record `i` whole; none for a straddler.
        let home = |i: usize| {
            if kind != LayerKind::BlockedMemory {
                return Some(0);
            }
            let first = chunk_of(i * N / block_size);
            let last = chunk_of(((i + 1) * N - 1) / block_size);
            (first == last).then_some(first)
        };
        let mut expected_runs: Vec<usize> = Vec::new();
        for i in start..end {
            match expected_runs.last_mut() {
                Some(run) if home(i).is_some() && home(i) == home(i - 1) => *run += 1,
                _ => expected_runs.push(1),
            }
        }
        let runs = charged(&dev, || {
            let mut bytes = Vec::new();
            let mut lens = Vec::new();
            col.range_reader(start, end).for_each_run(|run| {
                assert!(!run.is_empty(), "{what}: empty run");
                assert_eq!(run.len() % N, 0, "{what}: a run is whole records");
                lens.push(run.len() / N);
                bytes.extend_from_slice(run);
            });
            let scanned: Vec<u8> = records[start..end].iter().flat_map(|r| r.0).collect();
            assert_eq!(bytes, scanned, "{what}: for_each_run bytes");
            assert_eq!(lens, expected_runs, "{what}: run boundaries");
        });
        assert_eq!(runs, expected, "{what}: for_each_run");

        // Point reads through one cursor charge like the scan.
        let points = charged(&dev, || {
            let mut cursor = ReadCursor::new();
            for (i, record) in records.iter().enumerate().take(end).skip(start) {
                let got = col.get_with_cursor(i, &mut cursor);
                assert_eq!(got, *record, "{what}: get {i}");
            }
        });
        assert_eq!(points, expected, "{what}: get_with_cursor");
    }

    // Early drop: the pull path charges a record when it hands it out,
    // never ahead — whatever prefix of a scan a caller consumes before
    // dropping the reader (a co-scan that runs out of partners, an
    // operator closed mid-stream), it has paid for exactly that prefix.
    // The window covers the first block boundaries, straddlers included.
    for n in 0..=PREFIX_WINDOW {
        let what = format!("{what}, dropped after {n} records");
        let expected = twin_scan(0, n);
        let pulled = charged(&dev, || {
            let mut reader = col.reader();
            for _ in 0..n {
                reader.next_view().expect("a view per record");
            }
        });
        assert_eq!(pulled, expected, "{what}: next_view");
        let iterated = charged(&dev, || {
            assert_eq!(col.reader().take(n).count(), n, "{what}");
        });
        assert_eq!(iterated, expected, "{what}: next");
    }
}

#[test]
fn views_read_and_charge_exactly_like_read_at() {
    for kind in KINDS {
        // The paper's block size and one that is not a power of two.
        for block_size in [1024, 1000] {
            check::<8>(kind, block_size, RECORDS);
            check::<16>(kind, block_size, RECORDS);
            check::<80>(kind, block_size, RECORDS);
            check::<160>(kind, block_size, RECORDS);
            // Deep enough to leave the doubling chunks behind.
            let deep = |size: usize| (DEEP_BLOCKS * block_size).div_ceil(size);
            check::<80>(kind, block_size, deep(80));
            check::<160>(kind, block_size, deep(160));
        }
    }
}
