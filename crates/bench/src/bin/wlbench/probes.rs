//! Layer probes: short loops over single public functions of `pmem-sim`,
//! `core`, `wisconsin` and the WAL, run in the traced run and never
//! inside a timed pass. Each probe runs once per `--all`, in the traced
//! run of the workload whose end-to-end metrics its layer should move:
//! [`operator_path`] with `ops_dop1`, [`write_path`] with
//! `durable_ingest`. Each figure is the median over [`REPS`] batches.
//! Reads come from the OS cache and fsync may be cheap on the scratch
//! filesystem: the file figures are the sandbox's, not a device's.

use crate::check::SplitMix64;
use crate::harness::{Config, Obs};
use crate::host::ScratchDir;
use crate::stats;
use pmem_sim::{
    flush_thread_shards, BufferPool, LayerKind, PCollection, PmDevice, RecordBuffer, Storage,
};
use std::hint::black_box;
use std::time::Instant;
use wisconsin::{sort_input, KeyOrder, Record};
use wl_db::{Wal, WalRecord};
use write_limited::join::BuildTable;
use write_limited::sort::KWayMerge;
use write_limited::stats::TableStatistics;

/// Batches per probe.
const REPS: usize = 5;
/// Records per batch of the record-granular probes.
const RECORDS: u64 = 40_000;
/// Calls per batch of the nanosecond-scale probes.
const CALLS: u64 = 400_000;

/// Median nanoseconds per item over [`REPS`] runs of `batch`, each of
/// which processes `items` items.
fn ns_per_item(items: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    stats::median(&samples)
}

/// What every record of every operator passes through — the generator,
/// `core`'s loser tree and build table, `pmem-sim`'s collections,
/// counters and buffer pool: one observation per layer metric.
pub fn operator_path(cfg: &Config, obs: &mut Obs) {
    let mut put = |name: &str, value: f64| obs.push((name.to_string(), value));
    let n = cfg.size(RECORDS);
    let calls = cfg.size(CALLS);
    let records = sort_input(n, KeyOrder::Random, cfg.seed);
    let dev = PmDevice::paper_default();

    put(
        "wisconsin.gen_ns_per_rec",
        ns_per_item(n, || {
            black_box(sort_input(n, KeyOrder::Random, cfg.seed));
        }),
    );

    // core: a 16-way merge through the loser tree, and the join build
    // table's insert and buffered probe.
    let mut sorted: Vec<u64> = records.iter().map(Record::key).collect();
    sorted.sort_unstable();
    let runs: Vec<Vec<u64>> = (0..16)
        .map(|r| sorted.iter().copied().skip(r).step_by(16).collect())
        .collect();
    put(
        "core.sort.losertree.ns_per_pop",
        ns_per_item(n, || {
            let streams = runs
                .iter()
                .map(|run| Box::new(run.iter().copied()) as Box<dyn Iterator<Item = u64>>)
                .collect();
            assert_eq!(KWayMerge::new(streams).count() as u64, n);
        }),
    );
    let mut table = BuildTable::new();
    put(
        "core.join.buildtable.insert_ns",
        ns_per_item(n, || {
            table.clear();
            for r in &records {
                table.insert(*r);
            }
        }),
    );
    put(
        "core.join.buildtable.probe_ns",
        ns_per_item(n, || {
            let mut out = RecordBuffer::new();
            for r in &records {
                table.probe_buffered(r, &mut out);
            }
            assert_eq!(out.len() as u64, n);
        }),
    );

    // pmem-sim.collection: what every record of every operator passes
    // through.
    let layer = LayerKind::BlockedMemory;
    put(
        "pmem-sim.collection.append_ns",
        ns_per_item(n, || {
            let mut col = PCollection::new(&dev, layer, "probe");
            for r in &records {
                col.append(r);
            }
            black_box(col.len());
        }),
    );
    put(
        "pmem-sim.collection.append_buffer_ns_per_rec",
        ns_per_item(n, || {
            let mut col = PCollection::new(&dev, layer, "probe");
            for chunk in records.chunks(8192) {
                let mut buf = RecordBuffer::new();
                for r in chunk {
                    buf.push(r);
                }
                col.append_buffer(&buf);
            }
            black_box(col.len());
        }),
    );
    let col = PCollection::from_records_uncounted(&dev, layer, "probe", records.iter().copied());
    put(
        "pmem-sim.collection.reader_ns_per_rec",
        ns_per_item(n, || assert_eq!(col.reader().count() as u64, n)),
    );
    let mut rng = SplitMix64::new(cfg.seed);
    put(
        "pmem-sim.collection.get_ns",
        ns_per_item(n, || {
            for _ in 0..n {
                black_box(col.get(rng.below(n) as usize));
            }
        }),
    );
    put(
        "pmem-sim.collection.append_ns.file",
        ns_per_item(n, || {
            let mut col = PCollection::new(&dev, LayerKind::FileBacked, "probe");
            for r in &records {
                col.append(r);
            }
            black_box(col.len());
        }),
    );

    // pmem-sim.metrics and pool: the per-access bookkeeping.
    put(
        "pmem-sim.metrics.add_ns",
        ns_per_item(calls, || {
            for i in 0..calls / 2 {
                // audit:allow(ledger-only) the probe times the charge call itself, on a device no workload measures
                dev.metrics().add_reads(black_box(i & 1));
                // audit:allow(ledger-only) the probe times the charge call itself, on a device no workload measures
                dev.metrics().add_writes(black_box(1));
            }
        }),
    );
    put(
        "pmem-sim.metrics.flush_ns",
        ns_per_item(calls / 4, || {
            for _ in 0..calls / 4 {
                // One pending charge per flush, so the flush has a
                // shard to publish.
                // audit:allow(ledger-only) probe-private device, see above
                dev.metrics().add_reads(1);
                flush_thread_shards();
            }
        }),
    );
    let pool = BufferPool::new(1 << 20);
    put(
        "pmem-sim.pool.reserve_ns",
        ns_per_item(calls, || {
            for _ in 0..calls {
                black_box(pool.reserve(1280).map(|r| r.bytes()).unwrap_or(0));
            }
        }),
    );
}

/// What an acknowledged `INSERT` passes through — the sketch rebuild,
/// the real file behind the file-backed layer, a WAL append: one
/// observation per layer metric.
///
/// # Errors
/// Returns the file layer's message when a probe file cannot be
/// written.
pub fn write_path(cfg: &Config, obs: &mut Obs) -> Result<(), String> {
    let mut put = |name: &str, value: f64| obs.push((name.to_string(), value));
    let n = cfg.size(RECORDS);
    let keys: Vec<u64> = sort_input(n, KeyOrder::Random, cfg.seed)
        .iter()
        .map(Record::key)
        .collect();
    let dev = PmDevice::paper_default();
    let scratch = ScratchDir::create(&cfg.scratch, "probes")?;

    put(
        "core.stats.build_ns_per_key",
        ns_per_item(n, || {
            black_box(TableStatistics::build(&keys, cfg.seed));
        }),
    );

    // pmem-sim.layer: the real file behind the file-backed layer.
    let io = |e: pmem_sim::PmError| e.to_string();
    let mut file = Storage::create_file(scratch.child("probe.bin"), dev.config()).map_err(io)?;
    let chunk = vec![0xA5u8; 64 << 10];
    let chunks = cfg.size(256);
    let t0 = Instant::now();
    for _ in 0..chunks {
        file.try_append(&chunk, &dev).map_err(io)?;
    }
    let secs = t0.elapsed().as_secs_f64();
    put(
        "pmem-sim.layer.file.append_mb_per_s",
        (chunks * chunk.len() as u64) as f64 / 1e6 / secs,
    );
    let mut fsync_us = Vec::new();
    for _ in 0..cfg.size(40) {
        file.try_append(&chunk[..4096], &dev).map_err(io)?;
        let t0 = Instant::now();
        file.fsync(&dev).map_err(io)?;
        fsync_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    put("pmem-sim.layer.file.fsync_us", stats::median(&fsync_us));
    let host = file
        .file_stats()
        .ok_or("file-backed storage without file stats")?;
    put(
        "pmem-sim.layer.file.write_syscalls",
        host.write_syscalls as f64,
    );
    put(
        "pmem-sim.layer.file.bytes_written",
        host.bytes_written as f64,
    );
    put("pmem-sim.layer.file.fsyncs", host.fsyncs as f64);

    // db.wal: frame, append and fsync of one 8-row INSERT record.
    let mut wal = Wal::create(scratch.path(), &dev, 0).map_err(|e| e.to_string())?;
    let (mut append_us, mut framed) = (Vec::new(), 0);
    for i in 0..cfg.size(200) {
        let record = WalRecord::Insert {
            table: "t".into(),
            keys: (0..8).map(|k| n + 8 * i + k).collect(),
        };
        let t0 = Instant::now();
        let (_lsn, bytes) = wal.append(&record, &dev).map_err(|e| e.to_string())?;
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        framed = bytes;
    }
    put("db.wal.append_us", stats::median(&append_us));
    put("db.wal.bytes_per_row", framed as f64 / 8.0);
    Ok(())
}
