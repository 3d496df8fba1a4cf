//! `ops_dop1`: the paper's own experiment. Every sort and join variant
//! is called directly on seeded Wisconsin inputs staged uncounted, on
//! blocked memory at PCM latency with DRAM = 5 % of the (left) input.
//! `core` and `pmem-sim` do all the work; no SQL, planner or database
//! code runs, so a front-end change must not move this workload.

use crate::check::Checksum;
use crate::defs::{JOIN_CELLS, SORT_CELLS};
use crate::harness::{Config, Mode, Obs, Pass, Workload};
use crate::json::Json;
use crate::probes;
use crate::stats;
use crate::trace::{Span, Tracer};
use pmem_sim::{
    BufferPool, IoStats, LatencyProfile, LayerKind, PCollection, Pm, PmDevice, PmError, Storable,
};
use std::time::Instant;
use wisconsin::{
    join_input, join_input_skewed, sort_input, KeyOrder, Pair, Record, WisconsinRecord,
};
use write_limited::join::{grace_join_profiled, JoinAlgorithm, JoinContext};
use write_limited::sort::{external_merge_sort_profiled, SortAlgorithm, SortContext};

/// Sort input records.
const SORT_N: u64 = 100_000;
/// Left join input records; the right input has `FANOUT` per key.
const JOIN_T: u64 = 25_000;
const FANOUT: u64 = 10;
/// Zipf exponent of the skewed right input of `cgj_zipf`.
const THETA: f64 = 1.2;
/// DRAM as a share of the (left) input.
const MEM_FRACTION: f64 = 0.05;

type Table = PCollection<WisconsinRecord>;

struct SortInput {
    table: Table,
    expect: Checksum,
}

struct JoinInput {
    left: Table,
    right: Table,
    expect: Checksum,
}

pub struct OpsDop1 {
    dev: Pm,
    sort_mem: SortInput,
    sort_file: SortInput,
    uniform: JoinInput,
    zipf: JoinInput,
}

fn sort_algorithm(cell: &str) -> SortAlgorithm {
    match cell {
        "segs50" => SortAlgorithm::SegS { x: 0.5 },
        "hybs50" => SortAlgorithm::HybS { x: 0.5 },
        "las" => SortAlgorithm::LaS,
        _ => SortAlgorithm::ExMS,
    }
}

fn join_algorithm(cell: &str) -> JoinAlgorithm {
    match cell {
        "gj" => JoinAlgorithm::GJ,
        "hj" => JoinAlgorithm::HJ,
        "nlj" => JoinAlgorithm::NLJ,
        "segj50" => JoinAlgorithm::SegJ { frac: 0.5 },
        "laj" => JoinAlgorithm::LaJ,
        "hybj50" => JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        _ => JoinAlgorithm::CGJ,
    }
}

fn stage_sort(dev: &Pm, layer: LayerKind, records: &[WisconsinRecord]) -> SortInput {
    SortInput {
        expect: Checksum::of(records.iter().map(|r| &r.attrs[..2])),
        table: PCollection::from_records_uncounted(dev, layer, "T", records.iter().copied()),
    }
}

/// Stages a join input and derives the checksum its output must have:
/// left keys are unique, so every right record pairs with exactly the
/// left record of its key.
fn stage_join(dev: &Pm, w: wisconsin::JoinWorkload) -> Result<JoinInput, String> {
    let mut payload_of = vec![0u64; w.left.len()];
    for l in &w.left {
        payload_of[l.key() as usize] = l.payload();
    }
    let mut expect = Checksum::default();
    for r in &w.right {
        expect.add(&[r.key(), payload_of[r.key() as usize], r.payload()]);
    }
    if expect.rows != w.expected_matches {
        return Err(format!(
            "generator promised {} matches, inputs imply {}",
            w.expected_matches, expect.rows
        ));
    }
    let layer = LayerKind::BlockedMemory;
    Ok(JoinInput {
        left: PCollection::from_records_uncounted(dev, layer, "T", w.left),
        right: PCollection::from_records_uncounted(dev, layer, "V", w.right),
        expect,
    })
}

/// One timed cell: simulated traffic, pool telemetry and the verdict of
/// the output check.
struct CellRun {
    io: IoStats,
    draws: u64,
    exhausted: u64,
    verdict: Result<(), String>,
}

/// Times `run` as one cell of the pass, then reads its output back
/// uncounted: `row` vets one output record and yields the columns the
/// checksum covers.
#[allow(clippy::too_many_arguments)] // one cell = device, budget, inputs, two sinks, two closures
fn run_cell<T: Storable, const N: usize>(
    dev: &Pm,
    pool: &BufferPool,
    cell: &str,
    expect: Checksum,
    pass: &mut Pass,
    tracer: &mut Tracer,
    run: impl FnOnce() -> Result<PCollection<T>, PmError>,
    mut row: impl FnMut(&T) -> Result<[u64; N], String>,
) -> CellRun {
    let before = dev.snapshot();
    let out = pass.op(|| tracer.span("cell", cell, |_| run()));
    let io = dev.snapshot().since(&before);
    let verdict = out.map_err(|e| e.to_string()).and_then(|out| {
        let _uncounted = dev.metrics().pause();
        let mut got = Checksum::default();
        for record in out.reader() {
            got.add(&row(&record)?);
        }
        if got == expect {
            Ok(())
        } else {
            Err(format!("output {got:?}, expected {expect:?}"))
        }
    });
    CellRun {
        io,
        draws: pool.draws(),
        exhausted: pool.exhausted(),
        verdict,
    }
}

fn run_sort(
    dev: &Pm,
    cell: &str,
    input: &SortInput,
    pass: &mut Pass,
    tracer: &mut Tracer,
) -> CellRun {
    let pool = BufferPool::fraction_of(input.table.bytes(), MEM_FRACTION);
    let ctx = SortContext::new(dev, input.table.kind(), &pool).with_threads(1);
    let mut last = 0;
    run_cell(
        dev,
        &pool,
        cell,
        input.expect,
        pass,
        tracer,
        || sort_algorithm(cell).run(&input.table, &ctx, "sorted"),
        |r: &WisconsinRecord| {
            if r.key() < last {
                return Err(format!("output not sorted at key {}", r.key()));
            }
            last = r.key();
            Ok([r.key(), r.payload()])
        },
    )
}

fn run_join(
    dev: &Pm,
    cell: &str,
    input: &JoinInput,
    pass: &mut Pass,
    tracer: &mut Tracer,
) -> CellRun {
    let pool = BufferPool::fraction_of(input.left.bytes(), MEM_FRACTION);
    let ctx = JoinContext::new(dev, LayerKind::BlockedMemory, &pool).with_threads(1);
    run_cell(
        dev,
        &pool,
        cell,
        input.expect,
        pass,
        tracer,
        || join_algorithm(cell).run(&input.left, &input.right, &ctx, "joined"),
        |p: &Pair<WisconsinRecord, WisconsinRecord>| {
            let (l, r) = (p.left, p.right);
            if l.key() != r.key() {
                return Err(format!("pair joins keys {} and {}", l.key(), r.key()));
            }
            Ok([l.key(), l.payload(), r.payload()])
        },
    )
}

impl OpsDop1 {
    fn sort_input_of(&self, cell: &str) -> &SortInput {
        if cell == "exms_file" {
            &self.sort_file
        } else {
            &self.sort_mem
        }
    }

    fn join_input_of(&self, cell: &str) -> &JoinInput {
        if cell == "cgj_zipf" {
            &self.zipf
        } else {
            &self.uniform
        }
    }

    /// Input records one run of `cell` consumes.
    fn cell_records(&self, cell: &str) -> u64 {
        if SORT_CELLS.contains(&cell) {
            self.sort_input_of(cell).table.len() as u64
        } else {
            let j = self.join_input_of(cell);
            (j.left.len() + j.right.len()) as u64
        }
    }
}

/// Makespan of scheduling task costs greedily onto `dop` workers.
fn makespan(tasks: &[f64], dop: usize) -> f64 {
    let mut loads = vec![0.0f64; dop];
    for &t in tasks {
        let least = loads
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *least += t;
    }
    loads.into_iter().fold(0.0, f64::max)
}

/// Critical-path speedup at `dop` from a serial run's total traffic and
/// its sequential phases of independent per-task ledgers: traffic no
/// phase covers stays serial, each phase costs its makespan.
fn cp_speedup(total: &IoStats, phases: &[Vec<IoStats>], dop: usize) -> f64 {
    let lat = LatencyProfile::PCM;
    let total_ns = total.time_ns(&lat);
    let (mut covered, mut path) = (0.0, 0.0);
    for phase in phases {
        let ns: Vec<f64> = phase.iter().map(|s| s.time_ns(&lat)).collect();
        covered += ns.iter().sum::<f64>();
        path += makespan(&ns, dop);
    }
    total_ns / (path + (total_ns - covered).max(0.0))
}

impl Workload for OpsDop1 {
    const NAME: &'static str = "ops_dop1";
    const DECOMPOSES: bool = false;
    const STATEMENT_LATENCY: bool = false;

    fn setup(cfg: &Config) -> Result<Self, String> {
        let dev = PmDevice::paper_default();
        let sort_records = sort_input(cfg.size(SORT_N), KeyOrder::Random, cfg.seed);
        let t = cfg.size(JOIN_T);
        Ok(Self {
            sort_mem: stage_sort(&dev, LayerKind::BlockedMemory, &sort_records),
            sort_file: stage_sort(&dev, LayerKind::FileBacked, &sort_records),
            uniform: stage_join(&dev, join_input(t, FANOUT, cfg.seed.wrapping_add(1)))?,
            zipf: stage_join(
                &dev,
                join_input_skewed(t, t * FANOUT, THETA, cfg.seed.wrapping_add(2)),
            )?,
            dev,
        })
    }

    fn pass(&mut self, _mode: Mode, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let (mut draws, mut exhausted) = (0, 0);
        for (family, cells) in [("sort", &SORT_CELLS[..]), ("join", &JOIN_CELLS[..])] {
            for cell in cells {
                let run = if family == "sort" {
                    run_sort(&self.dev, cell, self.sort_input_of(cell), &mut pass, tracer)
                } else {
                    run_join(&self.dev, cell, self.join_input_of(cell), &mut pass, tracer)
                };
                pass.check(run.verdict.is_ok(), || {
                    format!("{cell}: {}", run.verdict.clone().unwrap_err())
                });
                pass.io = pass.io.plus(&run.io);
                pass.records += self.cell_records(cell);
                pass.note(
                    format!("core.{family}.{cell}.cl_writes"),
                    run.io.cl_writes as f64,
                );
                pass.note(
                    format!("core.{family}.{cell}.cl_reads"),
                    run.io.cl_reads as f64,
                );
                draws += run.draws;
                exhausted += run.exhausted;
            }
        }
        // Refused reservations are retried at the remaining budget, not
        // failed: this is why `failed` stays 0 under memory pressure.
        pass.note("pmem-sim.pool.draws", draws as f64);
        pass.note("pmem-sim.pool.exhausted", exhausted as f64);
        Ok(pass)
    }

    fn layer_obs(&self, spans: &[Span], obs: &mut Obs) {
        let (mut wall_ns, mut cachelines) = (0.0, 0.0);
        for s in spans.iter().filter(|s| s.name == "cell") {
            let family = if SORT_CELLS.contains(&s.stmt.as_str()) {
                "sort"
            } else {
                "join"
            };
            let ns = s.duration_ns() as f64;
            obs.push((
                format!("core.{family}.{}.ns_per_rec", s.stmt),
                ns / self.cell_records(&s.stmt) as f64,
            ));
            wall_ns += ns;
            cachelines += (s.io.cl_reads + s.io.cl_writes) as f64;
        }
        obs.push(("pmem-sim.host_ns_per_cl".into(), wall_ns / cachelines));
    }

    /// The scale point (same cell at 2× the records, same memory
    /// fraction), the only DoP-2 cells of the benchmark, and the probes
    /// of the layers these cells run on.
    fn trace_extras(&mut self, cfg: &Config, obs: &mut Obs) -> Result<(), String> {
        probes::operator_path(cfg, obs);
        let dev = &self.dev;
        let seed = cfg.seed;
        let sort2 = stage_sort(
            dev,
            LayerKind::BlockedMemory,
            &sort_input(cfg.size(2 * SORT_N), KeyOrder::Random, seed),
        );
        let join2 = stage_join(
            dev,
            join_input(cfg.size(2 * JOIN_T), FANOUT, seed.wrapping_add(1)),
        )?;
        let reps = if cfg.quick { 1 } else { 3 };
        let (mut sort_ns, mut join_ns) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let mut pass = Pass::default();
            let mut off = Tracer::new(false);
            run_sort(dev, "exms", &sort2, &mut pass, &mut off).verdict?;
            run_join(dev, "gj", &join2, &mut pass, &mut off).verdict?;
            sort_ns.push(pass.lat_ms[0] * 1e6 / sort2.table.len() as f64);
            join_ns.push(pass.lat_ms[1] * 1e6 / (join2.left.len() + join2.right.len()) as f64);
        }
        obs.push((
            "core.sort.exms.ns_per_rec.s2".into(),
            stats::median(&sort_ns),
        ));
        obs.push(("core.join.gj.ns_per_rec.s2".into(), stats::median(&join_ns)));

        // DoP 2: ledger-derived critical path (exact) beside measured
        // wall (informational: the sandbox has two cores at most).
        let sort = &self.sort_mem;
        let exms = |threads: usize| {
            let pool = BufferPool::fraction_of(sort.table.bytes(), MEM_FRACTION);
            let ctx = SortContext::new(dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let t0 = Instant::now();
            let (out, profile) = external_merge_sort_profiled(&sort.table, &ctx, "sorted");
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(out.len(), sort.table.len(), "ExMS lost records");
            let mut phases = vec![profile.run_generation];
            phases.extend(profile.merge_passes);
            (secs, cp_speedup(&dev.snapshot().since(&before), &phases, 2))
        };
        let join = &self.uniform;
        let gj = |threads: usize| -> Result<(f64, f64), String> {
            let pool = BufferPool::fraction_of(join.left.bytes(), MEM_FRACTION);
            let ctx = JoinContext::new(dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let t0 = Instant::now();
            let (out, p) = grace_join_profiled(&join.left, &join.right, &ctx, "joined")
                .map_err(|e| e.to_string())?;
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(out.len() as u64, join.expect.rows, "GJ lost pairs");
            let phases = [p.per_morsel_left, p.per_morsel_right, p.per_partition];
            Ok((secs, cp_speedup(&dev.snapshot().since(&before), &phases, 2)))
        };
        let (mut exms_wall, mut gj_wall) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        let (mut exms_cp, mut gj_cp) = (0.0, 0.0);
        for _ in 0..reps {
            for (i, threads) in [1, 2].into_iter().enumerate() {
                let (secs, cp) = exms(threads);
                exms_wall[i].push(secs);
                exms_cp = cp;
                let (secs, cp) = gj(threads)?;
                gj_wall[i].push(secs);
                gj_cp = cp;
            }
        }
        let speedup = |w: &[Vec<f64>; 2]| stats::median(&w[0]) / stats::median(&w[1]);
        obs.push(("core.parallel.cp_speedup_dop2.exms".into(), exms_cp));
        obs.push(("core.parallel.cp_speedup_dop2.gj".into(), gj_cp));
        obs.push((
            "core.parallel.wall_speedup_dop2.exms".into(),
            speedup(&exms_wall),
        ));
        obs.push((
            "core.parallel.wall_speedup_dop2.gj".into(),
            speedup(&gj_wall),
        ));
        Ok(())
    }

    fn notes(&self) -> Vec<(String, Json)> {
        let n = |v: usize| Json::Num(v as f64);
        vec![
            ("sort_records".into(), n(self.sort_mem.table.len())),
            ("join_left_records".into(), n(self.uniform.left.len())),
            ("join_right_records".into(), n(self.uniform.right.len())),
            ("zipf_theta".into(), Json::Num(THETA)),
            ("dram_share_of_input".into(), Json::Num(MEM_FRACTION)),
            ("device".into(), Json::str("PCM 10/150 ns, blocked memory")),
        ]
    }
}
