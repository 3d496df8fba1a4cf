//! Parallel partition execution: the wall-clock speedup scenario and
//! the tracked speedup baseline.
//!
//! Simulated time is traffic-derived, so the degree of parallelism
//! cannot change it — what morsel-driven execution buys is *harness
//! wall-clock*. This scenario runs the parallel algorithms at several
//! DoPs over identical inputs and reports, per degree:
//!
//! * measured wall-clock time and speedup over serial (bounded by the
//!   host's cores — a CI container pinned to one core shows ~1.0×);
//! * the **critical-path speedup**: the ratio between the serial sum of
//!   all phase costs and `serial phases + makespan of the per-task
//!   costs over DoP workers`, computed from the per-worker ledgers of an
//!   actual run. This is deterministic, host-independent, and is what
//!   the wall-clock converges to on a machine with enough cores;
//! * whether the simulated cacheline counters match the serial run
//!   exactly (they must — the worker pool is count-invariant).
//!
//! `repro --parallel` additionally writes `BENCH_parallel.json`, a
//! committed host-independent summary: per cell the ledger-derived
//! critical-path speedup plus the wall/cp gap ratio — `null` when the
//! recording host had fewer cores than the DoP, so the file diffs
//! cleanly across machines. With sharded accounting (metrics shards +
//! pool leases merging at barriers) the wall-clock is expected to track
//! the critical path: the run asserts the DoP-4 gap for GJ/HJ/ExMS on
//! hosts with enough cores.

use crate::measure::{run, stage, Operator};
use crate::Scale;
use pmem_sim::{BufferPool, IoStats, LatencyProfile, LayerKind, PmDevice};
use std::time::Instant;
use write_limited::context::ExecContext;
use write_limited::join::JoinAlgorithm;
use write_limited::parallel::Phase;
use write_limited::sort::SortAlgorithm;

/// One algorithm's measurement at one degree of parallelism.
pub struct Cell {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Degree of parallelism of this run.
    pub dop: usize,
    /// Measured harness wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Wall-clock speedup over the DoP-1 run of the same algorithm.
    pub wall_speedup: f64,
    /// Simulated cacheline traffic (must be identical at every DoP).
    pub stats: IoStats,
    /// Ledger-derived critical-path speedup at this DoP.
    pub cp_speedup: f64,
}

/// Makespan of scheduling `parts` (ns each) greedily onto `dop` workers.
fn makespan(parts: &[f64], dop: usize) -> f64 {
    let mut loads = vec![0.0f64; dop.max(1)];
    for &p in parts {
        let min = loads
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("non-empty loads");
        *min += p;
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

/// Critical-path speedup from a run's total traffic and its sequential
/// phases of independent per-task ledgers: the uncovered residual stays
/// serial; each phase contributes the makespan of its tasks over
/// `threads` workers.
fn cp_speedup_from_phases(total: &IoStats, phases: &[Phase], threads: usize) -> f64 {
    let lat = &LatencyProfile::PCM;
    let total_ns = total.time_ns(lat);
    let mut covered = 0.0;
    let mut cp_ns = 0.0;
    for phase in phases {
        let ns: Vec<f64> = phase.tasks.iter().map(|s| s.time_ns(lat)).collect();
        covered += ns.iter().sum::<f64>();
        cp_ns += makespan(&ns, threads);
    }
    cp_ns += (total_ns - covered).max(0.0);
    total_ns / cp_ns
}

/// The speedup matrix's line-up (also the span profile's), labelled as
/// `BENCH_parallel.json` names it.
pub(crate) const LINEUP: [(&str, Operator); 6] = [
    ("GJ", Operator::Join(JoinAlgorithm::GJ)),
    ("HJ", Operator::Join(JoinAlgorithm::HJ)),
    ("NLJ", Operator::Join(JoinAlgorithm::NLJ)),
    ("LaJ", Operator::Join(JoinAlgorithm::LaJ)),
    (
        "SegJ 25%",
        Operator::Join(JoinAlgorithm::SegJ { frac: 0.25 }),
    ),
    ("ExMS", Operator::Sort(SortAlgorithm::ExMS)),
];

/// The algorithms whose DoP-4 wall clock must track the critical path.
const GAPPED: [&str; 3] = ["GJ", "HJ", "ExMS"];

/// `scale` with its sizes raised to a floor: wall-clock scaling needs
/// enough work per partition to amortize thread spawns.
fn at_least(scale: &Scale, join_t: u64, join_fanout: u64, sort_n: u64) -> Scale {
    Scale {
        join_t: scale.join_t.max(join_t),
        join_fanout: scale.join_fanout.max(join_fanout),
        sort_n: scale.sort_n.max(sort_n),
        ..scale.clone()
    }
}

/// The DRAM budget of `op` in the speedup matrix and the span profile:
/// a tenth of a join's left input, a hundredth of a sort's input.
pub(crate) fn budget(op: Operator, scale: &Scale) -> BufferPool {
    let records = match op {
        Operator::Sort(_) => scale.sort_n / 100,
        Operator::Join(_) | Operator::AdaptiveJoin => scale.join_t / 10,
    };
    BufferPool::new(records.max(16) as usize * 80)
}

/// One measurement: stage `op`'s input at `scale`, run it at `threads`,
/// check its output count, and turn the run's phase ledger (each phase a
/// list of independent task costs, phases sequential) into the
/// critical-path speedup.
fn time_cell(algorithm: &'static str, op: Operator, scale: &Scale, threads: usize) -> Cell {
    let dev = PmDevice::paper_default();
    let layer = LayerKind::BlockedMemory;
    let (inputs, expected) = stage(op, &dev, layer, scale, 7);
    let pool = budget(op, scale);
    let ctx = ExecContext::new(&dev, layer, &pool).with_threads(threads);
    let before = dev.snapshot();
    let start = Instant::now();
    let (out, phases) = run(op, &inputs, &ctx).expect("applicable");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = dev.snapshot().since(&before);
    assert_eq!(out, expected, "{algorithm}: wrong result");
    Cell {
        algorithm,
        dop: threads,
        wall_ms,
        wall_speedup: 1.0,
        stats,
        cp_speedup: cp_speedup_from_phases(&stats, &phases, threads),
    }
}

/// Runs every algorithm of `lineup` at each degree in `dops` on inputs
/// of `scale`'s sizes, prints the table, fills in the wall-clock
/// speedups, and panics if any degree's counters diverge from the serial
/// run.
fn matrix(
    title: &str,
    lineup: &[(&'static str, Operator)],
    scale: &Scale,
    dops: &[usize],
) -> Vec<Cell> {
    let (t, sort_n) = (scale.join_t, scale.sort_n);
    println!("=== {title} ===");
    println!(
        "joins: |T| = {t}, |V| = {}, M = {} records; sort: {sort_n} records, \
         M = {} records; host cores: {}",
        t * scale.join_fanout,
        (t / 10).max(16),
        (sort_n / 100).max(16),
        host_cores(),
    );
    println!(
        "{:<10} {:>4} {:>10} {:>9} {:>9} {:>12} {:>12}   counts",
        "algorithm", "DoP", "wall ms", "wall spd", "crit spd", "cl reads", "cl writes"
    );
    let mut all = Vec::new();
    for &(algorithm, op) in lineup {
        let mut cells: Vec<Cell> = dops
            .iter()
            .map(|&dop| time_cell(algorithm, op, scale, dop))
            .collect();
        let (base_wall, base_stats) = (cells[0].wall_ms, cells[0].stats);
        for cell in &mut cells {
            cell.wall_speedup = base_wall / cell.wall_ms;
            let counts_ok = cell.stats.cl_reads == base_stats.cl_reads
                && cell.stats.cl_writes == base_stats.cl_writes;
            println!(
                "{:<10} {:>4} {:>10.1} {:>8.2}x {:>8.2}x {:>12} {:>12}   {}",
                cell.algorithm,
                cell.dop,
                cell.wall_ms,
                cell.wall_speedup,
                cell.cp_speedup,
                cell.stats.cl_reads,
                cell.stats.cl_writes,
                if counts_ok { "identical" } else { "MISMATCH" },
            );
            assert!(
                counts_ok,
                "{algorithm}: simulated counts diverged at DoP {} ({:?} vs serial {:?})",
                cell.dop, cell.stats, base_stats
            );
        }
        all.extend(cells);
    }
    all
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Asserts, for each of [`GAPPED`], that the DoP-4 wall speedup reaches
/// `wall_floor` and stays within `gap_floor` of the critical-path
/// speedup. A host with fewer than 4 cores cannot scale wall-clock, so
/// there the check is skipped.
fn check_wall_gap(cells: &[Cell], wall_floor: f64, gap_floor: f64) {
    let cores = host_cores();
    for cell in cells
        .iter()
        .filter(|c| c.dop == 4 && GAPPED.contains(&c.algorithm))
    {
        let (name, wall, cp) = (cell.algorithm, cell.wall_speedup, cell.cp_speedup);
        if cores < 4 {
            println!(
                "{name}: wall {wall:.2}x, cp {cp:.2}x at DoP 4 — host has \
                 {cores} core(s), wall cannot scale here; gap assertion skipped"
            );
            continue;
        }
        let gap = wall / cp;
        let pass = wall >= wall_floor && gap >= gap_floor;
        println!(
            "{name}: wall {wall:.2}x, cp {cp:.2}x, wall/cp gap {gap:.2} \
             (floors >= {wall_floor}x and >= {gap_floor}) — {}",
            if pass { "PASS" } else { "FAIL" }
        );
        assert!(
            pass,
            "{name}: DoP-4 wall-clock speedup {wall:.2}x (wall/cp gap \
             {gap:.2}) below the floors (>= {wall_floor}x and gap >= {gap_floor})"
        );
    }
}

/// Runs the parallel algorithms at each degree in `dops` and prints the
/// wall-clock scaling table; returns every measured cell for the JSON
/// baseline. Panics if any degree's simulated cacheline counts diverge
/// from the serial run, or, on a host with 4 cores, if GJ, HJ or ExMS
/// miss the acceptance bar: once accounting is sharded (no shared RMW per
/// counted access), DoP-4 wall-clock reaches >= 2x absolute and stays
/// within ~25% of the ledger-derived critical-path speedup.
pub fn parallel_speedup_cells(scale: &Scale, dops: &[usize]) -> Vec<Cell> {
    let cells = matrix(
        "Parallel execution: wall-clock and critical-path speedup",
        &LINEUP,
        &at_least(scale, 30_000, 8, 200_000),
        dops,
    );
    check_wall_gap(&cells, 2.0, 0.75);
    cells
}

/// Runs the speedup matrix and writes the committed host-independent
/// summary to `BENCH_parallel.json` in the working directory.
pub fn parallel_speedup(scale: &Scale, dops: &[usize]) {
    let cells = parallel_speedup_cells(scale, dops);
    let path = "BENCH_parallel.json";
    match std::fs::write(path, summary_json(&cells, host_cores())) {
        Ok(()) => println!("speedup summary written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The wall-gap CI smoke: GJ, HJ, and ExMS at DoP 1 and 4 with inputs
/// just big enough to amortize thread spawns. Counter identity is
/// asserted unconditionally; the wall/cp gap gets a host-tolerant floor
/// — half the full-run bar, evaluated only when the host actually has 4
/// cores — so the smoke passes on small CI boxes while still catching an
/// accounting-contention regression on real ones.
pub fn wall_gap_smoke(scale: &Scale) {
    let lineup: Vec<(&str, Operator)> = LINEUP
        .into_iter()
        .filter(|(name, _)| GAPPED.contains(name))
        .collect();
    let cells = matrix(
        "Wall-vs-critical-path gap smoke",
        &lineup,
        &at_least(scale, 12_000, 4, 120_000),
        &[1, 4],
    );
    check_wall_gap(&cells, 1.5, 0.5);
    println!("wall-gap smoke done");
}

/// Serializes the measured cells as the committed host-independent
/// summary (hand-rolled JSON; the offline environment has no serde).
///
/// `cp_speedup` comes from the per-worker ledgers, so it is identical on
/// every machine; `wall_cp_gap` (wall speedup ÷ cp speedup) is only
/// meaningful when the recording host could actually scale to the cell's
/// DoP and is `null` otherwise — which keeps the committed file stable
/// across hosts of any width.
pub fn summary_json(cells: &[Cell], cores: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"wl-parallel-summary-v1\",\n");
    out.push_str(&format!(
        "  \"note\": \"cp_speedup is ledger-derived and host-independent; \
         wall_cp_gap = wall_speedup / cp_speedup, null when the recording \
         host had fewer cores than the dop (recorded on a {cores}-core host)\",\n"
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let gap = if cores >= c.dop && c.cp_speedup > 0.0 {
            format!("{:.4}", c.wall_speedup / c.cp_speedup)
        } else {
            "null".to_string()
        };
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"dop\": {}, \"cp_speedup\": {:.4}, \
             \"wall_cp_gap\": {gap}, \"cl_reads\": {}, \"cl_writes\": {}}}{}\n",
            c.algorithm,
            c.dop,
            c.cp_speedup,
            c.stats.cl_reads,
            c.stats.cl_writes,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_balances_greedily() {
        assert_eq!(makespan(&[3.0, 3.0, 3.0, 3.0], 4), 3.0);
        assert_eq!(makespan(&[4.0, 2.0, 2.0], 2), 4.0);
        assert_eq!(makespan(&[1.0, 1.0], 1), 2.0);
    }

    #[test]
    fn critical_path_speedups_meet_the_acceptance_target() {
        // The acceptance bar: ledger-derived critical-path speedup of at
        // least 2.5x at DoP 4 for ExMS end-to-end (including the final
        // merge) and for the standard hash join. Deterministic — no
        // wall-clock involved — so it can run on any CI box.
        let scale = Scale {
            sort_n: 60_000,
            join_t: 20_000,
            join_fanout: 4,
            ..Scale::quick()
        };
        let exms = time_cell("ExMS", Operator::Sort(SortAlgorithm::ExMS), &scale, 4);
        assert!(
            exms.cp_speedup >= 2.5,
            "ExMS critical-path speedup {} below 2.5x",
            exms.cp_speedup
        );
        let hj = time_cell("HJ", Operator::Join(JoinAlgorithm::HJ), &scale, 4);
        assert!(
            hj.cp_speedup >= 2.5,
            "HJ critical-path speedup {} below 2.5x",
            hj.cp_speedup
        );
    }

    #[test]
    fn summary_json_is_host_independent() {
        let cells = vec![
            Cell {
                algorithm: "GJ",
                dop: 1,
                wall_ms: 40.0,
                wall_speedup: 1.0,
                stats: IoStats::default(),
                cp_speedup: 1.0,
            },
            Cell {
                algorithm: "GJ",
                dop: 4,
                wall_ms: 12.5,
                wall_speedup: 3.2,
                stats: IoStats::default(),
                cp_speedup: 3.4,
            },
        ];
        // On a wide host the DoP-4 gap is recorded…
        let wide = summary_json(&cells, 8);
        assert!(wide.contains("\"schema\": \"wl-parallel-summary-v1\""));
        assert!(wide.contains("\"cp_speedup\": 3.4000"));
        assert!(wide.contains("\"wall_cp_gap\": 0.9412"));
        // …and on a narrow host it is null (cp stays), so the committed
        // file never encodes the recording machine's width as numbers.
        let narrow = summary_json(&cells, 1);
        assert!(narrow.contains("\"cp_speedup\": 3.4000"));
        assert!(narrow.contains("\"wall_cp_gap\": null"));
        // DoP 1 always has a gap (any host has >= 1 core).
        assert!(narrow.contains("\"wall_cp_gap\": 1.0000"));
    }
}
