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
//! the critical path: the non-smoke run asserts the DoP-4 gap for
//! GJ/HJ/ExMS on hosts with enough cores.

use crate::Scale;
use pmem_sim::{BufferPool, IoStats, LatencyProfile, LayerKind, PCollection, PmDevice};
use std::time::Instant;
use wisconsin::{join_input, sort_input, KeyOrder};
use write_limited::join::{JoinAlgorithm, JoinContext};
use write_limited::sort::{SortAlgorithm, SortContext};

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
fn cp_speedup_from_phases(total: &IoStats, phases: &[&[IoStats]], threads: usize) -> f64 {
    let lat = &LatencyProfile::PCM;
    let total_ns = total.time_ns(lat);
    let mut covered = 0.0;
    let mut cp_ns = 0.0;
    for phase in phases {
        let ns: Vec<f64> = phase.iter().map(|s| s.time_ns(lat)).collect();
        covered += ns.iter().sum::<f64>();
        cp_ns += makespan(&ns, threads);
    }
    cp_ns += (total_ns - covered).max(0.0);
    total_ns / cp_ns
}

/// One join measurement: stage the inputs, run `algo` under a context
/// at `threads`, check the match count, and turn the run's phase ledger
/// (each phase a list of independent task costs, phases sequential)
/// into the critical-path speedup.
fn time_join(
    algorithm: &'static str,
    algo: JoinAlgorithm,
    t: u64,
    fanout: u64,
    m_records: usize,
    threads: usize,
) -> Cell {
    let dev = PmDevice::paper_default();
    let w = join_input(t, fanout, 7);
    let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
    let right = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
    let pool = BufferPool::new(m_records * 80);
    let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
    let before = dev.snapshot();
    let start = Instant::now();
    let (out, phases) = algo
        .run_profiled(&left, &right, &ctx, "out")
        .expect("applicable");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        out.len() as u64,
        w.expected_matches,
        "{algorithm}: wrong join result"
    );
    let stats = dev.snapshot().since(&before);
    let phases: Vec<&[IoStats]> = phases.iter().map(Vec::as_slice).collect();
    Cell {
        algorithm,
        dop: threads,
        wall_ms,
        wall_speedup: 1.0,
        stats,
        cp_speedup: cp_speedup_from_phases(&stats, &phases, threads),
    }
}

fn time_sort(n: u64, m_records: usize, threads: usize) -> Cell {
    let dev = PmDevice::paper_default();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "S",
        sort_input(n, KeyOrder::Random, 7),
    );
    let pool = BufferPool::new(m_records * 80);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
    let before = dev.snapshot();
    let start = Instant::now();
    let (out, phases) = SortAlgorithm::ExMS
        .run_profiled(&input, &ctx, "sorted")
        .expect("ExMS takes no parameters");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out.len() as u64, n, "wrong sort result");
    let stats = dev.snapshot().since(&before);
    let phases: Vec<&[IoStats]> = phases.iter().map(Vec::as_slice).collect();
    Cell {
        algorithm: "ExMS",
        dop: threads,
        wall_ms,
        wall_speedup: 1.0,
        stats,
        cp_speedup: cp_speedup_from_phases(&stats, &phases, threads),
    }
}

/// Prints one algorithm's rows, fills in the wall-clock speedups, and
/// panics if any degree's counters diverge from the serial run. Returns
/// (wall, critical-path) speedup at DoP 4 (1.0 when not measured).
fn report(dops: &[usize], cells: &mut [Cell]) -> (f64, f64) {
    let base_wall = cells[0].wall_ms;
    let base_stats = cells[0].stats;
    let mut at4 = (1.0, 1.0);
    for (dop, cell) in dops.iter().zip(cells) {
        cell.wall_speedup = base_wall / cell.wall_ms;
        if *dop == 4 {
            at4 = (cell.wall_speedup, cell.cp_speedup);
        }
        let counts_ok = cell.stats.cl_reads == base_stats.cl_reads
            && cell.stats.cl_writes == base_stats.cl_writes;
        println!(
            "{:<10} {dop:>4} {:>10.1} {:>8.2}x {:>8.2}x {:>12} {:>12}   {}",
            cell.algorithm,
            cell.wall_ms,
            cell.wall_speedup,
            cell.cp_speedup,
            cell.stats.cl_reads,
            cell.stats.cl_writes,
            if counts_ok { "identical" } else { "MISMATCH" },
        );
        assert!(
            counts_ok,
            "{}: simulated counts diverged at DoP {dop} \
             ({:?} vs serial {:?})",
            cell.algorithm, cell.stats, base_stats
        );
    }
    at4
}

/// Runs the parallel algorithms at each degree in `dops` and prints the
/// wall-clock scaling table; returns every measured cell for the JSON
/// baseline. Panics if any degree's simulated cacheline counts diverge
/// from the serial run. With `smoke`, sizes come straight from `scale`
/// (no wall-clock floors) and the wall-clock targets are not evaluated —
/// the CI-friendly counters-and-critical-path check.
pub fn parallel_speedup_cells(scale: &Scale, dops: &[usize], smoke: bool) -> Vec<Cell> {
    // Wall-clock scaling needs enough work per partition to amortize
    // thread spawns; floor the sizes at a few hundred ms of serial work.
    let t = if smoke {
        scale.join_t
    } else {
        scale.join_t.max(30_000)
    };
    let fanout = if smoke {
        scale.join_fanout
    } else {
        scale.join_fanout.max(8)
    };
    let sort_n = if smoke {
        scale.sort_n
    } else {
        scale.sort_n.max(200_000)
    };
    let m_records = (t / 10).max(16) as usize;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    println!("=== Parallel execution: wall-clock and critical-path speedup ===");
    println!(
        "joins: |T| = {t}, |V| = {}, M = {m_records} records; \
         sort: {sort_n} records, M = {} records; host cores: {cores}",
        t * fanout,
        (sort_n / 100).max(16),
    );
    println!(
        "{:<10} {:>4} {:>10} {:>9} {:>9} {:>12} {:>12}   counts",
        "algorithm", "DoP", "wall ms", "wall spd", "crit spd", "cl reads", "cl writes"
    );

    let mut all: Vec<Cell> = Vec::new();
    let mut gj: Vec<Cell> = dops
        .iter()
        .map(|&d| time_join("GJ", JoinAlgorithm::GJ, t, fanout, m_records, d))
        .collect();
    let (gj_wall, gj_cp) = report(dops, &mut gj);
    all.extend(gj);

    let mut hj: Vec<Cell> = dops
        .iter()
        .map(|&d| time_join("HJ", JoinAlgorithm::HJ, t, fanout, m_records, d))
        .collect();
    let (hj_wall, hj_cp) = report(dops, &mut hj);
    all.extend(hj);

    let mut nlj: Vec<Cell> = dops
        .iter()
        .map(|&d| time_join("NLJ", JoinAlgorithm::NLJ, t, fanout, m_records, d))
        .collect();
    report(dops, &mut nlj);
    all.extend(nlj);

    let mut laj: Vec<Cell> = dops
        .iter()
        .map(|&d| time_join("LaJ", JoinAlgorithm::LaJ, t, fanout, m_records, d))
        .collect();
    report(dops, &mut laj);
    all.extend(laj);

    let mut segj: Vec<Cell> = dops
        .iter()
        .map(|&d| {
            time_join(
                "SegJ 25%",
                JoinAlgorithm::SegJ { frac: 0.25 },
                t,
                fanout,
                m_records,
                d,
            )
        })
        .collect();
    report(dops, &mut segj);
    all.extend(segj);

    let mut exms: Vec<Cell> = dops
        .iter()
        .map(|&d| time_sort(sort_n, (sort_n / 100).max(16) as usize, d))
        .collect();
    let (exms_wall, exms_cp) = report(dops, &mut exms);
    all.extend(exms);

    if smoke {
        println!("smoke mode: counters identical at every DoP — PASS");
        return all;
    }

    // The acceptance bar: once accounting is sharded (no shared RMW per
    // counted access), wall-clock catches the ledger-derived critical
    // path — DoP-4 wall within ~25% of the cp speedup and >= 2x
    // absolute. Host-gated: a box with fewer than 4 cores cannot scale
    // wall-clock, so there the run reports cp only.
    let wall_floor = 2.0;
    let gap_floor = 0.75;
    let cp_target = 2.5;
    for (name, wall, cp) in [
        ("GJ", gj_wall, gj_cp),
        ("HJ", hj_wall, hj_cp),
        ("ExMS", exms_wall, exms_cp),
    ] {
        println!(
            "{name} critical-path speedup at DoP 4 (per-worker ledgers, \
             host-independent): {cp:.2}x (target >= {cp_target}x) — {}",
            if cp >= cp_target { "PASS" } else { "FAIL" }
        );
        if cores >= 4 {
            let gap = wall / cp;
            println!(
                "{name} wall-clock speedup at DoP 4: {wall:.2}x, wall/cp \
                 gap {gap:.2} (targets >= {wall_floor}x and >= {gap_floor}) — {}",
                if wall >= wall_floor && gap >= gap_floor {
                    "PASS"
                } else {
                    "FAIL"
                }
            );
            assert!(
                wall >= wall_floor && gap >= gap_floor,
                "{name}: DoP-4 wall-clock speedup {wall:.2}x (wall/cp gap \
                 {gap:.2}) below the acceptance bar (>= {wall_floor}x and \
                 gap >= {gap_floor})"
            );
        } else {
            println!(
                "{name} wall-clock speedup at DoP 4: {wall:.2}x — host has \
                 {cores} core(s), wall cannot scale here; gap assertion skipped"
            );
        }
    }
    all
}

/// Runs the speedup matrix and writes the committed host-independent
/// summary to `BENCH_parallel.json` in the working directory.
pub fn parallel_speedup(scale: &Scale, dops: &[usize]) {
    let cells = parallel_speedup_cells(scale, dops, false);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let path = "BENCH_parallel.json";
    match std::fs::write(path, summary_json(&cells, cores)) {
        Ok(()) => println!("speedup summary written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The wall-gap CI smoke: GJ, HJ, and ExMS at DoP 1 and 4 with inputs
/// just big enough to amortize thread spawns. Counter identity is
/// asserted unconditionally (inside `report`); the wall/cp gap gets a
/// host-tolerant floor — half the full-run bar, evaluated only when the
/// host actually has 4 cores — so the smoke passes on small CI boxes
/// while still catching an accounting-contention regression on real
/// ones.
pub fn wall_gap_smoke(scale: &Scale) {
    let t = scale.join_t.max(12_000);
    let fanout = scale.join_fanout.max(4);
    let sort_n = scale.sort_n.max(120_000);
    let m_records = (t / 10).max(16) as usize;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let dops = [1usize, 4];

    println!("=== Wall-vs-critical-path gap smoke ===");
    println!(
        "joins: |T| = {t}, |V| = {}, M = {m_records} records; \
         sort: {sort_n} records; host cores: {cores}",
        t * fanout,
    );
    println!(
        "{:<10} {:>4} {:>10} {:>9} {:>9} {:>12} {:>12}   counts",
        "algorithm", "DoP", "wall ms", "wall spd", "crit spd", "cl reads", "cl writes"
    );
    let mut gj: Vec<Cell> = dops
        .iter()
        .map(|&d| time_join("GJ", JoinAlgorithm::GJ, t, fanout, m_records, d))
        .collect();
    let (gj_wall, gj_cp) = report(&dops, &mut gj);
    let mut hj: Vec<Cell> = dops
        .iter()
        .map(|&d| time_join("HJ", JoinAlgorithm::HJ, t, fanout, m_records, d))
        .collect();
    let (hj_wall, hj_cp) = report(&dops, &mut hj);
    let mut exms: Vec<Cell> = dops
        .iter()
        .map(|&d| time_sort(sort_n, (sort_n / 100).max(16) as usize, d))
        .collect();
    let (exms_wall, exms_cp) = report(&dops, &mut exms);

    if cores < 4 {
        println!(
            "host has {cores} core(s): wall-clock cannot scale; counters \
             checked, gap floor skipped"
        );
        return;
    }
    let wall_floor = 1.5;
    let gap_floor = 0.5;
    for (name, wall, cp) in [
        ("GJ", gj_wall, gj_cp),
        ("HJ", hj_wall, hj_cp),
        ("ExMS", exms_wall, exms_cp),
    ] {
        let gap = wall / cp;
        println!(
            "{name}: wall {wall:.2}x, cp {cp:.2}x, wall/cp gap {gap:.2} \
             (smoke floors >= {wall_floor}x and >= {gap_floor}) — {}",
            if wall >= wall_floor && gap >= gap_floor {
                "PASS"
            } else {
                "FAIL"
            }
        );
        assert!(
            wall >= wall_floor && gap >= gap_floor,
            "{name}: smoke wall-clock speedup {wall:.2}x (gap {gap:.2}) \
             below the host-tolerant floor"
        );
    }
    println!("wall-gap smoke PASS");
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
        let exms = time_sort(60_000, 600, 4);
        assert!(
            exms.cp_speedup >= 2.5,
            "ExMS critical-path speedup {} below 2.5x",
            exms.cp_speedup
        );
        let hj = time_join("HJ", JoinAlgorithm::HJ, 20_000, 4, 2_000, 4);
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

    #[test]
    fn smoke_matrix_keeps_counters_identical() {
        // The CI smoke path: a small matrix at DoP 1 vs 4; `report`
        // inside asserts counter identity, so reaching the end is the
        // check.
        let scale = Scale {
            sort_n: 20_000,
            join_t: 3_000,
            join_fanout: 3,
            ..Scale::quick()
        };
        let cells = parallel_speedup_cells(&scale, &[1, 4], true);
        assert_eq!(cells.len(), 12, "six algorithms at two DoPs");
    }
}
