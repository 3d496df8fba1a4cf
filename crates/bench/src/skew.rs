//! Skew-aware planning benchmark: Zipf-skewed star joins, planned two
//! ways over identical inputs.
//!
//! The *static uniform* arm hands the planner uniform data: a catalog
//! registered by row counts and key domains, whose entries therefore
//! carry `TableStatistics::uniform`, planned with adaptivity off — the
//! uniform-assumption subset-DP of the paper's Eqs. 1–11. The
//! *adaptive+guided* arm hands the same planner the ingest-time
//! `TableStatistics` sketches and leaves mid-run re-planning on, so
//! the DP sees true per-key frequencies (surfacing the
//! cardinality-guided join on hot-key-heavy edges) and any residual
//! misestimate is corrected at the first materialization point.
//!
//! Every query is checked against the naive oracle — result rows must
//! be bit-identical at DoP 1 and DoP 4 — and each arm's simulated
//! cacheline counters must not move with the degree of parallelism.
//! The reported reduction is in total `cl_reads + cl_writes`, the raw
//! device traffic both arms pay for the same answer.
//!
//! `repro --skew` writes `BENCH_skew.json`, a committed
//! host-independent summary (all numbers are ledger-derived); the
//! non-smoke run also sweeps *uniform* stars across DRAM budgets and
//! sizes and asserts Kendall τ between predicted and measured plan
//! cost stays ≥ 0.97 — statistics must sharpen skewed estimates
//! without disturbing the uniform concordance the planner already had.

use crate::Scale;
use planner::{
    execute_naive, execute_stream, Catalog, LogicalPlan, PlannedQuery, Planner, Predicate,
};
use pmem_sim::{BufferPool, IoStats, LayerKind, PCollection, Pm, PmDevice};
use std::sync::Arc;
use wisconsin::{Record as _, WisconsinRecord};
use write_limited::stats::{kendall_tau, TableStatistics};

/// Zipf exponent of the skewed dimensions (s ≥ 1.0 per the target).
const THETA: f64 = 1.2;
/// Sketch seed: any fixed value; determinism is what matters.
const STATS_SEED: u64 = 42;

/// One star query measured under both planning arms.
pub struct SkewCell {
    /// Query label (`star-3` … `star-5`).
    pub label: String,
    /// Number of joined tables (hub + dimensions).
    pub tables: usize,
    /// Device traffic of the static uniform-assumption plan.
    pub static_io: IoStats,
    /// Device traffic of the adaptive+guided plan.
    pub adaptive_io: IoStats,
    /// Result rows (identical in both arms and to the oracle).
    pub rows: u64,
    /// `1 − adaptive/static` in total `cl_reads + cl_writes`.
    pub reduction: f64,
    /// Whether the adaptive run actually re-planned mid-run.
    pub replanned: bool,
}

/// Shape of one star: a fact `F` of `center × fact_fanout` rows drawn
/// Zipf (`theta`) over the key domain `0..center` — the hot mass sits
/// on the *low* keys, and the query's `key < center/5` filter keeps
/// exactly that hot head — joined to `dims` unique full-domain
/// dimension tables `D_i`. Under the uniform assumption the filter
/// looks 20%-selective, so every intermediate that contains the
/// filtered fact is sized several times too small and the static plan
/// orders/configures its joins around a phantom tiny input; the
/// equi-depth histogram knows the head prefix carries most of the
/// Zipf mass. Dimension-only joins are exact in both arms, and the
/// output stays bounded by `|F|` (skew never multiplies against
/// skew), keeping the naive oracle tractable.
struct StarSpec {
    label: &'static str,
    center: u64,
    fact_fanout: u64,
    /// Number of unique full-domain dimension tables.
    dims: usize,
}

impl StarSpec {
    fn tables(&self) -> usize {
        self.dims + 1
    }

    /// The filter keeps the hot head: `key < center/5`.
    fn head(&self) -> u64 {
        (self.center / 5).max(1)
    }

    fn logical(&self) -> LogicalPlan {
        let mut plan = LogicalPlan::scan("F").filter(Predicate::KeyBelow(self.head()));
        for i in 0..self.dims {
            plan = plan.join(LogicalPlan::scan(format!("D{}", i + 1)));
        }
        plan
    }

    /// Builds the star's catalog on `dev`. `with_stats` attaches the
    /// ingest-time sketches; without it the entries carry the uniform
    /// statistics of their row counts and key domains.
    fn catalog(&self, dev: &Pm, theta: f64, with_stats: bool) -> Catalog {
        let mut cat = Catalog::new();
        let mut add = |name: &str, keys: Vec<u64>, domain: u64| {
            let col = Arc::new(PCollection::from_records_uncounted(
                dev,
                LayerKind::BlockedMemory,
                name,
                keys.iter()
                    .enumerate()
                    .map(|(i, &k)| WisconsinRecord::from_key(k).with_payload(i as u64)),
            ));
            if with_stats {
                let stats = Arc::new(TableStatistics::build(&keys, STATS_SEED));
                cat.add_table_with_statistics(name, col, domain, stats);
            } else {
                cat.add_table(name, col, domain);
            }
        };
        let fact: Vec<u64> =
            wisconsin::skewed_input(self.center * self.fact_fanout, self.fact_fanout, theta, 7)
                .iter()
                .map(WisconsinRecord::key)
                .collect();
        add("F", fact, self.center);
        for i in 0..self.dims {
            add(
                &format!("D{}", i + 1),
                (0..self.center).collect(),
                self.center,
            );
        }
        cat
    }
}

/// One executed arm: canonical rows, device traffic, and whether
/// drift re-planned mid-run.
struct ArmRun {
    rows: Vec<Vec<u64>>,
    io: IoStats,
    replanned: bool,
}

/// Plans and runs one arm of one star on a fresh device. The plan is
/// enumerated once (serial costing) and only the *execution* degree of
/// parallelism varies with `threads`, so the DoP sweep checks the
/// operators' count-invariance rather than re-opening the plan choice.
fn run_arm(spec: &StarSpec, theta: f64, with_stats: bool, adapt: bool, threads: usize) -> ArmRun {
    let dev = PmDevice::paper_default();
    let cat = spec.catalog(&dev, theta, with_stats);
    let pool = BufferPool::new(pool_records(spec) * 80);
    let logical = spec.logical();
    let planned = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory)
        .with_adaptivity(adapt)
        .plan(&logical, &cat)
        .expect("star plans at this budget");
    let planned = PlannedQuery { threads, ..planned };
    let run =
        execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("star runs");
    ArmRun {
        rows: run.result.all_rows().canonical_wide(),
        io: run.stats,
        replanned: run.adapted.is_some(),
    }
}

/// DRAM budget in records: a quarter of the hub — big enough for the
/// Grace applicability bound, small enough that partitioning is real.
fn pool_records(spec: &StarSpec) -> usize {
    (spec.center / 4).max(64) as usize
}

fn traffic(io: &IoStats) -> u64 {
    io.cl_reads + io.cl_writes
}

/// Runs every star under both arms at DoP 1 and 4, asserting oracle
/// row-identity and DoP-invariant counters, and returns the cells.
pub fn run_skew_cells(scale: &Scale) -> Vec<SkewCell> {
    // The hub scales with the configured join size; dimensions carry
    // 4× its rows. Floors keep the quick scale meaningful.
    let center = (scale.join_t / 4).max(500);
    let specs = [
        StarSpec {
            label: "star-3",
            center,
            fact_fanout: 4,
            dims: 2,
        },
        StarSpec {
            label: "star-4",
            center,
            fact_fanout: 4,
            dims: 3,
        },
        StarSpec {
            label: "star-5",
            center,
            fact_fanout: 4,
            dims: 4,
        },
    ];

    println!("=== Skew-aware planning: Zipf(θ = {THETA}) stars, hub = {center} keys ===");
    println!(
        "{:<8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>9}   oracle",
        "query", "tables", "static r", "static w", "adaptive r", "adaptive w", "rows", "cut"
    );

    let mut cells = Vec::new();
    for spec in &specs {
        // The oracle ignores statistics; any arm's catalog works.
        let dev = PmDevice::paper_default();
        let oracle_cat = spec.catalog(&dev, THETA, false);
        let oracle = execute_naive(&spec.logical(), &oracle_cat)
            .expect("naive evaluates")
            .canonical_wide();

        let mut per_dop: Vec<(ArmRun, ArmRun)> = Vec::new();
        for threads in [1usize, 4] {
            let stat = run_arm(spec, THETA, false, false, threads);
            let adap = run_arm(spec, THETA, true, true, threads);
            assert_eq!(
                stat.rows, oracle,
                "{}: static rows diverged from the oracle at DoP {threads}",
                spec.label
            );
            assert_eq!(
                adap.rows, oracle,
                "{}: adaptive rows diverged from the oracle at DoP {threads}",
                spec.label
            );
            per_dop.push((stat, adap));
        }
        let (stat1, adap1) = &per_dop[0];
        let (stat4, adap4) = &per_dop[1];
        assert_eq!(
            stat1.io, stat4.io,
            "{}: static counters moved with DoP",
            spec.label
        );
        assert_eq!(
            adap1.io, adap4.io,
            "{}: adaptive counters moved with DoP",
            spec.label
        );

        let reduction = 1.0 - traffic(&adap1.io) as f64 / traffic(&stat1.io) as f64;
        println!(
            "{:<8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8.1}%   identical",
            spec.label,
            spec.tables(),
            stat1.io.cl_reads,
            stat1.io.cl_writes,
            adap1.io.cl_reads,
            adap1.io.cl_writes,
            oracle.len(),
            reduction * 100.0,
        );
        cells.push(SkewCell {
            label: spec.label.to_string(),
            tables: spec.tables(),
            static_io: stat1.io,
            adaptive_io: adap1.io,
            rows: oracle.len() as u64,
            reduction,
            replanned: adap1.replanned,
        });
    }
    cells
}

/// Total-traffic reduction across all cells (the acceptance figure).
pub fn total_reduction(cells: &[SkewCell]) -> f64 {
    let stat: u64 = cells.iter().map(|c| traffic(&c.static_io)).sum();
    let adap: u64 = cells.iter().map(|c| traffic(&c.adaptive_io)).sum();
    1.0 - adap as f64 / stat as f64
}

/// Uniform-workload concordance guard: the 3-table star with θ = 0
/// across hub sizes and DRAM budgets, statistics attached. Returns
/// Kendall τ between predicted and measured plan cost.
pub fn uniform_concordance(scale: &Scale) -> Option<f64> {
    let base = (scale.join_t / 8).max(250);
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    println!("=== Uniform stars (θ = 0): predicted vs measured plan cost ===");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>7}",
        "hub", "M recs", "predicted", "measured", "ratio"
    );
    for mult in [1u64, 2, 4] {
        for frac in [4u64, 8, 16] {
            let spec = StarSpec {
                label: "uniform-3",
                center: base * mult,
                fact_fanout: 4,
                dims: 2,
            };
            let dev = PmDevice::paper_default();
            let cat = spec.catalog(&dev, 0.0, true);
            let m_records = ((spec.center / frac).max(64)) as usize;
            let pool = BufferPool::new(m_records * 80);
            let planned = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory)
                .plan(&spec.logical(), &cat)
                .expect("uniform star plans");
            let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool)
                .expect("uniform star runs");
            let pred = planned.predicted.cost_units(dev.lambda());
            let meas = run.stats.cl_reads as f64 + dev.lambda() * run.stats.cl_writes as f64;
            println!(
                "{:>8} {:>8} {:>14.0} {:>14.0} {:>7.2}",
                spec.center,
                m_records,
                pred,
                meas,
                pred / meas
            );
            predicted.push(pred);
            measured.push(meas);
        }
    }
    kendall_tau(&predicted, &measured)
}

/// The full bench: measures the stars, guards the uniform concordance,
/// asserts the ≥ 20% acceptance bar, and writes `BENCH_skew.json`.
pub fn skew_bench(scale: &Scale) {
    let cells = run_skew_cells(scale);
    let total = total_reduction(&cells);
    let tau = uniform_concordance(scale);
    println!(
        "total traffic cut (cl_reads + cl_writes, all stars): {:.1}% (target >= 20%) — {}",
        total * 100.0,
        if total >= 0.20 { "PASS" } else { "FAIL" }
    );
    match tau {
        Some(t) => println!(
            "uniform plan concordance: Kendall τ = {t:.3} (target >= 0.97) — {}",
            if t >= 0.97 { "PASS" } else { "FAIL" }
        ),
        None => println!("uniform plan concordance: τ undefined (too few cells)"),
    }
    assert!(
        total >= 0.20,
        "adaptive+guided plans cut only {:.1}% of device traffic",
        total * 100.0
    );
    let t = tau.expect("enough uniform cells for τ");
    assert!(t >= 0.97, "uniform concordance collapsed: τ = {t:.3}");

    let path = "BENCH_skew.json";
    match std::fs::write(path, skew_summary_json(&cells, total, t)) {
        Ok(()) => println!("skew summary written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The CI smoke: one quick-scale pass over the stars. Oracle
/// row-identity and DoP-invariant counters are asserted inside
/// `run_skew_cells`; on top the smoke requires the guided arm to never
/// pay *more* traffic than the static one (the host-independent floor
/// — the 20% bar is the full bench's job).
pub fn skew_smoke(scale: &Scale) {
    let cells = run_skew_cells(scale);
    for c in &cells {
        println!(
            "{}: static {} vs adaptive {} total cachelines — {}",
            c.label,
            traffic(&c.static_io),
            traffic(&c.adaptive_io),
            if traffic(&c.adaptive_io) <= traffic(&c.static_io) {
                "PASS"
            } else {
                "FAIL"
            }
        );
        assert!(
            traffic(&c.adaptive_io) <= traffic(&c.static_io),
            "{}: guided plan pays more device traffic than the static one",
            c.label
        );
    }
    println!(
        "skew smoke PASS ({:.1}% total cut)",
        total_reduction(&cells) * 100.0
    );
}

/// Serializes the skew cells as the committed host-independent summary
/// (hand-rolled JSON; the offline environment has no serde). Every
/// figure is ledger-derived — no wall-clock fields — so the file is
/// identical on any machine.
pub fn skew_summary_json(cells: &[SkewCell], total: f64, tau: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"wl-skew-summary-v1\",\n");
    out.push_str(&format!(
        "  \"note\": \"Zipf(theta = {THETA}) star joins; static = uniform-assumption \
         catalog with adaptivity off, adaptive = ingest statistics + mid-run \
         re-planning; all counters are simulated cachelines (ledger-derived, \
         host-independent); rows are bit-identical to the naive oracle at DoP 1 \
         and 4 in every cell\",\n"
    ));
    out.push_str(&format!("  \"total_reduction\": {total:.4},\n"));
    out.push_str(&format!("  \"uniform_kendall_tau\": {tau:.4},\n"));
    out.push_str("  \"queries\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"tables\": {}, \
             \"static_cl_reads\": {}, \"static_cl_writes\": {}, \
             \"adaptive_cl_reads\": {}, \"adaptive_cl_writes\": {}, \
             \"rows\": {}, \"reduction\": {:.4}, \"replanned\": {}}}{}\n",
            c.label,
            c.tables,
            c.static_io.cl_reads,
            c.static_io.cl_writes,
            c.adaptive_io.cl_reads,
            c.adaptive_io.cl_writes,
            c.rows,
            c.reduction,
            c.replanned,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale smoke is the test: oracle identity, DoP-stable
    /// counters, and guided ≤ static all assert inside.
    #[test]
    fn quick_scale_stars_never_regress_traffic() {
        skew_smoke(&Scale::quick());
    }

    #[test]
    fn summary_json_is_well_formed() {
        let cells = vec![SkewCell {
            label: "star-3".into(),
            tables: 3,
            static_io: IoStats::default(),
            adaptive_io: IoStats::default(),
            rows: 7,
            reduction: 0.25,
            replanned: false,
        }];
        let json = skew_summary_json(&cells, 0.25, 1.0);
        assert!(json.contains("\"wl-skew-summary-v1\""));
        assert!(json.contains("\"total_reduction\": 0.2500"));
        assert!(json.contains("\"uniform_kendall_tau\": 1.0000"));
        assert!(json.contains("\"rows\": 7"));
    }
}
