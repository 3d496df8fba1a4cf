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
//! The report also sweeps *uniform* stars across DRAM budgets and sizes
//! and asserts Kendall τ between predicted and measured plan cost stays
//! ≥ 0.97 — statistics must sharpen skewed estimates without disturbing
//! the uniform concordance the planner already had. Every number is
//! ledger-derived, so the report is identical on any host;
//! `tests/golden/paper_figures.out` pins it at the default scale.

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

/// Fact rows per hub key.
const FACT_FANOUT: u64 = 4;

/// Shape of one star: a fact `F` of `center × FACT_FANOUT` rows drawn
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
    center: u64,
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
            wisconsin::skewed_input(self.center * FACT_FANOUT, FACT_FANOUT, theta, 7)
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

/// One executed arm: canonical rows and device traffic.
struct ArmRun {
    rows: Vec<Vec<u64>>,
    io: IoStats,
}

/// Plans and runs one arm of one star on a fresh device: `guided` is
/// the adaptive+guided arm, otherwise the static uniform one. The plan is
/// enumerated once (serial costing) and only the *execution* degree of
/// parallelism varies with `threads`, so the DoP sweep checks the
/// operators' count-invariance rather than re-opening the plan choice.
/// The DRAM budget is a quarter of the hub — big enough for the Grace
/// applicability bound, small enough that partitioning is real.
fn run_arm(spec: &StarSpec, guided: bool, threads: usize) -> ArmRun {
    let dev = PmDevice::paper_default();
    let cat = spec.catalog(&dev, THETA, guided);
    let pool = BufferPool::new((spec.center / 4).max(64) as usize * 80);
    let logical = spec.logical();
    let planned = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory)
        .with_adaptivity(guided)
        .plan(&logical, &cat)
        .expect("star plans at this budget");
    let planned = PlannedQuery { threads, ..planned };
    let run =
        execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("star runs");
    ArmRun {
        rows: run.result.all_rows().canonical_wide(),
        io: run.stats,
    }
}

fn traffic(io: &IoStats) -> u64 {
    io.cl_reads + io.cl_writes
}

/// Runs every star under both arms at DoP 1 and 4, asserting oracle
/// row-identity and DoP-invariant counters, and renders a line per star
/// into `out`. Returns the static and the adaptive arm's total traffic.
fn run_stars(scale: &Scale, out: &mut String) -> (u64, u64) {
    // The hub scales with the configured join size; dimensions carry
    // 4× its rows. Floors keep the quick scale meaningful.
    let center = (scale.join_t / 4).max(500);
    let specs = [2, 3, 4].map(|dims| StarSpec { center, dims });

    *out += &format!(
        "=== Skew-aware planning: Zipf(θ = {THETA}) stars, hub = {center} keys ===\n\
         {:<8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>9}   oracle\n",
        "query", "tables", "static r", "static w", "adaptive r", "adaptive w", "rows", "cut"
    );

    let (mut static_total, mut adaptive_total) = (0, 0);
    for spec in &specs {
        let label = format!("star-{}", spec.tables());
        // The oracle ignores statistics; any arm's catalog works.
        let dev = PmDevice::paper_default();
        let oracle_cat = spec.catalog(&dev, THETA, false);
        let oracle = execute_naive(&spec.logical(), &oracle_cat)
            .expect("naive evaluates")
            .canonical_wide();

        let mut per_dop: Vec<(ArmRun, ArmRun)> = Vec::new();
        for threads in [1usize, 4] {
            let stat = run_arm(spec, false, threads);
            let adap = run_arm(spec, true, threads);
            assert_eq!(
                stat.rows, oracle,
                "{label}: static rows diverged from the oracle at DoP {threads}"
            );
            assert_eq!(
                adap.rows, oracle,
                "{label}: adaptive rows diverged from the oracle at DoP {threads}"
            );
            per_dop.push((stat, adap));
        }
        let (stat1, adap1) = &per_dop[0];
        let (stat4, adap4) = &per_dop[1];
        assert_eq!(
            stat1.io, stat4.io,
            "{label}: static counters moved with DoP"
        );
        assert_eq!(
            adap1.io, adap4.io,
            "{label}: adaptive counters moved with DoP"
        );

        let reduction = 1.0 - traffic(&adap1.io) as f64 / traffic(&stat1.io) as f64;
        *out += &format!(
            "{:<8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8.1}%   identical\n",
            label,
            spec.tables(),
            stat1.io.cl_reads,
            stat1.io.cl_writes,
            adap1.io.cl_reads,
            adap1.io.cl_writes,
            oracle.len(),
            reduction * 100.0,
        );
        static_total += traffic(&stat1.io);
        adaptive_total += traffic(&adap1.io);
    }
    (static_total, adaptive_total)
}

/// Uniform-workload concordance guard: the 3-table star with θ = 0
/// across hub sizes and DRAM budgets, statistics attached. Renders a
/// line per cell into `out` and returns Kendall τ between predicted and
/// measured plan cost.
fn uniform_concordance(scale: &Scale, out: &mut String) -> Option<f64> {
    let base = (scale.join_t / 8).max(250);
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    *out += &format!(
        "=== Uniform stars (θ = 0): predicted vs measured plan cost ===\n\
         {:>8} {:>8} {:>14} {:>14} {:>7}\n",
        "hub", "M recs", "predicted", "measured", "ratio"
    );
    for mult in [1u64, 2, 4] {
        for frac in [4u64, 8, 16] {
            let spec = StarSpec {
                center: base * mult,
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
            *out += &format!(
                "{:>8} {:>8} {:>14.0} {:>14.0} {:>7.2}\n",
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

/// The skew report: measures the stars, guards the uniform concordance,
/// and asserts the acceptance bars — total traffic cut ≥ 20 % and
/// uniform τ ≥ 0.97.
pub fn skew(scale: &Scale) -> String {
    let mut out = String::new();
    let (stat, adap) = run_stars(scale, &mut out);
    let total = 1.0 - adap as f64 / stat as f64;
    let tau = uniform_concordance(scale, &mut out).expect("enough uniform cells for τ");
    out += &format!(
        "total traffic cut (cl_reads + cl_writes, all stars): {:.1}% (target >= 20%)\n\
         uniform plan concordance: Kendall τ = {tau:.3} (target >= 0.97)\n",
        total * 100.0
    );
    assert!(
        total >= 0.20,
        "adaptive+guided plans cut only {:.1}% of device traffic",
        total * 100.0
    );
    assert!(tau >= 0.97, "uniform concordance collapsed: τ = {tau:.3}");
    out
}
