//! Every metric `wlbench` reports, by name: unit, direction, level and
//! how `--compare` judges it. `BENCHMARK.json` is generated from this
//! table (`wlbench --benchmark-json`), so the two cannot drift.

use crate::json::Json;

/// The four workloads, in run order, each with why it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ops_dop1",
        "Paper operators called directly: core and pmem-sim do all the work, the SQL front end none",
    ),
    (
        "sql_analytic",
        "Statements a user types: execution and result delivery dominate, front half under 1%",
    ),
    (
        "sql_planning",
        "Bypasses execution: parse, bind, catalog snapshot and the subset-DP planner are most of the time",
    ),
    (
        "durable_ingest",
        "Write path: WAL frame and fsync, table and sketch rebuild per INSERT, checkpoint, replay",
    ),
];

/// Sort cells of `ops_dop1`.
pub const SORT_CELLS: [&str; 5] = ["exms", "segs50", "hybs50", "las", "exms_file"];
/// Join cells of `ops_dop1`.
pub const JOIN_CELLS: [&str; 7] = ["gj", "hj", "nlj", "segj50", "laj", "hybj50", "cgj_zipf"];
/// Statement kinds of `sql_analytic`.
pub const ANALYTIC_STMTS: [&str; 8] = [
    "scan_filter",
    "sort_t",
    "sort_v",
    "join2",
    "join2_agg_sort",
    "join3",
    "join5",
    "star_zipf",
];

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 12;

/// Bound `BENCHMARK.json` gives every timing: the widest the benchmark
/// contract allows. The driver compares medians over ten *different*
/// seeds taken minutes apart, on a sandbox whose speed drifts in bursts;
/// `ten_seed_spreads.json` next to this file holds the measured spreads
/// this rests on (up to 15 % for `wall_s`). `--compare` judges
/// same-seed, back-to-back runs and keeps the tighter gates of the
/// table below.
const DRIVER_TIME_BOUND: f64 = 0.25;
/// Bound `BENCHMARK.json` gives peak memory (ten-seed spread ≤ 2.3 %).
const DRIVER_MEMORY_BOUND: f64 = 0.10;
/// Bound `BENCHMARK.json` gives the simulated counters. `--compare`
/// requires them bit-identical per seed; the driver varies the seed, and
/// the generated permutations move the counts by up to 0.03 %.
const DRIVER_COUNT_BOUND: f64 = 0.005;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// What a user of the system sees; gated by the driver.
    EndToEnd,
    /// One layer's number, from the traced run.
    Layer,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `--compare` judges a metric between two result files.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Deterministic per seed at DoP 1: must repeat bit for bit.
    Exact,
    /// Host-dependent: may worsen by this share of the baseline median.
    Within(f64),
    /// Printed, never gated.
    Info,
}

impl Gate {
    pub fn to_json(self) -> Json {
        match self {
            Gate::Exact => Json::str("exact"),
            Gate::Within(b) => Json::Num(b),
            Gate::Info => Json::str("info"),
        }
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Num(b) => Some(Gate::Within(*b)),
            Json::Str(s) if s == "exact" => Some(Gate::Exact),
            Json::Str(s) if s == "info" => Some(Gate::Info),
            _ => None,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub level: Level,
    /// How `--compare` judges it between two same-seed runs.
    pub gate: Gate,
    /// `bound` of the metric in `BENCHMARK.json`'s `end_to_end`. The
    /// driver wants each of those from every workload and never 0; a
    /// metric that cannot promise that has `None` and is listed,
    /// unbounded, under `per_layer` with the layer metrics.
    pub driver_bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, gate: Gate) -> Def {
    let driver_bound = match (gate, unit) {
        (Gate::Exact, _) => DRIVER_COUNT_BOUND,
        (_, "MiB") => DRIVER_MEMORY_BOUND,
        _ => DRIVER_TIME_BOUND,
    };
    Def {
        name: name.to_string(),
        unit,
        better,
        level: Level::EndToEnd,
        gate,
        driver_bound: Some(driver_bound),
    }
}

/// An end-to-end metric that not every workload has, or that is 0 on a
/// good run: in the documents and under `--compare`'s gate like the
/// others, but without a bound of the driver's.
fn e2e_unbounded(name: &str, unit: &'static str, better: Better, gate: Gate) -> Def {
    Def {
        driver_bound: None,
        ..e2e(name, unit, better, gate)
    }
}

fn layer(name: impl Into<String>, unit: &'static str, gate: Gate) -> Def {
    let name = name.into();
    // Throughputs and speedups are the only layer numbers where more
    // is better.
    let better = if unit == "MB/s" || unit == "x" {
        Better::Higher
    } else {
        Better::Lower
    };
    Def {
        name,
        unit,
        better,
        level: Level::Layer,
        gate,
        driver_bound: None,
    }
}

/// Every metric definition: the end-to-end metrics first, then the
/// layers in the order of the repository's modules.
pub fn all() -> Vec<Def> {
    use Gate::{Exact, Info, Within};
    let mut d = vec![
        e2e("setup_s", "s", Better::Lower, Within(0.20)),
        e2e("wall_s", "s", Better::Lower, Within(0.10)),
        e2e("host_rec_per_s", "records/s", Better::Higher, Within(0.10)),
        // Only the workloads whose operations are statements of one
        // stream (`sql_planning`, `durable_ingest`) have these.
        e2e_unbounded("stmt_p50_ms", "ms", Better::Lower, Within(0.10)),
        e2e_unbounded("stmt_p90_ms", "ms", Better::Lower, Within(0.15)),
        e2e("sim_cl_writes", "cachelines", Better::Lower, Exact),
        e2e("sim_cl_reads", "cachelines", Better::Lower, Exact),
        e2e("sim_time_s", "sim_s", Better::Lower, Exact),
        e2e("peak_rss_mb", "MiB", Better::Lower, Within(0.10)),
        // Failed or refused operations ÷ attempted, a wrong result
        // counting as failed. 0 on every run that passes; the driver
        // reads `failed` and `attempted` off the result line as well.
        e2e_unbounded("ops_failed_share", "ratio", Better::Lower, Exact),
    ];
    // sql
    for name in ["sql.parse_us", "sql.bind_us", "sql.catalog_snapshot_us"] {
        d.push(layer(name, "us", Info));
    }
    // planner
    for k in 1..=8 {
        d.push(layer(format!("planner.plan_us.r{k}"), "us", Info));
    }
    for k in [2, 4, 6, 8] {
        d.push(layer(format!("planner.candidates.r{k}"), "count", Exact));
    }
    d.push(layer("planner.replans", "count", Exact));
    d.push(layer("planner.pred_over_meas_reads", "ratio", Exact));
    d.push(layer("planner.pred_over_meas_writes", "ratio", Exact));
    for stmt in ANALYTIC_STMTS {
        d.push(layer(format!("planner.exec_ms.{stmt}"), "ms", Info));
    }
    // core
    for (family, cells) in [("sort", &SORT_CELLS[..]), ("join", &JOIN_CELLS[..])] {
        for cell in cells {
            d.push(layer(
                format!("core.{family}.{cell}.ns_per_rec"),
                "ns/rec",
                Info,
            ));
            d.push(layer(
                format!("core.{family}.{cell}.cl_writes"),
                "cachelines",
                Exact,
            ));
            d.push(layer(
                format!("core.{family}.{cell}.cl_reads"),
                "cachelines",
                Exact,
            ));
        }
    }
    d.push(layer("core.sort.losertree.ns_per_pop", "ns", Info));
    d.push(layer("core.sort.exms.ns_per_rec.s2", "ns/rec", Info));
    d.push(layer("core.join.buildtable.insert_ns", "ns", Info));
    d.push(layer("core.join.buildtable.probe_ns", "ns", Info));
    d.push(layer("core.join.gj.ns_per_rec.s2", "ns/rec", Info));
    d.push(layer("core.stats.build_ns_per_key", "ns/key", Info));
    for cell in ["gj", "exms"] {
        d.push(layer(
            format!("core.parallel.cp_speedup_dop2.{cell}"),
            "x",
            Exact,
        ));
        d.push(layer(
            format!("core.parallel.wall_speedup_dop2.{cell}"),
            "x",
            Info,
        ));
    }
    // pmem-sim
    d.push(layer("pmem-sim.collection.append_ns", "ns", Info));
    d.push(layer(
        "pmem-sim.collection.append_buffer_ns_per_rec",
        "ns/rec",
        Info,
    ));
    d.push(layer(
        "pmem-sim.collection.reader_ns_per_rec",
        "ns/rec",
        Info,
    ));
    d.push(layer("pmem-sim.collection.get_ns", "ns", Info));
    d.push(layer("pmem-sim.collection.append_ns.file", "ns", Info));
    d.push(layer("pmem-sim.metrics.add_ns", "ns", Info));
    d.push(layer("pmem-sim.metrics.flush_ns", "ns", Info));
    d.push(layer("pmem-sim.host_ns_per_cl", "ns/cl", Info));
    d.push(layer("pmem-sim.pool.reserve_ns", "ns", Info));
    d.push(layer("pmem-sim.pool.draws", "count", Exact));
    d.push(layer("pmem-sim.pool.exhausted", "count", Exact));
    d.push(layer("pmem-sim.layer.file.append_mb_per_s", "MB/s", Info));
    d.push(layer("pmem-sim.layer.file.fsync_us", "us", Info));
    d.push(layer("pmem-sim.layer.file.write_syscalls", "count", Exact));
    d.push(layer("pmem-sim.layer.file.bytes_written", "bytes", Exact));
    d.push(layer("pmem-sim.layer.file.fsyncs", "count", Exact));
    d.push(layer("pmem-sim.span.profile_overhead_pct", "%", Info));
    // db
    for stmt in ANALYTIC_STMTS {
        d.push(layer(
            format!("db.stream.first_batch_ms.{stmt}"),
            "ms",
            Info,
        ));
    }
    d.push(layer("db.stream.deliver_ns_per_row", "ns/row", Info));
    d.push(layer("db.wal.append_us", "us", Info));
    d.push(layer("db.wal.bytes_per_row", "bytes", Exact));
    d.push(layer("db.wal.stmt_p99_ms", "ms", Info));
    d.push(layer("db.database.insert_apply_us", "us", Info));
    d.push(layer("db.database.select_beside_writes_ms", "ms", Info));
    d.push(layer("db.durable.checkpoint_ms", "ms", Info));
    d.push(layer("db.durable.checkpoint_bytes", "bytes", Exact));
    d.push(layer("db.durable.replayed_records", "count", Exact));
    d.push(layer("db.durable.replay_us_per_record", "us", Info));
    d.push(layer("db.durable.fsyncs_per_stmt", "count", Exact));
    d.push(layer("db.durable.file_bytes_per_user_byte", "ratio", Exact));
    d.push(layer("db.durable.reopen_ms", "ms", Within(0.10)));
    // generator and the harness itself
    d.push(layer("wisconsin.gen_ns_per_rec", "ns/rec", Info));
    d.push(layer("trace_overhead_pct", "%", Info));
    d.push(layer("trace.decomp_gap_pct", "%", Info));
    d
}

/// The metrics of the driver's result line, as `BENCHMARK.json` lists
/// them: the bounded ones (`end_to_end`) for an untraced run, the
/// unbounded ones (`per_layer`) for a traced one.
pub fn driver_metrics(traced: bool) -> Vec<Def> {
    let mut defs = all();
    defs.retain(|d| d.driver_bound.is_none() == traced);
    defs
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |d: &Def| {
        let mut m = vec![
            ("name".to_string(), Json::str(d.name.as_str())),
            ("unit".to_string(), Json::str(d.unit)),
            ("better".to_string(), Json::str(d.better.label())),
        ];
        if let Some(b) = d.driver_bound {
            m.push(("bound".to_string(), Json::Num(b)));
        }
        Json::Obj(m)
    };
    let end_to_end = driver_metrics(false).iter().map(metric).collect();
    let per_layer = driver_metrics(true).iter().map(metric).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::Obj(vec![
                ("name".into(), Json::str(*name)),
                ("why".into(), Json::str(*why)),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "-p",
        "wl-bench",
        "--bin",
        "wlbench",
        "--",
    ];
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        (
            "paths".into(),
            Json::Arr(vec![Json::str("crates/bench/src/bin/wlbench")]),
        ),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        ("workloads".into(), Json::Arr(workloads)),
        ("end_to_end".into(), Json::Arr(end_to_end)),
        ("per_layer".into(), Json::Arr(per_layer)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    #[test]
    fn definitions_fit_the_benchmark_contract() {
        let defs = all();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for d in &defs {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(d.unit.len() <= 16 && d.unit.chars().all(ok), "{}", d.unit);
            if let Gate::Within(b) = d.gate {
                assert!(b > 0.0 && b <= 0.25, "{} gate {b}", d.name);
            }
            if let Some(b) = d.driver_bound {
                assert!(d.level == Level::EndToEnd && b > 0.0 && b <= 0.25);
            }
        }
        assert!((1..=16).contains(&driver_metrics(false).len()));
        assert!((1..=128).contains(&driver_metrics(true).len()));
        // Set-up time carries the largest bound of the file.
        let e2e = driver_metrics(false);
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|d| d.driver_bound <= setup.driver_bound));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `wlbench --benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn gates_round_trip_through_json() {
        for g in [Gate::Exact, Gate::Info, Gate::Within(0.15)] {
            assert_eq!(Gate::from_json(&g.to_json()), Some(g));
        }
        assert_eq!(Gate::from_json(&Json::Null), None);
    }
}
