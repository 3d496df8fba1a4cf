//! `wlbench` — the repository's one seeded benchmark: four workloads,
//! end-to-end and per-layer metrics, a traced run, and a comparison
//! gate. See `README.md` next to this file.
//!
//! ```text
//! wlbench --all --seed 42 [--out FILE]          every workload, one process each
//! wlbench --workload sql_planning --seed 7      one workload
//! wlbench --workload ops_dop1 --trace           traced run: spans, layers, probes
//! wlbench --compare A.json B.json               apply the bounds; nonzero on regression
//! wlbench --benchmark-json                      print BENCHMARK.json
//! ```

mod analytic;
mod check;
mod compare;
mod defs;
mod harness;
mod host;
mod ingest;
mod json;
mod ops;
mod planning;
mod probes;
mod sql;
mod stats;
mod trace;

use harness::{Config, Report};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark_json: bool,
}

const USAGE: &str = "usage: wlbench (--all | --workload <name>) [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--scale <f>] [--quick] [--out FILE] [--dir TMPDIR]
       wlbench --compare A.json B.json
       wlbench --benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: defs::RUN_SECONDS as f64,
        scale: 1.0,
        trace: false,
        quick: false,
        out: None,
        dir: None,
        compare: None,
        benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--workload" => {
                let name = value("a workload name")?;
                if !defs::WORKLOADS.iter().any(|(n, _)| *n == name) {
                    let known: Vec<&str> = defs::WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!("unknown workload {name:?} (known: {known:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: bad integer {v:?}"))?;
            }
            "--seconds" | "--scale" => {
                let v = value("a positive number")?;
                let n: f64 = v
                    .parse()
                    .ok()
                    .filter(|n: &f64| n.is_finite() && *n > 0.0)
                    .ok_or_else(|| format!("{flag}: bad number {v:?}"))?;
                if flag == "--seconds" {
                    args.seconds = n;
                } else {
                    args.scale = n;
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--dir" => args.dir = Some(PathBuf::from(value("a directory")?)),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ));
            }
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let modes = [
        args.all,
        args.workload.is_some(),
        args.compare.is_some(),
        args.benchmark_json,
    ];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "ops_dop1" => harness::run::<ops::OpsDop1>(cfg),
        "sql_analytic" => harness::run::<analytic::SqlAnalytic>(cfg),
        "sql_planning" => harness::run::<planning::SqlPlanning>(cfg),
        _ => harness::run::<ingest::DurableIngest>(cfg),
    }
}

fn document(header: Json, workloads: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("header".into(), header),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

fn write_out(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process: the driver's entry point. Prints
/// every metric, then the result line. `Ok(false)` = ran, but wrong.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let root = args.dir.clone().unwrap_or_else(host::default_scratch_root);
    let scratch = host::ScratchDir::create(&root, name)?;
    // The engine's file layer spills to the OS temp directory; point it
    // inside the scratch directory so a run writes nowhere else. No
    // other thread exists yet.
    std::env::set_var("TMPDIR", scratch.path());
    let cfg = Config {
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds,
        quick: args.quick,
        trace: args.trace,
        scratch: scratch.path().to_path_buf(),
    };
    let header = host::header(&cfg);
    println!("{}", header.render());
    let report = run_workload(name, &cfg)?;
    report.print();
    if let Some(out) = &args.out {
        write_out(out, &document(header, vec![report.to_json()]))?;
    }
    println!("{}", report.driver_line());
    Ok(report.correct())
}

/// Every workload, each in a process of its own (so `peak_rss_mb` is
/// that workload's), results merged into one document.
fn all(args: &Args) -> Result<bool, String> {
    let root = args.dir.clone().unwrap_or_else(host::default_scratch_root);
    let scratch = host::ScratchDir::create(&root, "all")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut header = None;
    let mut workloads = Vec::new();
    let mut correct = true;
    for (name, _) in defs::WORKLOADS {
        let part = scratch.child(&format!("{name}.json"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--dir"]).arg(&root);
        cmd.args(["--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--scale", &args.scale.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        cmd.arg("--out").arg(&part);
        // Inherits stdout: the child prints its own metric listing.
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        correct &= status.success();
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{name} left no result ({status}): {e}"))?;
        let doc = Json::parse(&text)?;
        header = header.or_else(|| doc.get("header").cloned());
        workloads.extend(
            doc.get("workloads")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .to_vec(),
        );
    }
    if let Some(out) = &args.out {
        write_out(out, &document(header.unwrap_or(Json::Null), workloads))?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.benchmark_json {
            print!("{}", defs::benchmark_json());
            return Ok(true);
        }
        if let Some((a, b)) = &args.compare {
            return compare::run(a, b);
        }
        if host::build_profile() != "release" {
            return Err("refusing to measure a debug build: run with --release".into());
        }
        match &args.workload {
            Some(name) => single(&args, name),
            None => all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("wlbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_and_human_command_lines_parse() {
        let a = parse("--workload sql_planning --seed 7 --seconds 12 --trace 0").expect("driver");
        assert_eq!(a.workload.as_deref(), Some("sql_planning"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, false));
        assert!(
            parse("--workload ops_dop1 --trace 1")
                .expect("traced")
                .trace
        );
        assert!(
            parse("--workload ops_dop1 --trace")
                .expect("bare flag")
                .trace
        );
        let a = parse("--all --trace --out r.json --scale 2").expect("all");
        assert!(a.all && a.trace && a.scale == 2.0);
        assert_eq!(a.out, Some(PathBuf::from("r.json")));
        let a = parse("--compare a.json b.json").expect("compare");
        assert_eq!(a.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--all --workload ops_dop1",
            "--workload nope",
            "--all --seed -1",
            "--all --seconds 0",
            "--all --scale x",
            "--compare only_one.json",
            "--all --frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    /// The whole harness at 1/20 of the tables and one pass per
    /// workload, untraced and traced, so it cannot rot unnoticed.
    #[test]
    fn quick_mode_runs_every_workload_end_to_end() {
        let root = std::env::temp_dir().join(format!("wlbench-quick-{}", std::process::id()));
        let scratch = host::ScratchDir::create(&root, "quick").expect("scratch");
        let mut docs = Vec::new();
        for trace in [false, true] {
            for (name, _) in defs::WORKLOADS {
                let cfg = Config {
                    seed: 7,
                    scale: 1.0,
                    seconds: 0.0,
                    quick: true,
                    trace,
                    scratch: scratch.path().to_path_buf(),
                };
                let report = run_workload(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(report.correct(), "{name}: {:?}", report.failures);
                assert!(report.attempted > 0);
                let line = Json::parse(&report.driver_line()).expect("result line parses");
                let Some(Json::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                assert_eq!(
                    metrics.len(),
                    defs::driver_metrics(trace).len(),
                    "{name}: one value per metric of BENCHMARK.json"
                );
                if !trace {
                    for (metric, entry) in metrics {
                        let v = entry.get("value").and_then(Json::as_f64).expect("number");
                        assert!(v > 0.0, "{name}: end-to-end metric {metric} must not be 0");
                    }
                }
                // A metric that does not apply is absent from the
                // workload's own document, never reported as 0.
                let has = |metric: &str| report.metrics.iter().any(|m| m.def.name == metric);
                let statements = ["sql_planning", "durable_ingest"].contains(&name);
                assert_eq!(has("stmt_p50_ms"), statements, "{name}");
                assert!(has("ops_failed_share"), "{name}");
                assert_eq!(has("db.wal.append_us"), trace && name == "durable_ingest");
                assert_eq!(
                    has("pmem-sim.collection.append_ns"),
                    trace && name == "ops_dop1"
                );
                docs.push(report.to_json());
            }
        }
        // A run compared with itself: nothing regresses, nothing is
        // unresolved for lack of difference.
        let doc = document(Json::Null, docs);
        let verdicts = compare::compare(&doc, &doc).expect("comparable");
        assert!(verdicts.iter().all(|v| !v.verdict.blocks()), "{verdicts:?}");
        assert!(
            root.join("trace-sql_planning-7.json").is_file(),
            "trace written"
        );
        drop(scratch);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
