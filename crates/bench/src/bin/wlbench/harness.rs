//! The run protocol every workload shares: repeated set-up, one
//! discarded warm-up pass, timed passes until the budget is spent, and
//! — in the traced run — rounds of untraced and traced passes plus the
//! workload's extra cells and layer probes. One closed loop, one client,
//! one thread, DoP 1.

use crate::defs::{self, Def, Gate, Level};
use crate::json::Json;
use crate::stats::{self, Summary};
use crate::trace::{self, Span, Tracer};
use pmem_sim::{IoStats, LatencyProfile};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Timed passes a run makes at least, whatever the budget.
const MIN_PASSES: usize = 3;
/// Rounds of (session, untraced, traced) passes a traced run makes at
/// least.
const MIN_TRACE_ROUNDS: usize = 2;
/// `--quick` divides every cardinality by this.
const QUICK_DIVISOR: f64 = 20.0;

/// What one invocation runs with.
#[derive(Clone, Debug)]
pub struct Config {
    /// Drives every generated input; the engine never sees it.
    pub seed: u64,
    /// Multiplies every cardinality (1.0 for gated runs).
    pub scale: f64,
    /// Measurement budget of the timed passes.
    pub seconds: f64,
    /// Harness self-test: tables ÷ 20, one set-up, one pass.
    pub quick: bool,
    /// Traced run: spans, layer metrics, probes.
    pub trace: bool,
    /// Directory every file of this run is created under.
    pub scratch: PathBuf,
}

impl Config {
    /// A frozen cardinality at this run's scale.
    pub fn size(&self, n: u64) -> u64 {
        let quick = if self.quick { QUICK_DIVISOR } else { 1.0 };
        crate::check::scaled(n, self.scale / quick)
    }
}

/// How a pass issues SQL statements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Session::execute` and `ResultStream` pulls — what a user runs,
    /// and what every end-to-end metric is measured on.
    Session,
    /// The same statement through the public calls `Session` makes
    /// (parse, catalog, bind, plan, execute, pull), one span each.
    Decomposed,
}

/// Named per-pass observations.
pub type Obs = Vec<(String, f64)>;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds inside timed regions (verification excluded).
    pub wall_s: f64,
    /// Latency of each operation (cell, statement) in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Simulated traffic of the timed regions.
    pub io: IoStats,
    /// Input records the pass consumed (a per-workload constant).
    pub records: u64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// One message per failed operation or wrong result.
    pub failures: Vec<String>,
    /// Workload-specific observations (exact counts in every run,
    /// layer timings in the traced run).
    pub extra: Obs,
}

impl Pass {
    /// Times `f` as one operation of the pass.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.wall_s += dt;
        self.lat_ms.push(dt * 1e3);
        out
    }

    /// Times `f` as part of the pass without an operation sample;
    /// returns its seconds too.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.wall_s += dt;
        (out, dt)
    }

    /// Counts one attempted operation; a wrong result is a failed one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.extra.push((name.into(), value));
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether [`Mode::Decomposed`] issues statements differently from
    /// [`Mode::Session`] (false for workloads that run no SQL).
    const DECOMPOSES: bool;
    /// Whether a pass's operations are statements of one stream, many
    /// enough for percentiles: `stmt_p50_ms` and `stmt_p90_ms` are
    /// reported only then. A dozen cells or eight statement kinds that
    /// each run once have no percentiles; their times are layer metrics.
    const STATEMENT_LATENCY: bool;

    /// Generates the inputs from the seed and stages them; timed as
    /// `setup_s`.
    fn setup(cfg: &Config) -> Result<Self, String>;

    /// Computes the reference results of the correctness gate, once,
    /// after the last set-up and outside every timed region — so a
    /// slower oracle is never a slower benchmark.
    fn reference(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs one pass and verifies its outputs.
    fn pass(&mut self, mode: Mode, tracer: &mut Tracer) -> Result<Pass, String>;

    /// Layer timings read off the spans of one traced pass.
    fn layer_obs(&self, spans: &[Span], obs: &mut Obs);

    /// Measurements only the traced run makes, outside any pass.
    fn trace_extras(&mut self, _cfg: &Config, _obs: &mut Obs) -> Result<(), String> {
        Ok(())
    }

    /// Frozen sizes and constants, printed with the result.
    fn notes(&self) -> Vec<(String, Json)>;
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRow {
    pub def: Def,
    pub summary: Summary,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<MetricRow>,
    pub notes: Vec<(String, Json)>,
}

/// Samples by metric name, in first-seen order.
#[derive(Debug, Default)]
struct Samples(Vec<(String, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name.to_string(), vec![value])),
        }
    }

    fn extend(&mut self, obs: Obs) {
        for (name, value) in obs {
            self.push(&name, value);
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }
}

/// Folds a finished pass of `W` into the run: counts, failures, and —
/// for measured passes — its observations.
fn absorb<W: Workload>(
    pass: Pass,
    measured: bool,
    samples: &mut Samples,
    report: &mut Report,
) -> f64 {
    report.attempted += pass.attempted;
    report.failures.extend(pass.failures);
    let wall = pass.wall_s;
    if !measured {
        return wall;
    }
    samples.push("wall_s", wall);
    samples.push("host_rec_per_s", pass.records as f64 / wall);
    if W::STATEMENT_LATENCY {
        let lat = stats::sorted(&pass.lat_ms);
        samples.push("stmt_p50_ms", stats::nearest_rank(&lat, 50.0));
        // Too few statements beyond the rank (`--quick`): no tail.
        if let Some(p90) = stats::tail_percentile(&lat, 90.0) {
            samples.push("stmt_p90_ms", p90);
        }
    }
    samples.push("sim_cl_writes", pass.io.cl_writes as f64);
    samples.push("sim_cl_reads", pass.io.cl_reads as f64);
    samples.push("sim_time_s", pass.io.time_secs(&LatencyProfile::PCM));
    samples.extend(pass.extra);
    wall
}

/// Runs workload `W` under `cfg`.
///
/// # Errors
/// Returns a message when the workload cannot run at all (I/O error,
/// engine error); wrong results are counted in the report instead.
pub fn run<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let mut samples = Samples::default();
    let mut report = Report {
        workload: W::NAME,
        traced: cfg.trace,
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };

    let mut staged = None;
    for _ in 0..if cfg.quick { 1 } else { SETUP_REPEATS } {
        // Free the previous staging first: set-ups must not overlap in
        // memory, or the later ones run against a fuller heap.
        drop(staged.take());
        let t0 = Instant::now();
        staged = Some(W::setup(cfg)?);
        samples.push("setup_s", t0.elapsed().as_secs_f64());
    }
    let mut w = staged.expect("at least one set-up");
    w.reference()?;
    report.notes = w.notes();

    // The first pass is measurably colder (page faults, allocator
    // growth, lazy statics): run it, check it, discard its timings.
    let warm = w.pass(Mode::Session, &mut Tracer::new(false))?;
    absorb::<W>(warm, false, &mut samples, &mut report);

    let started = Instant::now();
    let floor = |min: usize| if cfg.quick { 1 } else { min };
    let spent =
        |n: usize, min: usize| n >= floor(min) && started.elapsed().as_secs_f64() >= cfg.seconds;
    // Peak memory is read once the mandatory passes are done, not at the
    // end: how many more passes fit the budget depends on the host's
    // speed, and the heap's high-water mark creeps up with every pass.
    let mut peak_rss = None;
    let mut read_rss = |n: usize, min: usize| {
        if n == floor(min) {
            peak_rss = crate::host::peak_rss_mib();
        }
    };
    let mut trace_doc = None;
    if cfg.trace {
        let (mut session, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
        let mut tracer = Tracer::new(true);
        let mut rounds = 0;
        while !spent(rounds, MIN_TRACE_ROUNDS) {
            let pass = w.pass(Mode::Session, &mut Tracer::new(false))?;
            session.push(absorb::<W>(pass, true, &mut samples, &mut report));
            if W::DECOMPOSES {
                let pass = w.pass(Mode::Decomposed, &mut Tracer::new(false))?;
                plain.push(absorb::<W>(pass, false, &mut samples, &mut report));
            }
            tracer.clear();
            let pass = w.pass(Mode::Decomposed, &mut tracer)?;
            traced.push(absorb::<W>(pass, false, &mut samples, &mut report));
            let mut obs = Obs::new();
            w.layer_obs(tracer.spans(), &mut obs);
            samples.extend(obs);
            rounds += 1;
            read_rss(rounds, MIN_TRACE_ROUNDS);
        }
        let untraced = if W::DECOMPOSES { &plain } else { &session };
        // The two validity figures compare the best pass of each kind:
        // interference only ever adds time, and a handful of rounds is
        // too few for medians to shed a burst.
        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let pct = |a: &[f64], b: &[f64]| (best(a) / best(b) - 1.0) * 100.0;
        samples.push("trace_overhead_pct", pct(&traced, untraced));
        if W::DECOMPOSES {
            samples.push("trace.decomp_gap_pct", pct(&plain, &session).abs());
        }
        let mut obs = Obs::new();
        w.trace_extras(cfg, &mut obs)?;
        samples.extend(obs);
        // Evidence that the layer split is real: where the last traced
        // pass spent its time.
        for (note, names) in [
            ("front_half_share_of_pass", &trace::FRONT_HALF[..]),
            ("write_path_share_of_pass", &trace::WRITE_PATH[..]),
        ] {
            let share = trace::share_of_roots(tracer.spans(), names);
            report.notes.push((note.into(), Json::Num(share)));
        }
        trace_doc = Some(trace::to_json(W::NAME, cfg.seed, tracer.spans()));
    } else {
        let mut passes = 0;
        while !spent(passes, MIN_PASSES) {
            let pass = w.pass(Mode::Session, &mut Tracer::new(false))?;
            absorb::<W>(pass, true, &mut samples, &mut report);
            passes += 1;
            read_rss(passes, MIN_PASSES);
        }
    }
    if let Some(mib) = peak_rss {
        samples.push("peak_rss_mb", mib);
    }
    if let Some(doc) = trace_doc {
        let path = cfg.scratch.parent().unwrap_or(&cfg.scratch).join(format!(
            "trace-{}-{}.json",
            W::NAME,
            cfg.seed
        ));
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        report
            .notes
            .push(("trace_file".into(), Json::str(path.display().to_string())));
    }

    summarize(&samples, &mut report)?;
    Ok(report)
}

/// Turns samples into metric rows under the definitions table. An
/// exact metric whose passes disagree is a failed operation: the
/// counters stopped being deterministic. `ops_failed_share` is taken
/// last, over everything the run attempted.
fn summarize(samples: &Samples, report: &mut Report) -> Result<(), String> {
    let defs = defs::all();
    if let Some((name, _)) = samples
        .0
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("observation {name:?} has no metric definition"));
    }
    for def in defs {
        let values = samples.get(&def.name);
        let Some(summary) = Summary::of(values) else {
            continue;
        };
        if def.gate == Gate::Exact {
            report.attempted += 1;
            if summary.min != summary.max {
                report.failures.push(format!(
                    "{}: exact metric differs between passes ({} vs {})",
                    def.name, summary.min, summary.max
                ));
            }
        }
        report.metrics.push(MetricRow { def, summary });
    }
    let share = report.failures.len() as f64 / report.attempted.max(1) as f64;
    let row = MetricRow {
        def: defs::all()
            .into_iter()
            .find(|d| d.name == "ops_failed_share")
            .expect("defined"),
        summary: Summary::of(&[share]).expect("one sample"),
    };
    let end_to_end = |m: &MetricRow| m.def.level == Level::EndToEnd;
    let at = report.metrics.iter().take_while(|m| end_to_end(m)).count();
    report.metrics.insert(at, row);
    Ok(())
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// This workload's entry in the result document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut row = vec![
                    ("name".to_string(), Json::str(m.def.name.as_str())),
                    ("unit".to_string(), Json::str(m.def.unit)),
                    ("better".to_string(), Json::str(m.def.better.label())),
                    (
                        "level".to_string(),
                        Json::str(match m.def.level {
                            Level::EndToEnd => "end_to_end",
                            Level::Layer => "layer",
                        }),
                    ),
                    ("gate".to_string(), m.def.gate.to_json()),
                ];
                row.extend(m.summary.to_json());
                Json::Obj(row)
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::str(self.workload)),
            ("traced".into(), Json::Bool(self.traced)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failures.len() as f64)),
            ("notes".into(), Json::Obj(self.notes.clone())),
            ("metrics".into(), Json::Arr(metrics)),
        ])
    }

    /// The driver's result line: every `end_to_end` metric of
    /// `BENCHMARK.json` for an untraced run, every `per_layer` metric
    /// for a traced one. A metric this workload does not have (a layer
    /// it does not exercise) reads 0 there and is absent from its
    /// document.
    pub fn driver_line(&self) -> String {
        let metrics = defs::driver_metrics(self.traced)
            .into_iter()
            .map(|d| {
                let value = self
                    .metrics
                    .iter()
                    .find(|m| m.def.name == d.name)
                    .map_or(0.0, |m| m.summary.median);
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(d.unit)),
                ]);
                (d.name, entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failures.len() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// Human-readable listing: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} ({}) — attempted {}, failed {}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failures.len()
        );
        for (key, value) in &self.notes {
            println!("   {key} = {}", value.render());
        }
        for m in &self.metrics {
            let s = &m.summary;
            println!(
                "{:<46} {:>16.6} {:<10} q1 {:.6} q3 {:.6} n {} spread {:.2}%",
                m.def.name,
                s.median,
                m.def.unit,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0
            );
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }
}
