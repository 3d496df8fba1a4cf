//! `sql_analytic`: the statement a user types. Eight statement kinds —
//! scans, sorts, 2- to 5-way joins, aggregation, a Zipf star — run
//! through `Session::execute` and are drained batch by batch.
//! Execution and delivery dominate (the front half is under 1 %), so
//! this shows what an operator gain is worth once lowering,
//! aggregation and result delivery are in the path, and it exercises
//! statistics, the cardinality-guided join and the re-planning hook.

use crate::check::Checksum;
use crate::defs::ANALYTIC_STMTS;
use crate::harness::{Config, Mode, Obs, Pass, Workload};
use crate::json::Json;
use crate::sql::{self, Done};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use planner::execute_naive;
use wl_db::{bind, parse, Database, Statement};

/// Distinct keys of `t`, `v` (× `V_FANOUT` rows per key) and `d0..d3`.
const KEYS: u64 = 50_000;
const V_FANOUT: u64 = 4;
/// Distinct keys of the Zipf table `z` (× `Z_FANOUT` rows).
const Z_KEYS: u64 = 12_500;
const Z_FANOUT: u64 = 4;
const THETA: f64 = 1.2;
/// Session DRAM budget as a share of `KEYS` records (5 %).
const DRAM_SHARE: f64 = 0.05;
const BATCH_ROWS: usize = 1024;

struct Stmt {
    kind: &'static str,
    sql: String,
    ordered: bool,
    /// Rows the statement's tables hold: what it consumes.
    input_rows: u64,
    /// Row count and checksum of the naive oracle's result (filled in by
    /// `reference`).
    expect: Checksum,
}

pub struct SqlAnalytic {
    db: Database,
    stmts: Vec<Stmt>,
}

/// The text of statement `kind` and the tables it reads.
fn statement(kind: &str, keys: u64, z_keys: u64) -> (String, &'static [&'static str]) {
    match kind {
        "scan_filter" => (format!("SELECT * FROM t WHERE key < {}", keys / 2), &["t"]),
        "sort_t" => ("SELECT * FROM t ORDER BY key".into(), &["t"]),
        "sort_v" => ("SELECT * FROM v ORDER BY key".into(), &["v"]),
        "join2" => (
            "SELECT * FROM t JOIN v ON t.key = v.key".into(),
            &["t", "v"],
        ),
        "join2_agg_sort" => (
            "SELECT * FROM t JOIN v ON t.key = v.key GROUP BY key ORDER BY key".into(),
            &["t", "v"],
        ),
        "join3" => (
            "SELECT * FROM t JOIN v ON t.key = v.key JOIN d0 ON v.key = d0.key".into(),
            &["t", "v", "d0"],
        ),
        "join5" => (
            "SELECT * FROM d0 JOIN d1 ON d0.key = d1.key JOIN d2 ON d1.key = d2.key \
             JOIN d3 ON d2.key = d3.key JOIN t ON d3.key = t.key"
                .into(),
            &["d0", "d1", "d2", "d3", "t"],
        ),
        // The filter keeps the hot head of the Zipf keys, which the
        // uniform assumption sizes several times too small.
        _ => (
            format!(
                "SELECT * FROM z JOIN d0 ON z.key = d0.key JOIN d1 ON z.key = d1.key \
                 JOIN d2 ON z.key = d2.key WHERE z.key < {}",
                (z_keys / 5).max(1)
            ),
            &["z", "d0", "d1", "d2"],
        ),
    }
}

impl Workload for SqlAnalytic {
    const NAME: &'static str = "sql_analytic";
    const DECOMPOSES: bool = true;
    const STATEMENT_LATENCY: bool = false;

    fn setup(cfg: &Config) -> Result<Self, String> {
        let keys = cfg.size(KEYS);
        let z_keys = cfg.size(Z_KEYS);
        let db = Database::builder()
            .dram_records(((keys as f64 * DRAM_SHARE) as usize).max(16))
            .batch_rows(BATCH_ROWS)
            .threads(1)
            .build();
        let seed = cfg.seed;
        let create = |name: &str, fanout, seed, skew| {
            let rows = if skew > 0.0 { z_keys } else { keys };
            db.create_wisconsin_skewed(name, rows, fanout, seed, skew)
                .map_err(|e| format!("create {name}: {e}"))
        };
        create("t", 1, seed, 0.0)?;
        create("v", V_FANOUT, seed.wrapping_add(1), 0.0)?;
        for i in 0..4 {
            create(&format!("d{i}"), 1, seed.wrapping_add(2 + i), 0.0)?;
        }
        create("z", Z_FANOUT, seed.wrapping_add(6), THETA)?;

        let catalog = db.catalog();
        let mut stmts = Vec::new();
        for kind in ANALYTIC_STMTS {
            let (text, tables) = statement(kind, keys, z_keys);
            let input_rows = tables
                .iter()
                .map(|name| catalog.stats(name).map_or(0, |s| s.rows))
                .sum();
            stmts.push(Stmt {
                kind,
                ordered: text.contains("ORDER BY"),
                input_rows,
                expect: Checksum::default(),
                sql: text,
            });
        }
        Ok(Self { db, stmts })
    }

    fn reference(&mut self) -> Result<(), String> {
        let catalog = self.db.catalog();
        for stmt in &mut self.stmts {
            let kind = stmt.kind;
            let Ok(Statement::Select(select)) = parse(&stmt.sql) else {
                return Err(format!("{kind}: not a SELECT: {}", stmt.sql));
            };
            let bound = bind(&select, &catalog).map_err(|e| format!("{kind}: {e}"))?;
            let oracle =
                execute_naive(&bound.logical, &catalog).map_err(|e| format!("{kind}: {e}"))?;
            stmt.expect = Checksum::of(oracle.wide_rows().iter().map(Vec::as_slice));
        }
        Ok(())
    }

    fn pass(&mut self, mode: Mode, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut session = self.db.session();
        let (mut replans, mut pred_r, mut pred_w) = (0.0, 0.0, 0.0);
        for stmt in &self.stmts {
            let done = pass.op(|| match mode {
                Mode::Session => sql::run_session(&mut session, &stmt.sql),
                Mode::Decomposed => {
                    sql::run_decomposed(&self.db, &session, &stmt.sql, stmt.kind, tracer)
                }
            });
            let Done::Rows(rows) = done.map_err(|e| format!("{}: {e}", stmt.kind))? else {
                return Err(format!("{}: delivered no rows", stmt.kind));
            };
            pass.check(
                rows.sum == stmt.expect && (rows.sorted || !stmt.ordered),
                || {
                    format!(
                        "{}: got {:?} sorted={}, oracle {:?}",
                        stmt.kind, rows.sum, rows.sorted, stmt.expect
                    )
                },
            );
            pass.io = pass.io.plus(&rows.io);
            pass.records += stmt.input_rows;
            replans += f64::from(u8::from(rows.replanned));
            pred_r += rows.predicted_reads;
            pred_w += rows.predicted_writes;
        }
        pass.note("planner.replans", replans);
        pass.note(
            "planner.pred_over_meas_reads",
            pred_r / pass.io.cl_reads as f64,
        );
        pass.note(
            "planner.pred_over_meas_writes",
            pred_w / pass.io.cl_writes as f64,
        );
        Ok(pass)
    }

    fn layer_obs(&self, spans: &[Span], obs: &mut Obs) {
        sql::front_obs(spans, obs);
        let (mut deliver_ns, mut deliver_rows) = (0.0, 0.0);
        for stmt in &self.stmts {
            let ms = |name: &str| {
                trace::durations(spans, name, |s| s == stmt.kind)
                    .iter()
                    .sum::<f64>()
                    / 1e6
            };
            let kind = stmt.kind;
            obs.push((format!("planner.exec_ms.{kind}"), ms("execute")));
            obs.push((
                format!("db.stream.first_batch_ms.{kind}"),
                ms("execute") + ms("first_pull"),
            ));
            deliver_ns += ms("deliver") * 1e6;
            deliver_rows += stmt.expect.rows.saturating_sub(BATCH_ROWS as u64) as f64;
        }
        obs.push((
            "db.stream.deliver_ns_per_row".into(),
            deliver_ns / deliver_rows,
        ));
    }

    /// The span profiler's own host cost: the same pass with `SET
    /// profile = off`. The simulated counters must not notice.
    fn trace_extras(&mut self, cfg: &Config, obs: &mut Obs) -> Result<(), String> {
        let run = |profile: &str| -> Result<Pass, String> {
            let mut session = self.db.session();
            sql::run_session(&mut session, &format!("SET profile = {profile}"))?;
            let mut pass = Pass::default();
            for stmt in &self.stmts {
                let done = pass.op(|| sql::run_session(&mut session, &stmt.sql))?;
                if let Done::Rows(rows) = done {
                    pass.io = pass.io.plus(&rows.io);
                }
            }
            Ok(pass)
        };
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..if cfg.quick { 1 } else { 2 } {
            let (pass_on, pass_off) = (run("on")?, run("off")?);
            if pass_on.io != pass_off.io {
                return Err(format!(
                    "profiling changed the simulated counters: {:?} vs {:?}",
                    pass_on.io, pass_off.io
                ));
            }
            on.push(pass_on.wall_s);
            off.push(pass_off.wall_s);
        }
        obs.push((
            "pmem-sim.span.profile_overhead_pct".into(),
            (stats::median(&on) / stats::median(&off) - 1.0) * 100.0,
        ));
        Ok(())
    }

    fn notes(&self) -> Vec<(String, Json)> {
        let tables = self
            .db
            .tables()
            .into_iter()
            .map(|(name, rows)| (name, Json::Num(rows as f64)))
            .collect();
        vec![
            ("table_rows".into(), Json::Obj(tables)),
            (
                "dram_records".into(),
                Json::Num((self.db.defaults().dram_bytes / 80) as f64),
            ),
            ("batch_rows".into(), Json::Num(BATCH_ROWS as f64)),
            ("zipf_theta".into(), Json::Num(THETA)),
            (
                "front_half".into(),
                Json::str("parse + catalog + bind + plan; see the trace's self-time table"),
            ),
        ]
    }
}
