//! `sql_planning`: the bypass workload for execution, and the only
//! place where parse → bind → catalog snapshot → subset-DP planning is
//! most of the time. One cycle is thirteen statements — `EXPLAIN
//! SELECT` over chain joins of 1 to 8 relations on tables with
//! realistic statistics (planned and rendered, never executed), the 7-
//! and 8-relation chains once more in descending table order, and three
//! tiny `SELECT`s — reshuffled by the seed before every cycle. A `core`
//! or `pmem-sim` gain predicts no change here; an enumerator change
//! predicts a change only here.
//!
//! Thirteen kinds, not eleven, so that the percentiles mean something:
//! ordered by latency, the 50 % rank falls in the middle of the
//! 4-relation `EXPLAIN`'s samples and the 90 % rank inside the two
//! 8-relation kinds', instead of on the boundary between two kinds,
//! where a percentile reads one kind's tail.

use crate::check::{Checksum, SplitMix64};
use crate::harness::{Config, Mode, Obs, Pass, Workload};
use crate::json::Json;
use crate::sql::{self, Done};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use planner::execute_naive;
use wl_db::{bind, parse, Database, Statement};

/// Rows of each planned-only table `p0..p7`.
const P_ROWS: u64 = 50_000;
/// Rows of each executed table `q0..q2`.
const Q_ROWS: u64 = 1_000;
/// Most relations one statement joins (the planner's own limit).
const MAX_RELATIONS: usize = 8;
/// Relations the executed statements join at most.
const MAX_EXECUTED: usize = 3;
/// The executed statements keep keys below this.
const KEY_BOUND: u64 = 8;
/// Cycles of the thirteen statements per pass.
const CYCLES: usize = 30;
const DRAM_RECORDS: usize = 2_500;

struct Stmt {
    kind: String,
    sql: String,
    relations: usize,
    /// `Some` for an executed statement: the oracle's rows (filled in by
    /// `reference`).
    expect: Option<Checksum>,
    /// The plan the statement's text produced first; every later pass
    /// must produce the same.
    first_plan: Option<String>,
}

pub struct SqlPlanning {
    db: Database,
    stmts: Vec<Stmt>,
    /// Draws each cycle's statement order.
    order: SplitMix64,
    /// Cycles per pass: `CYCLES`, or one under `--quick` (planning cost
    /// does not shrink with the tables).
    cycles: usize,
}

/// `a JOIN b ON a.key = b.key JOIN c ON b.key = c.key …` over `tables`.
fn chain(tables: &[String]) -> String {
    let mut from = tables[0].clone();
    for pair in tables.windows(2) {
        from.push_str(&format!(" JOIN {1} ON {0}.key = {1}.key", pair[0], pair[1]));
    }
    from
}

fn names(prefix: &str, k: usize) -> Vec<String> {
    (0..k).map(|i| format!("{prefix}{i}")).collect()
}

impl Workload for SqlPlanning {
    const NAME: &'static str = "sql_planning";
    const DECOMPOSES: bool = true;
    const STATEMENT_LATENCY: bool = true;

    fn setup(cfg: &Config) -> Result<Self, String> {
        let db = Database::builder()
            .dram_records(DRAM_RECORDS)
            .threads(1)
            .build();
        let mut seeds = SplitMix64::new(cfg.seed);
        for (prefix, tables, rows) in [("p", MAX_RELATIONS, P_ROWS), ("q", MAX_EXECUTED, Q_ROWS)] {
            for name in names(prefix, tables) {
                db.create_wisconsin(&name, cfg.size(rows), 1, seeds.next_u64())
                    .map_err(|e| format!("create {name}: {e}"))?;
            }
        }
        let explain = |kind: String, tables: &[String]| Stmt {
            kind,
            sql: format!("EXPLAIN SELECT * FROM {}", chain(tables)),
            relations: tables.len(),
            expect: None,
            first_plan: None,
        };
        let mut stmts = Vec::new();
        for k in 1..=MAX_RELATIONS {
            stmts.push(explain(format!("explain_r{k}"), &names("p", k)));
        }
        for k in [MAX_RELATIONS - 1, MAX_RELATIONS] {
            let mut descending = names("p", k);
            descending.reverse();
            stmts.push(explain(format!("explain_desc_r{k}"), &descending));
        }
        for k in 1..=MAX_EXECUTED {
            stmts.push(Stmt {
                kind: format!("select_r{k}"),
                sql: format!(
                    "SELECT * FROM {} WHERE q0.key < {KEY_BOUND}",
                    chain(&names("q", k))
                ),
                relations: k,
                expect: Some(Checksum::default()),
                first_plan: None,
            });
        }
        Ok(Self {
            db,
            stmts,
            order: seeds,
            cycles: if cfg.quick { 1 } else { CYCLES },
        })
    }

    fn reference(&mut self) -> Result<(), String> {
        let catalog = self.db.catalog();
        for stmt in self.stmts.iter_mut().filter(|s| s.expect.is_some()) {
            let text = &stmt.sql;
            let Ok(Statement::Select(select)) = parse(text) else {
                return Err(format!("not a SELECT: {text}"));
            };
            let bound = bind(&select, &catalog).map_err(|e| format!("{text}: {e}"))?;
            let oracle =
                execute_naive(&bound.logical, &catalog).map_err(|e| format!("{text}: {e}"))?;
            stmt.expect = Some(Checksum::of(oracle.wide_rows().iter().map(Vec::as_slice)));
        }
        Ok(())
    }

    fn pass(&mut self, mode: Mode, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut session = self.db.session();
        let q_rows = self.db.catalog().stats("q0").map_or(0, |s| s.rows);
        for cycle in 0..self.cycles {
            // A new order every cycle, so no statement always follows
            // the same one into the same cache state.
            self.order.shuffle(&mut self.stmts);
            for stmt in &mut self.stmts {
                let done = pass.op(|| match mode {
                    Mode::Session => sql::run_session(&mut session, &stmt.sql),
                    Mode::Decomposed => {
                        sql::run_decomposed(&self.db, &session, &stmt.sql, &stmt.kind, tracer)
                    }
                });
                match done.map_err(|e| format!("{}: {e}", stmt.kind))? {
                    Done::Explained(e) => {
                        let same = *stmt.first_plan.get_or_insert_with(|| e.plan.clone()) == e.plan;
                        pass.check(e.relations == stmt.relations && same, || {
                            format!(
                                "{}: plan covers {} relations or changed between passes:\n{}",
                                stmt.kind, e.relations, e.plan
                            )
                        });
                        let ascending = !stmt.kind.contains("desc");
                        if cycle == 0 && ascending && stmt.relations % 2 == 0 {
                            pass.note(
                                format!("planner.candidates.r{}", stmt.relations),
                                e.candidates as f64,
                            );
                        }
                    }
                    Done::Rows(rows) => {
                        pass.check(Some(rows.sum) == stmt.expect, || {
                            format!(
                                "{}: got {:?}, oracle {:?}",
                                stmt.kind, rows.sum, stmt.expect
                            )
                        });
                        pass.io = pass.io.plus(&rows.io);
                        pass.records += q_rows * stmt.relations as u64;
                    }
                    other => return Err(format!("{}: unexpected {other:?}", stmt.kind)),
                }
            }
        }
        Ok(pass)
    }

    fn layer_obs(&self, spans: &[Span], obs: &mut Obs) {
        sql::front_obs(spans, obs);
        for k in 1..=MAX_RELATIONS {
            let kind = format!("explain_r{k}");
            let ns = trace::durations(spans, "plan", |s| s == kind);
            obs.push((format!("planner.plan_us.r{k}"), stats::median(&ns) / 1e3));
        }
    }

    fn notes(&self) -> Vec<(String, Json)> {
        let rows = |name: &str| {
            let rows = self.db.catalog().stats(name).map_or(0, |s| s.rows);
            Json::Num(rows as f64)
        };
        let mut kinds: Vec<&str> = self.stmts.iter().map(|s| s.kind.as_str()).collect();
        kinds.sort_unstable();
        vec![
            ("planned_table_rows".into(), rows("p0")),
            ("executed_table_rows".into(), rows("q0")),
            ("cycles_per_pass".into(), Json::Num(self.cycles as f64)),
            (
                "statements_per_pass".into(),
                Json::Num((self.cycles * self.stmts.len()) as f64),
            ),
            (
                "statement_kinds".into(),
                Json::Arr(kinds.into_iter().map(Json::str).collect()),
            ),
            (
                "statement_order".into(),
                Json::str("reshuffled by the seed before every cycle"),
            ),
        ]
    }
}
