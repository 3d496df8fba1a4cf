//! Issuing one SQL statement two ways: through `Session::execute` the
//! way a user does, and decomposed into the public calls `Session`
//! itself makes (`parse` → `Database::catalog` → `bind` →
//! `Planner::plan` → `execute_stream_profiled` → `ResultSet` pulls),
//! one span around each. Both consume every delivered row into an
//! order-independent checksum, so a pass verifies what it timed.

use crate::check::Checksum;
use crate::harness::Obs;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use planner::{
    execute_stream_profiled, render_choices, render_plan, PhysicalPlan, PlannedQuery, Planner,
};
use pmem_sim::{BufferPool, IoStats};
use std::hint::black_box;
use wl_db::{bind, parse, Database, Response, ResultStream, Session, Statement};

/// What a `SELECT` delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rows {
    /// Count and checksum of the delivered rows.
    pub sum: Checksum,
    /// Whether keys (column 0) arrived in ascending order.
    pub sorted: bool,
    /// Measured traffic of the run.
    pub io: IoStats,
    /// The planner's prediction for the same run.
    pub predicted_reads: f64,
    pub predicted_writes: f64,
    /// Whether the executor re-planned mid-run.
    pub replanned: bool,
}

/// What an `EXPLAIN` planned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explained {
    /// Base relations the chosen plan scans.
    pub relations: usize,
    /// Alternatives the enumerator costed.
    pub candidates: usize,
    /// The chosen plan, rendered: equal texts must plan identically.
    pub plan: String,
}

/// The product of one statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Done {
    Rows(Rows),
    Explained(Explained),
    /// Rows an `INSERT` acknowledged.
    Inserted(u64),
    /// `CHECKPOINT`, `CREATE TABLE`, `SET` and the like.
    Other,
}

fn scans(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::Scan { .. } => 1,
        other => other.children().into_iter().map(scans).sum(),
    }
}

fn explained(planned: &PlannedQuery, report: &str) -> Explained {
    // The report is the statement's product; keep the optimizer from
    // discarding the rendering.
    black_box(report.len());
    Explained {
        relations: scans(&planned.plan),
        candidates: planned.choices.iter().map(|c| c.candidates.len()).sum(),
        plan: planned.plan.describe(),
    }
}

/// Folds one delivered batch into the running checksum.
fn consume(rows: &[Vec<u64>], out: &mut Rows, last_key: &mut u64) {
    for row in rows {
        out.sorted &= row[0] >= *last_key;
        *last_key = row[0];
        out.sum.add(row);
    }
}

impl Rows {
    /// No rows yet: trivially in order.
    fn none() -> Self {
        Self {
            sorted: true,
            ..Self::default()
        }
    }
}

fn drain(stream: &mut ResultStream) -> Result<Rows, String> {
    let mut out = Rows::none();
    let mut last_key = 0;
    while let Some(batch) = stream.next_batch().map_err(|e| e.to_string())? {
        consume(&batch.rows, &mut out, &mut last_key);
    }
    let stats = stream.stats().ok_or("stream ended without statistics")?;
    out.io = stats.io;
    out.predicted_reads = stream.planned().predicted.reads;
    out.predicted_writes = stream.planned().predicted.writes;
    out.replanned = stream.adapted().is_some();
    Ok(out)
}

/// Runs `sql` the way a user does.
///
/// # Errors
/// Returns the engine's message when the statement fails.
pub fn run_session(session: &mut Session<'_>, sql: &str) -> Result<Done, String> {
    match session.execute(sql).map_err(|e| e.to_string())? {
        Response::Rows(mut stream) => drain(&mut stream).map(Done::Rows),
        // EXPLAIN plans without executing; rendering the report is the
        // statement's visible product.
        Response::Explain(stream) => Ok(Done::Explained(explained(
            stream.planned(),
            &stream.explain(),
        ))),
        Response::Inserted { rows, .. } => Ok(Done::Inserted(rows)),
        _ => Ok(Done::Other),
    }
}

/// Runs `sql` through the public calls `Session::execute` makes, with
/// one span per layer boundary under a `stmt` root; `kind` labels the
/// spans. Knobs are read from `session` so both paths plan alike.
///
/// # Errors
/// Returns the engine's message when the statement fails.
pub fn run_decomposed(
    db: &Database,
    session: &Session<'_>,
    sql: &str,
    kind: &str,
    tracer: &mut Tracer,
) -> Result<Done, String> {
    tracer.span("stmt", kind, |t| {
        let statement = t
            .span("parse", kind, |_| parse(sql))
            .map_err(|e| e.to_string())?;
        let (select, explain) = match statement {
            Statement::Select(select) => (select, false),
            Statement::Explain(select) => (select, true),
            Statement::Insert { table, keys } => {
                return t
                    .span("insert", kind, |_| db.insert_keys(&table.name, &keys))
                    .map(Done::Inserted)
                    .map_err(|e| e.to_string());
            }
            Statement::Checkpoint => {
                return t
                    .span("checkpoint", kind, |_| db.checkpoint())
                    .map(|_| Done::Other)
                    .map_err(|e| e.to_string());
            }
            other => return Err(format!("no decomposition for: {}", other.describe())),
        };
        let knobs = session.config();
        let catalog = t.span("catalog", kind, |_| db.catalog());
        let bound = t
            .span("bind", kind, |_| bind(&select, &catalog))
            .map_err(|e| e.to_string())?;
        let dev = db.device();
        let pool = BufferPool::new(knobs.dram_bytes);
        let planned = t
            .span("plan", kind, |_| {
                Planner::with_config(
                    knobs.lambda.unwrap_or_else(|| dev.lambda()),
                    pool.budget_buffers() as f64,
                    db.layer(),
                    dev.config(),
                )
                .with_threads(1)
                .plan(&bound.logical, &catalog)
            })
            .map_err(|e| e.to_string())?;
        if explain {
            let report = t.span("report", kind, |_| {
                let mut out = render_choices(&planned);
                out.push_str(&render_plan(&planned));
                out
            });
            return Ok(Done::Explained(explained(&planned, &report)));
        }
        if bound.limit == Some(0) {
            return Ok(Done::Rows(Rows::none()));
        }
        // Sessions profile by default, so the mirror runs profiled too.
        let run = t
            .span("execute", kind, |_| {
                execute_stream_profiled(&planned, &catalog, dev, db.layer(), &pool)
            })
            .map_err(|e| e.to_string())?;
        let mut out = Rows {
            io: run.stats,
            predicted_reads: planned.predicted.reads,
            predicted_writes: planned.predicted.writes,
            replanned: run.adapted.is_some(),
            ..Rows::none()
        };
        let columns = bound.column_names();
        let mut last_key = 0;
        let mut cursor = 0;
        let mut pull = |out: &mut Rows| {
            let left = bound
                .limit
                .map_or(usize::MAX, |l| (l - out.sum.rows) as usize);
            let Some(rows) = run.result.rows(cursor, knobs.batch_rows.min(left)) else {
                return false;
            };
            cursor += rows.len();
            // What `ResultStream` hands the client per batch: the wide
            // rows, projected, under a fresh copy of the column names.
            let batch: Vec<Vec<u64>> = rows
                .wide_rows()
                .into_iter()
                .map(|row| bound.projection.iter().map(|&i| row[i]).collect())
                .collect();
            black_box(columns.clone());
            consume(&batch, out, &mut last_key);
            left > batch.len()
        };
        if t.span("first_pull", kind, |_| pull(&mut out)) {
            t.span("deliver", kind, |_| while pull(&mut out) {});
        }
        Ok(Done::Rows(out))
    })
}

fn median_us(spans: &[Span], name: &str) -> Option<f64> {
    let ns = trace::durations(spans, name, |_| true);
    (!ns.is_empty()).then(|| stats::median(&ns) / 1e3)
}

/// The `sql` layer's numbers, from whatever statements a traced pass
/// decomposed.
pub fn front_obs(spans: &[Span], obs: &mut Obs) {
    for (metric, span) in [
        ("sql.parse_us", "parse"),
        ("sql.catalog_snapshot_us", "catalog"),
        ("sql.bind_us", "bind"),
    ] {
        if let Some(us) = median_us(spans, span) {
            obs.push((metric.to_string(), us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::builder().dram_records(200).batch_rows(16).build();
        db.create_wisconsin("t", 500, 1, 3).expect("fresh");
        db.create_wisconsin("v", 500, 4, 3).expect("fresh");
        db.create_wisconsin("w", 500, 2, 5).expect("fresh");
        db
    }

    #[test]
    fn both_paths_deliver_the_same_rows_traffic_and_plans() {
        let db = db();
        let mut session = db.session();
        session.set_threads(1);
        for sql in [
            "SELECT * FROM t WHERE key < 100 ORDER BY key",
            "SELECT * FROM t JOIN v ON t.key = v.key",
            "SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key GROUP BY key",
            "SELECT payload FROM v ORDER BY key LIMIT 37",
            "SELECT * FROM t LIMIT 0",
            "EXPLAIN SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key",
        ] {
            let user = run_session(&mut session, sql).expect(sql);
            let mut tracer = Tracer::new(true);
            let mirror = run_decomposed(&db, &session, sql, "q", &mut tracer).expect(sql);
            assert_eq!(user, mirror, "{sql}");
            let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
            assert!(names.starts_with(&["stmt", "parse", "catalog", "bind", "plan"]));
        }
        let Done::Explained(e) = run_session(
            &mut session,
            "EXPLAIN SELECT * FROM t JOIN v ON t.key = v.key",
        )
        .unwrap() else {
            panic!("expected a plan");
        };
        assert_eq!(e.relations, 2);
        assert!(e.candidates > 2 && e.plan.contains("join via"));
    }

    #[test]
    fn ordered_statements_report_sortedness_and_errors_surface() {
        let db = db();
        let mut session = db.session();
        let Done::Rows(rows) = run_session(&mut session, "SELECT * FROM v ORDER BY key").unwrap()
        else {
            panic!("expected rows");
        };
        assert!(rows.sorted && rows.sum.rows == 2000 && rows.io.cl_reads > 0);
        let Done::Rows(rows) = run_session(&mut session, "SELECT * FROM v").unwrap() else {
            panic!("expected rows");
        };
        assert!(!rows.sorted, "a permuted table scans unsorted");
        assert!(run_session(&mut session, "SELECT * FROM missing").is_err());
        let mut off = Tracer::new(false);
        assert!(run_decomposed(&db, &session, "SELECT * FROM missing", "q", &mut off).is_err());
        assert!(run_decomposed(&db, &session, "SHOW TABLES", "q", &mut off).is_err());
    }

    #[test]
    fn front_half_share_is_read_off_the_spans() {
        let db = db();
        let session = db.session();
        let mut tracer = Tracer::new(true);
        run_decomposed(&db, &session, "SELECT * FROM t", "scan", &mut tracer).expect("runs");
        let share = trace::share_of_roots(tracer.spans(), &trace::FRONT_HALF);
        assert!(share > 0.0 && share < 1.0, "{share}");
        let mut obs = Obs::new();
        front_obs(tracer.spans(), &mut obs);
        let names: Vec<&str> = obs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["sql.parse_us", "sql.catalog_snapshot_us", "sql.bind_us"]
        );
    }
}
