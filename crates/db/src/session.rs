//! Sessions: per-connection knobs plus the statement dispatcher.

use crate::database::{Database, DdlError};
use crate::error::{DbError, SqlError};
use crate::metrics::MetricsSnapshot;
use crate::sql::ast::SetValue;
use crate::sql::{bind, parse, Select, Statement};
use crate::stream::{ResultStream, StreamHooks};
use pmem_sim::{BufferPool, SpanNode, Storable};
use std::sync::{Arc, Mutex};
use wisconsin::WisconsinRecord;
use write_limited::parallel::resolve_threads;

/// Upper bound on a session's degree of parallelism: the worker pool
/// spawns scoped threads per query, so an absurd `SET threads` must be
/// rejected up front instead of fanning out unbounded workers.
pub const MAX_THREADS: usize = 256;

/// Per-session knobs. Sessions start from the database defaults and can
/// retune themselves with `SET` statements or the typed setters.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionConfig {
    /// Explicit degree of parallelism; `None` falls back to the shared
    /// resolver chain (CLI default, then `WL_THREADS`, then serial).
    pub threads: Option<usize>,
    /// DRAM budget in bytes (the paper's `M`).
    pub dram_bytes: usize,
    /// Result batch size in rows.
    pub batch_rows: usize,
    /// Planning write/read cost ratio override; `None` plans at the
    /// device's measured λ.
    pub lambda: Option<f64>,
    /// Print host wall time in client footers (`SET timing = on`). Off
    /// by default so scripted sessions stay byte-stable.
    pub timing: bool,
    /// Record a span-tree profile for every query (`SET profile = off`
    /// to disable). Profiling never touches the simulated counters, so
    /// it is cheap enough to leave on.
    pub profile: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            threads: None,
            dram_bytes: 500 * WisconsinRecord::SIZE,
            batch_rows: 512,
            lambda: None,
            timing: false,
            profile: true,
        }
    }
}

/// What one statement produced.
#[derive(Debug)]
pub enum Response {
    /// `CREATE TABLE` succeeded.
    Created {
        /// New table name.
        table: String,
        /// Rows loaded.
        rows: u64,
    },
    /// `INSERT` succeeded.
    Inserted {
        /// Target table name.
        table: String,
        /// Rows inserted.
        rows: u64,
    },
    /// `DROP TABLE` succeeded.
    Dropped {
        /// Dropped table name.
        table: String,
    },
    /// `CHECKPOINT` succeeded.
    Checkpointed {
        /// Tables materialized.
        tables: u64,
        /// Rows materialized.
        rows: u64,
    },
    /// `SHOW TABLES` listing as `(name, rows)`.
    Tables(Vec<(String, u64)>),
    /// `SHOW METRICS` — the engine-wide counter registry.
    Metrics(MetricsSnapshot),
    /// `SET` applied.
    Set {
        /// Knob name.
        knob: String,
        /// New value, rendered (`"4"`, `"on"`).
        value: String,
    },
    /// A `SELECT`: pull the stream for rows.
    Rows(ResultStream),
    /// An `EXPLAIN SELECT`: drain the stream (discarding rows), then
    /// render [`ResultStream::explain`] for the full report.
    Explain(ResultStream),
    /// An `EXPLAIN ANALYZE SELECT`: drain the stream (discarding rows),
    /// then render [`ResultStream::analyze`] for the annotated plan.
    ExplainAnalyze(ResultStream),
}

/// A connection to a [`Database`] with its own knobs.
#[derive(Debug)]
pub struct Session<'db> {
    db: &'db Database,
    config: SessionConfig,
    /// Where the session's streams deposit their span-tree profile when
    /// they finish; [`Session::last_profile`] reads it back.
    profile_sink: Arc<Mutex<Option<SpanNode>>>,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db Database, config: SessionConfig) -> Self {
        Self {
            db,
            config,
            profile_sink: Arc::new(Mutex::new(None)),
        }
    }

    /// Current knob settings.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The span-tree profile of the most recently *completed* query in
    /// this session (streams deposit it when they finish draining), or
    /// `None` before the first profiled run.
    pub fn last_profile(&self) -> Option<SpanNode> {
        self.profile_sink.lock().expect("profile sink").clone()
    }

    /// Sets the degree of parallelism (explicit: outranks `WL_THREADS`),
    /// clamped to `1..=`[`MAX_THREADS`].
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = Some(threads.clamp(1, MAX_THREADS));
    }

    /// Sets the DRAM budget in bytes.
    pub fn set_dram_budget(&mut self, bytes: usize) {
        self.config.dram_bytes = bytes.max(1);
    }

    /// Sets the result batch size in rows.
    pub fn set_batch_rows(&mut self, rows: usize) {
        self.config.batch_rows = rows.max(1);
    }

    /// Sets the planning λ override.
    pub fn set_lambda(&mut self, lambda: f64) {
        self.config.lambda = Some(lambda.max(1.0));
    }

    /// Parses and executes one statement.
    ///
    /// # Errors
    /// Returns [`DbError`] for SQL front-end errors (span-carrying),
    /// planning failures, or execution failures.
    pub fn execute(&mut self, sql: &str) -> Result<Response, DbError> {
        match parse(sql)? {
            Statement::Create {
                table,
                rows,
                fanout,
                seed,
                skew,
            } => {
                let loaded = self
                    .db
                    .create_wisconsin_skewed(&table.name, rows, fanout, seed, skew)
                    .map_err(|e| ddl_error(e, table.span))?;
                Ok(Response::Created {
                    table: table.name,
                    rows: loaded,
                })
            }
            Statement::Insert { table, keys } => {
                let inserted = self
                    .db
                    .insert_keys(&table.name, &keys)
                    .map_err(|e| ddl_error(e, table.span))?;
                Ok(Response::Inserted {
                    table: table.name,
                    rows: inserted,
                })
            }
            Statement::Drop { table } => match self.db.drop_table(&table.name) {
                Ok(true) => Ok(Response::Dropped { table: table.name }),
                Ok(false) => Err(SqlError::new(
                    format!("unknown table \"{}\"", table.name),
                    table.span,
                )
                .into()),
                Err(e) => Err(ddl_error(e, table.span)),
            },
            Statement::Checkpoint => {
                let (tables, rows, _bytes) = self
                    .db
                    .checkpoint()
                    .map_err(|e| ddl_error(e, crate::error::Span::new(0, sql.len())))?;
                Ok(Response::Checkpointed { tables, rows })
            }
            Statement::ShowTables => Ok(Response::Tables(self.db.tables())),
            Statement::ShowMetrics => Ok(Response::Metrics(self.db.metrics_snapshot())),
            Statement::Set {
                name,
                value,
                value_span,
            } => {
                // Boolean knobs take on/off; everything else an integer.
                match name.name.as_str() {
                    "timing" | "profile" => {
                        let SetValue::Flag(flag) = value else {
                            return Err(SqlError::new(
                                format!("knob \"{}\" takes on or off", name.name),
                                value_span,
                            )
                            .into());
                        };
                        if name.name == "timing" {
                            self.config.timing = flag;
                        } else {
                            self.config.profile = flag;
                        }
                        return Ok(Response::Set {
                            knob: name.name,
                            value: value.describe(),
                        });
                    }
                    "threads" | "batch" | "lambda" | "memory" => {}
                    other => {
                        return Err(SqlError::new(
                            format!(
                                "unknown knob \"{other}\" (supported: threads, batch, lambda, \
                                 memory, timing, profile)"
                            ),
                            name.span,
                        )
                        .into())
                    }
                }
                let SetValue::Num(value) = value else {
                    return Err(SqlError::new(
                        format!("knob \"{}\" requires an integer value", name.name),
                        value_span,
                    )
                    .into());
                };
                if value == 0 {
                    return Err(SqlError::new(
                        format!("knob \"{}\" requires a positive value, got 0", name.name),
                        value_span,
                    )
                    .into());
                }
                match name.name.as_str() {
                    "threads" => {
                        if value > MAX_THREADS as u64 {
                            return Err(SqlError::new(
                                format!("threads must be between 1 and {MAX_THREADS}, got {value}"),
                                value_span,
                            )
                            .into());
                        }
                        self.set_threads(value as usize);
                    }
                    "batch" => self.set_batch_rows(value as usize),
                    "lambda" => self.set_lambda(value as f64),
                    "memory" => {
                        let bytes = usize::try_from(value)
                            .ok()
                            .and_then(|v| v.checked_mul(WisconsinRecord::SIZE))
                            .ok_or_else(|| {
                                SqlError::new(
                                    format!("memory budget of {value} records is out of range"),
                                    name.span,
                                )
                            })?;
                        self.set_dram_budget(bytes);
                    }
                    _ => unreachable!("knob names vetted above"),
                }
                Ok(Response::Set {
                    knob: name.name,
                    value: value.to_string(),
                })
            }
            Statement::Select(select) => Ok(Response::Rows(self.plan_select(&select, false)?)),
            Statement::Explain(select) => Ok(Response::Explain(self.plan_select(&select, false)?)),
            // EXPLAIN ANALYZE needs the span tree regardless of the
            // session's profile knob.
            Statement::ExplainAnalyze(select) => {
                Ok(Response::ExplainAnalyze(self.plan_select(&select, true)?))
            }
        }
    }

    /// Parses a `SELECT` and returns its result stream without running
    /// it (execution happens on the first batch pull).
    ///
    /// # Errors
    /// Returns [`DbError`] for non-`SELECT` statements, SQL errors, or
    /// planning failures.
    pub fn query(&self, sql: &str) -> Result<ResultStream, DbError> {
        match parse(sql)? {
            Statement::Select(select) => self.plan_select(&select, false),
            other => Err(SqlError::new(
                format!(
                    "query() accepts SELECT only; use execute() for {}",
                    other.describe().lines().next().unwrap_or_default()
                ),
                crate::error::Span::new(0, sql.len()),
            )
            .into()),
        }
    }

    fn plan_select(&self, select: &Select, force_profile: bool) -> Result<ResultStream, DbError> {
        let catalog = self.db.catalog();
        let bound = bind(select, &catalog)?;
        let pool = BufferPool::new(self.config.dram_bytes);
        let dev = self.db.device();
        let lambda = self.config.lambda.unwrap_or_else(|| dev.lambda());
        let threads = resolve_threads(self.config.threads);
        let planner = planner::Planner::for_pool(lambda, &pool, self.db.layer(), dev.config())
            .with_threads(threads);
        let started = std::time::Instant::now();
        let planned = planner.plan(&bound.logical, &catalog)?;
        self.db.metrics().note_plan(
            planned.splits_costed as u64,
            started.elapsed().as_nanos() as u64,
        );
        Ok(ResultStream::new(
            planned,
            &bound,
            catalog,
            dev.clone(),
            self.db.layer(),
            pool,
            self.config.batch_rows,
            StreamHooks {
                profile: self.config.profile || force_profile,
                sink: Arc::clone(&self.profile_sink),
                metrics: Arc::clone(self.db.metrics()),
            },
        ))
    }
}

/// Maps a [`DdlError`] onto the session's error surface: storage
/// failures pass through typed (path + offset intact), everything else
/// becomes a span-carrying SQL diagnostic.
fn ddl_error(err: DdlError, span: crate::error::Span) -> DbError {
    match err {
        DdlError::Storage(e) => DbError::Storage(e),
        other => SqlError::new(other.to_string(), span).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::builder().dram_records(200).batch_rows(16).build();
        db.create_wisconsin("t", 500, 1, 3).expect("fresh");
        db.create_wisconsin("v", 500, 4, 3).expect("fresh");
        db
    }

    #[test]
    fn select_streams_in_batches_and_reports_stats() {
        let db = db();
        let mut s = db.session();
        let Response::Rows(mut stream) = s
            .execute("SELECT * FROM t WHERE key < 100 ORDER BY key")
            .expect("executes")
        else {
            panic!("expected rows");
        };
        assert_eq!(stream.columns(), ["key", "payload"]);
        assert!(
            stream.stats().is_none(),
            "nothing ran before the first pull"
        );
        let mut rows = Vec::new();
        let mut batches = 0;
        while let Some(batch) = stream.next_batch().expect("streams") {
            assert!(batch.rows.len() <= 16);
            batches += 1;
            rows.extend(batch.rows);
        }
        assert_eq!(batches, 7, "100 rows in 16-row batches");
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0][0], 0, "ordered by key");
        assert_eq!(rows[99][0], 99);
        let stats = stream.stats().expect("drained");
        assert_eq!(stats.rows, 100);
        assert!(stats.io.cl_reads > 0 && stats.secs > 0.0);
    }

    #[test]
    fn join_group_order_query_round_trips() {
        let db = db();
        let mut s = db.session();
        s.set_batch_rows(64);
        let mut stream = s
            .query(
                "SELECT * FROM t JOIN v ON t.key = v.key WHERE t.key < 50 \
                 GROUP BY key ORDER BY key",
            )
            .expect("plans");
        let mut rows = Vec::new();
        while let Some(b) = stream.next_batch().expect("streams") {
            rows.extend(b.rows);
        }
        // 50 surviving keys, fanout 4 → count 4 per group.
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|r| r[1] == 4), "count column");
        assert!(rows.windows(2).all(|w| w[0][0] < w[1][0]), "ordered keys");
    }

    #[test]
    fn limit_caps_delivery() {
        let db = db();
        let s = db.session();
        let mut stream = s
            .query("SELECT * FROM t ORDER BY key LIMIT 5")
            .expect("plans");
        let total = stream.drain().expect("drains");
        assert_eq!(total, 5);
        assert_eq!(stream.stats().expect("done").rows, 5);
    }

    #[test]
    fn explain_reports_algorithms_and_concordance() {
        let db = db();
        let mut s = db.session();
        let Response::Explain(mut stream) = s
            .execute("EXPLAIN SELECT * FROM t JOIN v ON t.key = v.key GROUP BY key")
            .expect("executes")
        else {
            panic!("expected explain");
        };
        let before = stream.explain();
        assert!(before.contains("knobs: λ = 15"), "{before}");
        assert!(before.contains("chosen plan:"), "{before}");
        assert!(before.contains("join"), "{before}");
        assert!(!before.contains("measured"), "no run yet");
        stream.drain().expect("runs");
        let after = stream.explain();
        assert!(after.contains("predicted vs measured"), "{after}");
    }

    #[test]
    fn a_key_range_spanning_all_of_u64_is_sized_without_overflow() {
        use planner::PhysicalPlan;
        let db = Database::builder().build();
        let mut s = db.session();
        s.execute("CREATE TABLE m AS WISCONSIN(100)")
            .expect("creates");
        s.execute("INSERT INTO m VALUES (18446744073709551615)")
            .expect("inserts");
        // Past the modulus filter no histogram is left, so the range
        // predicate is sized over [0, u64::MAX]: `max − min + 1` keys wide.
        let Response::Explain(stream) = s
            .execute("EXPLAIN SELECT * FROM m WHERE key % 2 = 0 AND key < 50")
            .expect("plans")
        else {
            panic!("expected explain");
        };
        let PhysicalPlan::Filter { input, cost, .. } = &stream.planned().plan else {
            panic!("expected the range filter at the root");
        };
        assert!(
            cost.out_rows < input.cost().out_rows,
            "key < 50 must cut the {} rows it is given, got {}",
            input.cost().out_rows,
            cost.out_rows
        );
    }

    #[test]
    fn session_knobs_steer_planning() {
        let db = db();
        let mut s = db.session();
        s.execute("SET lambda = 1").expect("sets");
        s.execute("SET threads = 4").expect("sets");
        s.execute("SET memory = 100").expect("sets");
        let stream = s.query("SELECT * FROM t ORDER BY key").expect("plans");
        assert_eq!(stream.planned().lambda, 1.0);
        assert_eq!(stream.planned().threads, 4);
        assert_eq!(
            stream.planned().m_buffers,
            125.0,
            "100 records = 125 cachelines"
        );
        let err = s.execute("SET nope = 1").unwrap_err();
        let DbError::Sql(e) = err else {
            panic!("expected SQL error")
        };
        assert!(e.message.contains("unknown knob"));
    }

    #[test]
    fn set_threads_rejects_values_above_the_cap() {
        let db = db();
        let mut s = db.session();
        // The cap itself is fine; one past it errors with the value span.
        s.execute("SET threads = 256").expect("at the cap");
        assert_eq!(s.config().threads, Some(256));
        let sql = "SET threads = 1000";
        let DbError::Sql(e) = s.execute(sql).unwrap_err() else {
            panic!("expected SQL error")
        };
        assert!(
            e.message.contains("between 1 and 256"),
            "message: {}",
            e.message
        );
        assert_eq!(&sql[e.span.start..e.span.end], "1000", "caret on value");
        assert_eq!(s.config().threads, Some(256), "knob unchanged on error");
        // The typed setter clamps instead of erroring (no span to carry).
        s.set_threads(100_000);
        assert_eq!(s.config().threads, Some(MAX_THREADS));
    }

    #[test]
    fn explain_analyze_annotates_a_three_way_join() {
        let db = db();
        db.create_wisconsin("w", 500, 2, 5).expect("fresh");
        let mut s = db.session();
        let Response::ExplainAnalyze(mut stream) = s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM t JOIN v ON t.key = v.key \
                 JOIN w ON v.key = w.key ORDER BY key",
            )
            .expect("executes")
        else {
            panic!("expected explain analyze");
        };
        stream.drain().expect("runs");
        let report = stream.analyze();
        assert!(report.contains("analyzed plan"), "{report}");
        assert!(report.contains("scan t"), "{report}");
        assert!(report.contains("scan v"), "{report}");
        assert!(report.contains("scan w"), "{report}");
        assert!(report.contains("ms wall"), "{report}");
        assert!(report.contains("meas"), "{report}");
        assert!(!report.contains("not measured"), "{report}");
        // The profile covers the whole run and satisfies the sum
        // invariant.
        let profile = stream.profile().expect("profiled by default");
        profile.validate().expect("span sums hold");
        let stats = stream.stats().expect("drained");
        assert_eq!(profile.io.cl_reads, stats.io.cl_reads);
        assert_eq!(profile.io.cl_writes, stats.io.cl_writes);
    }

    #[test]
    fn misestimated_joins_replan_mid_run_and_the_report_says_so() {
        use wisconsin::WisconsinRecord;
        // Key ranges that only partly overlap: every sketch is exact, yet
        // the containment assumption (the smaller key set lies inside
        // the larger) sizes each pairwise join several times too large,
        // so the first materialization drifts and the remaining subtree
        // is re-enumerated.
        let db = Database::builder().dram_records(300).build();
        let rep = |keys: std::ops::Range<u64>| {
            (0..20 * (keys.end - keys.start)).map(move |i| {
                WisconsinRecord::from_key(keys.start + i % (keys.end - keys.start)).with_payload(i)
            })
        };
        db.register_table("s1", rep(0..20), 20).expect("fresh");
        db.register_table("s2", rep(15..35), 35).expect("fresh");
        let u = [15, 16].into_iter().chain(30..68);
        db.register_table("u", u.map(WisconsinRecord::from_key), 68)
            .expect("fresh");
        let mut s = db.session();
        let Response::ExplainAnalyze(mut stream) = s
            .execute(
                "EXPLAIN ANALYZE SELECT * FROM s1 JOIN s2 ON s1.key = s2.key \
                 JOIN u ON s2.key = u.key ORDER BY key",
            )
            .expect("executes")
        else {
            panic!("expected explain analyze");
        };
        stream.drain().expect("runs");
        let adapted = stream.adapted().expect("drift must fire");
        assert!(adapted.estimated_rows > 2.0 * adapted.observed_rows as f64);
        let report = stream.analyze();
        assert!(report.contains("re-planned mid-run"), "{report}");
        assert!(report.contains("(re-planned)"), "{report}");
        assert!(!report.contains("~mid"), "{report}");
        assert!(!report.contains("not measured"), "{report}");
        let stats = stream.stats().expect("drained");
        // Keys 15 and 16 are in all three: 20 × 20 × 1 rows each.
        assert_eq!(stats.rows, 800, "oracle rows survive re-planning");
    }

    #[test]
    fn profile_lands_in_the_session_and_respects_the_knob() {
        let db = db();
        let mut s = db.session();
        assert!(s.last_profile().is_none(), "nothing ran yet");
        let mut stream = s.query("SELECT * FROM t ORDER BY key").expect("plans");
        stream.drain().expect("runs");
        let profile = s.last_profile().expect("deposited on completion");
        profile.validate().expect("span sums hold");
        assert_eq!(profile.label, "query");
        // Turning the knob off stops recording (the old profile stays).
        s.execute("SET profile = off").expect("sets");
        assert!(!s.config().profile);
        let mut stream = s.query("SELECT * FROM t ORDER BY key").expect("plans");
        stream.drain().expect("runs");
        assert!(stream.profile().is_none(), "profiling disabled");
        // EXPLAIN ANALYZE overrides the knob.
        let Response::ExplainAnalyze(mut stream) = s
            .execute("EXPLAIN ANALYZE SELECT * FROM t ORDER BY key")
            .expect("executes")
        else {
            panic!("expected explain analyze");
        };
        stream.drain().expect("runs");
        assert!(stream.profile().is_some(), "forced despite profile = off");
    }

    #[test]
    fn metrics_registry_counts_queries_and_delivery() {
        let db = db();
        let before = db.metrics_snapshot();
        assert_eq!(before.queries, 0);
        let mut s = db.session();
        let Response::Rows(mut stream) = s
            .execute("SELECT * FROM t WHERE key < 100 ORDER BY key")
            .expect("executes")
        else {
            panic!("expected rows");
        };
        stream.drain().expect("runs");
        let after = db.metrics_snapshot();
        assert_eq!(after.queries, 1);
        assert_eq!(after.result_rows, 100);
        assert_eq!(after.result_batches, 7, "100 rows in 16-row batches");
        assert_eq!(after.result_bytes, 100 * 2 * 8, "two u64 columns per row");
        assert!(after.exec_wall_ns > 0);
        // An external sort (2000 rows, 200-record budget) exercises the
        // buffer pool, which shows up in the registry.
        let mut stream = s.query("SELECT * FROM v ORDER BY key").expect("plans");
        stream.drain().expect("runs");
        let after = db.metrics_snapshot();
        assert_eq!(after.queries, 2);
        assert!(after.pool_reservations > 0, "the sort reserved DRAM");
        assert!(after.pool_peak_bytes > 0);
        // SHOW METRICS surfaces the same snapshot through SQL.
        let Response::Metrics(shown) = s.execute("SHOW METRICS").expect("executes") else {
            panic!("expected metrics");
        };
        assert_eq!(shown.queries, 2);
        assert!(shown
            .rows()
            .iter()
            .any(|(n, v)| *n == "result_delivery_rows" && *v == 100 + 2000));
        // Planning is counted when it happens, executed or not: two
        // join-free statements so far, then a three-way EXPLAIN whose
        // order search costs six splits.
        assert_eq!((shown.plans, shown.plan_splits), (2, 0));
        s.execute("EXPLAIN SELECT * FROM t JOIN v ON t.key = v.key JOIN t AS u ON v.key = u.key")
            .expect("plans");
        let planned = db.metrics_snapshot();
        assert_eq!((planned.plans, planned.plan_splits), (3, 6));
        assert!(planned.plan_wall_ns > shown.plan_wall_ns);
        assert_eq!(planned.queries, 2, "EXPLAIN plans without running");
    }

    #[test]
    fn pool_exhaustion_is_counted_exactly_once_per_failed_attempt() {
        let db = db();
        let mut s = db.session();
        // 100-record budget; sorting the 2000-row v cannot lease the
        // full input, so each run makes exactly one refused attempt
        // before falling back to the largest grantable reservation.
        s.execute("SET memory = 100").expect("sets");
        let mut stream = s.query("SELECT * FROM v ORDER BY key").expect("plans");
        stream.drain().expect("runs");
        let one = db.metrics_snapshot().pool_exhausted;
        assert!(one >= 1, "the memory-constrained sort records a refusal");
        // An identical second run adds exactly the same count: refusals
        // are published eagerly at the failed attempt, not re-merged or
        // dropped at a later flush.
        let mut stream = s.query("SELECT * FROM v ORDER BY key").expect("plans");
        stream.drain().expect("runs");
        let two = db.metrics_snapshot().pool_exhausted;
        assert_eq!(two, 2 * one, "exactly once per failed attempt");
        // SHOW METRICS surfaces the same counter through SQL.
        let Response::Metrics(shown) = s.execute("SHOW METRICS").expect("executes") else {
            panic!("expected metrics");
        };
        assert_eq!(shown.pool_exhausted, two);
        assert!(shown
            .rows()
            .iter()
            .any(|(n, v)| *n == "pool_exhausted" && *v == two));
    }

    #[test]
    fn boolean_and_numeric_knobs_reject_mismatched_values() {
        let db = db();
        let mut s = db.session();
        let DbError::Sql(e) = s.execute("SET timing = 4").unwrap_err() else {
            panic!("expected SQL error")
        };
        assert!(e.message.contains("takes on or off"), "{}", e.message);
        let DbError::Sql(e) = s.execute("SET threads = on").unwrap_err() else {
            panic!("expected SQL error")
        };
        assert!(
            e.message.contains("requires an integer value"),
            "{}",
            e.message
        );
        s.execute("SET timing = on").expect("sets");
        assert!(s.config().timing);
        let mut stream = s.query("SELECT * FROM t LIMIT 1").expect("plans");
        stream.drain().expect("runs");
        let stats = stream.stats().expect("drained");
        assert!(stats.elapsed_secs > 0.0, "host wall time recorded");
    }

    #[test]
    fn insert_and_checkpoint_through_sql() {
        let db = db();
        let mut s = db.session();
        let Response::Inserted { table, rows } = s
            .execute("INSERT INTO t VALUES (500), (501)")
            .expect("inserts")
        else {
            panic!("expected inserted");
        };
        assert_eq!(table, "t");
        assert_eq!(rows, 2);
        let mut stream = s.query("SELECT * FROM t WHERE key >= 500").expect("plans");
        assert_eq!(stream.drain().expect("runs"), 2, "new keys visible");
        // Unknown target carries the table's span.
        let sql = "INSERT INTO missing VALUES (1)";
        let DbError::Sql(e) = s.execute(sql).unwrap_err() else {
            panic!("expected SQL error")
        };
        assert_eq!(&sql[e.span.start..e.span.end], "missing");
        // CHECKPOINT needs a durable database; this one is in-memory.
        let DbError::Sql(e) = s.execute("CHECKPOINT").unwrap_err() else {
            panic!("expected SQL error")
        };
        assert!(e.message.contains("not durable"), "{}", e.message);
    }

    #[test]
    fn ddl_errors_carry_spans() {
        let db = db();
        let mut s = db.session();
        let sql = "DROP TABLE missing";
        let DbError::Sql(e) = s.execute(sql).unwrap_err() else {
            panic!("expected SQL error")
        };
        assert_eq!(&sql[e.span.start..e.span.end], "missing");
        let DbError::Sql(e) = s.execute("CREATE TABLE t AS WISCONSIN(10)").unwrap_err() else {
            panic!("expected SQL error")
        };
        assert!(e.message.contains("already exists"));
    }
}
