//! Pull-based query results: nothing executes until the first batch is
//! pulled, and rows are delivered in bounded [`RowBatch`]es instead of
//! one eager materialization.
//!
//! A [`ResultStream`] owns everything it needs (catalog snapshot with
//! shared table handles, device handle, its session's buffer pool), so
//! it is free of borrows and can outlive the [`crate::Session`] call
//! that produced it. Blocking operators still do their work all at once
//! — that cost is real and counted — but it is deferred to the first
//! pull, and delivery is incremental from then on.

use crate::error::DbError;
use crate::metrics::EngineMetrics;
use crate::sql::{BoundQuery, RowShape};
use planner::{
    execute_stream, execute_stream_profiled, render_analyze, render_choices, render_concordance,
    render_plan, AdaptedPlan, Catalog, ExecutedStream, OutputRows, PlannedQuery,
};
use pmem_sim::{BufferPool, IoStats, LayerKind, Pm, SpanNode};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One batch of projected result rows (all attributes are `u64`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBatch {
    /// Projected column names, in output order.
    pub columns: Vec<String>,
    /// Row-major projected values.
    pub rows: Vec<Vec<u64>>,
}

/// Post-execution traffic summary of one query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryStats {
    /// Measured cacheline traffic of the run.
    pub io: IoStats,
    /// Simulated wall-clock seconds of the run.
    pub secs: f64,
    /// Host wall-clock seconds spent executing and draining (real time,
    /// unlike `secs`; varies run to run, so clients gate printing it on
    /// the `timing` knob).
    pub elapsed_secs: f64,
    /// Rows delivered to the client (after LIMIT).
    pub rows: u64,
    /// Batches delivered to the client.
    pub batches: u64,
}

/// Observability plumbing a [`crate::Session`] hands its streams: the
/// profile switch, where to deposit the finished span tree, and the
/// engine-wide registry to fold delivery/pool/wall counters into.
#[derive(Debug)]
pub(crate) struct StreamHooks {
    /// Record a span-tree profile for this query.
    pub profile: bool,
    /// The session's last-profile slot.
    pub sink: Arc<Mutex<Option<SpanNode>>>,
    /// The database's metrics registry.
    pub metrics: Arc<EngineMetrics>,
}

/// A streaming query result.
///
/// Pull batches with [`ResultStream::next_batch`] (or the [`Iterator`]
/// impl); once the stream is exhausted, [`ResultStream::stats`] reports
/// the measured traffic and [`ResultStream::explain`] the full
/// predicted-vs-measured report.
#[derive(Debug)]
pub struct ResultStream {
    planned: PlannedQuery,
    columns: Vec<String>,
    projection: Vec<usize>,
    shape: RowShape,
    limit: Option<u64>,
    batch_rows: usize,
    catalog: Catalog,
    dev: Pm,
    layer: LayerKind,
    pool: BufferPool,
    state: State,
    delivered: u64,
    batches: u64,
    hooks: StreamHooks,
    /// The span tree the profiled execution recorded (available as soon
    /// as the plan ran, i.e. after the first pull).
    profile: Option<SpanNode>,
    /// Evidence of a mid-run re-planning, when drift triggered one.
    adapted: Option<AdaptedPlan>,
    /// Host wall time accumulated across every pull.
    wall_ns: u64,
}

#[derive(Debug)]
enum State {
    /// Not yet executed; the first pull runs the plan.
    Pending,
    /// Executed; draining from `cursor`.
    Open {
        run: Box<ExecutedStream>,
        cursor: usize,
    },
    /// Finished. `ran` records whether the plan actually executed —
    /// `false` for the `LIMIT 0` short-circuit and for failed runs, so
    /// the explain report does not present the zeroed ledger as a
    /// measurement.
    Done { io: IoStats, secs: f64, ran: bool },
}

impl ResultStream {
    #[allow(clippy::too_many_arguments)] // one internal call site
    pub(crate) fn new(
        planned: PlannedQuery,
        bound: &BoundQuery,
        catalog: Catalog,
        dev: Pm,
        layer: LayerKind,
        pool: BufferPool,
        batch_rows: usize,
        hooks: StreamHooks,
    ) -> Self {
        // LIMIT 0 can never deliver a row: short-circuit to the drained
        // state so the first pull does not execute the plan (blocking
        // operators would otherwise run — and be charged — for nothing).
        let state = if bound.limit == Some(0) {
            State::Done {
                io: IoStats::default(),
                secs: 0.0,
                ran: false,
            }
        } else {
            State::Pending
        };
        Self {
            planned,
            columns: bound.column_names(),
            projection: bound.projection.clone(),
            shape: bound.shape.clone(),
            limit: bound.limit,
            batch_rows: batch_rows.max(1),
            catalog,
            dev,
            layer,
            pool,
            state,
            delivered: 0,
            batches: 0,
            hooks,
            profile: None,
            adapted: None,
            wall_ns: 0,
        }
    }

    /// Projected column names, available before execution.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The planned query (chosen algorithms, knobs, predictions).
    pub fn planned(&self) -> &PlannedQuery {
        &self.planned
    }

    /// Pulls the next batch of rows. The first call executes the plan
    /// (blocking operators run here — the cost is charged to the
    /// device); subsequent calls drain the result incrementally. Returns
    /// `Ok(None)` once exhausted (or once `LIMIT` rows were delivered).
    ///
    /// # Errors
    /// Returns [`DbError::Exec`] when execution fails; the stream is
    /// finished afterwards.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>, DbError> {
        let was_done = matches!(self.state, State::Done { .. });
        let t0 = Instant::now();
        let result = self.advance();
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        match &result {
            Ok(Some(batch)) => {
                // Delivery is invisible to the simulated device (result
                // drains read uncounted), so the registry is where it
                // shows up.
                let rows = batch.rows.len() as u64;
                self.hooks
                    .metrics
                    .note_delivery(rows, rows * self.columns.len() as u64 * 8);
            }
            Ok(None) | Err(_) => {
                if !was_done {
                    if let State::Done { ran, .. } = self.state {
                        self.finish(ran);
                    }
                }
            }
        }
        result
    }

    /// Deposits the profile and folds this run's counters into the
    /// engine registry — once, when the stream transitions to done.
    fn finish(&mut self, ran: bool) {
        if !ran {
            return;
        }
        if self.profile.is_some() {
            *self.hooks.sink.lock().expect("profile sink") = self.profile.clone();
        }
        self.hooks.metrics.note_run(
            self.pool.reservations(),
            self.pool.exhausted(),
            self.pool.high_water() as u64,
            self.wall_ns,
        );
    }

    fn advance(&mut self) -> Result<Option<RowBatch>, DbError> {
        loop {
            match &mut self.state {
                State::Pending => {
                    self.hooks.metrics.note_query();
                    let run = if self.hooks.profile {
                        execute_stream_profiled(
                            &self.planned,
                            &self.catalog,
                            &self.dev,
                            self.layer,
                            &self.pool,
                        )
                    } else {
                        execute_stream(
                            &self.planned,
                            &self.catalog,
                            &self.dev,
                            self.layer,
                            &self.pool,
                        )
                    };
                    match run {
                        Ok(mut run) => {
                            self.profile = run.profile.take();
                            self.adapted = run.adapted.take();
                            self.state = State::Open {
                                run: Box::new(run),
                                cursor: 0,
                            };
                        }
                        Err(e) => {
                            self.state = State::Done {
                                io: IoStats::default(),
                                secs: 0.0,
                                ran: false,
                            };
                            return Err(DbError::Exec(e));
                        }
                    }
                }
                State::Open { run, cursor } => {
                    let remaining = match self.limit {
                        Some(l) => (l.saturating_sub(self.delivered)) as usize,
                        None => usize::MAX,
                    };
                    let want = self.batch_rows.min(remaining);
                    let rows = if want == 0 {
                        None
                    } else {
                        run.result.rows(*cursor, want)
                    };
                    match rows {
                        Some(out) => {
                            *cursor += out.len();
                            self.delivered += out.len() as u64;
                            self.batches += 1;
                            let batch = RowBatch {
                                columns: self.columns.clone(),
                                rows: project_rows(&out, &self.projection),
                            };
                            return Ok(Some(batch));
                        }
                        None => {
                            self.state = State::Done {
                                io: run.stats,
                                secs: run.secs,
                                ran: true,
                            };
                            return Ok(None);
                        }
                    }
                }
                State::Done { .. } => return Ok(None),
            }
        }
    }

    /// Drains every remaining batch, returning the total row count.
    ///
    /// # Errors
    /// Propagates the first execution error.
    pub fn drain(&mut self) -> Result<u64, DbError> {
        while self.next_batch()?.is_some() {}
        Ok(self.delivered)
    }

    /// Measured traffic and delivery counts — `Some` once the stream is
    /// exhausted.
    pub fn stats(&self) -> Option<QueryStats> {
        match &self.state {
            State::Done { io, secs, .. } => Some(QueryStats {
                io: *io,
                secs: *secs,
                elapsed_secs: self.wall_ns as f64 / 1e9,
                rows: self.delivered,
                batches: self.batches,
            }),
            _ => None,
        }
    }

    /// The span-tree profile of this query's execution — `Some` once the
    /// plan ran (first pull) with profiling enabled.
    pub fn profile(&self) -> Option<&SpanNode> {
        self.profile.as_ref()
    }

    /// Mid-run re-planning evidence — `Some` once the plan ran and the
    /// first materialized cardinality drifted past the threshold.
    pub fn adapted(&self) -> Option<&AdaptedPlan> {
        self.adapted.as_ref()
    }

    /// The explain report: chosen algorithms, knobs, per-node candidate
    /// tables, the plan tree, predicted traffic — and, once the stream
    /// has been drained, predicted-vs-measured concordance.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "knobs: λ = {}, M = {:.0} buffers, threads = {}, layer = {}\n",
            self.planned.lambda,
            self.planned.m_buffers,
            self.planned.threads,
            self.layer.label(),
        );
        out.push_str(&render_choices(&self.planned));
        out.push_str(&render_plan(&self.planned));
        if let State::Done { io, ran: true, .. } = &self.state {
            out.push_str(&render_concordance(
                &self.planned,
                io,
                &self.dev.config().latency,
            ));
        }
        out
    }

    /// The `EXPLAIN ANALYZE` report: the explain body followed by the
    /// plan annotated per node with measured rows, traffic, simulated
    /// time, and host wall time. Meaningful once the stream has been
    /// drained (before that there is no profile to annotate from).
    pub fn analyze(&self) -> String {
        let mut out = self.explain();
        if let Some(a) = &self.adapted {
            out.push_str(&format!(
                "re-planned mid-run: first materialization produced {} rows \
                 (estimate ~{:.0}); remaining joins re-enumerated\n",
                a.observed_rows, a.estimated_rows
            ));
        }
        match &self.profile {
            Some(p) => {
                let plan = self
                    .adapted
                    .as_ref()
                    .map_or(&self.planned.plan, |a| &a.plan);
                out.push_str(&render_analyze(plan, p, &self.dev.config().latency));
            }
            None => out.push_str("no profile recorded (SET profile = on to enable)\n"),
        }
        out
    }
}

impl Iterator for ResultStream {
    type Item = Result<RowBatch, DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

/// Projects each row out of the shape's full column values — one
/// allocation per delivered row.
fn project_rows(out: &OutputRows, projection: &[usize]) -> Vec<Vec<u64>> {
    out.map_wide(|row| projection.iter().map(|&i| row[i]).collect())
}

// `shape` drives header rendering for empty results in clients; keep it
// reachable even though projection already fixed the column names.
impl ResultStream {
    /// The row shape of the (unprojected) result.
    pub fn shape(&self) -> &RowShape {
        &self.shape
    }
}
