//! Lowering: physical plan → measured run.
//!
//! Each node runs once its inputs exist. A filter is one counted scan
//! into a new persistent collection ([`write_limited::exec::stage`]);
//! blocking nodes (sort, join, aggregate) invoke the chosen algorithm on
//! the collections below them, so every cacheline the plan touches flows
//! through the counted device. A chain join lands each match as its
//! folded flat row where the schedule finds it (an
//! [`OutputShape`] of the join), so its output is written once, as the
//! rows the next join reads. Deferred
//! filters are lowered onto the §3.1 [`filtered_iterate_join`], which
//! re-filters the source per pass instead of writing the view until its
//! rules say otherwise.
//!
//! [`execute_stream`] runs the plan and hands back an owned
//! [`ResultSet`] that clients drain in batches, or at once with
//! [`ResultSet::all_rows`]; [`execute_stream_profiled`] is the same run
//! with a span tree recorded.

use crate::catalog::Catalog;
use crate::enumerate::{Evidence, NodeChoice, PlanError, PlannedQuery, Planner};
use crate::logical::{LogicalPlan, Predicate};
use crate::physical::{ChainSlots, Materialization, PhysicalPlan};
use pmem_sim::{BufferPool, IoStats, LayerKind, PCollection, Pm, PmError, Storable};
use std::borrow::Cow;
use std::sync::Arc;
use wisconsin::{Pair, Record, WisconsinRecord};
use write_limited::agg::{sort_based_aggregate, GroupAgg};
use write_limited::exec::stage;
use write_limited::join::{
    guided_join_with, JoinAlgorithm, JoinContext, OutputShape, Pairs, RowSink,
};
use write_limited::pipeline::filtered_iterate_join;
use write_limited::sort::{SortAlgorithm, SortContext};
use write_limited::stats::TableStatistics;

/// Observed-over-estimated (or the inverse) ratio past which a chain
/// join's first materialization triggers re-enumeration of the
/// remaining join subtree.
const DRIFT_THRESHOLD: f64 = 2.0;

/// Seed the observed-intermediate statistics sketch is built with —
/// fixed, so adaptation is deterministic across runs and thread counts.
const OBSERVED_STATS_SEED: u64 = 0xADA7;

/// A joined Wisconsin pair.
pub type WisPair = Pair<WisconsinRecord, WisconsinRecord>;

/// Builds one flat chain row from a joined pair: the join key lands in
/// `attrs[0]`, each relation's payload in its logical slot
/// (`attrs[1 + slot]`), and every other attribute is zeroed — so lowered
/// and naive n-way evaluation produce bit-identical rows.
pub(crate) fn fold_pair(
    left: &WisconsinRecord,
    l_slots: &[usize],
    right: &WisconsinRecord,
    r_slots: &[usize],
) -> WisconsinRecord {
    let mut out = WisconsinRecord {
        attrs: [0; wisconsin::WISCONSIN_ATTRS],
    };
    out.attrs[0] = left.key();
    copy_slots(&mut out, left, l_slots);
    copy_slots(&mut out, right, r_slots);
    out
}

fn copy_slots(out: &mut WisconsinRecord, rec: &WisconsinRecord, slots: &[usize]) {
    match slots {
        // A base-relation leaf still carries its payload natively.
        [slot] => out.attrs[1 + slot] = rec.payload(),
        // A chain-join child is already slotted.
        _ => {
            for &s in slots {
                out.attrs[1 + s] = rec.attrs[1 + s];
            }
        }
    }
}

/// Bytes of one stored attribute.
const WORD: usize = 8;

/// A chain join's output shape: each match lands as the row
/// [`fold_pair`] builds from it, assembled from the two records' stored
/// bytes — the key's word and the payload words the slots name, nothing
/// decoded — with a swapped build side undone.
#[derive(Clone, Debug)]
struct ChainFold {
    /// `(from, to)` word moves out of the physical build record.
    build: Vec<(usize, usize)>,
    /// `(from, to)` word moves out of the physical probe record.
    probe: Vec<(usize, usize)>,
}

impl ChainFold {
    /// The fold of a join with `slots`, its build side the logical right
    /// when `swapped`.
    fn new(slots: &ChainSlots, swapped: bool) -> Self {
        let moves = |slots: &[usize]| match slots {
            [slot] => vec![(1, 1 + slot)],
            _ => slots.iter().map(|&s| (1 + s, 1 + s)).collect(),
        };
        let (left, right) = (moves(&slots.left), moves(&slots.right));
        let (build, probe) = if swapped {
            (right, left)
        } else {
            (left, right)
        };
        Self { build, probe }
    }
}

impl OutputShape<WisconsinRecord, WisconsinRecord> for ChainFold {
    type Out = WisconsinRecord;

    #[inline]
    fn emit(&self, left: &[u8], right: &[u8], sink: &mut impl RowSink<WisconsinRecord>) {
        let mut row = [0; WisconsinRecord::SIZE];
        // Both records hold the join key; the row takes the build side's.
        row[..WORD].copy_from_slice(&left[..WORD]);
        for (bytes, moves) in [(left, &self.build), (right, &self.probe)] {
            for &(from, to) in moves {
                row[to * WORD..(to + 1) * WORD]
                    .copy_from_slice(&bytes[from * WORD..(from + 1) * WORD]);
            }
        }
        sink.put(&row);
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// Planning-level problem discovered at lowering time.
    Plan(PlanError),
    /// A scanned table was registered without data.
    MissingData(String),
    /// The underlying algorithm rejected the setting.
    Pm(PmError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "{e}"),
            ExecError::MissingData(t) => write!(f, "table {t:?} has no bound data"),
            ExecError::Pm(e) => write!(f, "{e:?}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PmError> for ExecError {
    fn from(e: PmError) -> Self {
        ExecError::Pm(e)
    }
}

/// The rows a plan produced, drained to DRAM (uncounted) for
/// verification or client delivery. Pairs are normalized to logical
/// order (build-side swaps undone).
#[derive(Clone, Debug, PartialEq)]
pub enum OutputRows {
    /// Base records.
    Wis(Vec<WisconsinRecord>),
    /// Joined pairs in logical (left, right) order.
    Pairs(Vec<(WisconsinRecord, WisconsinRecord)>),
    /// n-way joined chain rows: `attrs[0]` is the join key,
    /// `attrs[1..=tables]` one payload per base relation in logical
    /// (SQL) join order.
    Multi {
        /// Slotted chain rows.
        rows: Vec<WisconsinRecord>,
        /// Number of base relations joined.
        tables: usize,
    },
    /// Aggregation groups.
    Groups(Vec<GroupAgg>),
}

impl OutputRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            OutputRows::Wis(v) => v.len(),
            OutputRows::Pairs(v) => v.len(),
            OutputRows::Multi { rows, .. } => rows.len(),
            OutputRows::Groups(v) => v.len(),
        }
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical multiset form for cross-plan equivalence: one sorted
    /// `(key, a, b)` triple per row. n-way rows keep their first two
    /// payload slots; use [`OutputRows::canonical_wide`] for the full
    /// row.
    pub fn canonical(&self) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> = match self {
            OutputRows::Wis(rows) => rows.iter().map(|r| (r.key(), r.payload(), 0)).collect(),
            OutputRows::Pairs(rows) => rows
                .iter()
                .map(|(l, r)| (l.key(), l.payload(), r.payload()))
                .collect(),
            OutputRows::Multi { rows, .. } => rows
                .iter()
                .map(|r| (r.key(), r.attrs[1], r.attrs[2]))
                .collect(),
            OutputRows::Groups(rows) => rows.iter().map(|g| (g.key, g.count, g.sum)).collect(),
        };
        v.sort_unstable();
        v
    }

    /// Maps each row's full column values, in produced order, through
    /// `f` — base: `key, payload`; pairs: `key, l.payload, r.payload`;
    /// n-way: `key, payloads…`; groups: `key, count, sum, min, max`. The
    /// one shape-to-columns mapping that result projection and the
    /// equivalence surfaces share; the values are lent from the stack,
    /// so a caller that keeps only some of them allocates only those.
    pub fn map_wide<T>(&self, mut f: impl FnMut(&[u64]) -> T) -> Vec<T> {
        match self {
            OutputRows::Wis(rows) => rows.iter().map(|r| f(&[r.key(), r.payload()])).collect(),
            OutputRows::Pairs(rows) => rows
                .iter()
                .map(|(l, r)| f(&[l.key(), l.payload(), r.payload()]))
                .collect(),
            OutputRows::Multi { rows, tables } => {
                rows.iter().map(|r| f(&r.attrs[..=*tables])).collect()
            }
            OutputRows::Groups(rows) => rows
                .iter()
                .map(|g| f(&[g.key, g.count, g.sum, g.min, g.max]))
                .collect(),
        }
    }

    /// Expands each row into its full column values
    /// ([`OutputRows::map_wide`]), one vector per row.
    pub fn wide_rows(&self) -> Vec<Vec<u64>> {
        self.map_wide(<[u64]>::to_vec)
    }

    /// Canonical multiset form carrying every column — the n-way
    /// equivalence surface: one sorted value vector per row.
    pub fn canonical_wide(&self) -> Vec<Vec<u64>> {
        let mut v = self.wide_rows();
        v.sort_unstable();
        v
    }

    /// The key sequence in produced order (for sortedness checks).
    pub fn keys(&self) -> Vec<u64> {
        match self {
            OutputRows::Wis(rows) => rows.iter().map(Record::key).collect(),
            OutputRows::Pairs(rows) => rows.iter().map(|(l, _)| l.key()).collect(),
            OutputRows::Multi { rows, .. } => rows.iter().map(Record::key).collect(),
            OutputRows::Groups(rows) => rows.iter().map(|g| g.key).collect(),
        }
    }
}

/// A shared-or-owned Wisconsin collection: base tables come out of the
/// catalog as shared [`Arc`] handles, intermediates are owned.
#[derive(Debug)]
enum WisSource {
    Shared(Arc<pmem_sim::PCollection<WisconsinRecord>>),
    Owned(Box<pmem_sim::PCollection<WisconsinRecord>>),
}

impl WisSource {
    fn as_col(&self) -> &pmem_sim::PCollection<WisconsinRecord> {
        match self {
            WisSource::Shared(c) => c,
            WisSource::Owned(c) => c,
        }
    }
}

/// The materialized output of a plan — of each subtree while lowering,
/// of the whole execution at the end — owned (no borrows on the catalog)
/// so it can be drained incrementally after the call that produced it
/// returns.
#[derive(Debug)]
pub enum ResultSet {
    /// Base records.
    Wis(WisResult),
    /// Joined pairs; `swapped` records whether the physical build side
    /// was the logical right (undone when rows are drained).
    Pairs {
        /// The joined output collection.
        col: pmem_sim::PCollection<WisPair>,
        /// True when build and probe sides were swapped by the planner.
        swapped: bool,
    },
    /// n-way chain rows (already normalized to logical slot order).
    Multi {
        /// The folded chain-row collection.
        col: pmem_sim::PCollection<WisconsinRecord>,
        /// Number of base relations joined.
        tables: usize,
    },
    /// Aggregation groups.
    Groups(pmem_sim::PCollection<GroupAgg>),
}

/// Base-record result payload (shared base table or owned intermediate).
#[derive(Debug)]
pub struct WisResult(WisSource);

impl ResultSet {
    /// Base records in an intermediate this run wrote.
    fn owned(col: pmem_sim::PCollection<WisconsinRecord>) -> Self {
        ResultSet::Wis(WisResult(WisSource::Owned(Box::new(col))))
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            ResultSet::Wis(w) => w.0.as_col().len(),
            ResultSet::Pairs { col, .. } => col.len(),
            ResultSet::Multi { col, .. } => col.len(),
            ResultSet::Groups(col) => col.len(),
        }
    }

    /// True when the result holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains rows `[start, start + max)` (clamped to the result length)
    /// into DRAM without charging reads — result delivery to the client
    /// sits outside the simulated cost model, which already charged the
    /// run that produced the collection. Returns `None` once `start` is
    /// past the end; pair rows are normalized to logical order.
    pub fn rows(&self, start: usize, max: usize) -> Option<OutputRows> {
        let len = self.len();
        if start >= len {
            return None;
        }
        let end = start.saturating_add(max).min(len);
        Some(match self {
            ResultSet::Wis(w) => OutputRows::Wis(w.0.as_col().range_to_vec_uncounted(start, end)),
            ResultSet::Pairs { col, swapped } => OutputRows::Pairs(
                col.range_to_vec_uncounted(start, end)
                    .into_iter()
                    .map(|p| {
                        if *swapped {
                            (p.right, p.left)
                        } else {
                            (p.left, p.right)
                        }
                    })
                    .collect(),
            ),
            ResultSet::Multi { col, tables } => OutputRows::Multi {
                rows: col.range_to_vec_uncounted(start, end),
                tables: *tables,
            },
            ResultSet::Groups(col) => OutputRows::Groups(col.range_to_vec_uncounted(start, end)),
        })
    }

    /// Drains every row at once (the eager path).
    pub fn all_rows(&self) -> OutputRows {
        let len = self.len();
        self.rows(0, len).unwrap_or_else(|| self.empty_rows())
    }

    /// An empty [`OutputRows`] of this result's shape.
    pub fn empty_rows(&self) -> OutputRows {
        match self {
            ResultSet::Wis(_) => OutputRows::Wis(Vec::new()),
            ResultSet::Pairs { .. } => OutputRows::Pairs(Vec::new()),
            ResultSet::Multi { tables, .. } => OutputRows::Multi {
                rows: Vec::new(),
                tables: *tables,
            },
            ResultSet::Groups(_) => OutputRows::Groups(Vec::new()),
        }
    }
}

/// Evidence of one mid-plan re-planning event: the plan that actually
/// executed and the drift that triggered it.
#[derive(Clone, Debug)]
pub struct AdaptedPlan {
    /// The full plan as executed: the original tree with the re-planned
    /// join subtree spliced in (re-planned nodes carry a marker in their
    /// labels, and the observed intermediate appears as the subtree that
    /// produced it).
    pub plan: PhysicalPlan,
    /// Candidate evidence of the re-enumeration.
    pub choices: Vec<NodeChoice>,
    /// Rows the first materialization actually produced.
    pub observed_rows: u64,
    /// Rows the static plan estimated for it.
    pub estimated_rows: f64,
}

/// One measured plan execution with the result left un-drained: the
/// streaming entry point's return value.
#[derive(Debug)]
pub struct ExecutedStream {
    /// The produced rows, owned and drainable in batches.
    pub result: ResultSet,
    /// Cacheline traffic the run charged to the device.
    pub stats: IoStats,
    /// Simulated wall-clock seconds of the run.
    pub secs: f64,
    /// Recorded span tree when the run was profiled
    /// ([`execute_stream_profiled`]); `None` otherwise.
    pub profile: Option<pmem_sim::SpanNode>,
    /// `Some` when the executor re-planned the remaining join subtree
    /// after an observed cardinality drifted from its estimate.
    pub adapted: Option<AdaptedPlan>,
}

/// Executes a planned query against the catalog's bound tables,
/// measuring the traffic between entry and exit, and returns the result
/// as an owned, batch-drainable [`ResultSet`].
///
/// # Errors
/// Returns [`ExecError`] when a table has no data bound or an algorithm
/// rejects its inputs.
pub fn execute_stream(
    planned: &PlannedQuery,
    catalog: &Catalog,
    dev: &Pm,
    layer: LayerKind,
    pool: &BufferPool,
) -> Result<ExecutedStream, ExecError> {
    execute_stream_inner(planned, catalog, dev, layer, pool, false)
}

/// [`execute_stream`] with profiling armed: every plan node, operator
/// phase, and worker task records a span, and the resulting tree comes
/// back in [`ExecutedStream::profile`]. The spans observe the
/// thread-local ledgers without touching the device counters, so the
/// measured traffic is bit-identical to an unprofiled run.
///
/// # Errors
/// Returns [`ExecError`] when a table has no data bound or an algorithm
/// rejects its inputs.
///
/// # Panics
/// Panics if a profile is already active on the calling thread.
pub fn execute_stream_profiled(
    planned: &PlannedQuery,
    catalog: &Catalog,
    dev: &Pm,
    layer: LayerKind,
    pool: &BufferPool,
) -> Result<ExecutedStream, ExecError> {
    execute_stream_inner(planned, catalog, dev, layer, pool, true)
}

fn execute_stream_inner(
    planned: &PlannedQuery,
    catalog: &Catalog,
    dev: &Pm,
    layer: LayerKind,
    pool: &BufferPool,
    profile: bool,
) -> Result<ExecutedStream, ExecError> {
    // Re-planning re-enters the enumerator with the λ and DoP the
    // original plan was costed under, for the DRAM budget the rest of
    // the plan runs under.
    let planner = planned.adapt.then(|| {
        Planner::for_pool(planned.lambda, pool, layer, dev.config()).with_threads(planned.threads)
    });
    let mut lowerer = Lowerer {
        catalog: Cow::Borrowed(catalog),
        dev,
        layer,
        pool,
        threads: planned.threads,
        fresh: 0,
        planner,
        in_join: false,
        adapted: None,
    };
    let before = dev.snapshot();
    if profile {
        pmem_sim::span::begin_profile("query");
    }
    let result = lowerer.eval(&planned.plan);
    // Close the root frame on success *and* error so the thread-local
    // profiling stack never leaks across queries.
    let tree = if profile {
        pmem_sim::span::end_profile()
    } else {
        None
    };
    let result = result?;
    let stats = dev.snapshot().since(&before);
    let adapted = lowerer.adapted.take().map(|mut a| {
        a.plan = replace_topmost_join(&planned.plan, &a.plan);
        a
    });
    Ok(ExecutedStream {
        result,
        secs: stats.time_secs(&dev.config().latency),
        stats,
        profile: tree,
        adapted,
    })
}

/// The original plan with its (single) join subtree replaced by the
/// subtree that actually executed — wrapper nodes above the join tree
/// are preserved.
fn replace_topmost_join(plan: &PhysicalPlan, subtree: &PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Join { .. } => subtree.clone(),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Aggregate { input, .. } => {
            let mut out = plan.clone();
            let (PhysicalPlan::Filter { input: slot, .. }
            | PhysicalPlan::Sort { input: slot, .. }
            | PhysicalPlan::Aggregate { input: slot, .. }) = &mut out
            else {
                unreachable!("matched a wrapper above")
            };
            **slot = replace_topmost_join(input, subtree);
            out
        }
        PhysicalPlan::Scan { .. } => plan.clone(),
    }
}

struct Lowerer<'a> {
    /// Catalog snapshot; adaptation clones it on write to register the
    /// observed intermediate as a pseudo-table the re-planned subtree
    /// scans.
    catalog: Cow<'a, Catalog>,
    dev: &'a Pm,
    layer: LayerKind,
    pool: &'a BufferPool,
    /// Degree of parallelism the plan was costed for; partitioned
    /// operators fan out to the same degree so prediction and run agree.
    threads: usize,
    fresh: u64,
    /// `Some` when mid-plan re-planning is armed ([`PlannedQuery::adapt`]).
    planner: Option<Planner>,
    /// True while evaluating inside a join tree — adaptation only
    /// intercepts at the topmost chain join.
    in_join: bool,
    /// Set when re-planning fired; surfaced on [`ExecutedStream`].
    adapted: Option<AdaptedPlan>,
}

impl<'a> Lowerer<'a> {
    fn name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}-{}", self.fresh)
    }

    /// Evaluates `plan` inside a span labelled like the node, recording
    /// the result cardinality — so a profiled run yields a span tree
    /// whose plan-node spans mirror the physical plan's shape (plus
    /// operator-phase and per-task spans nested below them). Inert when
    /// no profile is armed.
    fn eval(&mut self, plan: &PhysicalPlan) -> Result<ResultSet, ExecError> {
        if let Some(out) = self.try_adaptive(plan)? {
            return Ok(out);
        }
        let span = pmem_sim::span::span_with(|| plan.label());
        let out = self.eval_node(plan)?;
        if span.is_active() {
            pmem_sim::span::note_rows(out.len() as u64);
        }
        drop(span);
        Ok(out)
    }

    /// Mid-plan adaptivity, intercepting at the topmost join of an
    /// adaptive n-way chain (n ≥ 3): execute the first-materializing
    /// join, compare its observed cardinality with the estimate, and on
    /// drift past [`DRIFT_THRESHOLD`] re-enumerate the remaining join
    /// subtree with statistics observed from the intermediate. Without
    /// drift the original structure executes unchanged (the intermediate
    /// is consumed exactly as the static plan would consume it), so a
    /// no-drift adaptive run is traffic-identical to a static one.
    /// Returns `None` when `plan` is not an interception point.
    fn try_adaptive(&mut self, plan: &PhysicalPlan) -> Result<Option<ResultSet>, ExecError> {
        let PhysicalPlan::Join {
            chain: Some(slots), ..
        } = plan
        else {
            return Ok(None);
        };
        if self.in_join || self.planner.is_none() || slots.tables() < 3 {
            return Ok(None);
        }
        let innermost = first_executed_join(plan);
        if std::ptr::eq(innermost, plan) {
            return Ok(None);
        }
        // Every leaf outside the first join must be re-plannable (a base
        // scan, possibly filtered) for the drift path to exist.
        let mut leaves = Vec::new();
        let mut inner_slots = Vec::new();
        let PhysicalPlan::Join { left, right, .. } = plan else {
            return Ok(None);
        };
        if !collect_remaining(left, &slots.left, innermost, &mut leaves, &mut inner_slots)
            || !collect_remaining(
                right,
                &slots.right,
                innermost,
                &mut leaves,
                &mut inner_slots,
            )
        {
            return Ok(None);
        }

        self.in_join = true;
        let ResultSet::Multi { col, tables: _ } = self.eval(innermost)? else {
            return Err(ExecError::Plan(PlanError::Unsupported(
                "chain join produced a non-chain stream".into(),
            )));
        };
        let observed = col.len() as u64;
        let estimated = innermost.cost().out_rows;
        let ratio = {
            let o = (observed as f64).max(1.0);
            let e = estimated.max(1.0);
            (o / e).max(e / o)
        };

        // Register the intermediate as a pseudo-table: the remaining
        // joins scan the very collection the first join wrote, so no
        // extra traffic is charged relative to the static pipeline. Its
        // keys are no dense range, so the domain is nominal (a bound on
        // the distinct count); only a re-enumeration reads the entry's
        // statistics, so only drift pays for sketching the keys.
        let pseudo = self.name("~mid");
        let (col, key_domain) = (Arc::new(col), observed.max(1));
        let replanned = if ratio > DRIFT_THRESHOLD {
            let rows = col.to_vec_uncounted();
            let keys: Vec<u64> = rows.iter().map(Record::key).collect();
            let stats = Arc::new(TableStatistics::observed(&keys, OBSERVED_STATS_SEED));
            self.catalog
                .to_mut()
                .add_table_with_statistics(&pseudo, col, key_domain, stats);
            self.replan_remaining(&pseudo, &inner_slots, &leaves, observed, estimated)
        } else {
            self.catalog.to_mut().add_table(&pseudo, col, key_domain);
            None
        };
        let out = match replanned {
            Some(adapted_root) => {
                let out = self.eval(&adapted_root)?;
                // For reporting, show the executed intermediate's subtree
                // where the re-planned tree scans the pseudo-table.
                let mut report = adapted_root;
                splice_scan(&mut report, &pseudo, innermost);
                if let Some(a) = self.adapted.as_mut() {
                    a.plan = report;
                }
                out
            }
            None => {
                let rewritten = substitute_scan(plan, innermost, &pseudo);
                self.eval(&rewritten)?
            }
        };
        self.in_join = false;
        Ok(Some(out))
    }

    /// Re-enumerates the remaining join subtree over the observed
    /// intermediate plus the not-yet-consumed base relations. Returns
    /// `None` (static fallback) if the enumerator rejects the entries.
    fn replan_remaining(
        &mut self,
        pseudo: &str,
        inner_slots: &[usize],
        leaves: &[(LogicalPlan, Vec<usize>)],
        observed: u64,
        estimated: f64,
    ) -> Option<PhysicalPlan> {
        let planner = self.planner.clone()?;
        let pseudo_scan = LogicalPlan::scan(pseudo);
        let mut entries: Vec<(&LogicalPlan, Vec<usize>)> =
            vec![(&pseudo_scan, inner_slots.to_vec())];
        for (leaf, slots) in leaves {
            entries.push((leaf, slots.clone()));
        }
        let mut evidence = Evidence::default();
        let (mut subtree, _) = planner
            .plan_join_slotted(&entries, self.catalog.as_ref(), &mut evidence)
            .ok()?;
        mark_replanned(&mut subtree);
        self.adapted = Some(AdaptedPlan {
            plan: subtree.clone(),
            choices: evidence.choices,
            observed_rows: observed,
            estimated_rows: estimated,
        });
        Some(subtree)
    }

    fn eval_node(&mut self, plan: &PhysicalPlan) -> Result<ResultSet, ExecError> {
        match plan {
            PhysicalPlan::Scan { table, .. } => {
                let col = self
                    .catalog
                    .data(table)
                    .ok_or_else(|| ExecError::MissingData(table.clone()))?;
                Ok(ResultSet::Wis(WisResult(WisSource::Shared(Arc::clone(
                    col,
                )))))
            }
            PhysicalPlan::Filter {
                input, predicate, ..
            } => {
                // Deferred filters are consumed by the parent join; if
                // one is evaluated directly the view semantics collapse
                // to a single materializing pass, which is identical
                // traffic-wise.
                let child = self.eval(input)?;
                Ok(self.filter_stream(child, *predicate))
            }
            PhysicalPlan::Sort { input, algo, .. } => {
                let child = self.eval(input)?;
                self.sort_stream(child, *algo)
            }
            PhysicalPlan::Join {
                left,
                right,
                algo,
                swapped,
                chain,
                hot,
                ..
            } => {
                let prev = self.in_join;
                self.in_join = true;
                let out = self.join(left, right, *algo, *swapped, chain.as_ref(), hot);
                self.in_join = prev;
                out
            }
            PhysicalPlan::Aggregate { input, x, .. } => {
                let child = self.eval(input)?;
                self.aggregate_stream(child, *x)
            }
        }
    }

    /// Lowers a filter as one counted scan into a fresh persistent
    /// collection.
    fn filter_stream(&mut self, child: ResultSet, predicate: Predicate) -> ResultSet {
        fn run<R: Record>(
            col: &pmem_sim::PCollection<R>,
            predicate: Predicate,
            dev: &Pm,
            layer: LayerKind,
            name: &str,
        ) -> pmem_sim::PCollection<R> {
            stage(
                col,
                |r| predicate.matches(&r).then_some(r),
                dev,
                layer,
                name,
            )
        }
        let name = self.name("filtered");
        let (dev, layer) = (self.dev, self.layer);
        match child {
            ResultSet::Wis(WisResult(src)) => {
                ResultSet::owned(run(src.as_col(), predicate, dev, layer, &name))
            }
            ResultSet::Pairs { col, swapped } => ResultSet::Pairs {
                col: run(&col, predicate, dev, layer, &name),
                swapped,
            },
            ResultSet::Multi { col, tables } => ResultSet::Multi {
                col: run(&col, predicate, dev, layer, &name),
                tables,
            },
            ResultSet::Groups(col) => ResultSet::Groups(run(&col, predicate, dev, layer, &name)),
        }
    }

    fn sort_stream(
        &mut self,
        child: ResultSet,
        algo: SortAlgorithm,
    ) -> Result<ResultSet, ExecError> {
        let ctx = SortContext::new(self.dev, self.layer, self.pool).with_threads(self.threads);
        let name = self.name("sorted");
        match child {
            ResultSet::Wis(WisResult(src)) => {
                Ok(ResultSet::owned(algo.run(src.as_col(), &ctx, &name)?))
            }
            ResultSet::Pairs { col, swapped } => Ok(ResultSet::Pairs {
                col: algo.run(&col, &ctx, &name)?,
                swapped,
            }),
            ResultSet::Multi { col, tables } => Ok(ResultSet::Multi {
                col: algo.run(&col, &ctx, &name)?,
                tables,
            }),
            ResultSet::Groups(col) => Ok(ResultSet::Groups(algo.run(&col, &ctx, &name)?)),
        }
    }

    /// Runs a join node: a two-way join lands its pairs, a chain join
    /// its folded rows (normalized to logical order, so chain streams
    /// never carry a swap flag). A deferred σ's join never swaps.
    fn join(
        &mut self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        algo: JoinAlgorithm,
        swapped: bool,
        chain: Option<&ChainSlots>,
        hot: &[u64],
    ) -> Result<ResultSet, ExecError> {
        let deferred = matches!(
            left,
            PhysicalPlan::Filter {
                materialization: Materialization::Deferred,
                ..
            }
        );
        let swapped = swapped && !deferred;
        Ok(match chain {
            None => ResultSet::Pairs {
                col: self.run_join(left, right, algo, swapped, hot, &Pairs)?,
                swapped,
            },
            Some(slots) => {
                let fold = ChainFold::new(slots, swapped);
                ResultSet::Multi {
                    col: self.run_join(left, right, algo, swapped, hot, &fold)?,
                    tables: slots.tables(),
                }
            }
        })
    }

    /// Evaluates a join node's inputs and runs its schedule, landing each
    /// match as `shape` emits it.
    fn run_join<S: OutputShape<WisconsinRecord, WisconsinRecord>>(
        &mut self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        algo: JoinAlgorithm,
        swapped: bool,
        hot: &[u64],
        shape: &S,
    ) -> Result<PCollection<S::Out>, ExecError> {
        let ctx = JoinContext::new(self.dev, self.layer, self.pool).with_threads(self.threads);
        let name = self.name("joined");

        // Deferred-view build side: the §3.1 deferred-σ join.
        if let PhysicalPlan::Filter {
            input,
            predicate,
            selectivity,
            materialization: Materialization::Deferred,
            ..
        } = left
        {
            // The deferred view bypasses the Filter node's `eval` (its
            // work happens inside the iterate-join), so open its span
            // here to keep the profile tree congruent with the plan.
            let src = {
                let _fspan = pmem_sim::span::span_with(|| left.label());
                match self.eval(input)? {
                    ResultSet::Wis(WisResult(WisSource::Shared(col))) => col,
                    _ => {
                        return Err(ExecError::Plan(PlanError::Unsupported(
                            "deferred filter over a non-base input".into(),
                        )))
                    }
                }
            };
            let probe = self.eval_to_wis(right)?;
            let p = *predicate;
            let keep = move |r: &WisconsinRecord| p.matches(r);
            let (out, _) = filtered_iterate_join(
                &src,
                keep,
                *selectivity,
                probe.as_col(),
                shape,
                &ctx,
                &name,
            )?;
            return Ok(out);
        }

        let build = self.eval_to_wis(left)?;
        let probe = self.eval_to_wis(right)?;
        let (b, p) = if swapped {
            (probe.as_col(), build.as_col())
        } else {
            (build.as_col(), probe.as_col())
        };
        // The cardinality-guided join takes the planner's hot-key set
        // (from the catalog statistics) instead of re-scanning inputs.
        Ok(if algo == JoinAlgorithm::CGJ {
            guided_join_with(b, p, hot, shape, &ctx, &name)?
        } else {
            algo.run_shaped(b, p, shape, &ctx, &name)?.0
        })
    }

    /// Evaluates a subtree that must produce flat Wisconsin records —
    /// base records or already-folded chain rows (join inputs).
    fn eval_to_wis(&mut self, plan: &PhysicalPlan) -> Result<WisSource, ExecError> {
        match self.eval(plan)? {
            ResultSet::Wis(WisResult(src)) => Ok(src),
            ResultSet::Multi { col, .. } => Ok(WisSource::Owned(Box::new(col))),
            _ => Err(ExecError::Plan(PlanError::Unsupported(
                "join inputs must produce base records".into(),
            ))),
        }
    }

    fn aggregate_stream(&mut self, child: ResultSet, x: f64) -> Result<ResultSet, ExecError> {
        let ctx = SortContext::new(self.dev, self.layer, self.pool).with_threads(self.threads);
        let name = self.name("groups");
        let out = match child {
            ResultSet::Wis(WisResult(src)) => {
                sort_based_aggregate(src.as_col(), x, |r| r.payload(), &ctx, &name)?
            }
            ResultSet::Pairs { col, swapped } => {
                if swapped {
                    sort_based_aggregate(&col, x, |p| p.left.payload(), &ctx, &name)?
                } else {
                    sort_based_aggregate(&col, x, |p| p.right.payload(), &ctx, &name)?
                }
            }
            // Chain rows aggregate the last-joined relation's payload,
            // mirroring the two-way probe-side convention.
            ResultSet::Multi { col, tables } => {
                sort_based_aggregate(&col, x, move |r| r.attrs[tables], &ctx, &name)?
            }
            ResultSet::Groups(_) => {
                return Err(ExecError::Plan(PlanError::Unsupported(
                    "aggregate over aggregate".into(),
                )))
            }
        };
        Ok(ResultSet::Groups(out))
    }
}

/// The join whose result materializes first: descend into join children
/// in evaluation order (left before right).
fn first_executed_join(plan: &PhysicalPlan) -> &PhysicalPlan {
    if let PhysicalPlan::Join { left, right, .. } = plan {
        if matches!(**left, PhysicalPlan::Join { .. }) {
            return first_executed_join(left);
        }
        if matches!(**right, PhysicalPlan::Join { .. }) {
            return first_executed_join(right);
        }
    }
    plan
}

/// Collects the join tree's leaves outside `innermost` as re-plannable
/// logical plans with their payload slots, and `innermost`'s combined
/// slots. Returns `false` when a leaf cannot be re-planned (adaptation
/// then stays out of the way).
fn collect_remaining(
    node: &PhysicalPlan,
    slots: &[usize],
    innermost: &PhysicalPlan,
    leaves: &mut Vec<(LogicalPlan, Vec<usize>)>,
    inner_slots: &mut Vec<usize>,
) -> bool {
    if std::ptr::eq(node, innermost) {
        inner_slots.extend_from_slice(slots);
        return true;
    }
    match node {
        PhysicalPlan::Join {
            left,
            right,
            chain: Some(s),
            ..
        } => {
            collect_remaining(left, &s.left, innermost, leaves, inner_slots)
                && collect_remaining(right, &s.right, innermost, leaves, inner_slots)
        }
        PhysicalPlan::Join { .. } => false,
        leaf => match leaf_logical(leaf) {
            Some(l) => {
                leaves.push((l, slots.to_vec()));
                true
            }
            None => false,
        },
    }
}

/// A join-tree leaf as the logical plan the re-enumerator can consume.
fn leaf_logical(plan: &PhysicalPlan) -> Option<LogicalPlan> {
    match plan {
        PhysicalPlan::Scan { table, .. } => Some(LogicalPlan::scan(table.clone())),
        PhysicalPlan::Filter {
            input, predicate, ..
        } => Some(leaf_logical(input)?.filter(*predicate)),
        _ => None,
    }
}

/// A clone of `node`'s subtree with `target` replaced by a scan of the
/// pseudo-table holding its already-computed result (same cost
/// annotation, so estimates render unchanged).
fn substitute_scan(node: &PhysicalPlan, target: &PhysicalPlan, pseudo: &str) -> PhysicalPlan {
    if std::ptr::eq(node, target) {
        return PhysicalPlan::Scan {
            table: pseudo.to_string(),
            cost: *target.cost(),
        };
    }
    let mut out = node.clone();
    if let (
        PhysicalPlan::Join { left, right, .. },
        PhysicalPlan::Join {
            left: l, right: r, ..
        },
    ) = (node, &mut out)
    {
        **l = substitute_scan(left, target, pseudo);
        **r = substitute_scan(right, target, pseudo);
    }
    out
}

/// Replaces the pseudo-table scan in a re-planned subtree with the
/// subtree that produced the intermediate — the reporting form.
fn splice_scan(node: &mut PhysicalPlan, pseudo: &str, subtree: &PhysicalPlan) {
    match node {
        PhysicalPlan::Scan { table, .. } if table == pseudo => *node = subtree.clone(),
        PhysicalPlan::Join { left, right, .. } => {
            splice_scan(left, pseudo, subtree);
            splice_scan(right, pseudo, subtree);
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Aggregate { input, .. } => splice_scan(input, pseudo, subtree),
        PhysicalPlan::Scan { .. } => {}
    }
}

/// Marks every join of a re-enumerated subtree as re-planned.
fn mark_replanned(node: &mut PhysicalPlan) {
    if let PhysicalPlan::Join {
        left,
        right,
        replanned,
        ..
    } = node
    {
        *replanned = true;
        mark_replanned(left);
        mark_replanned(right);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{DeviceConfig, LatencyProfile, PmDevice, RecordBuffer};

    /// Records with every attribute drawn, keys from `0..keys`.
    fn drawn(n: usize, keys: u64, seed: u64) -> Vec<WisconsinRecord> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let mut attrs = [0; wisconsin::WISCONSIN_ATTRS];
                attrs.iter_mut().for_each(|a| *a = next());
                attrs[0] %= keys;
                WisconsinRecord { attrs }
            })
            .collect()
    }

    fn stored(r: &WisconsinRecord) -> Vec<u8> {
        let mut bytes = vec![0; WisconsinRecord::SIZE];
        r.write_to(&mut bytes);
        bytes
    }

    /// The rows [`fold_pair`] builds from a join's pairs, its build side
    /// the logical right when `swapped`.
    fn folded(pairs: &[WisPair], slots: &ChainSlots, swapped: bool) -> Vec<WisconsinRecord> {
        pairs
            .iter()
            .map(|p| {
                let (l, r) = if swapped {
                    (&p.right, &p.left)
                } else {
                    (&p.left, &p.right)
                };
                fold_pair(l, &slots.left, r, &slots.right)
            })
            .collect()
    }

    const SLOTS: [(&[usize], &[usize]); 6] = [
        (&[0], &[1]),
        (&[0, 1], &[2]),
        (&[2], &[0, 1]),
        (&[0, 2], &[1, 3, 4]),
        (&[1, 2, 3, 4, 5, 6, 7, 8], &[0]),
        (&[8], &[0, 1, 2, 3, 4, 5, 6, 7]),
    ];

    #[test]
    fn the_fold_lands_the_row_fold_pair_builds() {
        let (lefts, mut rights) = (drawn(50, 1 << 40, 7), drawn(50, 1, 9));
        for (l, r) in lefts.iter().zip(&mut rights) {
            r.attrs[0] = l.attrs[0];
        }
        for (left, right) in SLOTS {
            let slots = ChainSlots {
                left: left.to_vec(),
                right: right.to_vec(),
            };
            for swapped in [false, true] {
                let fold = ChainFold::new(&slots, swapped);
                let mut rows = RecordBuffer::new();
                for (l, r) in lefts.iter().zip(&rights) {
                    let (build, probe) = if swapped { (r, l) } else { (l, r) };
                    fold.emit(&stored(build), &stored(probe), &mut rows);
                }
                let got: Vec<WisconsinRecord> =
                    rows.records().map(WisconsinRecord::read_from).collect();
                let want: Vec<WisconsinRecord> = (lefts.iter().zip(&rights))
                    .map(|(l, r)| fold_pair(l, left, r, right))
                    .collect();
                assert_eq!(got, want, "{slots:?}, swapped {swapped}");
            }
        }
    }

    /// The schedules the lowering reaches: each algorithm, the guided
    /// join over given hot keys, the deferred σ.
    const SCHEDULES: [&str; 10] = [
        "NLJ",
        "GJ",
        "HJ",
        "HybJ",
        "SegJ",
        "LaJ",
        "SMJ",
        "CGJ",
        "guided",
        "deferred σ",
    ];

    /// Runs schedule `which` of [`SCHEDULES`], landing its matches as
    /// `shape` emits them.
    fn schedule<S: OutputShape<WisconsinRecord, WisconsinRecord>>(
        which: usize,
        (l, r): (&PCollection<WisconsinRecord>, &PCollection<WisconsinRecord>),
        shape: &S,
        ctx: &JoinContext<'_>,
    ) -> Result<PCollection<S::Out>, PmError> {
        let algo = match which {
            0 => JoinAlgorithm::NLJ,
            1 => JoinAlgorithm::GJ,
            2 => JoinAlgorithm::HJ,
            3 => JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
            4 => JoinAlgorithm::SegJ { frac: 0.5 },
            5 => JoinAlgorithm::LaJ,
            6 => JoinAlgorithm::SMJ { x: 0.5 },
            7 => JoinAlgorithm::CGJ,
            8 => return guided_join_with(l, r, &[0, 1, 2, 3], shape, ctx, "o"),
            _ => {
                let keep = |rec: &WisconsinRecord| !rec.key().is_multiple_of(3);
                return Ok(filtered_iterate_join(l, keep, 0.67, r, shape, ctx, "o")?.0);
            }
        };
        Ok(algo.run_shaped(l, r, shape, ctx, "o")?.0)
    }

    /// Every schedule lands the folded rows in the order it lands the
    /// pairs, reads what it reads for the pairs, and writes the rows
    /// instead of the pairs.
    #[test]
    fn every_schedule_lands_folded_rows_where_it_landed_pairs() {
        let lines = |bytes: usize| bytes.div_ceil(pmem_sim::CACHELINE) as u64;
        let (build, probe) = (drawn(300, 200, 3), drawn(900, 200, 5));
        let slots = ChainSlots {
            left: vec![0, 2],
            right: vec![1],
        };
        // λ = 1.5 makes the lazy and deferred schedules materialize
        // midway and carry on from what they wrote.
        for (which, name) in SCHEDULES.iter().enumerate() {
            for (threads, lambda) in [(1, 15.0), (4, 15.0), (1, 1.5)] {
                let dev = PmDevice::new(
                    DeviceConfig::paper_default()
                        .with_latency(LatencyProfile::with_lambda(10.0, lambda)),
                );
                let kind = LayerKind::BlockedMemory;
                let l = PCollection::from_records_uncounted(&dev, kind, "T", build.clone());
                let r = PCollection::from_records_uncounted(&dev, kind, "V", probe.clone());
                let pool = BufferPool::new(60 * 80);
                let ctx = JoinContext::new(&dev, kind, &pool).with_threads(threads);
                let before = dev.snapshot();
                let pairs = schedule(which, (&l, &r), &Pairs, &ctx).expect("applicable");
                let pair_io = dev.snapshot().since(&before);
                let pairs = pairs.to_vec_uncounted();
                assert!(pairs.len() > 500, "{name}: {} matches", pairs.len());
                for swapped in [false, true] {
                    let what = format!("{name}, DoP {threads}, λ {lambda}, swapped {swapped}");
                    let fold = ChainFold::new(&slots, swapped);
                    let before = dev.snapshot();
                    let rows = schedule(which, (&l, &r), &fold, &ctx).expect("applicable");
                    let row_io = dev.snapshot().since(&before);
                    let want = folded(&pairs, &slots, swapped);
                    assert!(rows.to_vec_uncounted() == want, "{what}: rows");
                    assert_eq!(row_io.cl_reads, pair_io.cl_reads, "{what}: reads");
                    let n = pairs.len();
                    assert_eq!(
                        row_io.cl_writes + lines(n * WisPair::SIZE),
                        pair_io.cl_writes + lines(n * WisconsinRecord::SIZE),
                        "{what}: writes"
                    );
                }
            }
        }
    }
}
