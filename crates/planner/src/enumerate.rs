//! The plan enumerator: logical plan → costed physical plan.
//!
//! For every sort and join node the enumerator consults the Eqs. 1–11
//! cost models (via `write_limited::cost`) for the whole applicable
//! candidate field — ExMS/SegS/HybS/LaS/SelS for sorts, NLJ/GJ/HJ/HybJ/
//! SegJ/LaJ (both build orders) for joins — and keeps the cheapest. For
//! filters feeding a join's build side it additionally consults the
//! §3.1 rules ([`write_limited::deferral::plan_verdict`]) to gate a
//! *deferred-view* candidate where the filter output is never written
//! and the iterate-only join re-filters the source on every pass.
//!
//! This file plans the single-input nodes; joins live in two child
//! modules: `edge` costs one `left ⋈ right` edge as plain numbers,
//! `order` runs the subset DP over those numbers and builds plan nodes
//! and evidence tables for the winning tree only. Evidence is filled as
//! values — a [`Node`] and one [`Candidate`] per alternative — and
//! formatted only by [`crate::report`], when a report asks for it.

mod edge;
mod order;

use crate::catalog::Catalog;
use crate::logical::{LogicalPlan, Predicate};
use crate::physical::{Materialization, NodeCost, PhysicalPlan};
use pmem_sim::{BufferPool, ChargeRule, DeviceConfig, LayerKind, Pm, Storable, CACHELINE};
use wisconsin::WisconsinRecord;
use write_limited::agg::GroupAgg;
use write_limited::context::Capacity;
use write_limited::cost::{
    predict_sort_io, sort_candidates, sort_parallel_split, IoPrediction, ParallelSplit,
};
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;
use write_limited::stats::TableStatistics;

pub(crate) use order::collect_join_leaves;

/// GroupAgg record width in bytes.
const GROUP_BYTES: f64 = GroupAgg::SIZE as f64;

/// Most base relations one join chain may combine. Chain rows carry one
/// payload slot per relation inside an 80-byte Wisconsin record (nine
/// slots available); eight leaves the row format headroom. The subset
/// DP costs `(3^n − 2^(n+1) + 1) / 2` splits — 3 025 at eight relations
/// — each a few dozen Eqs. 1–11 evaluations on plain numbers, with no
/// allocation over uniform statistics (under half a microsecond) — and
/// builds `n − 1` join nodes.
pub const MAX_JOIN_RELATIONS: usize = 8;

/// Planning failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A scanned table is not in the catalog.
    UnknownTable(String),
    /// The plan shape is outside what the executor supports.
    Unsupported(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            PlanError::Unsupported(what) => write!(f, "unsupported plan shape: {what}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// What a candidate is, as values: [`crate::report`] renders its label,
/// e.g. `SegS, 32%`, `GJ (swapped)` or `((T ⋈ W) ⋈ V)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Alternative {
    /// A sort algorithm with its knob.
    Sort(SortAlgorithm),
    /// A join algorithm in one build order.
    Join {
        /// The algorithm with its knobs.
        algo: JoinAlgorithm,
        /// Whether the right input is the build side.
        swapped: bool,
        /// Whether the build filter stays a view the join re-filters (§3.1).
        deferred: bool,
    },
    /// A root split of the join-order search, as two relation bitmasks
    /// (bit `i` is relation `i` of [`Node::Order`]).
    Order {
        /// The half holding the lowest relation.
        left: u8,
        /// The other half.
        right: u8,
    },
}

// An `Alternative::Order` half has one bit per relation.
const _: () = assert!(MAX_JOIN_RELATIONS <= u8::BITS as usize);

/// One costed alternative the enumerator considered for a node.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The alternative this row costs.
    pub what: Alternative,
    /// Predicted traffic of the node under this alternative.
    pub io: IoPrediction,
    /// The figure the planner ranks by, in read units. At degree of
    /// parallelism 1 this is the Eqs. 1–11 scalar cost; with `threads >
    /// 1` it is the *critical-path* estimate — the serial share plus the
    /// partition-parallel share divided by the effective worker count —
    /// so partitioned algorithms get cheaper relative to iterative ones
    /// and plan choice can shift under parallelism.
    pub cost_units: f64,
}

/// Which node a candidate field belongs to, as the figures its heading
/// is rendered from. Buffers are as costed: at least one.
#[derive(Clone, Debug)]
pub enum Node {
    /// A sort.
    Sort {
        /// Estimated input rows.
        rows: f64,
        /// Input buffers.
        buffers: f64,
    },
    /// One join edge of the winning tree.
    Join {
        /// Estimated rows of the left input.
        left_rows: f64,
        /// Estimated rows of the right input.
        right_rows: f64,
        /// Buffers of the left input.
        left_buffers: f64,
        /// Buffers of the right input.
        right_buffers: f64,
    },
    /// The join-order search; its candidates are the root splits.
    Order {
        /// Splits the search costed over all subsets.
        considered: usize,
        /// The relations' names (`σ`-marked when filtered), in bit order.
        relations: Vec<String>,
        /// Each subset's winning left half, indexed by the subset's
        /// bitmask (0 for one relation).
        best_left: Vec<u8>,
    },
}

/// The full candidate field of one enumerated node.
#[derive(Clone, Debug)]
pub struct NodeChoice {
    /// Which node this is.
    pub node: Node,
    /// All alternatives, sorted cheapest first: the winner is the first.
    pub candidates: Vec<Candidate>,
}

/// A planned query: the winning physical plan plus the evidence.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// The winning physical plan.
    pub plan: PhysicalPlan,
    /// Per-node candidate fields, in planning order.
    pub choices: Vec<NodeChoice>,
    /// Write/read cost ratio the plan was costed at.
    pub lambda: f64,
    /// DRAM budget in buffers.
    pub m_buffers: f64,
    /// Degree of parallelism the plan was costed for (and that the
    /// executor fans partitioned operators out to).
    pub threads: usize,
    /// Total predicted traffic of the plan.
    pub predicted: IoPrediction,
    /// Whether the executor may re-plan the remaining join subtree when
    /// an observed cardinality drifts from its estimate.
    pub adapt: bool,
    /// Join splits the order search costed (3 025 for an eight-relation
    /// chain; 1 for a two-way join). Host-independent work count.
    pub splits_costed: usize,
}

/// What planning accumulates besides the plan: per-node candidate
/// evidence in planning order, and the order search's work counts.
#[derive(Debug, Default)]
pub(crate) struct Evidence {
    pub(crate) choices: Vec<NodeChoice>,
    pub(crate) splits_costed: usize,
}

/// The write-aware planner: carries the device cost parameters the
/// enumerator ranks candidates under.
#[derive(Clone, Debug)]
pub struct Planner {
    /// Write/read cost ratio λ of the target medium.
    pub lambda: f64,
    /// The DRAM budget, read as the engine reads it, in base records.
    budget: Capacity,
    /// Persistence layer targeted by intermediates.
    pub layer: LayerKind,
    /// Degree of parallelism the partitioned operators will run at;
    /// drives the critical-path ranking. Defaults to 1 (rank by the
    /// serial Eqs. 1–11 sums); planning for a parallel runtime is an
    /// explicit choice via [`Planner::with_threads`], so plan choices
    /// stay stable no matter what `WL_THREADS` the *executor* runs at.
    pub threads: usize,
    /// Whether executors may re-enumerate the remaining join subtree
    /// mid-plan when observed cardinalities drift from the estimates.
    /// On by default; turned off for static-uniform baselines and for
    /// adaptivity-invariance experiments.
    pub adapt: bool,
    /// The simulator's charge rule of `layer`: what the predicted
    /// traffic of each node costs in layer calls.
    rule: ChargeRule,
    /// Medium read latency in nanoseconds: the read unit call time is
    /// ranked in.
    read_ns: f64,
}

impl Planner {
    /// Builds a planner from explicit λ and memory budget, taking the
    /// per-layer overhead parameters from the paper-default device
    /// configuration.
    pub fn new(lambda: f64, m_buffers: f64, layer: LayerKind) -> Self {
        Self::with_config(lambda, m_buffers, layer, &DeviceConfig::paper_default())
    }

    /// Builds a planner matching a live device and buffer pool — the
    /// form used right before execution.
    pub fn for_device(dev: &Pm, pool: &BufferPool, layer: LayerKind) -> Self {
        Self::for_pool(dev.lambda(), pool, layer, dev.config())
    }

    /// Builds a planner for the DRAM budget of `pool`, which it reads
    /// as the engine does: the same bytes, the same record capacities.
    pub fn for_pool(lambda: f64, pool: &BufferPool, layer: LayerKind, cfg: &DeviceConfig) -> Self {
        Self::with_budget(lambda, pool.budget(), layer, cfg)
    }

    /// Explicit-configuration constructor: a DRAM budget of `m_buffers`
    /// whole cachelines, `m_buffers · 64` bytes.
    pub fn with_config(lambda: f64, m_buffers: f64, layer: LayerKind, cfg: &DeviceConfig) -> Self {
        assert!(m_buffers >= 1.0, "need at least one buffer of DRAM");
        Self::with_budget(lambda, (m_buffers * CACHELINE as f64) as usize, layer, cfg)
    }

    fn with_budget(lambda: f64, bytes: usize, layer: LayerKind, cfg: &DeviceConfig) -> Self {
        assert!(lambda >= 1.0, "write/read ratio must be >= 1");
        assert!(bytes > 0, "need at least one byte of DRAM");
        Self {
            lambda,
            budget: Capacity::new(bytes, WisconsinRecord::SIZE),
            layer,
            threads: 1,
            adapt: true,
            rule: ChargeRule::new(layer, cfg),
            read_ns: cfg.latency.read_ns,
        }
    }

    /// Sets the degree of parallelism the plan is costed for. The
    /// executor fans partitioned operators out to the same degree, so
    /// the critical-path ranking and the run agree.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables mid-plan re-planning for queries planned by
    /// this planner.
    #[must_use]
    pub fn with_adaptivity(mut self, adapt: bool) -> Self {
        self.adapt = adapt;
        self
    }

    /// The DRAM budget in buffers, the cost model's `M`: whole
    /// cachelines, rounded up.
    #[inline]
    fn m_buffers(&self) -> f64 {
        self.budget.bytes().div_ceil(CACHELINE) as f64
    }

    /// Critical-path scaling of a costed candidate: the ratio between
    /// the split's elapsed estimate at `self.threads` workers and its
    /// serial sum, applied to the call-inclusive figure (calls accrue
    /// on the same traffic, so they scale with it).
    /// The split is only worked out when there are workers to spread
    /// it over.
    fn scale_units(&self, units: f64, split: impl FnOnce() -> ParallelSplit) -> f64 {
        if self.threads <= 1 {
            return units;
        }
        let split = split();
        let serial_sum = split.critical_path_units(1);
        if serial_sum <= 0.0 {
            return units;
        }
        units * split.critical_path_units(self.threads) / serial_sum
    }

    /// `io` priced in the layer calls its traffic makes under the
    /// target layer's charge rule: none on the load/store layers, one
    /// per 512-byte record on the RAM disk, one per block on PMFS.
    fn with_calls(&self, io: IoPrediction) -> IoPrediction {
        let (calls, software_ns) = self.rule.calls(io.reads + io.writes);
        IoPrediction {
            calls,
            software_ns,
            ..io
        }
    }

    /// The figure candidates rank by, in read units: `reads + λ·writes`
    /// plus the calls' software time — what makes the planner
    /// layer-aware beyond cacheline counts.
    fn units(&self, io: &IoPrediction) -> f64 {
        io.cost_units(self.lambda) + io.software_ns / self.read_ns
    }

    /// Enumerates physical plans for `logical` and returns the cheapest
    /// together with the candidate evidence.
    ///
    /// # Errors
    /// Returns [`PlanError`] for unknown tables, a `key % 0` filter, or
    /// plan shapes the executor cannot lower.
    pub fn plan(
        &self,
        logical: &LogicalPlan,
        catalog: &Catalog,
    ) -> Result<PlannedQuery, PlanError> {
        let mut evidence = Evidence::default();
        let (plan, _) = self.plan_node(logical, catalog, &mut evidence)?;
        let predicted = plan.total_io();
        Ok(PlannedQuery {
            plan,
            choices: evidence.choices,
            lambda: self.lambda,
            m_buffers: self.m_buffers(),
            threads: self.threads,
            predicted,
            adapt: self.adapt,
            splits_costed: evidence.splits_costed,
        })
    }

    /// Plans one logical node: the costed physical subtree and the
    /// statistics of the keys it produces — the catalog's for a scan,
    /// conditioned by filters, passed through sorts and aggregates,
    /// composed by joins. Every estimate above the node reads the latter.
    fn plan_node(
        &self,
        logical: &LogicalPlan,
        catalog: &Catalog,
        evidence: &mut Evidence,
    ) -> Result<(PhysicalPlan, TableStatistics), PlanError> {
        match logical {
            LogicalPlan::Scan { table } => {
                let (Some(shape), Some(statistics)) =
                    (catalog.stats(table), catalog.statistics(table))
                else {
                    return Err(PlanError::UnknownTable(table.clone()));
                };
                let plan = PhysicalPlan::Scan {
                    table: table.clone(),
                    cost: NodeCost {
                        io: IoPrediction::ZERO, // charged by the consumer
                        out_rows: shape.rows as f64,
                        out_buffers: shape.buffers(),
                        distinct_keys: (shape.rows.min(shape.key_domain)) as f64,
                    },
                };
                Ok((plan, (**statistics).clone()))
            }
            LogicalPlan::Filter { input, predicate } => {
                predicate.check()?;
                let (child, stats) = self.plan_node(input, catalog, evidence)?;
                Ok(self.plan_filter(child, *predicate, &stats))
            }
            LogicalPlan::Sort { input } => {
                let (child, stats) = self.plan_node(input, catalog, evidence)?;
                // Sort-based aggregation already emits its groups in
                // ascending key order, at every intensity and DoP.
                if matches!(child, PhysicalPlan::Aggregate { .. }) {
                    return Ok((child, stats));
                }
                Ok((self.plan_sort(child, &mut evidence.choices)?, stats))
            }
            LogicalPlan::Join { .. } => self.plan_join_tree(logical, catalog, evidence),
            LogicalPlan::Aggregate { input } => {
                let (child, stats) = self.plan_node(input, catalog, evidence)?;
                Ok((self.plan_agg(child)?, stats))
            }
        }
    }

    /// Filters default to materialized: read the input once, write the
    /// qualifying rows. The join edge above a build-side filter revisits
    /// it and may flip it to a deferred view. Selectivity is read
    /// off the input's statistics (the equi-depth histogram where the
    /// table has one); the filtered statistics go back up with the plan.
    fn plan_filter(
        &self,
        child: PhysicalPlan,
        predicate: Predicate,
        stats: &TableStatistics,
    ) -> (PhysicalPlan, TableStatistics) {
        let in_rows = child.cost().out_rows;
        let in_buffers = child.cost().out_buffers;
        let (selectivity, filtered) = match predicate {
            Predicate::KeyBelow(b) => (stats.fraction_below(b), stats.filtered_below(b)),
            Predicate::KeyAtLeast(b) => (stats.fraction_at_least(b), stats.filtered_at_least(b)),
            Predicate::KeyModEq { modulus, residue } => {
                (1.0 / modulus as f64, stats.filtered_mod(modulus, residue))
            }
        };
        let distinct = filtered.distinct_keys().max(1.0);
        let out_rows = (in_rows * selectivity).ceil();
        let out_buffers = (in_buffers * selectivity).ceil();
        let io = self.with_calls(IoPrediction::traffic(in_buffers, out_buffers));
        let plan = PhysicalPlan::Filter {
            input: Box::new(child),
            predicate,
            selectivity,
            materialization: Materialization::Materialized,
            cost: NodeCost {
                io,
                out_rows,
                out_buffers,
                distinct_keys: distinct,
            },
        };
        (plan, filtered)
    }

    fn plan_sort(
        &self,
        child: PhysicalPlan,
        choices: &mut Vec<NodeChoice>,
    ) -> Result<PhysicalPlan, PlanError> {
        let (t, m) = (child.cost().out_buffers.max(1.0), self.m_buffers());
        let rows = child.cost().out_rows;
        let mut candidates: Vec<Candidate> = sort_candidates(t, m, self.lambda)
            .into_iter()
            .map(|algo| {
                let io = self.with_calls(predict_sort_io(&algo, t, m, self.lambda));
                Candidate {
                    what: Alternative::Sort(algo),
                    cost_units: self.scale_units(self.units(&io), || {
                        sort_parallel_split(&algo, t, m, self.lambda)
                    }),
                    io,
                }
            })
            .collect();
        candidates.sort_by(|a, b| a.cost_units.total_cmp(&b.cost_units));
        let Some(&Candidate {
            what: Alternative::Sort(algo),
            io,
            ..
        }) = candidates.first()
        else {
            return Err(PlanError::Unsupported("no sort algorithm to rank".into()));
        };
        choices.push(NodeChoice {
            node: Node::Sort { rows, buffers: t },
            candidates,
        });
        let distinct = child.cost().distinct_keys;
        Ok(PhysicalPlan::Sort {
            input: Box::new(child),
            algo,
            cost: NodeCost {
                io,
                out_rows: rows,
                out_buffers: t,
                distinct_keys: distinct,
            },
        })
    }

    /// Aggregation is lowered onto the write-limited sort-based
    /// aggregator; its dominant cost is the segment sort of the input at
    /// intensity `x`, plus writing one group row per distinct key.
    fn plan_agg(&self, child: PhysicalPlan) -> Result<PhysicalPlan, PlanError> {
        let (t, m) = (child.cost().out_buffers.max(1.0), self.m_buffers());
        // x = 0 never materializes sorted runs — the aggregator consumes
        // merge streams — so high λ favors it; at λ close to 1 run
        // generation (x = 1) reads less overall. Pick by the segment
        // cost model.
        let Some((x, io)) = [0.0, 0.25, 0.5, 0.75, 1.0]
            .into_iter()
            .map(|x| {
                let algo = SortAlgorithm::SegS { x };
                (x, predict_sort_io(&algo, t, m, self.lambda))
            })
            .min_by(|a, b| {
                a.1.cost_units(self.lambda)
                    .total_cmp(&b.1.cost_units(self.lambda))
            })
        else {
            return Err(PlanError::Unsupported("empty aggregation sweep".into()));
        };
        // One output row per distinct key.
        let groups = child.cost().distinct_keys.max(1.0);
        let out_buffers = (groups * GROUP_BYTES / CACHELINE as f64).ceil();
        // The segment cost model already charges λ·t for writing the
        // sorted output; the aggregator instead writes only group rows.
        // Correct the write side accordingly.
        let io = self.with_calls(IoPrediction::traffic(
            io.reads,
            (io.writes - t).max(0.0) + out_buffers,
        ));
        Ok(PhysicalPlan::Aggregate {
            input: Box::new(child),
            x,
            cost: NodeCost {
                io,
                out_rows: groups,
                out_buffers,
                distinct_keys: groups,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableStats;
    use wisconsin::WisconsinRecord;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stats("T", TableStats::wisconsin(10_000));
        c.add_stats("V", TableStats::wisconsin(100_000));
        c
    }

    #[test]
    fn sort_choice_tracks_lambda() {
        let cat = catalog();
        let logical = LogicalPlan::scan("T").sort();
        // Symmetric medium: ExMS (or full-intensity variants) wins.
        let sym = Planner::new(1.0, 625.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        // Write-expensive medium: a write-limited algorithm wins.
        let asym = Planner::new(15.0, 625.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        let algo_of = |p: &PlannedQuery| match &p.plan {
            PhysicalPlan::Sort { algo, .. } => *algo,
            other => panic!("expected sort root, got {}", other.label()),
        };
        // The paper's claim in planner form: as λ → 1 the optimal write
        // intensity approaches full mergesort; as λ grows the chosen
        // intensity drops (writes traded for reads).
        let intensity = |a: SortAlgorithm| match a {
            SortAlgorithm::ExMS => 1.0,
            SortAlgorithm::SegS { x } | SortAlgorithm::HybS { x } => x,
            SortAlgorithm::LaS | SortAlgorithm::SelS => 0.0,
        };
        assert!(
            intensity(algo_of(&sym)) > 0.9,
            "λ=1 should pick near-full intensity, got {:?}",
            algo_of(&sym)
        );
        assert!(
            intensity(algo_of(&asym)) < 0.7,
            "λ=15 should pick a write-limited sort, got {:?}",
            algo_of(&asym)
        );
    }

    #[test]
    fn join_enumeration_reports_both_orders() {
        let cat = catalog();
        let logical = LogicalPlan::scan("T").join(LogicalPlan::scan("V"));
        let planned = Planner::new(15.0, 1250.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        let join_choice = planned
            .choices
            .iter()
            .find(|c| matches!(c.node, Node::Join { .. }))
            .expect("join node enumerated");
        assert!(join_choice
            .candidates
            .iter()
            .any(|c| matches!(c.what, Alternative::Join { swapped: true, .. })));
        assert!(join_choice.candidates.len() >= 8);
        // Candidates are sorted cheapest-first and the winner is first.
        assert!(join_choice
            .candidates
            .windows(2)
            .all(|w| w[0].cost_units <= w[1].cost_units));
        // The first row is the join the plan runs.
        let PhysicalPlan::Join { algo, swapped, .. } = &planned.plan else {
            panic!("expected a join root, got {}", planned.plan.label());
        };
        assert_eq!(
            join_choice.candidates[0].what,
            Alternative::Join {
                algo: *algo,
                swapped: *swapped,
                deferred: false
            }
        );
    }

    #[test]
    fn three_way_join_runs_the_order_search() {
        let mut cat = catalog();
        cat.add_stats("W", TableStats::wisconsin(1_000));
        let logical = LogicalPlan::scan("T")
            .join(LogicalPlan::scan("V"))
            .join(LogicalPlan::scan("W"));
        let planned = Planner::new(15.0, 1250.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        let order = planned
            .choices
            .iter()
            .find(|c| matches!(c.node, Node::Order { .. }))
            .expect("order search summary");
        let Node::Order {
            considered,
            relations,
            ..
        } = &order.node
        else {
            panic!("expected an order node");
        };
        assert_eq!((relations.len(), *considered), (3, 6), "{:?}", order.node);
        assert_eq!(order.candidates.len(), 3, "three root splits");
        // Two per-edge evidence tables follow the summary.
        let edges = planned
            .choices
            .iter()
            .filter(|c| matches!(c.node, Node::Join { .. }))
            .count();
        assert_eq!(edges, 2);
        // The root is a chain join covering all three relations.
        let PhysicalPlan::Join {
            chain: Some(slots), ..
        } = &planned.plan
        else {
            panic!("expected chain join root, got {}", planned.plan.label());
        };
        assert_eq!(slots.tables(), 3);
        let mut all: Vec<usize> = slots.left.iter().chain(&slots.right).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
        // The cheapest root split should put the two small relations
        // (T: 10k, W: 1k; bits 0 and 2) together before touching the
        // 100k-row V (bit 1).
        let chosen = order.candidates[0].what;
        assert_eq!(
            chosen,
            Alternative::Order {
                left: 0b101,
                right: 0b010
            },
            "expected the small relations joined first, got {}",
            crate::report::render_label(&order.node, &chosen)
        );
    }

    #[test]
    fn nested_logical_joins_flatten_into_the_same_search() {
        let mut cat = catalog();
        cat.add_stats("W", TableStats::wisconsin(1_000));
        // Bushy input shape: join(T, join(V, W)).
        let bushy =
            LogicalPlan::scan("T").join(LogicalPlan::scan("V").join(LogicalPlan::scan("W")));
        let left_deep = LogicalPlan::scan("T")
            .join(LogicalPlan::scan("V"))
            .join(LogicalPlan::scan("W"));
        let planner = Planner::new(15.0, 1250.0, LayerKind::BlockedMemory);
        let a = planner.plan(&bushy, &cat).expect("plans");
        let b = planner.plan(&left_deep, &cat).expect("plans");
        // Same leaves → same search → same predicted traffic.
        assert_eq!(a.predicted, b.predicted);
    }

    #[test]
    fn too_many_relations_is_a_plan_error() {
        let mut cat = Catalog::new();
        let mut logical = LogicalPlan::scan("r0");
        cat.add_stats("r0", TableStats::wisconsin(100));
        for i in 1..=MAX_JOIN_RELATIONS {
            let name = format!("r{i}");
            cat.add_stats(&name, TableStats::wisconsin(100));
            logical = logical.join(LogicalPlan::scan(&name));
        }
        let err = Planner::new(15.0, 625.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .unwrap_err();
        assert!(
            matches!(err, PlanError::Unsupported(ref m) if m.contains("exceeds")),
            "{err}"
        );
    }

    /// The search's work is a count, not a timing: every split is
    /// costed once. That only the winning tree's `n − 1` edges become
    /// plan nodes is held by `tests/tests/plan_alloc.rs`, whose
    /// allocation budget at eight relations is below one per split.
    #[test]
    fn work_counts_are_exact_for_chains_of_two_to_eight() {
        let mut cat = Catalog::new();
        let mut logical = LogicalPlan::scan("r0");
        cat.add_stats("r0", TableStats::wisconsin(50_000));
        let planner = Planner::new(15.0, 3125.0, LayerKind::BlockedMemory);
        // (3^n − 2^(n+1) + 1) / 2 unordered splits over all subsets.
        let splits = [1, 6, 25, 90, 301, 966, 3025];
        for (n, want) in (2..=MAX_JOIN_RELATIONS).zip(splits) {
            let name = format!("r{}", n - 1);
            cat.add_stats(&name, TableStats::wisconsin(50_000));
            logical = logical.join(LogicalPlan::scan(&name));
            let planned = planner.plan(&logical, &cat).expect("plans");
            assert_eq!(planned.splits_costed, want, "{n} relations");
            // Joins nested inside a blocking leaf are counted too.
            let nested = logical
                .clone()
                .aggregate()
                .join(LogicalPlan::scan("r0"))
                .sort();
            let planned = planner.plan(&nested, &cat).expect("plans");
            assert_eq!(planned.splits_costed, want + 1);
        }
        let unjoined = planner
            .plan(&LogicalPlan::scan("r0").sort(), &cat)
            .expect("plans");
        assert_eq!(unjoined.splits_costed, 0);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let cat = catalog();
        let logical = LogicalPlan::scan("missing").sort();
        let err = Planner::new(15.0, 100.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .unwrap_err();
        assert_eq!(err, PlanError::UnknownTable("missing".into()));
    }

    #[test]
    fn selective_build_filter_materializes_nonselective_defers() {
        let cat = catalog();
        let planner = Planner::new(15.0, 250.0, LayerKind::BlockedMemory);
        // Selective: 1% of T — cheap to write, every rule favors
        // materializing before the join.
        let selective = LogicalPlan::scan("T")
            .filter(Predicate::KeyBelow(100))
            .join(LogicalPlan::scan("V"));
        let planned = planner.plan(&selective, &cat).expect("plans");
        if let PhysicalPlan::Join { left, .. } = &planned.plan {
            if let PhysicalPlan::Filter {
                materialization, ..
            } = &**left
            {
                assert_eq!(*materialization, Materialization::Materialized);
            } else {
                panic!("expected filter under join");
            }
        } else {
            panic!("expected join root");
        }
    }

    #[test]
    fn parallelism_knob_scales_every_candidates_critical_path() {
        // λ = 1, M = |T|/4: serially the read-only block-nested-loops
        // plan edges out the Grace family (it avoids the partition
        // writes). Before the morsel-driven executors, only the
        // partitioned candidates could shrink under workers and the
        // winner flipped away from NLJ; now NLJ fans out over its outer
        // blocks too, so it keeps both its serial win *and* its lead at
        // DoP 8 — and every candidate's critical path must shrink.
        let mut cat = Catalog::new();
        cat.add_stats("T", TableStats::wisconsin(10_000));
        cat.add_stats("V", TableStats::wisconsin(15_000));
        let logical = LogicalPlan::scan("T").join(LogicalPlan::scan("V"));

        let serial = Planner::new(1.0, 3125.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        let par = Planner::new(1.0, 3125.0, LayerKind::BlockedMemory)
            .with_threads(8)
            .plan(&logical, &cat)
            .expect("plans");
        assert_eq!(serial.threads, 1);
        assert_eq!(par.threads, 8);

        let join_choice = |p: &PlannedQuery| {
            p.choices
                .iter()
                .find(|c| matches!(c.node, Node::Join { .. }))
                .expect("join enumerated")
                .clone()
        };
        let (serial_join, par_join) = (join_choice(&serial), join_choice(&par));
        let (serial_chosen, par_chosen) =
            (serial_join.candidates[0].what, par_join.candidates[0].what);
        assert_eq!(
            serial_chosen,
            Alternative::Join {
                algo: JoinAlgorithm::NLJ,
                swapped: false,
                deferred: false
            },
            "serial baseline should win at λ=1"
        );
        // The flip the critical path buys now happens *within* the NLJ
        // family: swapping the build side makes more (smaller) outer
        // blocks, which serially costs extra block reads but at DoP 8
        // fans out wider — the swapped variant overtakes.
        assert!(
            matches!(
                par_chosen,
                Alternative::Join {
                    algo: JoinAlgorithm::NLJ,
                    ..
                }
            ),
            "block-parallel NLJ keeps its lead under workers, got {par_chosen:?}"
        );
        assert_ne!(
            par_chosen, serial_chosen,
            "the wider-fan-out build order should win under workers"
        );
        assert!(
            par_join.candidates[0].cost_units < serial_join.candidates[0].cost_units,
            "critical path must undercut the serial sum"
        );
        // Every candidate family shrinks: no all-serial joins are left.
        for c in &par_join.candidates {
            let serial_units = serial_join
                .candidates
                .iter()
                .find(|s| s.what == c.what)
                .expect("same candidate field")
                .cost_units;
            assert!(
                c.cost_units < serial_units,
                "{:?}: {} !< {serial_units}",
                c.what,
                c.cost_units
            );
        }
    }

    #[test]
    fn skew_statistics_surface_a_guided_candidate_and_fix_the_estimate() {
        use pmem_sim::{LayerKind as LK, PmDevice};
        use std::sync::Arc;
        use wisconsin::Record as _;

        let dev = PmDevice::paper_default();
        let zipf_keys = |n: u64, fanout: u64, seed: u64| -> Vec<u64> {
            wisconsin::skewed_input(n, fanout, 1.2, seed)
                .iter()
                .map(|r| r.key())
                .collect()
        };
        let mut cat = Catalog::new();
        let add = |cat: &mut Catalog, name: &str, keys: &[u64], domain: u64| {
            let col = Arc::new(pmem_sim::PCollection::from_records_uncounted(
                &dev,
                LK::BlockedMemory,
                name,
                keys.iter().map(|&k| WisconsinRecord::from_key(k)),
            ));
            let stats = Arc::new(TableStatistics::build(keys, 42));
            cat.add_table_with_statistics(name, col, domain, stats);
        };
        // Center: unique keys. Two skewed dimensions sharing the head.
        let center: Vec<u64> = (0..2000).collect();
        add(&mut cat, "C", &center, 2000);
        add(&mut cat, "D1", &zipf_keys(8000, 4, 1), 2000);
        add(&mut cat, "D2", &zipf_keys(8000, 4, 2), 2000);

        let logical = LogicalPlan::scan("C")
            .join(LogicalPlan::scan("D1"))
            .join(LogicalPlan::scan("D2"));
        let planner = Planner::new(15.0, 2500.0, LayerKind::BlockedMemory);
        let planned = planner.plan(&logical, &cat).expect("plans");
        assert!(planned.adapt, "adaptivity defaults on");

        // The skew-aware estimate must see D1 ⋈ D2 exploding (hot keys
        // multiply), so no chosen order starts with (D1 ⋈ D2).
        let order = planned
            .choices
            .iter()
            .find(|c| matches!(c.node, Node::Order { .. }))
            .expect("order search");
        // C, D1 and D2 are relations 0, 1 and 2; the lowest relation is
        // always in the left half, so (D1 ⋈ D2) first is the split C | D1 D2.
        let chosen = order.candidates[0].what;
        assert_ne!(
            chosen,
            Alternative::Order {
                left: 0b001,
                right: 0b110
            },
            "skewed dimensions must not join first: {}",
            crate::report::render_label(&order.node, &chosen)
        );
        // And at least one join edge offers the guided candidate.
        let has_cgj = planned
            .choices
            .iter()
            .filter(|c| matches!(c.node, Node::Join { .. }))
            .any(|c| {
                c.candidates.iter().any(|cand| {
                    matches!(
                        cand.what,
                        Alternative::Join {
                            algo: JoinAlgorithm::CGJ,
                            ..
                        }
                    )
                })
            });
        assert!(has_cgj, "guided join must be in the candidate field");

        // With adaptivity off the flag propagates.
        let frozen = planner
            .clone()
            .with_adaptivity(false)
            .plan(&logical, &cat)
            .expect("plans");
        assert!(!frozen.adapt);
    }

    #[test]
    fn histogram_selectivity_beats_uniform_on_skewed_filters() {
        use pmem_sim::{LayerKind as LK, PmDevice};
        use std::sync::Arc;

        let dev = PmDevice::paper_default();
        // 90% of rows carry keys below 100, domain reaches 10 000.
        let keys: Vec<u64> = (0..10_000u64)
            .map(|i| if i % 10 == 0 { 100 + i % 9900 } else { i % 100 })
            .collect();
        let col = Arc::new(pmem_sim::PCollection::from_records_uncounted(
            &dev,
            LK::BlockedMemory,
            "S",
            keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        ));
        let mut cat = Catalog::new();
        cat.add_table_with_statistics(
            "S",
            col,
            10_000,
            Arc::new(TableStatistics::build(&keys, 42)),
        );
        let logical = LogicalPlan::scan("S").filter(Predicate::KeyBelow(100));
        let planned = Planner::new(15.0, 625.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        let PhysicalPlan::Filter { selectivity, .. } = &planned.plan else {
            panic!("filter root");
        };
        // Uniform assumption would say 1%; the histogram knows ~90%.
        assert!(
            *selectivity > 0.8,
            "histogram must see the skew: {selectivity}"
        );
    }

    #[test]
    fn layer_overhead_raises_ramdisk_costs() {
        // The same sort on both layers predicts the same cachelines; the
        // RAM disk adds the layer calls the simulator charges for them —
        // one per 512-byte record of traffic — and ranks with their time.
        let cat = catalog();
        let logical = LogicalPlan::scan("T").sort();
        let plan = |layer| {
            Planner::new(15.0, 625.0, layer)
                .plan(&logical, &cat)
                .expect("plans")
        };
        let (cheap, pricey) = (plan(LayerKind::BlockedMemory), plan(LayerKind::RamDisk));
        let field = |p: &PlannedQuery| p.choices[0].candidates.clone();
        assert_eq!(
            (cheap.predicted.calls, cheap.predicted.software_ns),
            (0.0, 0.0)
        );
        for c in field(&cheap) {
            // No calls: the ranking figure is the Eqs. 1–11 cost, bit for bit.
            assert_eq!(c.cost_units.to_bits(), c.io.cost_units(15.0).to_bits());
            let on_disk = field(&pricey)
                .into_iter()
                .find(|d| d.what == c.what)
                .expect("same candidate field");
            assert_eq!(
                (on_disk.io.reads, on_disk.io.writes),
                (c.io.reads, c.io.writes)
            );
            assert_eq!(on_disk.io.calls, ((c.io.reads + c.io.writes) / 8.0).ceil());
            assert_eq!(on_disk.io.software_ns, 220.0 * on_disk.io.calls);
            assert!(
                on_disk.cost_units > c.cost_units,
                "{:?}: RAM-disk calls must raise the ranking cost",
                c.what
            );
        }
    }
}
