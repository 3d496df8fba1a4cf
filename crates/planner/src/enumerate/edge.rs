//! Costing one join edge: numbers in, numbers out.
//!
//! [`Planner::cost_join`] ranks every applicable algorithm in both build
//! orders — plus the cardinality-guided and deferred-σ arms — for one
//! `left ⋈ right` edge from the two sides' cost annotations, ranking
//! units and statistics alone. The join-order search calls it once per
//! split and keeps only the returned figures; plan nodes, labels and
//! the sorted evidence table are rendered from an [`EdgeCost`] later,
//! and only for the edges that made it into the winning plan.

use super::{Candidate, NodeChoice, PlanError, Planner};
use crate::lower::WisPair;
use crate::physical::{ChainSlots, Materialization, NodeCost, PhysicalPlan};
use pmem_sim::{Storable, CACHELINE};
use wisconsin::WisconsinRecord;
use write_limited::cost::join_costs::guided_io;
use write_limited::cost::{join_candidates, join_parallel_split, predict_join_io, IoPrediction};
use write_limited::deferral::{plan_verdict, Decision};
use write_limited::join::{JoinAlgorithm, HASH_TABLE_FACTOR};
use write_limited::stats::TableStatistics;

/// Base record width in bytes (what join build sides hold).
const WIS_BYTES: f64 = WisconsinRecord::SIZE as f64;
/// Pair record width in bytes after a Wisconsin ⋈ Wisconsin join.
const PAIR_BYTES: f64 = WisPair::SIZE as f64;

/// What costing an edge reads of one input subtree.
#[derive(Clone, Copy)]
pub(super) struct JoinSide<'a> {
    /// Cost annotation of the subtree's root node.
    pub cost: &'a NodeCost,
    /// Ranking figure of the whole subtree.
    pub units: f64,
    /// Predicted traffic of the whole subtree.
    pub total_io: IoPrediction,
    /// Statistics of the keys the subtree produces.
    pub stats: &'a TableStatistics,
    /// The scanned table's annotation when the subtree is a filter
    /// directly over a base-table scan — the one shape whose output may
    /// stay a deferred view.
    pub filtered_scan: Option<&'a NodeCost>,
}

/// One costed alternative of an edge, before anyone needs its label.
#[derive(Clone, Copy, Debug)]
struct Arm {
    algo: JoinAlgorithm,
    swapped: bool,
    /// True for the deferred-view arm: the build filter stays a view
    /// the iterate-only join re-filters per pass.
    deferred: bool,
    io: IoPrediction,
    cost_units: f64,
}

impl Arm {
    fn label(&self) -> String {
        let algo = self.algo.label();
        match (self.deferred, self.swapped) {
            (true, _) => format!("{algo} over deferred σ"),
            (false, true) => format!("{algo} (swapped)"),
            (false, false) => algo,
        }
    }
}

/// A costed join edge: the label-free candidate field and the figures
/// of the subtree its winner roots.
#[derive(Debug)]
pub(super) struct EdgeCost {
    /// Every candidate in enumeration order — the deferred view last —
    /// on the evidence table's one basis (see [`Planner::cost_join`]).
    field: Vec<Arm>,
    /// The cheapest of them (the first, on ties).
    winner: Arm,
    /// Hot keys a winning cardinality-guided join keeps resident: the
    /// heavy hitters of both sides, ascending. Empty for every other
    /// winner.
    hot: Vec<u64>,
    /// Ranking figure of the whole subtree under the winner.
    pub units: f64,
    /// The winning join node's cost annotation.
    pub cost: NodeCost,
    /// Predicted traffic of the whole subtree under the winner.
    pub total_io: IoPrediction,
    /// Statistics of the join's output keys.
    pub stats: TableStatistics,
}

fn grace_family(algo: &JoinAlgorithm) -> bool {
    matches!(
        algo,
        JoinAlgorithm::GJ
            | JoinAlgorithm::HybJ { .. }
            | JoinAlgorithm::SegJ { .. }
            | JoinAlgorithm::CGJ
    )
}

impl Planner {
    /// Costs the edge `l ⋈ r`; `chain` when the join is part of an n-way
    /// chain and folds its pair output into slotted flat rows.
    ///
    /// # Errors
    /// Returns [`PlanError::Unsupported`] when no algorithm applies
    /// under the DRAM budget.
    pub(super) fn cost_join(
        &self,
        l: &JoinSide<'_>,
        r: &JoinSide<'_>,
        chain: bool,
    ) -> Result<EdgeCost, PlanError> {
        let lb = l.cost.out_buffers.max(1.0);
        let rb = r.cost.out_buffers.max(1.0);
        let l_rows = l.cost.out_rows;
        let r_rows = r.cost.out_rows;

        // Equi-join cardinality: heavy-hitter frequencies multiply per
        // hot key and the residual mass joins under the containment
        // formula — rows-per-key on each side times the matching key
        // count — which is all there is when neither side has hot keys.
        let (out_rows, stats) = l.stats.join(r.stats);
        let matching = stats.distinct_keys().max(1.0);
        let pair_buffers = (out_rows * PAIR_BYTES / CACHELINE as f64).ceil();
        // Chain joins fold the pair output into slotted 80-byte rows in
        // one extra staged pass: re-read the pairs, write the flat rows.
        let chain_buffers = (out_rows * WIS_BYTES / CACHELINE as f64).ceil();
        let (fold_io, out_buffers) = if chain {
            let fold = IoPrediction {
                reads: pair_buffers,
                writes: chain_buffers,
            };
            (fold, chain_buffers)
        } else {
            (IoPrediction::ZERO, pair_buffers)
        };
        let output_writes = IoPrediction {
            reads: fold_io.reads,
            writes: pair_buffers + fold_io.writes,
        };
        let arm = |algo: JoinAlgorithm, swapped: bool, io: IoPrediction, t: f64, v: f64| {
            let io = self.with_overhead(io.plus(output_writes));
            let cost_units = self.scale_units(io.cost_units(self.lambda), || {
                join_parallel_split(&algo, t, v, self.m_buffers, self.lambda)
            });
            Arm {
                algo,
                swapped,
                deferred: false,
                io,
                cost_units,
            }
        };

        // Candidate field: every applicable algorithm in both build
        // orders. The cost models assume t ≤ v, which either order may
        // satisfy; applicability of the Grace family is checked per
        // order against the DRAM budget.
        let mut field: Vec<Arm> = Vec::with_capacity(16);
        for (swapped, t, v, t_rows) in [(false, lb, rb, l_rows), (true, rb, lb, r_rows)] {
            for algo in join_candidates(t, v, self.m_buffers, self.lambda) {
                if grace_family(&algo) && !self.grace_ok(t_rows) {
                    continue;
                }
                let io = predict_join_io(&algo, t, v, self.m_buffers);
                field.push(arm(algo, swapped, io, t, v));
            }
        }

        // Cardinality-guided candidate: when the ingest statistics
        // expose heavy hitters on either side, the hot keys can bypass
        // the Grace partition round-trip — the guided join keeps their
        // build rows resident and probes hot rows straight through. Only
        // offered when a hot set exists (uniform tables degrade to GJ
        // exactly, so the candidate would be pure noise).
        let mut hot = l.stats.heavy_keys();
        hot.extend(r.stats.heavy_keys());
        hot.sort_unstable();
        hot.dedup();
        if !hot.is_empty() {
            let cover = |s: &TableStatistics| {
                if s.rows() <= 0.0 {
                    return 0.0;
                }
                (hot.iter().map(|&k| s.frequency(k)).sum::<f64>() / s.rows()).min(1.0)
            };
            let (cover_l, cover_r) = (cover(l.stats), cover(r.stats));
            let m_records = self.m_buffers * CACHELINE as f64 / WIS_BYTES;
            for (swapped, t, v, t_rows, hot_t, hot_v) in [
                (false, lb, rb, l_rows, cover_l, cover_r),
                (true, rb, lb, r_rows, cover_r, cover_l),
            ] {
                // The resident hot build rows (hash-table blow-up
                // included) may claim at most half the budget — the
                // other half stays for the cold partition pairs.
                let resident = hot_t * t_rows * HASH_TABLE_FACTOR;
                if !self.grace_ok(t_rows) || resident > 0.5 * m_records {
                    continue;
                }
                let (reads, writes) = guided_io(t, v, hot_t, hot_v);
                let io = IoPrediction { reads, writes };
                field.push(arm(JoinAlgorithm::CGJ, swapped, io, t, v));
            }
        }

        // Deferred-view candidate: when the build side is a filtered
        // base-table scan, the §3.1 rules may prefer never writing the
        // filtered collection; the iterate-only join then re-filters the
        // source on every pass.
        let mut view = None;
        if let Some(scan) = l.filtered_scan.filter(|scan| self.grace_ok(scan.out_rows)) {
            let src = scan.out_buffers.max(1.0);
            let filtered = l.cost.out_buffers.max(1.0);
            // The iterate-only join partitions by the *source*
            // cardinality (it cannot know the filtered count up front)
            // over the hash-table-adjusted build capacity — mirror
            // `JoinContext::grace_partitions`.
            let k = self.grace_partitions_est(scan.out_rows);
            if plan_verdict(filtered, src, k, self.lambda) == Decision::Defer {
                let io = IoPrediction {
                    reads: k * (src + rb),
                    writes: 0.0,
                };
                // The iterate-only passes fan out like SegJ at frac = 0
                // (the re-filtering scans are the passes).
                view = Some(Arm {
                    deferred: true,
                    ..arm(JoinAlgorithm::SegJ { frac: 0.0 }, false, io, src, rb)
                });
            }
        }

        // Fixed candidates rely on the build filter being materialized;
        // that cost lives in the filter node, while the deferred view
        // zeroes it and carries re-filtering in its own figure. To keep
        // every row of the evidence table on one basis, fold the build
        // filter's cost into the fixed candidates whenever a deferred
        // alternative is in play — then the cheapest row IS the winner
        // (the view, listed last, only on a strictly lower figure).
        let filter_io = l.cost.io;
        let filter_units = filter_io.cost_units(self.lambda);
        if let Some(view) = view {
            for cand in &mut field {
                cand.io = cand.io.plus(filter_io);
                cand.cost_units += filter_units;
            }
            field.push(view);
        }
        let Some(winner) = field
            .iter()
            .min_by(|a, b| a.cost_units.total_cmp(&b.cost_units))
            .copied()
        else {
            return Err(PlanError::Unsupported(
                "no applicable join algorithm under this DRAM budget".into(),
            ));
        };

        let (node_io, units, left_total) = if winner.deferred {
            // The view is never written: the filter's materialization
            // units and traffic leave the left subtree; re-filtering is
            // carried by this node's own figure.
            let units = l.units - filter_units + r.units + winner.cost_units;
            let scan_io = l.filtered_scan.map_or(IoPrediction::ZERO, |scan| scan.io);
            (winner.io, units, IoPrediction::ZERO.plus(scan_io))
        } else {
            // The node's own cost excludes the build filter's traffic
            // (the filter node carries it); undo the table-basis fold.
            let (node_io, node_units) = if view.is_some() {
                let io = IoPrediction {
                    reads: winner.io.reads - filter_io.reads,
                    writes: winner.io.writes - filter_io.writes,
                };
                (io, winner.cost_units - filter_units)
            } else {
                (winner.io, winner.cost_units)
            };
            (node_io, l.units + r.units + node_units, l.total_io)
        };
        if winner.algo != JoinAlgorithm::CGJ {
            hot.clear();
        }
        Ok(EdgeCost {
            field,
            winner,
            hot,
            units,
            cost: NodeCost {
                io: node_io,
                out_rows,
                out_buffers,
                distinct_keys: matching,
            },
            total_io: node_io.plus(left_total).plus(r.total_io),
            stats,
        })
    }

    /// Mirrors `JoinContext::grace_applicable` in planning units:
    /// `M_records > √(f·|T|_records)`.
    fn grace_ok(&self, t_rows: f64) -> bool {
        let m_records = self.m_buffers * CACHELINE as f64 / WIS_BYTES;
        m_records > (HASH_TABLE_FACTOR * t_rows).sqrt()
    }

    /// Mirrors `JoinContext::grace_partitions`: `⌈f·|T| / M⌉` in
    /// records.
    fn grace_partitions_est(&self, t_rows: f64) -> f64 {
        let m_records = self.m_buffers * CACHELINE as f64 / WIS_BYTES;
        let cap = (m_records / HASH_TABLE_FACTOR).max(1.0);
        (t_rows / cap).ceil().max(1.0)
    }
}

impl EdgeCost {
    /// The edge's evidence table: every candidate labelled, cheapest
    /// first, the winner named. `left`/`right` are the input subtrees'
    /// root annotations.
    pub(super) fn choice(&self, left: &NodeCost, right: &NodeCost) -> NodeChoice {
        let mut candidates: Vec<Candidate> = self
            .field
            .iter()
            .map(|arm| Candidate {
                label: arm.label(),
                io: arm.io,
                cost_units: arm.cost_units,
            })
            .collect();
        candidates.sort_by(|a, b| a.cost_units.total_cmp(&b.cost_units));
        NodeChoice {
            node: format!(
                "join ~{:.0} x ~{:.0} rows ({:.0}/{:.0} buffers)",
                left.out_rows,
                right.out_rows,
                left.out_buffers.max(1.0),
                right.out_buffers.max(1.0)
            ),
            candidates,
            chosen: self.winner.label(),
        }
    }

    /// Builds the winning join node over the already-built inputs and
    /// hands back the output statistics. A deferred-view winner flips
    /// the left input — a materialized filter over a scan — to a view.
    pub(super) fn into_node(
        self,
        mut left: PhysicalPlan,
        right: PhysicalPlan,
        chain: Option<ChainSlots>,
    ) -> (PhysicalPlan, TableStatistics) {
        let Arm { algo, swapped, .. } = self.winner;
        if let (
            true,
            PhysicalPlan::Filter {
                materialization,
                cost,
                ..
            },
        ) = (self.winner.deferred, &mut left)
        {
            *materialization = Materialization::Deferred;
            // The view is never written; its traffic is carried by the
            // join's per-pass re-filtering.
            cost.io = IoPrediction::ZERO;
        }
        let node = PhysicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            algo,
            swapped,
            chain,
            hot: self.hot,
            replanned: false,
            cost: self.cost,
        };
        (node, self.stats)
    }
}
