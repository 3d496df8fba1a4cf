//! Costing one join edge: numbers in, numbers out.
//!
//! [`Planner::cost_join`] ranks every applicable algorithm in both build
//! orders — plus the cardinality-guided and deferred-σ arms — for one
//! `left ⋈ right` edge from the two sides' cost annotations, ranking
//! units and statistics alone. The join-order search calls it once per
//! split with one [`Scratch`] it reuses for every split, so costing a
//! split over uniform statistics allocates nothing (heavy hitters
//! allocate the output statistics `TableStatistics::join` builds), and
//! keeps only the returned figures. The field is made of
//! [`Candidate`]s — values, no text — and only the edges that made it
//! into the winning plan get a plan node and a sorted copy of their
//! field as evidence; `crate::report` formats it, if anyone asks.

use super::{Alternative, Candidate, Node, NodeChoice, PlanError, Planner};
use crate::lower::WisPair;
use crate::physical::{ChainSlots, Materialization, NodeCost, PhysicalPlan};
use pmem_sim::{Storable, CACHELINE};
use wisconsin::WisconsinRecord;
use write_limited::cost::{IoPrediction, JoinShape};
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

/// The buffers costing a split fills besides its figures. The search
/// owns one and hands it to every split; after [`Planner::cost_join`]
/// it holds the last costed split's field.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// Every candidate in enumeration order — the deferred view last —
    /// on the evidence table's one basis (see [`Planner::cost_join`]).
    field: Vec<Candidate>,
    /// The heavy hitters of both sides, ascending: the keys a winning
    /// cardinality-guided join keeps resident.
    pub(super) hot: Vec<u64>,
}

/// A costed join edge: the figures of the subtree its winner roots.
#[derive(Debug)]
pub(super) struct EdgeCost {
    /// The cheapest candidate's algorithm (the first, on ties).
    algo: JoinAlgorithm,
    /// Whether it builds on the right input.
    swapped: bool,
    /// Whether it is the deferred-view arm.
    deferred: bool,
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
    /// chain and lands its matches as slotted flat rows. The
    /// candidate field and the hot keys land in `scratch`, overwriting
    /// the previous split's.
    ///
    /// # Errors
    /// Returns [`PlanError::Unsupported`] when no algorithm applies
    /// under the DRAM budget.
    pub(super) fn cost_join(
        &self,
        l: &JoinSide<'_>,
        r: &JoinSide<'_>,
        chain: bool,
        scratch: &mut Scratch,
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
        // A two-way join writes its pairs; a chain join lands each match
        // as its slotted 80-byte row where it finds it, so it writes the
        // flat rows once and never the pairs.
        let row_bytes = if chain { WIS_BYTES } else { PAIR_BYTES };
        let out_buffers = (out_rows * row_bytes / CACHELINE as f64).ceil();
        let output_writes = IoPrediction::traffic(0.0, out_buffers);
        let candidate =
            |algo: JoinAlgorithm, swapped: bool, io: IoPrediction, shape: &JoinShape| {
                let io = self.with_calls(io.plus(output_writes));
                let cost_units =
                    self.scale_units(self.units(&io), || shape.parallel_split(&algo, self.lambda));
                Candidate {
                    what: Alternative::Join {
                        algo,
                        swapped,
                        deferred: false,
                    },
                    io,
                    cost_units,
                }
            };

        // Candidate field: every applicable algorithm in both build
        // orders. The cost models assume t ≤ v, which either order may
        // satisfy; applicability of the Grace family is checked once per
        // order against the DRAM budget.
        let Scratch { field, hot } = scratch;
        field.clear();
        let m = self.m_buffers();
        let orders = [
            (
                false,
                JoinShape::new(lb, rb, m),
                self.budget.grace_applicable(l_rows),
            ),
            (
                true,
                JoinShape::new(rb, lb, m),
                self.budget.grace_applicable(r_rows),
            ),
        ];
        for (swapped, shape, grace) in &orders {
            for algo in shape.candidates(self.lambda) {
                if grace_family(&algo) && !grace {
                    continue;
                }
                field.push(candidate(algo, *swapped, shape.io(&algo), shape));
            }
        }

        // Cardinality-guided candidate: when the ingest statistics
        // expose heavy hitters on either side, the hot keys can bypass
        // the Grace partition round-trip — the guided join keeps their
        // build rows resident and probes hot rows straight through. Only
        // offered when a hot set exists (uniform tables degrade to GJ
        // exactly, so the candidate would be pure noise).
        hot.clear();
        hot.extend(l.stats.heavy_keys());
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
            let m_records = self.budget.records() as f64;
            for ((swapped, shape, grace), t_rows, hot_t, hot_v) in [
                (&orders[0], l_rows, cover_l, cover_r),
                (&orders[1], r_rows, cover_r, cover_l),
            ] {
                // The resident hot build rows (hash-table blow-up
                // included) may claim at most half the budget — the
                // other half stays for the cold partition pairs.
                let resident = hot_t * t_rows * HASH_TABLE_FACTOR;
                if !grace || resident > 0.5 * m_records {
                    continue;
                }
                let io = shape.guided_io(hot_t, hot_v);
                field.push(candidate(JoinAlgorithm::CGJ, *swapped, io, shape));
            }
        }

        // Deferred-view candidate: when the build side is a filtered
        // base-table scan, the §3.1 rules may prefer never writing the
        // filtered collection; the iterate-only join then re-filters the
        // source on every pass.
        let mut view = None;
        let scan = l
            .filtered_scan
            .filter(|s| self.budget.grace_applicable(s.out_rows));
        if let Some(scan) = scan {
            let src = scan.out_buffers.max(1.0);
            let filtered = l.cost.out_buffers.max(1.0);
            // The iterate-only join partitions by the *source*
            // cardinality: it cannot know the filtered count up front.
            let k = self.budget.partitions(scan.out_rows);
            if plan_verdict(filtered, src, k, self.lambda) == Decision::Defer {
                let io = IoPrediction::traffic(k * (src + rb), 0.0);
                // The iterate-only passes fan out like SegJ at frac = 0
                // (the re-filtering scans are the passes).
                let shape = JoinShape::new(src, rb, m);
                let algo = JoinAlgorithm::SegJ { frac: 0.0 };
                view = Some(Candidate {
                    what: Alternative::Join {
                        algo,
                        swapped: false,
                        deferred: true,
                    },
                    ..candidate(algo, false, io, &shape)
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
        let filter_units = self.units(&filter_io);
        if let Some(view) = view {
            for cand in field.iter_mut() {
                cand.io = cand.io.plus(filter_io);
                cand.cost_units += filter_units;
            }
            field.push(view);
        }
        let Some(
            &winner @ Candidate {
                what:
                    Alternative::Join {
                        algo,
                        swapped,
                        deferred,
                    },
                ..
            },
        ) = field
            .iter()
            .min_by(|a, b| a.cost_units.total_cmp(&b.cost_units))
        else {
            return Err(PlanError::Unsupported(
                "no applicable join algorithm under this DRAM budget".into(),
            ));
        };

        let (node_io, units, left_total) = if deferred {
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
                    calls: winner.io.calls - filter_io.calls,
                    software_ns: winner.io.software_ns - filter_io.software_ns,
                };
                (io, winner.cost_units - filter_units)
            } else {
                (winner.io, winner.cost_units)
            };
            (node_io, l.units + r.units + node_units, l.total_io)
        };
        Ok(EdgeCost {
            algo,
            swapped,
            deferred,
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
}

impl EdgeCost {
    /// The edge's evidence table: a copy of the field, cheapest first,
    /// which puts the winner first. `scratch` holds this edge's field
    /// (the split was the last one costed); `left`/`right` are the input
    /// subtrees' root annotations.
    pub(super) fn choice(
        &self,
        scratch: &Scratch,
        left: &NodeCost,
        right: &NodeCost,
    ) -> NodeChoice {
        let mut candidates = scratch.field.clone();
        candidates.sort_by(|a, b| a.cost_units.total_cmp(&b.cost_units));
        NodeChoice {
            node: Node::Join {
                left_rows: left.out_rows,
                right_rows: right.out_rows,
                left_buffers: left.out_buffers.max(1.0),
                right_buffers: right.out_buffers.max(1.0),
            },
            candidates,
        }
    }

    /// Builds the winning join node over the already-built inputs and
    /// hands back the output statistics; `hot` is the edge's
    /// `Scratch::hot`, kept only under a cardinality-guided winner. A
    /// deferred-view winner flips the left input — a materialized filter
    /// over a scan — to a view.
    pub(super) fn into_node(
        self,
        hot: Vec<u64>,
        mut left: PhysicalPlan,
        right: PhysicalPlan,
        chain: Option<ChainSlots>,
    ) -> (PhysicalPlan, TableStatistics) {
        if let (
            true,
            PhysicalPlan::Filter {
                materialization,
                cost,
                ..
            },
        ) = (self.deferred, &mut left)
        {
            *materialization = Materialization::Deferred;
            // The view is never written; its traffic is carried by the
            // join's per-pass re-filtering.
            cost.io = IoPrediction::ZERO;
        }
        let node = PhysicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            algo: self.algo,
            swapped: self.swapped,
            chain,
            hot: if self.algo == JoinAlgorithm::CGJ {
                hot
            } else {
                Vec::new()
            },
            replanned: false,
            cost: self.cost,
        };
        (node, self.stats)
    }
}

#[cfg(test)]
mod capacity_table;
