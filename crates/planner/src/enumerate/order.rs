//! The join-order search: a Selinger-style DP over relation subsets
//! that ranks splits on numbers alone, then builds the one winning tree.
//!
//! Costing a split ([`Planner::cost_join`]) touches no plan node and,
//! over uniform statistics, allocates nothing: every split writes its
//! candidate field into the one [`Scratch`] the search owns. Per subset
//! the table keeps the best split and its costed edge, not its field.
//! Plan nodes, chain slots and per-edge evidence tables are built once,
//! top-down from those back-pointers; the `n − 1` winning edges are
//! costed once more there to refill their fields. The root's join-order
//! evidence is values too: every root split as two relation bitmasks,
//! each subset's winning left half and the relations' names, from
//! which `crate::report` renders an order such as `((a ⋈ c) ⋈ σb)`.

use super::edge::{EdgeCost, JoinSide, Scratch};
use super::{
    Alternative, Candidate, Evidence, Node, NodeChoice, PlanError, Planner, MAX_JOIN_RELATIONS,
};
use crate::catalog::Catalog;
use crate::logical::LogicalPlan;
use crate::physical::{ChainSlots, PhysicalPlan};
use write_limited::cost::IoPrediction;
use write_limited::stats::TableStatistics;

/// What the search knows about one relation subset. All relations join
/// on the shared key, so every subset is connected and every split of
/// it is a valid (cross-product-free) join.
enum Subset<'a> {
    /// A single entry of the search: a planned non-join subtree.
    Leaf {
        slots: &'a [usize],
        plan: PhysicalPlan,
        stats: TableStatistics,
        units: f64,
        total_io: IoPrediction,
        /// Evidence of the nodes inside the leaf (sorts, nested joins).
        choices: Vec<NodeChoice>,
    },
    /// The cheapest way found to join the subset: its two halves (table
    /// indices) and the costed edge between them.
    Join {
        left: usize,
        right: usize,
        edge: EdgeCost,
    },
}

impl Subset<'_> {
    fn side(&self) -> JoinSide<'_> {
        match self {
            Subset::Leaf {
                plan,
                stats,
                units,
                total_io,
                ..
            } => JoinSide {
                cost: plan.cost(),
                units: *units,
                total_io: *total_io,
                stats,
                filtered_scan: match plan {
                    PhysicalPlan::Filter { input, .. } => match &**input {
                        PhysicalPlan::Scan { cost, .. } => Some(cost),
                        _ => None,
                    },
                    _ => None,
                },
            },
            Subset::Join { edge, .. } => JoinSide {
                cost: &edge.cost,
                units: edge.units,
                total_io: edge.total_io,
                stats: &edge.stats,
                filtered_scan: None,
            },
        }
    }
}

/// A subtree built from the back-pointers.
struct Built {
    plan: PhysicalPlan,
    stats: TableStatistics,
    /// Payload slots the subtree's rows carry, in its own join order.
    slots: Vec<usize>,
}

fn unplanned() -> PlanError {
    PlanError::Unsupported("join-order search left a relation subset unplanned".into())
}

impl Planner {
    /// Plans an entire join subtree: every base relation gets its own
    /// payload slot and the entries go through the join-order search.
    pub(super) fn plan_join_tree(
        &self,
        logical: &LogicalPlan,
        catalog: &Catalog,
        evidence: &mut Evidence,
    ) -> Result<(PhysicalPlan, TableStatistics), PlanError> {
        let mut leaves = Vec::new();
        collect_join_leaves(logical, &mut leaves);
        let entries: Vec<(&LogicalPlan, Vec<usize>)> = leaves
            .iter()
            .enumerate()
            .map(|(i, leaf)| (*leaf, vec![i]))
            .collect();
        self.plan_join_slotted(&entries, catalog, evidence)
    }

    /// The join-order search over explicit `(relation, payload slots)`
    /// entries. Fresh plans give every base relation its own slot;
    /// mid-plan re-planning re-enters with an already-joined intermediate
    /// occupying several slots plus the remaining base relations. Two
    /// single-slot entries are the classic two-way join delivering
    /// pairs; anything wider is a chain of slotted flat rows.
    pub(crate) fn plan_join_slotted(
        &self,
        entries: &[(&LogicalPlan, Vec<usize>)],
        catalog: &Catalog,
        evidence: &mut Evidence,
    ) -> Result<(PhysicalPlan, TableStatistics), PlanError> {
        let n = entries.len();
        if n > MAX_JOIN_RELATIONS {
            return Err(PlanError::Unsupported(format!(
                "join of {n} relations exceeds the {MAX_JOIN_RELATIONS}-relation limit"
            )));
        }
        let pair = n == 2 && entries.iter().all(|(_, slots)| slots.len() == 1);
        let chain = !pair;

        // Subsets are indexed by their relation bitmask.
        let full = (1usize << n) - 1;
        let mut table: Vec<Option<Subset<'_>>> = Vec::new();
        table.resize_with(full + 1, || None);
        for (i, (leaf, slots)) in entries.iter().enumerate() {
            let mut inner = Evidence::default();
            let (plan, stats) = self.plan_node(leaf, catalog, &mut inner)?;
            evidence.splits_costed += inner.splits_costed;
            let total_io = plan.total_io();
            table[1 << i] = Some(Subset::Leaf {
                slots,
                units: self.units(&total_io),
                total_io,
                plan,
                stats,
                choices: inner.choices,
            });
        }

        let mut considered = 0usize;
        // A chain's root alternatives: every split of the full set.
        let mut orders = Vec::with_capacity(if chain { 1 << (n - 1) } else { 0 });
        let mut scratch = Scratch::default();
        // Numeric order visits every proper submask before its superset.
        for mask in 3..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let lowbit = mask & mask.wrapping_neg();
            let mut best: Option<(usize, usize, EdgeCost)> = None;
            // Enumerate unordered splits by pinning the lowest relation
            // to the left side; the edge itself tries both build orders.
            let mut l = (mask - 1) & mask;
            while l > 0 {
                if l & lowbit != 0 {
                    let r = mask ^ l;
                    let (Some(Some(ml)), Some(Some(mr))) = (table.get(l), table.get(r)) else {
                        return Err(unplanned());
                    };
                    considered += 1;
                    let edge = self.cost_join(&ml.side(), &mr.side(), chain, &mut scratch)?;
                    if chain && mask == full {
                        orders.push(Candidate {
                            what: Alternative::Order {
                                left: l as u8,
                                right: r as u8,
                            },
                            io: edge.total_io,
                            cost_units: edge.units,
                        });
                    }
                    if best.as_ref().is_none_or(|(_, _, b)| edge.units < b.units) {
                        best = Some((l, r, edge));
                    }
                }
                l = (l - 1) & mask;
            }
            let (left, right, edge) = best.ok_or_else(unplanned)?;
            table[mask] = Some(Subset::Join { left, right, edge });
        }
        evidence.splits_costed += considered;

        if chain {
            orders.sort_by(|a, b| a.cost_units.total_cmp(&b.cost_units));
            let best_left = table
                .iter()
                .map(|subset| match subset {
                    Some(Subset::Join { left, .. }) => *left as u8,
                    _ => 0,
                })
                .collect();
            let relations = entries
                .iter()
                .map(|(leaf, _)| relation_name(leaf))
                .collect();
            evidence.choices.push(NodeChoice {
                node: Node::Order {
                    considered,
                    relations,
                    best_left,
                },
                candidates: orders,
            });
        }
        let root = self.build(&mut table, full, chain, &mut scratch, evidence)?;
        Ok((root.plan, root.stats))
    }

    /// Builds the winning subtree of `mask` from the back-pointers,
    /// appending evidence in plan order: left input, right input, edge.
    /// A join edge's field is not kept by the search: the winning split
    /// is costed again into `scratch`, before its inputs leave the table.
    fn build(
        &self,
        table: &mut [Option<Subset<'_>>],
        mask: usize,
        chain: bool,
        scratch: &mut Scratch,
        evidence: &mut Evidence,
    ) -> Result<Built, PlanError> {
        let mut recosted = None;
        if let Some(Some(Subset::Join { left, right, .. })) = table.get(mask) {
            let (Some(Some(ml)), Some(Some(mr))) = (table.get(*left), table.get(*right)) else {
                return Err(unplanned());
            };
            let (l, r) = (ml.side(), mr.side());
            let edge = self.cost_join(&l, &r, chain, scratch)?;
            recosted = Some((
                edge.choice(scratch, l.cost, r.cost),
                std::mem::take(&mut scratch.hot),
            ));
        }
        match table.get_mut(mask).and_then(Option::take) {
            Some(Subset::Leaf {
                plan,
                stats,
                slots,
                choices,
                ..
            }) => {
                evidence.choices.extend(choices);
                Ok(Built {
                    plan,
                    stats,
                    slots: slots.to_vec(),
                })
            }
            Some(Subset::Join { left, right, edge }) => {
                let (choice, hot) = recosted.ok_or_else(unplanned)?;
                let l = self.build(table, left, chain, scratch, evidence)?;
                let r = self.build(table, right, chain, scratch, evidence)?;
                evidence.choices.push(choice);
                let mut slots = l.slots.clone();
                slots.extend(&r.slots);
                let chain_slots = chain.then_some(ChainSlots {
                    left: l.slots,
                    right: r.slots,
                });
                let (plan, stats) = edge.into_node(hot, l.plan, r.plan, chain_slots);
                Ok(Built { plan, stats, slots })
            }
            None => Err(unplanned()),
        }
    }
}

/// Flattens a maximal join subtree into its relation leaves (the
/// non-join subplans), in logical (SQL) order.
pub(crate) fn collect_join_leaves<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
    match plan {
        LogicalPlan::Join { left, right } => {
            collect_join_leaves(left, out);
            collect_join_leaves(right, out);
        }
        other => out.push(other),
    }
}

/// Name of a join-order leaf: the base table it scans, `σ`-marked when
/// filtered.
fn relation_name(leaf: &LogicalPlan) -> String {
    match leaf {
        LogicalPlan::Scan { table } => table.clone(),
        LogicalPlan::Filter { input, .. } => format!("σ{}", relation_name(input)),
        LogicalPlan::Sort { input } | LogicalPlan::Aggregate { input } => relation_name(input),
        LogicalPlan::Join { left, .. } => relation_name(left),
    }
}
