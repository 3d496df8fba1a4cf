//! Costed physical plans: the enumerator's output, the executor's input.

use crate::logical::Predicate;
use std::fmt::{self, Write};
use write_limited::cost::IoPrediction;
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;

/// Whether a filter's output collection is produced on persistent
/// memory or kept as a deferred view re-filtered on each scan (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Materialization {
    /// The output is written once and read back.
    Materialized,
    /// The output is a view; each consumer scan re-filters the source.
    Deferred,
}

/// Payload-slot bookkeeping of a join that is part of an n-way chain
/// (≥ 3 base relations). Chain joins fold their pair output into flat
/// rows that carry one payload per base relation: relation `s` (its
/// position in the logical join order) lands in payload slot `s`. Each
/// side contributes either one slot (a base-relation leaf, whose records
/// still hold their payload in the native position) or several (a chain
/// join child, whose records are already slotted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSlots {
    /// Slots the logical left side contributes, in its own join order.
    pub left: Vec<usize>,
    /// Slots the logical right side contributes, in its own join order.
    pub right: Vec<usize>,
}

impl ChainSlots {
    /// Total number of base relations under this join.
    pub fn tables(&self) -> usize {
        self.left.len() + self.right.len()
    }
}

/// Per-node cost annotation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCost {
    /// Predicted cacheline traffic of *this* node (inputs excluded).
    pub io: IoPrediction,
    /// Estimated output cardinality in rows.
    pub out_rows: f64,
    /// Estimated output size in buffers (cachelines).
    pub out_buffers: f64,
    /// Estimated number of distinct keys in the output (drives join
    /// cardinality and aggregation group counts).
    pub distinct_keys: f64,
}

/// A physical plan node: the logical operation plus the chosen
/// algorithm, knob settings, and materialization decisions.
#[derive(Clone, Debug)]
pub enum PhysicalPlan {
    /// Scan of a named base table.
    Scan {
        /// Catalog name.
        table: String,
        /// Cost annotation.
        cost: NodeCost,
    },
    /// Filter with a §3.1 materialization decision.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Key predicate.
        predicate: Predicate,
        /// Estimated selectivity.
        selectivity: f64,
        /// Materialize or defer the filtered collection.
        materialization: Materialization,
        /// Cost annotation.
        cost: NodeCost,
    },
    /// Sort with the chosen algorithm and knob.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Chosen algorithm (knobs inside).
        algo: SortAlgorithm,
        /// Cost annotation.
        cost: NodeCost,
    },
    /// Join with the chosen algorithm, knobs, and build-side order.
    Join {
        /// Build-side input as written in the logical plan.
        left: Box<PhysicalPlan>,
        /// Probe-side input as written in the logical plan.
        right: Box<PhysicalPlan>,
        /// Chosen algorithm (knobs inside).
        algo: JoinAlgorithm,
        /// True when the enumerator swapped build and probe sides
        /// (the physical build side is the logical `right`).
        swapped: bool,
        /// `Some` when this join is part of an n-way chain and folds its
        /// pair output into slotted flat rows; `None` for the classic
        /// two-way join delivering pairs.
        chain: Option<ChainSlots>,
        /// Hot keys a cardinality-guided join keeps resident (the
        /// catalog heavy hitters of both sides); empty for every other
        /// algorithm.
        hot: Vec<u64>,
        /// True when this node was produced by mid-plan re-planning
        /// after an observed cardinality drifted from its estimate.
        replanned: bool,
        /// Cost annotation.
        cost: NodeCost,
    },
    /// Sort-based aggregation at write intensity `x`.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Write intensity handed to the underlying segment sort.
        x: f64,
        /// Cost annotation.
        cost: NodeCost,
    },
}

impl PhysicalPlan {
    /// This node's cost annotation.
    pub fn cost(&self) -> &NodeCost {
        match self {
            PhysicalPlan::Scan { cost, .. }
            | PhysicalPlan::Filter { cost, .. }
            | PhysicalPlan::Sort { cost, .. }
            | PhysicalPlan::Join { cost, .. }
            | PhysicalPlan::Aggregate { cost, .. } => cost,
        }
    }

    /// Total predicted traffic of the subtree rooted here.
    pub fn total_io(&self) -> IoPrediction {
        let own = self.cost().io;
        match self {
            PhysicalPlan::Scan { .. } => own,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Aggregate { input, .. } => own.plus(input.total_io()),
            PhysicalPlan::Join { left, right, .. } => {
                own.plus(left.total_io()).plus(right.total_io())
            }
        }
    }

    /// Direct children, left before right — the same order execution
    /// evaluates them, so a profile's span tree lines up with a
    /// pre-order walk of the plan.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Aggregate { input, .. } => vec![input],
            PhysicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// One-line label of this node's operation and choice.
    pub fn label(&self) -> String {
        let mut out = String::new();
        // A `String` sink never fails.
        let _ = self.write_label(&mut out);
        out
    }

    /// [`PhysicalPlan::label`], written to `out`.
    fn write_label(&self, out: &mut impl Write) -> fmt::Result {
        match self {
            PhysicalPlan::Scan { table, .. } => write!(out, "scan {table}"),
            PhysicalPlan::Filter {
                predicate,
                materialization,
                ..
            } => {
                let m = match materialization {
                    Materialization::Materialized => "materialized",
                    Materialization::Deferred => "deferred",
                };
                write!(out, "filter [{predicate}] ({m})")
            }
            PhysicalPlan::Sort { algo, .. } => write!(out, "sort via {algo}"),
            PhysicalPlan::Join {
                algo,
                swapped,
                chain,
                replanned,
                ..
            } => {
                write!(out, "join via {algo}")?;
                if *swapped {
                    out.write_str(" (sides swapped)")?;
                }
                if let Some(slots) = chain {
                    write!(
                        out,
                        " (fold {:?} + {:?})",
                        slots.left.as_slice(),
                        slots.right.as_slice()
                    )?;
                }
                if *replanned {
                    out.write_str(" (re-planned)")?;
                }
                Ok(())
            }
            PhysicalPlan::Aggregate { x, .. } => write!(out, "aggregate (x = {x:.2})"),
        }
    }

    /// Indented tree rendering with per-node predicted traffic.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        // A `String` sink never fails.
        let _ = self.describe_into(&mut out, 0);
        out
    }

    /// [`PhysicalPlan::describe`] written to `out`, every line indented
    /// by `depth` levels of two spaces.
    pub(crate) fn describe_into(&self, out: &mut impl Write, depth: usize) -> fmt::Result {
        let c = self.cost();
        write!(out, "{:1$}", "", 2 * depth)?;
        self.write_label(out)?;
        writeln!(
            out,
            "  [~{:.0} rows, {:.0}r/{:.0}w buffers]",
            c.out_rows, c.io.reads, c.io.writes
        )?;
        match self {
            PhysicalPlan::Scan { .. } => Ok(()),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Aggregate { input, .. } => input.describe_into(out, depth + 1),
            PhysicalPlan::Join { left, right, .. } => {
                left.describe_into(out, depth + 1)?;
                right.describe_into(out, depth + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(reads: f64) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: "T".into(),
            cost: NodeCost {
                io: IoPrediction::traffic(reads, 0.0),
                out_rows: 10.0,
                out_buffers: 13.0,
                distinct_keys: 10.0,
            },
        }
    }

    #[test]
    fn total_io_sums_subtrees() {
        let join = PhysicalPlan::Join {
            left: Box::new(leaf(100.0)),
            right: Box::new(leaf(200.0)),
            algo: JoinAlgorithm::GJ,
            swapped: false,
            chain: None,
            hot: Vec::new(),
            replanned: false,
            cost: NodeCost {
                io: IoPrediction::traffic(600.0, 300.0),
                out_rows: 100.0,
                out_buffers: 250.0,
                distinct_keys: 10.0,
            },
        };
        let total = join.total_io();
        assert_eq!(total.reads, 900.0);
        assert_eq!(total.writes, 300.0);
        assert_eq!(total.cost_units(15.0), 900.0 + 15.0 * 300.0);
    }

    #[test]
    fn labels_cover_choices() {
        assert_eq!(leaf(1.0).label(), "scan T");
        let sort = PhysicalPlan::Sort {
            input: Box::new(leaf(1.0)),
            algo: SortAlgorithm::SegS { x: 0.25 },
            cost: *leaf(1.0).cost(),
        };
        assert_eq!(sort.label(), "sort via SegS, 25%");
        assert!(sort.describe().contains("scan T"));
    }
}
