//! # planner — write-aware cost-based query planning
//!
//! The paper's §4.2.3 knob optimizer picks a sort/join variant and its
//! write-intensity knob per *operator*; this crate lifts that choice to
//! whole *plans*. A [`LogicalPlan`] describes what to compute over
//! named Wisconsin tables (`scan / filter / sort / join / aggregate`);
//! the [`Planner`] enumerates, for every sort and join node, the full
//! algorithm field — ExMS/SegS/HybS/LaS/SelS and NLJ/GJ/HJ/HybJ/SegJ/
//! LaJ in both build orders — costs each candidate with the Eqs. 1–11
//! models (`write_limited::cost`) under the target medium's λ, DRAM
//! budget, and persistence layer, decides deferred-vs-materialized for
//! build-side filters with the §3.1 rules
//! ([`write_limited::deferral::plan_verdict`]), and returns the cheapest
//! [`PhysicalPlan`] plus the whole candidate table as evidence.
//!
//! [`execute_stream`] runs the winning plan against `pmem_sim` — the
//! chosen algorithms over counted collections, with filters and chain
//! folds staged by `write_limited::exec::stage` — so predicted
//! cacheline reads/writes can be compared against measured ones, a
//! plan-level extension of the paper's Fig. 12 concordance experiment.
//! [`execute_naive`] is the DRAM reference oracle lowered plans must
//! agree with.
//!
//! ```
//! use planner::{Catalog, LogicalPlan, Planner, Predicate};
//! use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
//! use std::sync::Arc;
//!
//! let dev = PmDevice::paper_default();
//! let w = wisconsin::join_input(2_000, 4, 7);
//! let t = Arc::new(PCollection::from_records_uncounted(
//!     &dev, LayerKind::BlockedMemory, "T", w.left));
//! let v = Arc::new(PCollection::from_records_uncounted(
//!     &dev, LayerKind::BlockedMemory, "V", w.right));
//! let mut catalog = Catalog::new();
//! catalog.add_table("T", Arc::clone(&t), 2_000);
//! catalog.add_table("V", Arc::clone(&v), 2_000);
//!
//! let query = LogicalPlan::scan("T")
//!     .filter(Predicate::KeyBelow(1_000))
//!     .join(LogicalPlan::scan("V"))
//!     .aggregate();
//! let pool = BufferPool::new(200 * 80);
//! let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);
//! let planned = planner.plan(&query, &catalog).unwrap();
//!
//! let run = planner::execute_stream(&planned, &catalog, &dev,
//!     LayerKind::BlockedMemory, &pool).unwrap();
//! let rows = run.result.all_rows();
//! assert_eq!(rows.len(), 1_000); // 1000 surviving keys × 1 group
//! let reference = planner::execute_naive(&query, &catalog).unwrap();
//! assert_eq!(rows.canonical(), reference.canonical());
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod enumerate;
pub mod logical;
pub mod lower;
pub mod naive;
pub mod physical;
pub mod report;

pub use catalog::{Catalog, TableStats};
pub use enumerate::{
    Alternative, Candidate, Node, NodeChoice, PlanError, PlannedQuery, Planner, MAX_JOIN_RELATIONS,
};
pub use logical::{LogicalPlan, Predicate};
pub use lower::{
    execute_stream, execute_stream_profiled, AdaptedPlan, ExecError, ExecutedStream, OutputRows,
    ResultSet, WisPair,
};
pub use naive::execute_naive;
pub use physical::{ChainSlots, Materialization, NodeCost, PhysicalPlan};
pub use report::{render_analyze, render_choices, render_concordance, render_label, render_plan};
