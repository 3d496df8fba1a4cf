//! # wl-runtime — deferred-materialization runtime (§3.1)
//!
//! The paper's library support for write-limited algorithms: named
//! collections with `Memory`/`Materialized`/`Deferred` status, a
//! control-flow graph of the four API calls
//! (`split`/`partition`/`filter`/`merge`), and the optimization rules
//! that decide — from tracked sizes and accumulated reads — whether a
//! deferred collection should be materialized or reconstructed from its
//! ancestors.
//!
//! ```
//! use wl_runtime::{CStatus, Decision, OpCtx};
//!
//! let mut ctx = OpCtx::new(15.0); // λ = 15
//! ctx.declare("T", CStatus::Materialized, 300.0);
//! ctx.declare("T0", CStatus::Deferred, 100.0);
//! ctx.declare("T1", CStatus::Deferred, 100.0);
//! ctx.declare("T2", CStatus::Deferred, 100.0);
//! ctx.partition("T", 3, &["T0", "T1", "T2"]);
//! // Deferring T0 saves 100·λ write units at a 300-read reconstruction:
//! assert_eq!(ctx.assess("T0").unwrap().decision, Decision::Defer);
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod graph;
pub mod rules;

pub use context::OpCtx;
pub use graph::{ApiCall, CStatus, CallId, CollectionId, Graph};
pub use rules::{plan_verdict, Decision, Rule, Verdict};
