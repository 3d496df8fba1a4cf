//! The operator context (`OpCtx`): the blueprint-recording and
//! decision-making half of §3.1's API.
//!
//! An operator *records* its computation in its context — the
//! collections it declares and the `partition()`/`filter()` calls that
//! connect them — and then *consults* the context on every collection
//! access: `note_scan()` accumulates the reads the rules weigh, and
//! `assess()` decides whether a deferred collection should be
//! materialized (flipping its status). The rules read only declared
//! sizes, statuses and the operator's own scans, so an operator can step
//! its context through its accesses before any I/O and run the schedule
//! the verdicts imply (the adaptive Grace join and the deferred-σ join
//! of the `write-limited` crate do).

use crate::graph::{ApiCall, CStatus, CallId, Graph};
use crate::rules::{assess, Decision, Verdict};

/// Per-operator runtime context.
#[derive(Debug)]
pub struct OpCtx {
    graph: Graph,
    lambda: f64,
    name_counter: u64,
}

impl OpCtx {
    /// Creates a context for a medium with write/read ratio `lambda`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 1.0, "write/read ratio must be >= 1");
        Self {
            graph: Graph::new(),
            lambda,
            name_counter: 0,
        }
    }

    /// Generates a unique collection identifier (Listing 2's
    /// `create_name()`).
    pub fn create_name(&mut self, prefix: &str) -> String {
        let id = self.name_counter;
        self.name_counter += 1;
        format!("{prefix}#{id}")
    }

    /// Declares a collection (Listing 1: status defaults to deferred at
    /// the call sites; pass explicitly here).
    pub fn declare(&mut self, name: &str, status: CStatus, size_buffers: f64) {
        self.graph.declare(name, status, size_buffers);
    }

    /// Records `partition(T, h(), k, ⟨Ti⟩)`.
    ///
    /// # Panics
    /// Panics if `outputs.len() != k`.
    pub fn partition(&mut self, input: &str, k: usize, outputs: &[&str]) -> CallId {
        assert_eq!(outputs.len(), k, "partition arity mismatch");
        self.graph
            .record_call(ApiCall::Partition { k }, &[input], outputs)
    }

    /// Records `filter(T, p(), f, Tp)`.
    pub fn filter(&mut self, input: &str, selectivity: f64, output: &str) -> CallId {
        self.graph
            .record_call(ApiCall::Filter { selectivity }, &[input], &[output])
    }

    /// Notes that `name` was fully processed (scanned), accumulating the
    /// running read sum the rules consult.
    pub fn note_scan(&mut self, name: &str, buffers: f64) {
        let node = self.graph.collection_mut(name);
        node.times_processed += 1;
        node.accumulated_reads += buffers;
    }

    /// Current status of a collection.
    pub fn status(&self, name: &str) -> CStatus {
        self.graph.collection(name).status
    }

    /// Assesses a deferred collection (Listing 1's `assess()`); on a
    /// materialize verdict the status flips so a later `open()` produces
    /// it. Non-deferred collections return their status unchanged.
    pub fn assess(&mut self, name: &str) -> Option<Verdict> {
        if self.graph.collection(name).status != CStatus::Deferred {
            return None;
        }
        let verdict = assess(&self.graph, name, self.lambda);
        if verdict.decision == Decision::Materialize {
            self.graph.collection_mut(name).status = CStatus::Materialized;
        }
        Some(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    #[test]
    fn create_name_is_unique() {
        let mut ctx = OpCtx::new(15.0);
        let a = ctx.create_name("p");
        let b = ctx.create_name("p");
        assert_ne!(a, b);
    }

    #[test]
    fn assess_flips_status_on_materialize() {
        let mut ctx = OpCtx::new(2.0);
        ctx.declare("T", CStatus::Materialized, 300.0);
        ctx.declare("T0", CStatus::Deferred, 100.0);
        ctx.declare("T1", CStatus::Deferred, 100.0);
        ctx.partition("T", 2, &["T0", "T1"]);
        let v = ctx.assess("T0").expect("deferred");
        assert_eq!(v.decision, Decision::Materialize);
        assert_eq!(ctx.status("T0"), CStatus::Materialized);
        // Sibling now materializes via eager-partition.
        let v = ctx.assess("T1").expect("deferred");
        assert_eq!(v.rule, Rule::EagerPartition);
    }

    #[test]
    fn assess_skips_non_deferred() {
        let mut ctx = OpCtx::new(15.0);
        ctx.declare("T", CStatus::Materialized, 10.0);
        assert!(ctx.assess("T").is_none());
    }

    #[test]
    fn scans_accumulate_until_read_over_write_fires() {
        let mut ctx = OpCtx::new(15.0);
        ctx.declare("T", CStatus::Materialized, 300.0);
        let names: Vec<String> = (0..3).map(|i| format!("T{i}")).collect();
        for n in &names {
            ctx.declare(n, CStatus::Deferred, 100.0);
        }
        ctx.partition("T", 3, &[&names[0], &names[1], &names[2]]);

        // First access: Cm = 1500 > Cr(0) + Cc(300) → defer, rescan.
        assert_eq!(
            ctx.assess("T0").expect("deferred").decision,
            Decision::Defer
        );
        ctx.note_scan("T", 300.0);
        assert_eq!(
            ctx.assess("T1").expect("deferred").decision,
            Decision::Defer
        );
        ctx.note_scan("T", 300.0);
        ctx.note_scan("T", 300.0);
        ctx.note_scan("T", 300.0);
        // Cr = 1200, Cc = 300 ≥ Cm = 1500 → materialize.
        assert_eq!(
            ctx.assess("T2").expect("deferred").decision,
            Decision::Materialize
        );
    }
}
