//! The §3.1 rules that decide when a deferred collection is written, in
//! closed form.
//!
//! A deferred collection is declared but not produced: each consumer
//! scan rebuilds it from its source. The paper gives four rules for when
//! to write it instead; each is listed with the client that can fire it.
//!
//! * **read-over-write** — materialize once the write cost `λ·|C|` does
//!   not exceed the reads deferral has paid so far plus one more scan of
//!   the source. At run time, in both §3.1 joins
//!   ([`crate::adaptive::adaptive_grace_join`],
//!   [`crate::pipeline::filtered_iterate_join`]): after `p` passes that
//!   each rebuilt `C` with one source scan, it holds once
//!   `λ·|C| ≤ (p + 1)·|source|` ([`first_materialized_pass`]).
//! * **eager-partition** — once one output of a partition scan is
//!   materialized, its siblings are too, so no input is scanned twice to
//!   materialize its outputs. Built into adaptive Grace's schedule,
//!   which spills every later partition in the one scan the rule fires
//!   on.
//! * **multi-process** — a collection processed more than λ times is
//!   worth writing. Only at plan time ([`plan_verdict`]): neither join
//!   ever scans the deferred collection itself (each pass rebuilds it
//!   from the source), so at run time its process count stays zero.
//! * **process-to-append** — results appended straight to another
//!   collection always stay deferred. No client produces such a
//!   collection.

/// The materialization decision for a deferred collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Produce and keep the collection on persistent memory.
    Materialize,
    /// Keep the collection deferred; rebuild it on every scan.
    Defer,
}

/// The first of `passes` passes on which read-over-write holds for a
/// deferred collection of `size` buffers rebuilt from `source` buffers —
/// the first `p` with `λ·size ≤ (p + 1)·source` — or `passes` for none.
/// Before pass `p`, deferral has scanned the source `p` times; the pass
/// itself scans it once more. `lambda` below 1 counts as 1.
pub fn first_materialized_pass(lambda: f64, size: f64, source: f64, passes: usize) -> usize {
    let lambda = lambda.max(1.0);
    (0..passes)
        .find(|&p| lambda * size <= (p + 1) as f64 * source)
        .unwrap_or(passes)
}

/// Plan-time application of the §3.1 rules to a *prospective* deferred
/// collection, from a planner's estimates instead of observed accesses.
///
/// `size_buffers` is the deferred collection's estimated size,
/// `source_buffers` the size of the input it would be rebuilt from, and
/// `expected_scans` how many times the plan above will process it (e.g.
/// the iteration count of the consuming join). Materializing costs
/// `λ·size`; keeping it deferred costs one rebuilding scan of the source
/// per processing.
pub fn plan_verdict(
    size_buffers: f64,
    source_buffers: f64,
    expected_scans: f64,
    lambda: f64,
) -> Decision {
    // Multi-process: more processings than λ always amortize the write
    // cost.
    if expected_scans > lambda {
        return Decision::Materialize;
    }
    // Read-over-write, accumulated over the whole plan: deferral re-reads
    // the source on every scan; materialization pays λ·size once plus
    // one source scan to produce it, then reads the (smaller) collection
    // back on each scan.
    let defer_cost = expected_scans * source_buffers;
    let materialize_cost = lambda * size_buffers + source_buffers + expected_scans * size_buffers;
    if materialize_cost <= defer_cost {
        Decision::Materialize
    } else {
        Decision::Defer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The §3.1 worked example: T of 300 buffers partitioned three ways;
    // deferring T0 saves |T|/3 writes at the cost of |T| reads.

    #[test]
    fn paper_example_defers_t0_at_high_lambda() {
        // |T| < λ·|T|/3 ⇔ 3 < λ: with λ = 15, T0 is not written on the
        // first pass (nor on any of the three).
        assert_eq!(first_materialized_pass(15.0, 100.0, 300.0, 3), 3);
    }

    #[test]
    fn paper_example_materializes_at_low_lambda() {
        // λ = 2: λ·|T0| = 200 ≤ |T| = 300 on the first pass.
        assert_eq!(first_materialized_pass(2.0, 100.0, 300.0, 3), 0);
    }

    #[test]
    fn accumulated_reads_flip_the_decision() {
        // Every deferred pass scans T once more. With λ = 15 a partition
        // costs 1500 to write: on pass 1 the reads are 300 paid + 300 for
        // the pass = 600, still short; on pass 4, 1200 + 300 = 1500 pays
        // for it.
        assert_eq!(first_materialized_pass(15.0, 100.0, 300.0, 2), 2);
        assert_eq!(first_materialized_pass(15.0, 100.0, 300.0, 8), 4);
    }

    #[test]
    fn plan_verdict_mirrors_the_runtime_rules() {
        // More processings than λ: materialize via multi-process.
        assert_eq!(
            plan_verdict(100.0, 300.0, 16.0, 15.0),
            Decision::Materialize
        );

        // Wide-open filter at high λ: writing ~the whole source buys
        // nothing — defer.
        assert_eq!(plan_verdict(290.0, 300.0, 3.0, 15.0), Decision::Defer);

        // Selective filter: tiny write, every later scan cheap —
        // materialize via read-over-write.
        assert_eq!(plan_verdict(15.0, 300.0, 3.0, 15.0), Decision::Materialize);

        // Same selective filter on a symmetric medium: still
        // materialize (writes are cheap there too).
        assert_eq!(plan_verdict(15.0, 300.0, 3.0, 1.0), Decision::Materialize);
    }
}
