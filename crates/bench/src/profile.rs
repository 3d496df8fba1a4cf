//! Span-tree profiling of the parallel algorithms: where does the wall
//! clock go at DoP 4?
//!
//! Simulated counters are DoP-invariant, so the parallel story lives in
//! *host* time — and the wall-clock speedup at DoP 4 routinely lands
//! below the ledger-derived critical-path bound. This scenario runs each
//! parallel algorithm at DoP 1 and DoP 4 under a span profile
//! ([`pmem_sim::span`]) and reports, per worker-pool phase, the per-task
//! wall breakdown: total task-seconds, the makespan (slowest task), and
//! the inflation of DoP-4 task-seconds over the DoP-1 run of the same
//! phase. Phases whose task-seconds *grow* with DoP are the contended
//! ones (allocator, memory bandwidth); phases whose makespan dominates
//! are the imbalanced ones. `repro --profile` writes the full span
//! trees to `BENCH_profile.json` (hand-rolled JSON — the offline
//! environment has no serde).

use crate::measure::{run, stage, Operator};
use crate::parallel::{budget, LINEUP};
use crate::Scale;
use pmem_sim::span::{begin_profile, end_profile};
use pmem_sim::{IoStats, LayerKind, PmDevice, SpanNode};
use std::time::Instant;
use write_limited::context::ExecContext;

/// One algorithm's profiled run at one degree of parallelism.
pub struct ProfiledRun {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Degree of parallelism of this run.
    pub dop: usize,
    /// Harness wall-clock of the whole run in milliseconds.
    pub wall_ms: f64,
    /// Simulated traffic of the run (must be identical across DoPs).
    pub stats: IoStats,
    /// The recorded span tree.
    pub tree: SpanNode,
}

/// Per-phase wall breakdown extracted from a run's worker-pool phase
/// spans.
pub struct PhaseBreakdown {
    /// The phase's label (`partition`, `merge 1`, …), qualified by
    /// occurrence index so repeated phases stay distinguishable.
    pub label: String,
    /// Number of task leaves under the phase.
    pub tasks: usize,
    /// Sum of the task leaves' wall time (task-seconds), ms.
    pub task_wall_sum_ms: f64,
    /// Slowest single task (the phase's makespan floor), ms.
    pub task_wall_max_ms: f64,
}

/// Collects the worker-pool phases of a tree — the labelled phase spans
/// that carry `task-i` leaves — in pre-order, with their per-task wall
/// totals.
pub fn phase_breakdown(tree: &SpanNode) -> Vec<PhaseBreakdown> {
    let mut out = Vec::new();
    collect_phases(tree, &mut out);
    out
}

fn collect_phases(node: &SpanNode, out: &mut Vec<PhaseBreakdown>) {
    let leaves: Vec<&SpanNode> = (node.children.iter())
        .filter(|c| c.label.starts_with("task-"))
        .collect();
    if !leaves.is_empty() {
        let sum: u64 = leaves.iter().map(|t| t.wall_ns).sum();
        let max = leaves.iter().map(|t| t.wall_ns).max().unwrap_or(0);
        out.push(PhaseBreakdown {
            label: format!("{}#{}", node.label, out.len()),
            tasks: leaves.len(),
            task_wall_sum_ms: sum as f64 / 1e6,
            task_wall_max_ms: max as f64 / 1e6,
        });
    }
    for child in &node.children {
        collect_phases(child, out);
    }
}

/// Runs `op` on the speedup matrix's inputs and budget at `scale` under
/// a span profile rooted at `algorithm`.
fn profile_run(algorithm: &'static str, op: Operator, scale: &Scale, dop: usize) -> ProfiledRun {
    let dev = PmDevice::paper_default();
    let layer = LayerKind::BlockedMemory;
    let (inputs, expected) = stage(op, &dev, layer, scale, 7);
    let pool = budget(op, scale);
    let ctx = ExecContext::new(&dev, layer, &pool).with_threads(dop);
    let before = dev.snapshot();
    begin_profile(algorithm);
    let start = Instant::now();
    let (out, _) = run(op, &inputs, &ctx).expect("applicable");
    assert_eq!(out, expected, "{algorithm}: wrong result");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let tree = end_profile().expect("profile was active");
    ProfiledRun {
        algorithm,
        dop,
        wall_ms,
        stats: dev.snapshot().since(&before),
        tree,
    }
}

/// Runs every algorithm of the speedup matrix at each degree in `dops`
/// under a span profile and prints the per-phase wall breakdown,
/// comparing each phase's task-seconds against the DoP-1 run to
/// localize contention.
/// Panics if any run's simulated counters diverge across DoPs (the
/// profile must observe, never perturb).
pub fn profile_runs(scale: &Scale, dops: &[usize]) -> Vec<ProfiledRun> {
    let t = scale.join_t;
    println!("=== Span-tree profile: per-task wall breakdown by DoP ===");
    println!(
        "joins: |T| = {t}, |V| = {}, M = {} records; sort: {} records",
        t * scale.join_fanout,
        (t / 10).max(16),
        scale.sort_n
    );

    let mut runs: Vec<ProfiledRun> = Vec::new();
    for (algorithm, op) in LINEUP {
        let mut per_dop: Vec<ProfiledRun> = dops
            .iter()
            .map(|&dop| profile_run(algorithm, op, scale, dop))
            .collect();
        report_algorithm(&per_dop);
        runs.append(&mut per_dop);
    }
    runs
}

/// Prints one algorithm's phase table and asserts counter identity and
/// span-tree validity for every DoP.
fn report_algorithm(runs: &[ProfiledRun]) {
    let base = &runs[0];
    base.tree.validate().expect("span sums hold");
    let base_phases = phase_breakdown(&base.tree);
    for run in runs {
        run.tree.validate().expect("span sums hold");
        assert_eq!(
            (run.stats.cl_reads, run.stats.cl_writes),
            (base.stats.cl_reads, base.stats.cl_writes),
            "{}: simulated counters diverged at DoP {}",
            run.algorithm,
            run.dop
        );
        // The profile must cover the whole device delta.
        assert_eq!(
            run.tree.io.cl_reads, run.stats.cl_reads,
            "{}",
            run.algorithm
        );
        assert_eq!(
            run.tree.io.cl_writes, run.stats.cl_writes,
            "{}",
            run.algorithm
        );
        let phases = phase_breakdown(&run.tree);
        println!(
            "{:<6} DoP {}  wall {:>8.1} ms  {:>4} tasks in {:>2} pool phases",
            run.algorithm,
            run.dop,
            run.wall_ms,
            run.tree.task_count(),
            phases.len(),
        );
        for (i, p) in phases.iter().enumerate() {
            // Same phase in the DoP-1 run (task partitioning is
            // DoP-independent, so phase i lines up with phase i).
            let inflation = base_phases
                .get(i)
                .filter(|b| b.task_wall_sum_ms > 0.0)
                .map(|b| p.task_wall_sum_ms / b.task_wall_sum_ms);
            let note = match inflation {
                Some(f) if run.dop > 1 && f > 1.25 => {
                    format!("  <-- {f:.2}x task-seconds vs DoP 1: contention")
                }
                Some(f) if run.dop > 1 => format!("  ({f:.2}x task-seconds vs DoP 1)"),
                _ => String::new(),
            };
            println!(
                "        {:<12} {:>3} tasks  sum {:>8.2} ms  max {:>7.2} ms{note}",
                p.label, p.tasks, p.task_wall_sum_ms, p.task_wall_max_ms
            );
        }
    }
}

/// Serializes the profiled runs — summary fields plus the full span
/// trees — as JSON.
pub fn profile_json(runs: &[ProfiledRun]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"algorithm\": \"{}\", \"dop\": {}, \"wall_ms\": {:.3}, \
             \"cl_reads\": {}, \"cl_writes\": {}, \"tasks\": {},\n   \"phases\": [",
            r.algorithm,
            r.dop,
            r.wall_ms,
            r.stats.cl_reads,
            r.stats.cl_writes,
            r.tree.task_count(),
        ));
        let phases = phase_breakdown(&r.tree);
        for (j, p) in phases.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"label\": \"{}\", \"tasks\": {}, \"task_wall_sum_ms\": {:.3}, \
                 \"task_wall_max_ms\": {:.3}}}",
                if j == 0 { "" } else { ", " },
                p.label,
                p.tasks,
                p.task_wall_sum_ms,
                p.task_wall_max_ms
            ));
        }
        out.push_str("],\n   \"span_tree\": ");
        span_json(&r.tree, &mut out);
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

fn span_json(node: &SpanNode, out: &mut String) {
    let rows = node.rows.map_or("null".to_string(), |n| n.to_string());
    out.push_str(&format!(
        "{{\"label\": \"{}\", \"thread\": {}, \"wall_ns\": {}, \"reads\": {}, \
         \"writes\": {}, \"software_ns\": {:.1}, \"rows\": {rows}, \"children\": [",
        node.label.replace('"', "'"),
        node.thread,
        node.wall_ns,
        node.io.cl_reads,
        node.io.cl_writes,
        node.io.software_ns,
    ));
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        span_json(child, out);
    }
    out.push_str("]}");
}

/// `repro --profile`: runs the profile matrix at DoP 1 and 4 and writes
/// `BENCH_profile.json`.
pub fn profile_to_file(scale: &Scale) {
    let runs = profile_runs(scale, &[1, 4]);
    let path = "BENCH_profile.json";
    match std::fs::write(path, profile_json(&runs)) {
        Ok(()) => println!("span-tree profile written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use write_limited::join::JoinAlgorithm;
    use write_limited::sort::SortAlgorithm;

    fn join_scale(join_t: u64, join_fanout: u64) -> Scale {
        Scale {
            join_t,
            join_fanout,
            ..Scale::quick()
        }
    }

    #[test]
    fn profiled_sort_produces_a_valid_tree_with_task_leaves() {
        let scale = Scale {
            sort_n: 4_000,
            ..Scale::quick()
        };
        let run = profile_run("ExMS", Operator::Sort(SortAlgorithm::ExMS), &scale, 4);
        run.tree.validate().expect("span sums hold");
        assert_eq!(run.tree.label, "ExMS");
        assert!(run.tree.task_count() > 0, "worker tasks recorded");
        let phases = phase_breakdown(&run.tree);
        assert!(!phases.is_empty());
        assert!(phases
            .iter()
            .all(|p| p.task_wall_sum_ms >= p.task_wall_max_ms));
    }

    #[test]
    fn profile_json_is_balanced_and_carries_trees() {
        let run = profile_run(
            "HJ",
            Operator::Join(JoinAlgorithm::HJ),
            &join_scale(500, 2),
            2,
        );
        let json = profile_json(&[run]);
        assert!(json.contains("\"algorithm\": \"HJ\""));
        assert!(json.contains("\"span_tree\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn counters_are_identical_across_dops_under_profiling() {
        let a = profile_run(
            "GJ",
            Operator::Join(JoinAlgorithm::GJ),
            &join_scale(800, 2),
            1,
        );
        let b = profile_run(
            "GJ",
            Operator::Join(JoinAlgorithm::GJ),
            &join_scale(800, 2),
            4,
        );
        assert_eq!(a.stats.cl_reads, b.stats.cl_reads);
        assert_eq!(a.stats.cl_writes, b.stats.cl_writes);
        assert!(b.tree.task_count() >= a.tree.task_count());
    }
}
