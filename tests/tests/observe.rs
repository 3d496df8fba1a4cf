//! Observability invariants: the span profile must be an accounting
//! identity over the simulated counters, and it must never perturb them.
//!
//! Four properties hold for every algorithm at every degree of
//! parallelism:
//!
//! 1. **Hierarchy**: in every recorded tree, each node's children sum to
//!    at most the node's own counters ([`SpanNode::validate`]).
//! 2. **Coverage**: the root span's counters equal the device-level
//!    metrics delta of the run — nothing escapes the profile.
//! 3. **Transparency**: running with profiling on charges bit-identical
//!    simulated traffic to running with it off, at any DoP.
//! 4. **One record**: each phase of the run's ledger has exactly one span
//!    of its label, in order, whose traffic is the phase's.

use pmem_sim::span::{begin_profile, end_profile};
use pmem_sim::{
    BufferPool, DeviceConfig, IoStats, LatencyProfile, LayerKind, PCollection, PmDevice, SpanNode,
};
use wisconsin::{join_input, sort_input, KeyOrder, Record, WisconsinRecord};
use write_limited::adaptive::adaptive_grace_join;
use write_limited::join::{JoinAlgorithm, JoinContext, Pairs};
use write_limited::parallel::{Label, Phases};
use write_limited::pipeline::filtered_iterate_join;
use write_limited::sort::{SortAlgorithm, SortContext};

/// Runs `algo` over a fresh device, profiled or not, and returns the
/// device delta plus the recorded tree (when profiled).
fn run_join_observed(
    algo: JoinAlgorithm,
    threads: usize,
    profiled: bool,
) -> (IoStats, Option<SpanNode>) {
    let dev = PmDevice::paper_default();
    let w = join_input(1200, 5, 13);
    let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
    let right = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
    let pool = BufferPool::new(120 * 80);
    let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
    let before = dev.snapshot();
    if profiled {
        begin_profile("join");
    }
    let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
    let tree = if profiled { end_profile() } else { None };
    assert_eq!(out.len() as u64, w.expected_matches, "{algo}");
    (dev.snapshot().since(&before), tree)
}

fn run_sort_observed(
    algo: SortAlgorithm,
    threads: usize,
    profiled: bool,
) -> (IoStats, Option<SpanNode>) {
    let dev = PmDevice::paper_default();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "S",
        sort_input(5000, KeyOrder::Random, 29),
    );
    let pool = BufferPool::new(90 * 80);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
    let before = dev.snapshot();
    if profiled {
        begin_profile("sort");
    }
    let out = algo.run(&input, &ctx, "sorted").expect("valid");
    let tree = if profiled { end_profile() } else { None };
    assert_eq!(out.len(), 5000, "{algo}");
    (dev.snapshot().since(&before), tree)
}

const JOINS: [JoinAlgorithm; 5] = [
    JoinAlgorithm::NLJ,
    JoinAlgorithm::GJ,
    JoinAlgorithm::HJ,
    JoinAlgorithm::LaJ,
    JoinAlgorithm::SegJ { frac: 0.5 },
];

const SORTS: [SortAlgorithm; 3] = [
    SortAlgorithm::ExMS,
    SortAlgorithm::SegS { x: 0.5 },
    SortAlgorithm::LaS,
];

#[test]
fn every_span_tree_sums_children_into_parents() {
    for threads in [1, 4] {
        for algo in JOINS {
            let (_, tree) = run_join_observed(algo, threads, true);
            let tree = tree.expect("profile recorded");
            tree.validate()
                .unwrap_or_else(|e| panic!("{algo} at DoP {threads}: {e}"));
            assert!(!tree.children.is_empty(), "{algo}: tree has structure");
        }
        for algo in SORTS {
            let (_, tree) = run_sort_observed(algo, threads, true);
            let tree = tree.expect("profile recorded");
            tree.validate()
                .unwrap_or_else(|e| panic!("{algo} at DoP {threads}: {e}"));
        }
    }
}

#[test]
fn root_span_covers_the_whole_device_delta() {
    // Nothing the algorithm charges may escape the profile: the root
    // span's counters must equal the device snapshot delta exactly,
    // including work done on pool worker threads.
    for threads in [1, 4] {
        for algo in JOINS {
            let (delta, tree) = run_join_observed(algo, threads, true);
            let tree = tree.expect("profile recorded");
            assert_eq!(
                (tree.io.cl_reads, tree.io.cl_writes),
                (delta.cl_reads, delta.cl_writes),
                "{algo} at DoP {threads}: profile does not cover the run"
            );
        }
        for algo in SORTS {
            let (delta, tree) = run_sort_observed(algo, threads, true);
            let tree = tree.expect("profile recorded");
            assert_eq!(
                (tree.io.cl_reads, tree.io.cl_writes),
                (delta.cl_reads, delta.cl_writes),
                "{algo} at DoP {threads}: profile does not cover the run"
            );
        }
    }
}

#[test]
fn parallel_runs_attach_task_leaves_with_thread_ids() {
    let (_, tree) = run_sort_observed(SortAlgorithm::ExMS, 4, true);
    let tree = tree.expect("profile recorded");
    assert!(tree.task_count() > 0, "DoP-4 run fans out to task leaves");
    // Task leaves carry per-thread wall time; at least one ran off the
    // coordinator thread.
    let mut threads = Vec::new();
    collect_task_threads(&tree, &mut threads);
    assert!(!threads.is_empty());
    assert!(
        threads.iter().any(|&t| t != tree.thread),
        "some task ran on a worker thread"
    );
}

fn collect_task_threads(node: &SpanNode, out: &mut Vec<u64>) {
    if node.label.starts_with("task-") {
        out.push(node.thread);
    }
    for c in &node.children {
        collect_task_threads(c, out);
    }
}

#[test]
fn profiling_is_invisible_in_the_simulated_counters() {
    // The regression guard for "observation changes the experiment":
    // with and without an active profile, at DoP 1 and 4, every
    // algorithm charges bit-identical simulated traffic (counters AND
    // modeled software time).
    for threads in [1, 4] {
        for algo in JOINS {
            let (off, _) = run_join_observed(algo, threads, false);
            let (on, _) = run_join_observed(algo, threads, true);
            assert_eq!(
                off, on,
                "{algo} at DoP {threads}: profiling perturbed the counters"
            );
        }
        for algo in SORTS {
            let (off, _) = run_sort_observed(algo, threads, false);
            let (on, _) = run_sort_observed(algo, threads, true);
            assert_eq!(
                off, on,
                "{algo} at DoP {threads}: profiling perturbed the counters"
            );
        }
    }
}

#[test]
fn profiled_counters_are_dop_invariant() {
    // Observation at different degrees sees the same experiment: the
    // profiled device delta at DoP 4 equals the profiled delta at DoP 1.
    for algo in JOINS {
        let (d1, _) = run_join_observed(algo, 1, true);
        let (d4, _) = run_join_observed(algo, 4, true);
        assert_eq!(d1, d4, "{algo}: profiled traffic differs by DoP");
    }
    for algo in SORTS {
        let (d1, _) = run_sort_observed(algo, 1, true);
        let (d4, _) = run_sort_observed(algo, 4, true);
        assert_eq!(d1, d4, "{algo}: profiled traffic differs by DoP");
    }
}

#[test]
fn session_profile_reconciles_with_query_stats() {
    // End-to-end through the SQL layer: the span tree a session records
    // for a query accounts for exactly the traffic the stream reports.
    use wl_db::{Database, Response};

    let db = Database::builder().dram_records(200).batch_rows(64).build();
    db.create_wisconsin("t", 5000, 1, 3).expect("fresh");
    let mut s = db.session();
    let resp = s.execute("SELECT * FROM t ORDER BY key").expect("runs");
    let Response::Rows(mut stream) = resp else {
        panic!("expected rows");
    };
    let mut n = 0usize;
    while let Some(batch) = stream.next_batch().expect("clean stream") {
        n += batch.rows.len();
    }
    assert_eq!(n, 5000);
    let stats = stream.stats().expect("the stream completed");
    let profile = stream.profile().expect("profiling defaults to on").clone();
    profile.validate().expect("span sums hold");
    assert_eq!(profile.io.cl_reads, stats.io.cl_reads);
    assert_eq!(profile.io.cl_writes, stats.io.cl_writes);
    // The session keeps the last profile after the stream is dropped.
    drop(stream);
    let kept = s.last_profile().expect("session keeps the profile");
    assert_eq!(kept.io.cl_reads, profile.io.cl_reads);
}

/// The phase spans of a profile in pre-order: every node below the root
/// that is neither an algorithm's span nor a task leaf.
fn phase_spans<'t>(node: &'t SpanNode, out: &mut Vec<&'t SpanNode>) {
    for child in &node.children {
        if !child.label.starts_with("alg ") && !child.label.starts_with("task-") {
            out.push(child);
        }
        phase_spans(child, out);
    }
}

fn picoseconds(ns: f64) -> u64 {
    (ns * 1000.0).round() as u64
}

/// Each phase of `ledger` has exactly one span of its label in `tree`,
/// in order; the span's traffic is the phase's summed task ledgers,
/// exactly (software time to the picosecond); and a fan-out's span has
/// a leaf per task, a serial phase's none.
fn assert_ledger_is_the_profile(what: &str, ledger: &Phases, tree: &SpanNode) {
    let mut spans = Vec::new();
    phase_spans(tree, &mut spans);
    let labels: Vec<String> = ledger.iter().map(|p| p.label.to_string()).collect();
    let span_labels: Vec<&str> = spans.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(span_labels, labels, "{what}: a span per phase, in order");
    for (phase, span) in ledger.iter().zip(spans) {
        let sum = (phase.tasks.iter()).fold(IoStats::default(), |acc, s| acc.plus(s));
        let what = format!("{what}, {}", span.label);
        assert_eq!(
            (span.io.cl_reads, span.io.cl_writes, span.io.calls),
            (sum.cl_reads, sum.cl_writes, sum.calls),
            "{what}: span traffic"
        );
        assert_eq!(
            picoseconds(span.io.software_ns),
            picoseconds(sum.software_ns),
            "{what}: span software time"
        );
        let leaves = span.task_count();
        assert!(
            leaves == 0 || leaves == phase.tasks.len(),
            "{what}: {leaves} leaves for {} tasks",
            phase.tasks.len()
        );
    }
}

/// Runs `run` under a span profile on a fresh PMFS device (a software
/// time per call) at λ = 1.5, where adaptive Grace spills and the
/// deferred view materializes, with 120 records of DRAM at DoP `threads`;
/// checks the ledger it returns against the profile and returns it.
fn profiled_ledger(
    what: &str,
    threads: usize,
    run: impl FnOnce(&JoinContext<'_>) -> Phases,
) -> Phases {
    let dev = PmDevice::new(
        DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, 1.5)),
    );
    let pool = BufferPool::new(120 * 80);
    let ctx = JoinContext::new(&dev, LayerKind::Pmfs, &pool).with_threads(threads);
    begin_profile("run");
    let ledger = run(&ctx);
    let tree = end_profile().expect("profile recorded");
    assert_ledger_is_the_profile(&format!("{what} at DoP {threads}"), &ledger, &tree);
    ledger
}

#[test]
fn every_ledger_phase_is_one_span_of_its_label_and_traffic() {
    let w = join_input(2000, 5, 13);
    let records = sort_input(10_000, KeyOrder::Random, 29);
    let stage = |ctx: &JoinContext<'_>, name: &str, records: &[WisconsinRecord]| {
        PCollection::from_records_uncounted(ctx.device(), ctx.kind(), name, records.to_vec())
    };
    let mut labels: Vec<Label> = Vec::new();
    for threads in [1, 4] {
        let mut check = |what: &str, run: &dyn Fn(&JoinContext<'_>) -> Phases| {
            let ledger = profiled_ledger(what, threads, run);
            labels.extend(ledger.iter().map(|phase| phase.label));
        };
        for algo in [
            SortAlgorithm::ExMS,
            SortAlgorithm::SegS { x: 0.5 },
            SortAlgorithm::HybS { x: 0.5 },
            SortAlgorithm::LaS,
            SortAlgorithm::SelS,
        ] {
            check(&algo.to_string(), &|ctx| {
                let input = stage(ctx, "S", &records);
                algo.run_profiled(&input, ctx, "out").expect("valid").1
            });
        }
        for algo in [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
            JoinAlgorithm::SegJ { frac: 0.5 },
            JoinAlgorithm::LaJ,
            JoinAlgorithm::SMJ { x: 0.5 },
            JoinAlgorithm::CGJ,
        ] {
            check(&algo.to_string(), &|ctx| {
                let (left, right) = (stage(ctx, "T", &w.left), stage(ctx, "V", &w.right));
                let run = algo.run_profiled(&left, &right, ctx, "out");
                run.expect("applicable").1
            });
        }
        check("adaptive Grace", &|ctx| {
            let (left, right) = (stage(ctx, "T", &w.left), stage(ctx, "V", &w.right));
            adaptive_grace_join(&left, &right, ctx, "out")
                .expect("applicable")
                .1
        });
        check("deferred σ", &|ctx| {
            let (left, right) = (stage(ctx, "T", &w.left), stage(ctx, "V", &w.right));
            let keep = |r: &WisconsinRecord| r.key().is_multiple_of(4);
            filtered_iterate_join(&left, keep, 0.25, &right, &Pairs, ctx, "out")
                .expect("applicable")
                .1
        });
    }
    // The run reached every label.
    for label in [
        Label::RunGen,
        Label::Select,
        Label::Merge(1),
        Label::Cuts,
        Label::HeavyHitters,
        Label::Partition,
        Label::BuildProbe,
        Label::Pass(1),
        Label::Materialize,
        Label::CoScan,
    ] {
        assert!(labels.contains(&label), "no {label} phase ran");
    }
}

#[test]
fn cgj_heavy_hitter_scans_are_one_two_task_phase() {
    // Standalone CGJ scans both inputs for heavy hitters, independently:
    // one phase of a task per input, a leaf each in the profile, with
    // the rows and counters of the serial run.
    let w = wisconsin::join_input_skewed(600, 3000, 1.2, 11);
    let run = |threads: usize| {
        let dev = PmDevice::paper_default();
        let kind = LayerKind::BlockedMemory;
        let left = PCollection::from_records_uncounted(&dev, kind, "T", w.left.clone());
        let right = PCollection::from_records_uncounted(&dev, kind, "V", w.right.clone());
        let pool = BufferPool::new(120 * 80);
        let ctx = JoinContext::new(&dev, kind, &pool).with_threads(threads);
        let before = dev.snapshot();
        begin_profile("cgj");
        let (out, ledger) = JoinAlgorithm::CGJ
            .run_profiled(&left, &right, &ctx, "out")
            .expect("applicable");
        let tree = end_profile().expect("profile recorded");
        let delta = dev.snapshot().since(&before);
        let scans = tree.find("heavy-hitters").expect("a heavy-hitters span");
        assert_eq!(scans.task_count(), 2, "DoP {threads}: a leaf per input");
        assert_eq!(ledger[0].label, Label::HeavyHitters);
        assert_eq!(ledger[0].tasks.len(), 2);
        let guided = tree.find("alg guided").expect("the algorithm's span");
        assert!(guided.find("heavy-hitters").is_some(), "scans under CGJ");
        (out.to_vec_uncounted(), delta, ledger)
    };
    let (rows, io, ledger) = run(1);
    assert_eq!(rows.len() as u64, w.expected_matches);
    assert!(run(4) == (rows, io, ledger), "DoP 4 repeats DoP 1");
}
