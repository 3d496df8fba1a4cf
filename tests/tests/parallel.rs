//! Determinism of parallel partition execution.
//!
//! The worker pool must be invisible in everything but wall-clock: for
//! every join and sort algorithm, execution at any degree of parallelism
//! has to produce the same rows in the same order and charge the same
//! simulated traffic as the serial run. These property-style tests sweep
//! the full algorithm line-up at several DoPs against the DoP-1 run.

use pmem_sim::span::{begin_profile, end_profile};
use pmem_sim::{BufferPool, IoStats, LayerKind, PCollection, PmDevice};
use wisconsin::{join_input, sort_input, KeyOrder, Record, WisconsinRecord};
use write_limited::join::{JoinAlgorithm, JoinContext, Pairs, PARTITION_MORSEL_RECORDS};
use write_limited::parallel::Phases;
use write_limited::pipeline::filtered_iterate_join;
use write_limited::sort::{SortAlgorithm, SortContext};

const DOPS: [usize; 3] = [2, 3, 8];

#[test]
fn device_layer_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PmDevice>();
    assert_send_sync::<pmem_sim::Pm>();
    assert_send_sync::<pmem_sim::Metrics>();
    assert_send_sync::<BufferPool>();
    assert_send_sync::<PCollection<WisconsinRecord>>();
    assert_send_sync::<JoinContext<'static>>();
    assert_send_sync::<SortContext<'static>>();
}

fn run_join(
    algo: JoinAlgorithm,
    t: u64,
    fanout: u64,
    m_records: usize,
    threads: usize,
) -> (Vec<(u64, u64, u64)>, IoStats) {
    let dev = PmDevice::paper_default();
    let w = join_input(t, fanout, 41);
    let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
    let right = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
    let pool = BufferPool::new(m_records * 80);
    let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
    let before = dev.snapshot();
    let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
    let stats = dev.snapshot().since(&before);
    // Produced order, not canonicalized: the flush protocol guarantees
    // byte-identical output order, which is stronger than multiset
    // equality and what downstream operators observe.
    let rows = out
        .to_vec_uncounted()
        .iter()
        .map(|p| (p.left.key(), p.left.payload(), p.right.payload()))
        .collect();
    (rows, stats)
}

#[test]
fn every_join_algorithm_is_dop_invariant() {
    let algos = [
        JoinAlgorithm::NLJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::HybJ { x: 0.6, y: 0.4 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.0 },
        JoinAlgorithm::LaJ,
        JoinAlgorithm::SMJ { x: 0.5 },
    ];
    for algo in algos {
        let (rows1, io1) = run_join(algo, 900, 6, 70, 1);
        for threads in DOPS {
            let (rows, io) = run_join(algo, 900, 6, 70, threads);
            assert_eq!(rows, rows1, "{algo}: rows differ at DoP {threads}");
            assert_eq!(io, io1, "{algo}: traffic differs at DoP {threads}");
        }
    }
}

#[test]
fn morsel_spanning_grace_join_is_dop_invariant() {
    // Inputs larger than one morsel exercise the parallel phase-1 grid.
    let t = PARTITION_MORSEL_RECORDS as u64 + 3000;
    let (rows1, io1) = run_join(JoinAlgorithm::GJ, t, 2, 1600, 1);
    for threads in DOPS {
        let (rows, io) = run_join(JoinAlgorithm::GJ, t, 2, 1600, threads);
        assert_eq!(rows, rows1, "rows differ at DoP {threads}");
        assert_eq!(io, io1, "traffic differs at DoP {threads}");
    }
}

fn run_sort(algo: SortAlgorithm, n: u64, m_records: usize, threads: usize) -> (Vec<u64>, IoStats) {
    let dev = PmDevice::paper_default();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "S",
        sort_input(n, KeyOrder::Random, 17),
    );
    let pool = BufferPool::new(m_records * 80);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
    let before = dev.snapshot();
    let out = algo.run(&input, &ctx, "sorted").expect("valid");
    let stats = dev.snapshot().since(&before);
    let keys = out
        .to_vec_uncounted()
        .iter()
        .map(wisconsin::Record::key)
        .collect();
    (keys, stats)
}

#[test]
fn every_sort_algorithm_is_dop_invariant() {
    let algos = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ];
    for algo in algos {
        // M = 64 records forces a small merge fan-in, so ExMS needs
        // several (parallelizable) intermediate merge passes.
        let (keys1, io1) = run_sort(algo, 6000, 64, 1);
        assert!(
            keys1.windows(2).all(|w| w[0] <= w[1]),
            "{}",
            algo.to_string()
        );
        for threads in DOPS {
            let (keys, io) = run_sort(algo, 6000, 64, threads);
            assert_eq!(keys, keys1, "{algo}: keys differ at DoP {threads}");
            assert_eq!(io, io1, "{algo}: traffic differs at DoP {threads}");
        }
    }
}

#[test]
fn morsel_spanning_iterative_joins_are_dop_invariant() {
    // Inputs spanning several execution morsels exercise the fanned-out
    // build and probe scans of the standard and lazy hash joins and the
    // multi-block fan-out of NLJ.
    let t = PARTITION_MORSEL_RECORDS as u64 + 4000;
    for algo in [JoinAlgorithm::HJ, JoinAlgorithm::LaJ, JoinAlgorithm::NLJ] {
        let (rows1, io1) = run_join(algo, t, 2, 3000, 1);
        for threads in [2, 4] {
            let (rows, io) = run_join(algo, t, 2, 3000, threads);
            assert_eq!(rows, rows1, "{algo}: rows differ at DoP {threads}");
            assert_eq!(io, io1, "{algo}: traffic differs at DoP {threads}");
        }
    }
}

#[test]
fn skewed_all_one_key_inputs_are_dop_invariant() {
    // Every row carries the same key: the worst case for range
    // partitioning (one degenerate segment) and for hash partitioning
    // (one partition holds everything). Output must still be exact and
    // identical at every DoP.
    let run = |algo: JoinAlgorithm, threads: usize| {
        let dev = PmDevice::paper_default();
        let one_key = |n: u64| (0..n).map(|i| WisconsinRecord::from_key(7).with_payload(i));
        let left =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", one_key(90));
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", one_key(110));
        let pool = BufferPool::new(100 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
        let before = dev.snapshot();
        let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
        let rows: Vec<(u64, u64)> = out
            .to_vec_uncounted()
            .iter()
            .map(|p| (p.left.payload(), p.right.payload()))
            .collect();
        (rows, dev.snapshot().since(&before))
    };
    for algo in [
        JoinAlgorithm::HJ,
        JoinAlgorithm::LaJ,
        JoinAlgorithm::NLJ,
        JoinAlgorithm::SMJ { x: 0.5 },
    ] {
        let (rows1, io1) = run(algo, 1);
        assert_eq!(rows1.len(), 90 * 110, "{algo}");
        for threads in [2, 4] {
            let (rows, io) = run(algo, threads);
            assert_eq!(rows, rows1, "{algo}: rows differ at DoP {threads}");
            assert_eq!(io, io1, "{algo}: traffic differs at DoP {threads}");
        }
    }
}

#[test]
fn empty_inputs_are_dop_invariant_for_every_parallel_join() {
    for algo in [
        JoinAlgorithm::HJ,
        JoinAlgorithm::LaJ,
        JoinAlgorithm::NLJ,
        JoinAlgorithm::SMJ { x: 0.5 },
    ] {
        for threads in [1, 4] {
            let dev = PmDevice::paper_default();
            let empty: PCollection<WisconsinRecord> =
                PCollection::new(&dev, LayerKind::BlockedMemory, "E");
            let some = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "S",
                (0..50).map(WisconsinRecord::from_key),
            );
            let pool = BufferPool::new(60 * 80);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            assert!(
                algo.run(&empty, &some, &ctx, "o1")
                    .expect("runs")
                    .is_empty(),
                "{algo} empty left at DoP {threads}"
            );
            assert!(
                algo.run(&some, &empty, &ctx, "o2")
                    .expect("runs")
                    .is_empty(),
                "{algo} empty right at DoP {threads}"
            );
        }
    }
}

#[test]
fn parallel_final_merge_is_dop_invariant_across_input_shapes() {
    // Random keys (many runs, several key segments), all-one-key skew
    // (range partitioning degenerates to one segment), and sorted input
    // (a single run — the merge is skipped entirely).
    let shapes: [(&str, KeyOrder); 3] = [
        ("random", KeyOrder::Random),
        ("one-key", KeyOrder::FewDistinct { distinct: 1 }),
        ("sorted", KeyOrder::Sorted),
    ];
    for (label, order) in shapes {
        let run = |threads: usize| {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "S",
                sort_input(30_000, order, 9),
            );
            let pool = BufferPool::new(600 * 80);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let (out, phases) = SortAlgorithm::ExMS
                .run_profiled(&input, &ctx, "sorted")
                .expect("ExMS takes no parameters");
            let stats = dev.snapshot().since(&before);
            let rows: Vec<(u64, u64)> = out
                .to_vec_uncounted()
                .iter()
                .map(|r| (r.key(), r.payload()))
                .collect();
            (rows, stats, phases)
        };
        let (rows1, io1, phases1) = run(1);
        assert!(rows1.windows(2).all(|w| w[0] <= w[1]), "{label}: sorted");
        assert_eq!(rows1.len(), 30_000, "{label}");
        for threads in [2, 4] {
            let (rows, io, phases) = run(threads);
            assert_eq!(rows, rows1, "{label}: rows differ at DoP {threads}");
            assert_eq!(io, io1, "{label}: traffic differs at DoP {threads}");
            assert_eq!(phases, phases1, "{label}: phase ledger differs");
        }
    }
}

#[test]
fn empty_sort_input_is_dop_invariant() {
    for threads in [1, 4] {
        let dev = PmDevice::paper_default();
        let input: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "S");
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
        let out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        assert!(out.is_empty(), "DoP {threads}");
    }
}

#[test]
fn parallel_sort_aggregation_is_dop_invariant() {
    use write_limited::agg::sort_based_aggregate;

    // x = 1 over a morsel-spanning input drives the range-partitioned
    // merge-aggregate; the few-distinct shape makes wide groups, the
    // single-key shape the degenerate one-segment case.
    for distinct in [1u64, 37, 5_000] {
        let run = |threads: usize| {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "A",
                sort_input(20_000, KeyOrder::FewDistinct { distinct }, 5),
            );
            let pool = BufferPool::new(400 * 80);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
            let before = dev.snapshot();
            let out =
                sort_based_aggregate(&input, 1.0, |r| r.payload(), &ctx, "agg").expect("valid x");
            let groups: Vec<(u64, u64, u64)> = out
                .to_vec_uncounted()
                .iter()
                .map(|g| (g.key, g.count, g.sum))
                .collect();
            (groups, dev.snapshot().since(&before))
        };
        let (groups1, io1) = run(1);
        // Keys are drawn randomly from the domain: every key shows up
        // for small domains, a large domain may miss a few.
        assert!(groups1.len() as u64 <= distinct, "one row per group");
        if distinct <= 37 {
            assert_eq!(groups1.len() as u64, distinct, "all keys present");
        }
        assert!(groups1.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        assert_eq!(
            groups1.iter().map(|g| g.1).sum::<u64>(),
            20_000,
            "counts cover the input"
        );
        for threads in [2, 4] {
            let (groups, io) = run(threads);
            assert_eq!(
                groups, groups1,
                "distinct={distinct}: rows differ at DoP {threads}"
            );
            assert_eq!(
                io, io1,
                "distinct={distinct}: traffic differs at DoP {threads}"
            );
        }
    }
}

#[test]
fn deferred_pipeline_join_is_dop_invariant() {
    let run = |threads: usize| {
        let dev = PmDevice::paper_default();
        let w = join_input(600, 4, 23);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(40 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
        // Selective filter: materializes on the first pass (a phase of
        // its own), so the remaining passes run as one parallel phase.
        let keep = |r: &WisconsinRecord| r.key().is_multiple_of(20);
        let before = dev.snapshot();
        let (out, phases) = filtered_iterate_join(&left, keep, 0.05, &right, &Pairs, &ctx, "out")
            .expect("applicable");
        let stats = dev.snapshot().since(&before);
        assert_eq!(phases.len(), 2, "materialized on the first pass");
        let rows: Vec<(u64, u64)> = out
            .to_vec_uncounted()
            .iter()
            .map(|p| (p.left.key(), p.right.payload()))
            .collect();
        (rows, stats)
    };
    let (rows1, io1) = run(1);
    for threads in DOPS {
        let (rows, io) = run(threads);
        assert_eq!(rows, rows1, "rows differ at DoP {threads}");
        assert_eq!(io, io1, "traffic differs at DoP {threads}");
    }
}

#[test]
fn planned_query_execution_is_dop_invariant() {
    use planner::{execute_stream, Catalog, LogicalPlan, Planner, Predicate};

    let dev = PmDevice::paper_default();
    let w = join_input(800, 4, 5);
    let left = std::sync::Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        w.left,
    ));
    let right = std::sync::Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "V",
        w.right,
    ));
    let mut cat = Catalog::new();
    cat.add_table("T", left, 800);
    cat.add_table("V", right, 800);

    let logical = LogicalPlan::scan("T")
        .filter(Predicate::KeyBelow(400))
        .join(LogicalPlan::scan("V"));
    let pool = BufferPool::new(60 * 80);
    let planned = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory)
        .plan(&logical, &cat)
        .expect("plans");

    // Same physical plan, executed at different degrees: identical rows
    // and identical counted traffic.
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let mut planned = planned.clone();
        planned.threads = threads;
        dev.reset_metrics();
        let executed = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool)
            .expect("executes");
        runs.push((executed.result.all_rows().canonical(), executed.stats));
    }
    assert_eq!(runs[0].0, runs[1].0, "rows differ across DoP");
    assert_eq!(runs[0].1, runs[1].1, "traffic differs across DoP");
}

/// `algo` over `left ⋈ right` at `threads`, under a span profile or
/// not: the device delta and the phase ledger.
fn profiled_join(
    algo: JoinAlgorithm,
    left: &[WisconsinRecord],
    right: &[WisconsinRecord],
    m_records: usize,
    profiled: bool,
    threads: usize,
) -> (IoStats, Phases) {
    let dev = PmDevice::paper_default();
    let kind = LayerKind::BlockedMemory;
    let left = PCollection::from_records_uncounted(&dev, kind, "T", left.iter().copied());
    let right = PCollection::from_records_uncounted(&dev, kind, "V", right.iter().copied());
    let pool = BufferPool::new(m_records * 80);
    let ctx = JoinContext::new(&dev, kind, &pool).with_threads(threads);
    let before = dev.snapshot();
    if profiled {
        begin_profile("join");
    }
    let (_, ledger) = algo
        .run_profiled(&left, &right, &ctx, "out")
        .expect("applicable");
    if profiled {
        end_profile().expect("profile recorded");
    }
    (dev.snapshot().since(&before), ledger)
}

#[test]
fn counters_are_bit_identical_across_dops_with_profiling_on_and_off() {
    // The sharded hot-path accounting must publish exactly the serial
    // totals no matter how tasks were divided across workers, and a span
    // profile must perturb neither the counters nor the phase ledger.
    let w = join_input(900, 6, 41);
    for algo in [JoinAlgorithm::GJ, JoinAlgorithm::HJ] {
        let serial = profiled_join(algo, &w.left, &w.right, 70, false, 1);
        for profiled in [false, true] {
            for threads in [1, 4, 8] {
                assert_eq!(
                    profiled_join(algo, &w.left, &w.right, 70, profiled, threads),
                    serial,
                    "{algo} (profiled={profiled}): counters or ledger differ at DoP {threads}"
                );
            }
        }
    }
}

#[test]
fn skewed_one_key_counters_are_bit_identical_across_dops_while_profiling() {
    // All-one-key skew funnels every row through one partition, so one
    // worker's shard carries almost all of the traffic while its
    // siblings stay near-idle — the stress case for merge-at-barrier
    // bookkeeping. A span profile is armed throughout.
    let one_key = |n: u64| -> Vec<WisconsinRecord> {
        (0..n)
            .map(|i| WisconsinRecord::from_key(7).with_payload(i))
            .collect()
    };
    let (left, right) = (one_key(90), one_key(110));
    for algo in [JoinAlgorithm::HJ, JoinAlgorithm::SMJ { x: 0.5 }] {
        let serial = profiled_join(algo, &left, &right, 100, true, 1);
        for threads in [4, 8] {
            assert_eq!(
                profiled_join(algo, &left, &right, 100, true, threads),
                serial,
                "{algo}: counters or ledger differ at DoP {threads}"
            );
        }
    }
}

#[test]
fn grace_profile_ledgers_reconcile_with_device_totals() {
    use write_limited::join::grace_join_profiled;

    let run = |threads: usize| {
        let dev = PmDevice::paper_default();
        let w = join_input(2000, 5, 3);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(300 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool).with_threads(threads);
        let before = dev.snapshot();
        let (_, profile) = grace_join_profiled(&left, &right, &ctx, "out").expect("applicable");
        (profile, dev.snapshot().since(&before))
    };
    let (p1, total1) = run(1);
    for threads in [1, 4] {
        let (profile, total) = run(threads);
        assert_eq!(total, total1, "device totals differ at DoP {threads}");
        assert_eq!(
            profile.per_partition, p1.per_partition,
            "per-partition ledgers differ at DoP {threads}"
        );
        // The phase ledgers cover the whole run: morsel costs sum to the
        // partitioning phase, and partition costs account for all
        // remaining traffic (build/probe reads + output writes).
        let morsels: IoStats = profile
            .per_morsel_left
            .iter()
            .chain(&profile.per_morsel_right)
            .fold(IoStats::default(), |acc, s| acc.plus(s));
        assert_eq!(morsels, profile.partition_phase);
        let parts: IoStats = profile
            .per_partition
            .iter()
            .fold(IoStats::default(), |acc, s| acc.plus(s));
        assert_eq!(parts, total.since(&profile.partition_phase));
    }
}
