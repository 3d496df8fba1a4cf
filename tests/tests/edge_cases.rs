//! Edge cases and failure injection across the stack: invalid
//! parameters surface as errors (never wrong answers), panicking
//! preconditions fire, and extreme inputs stay correct.

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use wisconsin::{Record as _, WisconsinRecord};
use write_limited::join::{JoinAlgorithm, JoinContext};
use write_limited::sort::{SortAlgorithm, SortContext};

#[test]
fn invalid_knobs_error_for_every_parameterized_algorithm() {
    let dev = PmDevice::paper_default();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        (0..50).map(WisconsinRecord::from_key),
    );
    let pool = BufferPool::new(8000);
    let sctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let jctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);

    for bad in [-0.5, 1.5, f64::NAN] {
        assert!(
            SortAlgorithm::SegS { x: bad }
                .run(&input, &sctx, "s")
                .is_err(),
            "SegS accepted x = {bad}"
        );
        assert!(
            SortAlgorithm::HybS { x: bad }
                .run(&input, &sctx, "s")
                .is_err(),
            "HybS accepted x = {bad}"
        );
        assert!(
            JoinAlgorithm::HybJ { x: bad, y: 0.5 }
                .run(&input, &input, &jctx, "j")
                .is_err(),
            "HybJ accepted x = {bad}"
        );
        assert!(
            JoinAlgorithm::SegJ { frac: bad }
                .run(&input, &input, &jctx, "j")
                .is_err(),
            "SegJ accepted frac = {bad}"
        );
        assert!(
            JoinAlgorithm::SMJ { x: bad }
                .run(&input, &input, &jctx, "j")
                .is_err(),
            "SMJ accepted x = {bad}"
        );
    }
}

/// Empty inputs must flow through every algorithm as empty results —
/// no divide-by-zero, no empty-partition panics, no errors. Sweeps all
/// join algorithms over (empty, empty), (empty, full), (full, empty),
/// every sort algorithm over an empty collection, and the aggregator.
#[test]
fn empty_inputs_yield_empty_results_for_every_algorithm() {
    let dev = PmDevice::paper_default();
    let empty = PCollection::<WisconsinRecord>::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "E",
        std::iter::empty(),
    );
    let full = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "F",
        (0..200).map(WisconsinRecord::from_key),
    );
    let pool = BufferPool::new(100 * 80);
    let jctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let sctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);

    let joins = [
        JoinAlgorithm::NLJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::LaJ,
        JoinAlgorithm::SMJ { x: 0.5 },
    ];
    for algo in joins {
        for (name, l, r) in [
            ("empty ⋈ empty", &empty, &empty),
            ("empty ⋈ full", &empty, &full),
            ("full ⋈ empty", &full, &empty),
        ] {
            let out = algo
                .run(l, r, &jctx, "j")
                .unwrap_or_else(|e| panic!("{algo} over {name}: {e:?}"));
            assert!(out.is_empty(), "{algo} over {name} produced rows");
        }
    }

    let sorts = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ];
    for algo in sorts {
        let out = algo
            .run(&empty, &sctx, "s")
            .unwrap_or_else(|e| panic!("{algo} over empty: {e:?}"));
        assert!(out.is_empty(), "{algo} over empty produced rows");
    }

    for x in [0.0, 0.5, 1.0] {
        let out = write_limited::agg::sort_based_aggregate(
            &empty,
            x,
            |r: &WisconsinRecord| r.payload(),
            &sctx,
            "a",
        )
        .unwrap_or_else(|e| panic!("aggregate (x={x}) over empty: {e:?}"));
        assert!(out.is_empty(), "aggregate over empty produced groups");
    }
}

#[test]
fn extreme_keys_sort_correctly() {
    let keys = [u64::MAX, 0, u64::MAX - 1, 1, u64::MAX / 2, u64::MAX, 0];
    for algo in [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ] {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        );
        let pool = BufferPool::new(3 * 80); // force multi-pass machinery
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&input, &ctx, "sorted").expect("valid");
        let got: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        assert_eq!(got, expect, "{algo}");
    }
}

#[test]
fn all_equal_keys_are_stable_under_every_sort() {
    // A degenerate input with one key value exercises every tiebreak.
    for algo in [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ] {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            (0..500u64).map(|i| WisconsinRecord::from_key(7).with_payload(i)),
        );
        let pool = BufferPool::new(40 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&input, &ctx, "sorted").expect("valid");
        assert_eq!(out.len(), 500, "{algo}");
        // Every payload must survive exactly once.
        let mut payloads: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.payload()).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..500).collect::<Vec<_>>(), "{algo}");
    }
}

#[test]
fn buffer_pool_reservations_cannot_overdraw() {
    let pool = BufferPool::new(1000);
    let first = pool.reserve(700).expect("fits");
    assert!(pool.reserve(400).is_err());
    drop(first);
    assert!(pool.reserve(400).is_ok());
}

#[test]
#[should_panic(expected = "read past end")]
fn reading_past_collection_end_panics() {
    let dev = PmDevice::paper_default();
    let mut s = pmem_sim::Storage::new(LayerKind::BlockedMemory, dev.config());
    s.append(&[0u8; 10], &dev);
    let mut buf = [0u8; 20];
    s.read_at(0, &mut buf, &mut pmem_sim::ReadCursor::new(), &dev);
}

#[test]
#[should_panic(expected = "already paused")]
fn nested_metric_pauses_panic() {
    let dev = PmDevice::paper_default();
    let _a = dev.metrics().pause();
    let _b = dev.metrics().pause();
}

#[test]
#[should_panic(expected = "bad range")]
fn inverted_range_reader_panics() {
    let dev = PmDevice::paper_default();
    let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "c");
    c.append(&1);
    let _ = c.range_reader(1, 0);
}

#[test]
fn metrics_are_monotone_through_any_workload() {
    let dev = PmDevice::paper_default();
    let mut prev = dev.snapshot();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::RamDisk,
        "T",
        (0..2000).map(WisconsinRecord::from_key),
    );
    let pool = BufferPool::new(100 * 80);
    let ctx = SortContext::new(&dev, LayerKind::RamDisk, &pool);
    for algo in [SortAlgorithm::ExMS, SortAlgorithm::LaS] {
        let _ = algo.run(&input, &ctx, "s").expect("valid");
        let now = dev.snapshot();
        assert!(now.cl_reads >= prev.cl_reads);
        assert!(now.cl_writes >= prev.cl_writes);
        assert!(now.software_ns >= prev.software_ns);
        prev = now;
    }
}

#[test]
fn determinism_same_seed_same_counters() {
    let run = || {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            wisconsin::sort_input(3000, wisconsin::KeyOrder::Random, 123),
        );
        let pool = BufferPool::new(100 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let _ = SortAlgorithm::SegS { x: 0.4 }
            .run(&input, &ctx, "s")
            .expect("valid");
        dev.snapshot()
    };
    assert_eq!(run(), run(), "the simulator must be fully deterministic");
}

#[test]
fn sequential_point_reads_with_cursor_cost_like_a_scan() {
    let dev = PmDevice::paper_default();
    let mut c = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "c");
    {
        let _p = dev.metrics().pause();
        for i in 0..1000u64 {
            c.append(&i);
        }
    }
    let before = dev.snapshot();
    let mut cursor = pmem_sim::ReadCursor::new();
    for i in 0..1000 {
        assert_eq!(c.get_with_cursor(i, &mut cursor), i as u64);
    }
    let with_cursor = dev.snapshot().since(&before).cl_reads;
    assert_eq!(with_cursor, c.buffers(), "cursor reads must match a scan");

    // Fresh-cursor point reads overcount instead (isolated accesses).
    let before = dev.snapshot();
    for i in 0..1000 {
        let _ = c.get(i);
    }
    let without = dev.snapshot().since(&before).cl_reads;
    assert!(without > with_cursor);
}

#[test]
fn exec_operators_propagate_algorithm_errors() {
    // An invalid knob is an error, not a panic: what the planner's
    // lowering propagates out of a blocking node.
    let dev = PmDevice::paper_default();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        (0..10).map(WisconsinRecord::from_key),
    );
    let pool = BufferPool::new(8000);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let invalid = SortAlgorithm::SegS { x: 2.0 };
    assert!(invalid.run(&input, &ctx, "sorted").is_err());
}
