//! Integration tests for the write-aware planner: golden algorithm
//! choices across the write/read latency sweep, and plan-lowering
//! equivalence against the naive DRAM executor.

use planner::{
    execute_naive, execute_stream, execute_stream_profiled, Alternative, Catalog, ChainSlots,
    ExecError, LogicalPlan, Materialization, Node, NodeCost, PhysicalPlan, PlanError, PlannedQuery,
    Planner, Predicate, TableStats,
};
use pmem_sim::span::SpanNode;
use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, PCollection, PmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wisconsin::{join_input, sort_input, KeyOrder, WisconsinRecord};
use write_limited::cost::IoPrediction;
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;

fn sort_algo(planned: &planner::PlannedQuery) -> SortAlgorithm {
    match &planned.plan {
        PhysicalPlan::Sort { algo, .. } => *algo,
        other => panic!("expected sort at root, got {}", other.label()),
    }
}

/// Write intensity implied by a sort choice: the fraction of the input
/// that flows through write-incurring run generation.
fn intensity(a: SortAlgorithm) -> f64 {
    match a {
        SortAlgorithm::ExMS => 1.0,
        SortAlgorithm::SegS { x } | SortAlgorithm::HybS { x } => x,
        SortAlgorithm::LaS | SortAlgorithm::SelS => 0.0,
    }
}

/// Golden sweep: as the write/read ratio grows, the enumerator's chosen
/// sort intensity must fall monotonically (never rise), ending in a
/// write-limited choice — SegS at low intensity or LaS — at the paper's
/// λ = 15, and starting at (near-)full mergesort intensity at λ = 1.
#[test]
fn sort_choice_sweeps_with_lambda() {
    let mut cat = Catalog::new();
    cat.add_stats("T", TableStats::wisconsin(20_000));
    let logical = LogicalPlan::scan("T").sort();

    let mut last_intensity = f64::INFINITY;
    let mut chosen = Vec::new();
    for lambda in [1.0, 2.0, 4.0, 8.0, 15.0, 30.0] {
        let planned = Planner::new(lambda, 1250.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        let algo = sort_algo(&planned);
        let i = intensity(algo);
        assert!(
            i <= last_intensity + 1e-9,
            "intensity must not rise with λ: {chosen:?} then {algo:?}"
        );
        last_intensity = i;
        chosen.push((lambda, algo));
    }
    let (_, at_one) = chosen[0];
    let (_, at_fifteen) = chosen[4];
    assert!(intensity(at_one) > 0.9, "λ=1 chose {at_one:?}");
    assert!(intensity(at_fifteen) < 0.7, "λ=15 chose {at_fifteen:?}");
}

/// Golden join sweep: at symmetric cost the partition-everything Grace
/// family is acceptable, but as λ grows the enumerator must shift to
/// plans that write less — and the predicted writes must be
/// non-increasing in λ.
#[test]
fn join_choice_writes_shrink_with_lambda() {
    let mut cat = Catalog::new();
    cat.add_stats("T", TableStats::wisconsin(10_000));
    cat.add_stats(
        "V",
        TableStats {
            rows: 50_000,
            record_bytes: 80,
            key_domain: 10_000,
        },
    );
    let logical = LogicalPlan::scan("T").join(LogicalPlan::scan("V"));

    let mut last_writes = f64::INFINITY;
    for lambda in [1.0, 4.0, 15.0, 40.0] {
        let planned = Planner::new(lambda, 1250.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        assert!(
            planned.predicted.writes <= last_writes + 1e-9,
            "predicted writes rose with λ at λ={lambda}: {} > {last_writes}",
            planned.predicted.writes
        );
        last_writes = planned.predicted.writes;
    }
}

/// The knob the planner reports for SegS tracks the Eq. 4 closed form.
#[test]
fn enumerator_reports_the_eq4_optimum_when_it_wins() {
    let mut cat = Catalog::new();
    cat.add_stats("T", TableStats::wisconsin(20_000));
    let planned = Planner::new(8.0, 2500.0, LayerKind::BlockedMemory)
        .plan(&LogicalPlan::scan("T").sort(), &cat)
        .expect("plans");
    if let SortAlgorithm::SegS { x } = sort_algo(&planned) {
        let expect = write_limited::cost::sort_costs::optimal_segment_x(25_000.0, 2500.0, 8.0)
            .expect("applicable at λ=8");
        assert!(
            (x - expect).abs() < 1e-9 || [0.2, 0.5, 0.8].iter().any(|s| (x - s).abs() < 1e-9),
            "SegS knob {x} is neither the Eq. 4 optimum {expect} nor a sweep point"
        );
    }
}

/// End-to-end acceptance shape: the chosen algorithm changes when only
/// the device's write latency changes.
#[test]
fn chosen_plan_changes_with_write_latency() {
    let mut cat = Catalog::new();
    cat.add_stats("T", TableStats::wisconsin(20_000));
    let logical = LogicalPlan::scan("T").sort();
    let m = 1250.0;
    let symmetric = Planner::with_config(
        LatencyProfile::with_lambda(10.0, 1.0).lambda(),
        m,
        LayerKind::BlockedMemory,
        &DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, 1.0)),
    )
    .plan(&logical, &cat)
    .expect("plans");
    let pcm = Planner::with_config(
        LatencyProfile::PCM.lambda(),
        m,
        LayerKind::BlockedMemory,
        &DeviceConfig::paper_default(),
    )
    .plan(&logical, &cat)
    .expect("plans");
    assert_ne!(
        sort_algo(&symmetric),
        sort_algo(&pcm),
        "write latency must steer the plan"
    );
}

/// Deferred-vs-materialized: a wide-open filter on the build side stays
/// a deferred view at high λ (writing it buys nothing), while at low λ
/// the planner materializes it.
#[test]
fn filter_deferral_tracks_lambda() {
    let mut cat = Catalog::new();
    cat.add_stats("T", TableStats::wisconsin(4_000));
    cat.add_stats(
        "V",
        TableStats {
            rows: 16_000,
            record_bytes: 80,
            key_domain: 4_000,
        },
    );
    // 95% selectivity: barely smaller than the source.
    let logical = LogicalPlan::scan("T")
        .filter(Predicate::KeyBelow(3_800))
        .join(LogicalPlan::scan("V"));

    let materialization_at = |lambda: f64| {
        let planned = Planner::new(lambda, 500.0, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        match &planned.plan {
            PhysicalPlan::Join { left, .. } => match &**left {
                PhysicalPlan::Filter {
                    materialization, ..
                } => *materialization,
                other => panic!("expected filter under join, got {}", other.label()),
            },
            other => panic!("expected join root, got {}", other.label()),
        }
    };
    assert_eq!(materialization_at(1.0), Materialization::Materialized);
    assert_eq!(materialization_at(100.0), Materialization::Deferred);
}

/// The deferred-view lowering path end-to-end: force a setting where
/// the planner defers the build filter, execute through the §3.1
/// runtime (`filtered_iterate_join`), and check the rows
/// against the naive executor.
#[test]
fn deferred_filter_plans_execute_correctly() {
    let lambda = 100.0;
    let dev = PmDevice::new(
        DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
    );
    let w = join_input(4_000, 4, 21);
    let left = Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        w.left,
    ));
    let right = Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "V",
        w.right,
    ));
    let mut cat = Catalog::new();
    cat.add_table("T", left, 4_000);
    cat.add_table("V", right, 4_000);

    // 95% selectivity at a high write cost: writing the view is waste.
    let logical = LogicalPlan::scan("T")
        .filter(Predicate::KeyBelow(3_800))
        .join(LogicalPlan::scan("V"));
    let pool = BufferPool::new(500 * 64);
    let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);
    let planned = planner.plan(&logical, &cat).expect("plans");

    let PhysicalPlan::Join { left: build, .. } = &planned.plan else {
        panic!("expected join root");
    };
    let PhysicalPlan::Filter {
        materialization, ..
    } = &**build
    else {
        panic!("expected filter under join");
    };
    assert_eq!(
        *materialization,
        Materialization::Deferred,
        "setting must exercise the deferred path"
    );
    // The evidence table must stay on one cost basis: the winner is
    // literally the cheapest row, even when the deferred view wins.
    let join_choice = planned
        .choices
        .iter()
        .find(|c| matches!(c.node, Node::Join { .. }))
        .expect("join enumerated");
    assert!(
        matches!(
            join_choice.candidates[0].what,
            Alternative::Join { deferred: true, .. }
        ),
        "{:?}",
        join_choice.candidates[0].what
    );

    let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");
    let output = run.result.all_rows();
    let reference = execute_naive(&logical, &cat).expect("naive evaluates");
    assert_eq!(output.len(), 3_800 * 4);
    assert_eq!(output.canonical(), reference.canonical());
}

/// Property test: lowering any enumerated plan executes and returns the
/// same rows as the naive DRAM executor, across random shapes, sizes,
/// predicates, λ, and layers.
#[test]
fn lowered_plans_agree_with_naive_execution() {
    let mut rng = StdRng::seed_from_u64(0x9A7);
    for case in 0..24 {
        let t_rows = rng.gen_range(200u64..1200);
        let fanout = rng.gen_range(1u64..5);
        let lambda = [1.0, 4.0, 15.0][case % 3];
        let layer = LayerKind::ALL[case % LayerKind::ALL.len()];
        let m_records = rng.gen_range(40usize..200);

        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let w = join_input(t_rows, fanout, case as u64);
        let left = Arc::new(PCollection::from_records_uncounted(
            &dev, layer, "T", w.left,
        ));
        let right = Arc::new(PCollection::from_records_uncounted(
            &dev, layer, "V", w.right,
        ));
        let sorted_t = Arc::new(PCollection::from_records_uncounted(
            &dev,
            layer,
            "S",
            sort_input(t_rows, KeyOrder::Random, case as u64 + 7),
        ));
        let mut cat = Catalog::new();
        cat.add_table("T", left, t_rows);
        cat.add_table("V", right, t_rows);
        cat.add_table("S", sorted_t, t_rows);

        let bound = rng.gen_range(1u64..t_rows);
        let shapes: [LogicalPlan; 5] = [
            LogicalPlan::scan("S").sort(),
            LogicalPlan::scan("S")
                .filter(Predicate::KeyBelow(bound))
                .sort(),
            LogicalPlan::scan("T")
                .join(LogicalPlan::scan("V"))
                .aggregate(),
            LogicalPlan::scan("T")
                .filter(Predicate::KeyBelow(bound))
                .join(LogicalPlan::scan("V"))
                .aggregate()
                .sort(),
            LogicalPlan::scan("T")
                .filter(Predicate::KeyModEq {
                    modulus: 2,
                    residue: 0,
                })
                .join(LogicalPlan::scan("V")),
        ];
        let logical = &shapes[case % shapes.len()];

        let pool = BufferPool::new(m_records * 80);
        let planner = Planner::for_device(&dev, &pool, layer);
        let planned = match planner.plan(logical, &cat) {
            Ok(p) => p,
            Err(e) => panic!("case {case}: planning failed: {e}"),
        };
        let run = match execute_stream(&planned, &cat, &dev, layer, &pool) {
            Ok(r) => r,
            Err(e) => panic!(
                "case {case}: execution failed: {e} (plan: {})",
                planned.plan.describe()
            ),
        };
        let reference = execute_naive(logical, &cat).expect("naive evaluates");
        assert_eq!(
            run.result.all_rows().canonical(),
            reference.canonical(),
            "case {case}: λ={lambda} layer={} plan:\n{}",
            layer.label(),
            planned.plan.describe()
        );
        // Sort-rooted plans must actually produce ordered keys.
        if matches!(logical, LogicalPlan::Sort { .. }) {
            let keys = run.result.all_rows().keys();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: unsorted"
            );
        }
        assert!(run.stats.cl_reads > 0, "case {case}: nothing measured");
    }
}

/// The planner's predicted traffic is in the right regime: within a
/// factor of three of measured on both axes for the canonical
/// filter-join-aggregate query (the models drop floors/ceilings, so
/// exactness is not expected — but order-of-magnitude concordance is
/// the Fig. 12 property the planner depends on).
#[test]
fn predictions_track_measurements_for_the_canonical_query() {
    let dev = PmDevice::paper_default();
    let w = join_input(4_000, 5, 11);
    let left = Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        w.left,
    ));
    let right = Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "V",
        w.right,
    ));
    let mut cat = Catalog::new();
    cat.add_table("T", left, 4_000);
    cat.add_table("V", right, 4_000);

    let logical = LogicalPlan::scan("T")
        .filter(Predicate::KeyBelow(2_000))
        .join(LogicalPlan::scan("V"))
        .aggregate();
    let pool = BufferPool::new(400 * 80);
    let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);
    let planned = planner.plan(&logical, &cat).expect("plans");
    let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");

    let pr = planned.predicted.reads;
    let pw = planned.predicted.writes;
    let mr = run.stats.cl_reads as f64;
    let mw = run.stats.cl_writes as f64;
    assert!(mr > 0.0 && mw > 0.0);
    assert!(
        (0.33..3.0).contains(&(pr / mr)),
        "read prediction off: {pr:.0} vs {mr:.0}"
    );
    assert!(
        (0.33..3.0).contains(&(pw / mw)),
        "write prediction off: {pw:.0} vs {mw:.0}"
    );
}

/// Wisconsin-record predicates route through the planner identically to
/// raw key comparisons (regression guard for the Predicate plumbing).
#[test]
fn predicate_lowering_matches_manual_filtering() {
    let dev = PmDevice::paper_default();
    let input = Arc::new(PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        sort_input(500, KeyOrder::Random, 3),
    ));
    let mut cat = Catalog::new();
    cat.add_table("T", Arc::clone(&input), 500);
    let pool = BufferPool::new(60 * 80);
    let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);

    for predicate in [
        Predicate::KeyBelow(123),
        Predicate::KeyAtLeast(456),
        Predicate::KeyModEq {
            modulus: 7,
            residue: 3,
        },
    ] {
        let logical = LogicalPlan::scan("T").filter(predicate).sort();
        let planned = planner.plan(&logical, &cat).expect("plans");
        let run =
            execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");
        let expect: Vec<WisconsinRecord> = {
            let mut v: Vec<WisconsinRecord> = input
                .to_vec_uncounted()
                .into_iter()
                .filter(|r| predicate.matches(r))
                .collect();
            v.sort_by_key(wisconsin::Record::key);
            v
        };
        let planner::OutputRows::Wis(got) = run.result.all_rows() else {
            panic!("expected base rows")
        };
        assert_eq!(got, expect, "{predicate}");
    }
}

/// `key % 0` plans nothing and evaluates nothing: the planner and the
/// oracle both return a typed error, wherever the filter sits — on a
/// base scan, on a join's build side, on one leaf of a chain, above a
/// join — and whether or not the table holds rows.
#[test]
fn a_zero_modulus_is_a_typed_error_not_a_panic() {
    let dev = PmDevice::paper_default();
    let mut cat = Catalog::new();
    for (name, rows) in [("T", 300), ("V", 300), ("E", 0)] {
        let data = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            name,
            (0..rows).map(WisconsinRecord::from_key),
        );
        cat.add_table(name, Arc::new(data), rows);
    }
    let pool = BufferPool::new(60 * 80);
    let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);
    let zero = Predicate::KeyModEq {
        modulus: 0,
        residue: 1,
    };
    let scan = LogicalPlan::scan;
    for logical in [
        scan("T").filter(zero),
        scan("E").filter(zero).sort(),
        scan("T").filter(zero).join(scan("V")),
        scan("T").join(scan("V").filter(zero)).join(scan("E")),
        scan("T").join(scan("V")).filter(zero).aggregate(),
    ] {
        let what = logical.describe();
        let err = planner.plan(&logical, &cat).expect_err(&what);
        assert!(
            matches!(&err, PlanError::Unsupported(m) if m.contains("key % 0 == 1")),
            "{what}: {err}"
        );
        let err = execute_naive(&logical, &cat).expect_err(&what);
        assert!(
            matches!(&err, ExecError::Plan(PlanError::Unsupported(_))),
            "{what}: {err}"
        );
    }
}

/// Every operator the lowering runs holds its working set once on the
/// pool the statement executes under: the build side, the deferred-σ
/// join's unfiltered source or the aggregation input when it fits the
/// budget, otherwise one refused full-size attempt and then the whole
/// budget. Each plan is planned, then forced to its operator, and run on
/// a fresh pool of the planner's budget.
#[test]
fn every_lowered_operator_holds_its_working_set_once() {
    const M: usize = 100;
    let budget = M * 80;
    let layer = LayerKind::BlockedMemory;
    let scan = LogicalPlan::scan;
    // 3M build records overflow the budget, M/2 fit it.
    for rows in [3 * M, M / 2] {
        let want = if rows > M {
            (1, 1, budget)
        } else {
            (1, 0, rows * 80)
        };
        let dev = PmDevice::paper_default();
        let w = join_input(rows as u64, 2, 5);
        let mut cat = Catalog::new();
        for (name, records) in [("T", w.left), ("V", w.right)] {
            let data = PCollection::from_records_uncounted(&dev, layer, name, records);
            cat.add_table(name, Arc::new(data), rows as u64);
        }
        let planner = Planner::for_device(&dev, &BufferPool::new(budget), layer);
        let joined = scan("T").join(scan("V"));
        let filtered = scan("T")
            .filter(Predicate::KeyBelow(rows as u64 / 2))
            .join(scan("V"));
        let grouped = scan("T").aggregate();
        let cases: [(&str, &LogicalPlan, Force); 5] = [
            ("GJ", &joined, |plan| {
                force_join(plan, JoinAlgorithm::GJ, &[]);
            }),
            ("CGJ", &joined, |plan| {
                force_join(plan, JoinAlgorithm::CGJ, &[0, 1, 2]);
            }),
            ("deferred σ", &filtered, |plan| {
                let PhysicalPlan::Join { left, .. } = plan else {
                    panic!("expected join root");
                };
                let PhysicalPlan::Filter {
                    materialization, ..
                } = &mut **left
                else {
                    panic!("expected filter under join");
                };
                *materialization = Materialization::Deferred;
            }),
            ("aggregate x = 0", &grouped, |plan| {
                force_aggregate(plan, 0.0);
            }),
            ("aggregate x = 1", &grouped, |plan| {
                force_aggregate(plan, 1.0);
            }),
        ];
        for (what, logical, force) in cases {
            let mut planned = planner.plan(logical, &cat).expect("plans");
            planned.adapt = false;
            force(&mut planned.plan);
            let pool = BufferPool::new(budget);
            let run = execute_stream(&planned, &cat, &dev, layer, &pool).expect(what);
            let reference = execute_naive(logical, &cat).expect("naive evaluates");
            assert_eq!(
                run.result.all_rows().canonical(),
                reference.canonical(),
                "{what}"
            );
            let got = (pool.reservations(), pool.exhausted(), pool.high_water());
            assert_eq!(got, want, "{what}, {rows} build records");
        }
    }
}

/// Rewrites a planned statement's root to the operator under test.
type Force = fn(&mut PhysicalPlan);

/// Forces a join root to `to` over the hot `keys`, its build side as
/// written.
fn force_join(plan: &mut PhysicalPlan, to: JoinAlgorithm, keys: &[u64]) {
    let PhysicalPlan::Join {
        algo, swapped, hot, ..
    } = plan
    else {
        panic!("expected join root");
    };
    (*algo, *swapped, *hot) = (to, false, keys.to_vec());
}

/// Forces an aggregation root to write intensity `to`.
fn force_aggregate(plan: &mut PhysicalPlan, to: f64) {
    let PhysicalPlan::Aggregate { x, .. } = plan else {
        panic!("expected aggregate root");
    };
    *x = to;
}

/// A hand-built plan node's cost annotation: the lowering reads none of
/// it with re-planning off.
const NO_COST: NodeCost = NodeCost {
    io: IoPrediction::ZERO,
    out_rows: 0.0,
    out_buffers: 0.0,
    distinct_keys: 0.0,
};

fn scan_node(table: &str) -> PhysicalPlan {
    PhysicalPlan::Scan {
        table: table.into(),
        cost: NO_COST,
    }
}

fn filter_node(input: PhysicalPlan, predicate: Predicate, deferred: bool) -> PhysicalPlan {
    PhysicalPlan::Filter {
        input: Box::new(input),
        predicate,
        selectivity: 0.5,
        materialization: if deferred {
            Materialization::Deferred
        } else {
            Materialization::Materialized
        },
        cost: NO_COST,
    }
}

/// A chain join by NLJ — which writes nothing but its output — over
/// `left` and `right` carrying payload slots `l` and `r`.
fn chain_node(
    left: PhysicalPlan,
    l: &[usize],
    right: PhysicalPlan,
    r: &[usize],
    swapped: bool,
) -> PhysicalPlan {
    PhysicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        algo: JoinAlgorithm::NLJ,
        swapped,
        chain: Some(ChainSlots {
            left: l.to_vec(),
            right: r.to_vec(),
        }),
        hot: Vec::new(),
        replanned: false,
        cost: NO_COST,
    }
}

/// Calls `visit` with every plan node and the profile span it ran
/// under: a node's children run under child spans of its labels.
fn node_spans<'t>(
    plan: &PhysicalPlan,
    span: &'t SpanNode,
    visit: &mut impl FnMut(&PhysicalPlan, &'t SpanNode),
) {
    visit(plan, span);
    let inputs: Vec<&PhysicalPlan> = match plan {
        PhysicalPlan::Scan { .. } => Vec::new(),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Aggregate { input, .. } => vec![input],
        PhysicalPlan::Join { left, right, .. } => vec![left, right],
    };
    for input in inputs {
        let label = input.label();
        let child = span.children.iter().find(|c| c.label == label);
        node_spans(input, child.expect("a span per input"), visit);
    }
}

/// Order-sensitive FNV-1a hash of every column of every row.
fn hash_rows(rows: &[Vec<u64>]) -> u64 {
    rows.iter()
        .flatten()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// What a chain join writes and what its rows are, pinned over
/// hand-built 3- and 5-way chains and a filtered star (a deferred σ, a
/// materialized one), with swapped and unswapped folds, on three layers
/// at DoP 1 and 4. Each chain join writes its output once, as the
/// 80-byte slotted rows the next join reads, and stages no second pass;
/// the rows, in the order they are produced, hash to the same value
/// everywhere and equal the naive oracle's.
#[test]
fn chain_join_rows_round_trip_through_every_layer() {
    const M: usize = 1000;
    let lines = |bytes: u64| bytes.div_ceil(64);
    let scan = LogicalPlan::scan;
    let left_deep = |names: &[&str]| {
        let mut plan = LogicalPlan::scan(names[0]);
        for &name in &names[1..] {
            plan = plan.join(LogicalPlan::scan(name));
        }
        plan
    };
    let (keep_star, keep_odd) = (
        Predicate::KeyBelow(303),
        Predicate::KeyModEq {
            modulus: 2,
            residue: 1,
        },
    );
    let star = scan("d0")
        .filter(keep_star)
        .join(scan("f"))
        .join(scan("d1").filter(keep_odd))
        .join(scan("d2"));
    let cases: [(&str, PhysicalPlan, LogicalPlan, usize, u64); 3] = [
        (
            "3-way chain",
            chain_node(
                chain_node(scan_node("t0"), &[0], scan_node("t1"), &[1], false),
                &[0, 1],
                scan_node("t2"),
                &[2],
                true,
            ),
            left_deep(&["t0", "t1", "t2"]),
            2,
            0xdddf_709b_477f_42bd,
        ),
        (
            "5-way chain",
            chain_node(
                chain_node(scan_node("t0"), &[0], scan_node("t1"), &[1], true),
                &[0, 1],
                chain_node(
                    chain_node(scan_node("t2"), &[2], scan_node("t3"), &[3], false),
                    &[2, 3],
                    scan_node("t4"),
                    &[4],
                    true,
                ),
                &[2, 3, 4],
                false,
            ),
            left_deep(&["t0", "t1", "t2", "t3", "t4"]),
            4,
            0x1f9d_bfae_d203_ef95,
        ),
        (
            "filtered star",
            chain_node(
                chain_node(
                    chain_node(
                        filter_node(scan_node("d0"), keep_star, true),
                        &[0],
                        scan_node("f"),
                        &[1],
                        false,
                    ),
                    &[0, 1],
                    filter_node(scan_node("d1"), keep_odd, false),
                    &[2],
                    true,
                ),
                &[0, 1, 2],
                scan_node("d2"),
                &[3],
                false,
            ),
            star,
            3,
            0xfaf8_95ac_e5af_ffdf,
        ),
    ];
    // (name, keys, fanout): unique-key tables, 2–4 rows a key, ≤ 2 000
    // rows; payloads distinct per table so a misplaced slot shows.
    let tables: [(&str, u64, u64); 9] = [
        ("t0", 400, 1),
        ("t1", 400, 2),
        ("t2", 400, 3),
        ("t3", 400, 1),
        ("t4", 400, 2),
        ("f", 500, 3),
        ("d0", 500, 1),
        ("d1", 500, 1),
        ("d2", 500, 1),
    ];
    for layer in [
        LayerKind::BlockedMemory,
        LayerKind::RamDisk,
        LayerKind::DynArray,
    ] {
        let dev = PmDevice::paper_default();
        let mut cat = Catalog::new();
        for (i, (name, keys, fanout)) in tables.iter().enumerate() {
            let records: Vec<WisconsinRecord> = wisconsin::join_right_input(*keys, *fanout, 3)
                .into_iter()
                .zip(0u64..)
                .map(|(r, row)| r.with_payload(((i as u64 + 1) << 32) | row))
                .collect();
            let data = PCollection::from_records_uncounted(&dev, layer, *name, records);
            cat.add_table(*name, Arc::new(data), *keys);
        }
        for (what, plan, logical, joins, want_hash) in &cases {
            let reference = execute_naive(logical, &cat).expect("naive evaluates");
            for threads in [1, 4] {
                let what = format!("{what}, {layer:?}, DoP {threads}");
                let planned = PlannedQuery {
                    plan: plan.clone(),
                    choices: Vec::new(),
                    lambda: dev.lambda(),
                    m_buffers: (M * 80 / 64) as f64,
                    threads,
                    predicted: IoPrediction::ZERO,
                    adapt: false,
                    splits_costed: 0,
                };
                let pool = BufferPool::new(M * 80);
                let run = execute_stream_profiled(&planned, &cat, &dev, layer, &pool).expect(&what);
                let rows = run.result.all_rows();
                assert_eq!(rows.canonical_wide(), reference.canonical_wide(), "{what}");
                assert_eq!(
                    hash_rows(&rows.wide_rows()),
                    *want_hash,
                    "{what}: rows hash"
                );

                let tree = run.profile.expect("profiled");
                let root = tree.find(&plan.label()).expect("a span for the root");
                let mut chain_joins = 0;
                node_spans(plan, root, &mut |node, span| {
                    let PhysicalPlan::Join { left, right, .. } = node else {
                        return;
                    };
                    chain_joins += 1;
                    let (left, right) = (left.label(), right.label());
                    assert!(
                        !span.children.iter().any(|c| c.label.starts_with("stage ")),
                        "{what}: {} stages a second pass",
                        span.label
                    );
                    let own = span.children.iter().fold(span.io, |io, c| {
                        if [&left, &right].contains(&&c.label) {
                            io.since(&c.io)
                        } else {
                            io
                        }
                    });
                    let out = span.rows.expect("rows noted");
                    if layer == LayerKind::BlockedMemory {
                        assert_eq!(own.cl_writes, lines(80 * out), "{what}: {}", span.label);
                    }
                });
                assert_eq!(chain_joins, *joins, "{what}");
            }
        }
    }
}

/// The model prices a chain join's output as the one write of its folded
/// rows: an NLJ chain node on BlockedMemory writes nothing but its
/// output, so its predicted writes are its measured writes, exactly.
/// With everything in one outer block the planner picks HybJ(0, 0),
/// which is NLJ's schedule.
#[test]
fn a_chain_nlj_node_writes_what_the_model_predicts() {
    let dev = PmDevice::paper_default();
    let layer = LayerKind::BlockedMemory;
    let mut cat = Catalog::new();
    for (i, (name, fanout)) in [("a", 1), ("b", 2), ("c", 3)].into_iter().enumerate() {
        let records = wisconsin::join_right_input(300, fanout, i as u64);
        let data = PCollection::from_records_uncounted(&dev, layer, name, records);
        cat.add_table(name, Arc::new(data), 300);
    }
    let logical = LogicalPlan::scan("a")
        .join(LogicalPlan::scan("b"))
        .join(LogicalPlan::scan("c"));
    let pool = BufferPool::new(2_000 * 80);
    let mut planned = Planner::for_device(&dev, &pool, layer)
        .plan(&logical, &cat)
        .expect("plans");
    planned.adapt = false;
    let run = execute_stream_profiled(&planned, &cat, &dev, layer, &pool).expect("runs");
    let tree = run.profile.expect("profiled");
    let root = tree
        .find(&planned.plan.label())
        .expect("a span for the root");
    let mut nlj = 0;
    node_spans(&planned.plan, root, &mut |node, span| {
        let PhysicalPlan::Join {
            left,
            right,
            algo: JoinAlgorithm::NLJ | JoinAlgorithm::HybJ { x: 0.0, y: 0.0 },
            chain: Some(_),
            cost,
            ..
        } = node
        else {
            return;
        };
        nlj += 1;
        let (left, right) = (left.label(), right.label());
        let inputs = span
            .children
            .iter()
            .filter(|c| [&left, &right].contains(&&c.label));
        let own = inputs.fold(span.io, |io, c| io.since(&c.io));
        assert_eq!(cost.io.writes, own.cl_writes as f64, "{}", span.label);
        assert_eq!(cost.out_rows, span.rows.expect("rows noted") as f64);
    });
    assert_eq!(nlj, 2, "{}", planned.plan.describe());
}

/// `ORDER BY key` over `GROUP BY key` plans no sort: sort-based
/// aggregation lands its groups in ascending key order at every write
/// intensity and DoP, so the rows arrive ordered and equal the naive
/// oracle's in order.
#[test]
fn an_aggregate_needs_no_sort_above_it() {
    let dev = PmDevice::paper_default();
    let layer = LayerKind::BlockedMemory;
    let w = join_input(2_000, 3, 9);
    let mut cat = Catalog::new();
    for (name, records) in [("T", w.left), ("V", w.right)] {
        let data = PCollection::from_records_uncounted(&dev, layer, name, records);
        cat.add_table(name, Arc::new(data), 2_000);
    }
    let logical = LogicalPlan::scan("T")
        .join(LogicalPlan::scan("V"))
        .aggregate()
        .sort();
    let reference = execute_naive(&logical, &cat).expect("naive evaluates");
    for threads in [1, 4] {
        let pool = BufferPool::new(300 * 80);
        let planner = Planner::for_device(&dev, &pool, layer).with_threads(threads);
        let mut planned = planner.plan(&logical, &cat).expect("plans");
        assert!(
            !planned.plan.describe().contains("sort via"),
            "{}",
            planned.plan.describe()
        );
        for x in [0.0, 0.5, 1.0] {
            force_aggregate(&mut planned.plan, x);
            let run = execute_stream(&planned, &cat, &dev, layer, &pool).expect("runs");
            let rows = run.result.all_rows();
            assert!(rows.keys().is_sorted(), "x = {x}, DoP {threads}");
            assert_eq!(rows, reference, "x = {x}, DoP {threads}");
        }
    }
}
