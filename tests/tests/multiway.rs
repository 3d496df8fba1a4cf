//! Multi-way join integration tests: the DP join-order search end to
//! end — 3–5 relation chains plan, lower, and execute to exactly the
//! rows the n-way naive oracle produces, at any degree of parallelism.

use planner::{
    execute_naive, execute_stream, Alternative, Catalog, LogicalPlan, Node, PhysicalPlan,
    PlannedQuery, Planner, Predicate, TableStats,
};
use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, PCollection, Pm, PmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wisconsin::WisconsinRecord;

/// Builds a catalog of `n` joinable tables: table `i` has
/// `keys × fanout[i]` rows over the shared key domain `[0, keys)`.
fn chain_catalog(dev: &Pm, keys: u64, fanouts: &[u64], seed: u64) -> (Catalog, Vec<String>) {
    let mut cat = Catalog::new();
    let mut names = Vec::new();
    for (i, &fanout) in fanouts.iter().enumerate() {
        let name = format!("t{i}");
        let records: Vec<WisconsinRecord> = if fanout == 1 {
            wisconsin::sort_input(keys, wisconsin::KeyOrder::Random, seed + i as u64)
        } else {
            wisconsin::join_right_input(keys, fanout, seed + i as u64)
        };
        let col = Arc::new(PCollection::from_records_uncounted(
            dev,
            LayerKind::BlockedMemory,
            &name,
            records,
        ));
        cat.add_table(&name, col, keys);
        names.push(name);
    }
    (cat, names)
}

fn left_deep(names: &[String]) -> LogicalPlan {
    let mut plan = LogicalPlan::scan(&names[0]);
    for name in &names[1..] {
        plan = plan.join(LogicalPlan::scan(name));
    }
    plan
}

#[test]
fn three_way_chain_matches_the_naive_oracle() {
    let dev = PmDevice::paper_default();
    let (cat, names) = chain_catalog(&dev, 500, &[1, 3, 2], 7);
    let logical = left_deep(&names);
    let pool = BufferPool::new(400 * 80);
    let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);
    let planned = planner.plan(&logical, &cat).expect("plans");

    // The root must be a chain join covering all three relations.
    let PhysicalPlan::Join {
        chain: Some(slots), ..
    } = &planned.plan
    else {
        panic!("expected a chain join root, got {}", planned.plan.label());
    };
    assert_eq!(slots.tables(), 3);

    let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");
    let output = run.result.all_rows();
    let reference = execute_naive(&logical, &cat).expect("naive evaluates");
    assert_eq!(output.len(), 500 * 3 * 2, "fanout product");
    assert_eq!(output.canonical_wide(), reference.canonical_wide());
}

#[test]
fn filters_sorts_and_aggregates_compose_over_chains() {
    let dev = PmDevice::paper_default();
    let (cat, names) = chain_catalog(&dev, 400, &[1, 2, 1, 2], 3);
    let pool = BufferPool::new(500 * 80);
    let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);

    // Pushed filter + post-join filter + sort above a 4-way chain.
    let filtered = LogicalPlan::scan(&names[0])
        .filter(Predicate::KeyBelow(250))
        .join(LogicalPlan::scan(&names[1]))
        .join(LogicalPlan::scan(&names[2]))
        .join(LogicalPlan::scan(&names[3]))
        .filter(Predicate::KeyModEq {
            modulus: 2,
            residue: 0,
        })
        .sort();
    let planned = planner.plan(&filtered, &cat).expect("plans");
    let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");
    let output = run.result.all_rows();
    let reference = execute_naive(&filtered, &cat).expect("naive evaluates");
    assert_eq!(output.canonical_wide(), reference.canonical_wide());
    let keys = output.keys();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "sorted output");

    // Aggregation over the chain groups by key and folds the last
    // relation's payload, exactly as the oracle does.
    let agged = left_deep(&names).aggregate().sort();
    let planned = planner.plan(&agged, &cat).expect("plans");
    let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");
    let output = run.result.all_rows();
    let reference = execute_naive(&agged, &cat).expect("naive evaluates");
    assert_eq!(output.canonical_wide(), reference.canonical_wide());
    assert_eq!(output.len(), 400);
}

/// Property loop: randomized 3–5 relation chains across λ, DRAM budget,
/// fanouts, and filters — lowered rows must match the n-way oracle
/// bit-for-bit, and re-executing the same plan at DoP 4 must leave both
/// the rows and the simulated counters unchanged.
#[test]
fn random_chains_agree_with_naive_at_any_dop() {
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    for case in 0..12 {
        let n = rng.gen_range(3usize..6);
        let keys = rng.gen_range(100u64..400);
        let fanouts: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..4)).collect();
        let lambda = [1.0, 4.0, 15.0][case % 3];
        let m_records = rng.gen_range(150usize..500);

        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let (cat, names) = chain_catalog(&dev, keys, &fanouts, 11 + case as u64);
        let mut logical = LogicalPlan::scan(&names[0]);
        if case % 2 == 0 {
            logical = logical.filter(Predicate::KeyBelow(keys / 2));
        }
        for name in &names[1..] {
            logical = logical.join(LogicalPlan::scan(name));
        }

        let pool = BufferPool::new(m_records * 80);
        let planner = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory);
        let planned = match planner.plan(&logical, &cat) {
            Ok(p) => p,
            Err(e) => panic!("case {case} (n={n}, keys={keys}, M={m_records}): {e}"),
        };
        let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let reference = execute_naive(&logical, &cat).expect("naive evaluates");
        assert_eq!(
            run.result.all_rows().canonical_wide(),
            reference.canonical_wide(),
            "case {case} diverges from the oracle"
        );

        // Same plan at DoP 4 on a fresh device: identical rows and
        // identical simulated counters (parallelism buys time only).
        let dev4 = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let (cat4, _) = chain_catalog(&dev4, keys, &fanouts, 11 + case as u64);
        let planned4 = PlannedQuery {
            threads: 4,
            ..planned.clone()
        };
        let run4 = execute_stream(&planned4, &cat4, &dev4, LayerKind::BlockedMemory, &pool)
            .unwrap_or_else(|e| panic!("case {case} at DoP 4: {e}"));
        assert_eq!(
            run4.result.all_rows().canonical_wide(),
            run.result.all_rows().canonical_wide(),
            "case {case}: rows changed with DoP"
        );
        assert_eq!(
            run4.stats, run.stats,
            "case {case}: counters changed with DoP"
        );
    }
}

/// The DP prefers shrinking intermediate results: with one tiny filtered
/// relation and two large ones, the chosen order must join through the
/// tiny relation before the large-large edge is ever materialized.
#[test]
fn order_search_exploits_selective_relations() {
    let mut cat = Catalog::new();
    cat.add_stats("small", TableStats::wisconsin(500));
    cat.add_stats("big1", TableStats::wisconsin(40_000));
    cat.add_stats("big2", TableStats::wisconsin(40_000));
    // SQL order deliberately lists the two big relations first.
    let logical = LogicalPlan::scan("big1")
        .join(LogicalPlan::scan("big2"))
        .join(LogicalPlan::scan("small"));
    let planned = Planner::new(15.0, 2500.0, LayerKind::BlockedMemory)
        .plan(&logical, &cat)
        .expect("plans");
    let order = planned
        .choices
        .iter()
        .find(|c| matches!(c.node, Node::Order { .. }))
        .expect("order summary");
    // big1, big2 and small are relations 0, 1 and 2: the naive SQL order
    // is ((big1 ⋈ big2) ⋈ small).
    assert_ne!(
        order.candidates[0].what,
        Alternative::Order {
            left: 0b011,
            right: 0b100
        },
        "the naive SQL order must lose to a small-first order"
    );
}
