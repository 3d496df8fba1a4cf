//! Integration + property tests for the §6 extensions: aggregation,
//! the B⁺-tree index, and plan-level deferral.

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use wisconsin::{Record as _, WisconsinRecord};
use wl_index::{BPlusTree, LeafPolicy};
use write_limited::agg::{
    hash_aggregate, segmented_hash_aggregate, sort_based_aggregate, GroupAgg,
};
use write_limited::join::{JoinContext, Pairs};
use write_limited::pipeline::filtered_iterate_join;
use write_limited::sort::{SortAlgorithm, SortContext};

fn reference_agg(keys: &[(u64, u64)]) -> BTreeMap<u64, GroupAgg> {
    let mut map = BTreeMap::new();
    for &(k, v) in keys {
        map.entry(k)
            .and_modify(|g: &mut GroupAgg| g.fold(v))
            .or_insert_with(|| GroupAgg::seed(k, v));
    }
    map
}

/// Every aggregation strategy computes identical group state
/// (deterministic seeded sampling; see `props.rs` for the rationale).
#[test]
fn aggregation_strategies_agree() {
    let mut rng = StdRng::seed_from_u64(0xA66);
    for case in 0..32 {
        let n = rng.gen_range(1usize..300);
        let pairs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..60), rng.gen_range(0u64..1000)))
            .collect();
        let x = rng.gen::<f64>();
        let materialized = rng.gen_range(0usize..4);

        let expect = reference_agg(&pairs);
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            pairs
                .iter()
                .map(|&(k, v)| WisconsinRecord::from_key(k).with_payload(v)),
        );
        let pool = BufferPool::new(64 * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);

        let sort_out =
            sort_based_aggregate(&input, x, |r| r.payload(), &ctx, "s").expect("valid x");
        let got: BTreeMap<u64, GroupAgg> = sort_out
            .to_vec_uncounted()
            .into_iter()
            .map(|g| (g.key, g))
            .collect();
        assert_eq!(got, expect, "case {case}: sort-based");

        let seg_out = segmented_hash_aggregate(&input, 4, materialized, |r| r.payload(), &ctx, "g")
            .expect("valid");
        let got: BTreeMap<u64, GroupAgg> = seg_out
            .to_vec_uncounted()
            .into_iter()
            .map(|g| (g.key, g))
            .collect();
        assert_eq!(got, expect, "case {case}: segmented hash");

        if let Ok(hash_out) = hash_aggregate(&input, |r| r.payload(), &ctx, "h") {
            let got: BTreeMap<u64, GroupAgg> = hash_out
                .to_vec_uncounted()
                .into_iter()
                .map(|g| (g.key, g))
                .collect();
            assert_eq!(got, expect, "case {case}: hash");
        }
    }
}

/// Both leaf policies behave exactly like a BTreeMap under random
/// insert/overwrite workloads, including range scans.
#[test]
fn btree_matches_model() {
    let mut rng = StdRng::seed_from_u64(0xBEE);
    for case in 0..32 {
        let n_ops = rng.gen_range(1usize..400);
        let ops: Vec<(u64, u64)> = (0..n_ops)
            .map(|_| (rng.gen_range(0u64..500), rng.gen::<u64>()))
            .collect();
        let policy = [LeafPolicy::Sorted, LeafPolicy::Append][case % 2];
        let lo = rng.gen_range(0u64..250);
        let span = rng.gen_range(0u64..250);

        let dev = PmDevice::paper_default();
        let mut tree = BPlusTree::new(&dev, 256, policy);
        let mut model = BTreeMap::new();
        for &(k, v) in &ops {
            assert_eq!(
                tree.insert(k, v),
                model.insert(k, v),
                "case {case}: insert {k}"
            );
        }
        assert_eq!(tree.len(), model.len(), "case {case}");
        for k in 0..500 {
            assert_eq!(tree.get(k), model.get(&k).copied(), "case {case}: get {k}");
        }
        let hi = lo + span;
        let got = tree.range(lo, hi);
        let expect: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, expect, "case {case}: range {lo}..={hi}");
    }
}

#[test]
fn append_leaves_save_writes_across_page_sizes() {
    for page_size in [256usize, 512, 1024, 4096] {
        let run = |policy| {
            let dev = PmDevice::paper_default();
            let mut t = BPlusTree::new(&dev, page_size, policy);
            let perm = wisconsin::Permutation::new(3000, 5);
            let before = dev.snapshot();
            for i in 0..3000 {
                t.insert(perm.apply(i), i);
            }
            dev.snapshot().since(&before).cl_writes
        };
        let sorted = run(LeafPolicy::Sorted);
        let append = run(LeafPolicy::Append);
        assert!(
            append < sorted,
            "page {page_size}: append {append} !< sorted {sorted}"
        );
    }
}

#[test]
fn pipeline_filter_join_respects_selectivity() {
    let dev = PmDevice::paper_default();
    let w = wisconsin::join_input(500, 4, 8);
    let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
    let right = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
    let pool = BufferPool::new(50 * 80);
    let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let (out, _) =
        filtered_iterate_join(&left, |r| r.key() < 100, 0.2, &right, &Pairs, &ctx, "out")
            .expect("applicable");
    assert_eq!(out.len(), 400); // 100 surviving keys × fanout 4
    assert!(out.to_vec_uncounted().iter().all(|p| p.left.key() < 100));
}

#[test]
fn group_agg_is_a_valid_record_for_downstream_operators() {
    // Aggregation output can itself be sorted — operators compose.
    let dev = PmDevice::paper_default();
    let input = PCollection::from_records_uncounted(
        &dev,
        LayerKind::BlockedMemory,
        "T",
        (0..1000u64).map(|i| WisconsinRecord::from_key(i % 37).with_payload(i)),
    );
    let pool = BufferPool::new(64 * 80);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let groups = hash_aggregate(&input, |r| r.payload(), &ctx, "g").expect("fits");
    let agg_ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let sorted = SortAlgorithm::ExMS
        .run(&groups, &agg_ctx, "sorted-groups")
        .expect("sorts");
    assert_eq!(sorted.len(), 37);
    assert!(write_limited::sort::is_sorted_by_key(&sorted));
}
