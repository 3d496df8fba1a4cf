//! Integration: every join algorithm × every persistence layer agrees
//! with the reference in-memory join, pair for pair.

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use wisconsin::{join_input, join_input_skewed, WisconsinRecord};
use write_limited::adaptive::adaptive_grace_join;
use write_limited::join::{JoinAlgorithm, JoinContext};

fn algorithms() -> Vec<JoinAlgorithm> {
    vec![
        JoinAlgorithm::NLJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::HybJ { x: 0.4, y: 0.6 },
        JoinAlgorithm::SegJ { frac: 0.4 },
        JoinAlgorithm::LaJ,
        JoinAlgorithm::SMJ { x: 0.3 },
    ]
}

/// Sorted multiset of (left key, right payload) pairs.
fn pair_set(
    out: &PCollection<wisconsin::Pair<WisconsinRecord, WisconsinRecord>>,
) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = out
        .to_vec_uncounted()
        .iter()
        .map(|p| (p.left.attrs[0], p.right.attrs[1]))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn all_algorithms_all_layers_agree() {
    let reference: Vec<(u64, u64)> = {
        let mut v: Vec<(u64, u64)> = (0..1500u64).map(|i| (i % 300, i)).collect();
        v.sort_unstable();
        v
    };
    for layer in LayerKind::ALL {
        for algo in algorithms() {
            let dev = PmDevice::paper_default();
            let w = join_input(300, 5, 55);
            let left = PCollection::from_records_uncounted(&dev, layer, "T", w.left);
            let right = PCollection::from_records_uncounted(&dev, layer, "V", w.right);
            let pool = BufferPool::new(60 * 80);
            let ctx = JoinContext::new(&dev, layer, &pool);
            let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
            assert_eq!(pair_set(&out), reference, "{} on {}", algo, layer.label());
        }
    }
}

#[test]
fn skewed_workloads_join_correctly() {
    for algo in algorithms() {
        let dev = PmDevice::paper_default();
        let w = join_input_skewed(200, 2000, 1.0, 12);
        // Reference from the generated inputs themselves.
        let mut reference: Vec<(u64, u64)> =
            w.right.iter().map(|r| (r.attrs[0], r.attrs[1])).collect();
        reference.sort_unstable();

        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(50 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
        assert_eq!(pair_set(&out), reference, "{algo}");
    }
}

#[test]
fn duplicate_build_keys_produce_cross_products() {
    // 3 copies of each key on the left × 2 on the right = 6 per key.
    for algo in algorithms() {
        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            (0..150u64).map(|i| WisconsinRecord::from_key(i % 50).with_payload(i)),
        );
        let right = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            (0..100u64).map(|i| WisconsinRecord::from_key(i % 50).with_payload(1000 + i)),
        );
        let pool = BufferPool::new(40 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
        assert_eq!(out.len(), 300, "{algo}");
    }
}

#[test]
fn empty_inputs_yield_empty_output() {
    for algo in algorithms() {
        let dev = PmDevice::paper_default();
        let empty: PCollection<WisconsinRecord> =
            PCollection::new(&dev, LayerKind::BlockedMemory, "E");
        let some = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "S",
            (0..20).map(WisconsinRecord::from_key),
        );
        let pool = BufferPool::new(100 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&empty, &some, &ctx, "o").expect("applicable");
        assert!(out.is_empty(), "{algo} (empty left)");
        let out = algo.run(&some, &empty, &ctx, "o2").expect("applicable");
        assert!(out.is_empty(), "{algo} (empty right)");
    }
}

#[test]
fn adaptive_join_agrees_with_fixed_algorithms() {
    let dev = PmDevice::paper_default();
    let w = join_input(300, 5, 55);
    let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
    let right = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
    let pool = BufferPool::new(60 * 80);
    let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let (adaptive, _) = adaptive_grace_join(&left, &right, &ctx, "a").expect("applicable");
    let grace = JoinAlgorithm::GJ
        .run(&left, &right, &ctx, "g")
        .expect("applicable");
    assert_eq!(pair_set(&adaptive), pair_set(&grace));
}

#[test]
fn write_profile_ordering_matches_the_paper() {
    // HJ rewrites the shrinking remainder every iteration; LaJ avoids
    // nearly all of it; NLJ writes only the output.
    let run = |algo: JoinAlgorithm| {
        let dev = PmDevice::paper_default();
        let w = join_input(2000, 10, 42);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::fraction_of(left.bytes(), 0.05);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        algo.run(&left, &right, &ctx, "out").expect("applicable");
        dev.snapshot().since(&before)
    };
    let nlj = run(JoinAlgorithm::NLJ);
    let laj = run(JoinAlgorithm::LaJ);
    let gj = run(JoinAlgorithm::GJ);
    let hj = run(JoinAlgorithm::HJ);

    assert!(nlj.cl_writes < laj.cl_writes);
    assert!(laj.cl_writes < gj.cl_writes);
    assert!(gj.cl_writes < hj.cl_writes);
    // And the read side inverts for the lazy/read-only strategies.
    assert!(nlj.cl_reads > gj.cl_reads);
    assert!(laj.cl_reads > hj.cl_reads);
}
