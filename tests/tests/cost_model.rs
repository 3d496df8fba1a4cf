//! Integration: the cost models rank algorithms like the simulator
//! measures them (the Fig. 12 claim, at test scale).

use pmem_sim::{BufferPool, LatencyProfile, LayerKind, PCollection, PmDevice};
use wisconsin::{join_input, sort_input, KeyOrder};
use write_limited::cost::{predict_join_io, predict_sort_io};
use write_limited::join::{JoinAlgorithm, JoinContext};
use write_limited::sort::{SortAlgorithm, SortContext};
use write_limited::stats::kendall_tau;

#[test]
fn sort_cost_model_concordance_is_high() {
    let n = 20_000u64;
    let algos = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::SegS { x: 0.8 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::SelS,
    ];
    let t = (n * 80).div_ceil(64) as f64;
    let lambda = LatencyProfile::PCM.lambda();

    for frac in [0.02, 0.05, 0.10] {
        let mut est = Vec::new();
        let mut meas = Vec::new();
        for algo in &algos {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "T",
                sort_input(n, KeyOrder::Random, 1),
            );
            let pool = BufferPool::fraction_of(input.bytes(), frac);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let before = dev.snapshot();
            algo.run(&input, &ctx, "s").expect("valid");
            let stats = dev.snapshot().since(&before);
            est.push(predict_sort_io(algo, t, t * frac, lambda).cost_units(lambda));
            meas.push(stats.time_secs(&LatencyProfile::PCM));
        }
        let tau = kendall_tau(&est, &meas).expect("defined");
        assert!(tau >= 0.5, "sort concordance at M={frac}: τ = {tau}");
    }
}

#[test]
fn join_cost_model_concordance_is_high() {
    let t_records = 4000u64;
    let fanout = 8u64;
    let algos = [
        JoinAlgorithm::NLJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.8 },
    ];
    let t = (t_records * 80).div_ceil(64) as f64;
    let v = t * fanout as f64;
    let lambda = LatencyProfile::PCM.lambda();

    for frac in [0.05, 0.10] {
        let mut est = Vec::new();
        let mut meas = Vec::new();
        for algo in &algos {
            let dev = PmDevice::paper_default();
            let w = join_input(t_records, fanout, 1);
            let left =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
            let right =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
            let pool = BufferPool::fraction_of(left.bytes(), frac);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let before = dev.snapshot();
            if algo.run(&left, &right, &ctx, "o").is_err() {
                continue;
            }
            let stats = dev.snapshot().since(&before);
            est.push(predict_join_io(algo, t, v, t * frac).cost_units(lambda));
            meas.push(stats.time_secs(&LatencyProfile::PCM));
        }
        let tau = kendall_tau(&est, &meas).expect("defined");
        assert!(tau >= 0.5, "join concordance at M={frac}: τ = {tau}");
    }
}

/// One engine-versus-model difference, pinned from both sides: the
/// block count behind `planner.pred_over_meas_reads` ≈ 0.82 on the
/// benchmark's `sql_analytic` (see the `join_costs` module docs). NLJ
/// and HybJ(0, 0) run one outer block per `Capacity::build_records`, the
/// budget left after the `f = 1.2` hash-table blow-up, so the engine
/// rescans `V` ⌈f·|T|/M⌉ times; Eqs. 1–11 charge ⌈|T|/M⌉ rescans. HJ and
/// LaJ take the engine's `k` from the same capacity.
#[test]
fn nested_loops_rescans_v_per_build_capacity_block_not_per_m() {
    use pmem_sim::Storable;
    use wisconsin::WisconsinRecord;
    use write_limited::context::Capacity;
    use write_limited::cost::join_costs::iterations;

    // |T| = 1 000 rows (1 250 buffers), |V| = 4 000 rows (5 000
    // buffers), M = 100 records (125 buffers).
    let w = join_input(1_000, 4, 7);
    let pool = BufferPool::new(100 * 80);
    let (t, v, m) = (1_250.0, 5_000.0, 125.0);
    // The model: ⌈1 250 / 125⌉ = 10 rescans of V.
    let model_k = iterations(t, m);
    assert_eq!(model_k, 10.0);
    for algo in [JoinAlgorithm::NLJ, JoinAlgorithm::HybJ { x: 0.0, y: 0.0 }] {
        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            w.left.clone(),
        );
        let right = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            w.right.clone(),
        );
        assert_eq!((left.buffers(), right.buffers()), (1_250, 5_000));
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        // The engine: blocks of ⌊⌊8 000 B / 1.2⌋ / 80 B⌋ = 83 records,
        // ⌈1 000 / 83⌉ = 13 of them — ⌈f·|T|/M⌉, not ⌈|T|/M⌉.
        let capacity = Capacity::new(pool.budget(), WisconsinRecord::SIZE);
        assert_eq!(capacity.build_records(), 83);
        let blocks = 1_000usize.div_ceil(83) as u64;
        assert_eq!(blocks, 13);
        assert_eq!(capacity.partitions(1_000.0), 13.0);
        let before = dev.snapshot();
        algo.run(&left, &right, &ctx, "out").expect("applicable");
        let reads = dev.snapshot().since(&before).cl_reads;
        // T once, V once per block, and once more each line of T a
        // block boundary splits: 83 records end 48 bytes into a
        // cacheline, so 9 of the 12 boundaries do.
        let split = (1..blocks).filter(|b| b * 83 * 80 % 64 != 0).count() as u64;
        assert_eq!(split, 9);
        assert_eq!(reads, 1_250 + blocks * 5_000 + split, "{algo}");
        let predicted = predict_join_io(&algo, t, v, m).reads;
        assert_eq!(predicted, t + model_k * v, "{algo}");
        assert_eq!(predicted, 51_250.0);
        // 51 250 / 66 259 = 0.77: the ratio the benchmark reports is
        // this gap, diluted by the plans' other nodes.
    }
}

#[test]
fn eq4_optimal_x_is_not_beaten_badly_by_the_sweep() {
    // The closed-form x* should be within 25% of the best measured x on
    // a sweep (the form drops floors/ceilings, so exactness is not
    // expected).
    let n = 20_000u64;
    let frac = 0.10;
    let t = (n * 80).div_ceil(64) as f64;
    let lambda = LatencyProfile::PCM.lambda();
    let Some(x_star) = write_limited::cost::sort_costs::optimal_segment_x(t, t * frac, lambda)
    else {
        return; // inapplicable at this λ — nothing to check
    };

    let measure = |x: f64| {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(n, KeyOrder::Random, 2),
        );
        let pool = BufferPool::fraction_of(input.bytes(), frac);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        SortAlgorithm::SegS { x }
            .run(&input, &ctx, "s")
            .expect("valid");
        dev.snapshot()
            .since(&before)
            .time_secs(&LatencyProfile::PCM)
    };

    let at_star = measure(x_star);
    let best_swept = [0.1, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .map(measure)
        .fold(f64::INFINITY, f64::min);
    assert!(
        at_star <= best_swept * 1.25,
        "x* = {x_star:.2} gives {at_star:.4}s vs best swept {best_swept:.4}s"
    );
}

/// FNV-1a over bytes, folded into a running 64-bit hash.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The model's decisions over a grid of settings, pinned as one hash:
/// the informed sort and join choices, the Eq. 6 corner, and the
/// cheapest sort and join candidate by critical path at DoP 1 and 4.
/// Only winners are pinned: non-winners may swap places at exact model
/// ties whenever the cost arithmetic is reassociated.
#[test]
fn cost_model_winners_are_pinned() {
    use write_limited::cost::{
        choose_join, choose_sort, join_candidates, join_costs, join_parallel_split,
        sort_candidates, sort_parallel_split,
    };

    let cheapest = |costs: Vec<(String, f64)>| {
        costs
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty candidate set")
            .0
    };
    let decisions = |t: f64, v: f64, m: f64, lambda: f64| {
        let mut line = format!(
            "{t} {v} {m} {lambda}: {:?} {:?} {:?}",
            choose_sort(t, m, lambda),
            choose_join(t, v, m, lambda),
            join_costs::optimal_hybrid_xy(t, v, m, lambda),
        );
        for dop in [1, 4] {
            let sort = cheapest(
                sort_candidates(t, m, lambda)
                    .into_iter()
                    .map(|a| {
                        let units = sort_parallel_split(&a, t, m, lambda).critical_path_units(dop);
                        (format!("{a:?}"), units)
                    })
                    .collect(),
            );
            let join = cheapest(
                join_candidates(t, v, m, lambda)
                    .into_iter()
                    .map(|a| {
                        let units =
                            join_parallel_split(&a, t, v, m, lambda).critical_path_units(dop);
                        (format!("{a:?}"), units)
                    })
                    .collect(),
            );
            line.push_str(&format!(" dop{dop} {sort} {join}"));
        }
        line
    };

    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut settings = 0usize;
    // |T| over 1..=10⁷ buffers in half-decade steps.
    let sizes = (0..=14).map(|i| (10f64.powf(i as f64 / 2.0)).round());
    for t in sizes {
        for ratio in [1.0, 4.0, 10.0] {
            for frac in [
                0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0,
            ] {
                let m = t * frac;
                // The sort models need M > 1 buffer.
                if m <= 1.0 {
                    continue;
                }
                for lambda in [1.0, 2.0, 3.0, 5.0, 8.0, 15.0, 25.0, 40.0] {
                    hash = fnv1a(hash, decisions(t, t * ratio, m, lambda).as_bytes());
                    settings += 1;
                }
            }
        }
    }
    // The exact Eq. 6 tie: both corners cost 36, the first one wins.
    hash = fnv1a(hash, decisions(6.0, 6.0, 1.2, 1.0).as_bytes());
    settings += 1;

    assert!(settings >= 1_900, "only {settings} settings");
    assert_eq!(
        hash, 0x5492_8A42_2983_B7F9,
        "winners moved over {settings} settings: {hash:#018x}"
    );
}
