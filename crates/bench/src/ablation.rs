//! Ablations beyond the paper's figures: the runtime-driven adaptive
//! join versus fixed knobs, cost-model-driven algorithm selection versus
//! an oracle, energy and wear, aggregation, index leaves and input order.

use crate::measure::{measure, Operator, Setting};
use crate::scale::Scale;
use crate::table::{fmt3, fmt_millions, table};
use pmem_sim::{BufferPool, LatencyProfile, PCollection, PmDevice};
use wisconsin::WisconsinRecord;
use write_limited::cost::{choose_join, choose_sort};
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;

/// Ablations A–F at `scale`, their operators fanning out to `threads`
/// workers.
pub fn ablations(scale: &Scale, threads: usize) -> String {
    let at = Setting::new(scale, threads);
    adaptive_vs_fixed(at)
        + &auto_selection(at)
        + &energy_and_wear(at)
        + &aggregation(at)
        + &index_leaf_policies(scale)
        + &input_order(at)
}

/// Adaptive (§3.1 rules) vs fixed-knob SegJ and GJ across λ.
fn adaptive_vs_fixed(at: Setting<'_>) -> String {
    let mut rows = Vec::new();
    for lambda in [2.0, 8.0, 15.0] {
        let at = Setting {
            latency: LatencyProfile::with_lambda(10.0, lambda),
            ..at
        };
        for op in [
            Operator::AdaptiveJoin,
            Operator::Join(JoinAlgorithm::SegJ { frac: 0.0 }),
            Operator::Join(JoinAlgorithm::SegJ { frac: 0.5 }),
            Operator::Join(JoinAlgorithm::SegJ { frac: 1.0 }),
            Operator::Join(JoinAlgorithm::GJ),
        ] {
            if let Some(m) = measure(op, at) {
                rows.push(vec![
                    format!("{} (λ={lambda})", op.label()),
                    fmt3(m.secs),
                    fmt_millions(m.writes),
                    fmt_millions(m.reads),
                ]);
            }
        }
    }
    table(
        "Ablation A: runtime-driven adaptive join vs fixed knobs",
        &["configuration", "time (s)", "writes (M)", "reads (M)"],
        &rows,
    )
}

/// Cost-model-driven algorithm choice vs the measured oracle: per
/// memory size, the cost model's sort and join against the fastest
/// measured of a line-up that includes them.
fn auto_selection(at: Setting<'_>) -> String {
    let scale = at.scale;
    let lambda = at.latency.lambda();
    let sort_buffers = (scale.sort_n * 80).div_ceil(64) as f64;
    let t_buf = (scale.join_t * 80).div_ceil(64) as f64;
    let v_buf = t_buf * scale.join_fanout as f64;
    let sorts = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::SegS { x: 0.8 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::SelS,
    ]
    .map(Operator::Sort);
    let joins = [
        JoinAlgorithm::NLJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
    ]
    .map(Operator::Join);

    let mut rows = Vec::new();
    for &mem in &scale.mem_fractions {
        let at = Setting { mem, ..at };
        let choices = [
            (
                "sort",
                Operator::Sort(choose_sort(sort_buffers, sort_buffers * mem, lambda)),
                &sorts[..],
            ),
            (
                "join",
                Operator::Join(choose_join(t_buf, v_buf, t_buf * mem, lambda)),
                &joins[..],
            ),
        ];
        for (kind, chosen, lineup) in choices {
            let mut best: Option<(Operator, f64)> = None;
            let mut chosen_secs = f64::NAN;
            for &op in lineup.iter().chain([&chosen]) {
                if let Some(m) = measure(op, at) {
                    if best.as_ref().is_none_or(|(_, s)| m.secs < *s) {
                        best = Some((op, m.secs));
                    }
                    if op == chosen {
                        chosen_secs = m.secs;
                    }
                }
            }
            if let Some((oracle, oracle_secs)) = best {
                rows.push(vec![
                    format!("{kind}, M={:.1}%", mem * 100.0),
                    chosen.label(),
                    fmt3(chosen_secs),
                    oracle.label(),
                    fmt3(oracle_secs),
                    fmt3(chosen_secs / oracle_secs),
                ]);
            }
        }
    }
    table(
        "Ablation B: cost-model-driven choice vs measured oracle",
        &[
            "setting",
            "chosen",
            "chosen (s)",
            "oracle",
            "oracle (s)",
            "ratio",
        ],
        &rows,
    )
}

/// Energy and endurance view of the sort line-up (§4.3: "asymmetry also
/// manifests in terms of power consumption; or device degradation").
fn energy_and_wear(at: Setting<'_>) -> String {
    use pmem_sim::{EnergyModel, IoStats, WearModel};
    let energy = EnergyModel::PCM;
    let wear = WearModel::pcm_16gib();
    let mut rows = Vec::new();
    for algo in [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.8 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ] {
        if let Some(m) = measure(Operator::Sort(algo), at) {
            let stats = IoStats {
                cl_reads: m.reads,
                cl_writes: m.writes,
                ..Default::default()
            };
            rows.push(vec![
                algo.to_string(),
                fmt3(m.secs),
                format!("{:.1}", energy.energy_uj(&stats) / 1000.0),
                format!("{:.1}", wear.repetitions_to_wearout(&stats) / 1e6),
            ]);
        }
    }
    table(
        &format!(
            "Ablation C: energy and endurance (energy asymmetry {}, M = {:.1}%)",
            energy.asymmetry(),
            at.mem * 100.0
        ),
        &[
            "algorithm",
            "time (s)",
            "energy (mJ)",
            "reps to wearout (M)",
        ],
        &rows,
    )
}

/// Write-limited aggregation (the paper's §6 extension): sort-based at
/// several intensities vs one-pass hash vs segmented hash.
fn aggregation(at: Setting<'_>) -> String {
    use wisconsin::{sort_input, KeyOrder};
    use write_limited::agg::{hash_aggregate, segmented_hash_aggregate, sort_based_aggregate};
    use write_limited::sort::SortContext;

    type Input = PCollection<WisconsinRecord>;
    let n = at.scale.sort_n / 2;
    let distinct = (n / 20).max(1);
    let mut rows = Vec::new();
    // Runs one strategy on a fresh device; it returns its group count,
    // or `None` when it does not apply.
    let mut run = |label: String, agg: &dyn Fn(&Input, &SortContext) -> Option<usize>| {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            at.layer,
            "T",
            sort_input(n, KeyOrder::FewDistinct { distinct }, at.seed),
        );
        let pool = BufferPool::fraction_of(input.bytes(), at.mem);
        let ctx = SortContext::new(&dev, at.layer, &pool).with_threads(at.threads);
        let before = dev.snapshot();
        if let Some(groups) = agg(&input, &ctx) {
            let s = dev.snapshot().since(&before);
            rows.push(vec![
                label,
                groups.to_string(),
                fmt3(s.time_secs(&at.latency)),
                fmt_millions(s.cl_writes),
                fmt_millions(s.cl_reads),
            ]);
        }
    };

    for x in [0.0, 0.5, 1.0] {
        run(format!("sort-based, x={:.0}%", x * 100.0), &|input, ctx| {
            let out = sort_based_aggregate(input, x, |r| r.payload(), ctx, "agg");
            Some(out.expect("valid").len())
        });
    }
    run("hash (one pass)".into(), &|input, ctx| {
        let out = hash_aggregate(input, |r| r.payload(), ctx, "agg");
        out.ok().map(|out| out.len())
    });
    let k = 4usize;
    for mat in [0, k] {
        run(format!("segmented hash, {mat}/{k} mat."), &|input, ctx| {
            let out = segmented_hash_aggregate(input, k, mat, |r| r.payload(), ctx, "agg");
            Some(out.expect("valid").len())
        });
    }
    table(
        &format!("Ablation D: write-limited aggregation ({n} records, {distinct} groups)"),
        &["strategy", "groups", "time (s)", "writes (M)", "reads (M)"],
        &rows,
    )
}

/// Write-limited index leaves (the paper's §6 "data structures"
/// extension): sorted vs append-order B⁺-tree leaves under a random
/// insert workload with point and range lookups.
fn index_leaf_policies(scale: &Scale) -> String {
    use wl_index::{BPlusTree, LeafPolicy};
    let n = scale.sort_n.min(200_000);
    let mut rows = Vec::new();
    for policy in [LeafPolicy::Sorted, LeafPolicy::Append] {
        let dev = PmDevice::paper_default();
        let mut tree = BPlusTree::new(&dev, 1024, policy);

        let before = dev.snapshot();
        let perm = wisconsin::Permutation::new(n, 42);
        for i in 0..n {
            tree.insert(perm.apply(i), i);
        }
        let inserts = dev.snapshot().since(&before);

        let before = dev.snapshot();
        for key in (0..n).step_by(7) {
            tree.get(key);
        }
        let lookups = dev.snapshot().since(&before);

        let before = dev.snapshot();
        let hits = tree.range(0, n / 10).len();
        let ranges = dev.snapshot().since(&before);
        assert_eq!(hits as u64, n / 10 + 1);

        let latency = LatencyProfile::PCM;
        rows.push(vec![
            format!("{policy:?}"),
            fmt3(inserts.time_secs(&latency)),
            fmt_millions(inserts.cl_writes),
            fmt3(lookups.time_secs(&latency)),
            fmt3(ranges.time_secs(&latency)),
            tree.pages().to_string(),
            tree.height().to_string(),
        ]);
    }
    table(
        &format!("Ablation E: B+-tree leaf policies ({n} random inserts)"),
        &[
            "leaf policy",
            "insert (s)",
            "insert writes (M)",
            "lookups (s)",
            "range (s)",
            "pages",
            "height",
        ],
        &rows,
    )
}

/// Input-order sensitivity: replacement selection produces one long run
/// on presorted input (write-limited for free), while reverse order is
/// its worst case — context for the paper's random-permutation default.
fn input_order(at: Setting<'_>) -> String {
    use wisconsin::{sort_input, KeyOrder};
    use write_limited::sort::SortContext;

    let n = at.scale.sort_n / 2;
    let orders: [(&str, KeyOrder); 4] = [
        ("random", KeyOrder::Random),
        ("sorted", KeyOrder::Sorted),
        ("reverse", KeyOrder::Reverse),
        (
            "nearly sorted (1%)",
            KeyOrder::NearlySorted { disorder: 0.01 },
        ),
    ];
    let mut rows = Vec::new();
    for (label, order) in orders {
        for algo in [SortAlgorithm::ExMS, SortAlgorithm::SegS { x: 0.5 }] {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                at.layer,
                "T",
                sort_input(n, order, at.seed),
            );
            let pool = BufferPool::fraction_of(input.bytes(), at.mem);
            let ctx = SortContext::new(&dev, at.layer, &pool).with_threads(at.threads);
            let before = dev.snapshot();
            let out = algo.run(&input, &ctx, "sorted").expect("valid");
            let s = dev.snapshot().since(&before);
            assert_eq!(out.len() as u64, n);
            rows.push(vec![
                format!("{algo} / {label}"),
                fmt3(s.time_secs(&at.latency)),
                fmt_millions(s.cl_writes),
                fmt_millions(s.cl_reads),
            ]);
        }
    }
    table(
        &format!(
            "Ablation F: input-order sensitivity ({n} records, M = {:.1}%)",
            at.mem * 100.0
        ),
        &["algorithm / order", "time (s)", "writes (M)", "reads (M)"],
        &rows,
    )
}
