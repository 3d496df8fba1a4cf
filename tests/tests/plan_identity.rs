//! Plan-identity corpus: a seeded generator of planning cases whose
//! full output — chosen plan, predicted traffic bit for bit, every
//! candidate row — is pinned line by line in
//! `tests/golden/plan_corpus.out`. An enumerator refactor that claims
//! "same plans, same evidence" must leave that file byte-identical.
//!
//! Three families: *planned* cases go through `Planner::plan` over 2–8
//! relations with mixed sizes, uniform and Zipf statistics, filters,
//! λ, DRAM budgets, DoP and layers; *re-planned* cases execute a small
//! chain whose catalog misestimates the first join, so the executor
//! re-enters the join-order search the way `replan_remaining` does (a
//! multi-slot intermediate plus the remaining base relations);
//! *executed* cases run small plans over real data on three layers at
//! DoP 1 and 4 and pin what the lowering charges — measured reads,
//! writes, software time and calls — beside the rows it produced.
//!
//! Regenerate with `WL_BLESS=1 cargo test -p wl-tests --test plan_identity`.

use planner::{
    execute_stream, render_choices, render_plan, Catalog, LogicalPlan, Materialization,
    PhysicalPlan, PlannedQuery, Planner, Predicate, TableStats,
};
use pmem_sim::{BufferPool, IoStats, LayerKind, PCollection, Pm, PmDevice};
use std::fmt::Write as _;
use std::sync::Arc;
use wisconsin::{Record, WisconsinRecord};
use wl_tests::SplitMix as Rng;
use write_limited::cost::IoPrediction;
use write_limited::stats::TableStatistics;

const PLANNED_CASES: u64 = 320;
const REPLANNED_CASES: u64 = 32;
/// Executed plan shapes; each runs on every [`EXECUTED_LAYERS`] × DoP.
const EXECUTED_CASES: u64 = 24;
const EXECUTED_LAYERS: [LayerKind; 3] = [
    LayerKind::BlockedMemory,
    LayerKind::RamDisk,
    LayerKind::DynArray,
];
const EXECUTED_DOPS: [usize; 2] = [1, 4];
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/plan_corpus.out");

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const SIZES: [u64; 5] = [0, 1, 100, 1_000, 50_000];

/// Zipf(1.2) tables, one per size, built once and shared by every case:
/// bound data plus the sketch the ingest path would attach.
struct ZipfTable {
    data: Arc<PCollection<WisconsinRecord>>,
    statistics: Arc<TableStatistics>,
    key_domain: u64,
}

fn zipf_tables(dev: &Pm) -> Vec<ZipfTable> {
    SIZES
        .iter()
        .map(|&rows| {
            let records = wisconsin::skewed_input(rows, 4, 1.2, 0xC0FFEE ^ rows);
            let keys: Vec<u64> = records.iter().map(Record::key).collect();
            ZipfTable {
                data: Arc::new(PCollection::from_records_uncounted(
                    dev,
                    LayerKind::BlockedMemory,
                    "zipf",
                    records,
                )),
                statistics: Arc::new(TableStatistics::build(&keys, 42)),
                key_domain: (rows / 4).max(1),
            }
        })
        .collect()
}

fn render(planned: &PlannedQuery) -> String {
    let text = format!("{}{}", render_plan(planned), render_choices(planned));
    let candidates: usize = planned.choices.iter().map(|c| c.candidates.len()).sum();
    format!(
        "{} | reads={:016x} writes={:016x} cands={candidates} hash={:016x}",
        planned.plan.describe().trim_end().replace('\n', " / "),
        planned.predicted.reads.to_bits(),
        planned.predicted.writes.to_bits(),
        fnv1a(&text),
    )
}

/// One `Planner::plan` case, fully drawn from `seed`.
fn planned_case(seed: u64, zipf: &[ZipfTable]) -> String {
    let mut rng = Rng(seed);
    let n = 2 + rng.below(7) as usize;
    // One case in four joins large relations only, under a budget no
    // build side fits and a cheap-write medium: where the Grace family
    // — and with skew the guided join — wins instead of nested loops
    // over a tiny intermediate.
    let large_only = rng.below(4) == 0;
    let (sizes, lambdas, budgets): (&[usize], &[f64], &[f64]) = if large_only {
        (&[3, 4], &[1.0, 5.0], &[200.0, 400.0, 800.0])
    } else {
        (
            &[0, 1, 2, 3, 4],
            &[1.0, 5.0, 15.0, 100.0],
            &[2.0, 16.0, 200.0, 3_125.0, 20_000.0, 70_000.0],
        )
    };
    let lambda = rng.pick(lambdas);
    let m_buffers = rng.pick(budgets);
    let threads = rng.pick(&[1usize, 4]);
    let layer = rng.pick(&[LayerKind::BlockedMemory, LayerKind::RamDisk]);

    let mut cat = Catalog::new();
    let mut leaves = Vec::new();
    for i in 0..n {
        let name = format!("r{i}");
        let size = rng.pick(sizes);
        let rows = SIZES[size];
        let key_domain = match rng.below(3) {
            0 => {
                let z = &zipf[size];
                cat.add_table_with_statistics(
                    &name,
                    Arc::clone(&z.data),
                    z.key_domain,
                    Arc::clone(&z.statistics),
                );
                z.key_domain
            }
            kind => {
                let key_domain = if kind == 1 { rows } else { (rows / 4).max(1) };
                cat.add_stats(
                    &name,
                    TableStats {
                        rows,
                        record_bytes: 80,
                        key_domain,
                    },
                );
                key_domain
            }
        };
        let mut leaf = LogicalPlan::scan(&name);
        // The deferred-σ arm only exists for the build side of a split,
        // which the lowest relation of a subset always is: filter r0
        // more often than the rest.
        let filter_odds = if i == 0 { 2 } else { 5 };
        if rng.below(filter_odds) == 0 {
            let d = key_domain.max(1);
            let predicate = match rng.below(5) {
                0 => Predicate::KeyBelow((d / 100).max(1)),
                1 => Predicate::KeyBelow(d - d / 10),
                2 => Predicate::KeyAtLeast(d / 2),
                3 => Predicate::KeyAtLeast(d / 20),
                _ => Predicate::KeyModEq {
                    modulus: 2 + rng.below(6),
                    residue: 1,
                },
            };
            leaf = leaf.filter(predicate);
        }
        // Rarely a blocking leaf, so leaf evidence interleaves with the
        // join evidence.
        match rng.below(16) {
            0 => leaf = leaf.sort(),
            1 => leaf = leaf.aggregate(),
            _ => {}
        }
        leaves.push(leaf);
    }

    // Left-deep, right-deep or a random bushy shape: the search must
    // not care, the leaf order is what it sees.
    let mut logical = match rng.below(3) {
        0 => leaves
            .into_iter()
            .reduce(LogicalPlan::join)
            .expect("at least two leaves"),
        1 => leaves
            .into_iter()
            .rev()
            .reduce(|right, left| left.join(right))
            .expect("at least two leaves"),
        _ => {
            while leaves.len() > 1 {
                let at = rng.below(leaves.len() as u64 - 1) as usize;
                let right = leaves.remove(at + 1);
                let left = leaves.remove(at);
                leaves.insert(at, left.join(right));
            }
            leaves.pop().expect("one plan left")
        }
    };
    match rng.below(6) {
        0 => logical = logical.sort(),
        1 => logical = logical.aggregate(),
        _ => {}
    }

    let planner = Planner::new(lambda, m_buffers, layer).with_threads(threads);
    let head =
        format!("planned seed={seed:#x} n={n} λ={lambda} M={m_buffers} dop={threads} {layer:?}");
    match planner.plan(&logical, &cat) {
        Ok(planned) => format!("{head} | {}", render(&planned)),
        Err(e) => format!("{head} | error: {e}"),
    }
}

fn table_from_keys(
    dev: &Pm,
    layer: LayerKind,
    name: &str,
    keys: &[u64],
) -> Arc<PCollection<WisconsinRecord>> {
    Arc::new(PCollection::from_records_uncounted(
        dev,
        layer,
        name,
        keys.iter()
            .enumerate()
            .map(|(i, &k)| WisconsinRecord::from_key(k).with_payload(i as u64)),
    ))
}

/// One executed case: at least two relations repeat a few keys many
/// times under a catalog that claims every key unique, so a first join
/// involving one of them drifts ≥ 6× and the executor re-enumerates the
/// rest — the intermediate (two or more slots) plus 1–4 base relations.
fn replanned_case(seed: u64) -> String {
    let mut rng = Rng(seed);
    let dev = PmDevice::paper_default();
    let hot_keys = 8 + rng.below(8);
    let extras = 1 + rng.below(4) as usize;
    let threads = rng.pick(&[1usize, 4]);
    let dram_records = rng.pick(&[40usize, 300, 5_000]);

    let mut cat = Catalog::new();
    let mut leaves = Vec::new();
    for i in 0..extras + 2 {
        let name = format!("t{i}");
        // The first two relations always repeat their keys under a
        // catalog entry that claims them unique; the rest do half the
        // time, and otherwise are what the catalog says.
        let keys: Vec<u64> = if i < 2 || rng.below(2) == 0 {
            let copies = 6 + rng.below(6);
            (0..hot_keys * copies).map(|k| k % hot_keys).collect()
        } else {
            (0..hot_keys * (1 + rng.below(3))).collect()
        };
        cat.add_table(
            &name,
            table_from_keys(&dev, LayerKind::BlockedMemory, &name, &keys),
            keys.len() as u64,
        );
        let mut leaf = LogicalPlan::scan(&name);
        if i >= 2 && rng.below(3) == 0 {
            leaf = leaf.filter(Predicate::KeyBelow(hot_keys / 2 + rng.below(hot_keys)));
        }
        leaves.push(leaf);
    }
    // Rotate so the skewed pair is not always the lowest two relations.
    let rotate = rng.below(leaves.len() as u64) as usize;
    leaves.rotate_left(rotate);
    let logical = leaves
        .into_iter()
        .reduce(LogicalPlan::join)
        .expect("at least three leaves");

    let pool = BufferPool::new(dram_records * 80);
    let planned = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory)
        .with_threads(threads)
        .plan(&logical, &cat)
        .expect("plans");
    let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool).expect("runs");
    let head = format!(
        "replanned seed={seed:#x} n={} M={dram_records}rec dop={threads}",
        extras + 2
    );
    match run.adapted {
        Some(adapted) => {
            let effective = PlannedQuery {
                predicted: adapted.plan.total_io(),
                plan: adapted.plan,
                choices: adapted.choices,
                ..planned
            };
            format!(
                "{head} | est={} obs={} | {}",
                adapted.estimated_rows,
                adapted.observed_rows,
                render(&effective)
            )
        }
        None => format!("{head} | no drift | {}", render(&planned)),
    }
}

/// Keys of one executed-case table: `rows` records over a domain of
/// `rows / copies` keys, in a seeded order.
fn drawn_keys(rng: &mut Rng, rows: u64, copies: u64) -> Vec<u64> {
    let domain = (rows / copies).max(1);
    let mut keys: Vec<u64> = (0..rows).map(|i| i % domain).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys
}

fn drawn_predicate(rng: &mut Rng, domain: u64) -> Predicate {
    let d = domain.max(1);
    match rng.below(4) {
        0 => Predicate::KeyBelow(d / 4 + rng.below(d)),
        1 => Predicate::KeyAtLeast(rng.below(d / 2 + 1)),
        2 => Predicate::KeyBelow(d - d / 10),
        _ => Predicate::KeyModEq {
            modulus: 2 + rng.below(5),
            residue: rng.below(2),
        },
    }
}

/// What a plan's output rows are: the arm of the lowering's filter
/// that would stage them.
fn shape(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::Scan { .. } => "rows",
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Sort { input, .. } => shape(input),
        PhysicalPlan::Join { chain: None, .. } => "pairs",
        PhysicalPlan::Join { chain: Some(_), .. } => "chain",
        PhysicalPlan::Aggregate { .. } => "groups",
    }
}

/// The landings a plan's lowering runs, in pre-order: a filter over
/// each shape, a deferred σ, and chain folds with and without swapped
/// sides (a deferred σ's join never swaps).
fn arms(plan: &PhysicalPlan, out: &mut Vec<String>) {
    match plan {
        PhysicalPlan::Scan { .. } => {}
        PhysicalPlan::Filter { input, .. } => {
            out.push(format!("σ{}", shape(input)));
            arms(input, out);
        }
        PhysicalPlan::Sort { input, .. } | PhysicalPlan::Aggregate { input, .. } => {
            arms(input, out);
        }
        PhysicalPlan::Join {
            left,
            right,
            swapped,
            chain,
            ..
        } => {
            let deferred = match &**left {
                PhysicalPlan::Filter {
                    input,
                    materialization: Materialization::Deferred,
                    ..
                } => {
                    out.push("σdeferred".into());
                    arms(input, out);
                    true
                }
                _ => {
                    arms(left, out);
                    false
                }
            };
            arms(right, out);
            if chain.is_some() {
                let swapped = *swapped && !deferred;
                out.push(if swapped { "fold-swapped" } else { "fold" }.into());
            }
        }
    }
}

/// Hash of a result's canonical rows, every column.
fn rows_hash(rows: &[Vec<u64>]) -> u64 {
    rows.iter()
        .flat_map(|row| std::iter::once(row.len() as u64).chain(row.iter().copied()))
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// One executed run: its corpus line and, for a run that completed, its
/// layer, the plan that ran and what it measured.
struct Run {
    line: String,
    ran: Option<(LayerKind, PhysicalPlan, IoStats)>,
}

/// Nodes in `plan`.
fn nodes(plan: &PhysicalPlan) -> usize {
    1 + plan.children().into_iter().map(nodes).sum::<usize>()
}

/// One executed plan shape drawn from `seed`, the `case`-th of the
/// family (which picks the shape, so every arm is reached), run on each
/// layer at each DoP: one line per run.
fn executed_case(case: u64, seed: u64) -> Vec<Run> {
    let mut rng = Rng(seed);
    let n = match case % 6 {
        0 | 3 => 1 + rng.below(2),
        1 => 2,
        _ => 3 + rng.below(2),
    } as usize;
    // Now and then an empty table, whose joins produce nothing.
    let sizes: Vec<u64> = (0..n)
        .map(|_| match rng.below(12) {
            0 => 0,
            _ => rng.pick(&[1u64, 60, 400, 1_200, 2_000]),
        })
        .collect();
    let copies: Vec<u64> = (0..n).map(|_| rng.pick(&[1u64, 1, 2, 4])).collect();
    let keys: Vec<Vec<u64>> = (0..n)
        .map(|i| drawn_keys(&mut rng, sizes[i], copies[i]))
        .collect();
    let domain = |i: usize| (sizes[i] / copies[i]).max(1);
    let lambda = rng.pick(&[1.0, 15.0, 40.0]);
    let dram_records = rng.pick(&[40usize, 300, 5_000]);

    let mut leaves: Vec<LogicalPlan> = (0..n).map(|i| LogicalPlan::scan(format!("r{i}"))).collect();
    // A filtered build side is where the deferred-σ arm lives; the
    // deferred shapes filter it to most of the table.
    let build_filter = match case % 6 {
        0 => Some(drawn_predicate(&mut rng, domain(0))),
        4 => Some(Predicate::KeyBelow(domain(0) - domain(0) / 10)),
        _ if rng.below(3) == 0 => Some(drawn_predicate(&mut rng, domain(0))),
        _ => None,
    };
    if let Some(p) = build_filter {
        leaves[0] = leaves[0].clone().filter(p);
    }
    let mut logical = leaves
        .into_iter()
        .reduce(LogicalPlan::join)
        .expect("at least one leaf");
    let top = drawn_predicate(&mut rng, domain(0));
    logical = match case % 6 {
        // σ over base rows, then maybe a blocking consumer.
        0 => match rng.below(3) {
            0 => logical.sort(),
            1 => logical.aggregate(),
            _ => logical,
        },
        // σ over pairs or over chain rows.
        1 | 2 => logical.filter(top),
        // σ over groups.
        3 => logical.aggregate().filter(top),
        // Deferred σ and chain folds, sometimes consumed by a blocking
        // operator.
        _ => match rng.below(3) {
            0 => logical.sort(),
            1 => logical.aggregate(),
            _ => logical,
        },
    };

    let mut lines = Vec::new();
    for layer in EXECUTED_LAYERS {
        for dop in EXECUTED_DOPS {
            let dev = PmDevice::paper_default();
            let mut cat = Catalog::new();
            for (i, k) in keys.iter().enumerate() {
                let name = format!("r{i}");
                cat.add_table(&name, table_from_keys(&dev, layer, &name, k), domain(i));
            }
            let pool = BufferPool::new(dram_records * 80);
            let head = format!(
                "executed seed={seed:#x} n={n} λ={lambda} M={dram_records}rec dop={dop} {layer:?}"
            );
            let planned = match Planner::with_config(
                lambda,
                pool.budget_buffers() as f64,
                layer,
                dev.config(),
            )
            .with_threads(dop)
            .plan(&logical, &cat)
            {
                Ok(planned) => planned,
                Err(e) => {
                    lines.push(Run {
                        line: format!("{head} | error: {e}"),
                        ran: None,
                    });
                    continue;
                }
            };
            let run = match execute_stream(&planned, &cat, &dev, layer, &pool) {
                Ok(run) => run,
                Err(e) => {
                    lines.push(Run {
                        line: format!("{head} | error: {e}"),
                        ran: None,
                    });
                    continue;
                }
            };
            let plan = run.adapted.as_ref().map_or(&planned.plan, |a| &a.plan);
            let mut staged = Vec::new();
            arms(plan, &mut staged);
            let rows = run.result.all_rows();
            let s = run.stats;
            let line = format!(
                "{head} | {} | arms={} | rows={} out={:016x} reads={} writes={} ps={} calls={} \
                 pred_calls={:.0}",
                plan.describe().trim_end().replace('\n', " / "),
                staged.join(","),
                rows.len(),
                rows_hash(&rows.canonical_wide()),
                s.cl_reads,
                s.cl_writes,
                (s.software_ns * 1000.0).round() as u64,
                s.calls,
                plan.total_io().calls,
            );
            lines.push(Run {
                line,
                ran: Some((layer, plan.clone(), s)),
            });
        }
    }
    lines
}

fn corpus() -> String {
    let dev = PmDevice::paper_default();
    let zipf = zipf_tables(&dev);
    let mut out = String::new();
    let mut seeds = Rng(0x5EED_C0DE);
    for _ in 0..PLANNED_CASES {
        writeln!(out, "{}", planned_case(seeds.next_u64(), &zipf)).expect("string write");
    }
    for _ in 0..REPLANNED_CASES {
        writeln!(out, "{}", replanned_case(seeds.next_u64())).expect("string write");
    }
    for case in 0..EXECUTED_CASES {
        for run in executed_case(case, seeds.next_u64()) {
            writeln!(out, "{}", run.line).expect("string write");
        }
    }
    out
}

#[test]
fn the_corpus_plans_exactly_as_the_golden_file_says() {
    let got = corpus();
    if std::env::var_os("WL_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("golden file written");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden corpus present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first divergence at corpus line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
    assert_eq!(got, want);
}

/// The corpus is only evidence if it reaches the arms a refactor could
/// break: keep the generator honest about what it covers.
#[test]
fn the_corpus_reaches_every_arm() {
    if std::env::var_os("WL_BLESS").is_some() {
        return; // the file is being rewritten by the test beside this one
    }
    let text = std::fs::read_to_string(GOLDEN).expect("golden corpus present");
    let lines: Vec<&str> = text.lines().collect();
    let runs = (EXECUTED_LAYERS.len() * EXECUTED_DOPS.len()) as u64;
    assert_eq!(
        lines.len() as u64,
        PLANNED_CASES + REPLANNED_CASES + EXECUTED_CASES * runs
    );
    let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
    assert!(count("(deferred)") >= 10, "deferred-σ arm wins");
    assert!(
        lines
            .iter()
            .filter(|l| l.contains("(materialized)") && l.contains("filter ["))
            .count()
            >= 10,
        "deferred-σ arm loses or does not apply"
    );
    assert!(count("join via CGJ") >= 5, "guided join chosen");
    assert!(
        count("(sides swapped)") >= 20,
        "swapped build orders chosen"
    );
    assert!(count("(re-planned)") >= 16, "re-planning fired");
    assert!(count(" n=8 ") >= 20, "eight-relation searches");
    assert!(count("RamDisk") >= 50 && count("dop=4") >= 50);
    assert_eq!(count("error:"), 0, "every case plans");

    // The executed family stages through every arm of the lowering.
    let executed: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| l.starts_with("executed "))
        .collect();
    let arm = |name: &str| {
        executed
            .iter()
            .filter(|l| {
                let arms = l.split(" | arms=").nth(1).expect("arms field");
                let arms = arms.split(" | ").next().expect("arms list");
                arms.split(',').any(|a| a == name)
            })
            .count()
    };
    for (name, at_least) in [
        ("σrows", 12),
        ("σpairs", 12),
        ("σchain", 12),
        ("σgroups", 12),
        ("σdeferred", 6),
        ("fold", 12),
        ("fold-swapped", 6),
    ] {
        assert!(arm(name) >= at_least, "{name} reached {} times", arm(name));
    }
    for layer in EXECUTED_LAYERS {
        for dop in EXECUTED_DOPS {
            let tag = format!("dop={dop} {layer:?} ");
            let runs = executed.iter().filter(|l| l.contains(&tag)).count();
            assert_eq!(runs as u64, EXECUTED_CASES, "{tag}");
        }
    }
    assert!(
        executed.iter().filter(|l| l.contains(" rows=0 ")).count() * 4 < executed.len(),
        "most executed cases produce rows"
    );
}

/// Two interpreters of one charge rule. On the RAM disk the simulator
/// charges a call per 512-byte record of traffic at 220 ns, and the
/// planner prices each node's predicted traffic in calls by the same
/// rule. So every executed RAM-disk run measures calls = traffic / 8
/// and 220 000 ps a call, and its plan's predicted calls divided by the
/// measured ones lie within the per-node ceiling slack of its predicted
/// traffic divided by the measured traffic: each node rounds its own
/// calls up, by less than one call.
#[test]
fn ramdisk_runs_predict_and_measure_calls_by_one_rule() {
    let mut seeds = Rng(0x5EED_C0DE);
    for _ in 0..PLANNED_CASES + REPLANNED_CASES {
        seeds.next_u64();
    }
    let mut checked = 0;
    for case in 0..EXECUTED_CASES {
        for run in executed_case(case, seeds.next_u64()) {
            let Some((LayerKind::RamDisk, plan, measured)) = run.ran else {
                continue;
            };
            let line = &run.line;
            let traffic = measured.cl_reads + measured.cl_writes;
            assert_eq!(measured.calls * 8, traffic, "{line}");
            let ps = (measured.software_ns * 1000.0).round() as u64;
            assert_eq!(ps, 220_000 * measured.calls, "{line}");

            let predicted: IoPrediction = plan.total_io();
            let exact = (predicted.reads + predicted.writes) / 8.0;
            let slack = nodes(&plan) as f64;
            assert!(
                exact - 1e-6 <= predicted.calls && predicted.calls < exact + slack,
                "{line}: {} predicted calls for {exact} calls of predicted traffic",
                predicted.calls
            );
            assert_eq!(predicted.software_ns, 220.0 * predicted.calls, "{line}");
            if measured.calls > 0 {
                let calls = measured.calls as f64;
                let (ratio, floor) = (predicted.calls / calls, exact / calls);
                assert!(
                    floor - 1e-9 <= ratio && ratio < floor + slack / calls,
                    "{line}: predicted ÷ measured calls {ratio} against traffic {floor}"
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked as u64, EXECUTED_CASES * EXECUTED_DOPS.len() as u64);
}
