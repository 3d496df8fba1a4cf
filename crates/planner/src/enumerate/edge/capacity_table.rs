//! The DRAM budget `M` at its boundaries: budgets of 64–8 000 bytes
//! (every multiple of 8, and one byte either side of every cacheline and
//! record edge) × build sides of 0–10 000 rows. Each row pins what the
//! engine holds — records, build records, the partition count and the
//! §2.2.1 Grace test — against integer arithmetic worked out here with
//! `f = 6/5` ([`Capacity`] is what the engine sizes by), and holds the
//! planner to the same figures: its Grace family is offered exactly
//! where the engine would run it.

use super::*;
use pmem_sim::{BufferPool, DeviceConfig, LayerKind, PCollection, PmDevice};
use write_limited::context::{Capacity, ExecContext};

/// Record width of every row of the table.
const W: usize = WisconsinRecord::SIZE;
/// Largest build side of the table, in rows.
const MAX_ROWS: usize = 10_000;

/// The table's budgets, ascending and without repeats.
fn budgets() -> Vec<usize> {
    let mut budgets: Vec<usize> = (64..=8_000).step_by(8).collect();
    for edge in (64..=8_001)
        .step_by(CACHELINE)
        .chain((80..=8_001).step_by(W))
    {
        budgets.extend([edge - 1, edge, edge + 1]);
    }
    budgets.retain(|b| (64..=8_000).contains(b));
    budgets.sort_unstable();
    budgets.dedup();
    budgets
}

/// What a budget of `bytes` holds, in whole-number arithmetic.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Reference {
    /// `⌊B/size⌋`, at least one.
    records: usize,
    /// `⌊⌊B/f⌋/size⌋`, at least one; `⌊B/f⌋ = ⌊5B/6⌋`.
    build_records: usize,
}

impl Reference {
    fn new(bytes: usize) -> Self {
        Self {
            records: (bytes / W).max(1),
            build_records: (bytes * 5 / 6 / W).max(1),
        }
    }

    /// `⌈f·|T|/M⌉`, at least one.
    fn partitions(self, t: usize) -> usize {
        t.div_ceil(self.build_records).max(1)
    }

    /// `M > √(f·|T|)` ⇔ `5·M² > 6·|T|`.
    fn grace(self, t: usize) -> bool {
        5 * self.records * self.records > 6 * t
    }
}

/// Rows pinned by value: `(budget bytes, |T|, records, build records,
/// partitions, Grace applicable)`.
const PINNED: &[(usize, usize, usize, usize, usize, bool)] = &[
    // Below one record: the budget still holds one.
    (64, 0, 1, 1, 1, true),
    (64, 1, 1, 1, 1, false),
    (79, 1, 1, 1, 1, false),
    (80, 1, 1, 1, 1, false),
    // One record's worth only once the hash table's blow-up is paid.
    (96, 2, 1, 1, 2, false),
    (191, 2, 2, 1, 2, true),
    (192, 2, 2, 2, 1, true),
    (192, 3, 2, 2, 2, true),
    (192, 4, 2, 2, 2, false),
    // Exactly on the bound: 1.2·30 = 6².
    (480, 30, 6, 5, 6, false),
    (480, 29, 6, 5, 6, true),
    // M = 100 records: √(1.2·8 000) ≈ 98 < 100 ≤ √(1.2·9 000) ≈ 104.
    (8_000, 8_000, 100, 83, 97, true),
    (8_000, 8_333, 100, 83, 101, true),
    (8_000, 8_334, 100, 83, 101, false),
    (8_000, 9_000, 100, 83, 109, false),
    // Ten times less memory, about ten times the partitions.
    (8_000, 10_000, 100, 83, 121, false),
    (80_000, 10_000, 1_000, 833, 13, true),
];

#[test]
fn engine_and_planner_capacity_agree_at_every_boundary() {
    let cfg = DeviceConfig::paper_default();
    let check = |bytes: usize, rows: &mut dyn Iterator<Item = usize>| {
        let capacity = Capacity::new(bytes, W);
        let pool = BufferPool::new(bytes);
        let planner = Planner::for_pool(15.0, &pool, LayerKind::BlockedMemory, &cfg);
        assert_eq!(planner.budget, capacity, "{bytes} B");
        assert_eq!(planner.m_buffers(), pool.budget_buffers() as f64);
        if bytes.is_multiple_of(CACHELINE) {
            // `with_config`'s budget of whole cachelines is these bytes.
            let m_buffers = (bytes / CACHELINE) as f64;
            let buffers = Planner::with_config(15.0, m_buffers, LayerKind::BlockedMemory, &cfg);
            assert_eq!(buffers.budget, capacity, "{bytes} B");
        }
        let want = Reference::new(bytes);
        assert_eq!(capacity.records(), want.records, "{bytes} B");
        assert_eq!(capacity.build_records(), want.build_records, "{bytes} B");
        for t in rows {
            let k = capacity.partitions(t as f64);
            assert_eq!(k, want.partitions(t) as f64, "{bytes} B, |T| = {t}");
            let grace = capacity.grace_applicable(t as f64);
            assert_eq!(grace, want.grace(t), "{bytes} B, |T| = {t}");
        }
    };
    let budgets = budgets();
    assert_eq!(budgets.len(), 1_391);
    for &bytes in &budgets {
        check(bytes, &mut (0..=MAX_ROWS));
    }
    for &(bytes, t, records, build_records, k, grace) in PINNED {
        let want = Reference::new(bytes);
        assert_eq!(
            (
                want.records,
                want.build_records,
                want.partitions(t),
                want.grace(t)
            ),
            (records, build_records, k, grace),
            "{bytes} B, |T| = {t}"
        );
        check(bytes, &mut std::iter::once(t));
    }
}

/// Uniform statistics over `rows` rows, or — `skewed` — a quarter of
/// them on one key, which makes it a heavy hitter.
fn statistics(rows: usize, skewed: bool) -> TableStatistics {
    if !skewed {
        return TableStatistics::uniform(rows as u64, rows.max(1) as u64);
    }
    let keys: Vec<u64> = (0..rows as u64)
        .map(|i| if i % 4 == 0 { 7 } else { i })
        .collect();
    TableStatistics::build(&keys, 1)
}

/// The node annotation of a base table of `rows` rows.
fn scanned(rows: usize) -> NodeCost {
    NodeCost {
        io: IoPrediction::ZERO,
        out_rows: rows as f64,
        out_buffers: (rows * W) as f64 / CACHELINE as f64,
        distinct_keys: rows as f64,
    }
}

/// The build sides worth costing under `want`: both ends of the table,
/// one budget's worth of records (where a guided join's hot rows fit),
/// and either side of the largest build side the Grace test admits.
fn edge_rows(want: Reference) -> Vec<usize> {
    let last = (0..=MAX_ROWS).rev().find(|&t| want.grace(t)).unwrap_or(0);
    let mut rows: Vec<usize> = [0, 1, want.records, last.saturating_sub(1), last, last + 1]
        .into_iter()
        .chain([last + 2, MAX_ROWS])
        .filter(|&t| t <= MAX_ROWS)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[test]
fn grace_family_arms_are_offered_exactly_where_the_engine_runs_them() {
    let cfg = DeviceConfig::paper_default();
    let mut scratch = Scratch::default();
    let mut guided = 0;
    for (i, bytes) in budgets().into_iter().enumerate() {
        let pool = BufferPool::new(bytes);
        let planner = Planner::for_pool(15.0, &pool, LayerKind::BlockedMemory, &cfg);
        let want = Reference::new(bytes);
        // Heavy hitters on every 40th budget: statistics are built from
        // keys there.
        let skewed = i % 40 == 0;
        for t in edge_rows(want) {
            let v = t / 2;
            let (lc, rc) = (scanned(t), scanned(v));
            let (ls, rs) = (statistics(t, skewed), statistics(v, skewed));
            let side = |cost, stats| JoinSide {
                cost,
                units: 0.0,
                total_io: IoPrediction::ZERO,
                stats,
                filtered_scan: None,
            };
            let (l, r) = (side(&lc, &ls), side(&rc, &rs));
            planner
                .cost_join(&l, &r, false, &mut scratch)
                .expect("NLJ is always applicable");
            for (swapped, build) in [(false, t), (true, v)] {
                let offered = |family: fn(&JoinAlgorithm) -> bool| {
                    scratch.field.iter().any(|c| match c.what {
                        Alternative::Join {
                            algo, swapped: s, ..
                        } => s == swapped && family(&algo),
                        _ => false,
                    })
                };
                let grace = want.grace(build);
                let at = format!("{bytes} B, build side {build} rows");
                assert_eq!(offered(|a| *a == JoinAlgorithm::GJ), grace, "GJ at {at}");
                assert_eq!(
                    offered(|a| matches!(a, JoinAlgorithm::SegJ { .. })),
                    grace,
                    "SegJ at {at}"
                );
                let cgj = offered(|a| *a == JoinAlgorithm::CGJ);
                assert!(!cgj || grace, "CGJ at {at}");
                guided += usize::from(cgj);
                assert!(offered(|a| *a == JoinAlgorithm::NLJ), "NLJ at {at}");
            }
        }
    }
    // The guided arm is reached, so its gate is exercised.
    assert_eq!(guided, 65);
}

/// Whether the engine runs HybJ(x, ·) over a build side of `t` rows: it
/// refuses only when the Grace test fails on the partitioned prefix
/// `x·|T|` *and* that prefix needs more than one partition.
fn engine_runs_hybrid(want: Reference, t: usize, x: f64) -> bool {
    let tx = ((t as f64) * x).round() as usize;
    tx == 0 || want.grace(tx) || want.partitions(tx) <= 1
}

/// The planner offers no HybJ arm at all — not even HybJ(0, 0) — when
/// `√(f·|T|)` fails on the whole build side; the engine refuses only
/// when it fails on the prefix with `k > 1`. The planner is the stricter
/// side, so it never plans a HybJ the engine refuses; this pins the
/// rows where the two differ.
#[test]
fn hybrid_join_is_refused_by_the_planner_wherever_the_engine_refuses_it() {
    let cfg = DeviceConfig::paper_default();
    let mut scratch = Scratch::default();
    let xs = [0.0, 0.25, 0.5, 1.0];
    let mut differ = [0usize; 4];
    for bytes in budgets() {
        let pool = BufferPool::new(bytes);
        let planner = Planner::for_pool(15.0, &pool, LayerKind::BlockedMemory, &cfg);
        let want = Reference::new(bytes);
        for t in edge_rows(want) {
            let (cost, stats) = (scanned(t), statistics(t, false));
            let side = JoinSide {
                cost: &cost,
                units: 0.0,
                total_io: IoPrediction::ZERO,
                stats: &stats,
                filtered_scan: None,
            };
            planner
                .cost_join(&side, &side, false, &mut scratch)
                .expect("NLJ is always applicable");
            let planned = scratch.field.iter().any(|c| {
                matches!(
                    c.what,
                    Alternative::Join {
                        algo: JoinAlgorithm::HybJ { .. },
                        ..
                    }
                )
            });
            assert_eq!(planned, want.grace(t), "{bytes} B, |T| = {t}");
            for (x, differ) in xs.iter().zip(&mut differ) {
                let runs = engine_runs_hybrid(want, t, *x);
                assert!(!planned || runs, "{bytes} B, |T| = {t}, x = {x}");
                *differ += usize::from(runs && !planned);
            }
        }
    }
    // HybJ(0, ·) always runs, and the planner drops it on the three
    // rows past the Grace bound of every budget. Larger prefixes narrow
    // the gap; at x = 1 only |T| = 1 under the 18 budgets of one record
    // is left: it fails the bound but fits one partition.
    assert_eq!(differ, [4_173, 3_413, 3_091, 18]);
}

/// [`engine_runs_hybrid`] is the engine's rule: small joins at budgets
/// of one to six records, each run for real.
#[test]
fn the_engine_refuses_hybrid_join_by_that_rule() {
    let dev = PmDevice::paper_default();
    let kind = LayerKind::BlockedMemory;
    for bytes in [64, 80, 160, 191, 192, 240, 320, 400, 480] {
        let pool = BufferPool::new(bytes);
        let ctx = ExecContext::new(&dev, kind, &pool);
        let want = Reference::new(bytes);
        for t in (0..=40).step_by(3) {
            let rows = |n: usize, name: &str| {
                let mut rows = PCollection::new(&dev, kind, name);
                for key in 0..n as u64 {
                    rows.append(&WisconsinRecord::from_key(key));
                }
                rows
            };
            let (left, right) = (rows(t, "T"), rows(12, "V"));
            for x in [0.0, 0.25, 0.5, 1.0] {
                let ran = JoinAlgorithm::HybJ { x, y: 0.5 }
                    .run(&left, &right, &ctx, "out")
                    .is_ok();
                assert_eq!(
                    ran,
                    engine_runs_hybrid(want, t, x),
                    "{bytes} B, |T| = {t}, x = {x}"
                );
            }
        }
    }
}
