//! Property-based tests on the core invariants.
//!
//! The original suite used `proptest`; this environment builds offline,
//! so the same properties are exercised with deterministic seeded
//! sampling — each case draws its inputs from a fixed-seed generator and
//! runs a few dozen iterations, which keeps failures reproducible by
//! construction (the failing iteration index pins the input).

use pmem_sim::{
    BufferPool, DeviceConfig, IoStats, LatencyProfile, LayerKind, PCollection, PmDevice, PmError,
    ReadCursor, Storable, Storage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wisconsin::{Pair, Permutation, Record, WisconsinRecord, Zipf};
use write_limited::adaptive::adaptive_grace_join;
use write_limited::context::Capacity;
use write_limited::join::{
    expected_match_count, guided_join_with, JoinAlgorithm, JoinContext, Pairs,
    PARTITION_MORSEL_RECORDS,
};
use write_limited::parallel::Phases;
use write_limited::pipeline::filtered_iterate_join;
use write_limited::sort::{cycle_sort, SortAlgorithm, SortContext};
use write_limited::stats::kendall_tau;

const CASES: usize = 48;

/// Every sort algorithm returns exactly the input keys, sorted.
#[test]
fn sorts_are_permutation_preserving() {
    let algos = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ];
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..400);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..10_000)).collect();
        let m_records = rng.gen_range(1usize..64);
        let algo = algos[case % algos.len()];

        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            keys.iter()
                .enumerate()
                .map(|(i, &k)| WisconsinRecord::from_key(k).with_payload(i as u64)),
        );
        let pool = BufferPool::new(m_records * 80);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&input, &ctx, "sorted").expect("valid params");

        let mut expect = keys.clone();
        expect.sort_unstable();
        let got: Vec<u64> = out.to_vec_uncounted().iter().map(|r| r.key()).collect();
        assert_eq!(got, expect, "case {case}: {algo} n={n} M={m_records}");
    }
}

/// Every join algorithm produces exactly the reference match count.
#[test]
fn joins_match_reference_count() {
    let algos = [
        JoinAlgorithm::NLJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::LaJ,
    ];
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let left_n = rng.gen_range(1usize..150);
        let right_n = rng.gen_range(1usize..300);
        let left_keys: Vec<u64> = (0..left_n).map(|_| rng.gen_range(0u64..50)).collect();
        let right_keys: Vec<u64> = (0..right_n).map(|_| rng.gen_range(0u64..80)).collect();
        let m_records = rng.gen_range(8usize..64);
        let algo = algos[case % algos.len()];

        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            left_keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        );
        let right = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "V",
            right_keys.iter().map(|&k| WisconsinRecord::from_key(k)),
        );
        let pool = BufferPool::new(m_records * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let want = expected_match_count(&left, &right);
        match algo.run(&left, &right, &ctx, "out") {
            Ok(out) => assert_eq!(out.len() as u64, want, "case {case}: {algo}"),
            Err(_) => {
                // Only the Grace-family may reject, and only when the
                // applicability condition genuinely fails.
                assert!(
                    !Capacity::new(pool.budget(), WisconsinRecord::SIZE)
                        .grace_applicable(left.len() as f64),
                    "case {case}: {algo} rejected an applicable setting"
                );
            }
        }
    }
}

/// The workload permutation is a bijection for arbitrary n and seed.
#[test]
fn permutation_is_bijective() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let n = rng.gen_range(1u64..3000);
        let seed: u64 = rng.gen();
        let p = Permutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let v = p.apply(i);
            assert!(v < n, "n={n} seed={seed}: value {v} out of range");
            assert!(!seen[v as usize], "n={n} seed={seed}: duplicate {v}");
            seen[v as usize] = true;
        }
    }
}

/// Cycle sort agrees with std sort and never writes more than n.
#[test]
fn cycle_sort_matches_std() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..200);
        let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..1000)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let writes = cycle_sort(&mut v);
        assert_eq!(v, expect, "case {case}");
        assert!(writes <= 200, "case {case}: {writes} writes");
    }
}

/// Storage round-trips arbitrary chunked appends on every layer.
#[test]
fn storage_roundtrips_on_all_layers() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for case in 0..CASES {
        let layer = LayerKind::ALL[case % LayerKind::ALL.len()];
        let n_chunks = rng.gen_range(1usize..20);
        let chunks: Vec<Vec<u8>> = (0..n_chunks)
            .map(|_| {
                let len = rng.gen_range(1usize..300);
                (0..len).map(|_| rng.gen::<u8>()).collect()
            })
            .collect();
        let dev = PmDevice::paper_default();
        let mut storage = Storage::new(layer, dev.config());
        let mut expect = Vec::new();
        for chunk in &chunks {
            storage.append(chunk, &dev);
            expect.extend_from_slice(chunk);
        }
        let mut got = vec![0u8; expect.len()];
        storage.read_at(0, &mut got, &mut ReadCursor::new(), &dev);
        assert_eq!(got, expect, "case {case} on {}", layer.label());
    }
}

/// Sequential-scan read accounting is exact: one cacheline counted
/// per 64 bytes, regardless of record size (blocked memory).
#[test]
fn scan_accounting_is_exact() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..2000);
        let dev = PmDevice::paper_default();
        let mut col = PCollection::<u64>::new(&dev, LayerKind::BlockedMemory, "c");
        {
            let _pause = dev.metrics().pause();
            for i in 0..n as u64 {
                col.append(&i);
            }
        }
        let before = dev.snapshot();
        let count = col.reader().count();
        let delta = dev.snapshot().since(&before);
        assert_eq!(count, n, "case {case}");
        assert_eq!(delta.cl_reads, col.buffers(), "case {case}: n={n}");
        assert_eq!(delta.cl_writes, 0, "case {case}");
    }
}

/// Kendall's τ is 1 against itself and -1 against its reverse for
/// any strictly increasing sequence.
#[test]
fn kendall_tau_extremes() {
    for n in 2usize..50 {
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let rev: Vec<f64> = a.iter().rev().copied().collect();
        assert!((kendall_tau(&a, &a).unwrap() - 1.0).abs() < 1e-12, "n={n}");
        assert!(
            (kendall_tau(&a, &rev).unwrap() + 1.0).abs() < 1e-12,
            "n={n}"
        );
    }
}

// ---------------------------------------------------------------------
// Knob space: every parameterized join and sort over drawn knobs, key
// distributions, input sizes (straddling a partitioning morsel and a
// run-generation chunk), DRAM budgets and layers.
// ---------------------------------------------------------------------

/// Cases per knob-space property.
const KNOB_CASES: usize = 24;

/// Joined Wisconsin records.
type WPair = Pair<WisconsinRecord, WisconsinRecord>;

/// A join under test: its output, and its ledger if it has one.
type Join<'f> = dyn Fn(
        &PCollection<WisconsinRecord>,
        &PCollection<WisconsinRecord>,
        &JoinContext<'_>,
    ) -> Result<(PCollection<WPair>, Option<Phases>), PmError>
    + 'f;

/// The key distributions the knob-space properties draw from.
#[derive(Clone, Copy, Debug)]
enum Keys {
    Uniform,
    Zipf,
    OneKey,
}

impl Keys {
    fn draw(rng: &mut StdRng) -> Self {
        [Keys::Uniform, Keys::Zipf, Keys::OneKey][rng.gen_range(0usize..3)]
    }

    /// `n` keys over `[0, domain)`, in draw order.
    fn keys(self, rng: &mut StdRng, n: usize, domain: usize) -> Vec<u64> {
        match self {
            Keys::Uniform => (0..n).map(|_| rng.gen_range(0..domain as u64)).collect(),
            Keys::Zipf => {
                let zipf = Zipf::new(domain, 1.1);
                (0..n).map(|_| zipf.sample(rng) as u64).collect()
            }
            Keys::OneKey => vec![7; n],
        }
    }
}

/// Records with `keys` and their positions as payloads.
fn records(keys: &[u64]) -> Vec<WisconsinRecord> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| WisconsinRecord::from_key(k).with_payload(i as u64))
        .collect()
}

/// A drawn knob-free join setting: inputs, DRAM budget in records,
/// layer, and the medium's write/read ratio (the paper default's, 15,
/// unless set).
struct JoinDraw {
    left: Vec<WisconsinRecord>,
    right: Vec<WisconsinRecord>,
    m: usize,
    kind: LayerKind,
    lambda: f64,
    what: String,
}

impl JoinDraw {
    /// Left keys unique (one key for [`Keys::OneKey`]); right keys drawn
    /// over the left domain and a quarter past it. The right side is
    /// below or past one partitioning morsel, at even odds; a one-key
    /// join stays small, as its output is the product of its inputs.
    fn draw(rng: &mut StdRng, case: usize) -> Self {
        let keys = Keys::draw(rng);
        let (left_n, right_n) = match keys {
            Keys::OneKey => (rng.gen_range(1usize..40), rng.gen_range(1usize..400)),
            _ if rng.gen::<bool>() => (rng.gen_range(1usize..600), rng.gen_range(1usize..3000)),
            _ => (
                rng.gen_range(200usize..600),
                rng.gen_range(PARTITION_MORSEL_RECORDS - 1000..PARTITION_MORSEL_RECORDS + 2000),
            ),
        };
        let left_keys = match keys {
            Keys::OneKey => vec![7; left_n],
            _ => Permutation::new(left_n as u64, rng.gen()).iter().collect(),
        };
        let domain = left_n + left_n / 4 + 1;
        let right_keys = keys.keys(rng, right_n, domain);
        let m = rng.gen_range(30usize..200);
        let kind = [LayerKind::BlockedMemory, LayerKind::Pmfs][case % 2];
        Self {
            what: format!("case {case}: {keys:?} |T|={left_n} |V|={right_n} M={m} {kind:?}"),
            left: records(&left_keys),
            right: records(&right_keys),
            m,
            kind,
            lambda: 15.0,
        }
    }

    /// The naive oracle: every matching pair, as sorted row tuples.
    fn oracle(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for r in &self.right {
            for l in self.left.iter().filter(|l| l.key() == r.key()) {
                rows.push(row(l, r));
            }
        }
        rows.sort_unstable();
        rows
    }

    /// One run of `join` on a fresh device at DoP `threads`: the device
    /// delta, the output pairs in order, and the ledger if it has one.
    fn run(&self, threads: usize, join: &Join) -> (IoStats, Vec<WPair>, Option<Phases>) {
        let latency = LatencyProfile::with_lambda(10.0, self.lambda);
        let dev = PmDevice::new(DeviceConfig::paper_default().with_latency(latency));
        let left = PCollection::from_records_uncounted(&dev, self.kind, "T", self.left.clone());
        let right = PCollection::from_records_uncounted(&dev, self.kind, "V", self.right.clone());
        let pool = BufferPool::new(self.m * WisconsinRecord::SIZE);
        let ctx = JoinContext::new(&dev, self.kind, &pool).with_threads(threads);
        let before = dev.snapshot();
        let (out, ledger) = join(&left, &right, &ctx).expect("applicable");
        (
            dev.snapshot().since(&before),
            out.to_vec_uncounted(),
            ledger,
        )
    }

    /// Runs `join` at DoP 1 and 4 and checks the knob-space laws: the
    /// rows are `want`, the ledger covers the device delta, and DoP 4
    /// repeats DoP 1 exactly — counters, row order and ledger.
    fn check(&self, algo: &str, want: &[Row], join: &Join) {
        let what = format!("{}, λ = {}, {algo}", self.what, self.lambda);
        let serial = self.run(1, join);
        let mut rows: Vec<_> = serial.1.iter().map(|p| row(&p.left, &p.right)).collect();
        rows.sort_unstable();
        assert!(rows == want, "{what}: rows");
        if let Some(ledger) = &serial.2 {
            assert_ledger_covers(&what, ledger, &serial.0);
        }
        assert!(self.run(4, join) == serial, "{what}: DoP 4");
    }
}

/// A joined row as the oracle compares it: left key and payload, right
/// key and payload.
type Row = (u64, u64, u64, u64);

/// `l` and `r` joined, as the oracle compares them.
fn row(l: &WisconsinRecord, r: &WisconsinRecord) -> Row {
    (l.key(), l.payload(), r.key(), r.payload())
}

/// A phase ledger accounts for its run's whole device delta.
fn assert_ledger_covers(what: &str, ledger: &Phases, io: &IoStats) {
    assert!(
        ledger.iter().all(|phase| !phase.tasks.is_empty()),
        "{what}: empty phase"
    );
    let sum = (ledger.iter().flat_map(|phase| &phase.tasks))
        .fold(IoStats::default(), |acc, s| acc.plus(s));
    assert_eq!(
        (sum.cl_reads, sum.cl_writes, sum.calls),
        (io.cl_reads, io.cl_writes, io.calls),
        "{what}: the ledger covers the device delta"
    );
}

/// A knob drawn from the grid `0, 0.1, …, 1`.
fn knob(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u64..11) as f64 / 10.0
}

/// `algo` through its profiled entry.
fn profiled(algo: JoinAlgorithm) -> Box<Join<'static>> {
    Box::new(move |l, r, ctx| {
        let (out, ledger) = algo.run_profiled(l, r, ctx, "out")?;
        Ok((out, Some(ledger)))
    })
}

/// HybJ (x, y), SegJ x and CGJ hot sets over drawn inputs match the
/// oracle, cover their device deltas and are DoP-invariant.
#[test]
fn join_knobs_match_the_oracle_at_any_dop() {
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    for case in 0..KNOB_CASES {
        let draw = JoinDraw::draw(&mut rng, case);
        let want = draw.oracle();
        let (x, y) = (knob(&mut rng), knob(&mut rng));
        draw.check(
            &format!("HybJ({x}, {y})"),
            &want,
            &profiled(JoinAlgorithm::HybJ { x, y }),
        );
        let frac = knob(&mut rng);
        draw.check(
            &format!("SegJ {frac}"),
            &want,
            &profiled(JoinAlgorithm::SegJ { frac }),
        );

        // Hot keys of the right side's head, and one that may match
        // nothing; the standalone CGJ finds its own.
        let mut hot: Vec<u64> = (draw.right.iter().take(rng.gen_range(0usize..6)))
            .map(|r| r.key())
            .collect();
        hot.push(rng.gen_range(0u64..1000));
        let guided = |l: &PCollection<_>, r: &PCollection<_>, ctx: &JoinContext<'_>| {
            Ok((guided_join_with(l, r, &hot, &Pairs, ctx, "out")?, None))
        };
        draw.check(&format!("CGJ {hot:?}"), &want, &guided);
        draw.check("CGJ", &want, &profiled(JoinAlgorithm::CGJ));
    }
}

/// Adaptive Grace and the deferred-σ join, at a λ where their rules
/// fire early (1.5) and one where they fire late or never (15), match
/// the oracle, cover their device deltas and are DoP-invariant.
#[test]
fn runtime_joins_match_the_oracle_at_any_dop() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..KNOB_CASES {
        let mut draw = JoinDraw::draw(&mut rng, case);
        let want = draw.oracle();
        let modulus = rng.gen_range(1u64..5);
        let kept: Vec<Row> = (want.iter().filter(|row| row.0.is_multiple_of(modulus)))
            .copied()
            .collect();
        let selectivity = knob(&mut rng);
        for lambda in [1.5, 15.0] {
            draw.lambda = lambda;
            draw.check("adaptive Grace", &want, &|l, r, ctx| {
                let (out, ledger) = adaptive_grace_join(l, r, ctx, "out")?;
                Ok((out, Some(ledger)))
            });
            let keep = |r: &WisconsinRecord| r.key().is_multiple_of(modulus);
            draw.check(
                &format!("σ(1 in {modulus}), f = {selectivity}"),
                &kept,
                &|l, r, ctx| {
                    let (out, ledger) =
                        filtered_iterate_join(l, keep, selectivity, r, &Pairs, ctx, "out")?;
                    Ok((out, Some(ledger)))
                },
            );
        }
    }
}

/// The join family's corners are laws over drawn inputs: HybJ(0, 0) is
/// NLJ and CGJ with nothing hot is GJ, counter for counter and pair for
/// pair; SegJ(x = k) is GJ too while the inputs fit one partitioning
/// morsel (past it GJ partitions each morsel into pieces of its own).
#[test]
fn join_knob_corners_are_laws() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for case in 0..KNOB_CASES {
        let draw = JoinDraw::draw(&mut rng, case);
        let threads = [1, 4][case / 2 % 2];
        let run = |algo: JoinAlgorithm| {
            let (io, rows, _) = draw.run(threads, &profiled(algo));
            (io, rows)
        };
        let what = format!("{}, DoP {threads}", draw.what);
        let gj = run(JoinAlgorithm::GJ);
        assert!(
            run(JoinAlgorithm::HybJ { x: 0.0, y: 0.0 }) == run(JoinAlgorithm::NLJ),
            "{what}: HybJ(0, 0) ≡ NLJ"
        );
        let cold = draw.run(threads, &|l, r, ctx| {
            Ok((guided_join_with(l, r, &[], &Pairs, ctx, "out")?, None))
        });
        assert!((cold.0, cold.1) == gj, "{what}: CGJ(∅) ≡ GJ");
        if draw.right.len().max(draw.left.len()) <= PARTITION_MORSEL_RECORDS {
            assert!(
                run(JoinAlgorithm::SegJ { frac: 1.0 }) == gj,
                "{what}: SegJ(x = k) ≡ GJ"
            );
        }
    }
}

/// A drawn sort setting: input, DRAM budget in records, layer.
struct SortDraw {
    input: Vec<WisconsinRecord>,
    m: usize,
    kind: LayerKind,
    what: String,
}

impl SortDraw {
    /// `n(rng, m)` records with `keys` over a domain of `n / 4 + 1`, at
    /// a budget of `m` records: a merge fan-in of five or more.
    fn draw(
        rng: &mut StdRng,
        case: usize,
        keys: Keys,
        n: impl FnOnce(&mut StdRng, usize) -> usize,
    ) -> Self {
        let m = rng.gen_range(64usize..160);
        let n = n(rng, m);
        let kind = [LayerKind::BlockedMemory, LayerKind::Pmfs][case % 2];
        let input = records(&keys.keys(rng, n, n / 4 + 1));
        Self {
            what: format!("case {case}: {keys:?} n={n} M={m} {kind:?}"),
            input,
            m,
            kind,
        }
    }

    /// One run of `algo` on a fresh device at DoP `threads`: the device
    /// delta, the output in order and the ledger.
    fn run(&self, threads: usize, algo: SortAlgorithm) -> (IoStats, Vec<WisconsinRecord>, Phases) {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(&dev, self.kind, "T", self.input.clone());
        let pool = BufferPool::new(self.m * WisconsinRecord::SIZE);
        let ctx = SortContext::new(&dev, self.kind, &pool).with_threads(threads);
        let before = dev.snapshot();
        let (out, ledger) = algo.run_profiled(&input, &ctx, "out").expect("valid knob");
        (
            dev.snapshot().since(&before),
            out.to_vec_uncounted(),
            ledger,
        )
    }
}

/// Either side of the `4M` run-generation chunk of a budget of `m`.
fn straddling_chunk(rng: &mut StdRng, m: usize) -> usize {
    if rng.gen::<bool>() {
        rng.gen_range(1..4 * m + 1)
    } else {
        rng.gen_range(4 * m + 1..10 * m)
    }
}

/// SegS x and HybS x over drawn inputs sort, cover their device deltas
/// and are DoP-invariant.
#[test]
fn sort_knobs_match_the_oracle_at_any_dop() {
    let mut rng = StdRng::seed_from_u64(0x5027);
    for case in 0..KNOB_CASES {
        let keys = Keys::draw(&mut rng);
        let draw = SortDraw::draw(&mut rng, case, keys, straddling_chunk);
        let mut want: Vec<(u64, u64)> = draw.input.iter().map(|r| (r.key(), r.payload())).collect();
        want.sort_unstable();
        let x = knob(&mut rng);
        for algo in [SortAlgorithm::SegS { x }, SortAlgorithm::HybS { x }] {
            let what = format!("{}, {}", draw.what, algo);
            let serial = draw.run(1, algo);
            assert!(
                serial.1.windows(2).all(|w| w[0].key() <= w[1].key()),
                "{what}: order"
            );
            let mut got: Vec<(u64, u64)> =
                serial.1.iter().map(|r| (r.key(), r.payload())).collect();
            got.sort_unstable();
            assert!(got == want, "{what}: records");
            assert_ledger_covers(&what, &serial.2, &serial.0);
            assert!(draw.run(4, algo) == serial, "{what}: DoP 4");
        }
    }
}

/// The sort family's corners are laws over drawn inputs: SegS(0) is
/// SelS, counter for counter and record for record; HybS(1) and SegS(1)
/// are ExMS within one `4M` run-generation chunk that replacement
/// selection cuts into two runs or more (a lone run ExMS hands back
/// unwritten) and at a merge fan-in of five or more (segment sort
/// pre-merges down to one run fewer than the fan-in, ExMS to the
/// fan-in: the at most four runs of one chunk take one merge in both).
#[test]
fn sort_knob_corners_are_laws() {
    let mut rng = StdRng::seed_from_u64(0x5E15);
    for case in 0..KNOB_CASES {
        let threads = [1, 4][case / 2 % 2];
        let run = |draw: &SortDraw, algo| {
            let (io, out, _) = draw.run(threads, algo);
            (io, out)
        };
        let keys = Keys::draw(&mut rng);
        let draw = SortDraw::draw(&mut rng, case, keys, straddling_chunk);
        let what = format!("{}, DoP {threads}", draw.what);
        assert!(
            run(&draw, SortAlgorithm::SegS { x: 0.0 }) == run(&draw, SortAlgorithm::SelS),
            "{what}: SegS(0) ≡ SelS"
        );

        let keys = [Keys::Uniform, Keys::Zipf][case % 2];
        let draw = SortDraw::draw(&mut rng, case, keys, |rng, m| {
            rng.gen_range(3 * m + 1..4 * m + 1)
        });
        let what = format!("{}, DoP {threads}", draw.what);
        let exms = run(&draw, SortAlgorithm::ExMS);
        let input_lines = pmem_sim::cachelines(draw.input.len() * WisconsinRecord::SIZE);
        assert!(exms.0.cl_writes >= 2 * input_lines, "{what}: one run");
        assert!(
            run(&draw, SortAlgorithm::HybS { x: 1.0 }) == exms,
            "{what}: HybS(1) ≡ ExMS"
        );
        assert!(
            run(&draw, SortAlgorithm::SegS { x: 1.0 }) == exms,
            "{what}: SegS(1) ≡ ExMS"
        );
    }
}
