//! Operator counter corpus: every sort, join and aggregation operator,
//! the adaptive Grace join and the deferred pipeline, executed on all
//! five persistence layers, two record widths, three DRAM budgets, two
//! block sizes and two degrees of parallelism — one line per case in
//! `tests/golden/op_counters.out`: cacheline reads and writes, software
//! **picoseconds**, layer calls and a hash of the output bytes; for every
//! sort and join, also its phase ledger's phase count, a hash of each
//! phase's task count and summed traffic, and the phases' labels.
//!
//! `wlbench` pins the simulated counters on `BlockedMemory` only (call
//! cost zero); this is the net under PMFS / RAM-disk / file-backed
//! software time and under each phase ledger. A change to how scans, merges or
//! spills move and charge records that claims "same counters" must leave
//! the file byte-identical.
//!
//! Regenerate with `WL_BLESS=1 cargo test -p wl-tests --test
//! counter_identity` — at the *parent* commit, never to make a diff go
//! away.

use pmem_sim::{
    BufferPool, DeviceConfig, IoStats, LayerKind, PCollection, Pm, PmDevice, PmError, Storable,
};
use std::fmt::Write as _;
use wisconsin::{Record, WisconsinRecord};
use write_limited::adaptive::adaptive_grace_join;
use write_limited::agg::{hash_aggregate, segmented_hash_aggregate, sort_based_aggregate};
use write_limited::join::{JoinAlgorithm, JoinContext, Pairs};
use write_limited::parallel::Phases;
use write_limited::pipeline::filtered_iterate_join;
use write_limited::sort::{SortAlgorithm, SortContext};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/op_counters.out");

const KINDS: [LayerKind; 5] = [
    LayerKind::BlockedMemory,
    LayerKind::Pmfs,
    LayerKind::RamDisk,
    LayerKind::DynArray,
    LayerKind::FileBacked,
];

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The two record widths of the corpus: the 80-byte Wisconsin record
/// (straddles blocks, cachelines and file records) and a 16-byte pair
/// (divides all of them at the paper's block size, none at 1000).
trait Shape: Record {
    const TAG: &'static str;
    fn of(w: &WisconsinRecord) -> Self;
    fn value(&self) -> u64;
}

impl Shape for WisconsinRecord {
    const TAG: &'static str = "w80";

    fn of(w: &WisconsinRecord) -> Self {
        *w
    }

    fn value(&self) -> u64 {
        self.payload()
    }
}

impl Shape for (u64, u64) {
    const TAG: &'static str = "p16";

    fn of(w: &WisconsinRecord) -> Self {
        (w.key(), w.payload())
    }

    fn value(&self) -> u64 {
        self.1
    }
}

/// DRAM budget relative to the operator's input.
#[derive(Clone, Copy)]
enum Dram {
    /// Four blocks.
    FewBlocks,
    /// 5 % of the input bytes.
    FivePercent,
    /// Two and a half times the input: everything fits, hash-table
    /// blow-up included.
    Fits,
}

impl Dram {
    const ALL: [Dram; 3] = [Dram::FewBlocks, Dram::FivePercent, Dram::Fits];

    fn tag(self) -> &'static str {
        match self {
            Dram::FewBlocks => "4blk",
            Dram::FivePercent => "5pct",
            Dram::Fits => "fits",
        }
    }

    fn budget(self, input_bytes: usize, block_size: usize) -> usize {
        match self {
            Dram::FewBlocks => 4 * block_size,
            Dram::FivePercent => input_bytes / 20,
            Dram::Fits => input_bytes * 5 / 2,
        }
    }
}

/// One axis point shared by every operator: layer, block size, DoP,
/// DRAM budget.
#[derive(Clone, Copy)]
struct Setting {
    kind: LayerKind,
    block_size: usize,
    threads: usize,
    dram: Dram,
}

impl Setting {
    fn device(&self) -> Pm {
        PmDevice::new(DeviceConfig {
            block_size: self.block_size,
            ..DeviceConfig::paper_default()
        })
    }

    fn stage<R: Shape>(&self, dev: &Pm, name: &str, records: &[WisconsinRecord]) -> PCollection<R> {
        PCollection::from_records_uncounted(dev, self.kind, name, records.iter().map(R::of))
    }
}

/// The operators of the corpus. Inputs are the case's sort input, or its
/// left/right join inputs (`zipf` picks the skewed right side).
#[derive(Clone, Copy)]
enum Op {
    Sort(SortAlgorithm),
    Join { algo: JoinAlgorithm, zipf: bool },
    AdaptiveGrace,
    HashAgg,
    SegmentedHashAgg,
    SortAgg { x: f64 },
    DeferredPipeline,
}

impl Op {
    fn label(&self) -> String {
        match self {
            Op::Sort(a) => format!("sort {a}"),
            Op::Join { algo, zipf } => {
                format!("join {}{}", algo, if *zipf { " zipf" } else { "" })
            }
            Op::AdaptiveGrace => "join adaptive-grace".into(),
            Op::HashAgg => "agg hash".into(),
            Op::SegmentedHashAgg => "agg segmented-hash 2/4".into(),
            Op::SortAgg { x } => format!("agg sort {:.0}%", x * 100.0),
            Op::DeferredPipeline => "pipeline deferred-filter".into(),
        }
    }
}

fn all_ops() -> Vec<Op> {
    let mut ops: Vec<Op> = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ]
    .into_iter()
    .map(Op::Sort)
    .collect();
    ops.extend(
        [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
            JoinAlgorithm::SegJ { frac: 0.5 },
            JoinAlgorithm::LaJ,
            JoinAlgorithm::SMJ { x: 0.5 },
            JoinAlgorithm::CGJ,
        ]
        .into_iter()
        .map(|algo| Op::Join { algo, zipf: false }),
    );
    ops.extend([
        Op::Join {
            algo: JoinAlgorithm::CGJ,
            zipf: true,
        },
        Op::AdaptiveGrace,
        Op::HashAgg,
        Op::SegmentedHashAgg,
        Op::SortAgg { x: 0.5 },
        Op::SortAgg { x: 1.0 },
        Op::DeferredPipeline,
    ]);
    ops
}

/// The operators whose scans, merges or partitioning fan out over the
/// 8192-record morsel and segment grids — the ones a larger input
/// exercises differently from a small one — the joins built from the
/// same partition-scan and build–probe phases, whose whole-input scans
/// and task counts a larger input also moves, and the sorts built from
/// the same run generation, selection heap and merge passes, which a
/// larger input drives past one run-generation chunk and one merge
/// segment.
fn gridded_ops() -> Vec<Op> {
    let mut ops = vec![
        Op::Sort(SortAlgorithm::ExMS),
        Op::Sort(SortAlgorithm::SegS { x: 0.5 }),
        Op::Sort(SortAlgorithm::HybS { x: 0.5 }),
        Op::Sort(SortAlgorithm::LaS),
        Op::Sort(SortAlgorithm::SelS),
        Op::SortAgg { x: 0.5 },
        Op::SortAgg { x: 1.0 },
        Op::Join {
            algo: JoinAlgorithm::CGJ,
            zipf: true,
        },
    ];
    ops.extend(
        [
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::LaJ,
            JoinAlgorithm::SMJ { x: 1.0 },
            JoinAlgorithm::NLJ,
            JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
            JoinAlgorithm::SegJ { frac: 0.5 },
        ]
        .into_iter()
        .map(|algo| Op::Join { algo, zipf: false }),
    );
    ops.extend([Op::AdaptiveGrace, Op::DeferredPipeline]);
    ops
}

/// Generated inputs of one size class, as Wisconsin records (narrowed
/// per record shape when staged).
struct Inputs {
    tag: &'static str,
    sort: Vec<WisconsinRecord>,
    /// Few distinct keys, for the aggregations.
    groups: Vec<WisconsinRecord>,
    left: Vec<WisconsinRecord>,
    right: Vec<WisconsinRecord>,
    right_zipf: Vec<WisconsinRecord>,
}

impl Inputs {
    fn new(tag: &'static str, sort_n: u64, t_len: u64, fanout: u64) -> Self {
        let uniform = wisconsin::join_input(t_len, fanout, 0xC0DE);
        let skewed = wisconsin::join_input_skewed(t_len, t_len * fanout, 1.2, 0xC0DE);
        Inputs {
            tag,
            sort: wisconsin::sort_input(sort_n, wisconsin::KeyOrder::Random, 0xC0DE),
            groups: wisconsin::sort_input(
                sort_n,
                wisconsin::KeyOrder::FewDistinct { distinct: 37 },
                0xC0DE,
            ),
            left: uniform.left,
            right: uniform.right,
            right_zipf: skewed.right,
        }
    }
}

/// Hashes a result collection's stored bytes.
fn output_hash<T: Storable>(out: &PCollection<T>) -> (usize, u64) {
    let mut h = Fnv::new();
    let mut buf = vec![0u8; T::SIZE];
    let rows = out.to_vec_uncounted();
    for r in &rows {
        r.write_to(&mut buf);
        h.eat(&buf);
    }
    (rows.len(), h.0)
}

/// The ledger fields of a corpus line: the phase count, a hash of each
/// phase's task count and summed reads, writes, picoseconds and calls,
/// and the phases' labels in order.
fn ledger_field(ledger: &Phases) -> String {
    let mut h = Fnv::new();
    for phase in ledger {
        let sum = (phase.tasks.iter()).fold(IoStats::default(), |acc, s| acc.plus(s));
        h.eat(
            format!(
                "{}:{}:{}:{}:{};",
                phase.tasks.len(),
                sum.cl_reads,
                sum.cl_writes,
                picoseconds(sum.software_ns),
                sum.calls
            )
            .as_bytes(),
        );
    }
    let labels: Vec<String> = ledger.iter().map(|p| p.label.to_string()).collect();
    format!(
        " phases={} ledger={:016x} labels={}",
        ledger.len(),
        h.0,
        labels.join(",")
    )
}

/// Runs one operator under one setting and renders its corpus line.
fn run_case<R: Shape>(inputs: &Inputs, op: Op, s: Setting) -> String {
    let dev = s.device();
    let pool_for = |input_bytes: usize| BufferPool::new(s.dram.budget(input_bytes, s.block_size));
    let hashed = |(out, ledger)| (output_hash(&out), Some(ledger));
    let result: Result<((usize, u64), Option<Phases>), PmError> = match op {
        Op::Sort(algo) => {
            let input = s.stage::<R>(&dev, "T", &inputs.sort);
            let pool = pool_for(input.bytes());
            let ctx = SortContext::new(&dev, s.kind, &pool).with_threads(s.threads);
            algo.run_profiled(&input, &ctx, "out")
                .map(|(out, ledger)| (output_hash(&out), Some(ledger)))
        }
        Op::HashAgg | Op::SegmentedHashAgg | Op::SortAgg { .. } => {
            let input = s.stage::<R>(&dev, "T", &inputs.groups);
            let pool = pool_for(input.bytes());
            let ctx = SortContext::new(&dev, s.kind, &pool).with_threads(s.threads);
            let value = |r: &R| r.value();
            match op {
                Op::HashAgg => hash_aggregate(&input, value, &ctx, "out"),
                Op::SegmentedHashAgg => segmented_hash_aggregate(&input, 4, 2, value, &ctx, "out"),
                Op::SortAgg { x } => sort_based_aggregate(&input, x, value, &ctx, "out"),
                _ => unreachable!("aggregation arm"),
            }
            .map(|o| (output_hash(&o), None))
        }
        Op::Join { .. } | Op::AdaptiveGrace | Op::DeferredPipeline => {
            let zipf = matches!(op, Op::Join { zipf: true, .. });
            let left = s.stage::<R>(&dev, "T", &inputs.left);
            let right = s.stage::<R>(
                &dev,
                "V",
                if zipf {
                    &inputs.right_zipf
                } else {
                    &inputs.right
                },
            );
            let pool = pool_for(left.bytes() + right.bytes());
            let ctx = JoinContext::new(&dev, s.kind, &pool).with_threads(s.threads);
            match op {
                Op::Join { algo, .. } => algo.run_profiled(&left, &right, &ctx, "out"),
                Op::AdaptiveGrace => adaptive_grace_join(&left, &right, &ctx, "out"),
                Op::DeferredPipeline => {
                    let keep = |r: &R| r.key().is_multiple_of(5);
                    filtered_iterate_join(&left, keep, 0.2, &right, &Pairs, &ctx, "out")
                }
                _ => unreachable!("join arm"),
            }
            .map(hashed)
        }
    };

    let stats = dev.snapshot();
    let mut line = format!(
        "{} {} {:?} bs={} dop={} dram={} | {} | ",
        inputs.tag,
        R::TAG,
        s.kind,
        s.block_size,
        s.threads,
        s.dram.tag(),
        op.label()
    );
    let ledger = match &result {
        Ok(((rows, hash), ledger)) => {
            write!(line, "rows={rows} out={hash:016x} ").expect("writing to a String");
            ledger.as_ref().map(ledger_field)
        }
        Err(e) => {
            write!(line, "error: {e} ").expect("writing to a String");
            None
        }
    };
    write!(
        line,
        "reads={} writes={} ps={} calls={}",
        stats.cl_reads,
        stats.cl_writes,
        picoseconds(stats.software_ns),
        stats.calls,
    )
    .expect("writing to a String");
    line.push_str(&ledger.unwrap_or_default());
    line
}

fn picoseconds(ns: f64) -> u64 {
    (ns * 1000.0).round() as u64
}

fn corpus() -> String {
    let small = Inputs::new("small", 1200, 300, 3);
    let large = Inputs::new("large", 20_000, 6_000, 3);
    let mut out = String::new();
    for kind in KINDS {
        for block_size in [1024, 1000] {
            for threads in [1, 4] {
                for dram in Dram::ALL {
                    let s = Setting {
                        kind,
                        block_size,
                        threads,
                        dram,
                    };
                    for op in all_ops() {
                        out.push_str(&run_case::<WisconsinRecord>(&small, op, s));
                        out.push('\n');
                        out.push_str(&run_case::<(u64, u64)>(&small, op, s));
                        out.push('\n');
                    }
                }
                // Inputs past the 8192-record morsel and segment grids,
                // narrow records only (the grids count records).
                let s = Setting {
                    kind,
                    block_size,
                    threads,
                    dram: Dram::FivePercent,
                };
                for op in gridded_ops() {
                    out.push_str(&run_case::<(u64, u64)>(&large, op, s));
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn every_operator_charges_exactly_what_the_golden_file_says() {
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

/// The corpus is only a net if it reaches what a scan or merge change
/// could break: keep the generator honest about what it covers.
#[test]
fn the_corpus_reaches_every_operator_and_layer() {
    if std::env::var_os("WL_BLESS").is_some() {
        return; // the file is being rewritten by the test beside this one
    }
    let text = std::fs::read_to_string(GOLDEN).expect("golden corpus present");
    let lines: Vec<&str> = text.lines().collect();
    let count = |needles: &[&str]| {
        lines
            .iter()
            .filter(|l| needles.iter().all(|n| l.contains(n)))
            .count()
    };
    let settings = KINDS.len() * 2 * 2;
    assert_eq!(
        lines.len(),
        settings * (Dram::ALL.len() * all_ops().len() * 2 + gridded_ops().len())
    );
    for op in all_ops() {
        let label = format!("| {} |", op.label());
        let ran = count(&[&label, "rows="]);
        assert!(
            ran >= settings * 2,
            "{label} ran in only {ran} cases (every layer, block size and DoP, both record widths)"
        );
    }
    // Software time is charged wherever a layer has a call cost, and
    // nowhere else.
    for kind in ["Pmfs", "RamDisk", "FileBacked"] {
        assert_eq!(count(&[kind, " ps=0 "]), 0, "{kind} charges call time");
    }
    for kind in ["BlockedMemory", "DynArray"] {
        assert_eq!(
            count(&[kind]),
            count(&[kind, " ps=0 calls=0"]),
            "{kind} is free"
        );
    }
    // Errors are the applicability refusals only, and a minority.
    assert!(count(&["error:"]) * 10 < lines.len(), "most cases run");
    assert!(count(&["large", "rows="]) >= settings * 6);
}
