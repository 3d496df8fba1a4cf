//! Join algorithms for persistent memory (§2.2). All but SMJ are short
//! schedules over two kernels (`kernel.rs`): the **routed partition
//! scan** — each record, by its key, kept for the scan's own build or
//! probe, spilled to a partition, or skipped — and the **build–probe
//! phase** — independent tasks, each building a table and probing it. At
//! a knob's corner the schedules coincide: HybJ(0, 0) is NLJ, SegJ(x = k)
//! is GJ within one morsel, CGJ with nothing hot is GJ.
//!
//! | Paper name | Function | Character | Schedule |
//! |---|---|---|---|
//! | NLJ | [`JoinAlgorithm::NLJ`] | read-only, write-minimal reference | build–probe: a task per DRAM block of `T`, probed by all of `V` |
//! | GJ | [`JoinAlgorithm::GJ`] | symmetric-I/O partitioned baseline | morsel-grid partition scan of `T`, of `V`; build–probe: a task per partition pair |
//! | HJ | [`JoinAlgorithm::HJ`] | iterative, rewrite-heavy baseline | per pass `i`: morsel-grid scans of `T`, `V` keep partition `i` (build, probe), spill the rest to the next pass |
//! | HybJ | [`JoinAlgorithm::HybJ`] | intensities `x`/`y` per input (Eq. 6) | partition scan of `Tx`, of `Vy`; build–probe: a task per partition (probed by its `Vy` piece and `V₁₋y`), a task per block of `T₁₋x` |
//! | SegJ | [`JoinAlgorithm::SegJ`] | materialize `x = round(frac·k)` of `k` partitions (Eq. 9) | scans of `T`, `V` spill partitions `0..x`; build–probe: a pair task per materialized partition, a rescan task per other |
//! | LaJ | [`JoinAlgorithm::LaJ`] | dynamic, Eq. 11 materialization | HJ's passes, spilling only on the passes Eq. 11 picks |
//! | SMJ | [`JoinAlgorithm::SMJ`] | sort-phase write intensity `x` (extension) | two segment sorts (the sort kernels, [`crate::sort`]), then a merge co-scan over key-range segments |
//! | CGJ | [`JoinAlgorithm::CGJ`], [`guided_join_with`] | hot keys skip the partition round-trip (extension) | morsel-grid scans keep hot records (build the resident table, probe it) and spill the rest; build–probe over the cold pairs |
//! | (adaptive GJ) | [`crate::adaptive::adaptive_grace_join`] | §3.1 rules pick the partitions to materialize | per input whose rule fires, a scan spilling partitions `a..k`; build–probe: a task per partition, from its spill or a rescan of the original |
//! | (deferred σ) | [`crate::pipeline::filtered_iterate_join`] | §3.1 rules pick when to write `σ(T)` | build–probe: a re-filtering task per pass before the view materializes; the pass that writes it as it scans; build–probe: a task per later pass over the view |
//!
//! Every schedule lands each match where it finds it, through an
//! [`OutputShape`]: [`Pairs`] lands the pair ([`JoinAlgorithm::run`]),
//! and [`JoinAlgorithm::run_shaped`] takes any other, such as the
//! planner's chain fold, which writes an 80-byte row instead.
//!
//! SMJ and CGJ are library extensions beyond the paper's line-up (see
//! [`guided`]). The two §3.1 joins decide their schedule before any I/O:
//! their rule reads only the inputs' sizes and the passes' own scans, so
//! each computes the pass read-over-write first holds on
//! ([`crate::deferral::first_materialized_pass`]), then runs the
//! schedule it implies.

pub mod common;
pub mod grace;
pub mod guided;
pub mod hash;
pub mod hybrid;
pub(crate) mod kernel;
pub mod lazy;
pub mod nested_loops;
pub mod segmented;
pub mod sort_merge;

pub use common::{
    expected_match_count, BuildTable, JoinContext, OutputShape, Pairs, RowSink, HASH_TABLE_FACTOR,
};
pub use grace::{grace_join_profiled, GraceProfile};
pub use guided::guided_join_with;
pub use kernel::PARTITION_MORSEL_RECORDS;

use pmem_sim::{PCollection, PmError};
use wisconsin::{Pair, Record};

/// Uniform handle over the paper's join algorithms, which the planner
/// ranks and the lowering runs (CGJ over catalog hot keys through
/// [`guided_join_with`]), as do the benchmark harness and Fig. 12. It
/// only dispatches: each schedule opens its own `ExecContext::operator`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JoinAlgorithm {
    /// Block nested-loops join.
    NLJ,
    /// Grace join.
    GJ,
    /// Standard iterative hash join.
    HJ,
    /// Hybrid Grace/nested-loops join with per-input intensities.
    HybJ {
        /// Write intensity over the left input.
        x: f64,
        /// Write intensity over the right input.
        y: f64,
    },
    /// Segmented Grace join materializing a fraction of the partitions.
    SegJ {
        /// Fraction of partitions materialized, `round(frac·k)` of `k`.
        frac: f64,
    },
    /// Lazy hash join.
    LaJ,
    /// Sort-merge join at the given sort write intensity (library
    /// extension, not in the paper's §2.2 line-up).
    SMJ {
        /// Write intensity passed to both segment sorts.
        x: f64,
    },
    /// Cardinality-guided join (library extension): heavy-hitter keys
    /// bypass the partition round-trip. The hot-key set comes from the
    /// catalog statistics when the planner lowers the operator, or from
    /// a bounded frequency pre-scan when run standalone.
    CGJ,
}

/// Paper-style label, e.g. `HybJ, 50% - 80%`.
impl std::fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinAlgorithm::NLJ => f.write_str("NLJ"),
            JoinAlgorithm::GJ => f.write_str("GJ"),
            JoinAlgorithm::HJ => f.write_str("HJ"),
            JoinAlgorithm::HybJ { x, y } => {
                write!(f, "HybJ, {:.0}% - {:.0}%", x * 100.0, y * 100.0)
            }
            JoinAlgorithm::SegJ { frac } => write!(f, "SegJ, {:.0}%", frac * 100.0),
            JoinAlgorithm::LaJ => f.write_str("LaJ"),
            JoinAlgorithm::SMJ { x } => write!(f, "SMJ, {:.0}%", x * 100.0),
            JoinAlgorithm::CGJ => f.write_str("CGJ"),
        }
    }
}

impl JoinAlgorithm {
    /// Runs the algorithm on `left ⋈ right` under `ctx`.
    ///
    /// # Errors
    /// Propagates applicability and parameter errors from the underlying
    /// algorithm.
    pub fn run<L: Record, R: Record>(
        &self,
        left: &PCollection<L>,
        right: &PCollection<R>,
        ctx: &JoinContext<'_>,
        output_name: &str,
    ) -> Result<PCollection<Pair<L, R>>, PmError> {
        self.run_profiled(left, right, ctx, output_name)
            .map(|(out, _)| out)
    }

    /// [`JoinAlgorithm::run`] with the run's phase ledger beside the
    /// result: its phases in execution order, each labelled and carrying
    /// the traffic of its independent tasks. The labels
    /// ([`crate::parallel::Label`]):
    /// * `partition` — a routed partition scan of one input: over the
    ///   morsel grid (GJ, CGJ), or serial, a phase of one task (HybJ,
    ///   SegJ, adaptive Grace);
    /// * `build-probe` — a task per table built and probed (partition
    ///   pair, DRAM block of `T`, or pass);
    /// * `pass p` — HJ's and LaJ's morsel-grid scans of pass `p`, the
    ///   build side's then the probe side's;
    /// * `heavy-hitters` — standalone CGJ's frequency scans, a task per
    ///   input;
    /// * `materialize` — the deferred-σ pass that writes the view;
    /// * SMJ's two sorts' phases (see [`crate::sort::SortAlgorithm::run_profiled`]),
    ///   then `co-scan`, after a one-task `cuts` phase when it splits into
    ///   key ranges.
    ///
    /// Together the phases account for the run's whole device delta, and
    /// every entry is identical at any degree of parallelism: scheduling
    /// each phase's tasks onto DoP workers gives the deterministic
    /// critical-path estimate. Under an armed profile each phase is one
    /// span of its label.
    ///
    /// # Errors
    /// Same as [`JoinAlgorithm::run`].
    pub fn run_profiled<L: Record, R: Record>(
        &self,
        left: &PCollection<L>,
        right: &PCollection<R>,
        ctx: &JoinContext<'_>,
        output_name: &str,
    ) -> Result<kernel::Phased<Pair<L, R>>, PmError> {
        self.run_shaped(left, right, &Pairs, ctx, output_name)
    }

    /// [`JoinAlgorithm::run_profiled`] landing each match as `shape`
    /// emits it, where the schedule finds it: the same schedule, phases
    /// and input traffic, with only the output rows' bytes differing.
    ///
    /// # Errors
    /// Same as [`JoinAlgorithm::run`].
    pub fn run_shaped<L: Record, R: Record, S: OutputShape<L, R>>(
        &self,
        left: &PCollection<L>,
        right: &PCollection<R>,
        shape: &S,
        ctx: &JoinContext<'_>,
        output_name: &str,
    ) -> Result<kernel::Phased<S::Out>, PmError> {
        let (l, r, name) = (left, right, output_name);
        match self {
            JoinAlgorithm::NLJ => Ok(nested_loops::phased(l, r, shape, ctx, name)),
            JoinAlgorithm::GJ => {
                grace::phased(l, r, shape, ctx, name).map(|(out, phases)| (out, phases.into()))
            }
            JoinAlgorithm::HJ => Ok(hash::phased(l, r, shape, ctx, name)),
            JoinAlgorithm::HybJ { x, y } => hybrid::phased(l, r, *x, *y, shape, ctx, name),
            JoinAlgorithm::SegJ { frac } => segmented::phased(l, r, *frac, shape, ctx, name),
            JoinAlgorithm::LaJ => Ok(lazy::phased(l, r, shape, ctx, name)),
            JoinAlgorithm::SMJ { x } => sort_merge::phased(l, r, *x, shape, ctx, name),
            JoinAlgorithm::CGJ => guided::phased(l, r, None, shape, ctx, name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::common::partition_of;
    use pmem_sim::{BufferPool, IoStats, LayerKind, PmDevice, Storable};
    use wisconsin::{join_input, JoinWorkload, WisconsinRecord};

    /// Wisconsin records joined with Wisconsin records.
    pub(in crate::join) type WPair = Pair<WisconsinRecord, WisconsinRecord>;

    /// Every persistence layer: the corner equivalences must hold on
    /// the software-time and call counters too, not only on cachelines.
    pub(in crate::join) const LAYERS: [LayerKind; 5] = [
        LayerKind::BlockedMemory,
        LayerKind::Pmfs,
        LayerKind::RamDisk,
        LayerKind::DynArray,
        LayerKind::FileBacked,
    ];

    /// One run of `join` on a fresh device over `w`'s inputs staged on
    /// `kind`, with `m_records` Wisconsin records of DRAM at DoP
    /// `threads`: the device delta and the output pairs in order — the
    /// two things a corner equivalence compares.
    pub(in crate::join) fn device_run(
        w: &JoinWorkload,
        kind: LayerKind,
        m_records: usize,
        threads: usize,
        join: impl FnOnce(
            &PCollection<WisconsinRecord>,
            &PCollection<WisconsinRecord>,
            &JoinContext<'_>,
        ) -> Result<PCollection<WPair>, PmError>,
    ) -> (IoStats, Vec<WPair>) {
        let dev = PmDevice::paper_default();
        let left = PCollection::from_records_uncounted(&dev, kind, "T", w.left.clone());
        let right = PCollection::from_records_uncounted(&dev, kind, "V", w.right.clone());
        let pool = BufferPool::new(m_records * 80);
        let ctx = JoinContext::new(&dev, kind, &pool).with_threads(threads);
        let before = dev.snapshot();
        let out = join(&left, &right, &ctx).expect("applicable");
        (dev.snapshot().since(&before), out.to_vec_uncounted())
    }

    /// Asserts two [`device_run`]s are the same run: identical device
    /// counters and identical output, pair for pair.
    pub(in crate::join) fn assert_same_run(
        what: &str,
        (io, rows): &(IoStats, Vec<WPair>),
        (want_io, want_rows): &(IoStats, Vec<WPair>),
    ) {
        assert_eq!(io, want_io, "{what}: device counters");
        assert_eq!(rows.len(), want_rows.len(), "{what}: output length");
        assert!(rows == want_rows, "{what}: output pairs");
    }

    #[test]
    fn all_algorithms_agree_on_the_result_multiset() {
        let algos = [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
            JoinAlgorithm::SegJ { frac: 0.5 },
            JoinAlgorithm::LaJ,
            JoinAlgorithm::SMJ { x: 0.5 },
            JoinAlgorithm::CGJ,
        ];
        for algo in algos {
            let dev = PmDevice::paper_default();
            let w = join_input(200, 10, 99);
            let left =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
            let right =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
            let pool = BufferPool::new(50 * 80);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let out = algo.run(&left, &right, &ctx, "out").expect("applicable");
            assert_eq!(out.len() as u64, w.expected_matches, "{algo}");

            // Pair-level verification: sorted (left key, right payload)
            // multisets must be identical across algorithms.
            let mut pairs: Vec<(u64, u64)> = out
                .to_vec_uncounted()
                .iter()
                .map(|p| (p.left.attrs[0], p.right.attrs[1]))
                .collect();
            pairs.sort_unstable();
            let mut expect: Vec<(u64, u64)> = (0..2000u64).map(|i| (i % 200, i)).collect();
            expect.sort_unstable();
            assert_eq!(pairs, expect, "{algo}");
        }
    }

    /// The iterating joins' output as it was computed while every probe
    /// scan still tested the partition: per partition, the build records
    /// of that partition in input order, probed by the probe records of
    /// that partition in input order.
    fn guarded_iterate_join(
        left: &[WisconsinRecord],
        right: &[WisconsinRecord],
        k: usize,
    ) -> Vec<Pair<WisconsinRecord, WisconsinRecord>> {
        let mut out = Vec::new();
        for p in 0..k {
            let mut table = BuildTable::new();
            for l in left.iter().filter(|l| partition_of(l.key(), k) == p) {
                table.insert(*l);
            }
            for r in right {
                if partition_of(r.key(), k) == p {
                    out.extend(table.matches(r.key()).map(|l| Pair {
                        left: WisconsinRecord::read_from(l),
                        right: *r,
                    }));
                }
            }
        }
        out
    }

    #[test]
    fn probe_scans_without_a_partition_test_emit_what_guarded_ones_did() {
        use crate::adaptive::adaptive_grace_join;
        use crate::pipeline::filtered_iterate_join;
        use pmem_sim::{DeviceConfig, LatencyProfile};

        let inputs = [
            ("uniform", join_input(600, 4, 23)),
            ("zipf", wisconsin::join_input_skewed(400, 3000, 1.2, 11)),
        ];
        // λ = 15 keeps the lazy and deferred operators lazy; at λ = 1.5
        // they materialize midway and carry on from what they wrote.
        for lambda in [15.0, 1.5] {
            for (shape, w) in &inputs {
                for threads in [1, 4] {
                    let dev = PmDevice::new(
                        DeviceConfig::paper_default()
                            .with_latency(LatencyProfile::with_lambda(10.0, lambda)),
                    );
                    let kind = LayerKind::BlockedMemory;
                    let left = PCollection::from_records_uncounted(&dev, kind, "T", w.left.clone());
                    let right =
                        PCollection::from_records_uncounted(&dev, kind, "V", w.right.clone());
                    let pool = BufferPool::new(60 * 80);
                    let ctx = JoinContext::new(&dev, kind, &pool).with_threads(threads);
                    let k = ctx
                        .capacity::<WisconsinRecord>()
                        .partitions(left.len() as f64) as usize;
                    assert!(k >= 4, "need several passes, got k={k}");
                    let what = format!("{shape}, λ={lambda}, DoP {threads}");
                    let want = guarded_iterate_join(&w.left, &w.right, k);
                    assert_eq!(want.len() as u64, w.expected_matches, "{what}");

                    for x in [0, k / 2] {
                        let segj = JoinAlgorithm::SegJ {
                            frac: x as f64 / k as f64,
                        };
                        let out = segj.run(&left, &right, &ctx, "o").expect("fits");
                        assert!(out.to_vec_uncounted() == want, "SegJ x={x}: {what}");
                    }
                    for algo in [JoinAlgorithm::LaJ, JoinAlgorithm::HJ] {
                        let out = algo.run(&left, &right, &ctx, "o").expect("fits");
                        assert!(out.to_vec_uncounted() == want, "{algo}: {what}");
                    }
                    let (out, _) = adaptive_grace_join(&left, &right, &ctx, "o").expect("fits");
                    assert!(out.to_vec_uncounted() == want, "adaptive Grace: {what}");

                    // A selective filter is materialized after the first
                    // pass, a permissive one stays deferred.
                    for (modulus, selectivity) in [(20, 0.05), (1, 1.0)] {
                        let keep = |l: &WisconsinRecord| l.key().is_multiple_of(modulus);
                        let kept: Vec<WisconsinRecord> =
                            w.left.iter().copied().filter(keep).collect();
                        let (out, _) = filtered_iterate_join(
                            &left,
                            keep,
                            selectivity,
                            &right,
                            &Pairs,
                            &ctx,
                            "o",
                        )
                        .expect("fits");
                        assert!(
                            out.to_vec_uncounted() == guarded_iterate_join(&kept, &w.right, k),
                            "deferred σ (1 in {modulus}): {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_phase_ledger_accounts_for_the_whole_run_at_any_dop() {
        use crate::adaptive::adaptive_grace_join;
        use crate::parallel::Phases;
        use crate::pipeline::filtered_iterate_join;
        use pmem_sim::{DeviceConfig, LatencyProfile};

        type Profiled<'f> = dyn Fn(
                &PCollection<WisconsinRecord>,
                &PCollection<WisconsinRecord>,
                &JoinContext<'_>,
            ) -> Result<kernel::Phased<WPair>, PmError>
            + 'f;
        let w = wisconsin::join_input_skewed(600, 3000, 1.1, 23);
        // `join` with `m` records of DRAM on a medium of write/read ratio
        // `lambda`: its phases cover its device delta, and DoP 4 repeats
        // both exactly. Returns the phases.
        let check = |what: &str, lambda: f64, m: usize, join: &Profiled<'_>| -> Phases {
            let run = |threads: usize| {
                let dev = PmDevice::new(
                    DeviceConfig::paper_default()
                        .with_latency(LatencyProfile::with_lambda(10.0, lambda)),
                );
                let kind = LayerKind::Pmfs;
                let left = PCollection::from_records_uncounted(&dev, kind, "T", w.left.clone());
                let right = PCollection::from_records_uncounted(&dev, kind, "V", w.right.clone());
                let pool = BufferPool::new(m * 80);
                let ctx = JoinContext::new(&dev, kind, &pool).with_threads(threads);
                let before = dev.snapshot();
                let (_, phases) = join(&left, &right, &ctx).expect("applicable");
                (dev.snapshot().since(&before), phases)
            };
            let (io, phases) = run(1);
            assert!(phases.iter().all(|phase| !phase.tasks.is_empty()), "{what}");
            let sum = phases
                .iter()
                .flat_map(|phase| &phase.tasks)
                .fold(IoStats::default(), |acc, s| acc.plus(s));
            assert_eq!(
                (sum.cl_reads, sum.cl_writes, sum.calls),
                (io.cl_reads, io.cl_writes, io.calls),
                "{what}: the phases cover the device delta"
            );
            assert_eq!(run(4), (io, phases.clone()), "{what}: DoP 4");
            phases
        };

        let algos = [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
            JoinAlgorithm::SegJ { frac: 0.5 },
            JoinAlgorithm::LaJ,
            JoinAlgorithm::SMJ { x: 0.5 },
            JoinAlgorithm::CGJ,
        ];
        for algo in algos {
            check(&algo.to_string(), 15.0, 60, &|l, r, ctx| {
                algo.run_profiled(l, r, ctx, "out")
            });
        }

        // The §3.1 joins over k = 3 partitions: at λ = 1.5 their rules
        // fire (adaptive Grace spills both inputs on the first pass, the
        // unselective view materializes on the second), at λ = 15 they
        // defer throughout and the passes are the only phase.
        for (lambda, phases) in [(1.5, 3), (15.0, 1)] {
            let what = format!("adaptive Grace, λ = {lambda}");
            let ledger = check(&what, lambda, 250, &|l, r, ctx| {
                adaptive_grace_join(l, r, ctx, "out")
            });
            assert_eq!(ledger.len(), phases, "{what}");
            let what = format!("deferred σ, λ = {lambda}");
            let ledger = check(&what, lambda, 250, &|l, r, ctx| {
                filtered_iterate_join(l, |_| true, 1.0, r, &Pairs, ctx, "out")
            });
            assert_eq!(ledger.len(), phases, "{what}");
        }
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(
            JoinAlgorithm::HybJ { x: 0.5, y: 0.8 }.to_string(),
            "HybJ, 50% - 80%"
        );
        assert_eq!(JoinAlgorithm::SegJ { frac: 0.2 }.to_string(), "SegJ, 20%");
    }
}
