//! Cost models (Eqs. 1–11) and the knob optimizer built on them.
//!
//! The paper's premise is that the write-limited algorithms are only
//! useful together with cost expressions an optimizer can rank (§4.2.3).
//! Every one of those expressions has the form `reads + λ·writes`, so the
//! model is the read/write split: [`sort_costs`] and [`join_costs`] give
//! one `*_io` function per algorithm, each documented with its equation,
//! and [`predict_sort_io`] / [`predict_join_io`] dispatch to them as an
//! [`IoPrediction`]. The scalar cost is derived, never written twice:
//! [`IoPrediction::cost_units`]. The functions here use it to *choose*
//! algorithms and intensities — the "informed" portion allocation of §2.

pub mod join_costs;
pub mod sort_costs;

use crate::join::JoinAlgorithm;
use crate::sort::SortAlgorithm;

/// A cost prediction split into its cacheline read and write sides, in
/// cachelines (the paper's buffer units), beside the persistence-layer
/// calls that traffic makes and their software time. `reads + λ·writes`
/// ([`IoPrediction::cost_units`]) is the scalar Eqs. 1–11 cost; the
/// split is also what a plan-level predicted-vs-measured comparison
/// (Fig. 12 at plan granularity) needs. The Eqs. 1–11 models predict
/// traffic only; a planner prices the calls with the target layer's
/// `pmem_sim::ChargeRule`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoPrediction {
    /// Predicted cacheline reads.
    pub reads: f64,
    /// Predicted cacheline writes.
    pub writes: f64,
    /// Predicted persistence-layer calls.
    pub calls: f64,
    /// Predicted software time of those calls, in nanoseconds.
    pub software_ns: f64,
}

impl IoPrediction {
    /// A zero prediction (identity for [`IoPrediction::plus`]).
    pub const ZERO: Self = Self::traffic(0.0, 0.0);

    /// Cacheline traffic alone, no layer calls.
    pub const fn traffic(reads: f64, writes: f64) -> Self {
        Self {
            reads,
            writes,
            calls: 0.0,
            software_ns: 0.0,
        }
    }

    /// Scalar cost in read units under write/read ratio `lambda`.
    #[inline]
    pub fn cost_units(&self, lambda: f64) -> f64 {
        self.reads + lambda * self.writes
    }

    /// Component-wise sum.
    #[inline]
    #[must_use]
    pub fn plus(&self, other: IoPrediction) -> IoPrediction {
        IoPrediction {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            calls: self.calls + other.calls,
            software_ns: self.software_ns + other.software_ns,
        }
    }
}

/// Predicts the cacheline read/write traffic of a sort algorithm. Sizes
/// in buffers; `lambda` only steers LaS's Eq. 5 trigger.
pub fn predict_sort_io(algo: &SortAlgorithm, t: f64, m: f64, lambda: f64) -> IoPrediction {
    let (reads, writes) = match algo {
        SortAlgorithm::ExMS => sort_costs::exms_io(t, m),
        SortAlgorithm::SegS { x } => sort_costs::segment_io(t, m, *x),
        SortAlgorithm::HybS { x } => sort_costs::hybrid_io(t, m, *x),
        SortAlgorithm::LaS => sort_costs::lazy_sort_io(t, m, lambda),
        SortAlgorithm::SelS => sort_costs::selection_io(t, m),
    };
    IoPrediction::traffic(reads, writes)
}

/// Predicts the cacheline read/write traffic of a join algorithm
/// (excluding the shared output-materialization constant, as the paper's
/// expressions do). Sizes in buffers, `t ≤ v`.
#[inline]
pub fn predict_join_io(algo: &JoinAlgorithm, t: f64, v: f64, m: f64) -> IoPrediction {
    JoinShape::new(t, v, m).io(algo)
}

/// One build order of a join edge — `t`/`v` in buffers (`t` the build
/// side), the DRAM budget `m` — and `k = ⌈t/M⌉`, which every iterating
/// expression of the candidate field shares. A planner costing a whole
/// field through one shape works `k` out once per build order, not once
/// per expression; [`predict_join_io`], [`join_parallel_split`] and
/// [`join_candidates`] are the one-off forms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinShape {
    /// Build side, in buffers.
    t: f64,
    /// Probe side, in buffers.
    v: f64,
    /// DRAM budget, in buffers.
    m: f64,
    /// `⌈t/M⌉`, at least one ([`join_costs::iterations`]).
    k: f64,
}

impl JoinShape {
    /// The shape of `t ⋈ v` under a budget of `m` buffers.
    #[inline]
    pub fn new(t: f64, v: f64, m: f64) -> Self {
        Self {
            t,
            v,
            m,
            k: join_costs::iterations(t, m),
        }
    }

    /// [`predict_join_io`] of `algo` on this shape.
    #[inline]
    pub fn io(&self, algo: &JoinAlgorithm) -> IoPrediction {
        let Self { t, v, m, k } = *self;
        let (reads, writes) = match algo {
            JoinAlgorithm::NLJ => join_costs::nlj_io(t, v, k),
            JoinAlgorithm::GJ => join_costs::grace_io(t, v),
            JoinAlgorithm::HJ => join_costs::hash_join_io(t, v, k),
            JoinAlgorithm::HybJ { x, y } => join_costs::hybrid_io(t, v, m, *x, *y),
            JoinAlgorithm::SegJ { frac } => {
                join_costs::segmented_io(t, v, k, ((k * frac).round()) as usize)
            }
            // Structural estimate: k lazy iterations over the full
            // inputs; Eq. 11 materializations are rare at high λ.
            JoinAlgorithm::LaJ => ((t + v) * k, 0.0),
            JoinAlgorithm::SMJ { x } => {
                // Two segment sorts plus one co-scan of the sorted inputs.
                let (lr, lw) = sort_costs::segment_io(t, m, *x);
                let (rr, rw) = sort_costs::segment_io(v, m, *x);
                (lr + rr + t + v, lw + rw)
            }
            // Without catalog statistics the hot fractions are unknown;
            // the planner applies the skew discount via
            // `JoinShape::guided_io`.
            JoinAlgorithm::CGJ => join_costs::guided_io(t, v, 0.0, 0.0),
        };
        IoPrediction::traffic(reads, writes)
    }

    /// The cardinality-guided join's traffic on this shape when the hot
    /// keys cover the fractions `hot_t` and `hot_v` of the two sides
    /// ([`join_costs::guided_io`]).
    #[inline]
    pub fn guided_io(&self, hot_t: f64, hot_v: f64) -> IoPrediction {
        let (reads, writes) = join_costs::guided_io(self.t, self.v, hot_t, hot_v);
        IoPrediction::traffic(reads, writes)
    }

    /// The informed candidate set of [`join_candidates`], yielded in the
    /// same order and deduplicated the same way, without collecting it.
    #[inline]
    pub fn candidates(&self, lambda: f64) -> impl Iterator<Item = JoinAlgorithm> {
        let (x, y) = join_costs::optimal_hybrid_xy(self.t, self.v, self.m, lambda);
        let k = self.k;
        let seg_frac = join_costs::segmented_beats_grace_bound(k, lambda)
            .map(|b| (b / k).clamp(0.0, 1.0))
            .unwrap_or(0.5);
        // Only the two SegJ fractions can coincide; the set lists the
        // fraction once, where it first occurs.
        let midpoint = (seg_frac != 0.5).then_some(JoinAlgorithm::SegJ { frac: 0.5 });
        [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::HybJ { x, y },
            JoinAlgorithm::SegJ { frac: seg_frac },
        ]
        .into_iter()
        .chain(midpoint)
        .chain([JoinAlgorithm::LaJ])
    }

    /// [`join_parallel_split`] of `algo` on this shape.
    pub fn parallel_split(&self, algo: &JoinAlgorithm, lambda: f64) -> ParallelSplit {
        let Self { t, v, m, k } = *self;
        let total = self.io(algo).cost_units(lambda);
        match algo {
            // CGJ's two scans and partition-pair joins overlap exactly
            // like Grace's (the hot probes ride the scan morsels).
            JoinAlgorithm::GJ | JoinAlgorithm::CGJ => ParallelSplit {
                // Phase 1 fans out over the input morsels, phase 2 over
                // the k partition pairs; the phases run in sequence, so
                // the smaller task count bounds the speedup.
                serial: 0.0,
                parallel: total,
                partitions: k.min(scan_morsels(t + v)),
            },
            JoinAlgorithm::SegJ { frac } => {
                let x = (k * frac).round().min(k);
                // Materialized-partition joins + iterate passes fan out.
                let parallel = x / k * (t + v) + (k - x) * (t + v);
                ParallelSplit {
                    serial: (total - parallel).max(0.0),
                    parallel: parallel.min(total),
                    partitions: k,
                }
            }
            JoinAlgorithm::HybJ { x, y } => {
                // Serial share: partitioning the prefixes (read once,
                // write once); everything else — partition probes,
                // piggybacked scans, and the nested-loop chunks (each
                // chunk's T₁₋ₓ build reads included, since the chunks
                // are independent parallel tasks) — fans out.
                let serial = (x * t + y * v) * (1.0 + lambda);
                let chunks = ((1.0 - x) * t / m).ceil() + (x * t / m).ceil();
                ParallelSplit {
                    serial: serial.min(total),
                    parallel: (total - serial).max(0.0),
                    partitions: chunks.max(1.0),
                }
            }
            JoinAlgorithm::HJ | JoinAlgorithm::LaJ => ParallelSplit {
                // Every pass scans at most the full inputs; the morsel
                // count of the first (largest) pass bounds the useful
                // workers.
                serial: 0.0,
                parallel: total,
                partitions: scan_morsels(t + v),
            },
            JoinAlgorithm::NLJ => ParallelSplit {
                serial: 0.0,
                parallel: total,
                partitions: k,
            },
            JoinAlgorithm::SMJ { x } => {
                let (lr, lw) = sort_costs::segment_io(t, m, *x);
                let (rr, rw) = sort_costs::segment_io(v, m, *x);
                let sorts = lr + rr + lambda * (lw + rw);
                ParallelSplit {
                    serial: sorts.min(total),
                    parallel: (total - sorts).max(0.0),
                    partitions: scan_morsels(t + v),
                }
            }
        }
    }
}

/// How a plan node's predicted traffic divides between work the
/// partition-parallel executors overlap across workers and work that
/// stays on the coordinating thread. Used by planners to estimate the
/// *critical path* of a node under a degree of parallelism: rather than
/// the Eqs. 1–11 sum of all partition costs, the elapsed estimate is
/// `serial + parallel / min(dop, partitions)` (balanced partitions, so
/// the max partition cost is the mean).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParallelSplit {
    /// Cost-unit share executed serially (phase-1 partitioning,
    /// run generation, final merges, iterative algorithms).
    pub serial: f64,
    /// Cost-unit share fanned out over independent partitions.
    pub parallel: f64,
    /// Number of independent partitions the parallel share divides into.
    pub partitions: f64,
}

impl ParallelSplit {
    /// Critical-path estimate in cost units at degree of parallelism
    /// `dop`: the serial share plus the parallel share divided by the
    /// effective worker count. At `dop = 1` this is exactly the Eqs.
    /// 1–11 sum.
    pub fn critical_path_units(&self, dop: usize) -> f64 {
        let eff = (dop as f64).min(self.partitions).max(1.0);
        self.serial + self.parallel / eff
    }
}

/// Cachelines per execution morsel, the fixed task granule the
/// morselized scans fan out over:
/// [`crate::join::PARTITION_MORSEL_RECORDS`] 80-byte Wisconsin records
/// over 64-byte cachelines. Caps how many workers a morsel-parallel
/// scan can keep busy.
pub(crate) const MORSEL_CACHELINES: f64 = (crate::join::PARTITION_MORSEL_RECORDS * 80 / 64) as f64;

/// Independent tasks of a morsel-parallel scan over `buffers`
/// cachelines of input.
fn scan_morsels(buffers: f64) -> f64 {
    (buffers / MORSEL_CACHELINES).ceil().max(1.0)
}

/// Splits a join's predicted cost (Eqs. 6–11 and the baselines) into its
/// serial and partition-parallel shares, mirroring what the executors in
/// [`crate::join`] actually overlap:
///
/// * GJ — phase 1 fans out over fixed input morsels and phase 2 over the
///   `k` partition pairs; nothing of substance stays on the coordinator
///   (output and partition flushes are attributable to their tasks).
/// * SegJ — the initial scan and partition writes are serial; the Grace
///   joins of the materialized partitions and the `k − x` iterate passes
///   fan out.
/// * HybJ — the prefix partitioning is serial; the per-partition probes
///   (including the piggybacked V₁₋y scans) and the nested-loop chunks
///   fan out.
/// * HJ / LaJ — the passes stay sequential (each consumes the previous
///   one's offload), but every pass's two scans are morsel-parallel, so
///   the whole cost fans out at morsel granularity.
/// * NLJ — fans out over the `⌈f·|T|/M⌉` outer blocks.
/// * SMJ — the two segment sorts stay serial; the merge-join co-scan
///   range-partitions over key segments.
///
/// `lambda` weighs the write shares; the output-materialization constant
/// is excluded, as in [`predict_join_io`].
pub fn join_parallel_split(
    algo: &JoinAlgorithm,
    t: f64,
    v: f64,
    m: f64,
    lambda: f64,
) -> ParallelSplit {
    JoinShape::new(t, v, m).parallel_split(algo, lambda)
}

/// Splits a sort's predicted cost into serial and parallel shares. ExMS
/// is parallel end-to-end: run generation fans out over fixed
/// `4M`-record chunks, intermediate merge passes over their groups, and
/// the final merge over sampled key-range segments. The write-limited
/// algorithms' deferred selection streams regenerate by rescanning the
/// input, so they stay serial.
pub fn sort_parallel_split(algo: &SortAlgorithm, t: f64, m: f64, lambda: f64) -> ParallelSplit {
    let total = predict_sort_io(algo, t, m, lambda).cost_units(lambda);
    match algo {
        SortAlgorithm::ExMS => {
            // Run generation: one task per 4M-record chunk. Merge
            // passes: one task per key-range segment. The phases run in
            // sequence, so the smaller task count bounds the speedup.
            let chunks = (t / (4.0 * m)).ceil().max(1.0);
            let segments = scan_morsels(t);
            ParallelSplit {
                serial: 0.0,
                parallel: total,
                partitions: chunks.min(segments).max(1.0),
            }
        }
        _ => ParallelSplit {
            serial: total,
            parallel: 0.0,
            partitions: 1.0,
        },
    }
}

/// The candidate set the "informed" sort choice considers: the
/// baselines, HybS sweeps, the Eq. 4 cost-optimal SegS intensity when
/// applicable, and a SegS sweep (deduplicated). Exposed for plan
/// enumerators that need the whole ranked field, not just the winner.
pub fn sort_candidates(t: f64, m: f64, lambda: f64) -> Vec<SortAlgorithm> {
    let mut candidates = vec![
        SortAlgorithm::ExMS,
        SortAlgorithm::SelS,
        SortAlgorithm::LaS,
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.8 },
    ];
    if let Some(x) = sort_costs::optimal_segment_x(t, m, lambda) {
        candidates.push(SortAlgorithm::SegS { x });
    }
    for x in [0.2, 0.5, 0.8] {
        candidates.push(SortAlgorithm::SegS { x });
    }
    dedup_in_order(candidates)
}

/// The candidate set the "informed" join choice considers: baselines,
/// the cost-optimal HybJ, SegJ at the Eq. 10 boundary and midpoint
/// (deduplicated when they coincide), and LaJ. SMJ is deliberately
/// excluded: it is a library extension outside the paper's §2.2
/// line-up, so the informed choice stays within the paper's field —
/// callers wanting it can cost it via [`predict_join_io`] directly.
/// Exposed for plan enumerators.
pub fn join_candidates(t: f64, v: f64, m: f64, lambda: f64) -> Vec<JoinAlgorithm> {
    JoinShape::new(t, v, m).candidates(lambda).collect()
}

/// Drops exact repeats while preserving first-occurrence order (the
/// candidate lists are tiny, so the quadratic scan is fine).
fn dedup_in_order<T: PartialEq>(items: Vec<T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Picks the cheapest sort among ExMS, cost-optimal SegS, HybS sweeps,
/// and SelS — the system-driven "informed" choice, by
/// `reads + λ·writes`. LaS is excluded, as in the paper's Fig. 12
/// ranking: its decisions are dynamic, so the structural estimate is not
/// comparable.
pub fn choose_sort(t: f64, m: f64, lambda: f64) -> SortAlgorithm {
    sort_candidates(t, m, lambda)
        .into_iter()
        .filter(|a| !matches!(a, SortAlgorithm::LaS))
        .min_by(|a, b| {
            let units = |algo| predict_sort_io(algo, t, m, lambda).cost_units(lambda);
            units(a).partial_cmp(&units(b)).expect("finite costs")
        })
        .expect("non-empty candidate set")
}

/// Picks the cheapest join among the baselines, the cost-optimal HybJ,
/// and SegJ at the Eq. 10 boundary. LaJ is excluded for the same reason
/// LaS is excluded from [`choose_sort`].
pub fn choose_join(t: f64, v: f64, m: f64, lambda: f64) -> JoinAlgorithm {
    join_candidates(t, v, m, lambda)
        .into_iter()
        .filter(|a| !matches!(a, JoinAlgorithm::LaJ))
        .min_by(|a, b| {
            let units = |algo| predict_join_io(algo, t, v, m).cost_units(lambda);
            units(a).partial_cmp(&units(b)).expect("finite costs")
        })
        .expect("non-empty candidate set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_sort_prefers_selection_with_generous_memory() {
        // One read pass + minimal writes is unbeatable when M ≈ |T|.
        let algo = choose_sort(10_000.0, 9_000.0, 15.0);
        assert_eq!(algo, SortAlgorithm::SelS, "got {algo:?}");
    }

    #[test]
    fn choose_sort_avoids_selection_at_tiny_memory() {
        let algo = choose_sort(100_000.0, 500.0, 2.0);
        assert_ne!(algo, SortAlgorithm::SelS, "quadratic reads should lose");
    }

    #[test]
    fn choose_join_prefers_read_only_plan_when_memory_covers_left() {
        // Either NLJ or the degenerate HybJ(0,0) — identical plans, the
        // latter just models blocks fractionally.
        let algo = choose_join(1_000.0, 10_000.0, 2_000.0, 15.0);
        let read_only = matches!(algo, JoinAlgorithm::NLJ)
            || matches!(algo, JoinAlgorithm::HybJ { x, y } if x == 0.0 && y == 0.0);
        assert!(read_only, "got {algo:?}");
    }

    #[test]
    fn choose_join_never_picks_hash_join_at_multiple_iterations() {
        let algo = choose_join(10_000.0, 100_000.0, 1_000.0, 15.0);
        assert_ne!(algo, JoinAlgorithm::HJ);
    }

    #[test]
    fn estimates_are_positive_and_finite() {
        let (t, v, m) = (10_000.0, 100_000.0, 1_000.0);
        for lambda in [1.0, 8.0, 15.0] {
            let sorts = sort_candidates(t, m, lambda)
                .into_iter()
                .map(|algo| (algo.to_string(), predict_sort_io(&algo, t, m, lambda)));
            // SMJ is not in join_candidates (outside the paper's §2.2
            // line-up) but the planner may still cost it.
            let joins = join_candidates(t, v, m, lambda)
                .into_iter()
                .chain([JoinAlgorithm::SMJ { x: 0.5 }, JoinAlgorithm::SMJ { x: 0.2 }])
                .map(|algo| (algo.to_string(), predict_join_io(&algo, t, v, m)));
            for (label, p) in sorts.chain(joins) {
                assert!(p.reads >= 0.0 && p.writes >= 0.0, "{label}: {p:?}");
                let c = p.cost_units(lambda);
                assert!(c.is_finite() && c > 0.0, "{label}: {c}");
            }
        }
    }

    #[test]
    fn candidate_sets_have_no_duplicates() {
        // The boundary SegJ fraction can coincide with the 0.5 midpoint
        // (e.g. when Eq. 10 is degenerate) — the set must still be
        // duplicate-free, since plan enumerators render it to users.
        for lambda in [1.0, 15.0] {
            let joins = join_candidates(10_000.0, 100_000.0, 1_000.0, lambda);
            for (i, a) in joins.iter().enumerate() {
                assert!(
                    !joins[i + 1..].contains(a),
                    "duplicate join candidate {a:?} at λ={lambda}"
                );
            }
            let sorts = sort_candidates(10_000.0, 1_000.0, lambda);
            for (i, a) in sorts.iter().enumerate() {
                assert!(
                    !sorts[i + 1..].contains(a),
                    "duplicate sort candidate {a:?} at λ={lambda}"
                );
            }
        }
    }

    #[test]
    fn yielded_join_candidates_equal_the_deduplicated_list() {
        // The list the set was built from before it was yielded,
        // deduplicated after the fact: the oracle for order and repeats.
        let mut repeats = 0;
        for (t, m) in [
            (1.0, 1.0),
            (7.0, 2.0),
            (4_000.0, 1_000.0),
            (10_000.0, 900.0),
        ] {
            for lambda in [1.0, 2.0, 8.0, 15.0, 40.0] {
                for v in [t, 10.0 * t] {
                    let (x, y) = join_costs::optimal_hybrid_xy(t, v, m, lambda);
                    let k = (t / m).ceil().max(1.0);
                    let seg_frac = join_costs::segmented_beats_grace_bound(k, lambda)
                        .map(|b| (b / k).clamp(0.0, 1.0))
                        .unwrap_or(0.5);
                    let listed = vec![
                        JoinAlgorithm::NLJ,
                        JoinAlgorithm::GJ,
                        JoinAlgorithm::HJ,
                        JoinAlgorithm::HybJ { x, y },
                        JoinAlgorithm::SegJ { frac: seg_frac },
                        JoinAlgorithm::SegJ { frac: 0.5 },
                        JoinAlgorithm::LaJ,
                    ];
                    let want = dedup_in_order(listed);
                    repeats += usize::from(want.len() < 7);
                    assert_eq!(
                        join_candidates(t, v, m, lambda),
                        want,
                        "t={t} m={m} λ={lambda}"
                    );
                }
            }
        }
        // λ = 15 at k = 4 leaves Eq. 10 degenerate: the fractions meet.
        assert!(repeats > 0, "no case where the two SegJ fractions coincide");
    }

    #[test]
    fn candidate_sets_cover_the_algorithm_families() {
        let sorts = sort_candidates(10_000.0, 1_000.0, 8.0);
        assert!(sorts.contains(&SortAlgorithm::ExMS));
        assert!(sorts.contains(&SortAlgorithm::SelS));
        assert!(sorts.contains(&SortAlgorithm::LaS));
        assert!(sorts
            .iter()
            .any(|a| matches!(a, SortAlgorithm::SegS { .. })));
        assert!(sorts
            .iter()
            .any(|a| matches!(a, SortAlgorithm::HybS { .. })));

        let joins = join_candidates(10_000.0, 100_000.0, 1_000.0, 15.0);
        for want in [
            JoinAlgorithm::NLJ,
            JoinAlgorithm::GJ,
            JoinAlgorithm::HJ,
            JoinAlgorithm::LaJ,
        ] {
            assert!(joins.contains(&want), "missing {want:?}");
        }
        assert!(joins
            .iter()
            .any(|a| matches!(a, JoinAlgorithm::HybJ { .. })));
        assert!(joins
            .iter()
            .any(|a| matches!(a, JoinAlgorithm::SegJ { .. })));
    }

    #[test]
    fn critical_path_at_dop_one_is_the_estimate() {
        let (t, v, m, lambda) = (10_000.0, 100_000.0, 1_000.0, 15.0);
        for algo in join_candidates(t, v, m, lambda) {
            let split = join_parallel_split(&algo, t, v, m, lambda);
            let total = predict_join_io(&algo, t, v, m).cost_units(lambda);
            assert!(
                (split.critical_path_units(1) - total).abs() < 1e-6,
                "{}: {} vs {total}",
                algo,
                split.critical_path_units(1)
            );
        }
        for algo in sort_candidates(t, m, lambda) {
            let split = sort_parallel_split(&algo, t, m, lambda);
            let total = predict_sort_io(&algo, t, m, lambda).cost_units(lambda);
            assert!((split.critical_path_units(1) - total).abs() < 1e-6);
        }
    }

    #[test]
    fn parallelism_shrinks_every_join_family() {
        // Since the morsel-driven executors, every join has a parallel
        // share: the partitioned family over partitions, HJ/LaJ over
        // scan morsels, NLJ over outer blocks, SMJ's co-scan over key
        // segments (its sorts stay serial, so it shrinks least).
        let (t, v, m, lambda) = (10_000.0, 100_000.0, 1_000.0, 15.0);
        let gj = join_parallel_split(&JoinAlgorithm::GJ, t, v, m, lambda);
        assert!(gj.critical_path_units(4) < 0.5 * gj.critical_path_units(1));
        let seg = join_parallel_split(&JoinAlgorithm::SegJ { frac: 0.0 }, t, v, m, lambda);
        assert!(seg.critical_path_units(4) < 0.5 * seg.critical_path_units(1));
        let nlj = join_parallel_split(&JoinAlgorithm::NLJ, t, v, m, lambda);
        assert!(nlj.critical_path_units(8) < 0.5 * nlj.critical_path_units(1));
        let hj = join_parallel_split(&JoinAlgorithm::HJ, t, v, m, lambda);
        assert!(hj.critical_path_units(8) < 0.5 * hj.critical_path_units(1));
        let laj = join_parallel_split(&JoinAlgorithm::LaJ, t, v, m, lambda);
        assert!(laj.critical_path_units(8) < 0.5 * laj.critical_path_units(1));
        let smj = join_parallel_split(&JoinAlgorithm::SMJ { x: 0.5 }, t, v, m, lambda);
        let shrunk = smj.critical_path_units(8);
        assert!(shrunk < smj.critical_path_units(1));
        assert!(shrunk >= smj.serial, "the sorts stay on the critical path");
    }

    #[test]
    fn exms_split_is_parallel_end_to_end() {
        let (t, m, lambda) = (100_000.0, 2_000.0, 15.0);
        let split = sort_parallel_split(&SortAlgorithm::ExMS, t, m, lambda);
        assert_eq!(split.serial, 0.0);
        assert!(split.partitions >= 4.0, "partitions {}", split.partitions);
        assert!(split.critical_path_units(4) < 0.3 * split.critical_path_units(1));
        // The write-limited sorts' deferred streams keep them serial.
        let seg = sort_parallel_split(&SortAlgorithm::SegS { x: 0.5 }, t, m, lambda);
        assert_eq!(seg.critical_path_units(8), seg.critical_path_units(1));
    }

    #[test]
    fn effective_workers_cap_at_partition_count() {
        let split = ParallelSplit {
            serial: 100.0,
            parallel: 900.0,
            partitions: 3.0,
        };
        assert_eq!(split.critical_path_units(8), split.critical_path_units(3));
        assert_eq!(split.critical_path_units(3), 100.0 + 300.0);
    }

    #[test]
    fn io_prediction_arithmetic() {
        let a = IoPrediction::traffic(10.0, 5.0);
        let b = a.plus(IoPrediction::ZERO);
        assert_eq!(a, b);
        assert_eq!(a.plus(a).reads, 20.0);
        assert_eq!(a.cost_units(15.0), 85.0);
    }
}
