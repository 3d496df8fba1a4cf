//! Sort cost models (§2.1) as cacheline read/write splits.
//!
//! All sizes are in the paper's buffer units (cachelines); `t` is `|T|`,
//! `m` is the DRAM budget `M`, `lambda` is the write/read ratio λ. Each
//! function returns `(reads, writes)`; the paper's scalar cost in
//! multiples of the read cost `r` is `reads + λ·writes`
//! ([`super::IoPrediction::cost_units`]).
//!
//! The expressions follow the paper's Eqs. 1–5 with one refinement: the
//! paper writes the merge phase as `log_M |T|` passes, dropping floors
//! and ceilings ("doing so, though not strictly correct mathematically,
//! simplifies the analysis"). An optimizer ranking algorithms against a
//! real executor needs the integral pass count, so these estimators use
//! `⌈log_fan(runs)⌉` with the merge fan-in the budget actually affords
//! (one block-sized buffer per open run). Output materialization (`λ·t`)
//! is included so absolute values are comparable; it is a constant
//! offset that does not affect rankings.

/// Cachelines per collection block (the default 1024-byte block).
pub(crate) const BLOCK_CACHELINES: f64 = 16.0;

/// Merge passes needed for `runs` sorted runs under budget `m` buffers.
pub(crate) fn merge_passes(runs: f64, m: f64) -> f64 {
    let fan = (m / BLOCK_CACHELINES).max(2.0);
    if runs <= 1.0 {
        return 0.0;
    }
    (runs.ln() / fan.ln()).ceil().max(1.0)
}

/// ExMS (§2.1): run generation (read `t`, write `t`) plus
/// `⌈log_fan(t/2M)⌉` merge passes, each reading and writing the full
/// input — the paper's `|T|·(1+λ)·(log_M |T| + 1)` with exact pass
/// counts, so the two sides are equal.
pub fn exms_io(t: f64, m: f64) -> (f64, f64) {
    assert!(t > 0.0 && m > 1.0, "need positive sizes and M > 1");
    let runs = (t / (2.0 * m)).max(1.0);
    let passes = merge_passes(runs, m).max(1.0);
    (t * (passes + 1.0), t * (passes + 1.0))
}

/// Multi-pass selection sort (§2.1.1): `|T|·(⌈|T|/M⌉ + λ)` — `⌈|T|/M⌉`
/// read passes plus exactly one output write per buffer.
pub fn selection_io(t: f64, m: f64) -> (f64, f64) {
    (t * (t / m).ceil().max(1.0), t)
}

/// SegS at write intensity `x` (Eq. 1 with exact pass counts): mergesort
/// runs over `x·|T|`, a *deferred* selection stream over the rest, and a
/// final merge writing the output once.
pub fn segment_io(t: f64, m: f64, x: f64) -> (f64, f64) {
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1]");
    let xt = x * t;
    let rest = (1.0 - x) * t;

    let mut reads = xt; // run generation reads the prefix
    let mut writes = xt; // ... and writes the runs
    if rest > 0.0 {
        reads += rest * (rest / m).ceil().max(1.0); // selection stream
    }
    // Pre-merge passes beyond the first level (rare at realistic fan-in).
    let runs = (xt / (2.0 * m)).max(if xt > 0.0 { 1.0 } else { 0.0 });
    let extra_passes = (merge_passes(runs, m) - 1.0).max(0.0);
    reads += extra_passes * xt;
    writes += extra_passes * xt;
    reads += xt; // final merge reads the runs once
    writes += t; // ... and writes the whole output
    (reads, writes)
}

/// The cost-optimal SegS intensity (Eq. 4, plus-sign root), or `None`
/// when the applicability condition `λ < 2·(|T|/M)·ln M` fails or the
/// root falls outside `(0, 1)`.
pub fn optimal_segment_x(t: f64, m: f64, lambda: f64) -> Option<f64> {
    let ln_m = m.ln();
    if lambda >= 2.0 * (t / m) * ln_m {
        return None; // §2.1.1 sanity check: x > 0 requires this bound
    }
    let disc = ln_m * (ln_m * t * t + 2.0 * t * m * ln_m - lambda * m * m);
    if disc < 0.0 {
        return None;
    }
    let x = (-ln_m * t + disc.sqrt()) / (m * ln_m);
    (0.0..=1.0).contains(&x).then_some(x)
}

/// HybS at write intensity `x` (replacement-region fraction of DRAM).
///
/// The paper gives no closed form for hybrid sort; this estimator follows
/// Algorithm 1's structure: the `(1−x)·M` selection-region records are
/// written once straight to the output, the rest flows through
/// replacement selection (runs of average length `2·x·M`) and is merged
/// after them.
pub fn hybrid_io(t: f64, m: f64, x: f64) -> (f64, f64) {
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1]");
    let rr = (x * m).max(1.0); // replacement region, clamped non-zero
    let rs = (m - rr).max(0.0); // selection region
    let through_runs = (t - rs).max(0.0);

    let mut reads = t; // read the input once
    let mut writes = through_runs + t; // runs + output
                                       // Merge: read runs once per pass (plus rewrite on extra passes).
    let runs = (through_runs / (2.0 * rr)).max(1.0);
    let passes = merge_passes(runs, m).max(1.0);
    reads += through_runs + (passes - 1.0) * through_runs;
    writes += (passes - 1.0) * through_runs;
    (reads, writes)
}

/// LaS: selection passes whose source shrinks at each Eq. 5
/// materialization — λ decides when the trigger fires. Provided for
/// completeness: the paper excludes lazy algorithms from the Fig. 12
/// ranking because their decisions are dynamic.
pub fn lazy_sort_io(t: f64, m: f64, lambda: f64) -> (f64, f64) {
    let mut remaining = t;
    let mut reads = 0.0;
    let mut writes = t; // every record written once at the output
    while remaining > m {
        // Passes until Eq. 5 triggers on this source.
        let passes = ((remaining / m) * lambda / (lambda + 1.0)).floor().max(1.0);
        let emit = (passes * m).min(remaining);
        reads += passes * remaining; // rescans
        let next = remaining - emit;
        if next > m {
            writes += next; // materialize the shrunken input
        }
        remaining = next;
    }
    if remaining > 0.0 {
        reads += remaining; // final pass
    }
    (reads, writes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: f64 = 100_000.0;
    const M: f64 = 5_000.0;

    /// The scalar cost of a split: `reads + λ·writes`.
    fn units((reads, writes): (f64, f64), lambda: f64) -> f64 {
        reads + lambda * writes
    }

    #[test]
    fn exms_cost_grows_with_lambda() {
        assert!(units(exms_io(T, M), 15.0) > units(exms_io(T, M), 2.0));
    }

    #[test]
    fn selection_beats_exms_only_at_high_lambda_or_big_memory() {
        // Small memory: selection's quadratic reads lose.
        let m = T / 100.0;
        assert!(units(selection_io(T, m), 15.0) > units(exms_io(T, m), 15.0));
        // Generous memory: one pass + minimal writes wins.
        let m = T / 2.0;
        assert!(units(selection_io(T, m), 15.0) < units(exms_io(T, m), 15.0));
    }

    #[test]
    fn segment_cost_interpolates_between_extremes() {
        // x = 0 must equal the pure selection stream + output writes.
        let zero = units(segment_io(T, M, 0.0), 15.0);
        assert!((zero - units(selection_io(T, M), 15.0)).abs() / zero < 0.01);
        // x = 1 must cost like ExMS (runs + one merge level).
        let one = units(segment_io(T, M, 1.0), 15.0);
        let ex = units(exms_io(T, M), 15.0);
        assert!((one / ex - 1.0).abs() < 0.15, "seg(1) {one} vs exms {ex}");
    }

    #[test]
    fn lower_intensity_means_fewer_writes_more_reads() {
        let (lo, hi) = (segment_io(T, M / 5.0, 0.2), segment_io(T, M / 5.0, 0.8));
        assert!(lo.1 < hi.1, "writes {} vs {}", lo.1, hi.1);
        assert!(lo.0 > hi.0, "reads {} vs {}", lo.0, hi.0);
        assert!(units(lo, 15.0) > units(hi, 15.0));
    }

    #[test]
    fn optimal_x_is_interior_and_improves_cost() {
        let x = optimal_segment_x(T, M, 8.0).expect("applicable");
        assert!((0.0..=1.0).contains(&x));
        let at_opt = units(segment_io(T, M, x), 8.0);
        for probe in [0.05, 0.25, 0.5, 0.75, 0.95] {
            // Allow slack: the closed form drops floors/ceilings.
            assert!(
                at_opt <= units(segment_io(T, M, probe), 8.0) * 1.25,
                "x*={x} cost {at_opt} vs x={probe}"
            );
        }
    }

    #[test]
    fn optimal_x_rejects_extreme_lambda() {
        // λ ≥ 2(|T|/M)·lnM → selection sort dominates, no interior optimum.
        let tiny_t = 2.0 * M;
        assert!(optimal_segment_x(tiny_t, M, 50.0).is_none());
    }

    #[test]
    fn hybrid_cost_full_intensity_close_to_exms() {
        let h = units(hybrid_io(T, M, 1.0), 15.0);
        let e = units(exms_io(T, M), 15.0);
        assert!((h / e - 1.0).abs() < 0.15, "hyb {h} vs exms {e}");
    }

    #[test]
    fn lazy_sort_writes_dominate_only_through_output() {
        let lazy = units(lazy_sort_io(T, T / 4.0, 15.0), 15.0);
        let ex = units(exms_io(T, T / 4.0), 15.0);
        assert!(lazy < ex, "lazy {lazy} vs exms {ex}");
    }
}
