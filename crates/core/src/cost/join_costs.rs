//! Join cost models (§2.2) as cacheline read/write splits.
//!
//! `t`/`v` are `|T|`/`|V|` in buffer units (`t ≤ v`), `m` is the DRAM
//! budget, `lambda` the write/read ratio. Each function returns
//! `(reads, writes)`; the paper's scalar cost in multiples of the read
//! cost `r` is `reads + λ·writes` ([`super::IoPrediction::cost_units`]).
//! Output cost is a shared constant and omitted (as the paper's
//! expressions do).
//!
//! ## Where the engine and the model differ
//!
//! These expressions are the paper's, and the planner's fast path; the
//! operators in `crate::join` run schedules that differ from them in
//! known ways. Each entry says what the engine does instead and what it
//! does to a prediction.
//!
//! 1. **Eq. 11, corrected.** LaJ materializes after `⌊k·λ/(λ+1)⌋` lazy
//!    iterations, not the paper's `⌊k/(λ+1)⌋` (`crate::join::lazy`
//!    derives it). The planner's structural LaJ estimate
//!    ([`super::predict_join_io`]) charges `k` full scans and no
//!    writes, so neither threshold enters it.
//! 2. **Blocks and partitions per build capacity, not per `M`.** The
//!    engine sizes what it holds in DRAM after the `f = 1.2` hash-table
//!    blow-up: NLJ and HybJ(0, 0) run one outer block per
//!    [`Capacity::build_records`] (`⌊M/f⌋` records), so they rescan `V`
//!    `⌈f·|T|/M⌉` times, while [`nlj_io`] and [`hybrid_io`] charge
//!    `⌈|T|/M⌉` and `|T|/M` rescans. HJ and LaJ take their `k` from
//!    [`Capacity::partitions`], [`hash_join_io`] takes
//!    [`iterations`]. On the benchmark's `sql_analytic` this is the
//!    read gap behind `planner.pred_over_meas_reads` ≈ 0.82: `join2`
//!    (50 000 ⋈ 200 000 rows at M = 2 500 records) runs 25 blocks, not
//!    20, and measures 62 500 + 25 × 250 000 + 18 = 6 312 518 reads
//!    against 5 062 500 predicted. The test
//!    `nested_loops_rescans_v_per_build_capacity_block_not_per_m` pins
//!    both sides at test scale. The model is left as the paper states
//!    it: charging `f·|T|` would re-rank plans.
//! 3. **HybJ applicability, planner against engine.** The planner drops
//!    every HybJ arm, HybJ(0, 0) included, when `M > √(f·|T|)` fails
//!    on the whole build side. The engine refuses HybJ(x, y) only when
//!    the test fails on its partitioned prefix `x·|T|` and that prefix
//!    needs more than one partition. The planner is the stricter side,
//!    so it never plans a HybJ the engine refuses; the planner's DRAM
//!    boundary table (`enumerate::edge::capacity_table`) pins the rows
//!    where the two differ.
//!
//! [`Capacity::build_records`]: crate::context::Capacity::build_records
//! [`Capacity::partitions`]: crate::context::Capacity::partitions

/// Grace join (§2.2): `(λ+2)·(|T|+|V|)` — both inputs read twice,
/// written once.
pub fn grace_io(t: f64, v: f64) -> (f64, f64) {
    (2.0 * (t + v), t + v)
}

/// Cardinality-guided join (library extension): the hot fractions
/// `hot_t`/`hot_v` of the two inputs skip the Grace partition round-trip
/// — they are scanned once and never written — so only the cold
/// remainders pay the second read and the partition write. At
/// `hot_t = hot_v = 0` this is exactly [`grace_io`].
pub fn guided_io(t: f64, v: f64, hot_t: f64, hot_v: f64) -> (f64, f64) {
    let cold_t = (1.0 - hot_t.clamp(0.0, 1.0)) * t;
    let cold_v = (1.0 - hot_v.clamp(0.0, 1.0)) * v;
    (t + v + cold_t + cold_v, cold_t + cold_v)
}

/// `k = ⌈|T|/M⌉`, at least one: the block, iteration or partition
/// count the iterating expressions below take as their `k`.
#[inline]
pub fn iterations(t: f64, m: f64) -> f64 {
    (t / m).ceil().max(1.0)
}

/// Block nested loops (§2.2): `|T| + ⌈|T|/M⌉·|V|` reads, no writes;
/// `k` is [`iterations`]`(t, m)`.
pub fn nlj_io(t: f64, v: f64, k: f64) -> (f64, f64) {
    (t + k * v, 0.0)
}

/// Standard hash join (Table 1) over `k = ⌈|T|/M⌉` iterations
/// ([`iterations`]), each reading the remainder and rewriting
/// everything but the active partition: `(|T|+|V|)·[(k+1)/2 +
/// λ·(k−1)/2]` — `(k+1)/2` average read passes, `(k−1)/2` average
/// rewrite passes.
pub fn hash_join_io(t: f64, v: f64, k: f64) -> (f64, f64) {
    ((t + v) * (k + 1.0) / 2.0, (t + v) * (k - 1.0) / 2.0)
}

/// Hybrid Grace/nested-loops join (Eq. 6):
/// `(2+λ)(x|T| + y|V|) + (1−x)|T| + |T||V|/M·(1−xy)` — the materialized
/// fractions are written once and read twice; the rest is iterated.
pub fn hybrid_io(t: f64, v: f64, m: f64, x: f64, y: f64) -> (f64, f64) {
    let writes = x * t + y * v;
    let reads = 2.0 * (x * t + y * v) + (1.0 - x) * t + (t * v / m) * (1.0 - x * y);
    (reads, writes)
}

/// The scalar cost of a split at write/read ratio `lambda`:
/// `reads + λ·writes`.
fn units((reads, writes): (f64, f64), lambda: f64) -> f64 {
    reads + lambda * writes
}

/// The saddle point of Eq. 6 (Eqs. 7–8): `y_h = M(λ+1)/|V|`,
/// `x_h = M(λ+2)/|T|`. The second-derivative test shows this is a saddle,
/// not a minimum — Fig. 2's heatmaps are what actually guide the choice.
pub fn hybrid_saddle(t: f64, v: f64, m: f64, lambda: f64) -> (f64, f64) {
    let x = (m * (lambda + 2.0) / t).clamp(0.0, 1.0);
    let y = (m * (lambda + 1.0) / v).clamp(0.0, 1.0);
    (x, y)
}

/// The `(x, y)` minimizing Eq. 6 on `[0,1]²` — the "informed" intensity
/// choice of §2. Eq. 6 is bilinear in `(x, y)`, so its minimum over the
/// square is attained at a corner: the four corners are evaluated in
/// the row-major order a grid scan would visit them and the first
/// strict minimum wins, which is what the 21 × 21 scan this replaces
/// returned (the scan survives as the tests' oracle).
pub fn optimal_hybrid_xy(t: f64, v: f64, m: f64, lambda: f64) -> (f64, f64) {
    let mut best = (0.0, 0.0);
    let mut best_cost = f64::INFINITY;
    for corner in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
        let c = units(hybrid_io(t, v, m, corner.0, corner.1), lambda);
        if c < best_cost {
            best_cost = c;
            best = corner;
        }
    }
    best
}

/// One Fig. 2 heatmap: Eq. 6 evaluated over a `(steps+1)²` grid, rows
/// indexed by `y` (ascending), columns by `x`. Values are raw costs;
/// the plotting side normalizes shades ("we do not show the actual value
/// as it is irrelevant: we are more interested in trends").
pub fn hybrid_cost_surface(t: f64, v: f64, m: f64, lambda: f64, steps: usize) -> Vec<Vec<f64>> {
    (0..=steps)
        .map(|j| {
            let y = j as f64 / steps as f64;
            (0..=steps)
                .map(|i| {
                    let x = i as f64 / steps as f64;
                    units(hybrid_io(t, v, m, x, y), lambda)
                })
                .collect()
        })
        .collect()
}

/// Segmented Grace join (Eq. 9) with `x` of `k = ⌈|T|/M⌉` partitions
/// ([`iterations`]) materialized: `(|T|+|V|)·(1 + (λ+1)·x/k + (k−x))`,
/// with the initial offload scan elided at `x = 0` (matching the
/// implementation, which has nothing to offload then).
pub fn segmented_io(t: f64, v: f64, k: f64, x: usize) -> (f64, f64) {
    let x = (x as f64).min(k);
    if x > 0.0 {
        ((t + v) * (1.0 + x / k + (k - x)), (t + v) * x / k)
    } else {
        ((t + v) * k, 0.0)
    }
}

/// Eq. 10: the materialization count below which SegJ beats plain Grace
/// join: `x < (λ+1−k)·k / (λ+1−k²)`. Returns `None` when the bound is
/// degenerate (denominator sign makes every `x` win or lose).
pub fn segmented_beats_grace_bound(k: f64, lambda: f64) -> Option<f64> {
    let num = (lambda + 1.0 - k) * k;
    let den = lambda + 1.0 - k * k;
    if den == 0.0 {
        return None;
    }
    let bound = num / den;
    (bound > 0.0).then_some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: f64 = 10_000.0;
    const V: f64 = 100_000.0;
    const M: f64 = 1_000.0;

    #[test]
    fn grace_beats_hash_join_beyond_one_iteration() {
        assert!(units(grace_io(T, V), 15.0) < units(hash_join_io(T, V, iterations(T, M)), 15.0));
        // k = 1: hash join is a single in-memory pass and wins.
        assert!(
            units(hash_join_io(T, V, iterations(T, T * 2.0)), 15.0) < units(grace_io(T, V), 15.0)
        );
    }

    #[test]
    fn hybrid_extremes_recover_baselines() {
        // x = y = 1 → pure Grace: both inputs read twice, written once.
        assert_eq!(hybrid_io(T, V, M, 1.0, 1.0), grace_io(T, V));
        // x = y = 0 → pure NLJ: t + tv/m reads, no writes.
        assert_eq!(hybrid_io(T, V, M, 0.0, 0.0), (T + T * V / M, 0.0));
    }

    #[test]
    fn saddle_matches_first_order_conditions() {
        let (x, y) = hybrid_saddle(T, V, M, 5.0);
        // ∂J/∂x = 0 at y_h; ∂J/∂y = 0 at x_h (checked via finite diff).
        let eps = 1e-4;
        let d_dx = (units(hybrid_io(T, V, M, x + eps, y), 5.0)
            - units(hybrid_io(T, V, M, x - eps, y), 5.0))
            / (2.0 * eps);
        let d_dy = (units(hybrid_io(T, V, M, x, y + eps), 5.0)
            - units(hybrid_io(T, V, M, x, y - eps), 5.0))
            / (2.0 * eps);
        assert!(d_dx.abs() < 1.0, "∂J/∂x = {d_dx}");
        assert!(d_dy.abs() < 1.0, "∂J/∂y = {d_dy}");
    }

    /// The 21 × 21 scan [`optimal_hybrid_xy`] used to run: the oracle its
    /// corner form must reproduce bit for bit.
    fn grid_optimal_hybrid_xy(t: f64, v: f64, m: f64, lambda: f64, steps: usize) -> (f64, f64) {
        let mut best = (0.0, 0.0);
        let mut best_cost = f64::INFINITY;
        for i in 0..=steps {
            let x = i as f64 / steps as f64;
            for j in 0..=steps {
                let y = j as f64 / steps as f64;
                let c = units(hybrid_io(t, v, m, x, y), lambda);
                if c < best_cost {
                    best_cost = c;
                    best = (x, y);
                }
            }
        }
        best
    }

    #[test]
    fn grid_search_beats_corners_when_interior_wins() {
        let (x, y) = optimal_hybrid_xy(T, V, M, 5.0);
        let c = units(hybrid_io(T, V, M, x, y), 5.0);
        for (cx, cy) in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)] {
            assert!(c <= units(hybrid_io(T, V, M, cx, cy), 5.0) + 1e-9);
        }
    }

    #[test]
    fn corner_form_equals_the_grid_scan_bit_for_bit() {
        // SplitMix64, so the draws do not move with the `rand` shim.
        let mut state = 0x5EED_0006u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Log-uniform over 1..=10⁷ buffers: every magnitude gets draws.
        let size = |next: &mut dyn FnMut() -> u64| -> f64 {
            let lo = 10u64.pow((next() % 8) as u32);
            (lo + next() % (9 * lo)).min(10_000_000) as f64
        };
        // Both outcomes must be common, or the loop proves nothing.
        let picked = std::cell::Cell::new((0u64, 0u64));
        let check = |t: f64, v: f64, m: f64, lambda: f64| {
            let corner = optimal_hybrid_xy(t, v, m, lambda);
            let (none, full) = picked.get();
            picked.set(if corner == (0.0, 0.0) {
                (none + 1, full)
            } else {
                (none, full + 1)
            });
            let grid = grid_optimal_hybrid_xy(t, v, m, lambda, 20);
            assert!(
                corner.0.to_bits() == grid.0.to_bits() && corner.1.to_bits() == grid.1.to_bits(),
                "t={t} v={v} m={m} λ={lambda}: corners {corner:?}, grid {grid:?}"
            );
        };
        let mut draws = 0u64;
        while draws < 1_000_000 {
            let t = size(&mut next);
            let v = if next() % 8 == 0 { t } else { size(&mut next) };
            // m from one buffer to past t.
            let m = (1 + next() % (2.0 * t) as u64) as f64;
            let lambda = match next() % 3 {
                0 => (1 + next() % 40) as f64,
                1 => 1.0 + (next() % 3_900) as f64 / 100.0,
                _ => 15.0,
            };
            check(t, v, m, lambda);
            draws += 1;
            // The exact-tie surface t + tv/m = (2+λ)(t+v), where (0,0)
            // and (1,1) cost the same: solve it for m and step across.
            if next() % 4 == 0 {
                let tie = t * v / ((2.0 + lambda) * (t + v) - t);
                for m in [
                    tie,
                    f64::from_bits(tie.to_bits() - 1),
                    f64::from_bits(tie.to_bits() + 1),
                    tie * (1.0 - 1e-9),
                    tie * (1.0 + 1e-9),
                    tie.floor().max(1.0),
                    tie.ceil(),
                ] {
                    check(t, v, m, lambda);
                    draws += 1;
                }
            }
        }
        let (none, full) = picked.get();
        assert!(
            none > 100_000 && full > 100_000,
            "(0,0) {none}, (1,1) {full}"
        );
        // Integer ties exist and take the scan's first minimum: t = v = 6,
        // λ = 1, m = 1.2 puts both corners at 36.
        assert_eq!(units(hybrid_io(6.0, 6.0, 1.2, 0.0, 0.0), 1.0), 36.0);
        assert_eq!(units(hybrid_io(6.0, 6.0, 1.2, 1.0, 1.0), 1.0), 36.0);
        assert_eq!(optimal_hybrid_xy(6.0, 6.0, 1.2, 1.0), (0.0, 0.0));
        check(6.0, 6.0, 1.2, 1.0);
    }

    #[test]
    fn surface_dimensions_and_trend() {
        let s = hybrid_cost_surface(T, V, M, 2.0, 10);
        assert_eq!(s.len(), 11);
        assert!(s.iter().all(|row| row.len() == 11));
        // With similar λ and |T| ≪ |V|, large y should be cheap relative
        // to y = 0 at x = 1 (Grace on the big input beats rescanning it).
        assert!(s[10][10] < s[0][10]);
    }

    #[test]
    fn segmented_full_materialization_tracks_grace() {
        let k = (T / M).ceil() as usize;
        // Eq. 9 at x = k: (t+v)(1 + (λ+1)) = (λ+2)(t+v) = Grace.
        let (seg, grace) = (segmented_io(T, V, iterations(T, M), k), grace_io(T, V));
        assert!((seg.0 - grace.0).abs() < 1e-6 && (seg.1 - grace.1).abs() < 1e-6);
    }

    #[test]
    fn segmented_zero_materialization_is_iterate_only() {
        let k = (T / M).ceil();
        assert_eq!(segmented_io(T, V, k, 0), ((T + V) * k, 0.0));
    }

    #[test]
    fn eq10_bound_behaves() {
        // λ large relative to k = 4: below the bound, materializing fewer
        // than all k partitions undercuts Grace.
        let (t, lambda) = (4.0 * M, 20.0);
        let b = segmented_beats_grace_bound(4.0, lambda).expect("positive bound");
        let grace = units(grace_io(t, V), lambda);
        for x in (0..4usize).filter(|&x| (x as f64) < b) {
            let seg = units(segmented_io(t, V, iterations(t, M), x), lambda);
            assert!(seg < grace, "x={x}: SegJ {seg} vs GJ {grace}");
        }
        // Degenerate denominator.
        assert!(segmented_beats_grace_bound(4.0, 15.0).is_none());
    }
}
