//! Join cost models (§2.2), in multiples of the read cost `r`.
//!
//! `t`/`v` are `|T|`/`|V|` in buffer units (`t ≤ v`), `m` is the DRAM
//! budget, `lambda` the write/read ratio. Output cost is a shared
//! constant and omitted (as the paper's expressions do).

/// Grace join: `(λ+2)·(|T|+|V|)` — both inputs read twice, written once.
pub fn grace_cost(t: f64, v: f64, lambda: f64) -> f64 {
    (lambda + 2.0) * (t + v)
}

/// Block nested loops: `|T| + ⌈|T|/M⌉·|V|` reads, no writes.
pub fn nlj_cost(t: f64, v: f64, m: f64) -> f64 {
    t + (t / m).ceil().max(1.0) * v
}

/// Standard hash join over `k = ⌈|T|/M⌉` iterations, each reading the
/// remainder and rewriting everything but the active partition
/// (Table 1): `(|T|+|V|)·[(k+1)/2 + λ·(k−1)/2]`.
pub fn hash_join_cost(t: f64, v: f64, m: f64, lambda: f64) -> f64 {
    let k = (t / m).ceil().max(1.0);
    (t + v) * ((k + 1.0) / 2.0 + lambda * (k - 1.0) / 2.0)
}

/// Hybrid Grace/nested-loops join (Eq. 6):
/// `(2+λ)(x|T| + y|V|) + (1−x)|T| + |T||V|/M·(1−xy)`.
pub fn hybrid_cost(t: f64, v: f64, m: f64, lambda: f64, x: f64, y: f64) -> f64 {
    (2.0 + lambda) * (x * t + y * v) + (1.0 - x) * t + (t * v / m) * (1.0 - x * y)
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
        let c = hybrid_cost(t, v, m, lambda, corner.0, corner.1);
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
                    hybrid_cost(t, v, m, lambda, x, y)
                })
                .collect()
        })
        .collect()
}

/// Segmented Grace join (Eq. 9) with `x` of `k` partitions materialized:
/// `(|T|+|V|)·(1 + (λ+1)·x/k + (k−x))`, with the initial offload scan
/// elided at `x = 0` (matching the implementation, which has nothing to
/// offload then).
pub fn segmented_cost(t: f64, v: f64, m: f64, lambda: f64, x: usize) -> f64 {
    let k = (t / m).ceil().max(1.0);
    let x = (x as f64).min(k);
    let scan = if x > 0.0 {
        1.0 + (lambda + 1.0) * x / k
    } else {
        0.0
    };
    (t + v) * (scan + (k - x))
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

/// Read/write split of [`grace_cost`]: both inputs read twice, written
/// once.
pub fn grace_io(t: f64, v: f64) -> (f64, f64) {
    (2.0 * (t + v), t + v)
}

/// Read/write split of the cardinality-guided join (library extension):
/// the hot fractions `hot_t`/`hot_v` of the two inputs skip the Grace
/// partition round-trip — they are scanned once and never written — so
/// only the cold remainders pay the second read and the partition write.
/// At `hot_t = hot_v = 0` this is exactly [`grace_io`].
pub fn guided_io(t: f64, v: f64, hot_t: f64, hot_v: f64) -> (f64, f64) {
    let cold_t = (1.0 - hot_t.clamp(0.0, 1.0)) * t;
    let cold_v = (1.0 - hot_v.clamp(0.0, 1.0)) * v;
    (t + v + cold_t + cold_v, cold_t + cold_v)
}

/// Read/write split of [`nlj_cost`]: reads only.
pub fn nlj_io(t: f64, v: f64, m: f64) -> (f64, f64) {
    (t + (t / m).ceil().max(1.0) * v, 0.0)
}

/// Read/write split of [`hash_join_cost`]: `(k+1)/2` average read
/// passes, `(k−1)/2` average rewrite passes.
pub fn hash_join_io(t: f64, v: f64, m: f64) -> (f64, f64) {
    let k = (t / m).ceil().max(1.0);
    ((t + v) * (k + 1.0) / 2.0, (t + v) * (k - 1.0) / 2.0)
}

/// Read/write split of [`hybrid_cost`] (Eq. 6): the materialized
/// fractions are written once and read twice; the rest is iterated.
pub fn hybrid_io(t: f64, v: f64, m: f64, x: f64, y: f64) -> (f64, f64) {
    let writes = x * t + y * v;
    let reads = 2.0 * (x * t + y * v) + (1.0 - x) * t + (t * v / m) * (1.0 - x * y);
    (reads, writes)
}

/// Read/write split of [`segmented_cost`] (Eq. 9).
pub fn segmented_io(t: f64, v: f64, m: f64, x: usize) -> (f64, f64) {
    let k = (t / m).ceil().max(1.0);
    let x = (x as f64).min(k);
    if x > 0.0 {
        ((t + v) * (1.0 + x / k + (k - x)), (t + v) * x / k)
    } else {
        ((t + v) * k, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: f64 = 10_000.0;
    const V: f64 = 100_000.0;
    const M: f64 = 1_000.0;

    #[test]
    fn grace_beats_hash_join_beyond_one_iteration() {
        assert!(grace_cost(T, V, 15.0) < hash_join_cost(T, V, M, 15.0));
        // k = 1: hash join is a single in-memory pass and wins.
        assert!(hash_join_cost(T, V, T * 2.0, 15.0) < grace_cost(T, V, 15.0));
    }

    #[test]
    fn hybrid_extremes_recover_baselines() {
        // x = y = 1 → pure Grace: (2+λ)(t+v).
        let full = hybrid_cost(T, V, M, 15.0, 1.0, 1.0);
        assert!((full - grace_cost(T, V, 15.0)).abs() < 1e-6);
        // x = y = 0 → pure NLJ: t + tv/m.
        let none = hybrid_cost(T, V, M, 15.0, 0.0, 0.0);
        assert!((none - (T + T * V / M)).abs() < 1e-6);
    }

    #[test]
    fn saddle_matches_first_order_conditions() {
        let (x, y) = hybrid_saddle(T, V, M, 5.0);
        // ∂J/∂x = 0 at y_h; ∂J/∂y = 0 at x_h (checked via finite diff).
        let eps = 1e-4;
        let d_dx = (hybrid_cost(T, V, M, 5.0, x + eps, y) - hybrid_cost(T, V, M, 5.0, x - eps, y))
            / (2.0 * eps);
        let d_dy = (hybrid_cost(T, V, M, 5.0, x, y + eps) - hybrid_cost(T, V, M, 5.0, x, y - eps))
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
                let c = hybrid_cost(t, v, m, lambda, x, y);
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
        let c = hybrid_cost(T, V, M, 5.0, x, y);
        for (cx, cy) in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)] {
            assert!(c <= hybrid_cost(T, V, M, 5.0, cx, cy) + 1e-9);
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
        assert_eq!(hybrid_cost(6.0, 6.0, 1.2, 1.0, 0.0, 0.0), 36.0);
        assert_eq!(hybrid_cost(6.0, 6.0, 1.2, 1.0, 1.0, 1.0), 36.0);
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
        let seg = segmented_cost(T, V, M, 15.0, k);
        // Eq. 9 at x = k: (t+v)(1 + (λ+1)) = (λ+2)(t+v) = Grace.
        assert!((seg - grace_cost(T, V, 15.0)).abs() < 1e-6);
    }

    #[test]
    fn segmented_zero_materialization_is_iterate_only() {
        let seg = segmented_cost(T, V, M, 15.0, 0);
        let k = (T / M).ceil();
        assert!((seg - (T + V) * k).abs() < 1e-6);
    }

    #[test]
    fn io_splits_reconstruct_the_scalar_costs() {
        for lambda in [1.0, 2.0, 8.0, 15.0] {
            let (r, w) = grace_io(T, V);
            assert!((r + lambda * w - grace_cost(T, V, lambda)).abs() < 1e-6);
            let (r, w) = nlj_io(T, V, M);
            assert!((r + lambda * w - nlj_cost(T, V, M)).abs() < 1e-6);
            let (r, w) = hash_join_io(T, V, M);
            assert!((r + lambda * w - hash_join_cost(T, V, M, lambda)).abs() < 1e-6);
            for (x, y) in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.2), (0.3, 1.0)] {
                let (r, w) = hybrid_io(T, V, M, x, y);
                assert!(
                    (r + lambda * w - hybrid_cost(T, V, M, lambda, x, y)).abs() < 1e-6,
                    "hybrid λ={lambda} x={x} y={y}"
                );
            }
            for x in [0usize, 3, 7, 10] {
                let (r, w) = segmented_io(T, V, M, x);
                assert!(
                    (r + lambda * w - segmented_cost(T, V, M, lambda, x)).abs() < 1e-6,
                    "segmented λ={lambda} x={x}"
                );
            }
        }
    }

    #[test]
    fn eq10_bound_behaves() {
        // λ large relative to k: every partition materialization pays off
        // only below the bound; bound positive and below k.
        if let Some(b) = segmented_beats_grace_bound(4.0, 20.0) {
            assert!(b > 0.0);
        }
        // Degenerate denominator.
        assert!(segmented_beats_grace_bound(4.0, 15.0).is_none());
    }
}
