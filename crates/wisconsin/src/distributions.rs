//! Value distributions for skewed workloads.

use rand::Rng;

/// A Zipf(θ) sampler over `[0, n)` using a precomputed CDF. θ = 0
/// degenerates to uniform; θ around 1 is the classic heavy-skew setting
/// used in database microbenchmarks.
///
/// A draw `u` maps to the first index whose CDF value is at least `u`,
/// clamped to `n − 1` against rounding at the top. A guide table finds
/// it without a binary search: `guide[j]` is that index for
/// `u = j / g`, with `g` the power of two at or above `n`, so a draw
/// starts at `guide[⌊u·g⌋]` and steps forward past the entries still
/// below `u` — fewer than two steps on average.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds the sampler for `n` distinct values with exponent `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(theta >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // A power of two, so `j / g` and `u · g` are exact.
        let g = n.next_power_of_two();
        let mut guide = Vec::with_capacity(g);
        let mut i = 0;
        for j in 0..g {
            let u = j as f64 / g as f64;
            while i + 1 < n && cdf[i] < u {
                i += 1;
            }
            guide.push(i);
        }
        Self { cdf, guide }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the domain is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one value in `[0, n)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index(rng.gen())
    }

    /// The first index whose CDF value is at least `u ∈ [0, 1)`, clamped
    /// to `n − 1`. Every index before `guide[⌊u·g⌋]` has a CDF value below
    /// `⌊u·g⌋ / g ≤ u`, so the walk starts at or before the answer.
    fn index(&self, u: f64) -> usize {
        let g = self.guide.len();
        let last = self.cdf.len() - 1;
        let mut i = self.guide[((u * g as f64) as usize).min(g - 1)];
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform bucket off: {c}");
        }
    }

    #[test]
    fn high_theta_concentrates_on_small_values() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 5).count();
        assert!(head > 5_000, "head mass too small: {head}");
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(7, 0.8);
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..1_000).all(|_| z.sample(&mut rng) < 7));
    }

    /// The binary search `sample` ran before the guide table.
    fn searched(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn the_guide_table_draws_what_the_binary_search_drew() {
        let cases = [
            (1, 0.0),
            (1, 1.2),
            (2, 0.5),
            (7, 0.8),
            (10, 0.0),
            (100, 1.2),
            (1_000, 0.99),
            (5_000, 3.0),
            (25_000, 0.0),
            (25_000, 1.2),
        ];
        for (n, theta) in cases {
            let z = Zipf::new(n, theta);
            let mut rng = StdRng::seed_from_u64(n as u64);
            for _ in 0..1_000_000 {
                let u: f64 = rng.gen();
                assert_eq!(z.index(u), searched(&z.cdf, u), "n {n}, θ {theta}, u {u}");
            }
            // The CDF's own values (exact hits), and both ends of [0, 1).
            let edges = [0.0, 1.0 - f64::EPSILON / 2.0];
            for &u in z.cdf.iter().chain(&edges).filter(|&&u| u < 1.0) {
                assert_eq!(z.index(u), searched(&z.cdf, u), "n {n}, θ {theta}, u {u}");
            }
        }
    }
}
