//! Statistics: Kendall's τ for the cost-model validation (Fig. 12),
//! plus the per-table statistics the planner's cardinality estimates
//! run on — a seeded HLL-style distinct-count sketch, an equi-depth
//! key histogram, and a heavy-hitter list that together replace the
//! uniform-key assumption on skewed data. A table known only by its
//! counts carries [`TableStatistics::uniform`] — the same type holding
//! nothing but the counts — so there is one estimator, not a skew-aware
//! one beside a uniform one. The statistics are *exactly
//! mergeable*, and freshness is paid where it is consumed:
//! [`TableStatistics::absorb`] only merges a batch of inserted keys into
//! the sketch registers and the sorted key multiset (O(batch) for
//! ascending keys), and [`TableStatistics::settle`] — run once per
//! reader, not once per writer — derives histogram and heavy hitters
//! from that state, landing on the same value
//! [`TableStatistics::build`] computes over the whole key multiset. So
//! ingest never rebuilds a sketch, and a write burst nobody reads
//! between never derives one either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of HLL registers in a [`DistinctSketch`]: 1024 registers give
/// a relative standard error of `1.04/√1024 ≈ 3.2%`.
const SKETCH_REGISTERS: usize = 1024;

/// Number of buckets an [`EquiDepthHistogram`] aims for.
const HISTOGRAM_BUCKETS: usize = 64;

/// Maximum number of heavy hitters [`TableStatistics`] tracks.
const HEAVY_HITTERS: usize = 32;

/// A key only counts as a heavy hitter when its frequency exceeds this
/// multiple of the table's mean key frequency — uniform tables therefore
/// carry an empty list and estimate exactly as before.
const HEAVY_FACTOR: f64 = 2.0;

/// Strong 64-bit mix (splitmix64 finalizer) used to hash keys into the
/// sketch; `seed` decorrelates sketches built for different tables.
fn mix64(key: u64, seed: u64) -> u64 {
    let mut x = key ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded HLL-style distinct-count sketch: each key hashes into one of
/// [`SKETCH_REGISTERS`] registers, which retains the maximum
/// leading-zero rank observed. O(1) insert, O(registers) estimate.
#[derive(Clone, Debug)]
pub struct DistinctSketch {
    seed: u64,
    registers: Vec<u8>,
}

impl DistinctSketch {
    /// An empty sketch seeded for deterministic hashing.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            registers: vec![0; SKETCH_REGISTERS],
        }
    }

    /// Observes one key occurrence (duplicates are absorbed).
    pub fn insert(&mut self, key: u64) {
        let h = mix64(key, self.seed);
        // High 10 bits pick the register; the rank of the remainder's
        // leading zeros is the observation.
        let idx = (h >> (64 - 10)) as usize;
        let rest = h << 10;
        let rank = (rest.leading_zeros() as u8 + 1).min(54);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct keys observed, with the standard
    /// linear-counting correction for small cardinalities.
    pub fn estimate(&self) -> f64 {
        let m = SKETCH_REGISTERS as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2.0f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// One bucket of an [`EquiDepthHistogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct Bucket {
    /// Largest key in the bucket (inclusive).
    max_key: u64,
    /// Number of rows in the bucket.
    rows: u64,
    /// Number of distinct keys in the bucket.
    distinct: u64,
}

/// Equi-depth key histogram: ~[`HISTOGRAM_BUCKETS`] buckets of roughly
/// equal row counts, each recording its key range, row count, and
/// distinct count. Selectivity lookups interpolate within the
/// straddling bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct EquiDepthHistogram {
    min_key: u64,
    buckets: Vec<Bucket>,
    rows: u64,
}

impl EquiDepthHistogram {
    /// Builds the histogram from a sorted key slice, handing every run of
    /// equal keys to `run` as `(key, length)` on the way, in key order.
    /// Returns `None` for an empty input.
    fn from_sorted(keys: &[u64], mut run: impl FnMut(u64, u64)) -> Option<Self> {
        let (&first, &last) = (keys.first()?, keys.last()?);
        debug_assert!(first <= last, "keys must be sorted");
        let depth = (keys.len() / HISTOGRAM_BUCKETS).max(1);
        let mut buckets = Vec::new();
        let (mut rows, mut distinct, mut run_len) = (0u64, 0u64, 0u64);
        let mut prev: Option<u64> = None;
        for (i, &k) in keys.iter().enumerate() {
            if prev != Some(k) {
                if let Some(p) = prev {
                    run(p, run_len);
                }
                run_len = 0;
                // Equal keys never straddle a bucket boundary, so a
                // point lookup of a frequent key stays exact.
                if rows as usize >= depth {
                    buckets.push(Bucket {
                        max_key: prev.unwrap_or(k),
                        rows,
                        distinct,
                    });
                    rows = 0;
                    distinct = 0;
                }
                distinct += 1;
            }
            rows += 1;
            run_len += 1;
            prev = Some(k);
            if i + 1 == keys.len() {
                buckets.push(Bucket {
                    max_key: k,
                    rows,
                    distinct,
                });
            }
        }
        run(last, run_len);
        Some(Self {
            min_key: first,
            buckets,
            rows: keys.len() as u64,
        })
    }

    /// Estimated fraction of rows with `key < bound`.
    pub fn fraction_below(&self, bound: u64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let mut covered = 0u64;
        let mut lo = self.min_key;
        for b in &self.buckets {
            if b.max_key < bound {
                covered += b.rows;
            } else {
                // Straddling bucket: interpolate over its key range.
                let width = (b.max_key - lo) as f64 + 1.0;
                let part = bound.saturating_sub(lo) as f64 / width;
                return ((covered as f64 + b.rows as f64 * part.clamp(0.0, 1.0))
                    / self.rows as f64)
                    .clamp(0.0, 1.0);
            }
            lo = b.max_key + 1;
        }
        1.0
    }

    /// Estimated number of distinct keys with `key < bound`.
    pub fn distinct_below(&self, bound: u64) -> f64 {
        let mut covered = 0.0;
        let mut lo = self.min_key;
        for b in &self.buckets {
            if b.max_key < bound {
                covered += b.distinct as f64;
            } else {
                let width = (b.max_key - lo) as f64 + 1.0;
                let part = bound.saturating_sub(lo) as f64 / width;
                return covered + b.distinct as f64 * part.clamp(0.0, 1.0);
            }
            lo = b.max_key + 1;
        }
        covered
    }

    /// Total rows the histogram covers.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Exact number of distinct keys the histogram was built over.
    fn distinct(&self) -> u64 {
        self.buckets.iter().map(|b| b.distinct).sum()
    }
}

/// The state [`TableStatistics::absorb`] merges into: the HLL registers
/// (merging is inserting, so a merged sketch equals the one built over
/// the union) and the key multiset in sorted order. Everything else a
/// [`TableStatistics`] reports is a function of these two.
#[derive(Debug)]
struct Mergeable {
    sketch: DistinctSketch,
    sorted: Vec<u64>,
    /// Keys were merged in since the owning statistics were last derived
    /// from this state.
    pending: bool,
}

impl Mergeable {
    fn from_keys(mut keys: Vec<u64>, seed: u64) -> Self {
        let mut sketch = DistinctSketch::new(seed);
        for &k in &keys {
            sketch.insert(k);
        }
        keys.sort_unstable();
        Self {
            sketch,
            sorted: keys,
            pending: false,
        }
    }

    /// Merges `batch` into the sorted multiset: only the part of it above
    /// the batch's smallest key moves, so keys arriving in ascending
    /// order cost O(batch).
    fn merge(&mut self, batch: &[u64]) {
        let mut batch = batch.to_vec();
        batch.sort_unstable();
        let Some(&first) = batch.first() else {
            return;
        };
        self.pending = true;
        for &k in &batch {
            self.sketch.insert(k);
        }
        let split = self.sorted.partition_point(|&k| k <= first);
        let tail = self.sorted.split_off(split);
        self.sorted.reserve(tail.len() + batch.len());
        let (mut t, mut b) = (tail.iter().peekable(), batch.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (t.peek(), b.peek()) {
            if x <= y {
                self.sorted.push(x);
                t.next();
            } else {
                self.sorted.push(y);
                b.next();
            }
        }
        self.sorted.extend(t);
        self.sorted.extend(b);
    }
}

/// Per-table statistics stored in the catalog at ingest: row count, a
/// sketch-estimated distinct count, an equi-depth histogram, and the
/// exact frequencies of the heavy-hitter keys (those `≥ 2×` the mean
/// frequency). Built deterministically from the data and the seed, so
/// the same seed always yields the same statistics.
///
/// Equality and `Clone` cover the derived statistics only: the state
/// [`TableStatistics::absorb`] merges into belongs to the one instance
/// the ingest path mutates, so the planner's copies (and the
/// `filtered_*` / `join` results it composes) never carry or copy it.
///
/// Between an `absorb` and the next [`TableStatistics::settle`] that
/// one instance is *unsettled*: its derived fields still describe the
/// keys before the batch. Only its writer may hold it then — whoever
/// hands statistics to a reader settles first, and copying an unsettled
/// instance (how a stale value would escape) is a debug-build panic.
#[derive(Debug)]
pub struct TableStatistics {
    rows: f64,
    distinct: f64,
    min_key: u64,
    max_key: u64,
    histogram: Option<EquiDepthHistogram>,
    /// `(key, estimated rows with that key)`, descending by frequency.
    heavy: Vec<(u64, f64)>,
    heavy_rows: f64,
    /// Sketch seed, kept so the mergeable state can be materialised later.
    seed: u64,
    /// Present only once the table has absorbed a batch.
    mergeable: Option<Box<Mergeable>>,
}

impl Clone for TableStatistics {
    fn clone(&self) -> Self {
        debug_assert!(self.is_settled(), "unsettled statistics copied");
        Self {
            histogram: self.histogram.clone(),
            heavy: self.heavy.clone(),
            mergeable: None,
            ..*self
        }
    }
}

impl PartialEq for TableStatistics {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.distinct == other.distinct
            && self.min_key == other.min_key
            && self.max_key == other.max_key
            && self.histogram == other.histogram
            && self.heavy == other.heavy
            && self.heavy_rows == other.heavy_rows
    }
}

impl TableStatistics {
    /// Builds statistics from the table's keys: one hashing pass for the
    /// sketch, a sort, and run-length passes over the sorted keys for
    /// the rest. Deterministic in `keys` and `seed`.
    pub fn build(keys: &[u64], seed: u64) -> Self {
        Self::derive(&Mergeable::from_keys(keys.to_vec(), seed))
    }

    /// Merges a batch of inserted keys into the mergeable state —
    /// O(batch) when the keys arrive in ascending order — and leaves the
    /// derived fields for [`TableStatistics::settle`]: until then every
    /// accessor still answers for the keys before the batch, so the
    /// writer must settle before a reader sees these statistics.
    ///
    /// The mergeable state is kept only from the first non-empty batch
    /// on: `prior` is invoked when it is missing and must return the keys
    /// these statistics were built from, in any order.
    pub fn absorb(&mut self, batch: &[u64], prior: impl FnOnce() -> Vec<u64>) {
        if batch.is_empty() {
            return;
        }
        self.mergeable
            .get_or_insert_with(|| Box::new(Mergeable::from_keys(prior(), self.seed)))
            .merge(batch);
    }

    /// Derives the statistics of everything absorbed so far, in linear
    /// passes over the sorted keys — no hashing of old keys, no re-sort.
    /// The result equals [`TableStatistics::build`] over the full key
    /// multiset field for field, however many batches were absorbed
    /// since the last call, so estimates and plan choices cannot tell a
    /// settled table from a rebuilt one. Returns whether anything was
    /// pending.
    pub fn settle(&mut self) -> bool {
        let Some(mut state) = self.mergeable.take_if(|state| state.pending) else {
            return false;
        };
        state.pending = false;
        *self = Self::derive(&state);
        self.mergeable = Some(state);
        true
    }

    /// Whether the derived fields cover every absorbed batch.
    pub fn is_settled(&self) -> bool {
        !self.mergeable.as_ref().is_some_and(|state| state.pending)
    }

    /// Everything the statistics report, as a function of the mergeable
    /// state — the one implementation behind `build` and `settle`, in one
    /// pass over the sorted keys.
    fn derive(state: &Mergeable) -> Self {
        let sorted = &state.sorted;
        // The heavy hitters are the longest runs, (length desc, key asc),
        // that reach the mean frequency's threshold — known only once the
        // pass has counted the distinct keys. The threshold is a length,
        // so every run it keeps is among the `HEAVY_HITTERS` longest:
        // the pass keeps those alone (the worst on top of a min-heap;
        // keys arrive ascending, so an equal length never displaces),
        // and the threshold filters them afterwards.
        let mut longest = BinaryHeap::with_capacity(HEAVY_HITTERS);
        let histogram = EquiDepthHistogram::from_sorted(sorted, |key, len| {
            if len < 2 {
                return;
            }
            let entry = Reverse((len, Reverse(key)));
            if longest.len() < HEAVY_HITTERS {
                longest.push(entry);
            } else if let Some(mut worst) = longest.peek_mut() {
                if entry < *worst {
                    *worst = entry;
                }
            }
        });
        let rows = sorted.len() as f64;
        let exact_distinct = histogram.as_ref().map_or(0, EquiDepthHistogram::distinct);
        let mean = if exact_distinct == 0 {
            0.0
        } else {
            rows / exact_distinct as f64
        };
        let mut heavy: Vec<(u64, f64)> = longest
            .into_iter()
            .map(|Reverse((len, Reverse(key)))| (key, len as f64))
            .filter(|&(_, c)| c >= HEAVY_FACTOR * mean)
            .collect();
        // (count desc, key asc) is a total order over distinct keys, so
        // the list does not depend on the order candidates were found in.
        heavy.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let heavy_rows = heavy.iter().map(|&(_, c)| c).sum();
        Self {
            rows,
            distinct: if sorted.is_empty() {
                0.0
            } else {
                state.sketch.estimate().max(1.0)
            },
            min_key: sorted.first().copied().unwrap_or(0),
            max_key: sorted.last().copied().unwrap_or(0),
            histogram,
            heavy,
            heavy_rows,
            seed: state.sketch.seed,
            mergeable: None,
        }
    }

    /// The degenerate sketch: `rows` rows spread evenly over the keys
    /// `[0, key_domain)` — no histogram, no heavy hitters. What a table
    /// registered by its counts alone carries; every estimator then
    /// reduces to the classic uniform-key formulas.
    pub fn uniform(rows: u64, key_domain: u64) -> Self {
        Self {
            rows: rows as f64,
            distinct: rows.min(key_domain) as f64,
            min_key: 0,
            max_key: key_domain.saturating_sub(1),
            histogram: None,
            heavy: Vec::new(),
            heavy_rows: 0.0,
            seed: 0,
            mergeable: None,
        }
    }

    /// Statistics for a join intermediate observed at run time: the row
    /// count is exact, the rest is estimated from the keys.
    pub fn observed(keys: &[u64], seed: u64) -> Self {
        Self::build(keys, seed)
    }

    /// Estimated row count.
    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Estimated distinct-key count.
    pub fn distinct_keys(&self) -> f64 {
        self.distinct
    }

    /// Heavy-hitter keys, most frequent first (empty on uniform data).
    pub fn heavy_keys(&self) -> Vec<u64> {
        self.heavy.iter().map(|&(k, _)| k).collect()
    }

    /// Fraction of rows covered by the heavy-hitter keys.
    pub fn heavy_cover(&self) -> f64 {
        if self.rows == 0.0 {
            0.0
        } else {
            self.heavy_rows / self.rows
        }
    }

    /// O(1)-style frequency lookup: exact for a heavy hitter, the mean
    /// residual frequency otherwise.
    pub fn frequency(&self, key: u64) -> f64 {
        for &(k, c) in &self.heavy {
            if k == key {
                return c;
            }
        }
        let resid_distinct = (self.distinct - self.heavy.len() as f64).max(1.0);
        (self.rows - self.heavy_rows).max(0.0) / resid_distinct
    }

    /// Estimated fraction of rows with `key < bound`.
    pub fn fraction_below(&self, bound: u64) -> f64 {
        if self.rows == 0.0 {
            return 0.0;
        }
        self.histogram.as_ref().map_or_else(
            || uniform_fraction_below(self.min_key, self.max_key, bound),
            |h| h.fraction_below(bound),
        )
    }

    /// Estimated fraction of rows with `key >= bound`.
    pub fn fraction_at_least(&self, bound: u64) -> f64 {
        (1.0 - self.fraction_below(bound)).clamp(0.0, 1.0)
    }

    /// Estimated number of distinct keys with `key < bound`.
    pub fn distinct_below(&self, bound: u64) -> f64 {
        match &self.histogram {
            Some(h) => h.distinct_below(bound).min(self.distinct.max(1.0)),
            None => self.distinct * uniform_fraction_below(self.min_key, self.max_key, bound),
        }
    }

    /// Conditions the statistics on `key < bound`.
    #[must_use]
    pub fn filtered_below(&self, bound: u64) -> Self {
        let frac = self.fraction_below(bound);
        let heavy: Vec<(u64, f64)> = self
            .heavy
            .iter()
            .filter(|&&(k, _)| k < bound)
            .copied()
            .collect();
        self.scaled(frac, self.distinct_below(bound), heavy, self.min_key, {
            bound.saturating_sub(1).min(self.max_key)
        })
    }

    /// Conditions the statistics on `key >= bound`.
    #[must_use]
    pub fn filtered_at_least(&self, bound: u64) -> Self {
        let frac = self.fraction_at_least(bound);
        let heavy: Vec<(u64, f64)> = self
            .heavy
            .iter()
            .filter(|&&(k, _)| k >= bound)
            .copied()
            .collect();
        let distinct = (self.distinct - self.distinct_below(bound)).max(0.0);
        self.scaled(frac, distinct, heavy, bound.max(self.min_key), self.max_key)
    }

    /// Conditions the statistics on `key % modulus == residue`.
    #[must_use]
    pub fn filtered_mod(&self, modulus: u64, residue: u64) -> Self {
        let m = modulus.max(1);
        let heavy: Vec<(u64, f64)> = self
            .heavy
            .iter()
            .filter(|&&(k, _)| k % m == residue)
            .copied()
            .collect();
        self.scaled(
            1.0 / m as f64,
            self.distinct / m as f64,
            heavy,
            self.min_key,
            self.max_key,
        )
    }

    fn scaled(&self, frac: f64, distinct: f64, heavy: Vec<(u64, f64)>, lo: u64, hi: u64) -> Self {
        let heavy_rows = heavy.iter().map(|&(_, c)| c).sum::<f64>();
        let rows = (self.rows * frac).max(heavy_rows);
        Self {
            rows,
            distinct: distinct
                .max(heavy.len() as f64)
                .max(if rows > 0.0 { 1.0 } else { 0.0 }),
            min_key: lo,
            max_key: hi,
            histogram: None,
            heavy,
            heavy_rows,
            seed: self.seed,
            mergeable: None,
        }
    }

    /// Estimated output cardinality of an equi-join with `other`, plus
    /// the statistics of the join's output keys: heavy hitters multiply
    /// per key (`Σ f_l(k)·f_r(k)`), the residual masses join under the
    /// classic uniform `r_l·r_r / max(d_l, d_r)` estimate.
    pub fn join(&self, other: &Self) -> (f64, Self) {
        let mut keys: Vec<u64> = self.heavy.iter().map(|&(k, _)| k).collect();
        for &(k, _) in &other.heavy {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let mut out_heavy: Vec<(u64, f64)> = Vec::new();
        let mut hot = 0.0;
        for k in keys {
            if k < self.min_key.max(other.min_key) || k > self.max_key.min(other.max_key) {
                continue;
            }
            let f = self.frequency(k) * other.frequency(k);
            if f > 0.0 {
                hot += f;
                out_heavy.push((k, f));
            }
        }
        let rd_l = (self.distinct - self.heavy.len() as f64).max(0.0);
        let rd_r = (other.distinct - other.heavy.len() as f64).max(0.0);
        let rr_l = (self.rows - self.heavy_rows).max(0.0);
        let rr_r = (other.rows - other.heavy_rows).max(0.0);
        let cold = if rd_l > 0.0 && rd_r > 0.0 {
            rr_l * rr_r / rd_l.max(rd_r)
        } else {
            0.0
        };
        let rows = hot + cold;
        out_heavy.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out_heavy.truncate(HEAVY_HITTERS);
        // Keys below twice the output's mean frequency are not heavy.
        let out_distinct = self.distinct.min(other.distinct).max(1.0);
        let mean = rows / out_distinct;
        out_heavy.retain(|&(_, f)| f >= HEAVY_FACTOR * mean);
        let heavy_rows = out_heavy.iter().map(|&(_, f)| f).sum();
        let stats = Self {
            rows,
            distinct: out_distinct,
            min_key: self.min_key.max(other.min_key),
            max_key: self.max_key.min(other.max_key),
            histogram: None,
            heavy: out_heavy,
            heavy_rows,
            seed: self.seed,
            mergeable: None,
        };
        (rows, stats)
    }
}

/// `fraction_below` when no histogram exists: keys spread evenly over
/// `[min_key, max_key]`. The width is taken in `f64` — the range may be
/// all of `u64` — and an empty range (a filter past the last key leaves
/// `min_key > max_key`) counts as one key wide.
fn uniform_fraction_below(min_key: u64, max_key: u64, bound: u64) -> f64 {
    let width = max_key.saturating_sub(min_key) as f64 + 1.0;
    (bound.saturating_sub(min_key) as f64 / width).clamp(0.0, 1.0)
}

/// Kendall's τ-b between two paired samples (ties-adjusted).
///
/// Returns a value in `[-1, 1]`: `1` is complete agreement, `-1`
/// complete disagreement, `0` independence. Returns `None` when either
/// sample has fewer than two items or is entirely tied (τ undefined).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    use std::cmp::Ordering::Equal;
    assert_eq!(a.len(), b.len(), "samples must be paired");
    let n = a.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i].partial_cmp(&a[j]).expect("finite values");
            let db = b[i].partial_cmp(&b[j]).expect("finite values");
            match (da, db) {
                (Equal, Equal) => {}
                (Equal, _) => ties_a += 1,
                (_, Equal) => ties_b += 1,
                (x, y) if x == y => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / denom)
}

/// Converts raw scores to dense ranks (0 = smallest); ties share a rank.
pub fn ranks(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("finite values"));
    let mut out = vec![0usize; values.len()];
    let mut rank = 0usize;
    for (pos, &i) in idx.iter().enumerate() {
        if pos > 0 && values[i] > values[idx[pos - 1]] {
            rank += 1;
        }
        out[i] = rank;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_orders_give_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&a, &b).expect("defined") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_orders_give_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&a, &b).expect("defined") + 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_swap_among_four_gives_two_thirds() {
        // τ = (C−D)/n0 with one discordant pair out of six: (5−1)/6.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 1.0, 3.0, 4.0];
        assert!((kendall_tau(&a, &b).expect("defined") - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ties_are_adjusted() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let tau = kendall_tau(&a, &b).expect("defined");
        assert!(tau > 0.8 && tau <= 1.0, "tau = {tau}");
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(kendall_tau(&[1.0], &[2.0]).is_none());
        assert!(kendall_tau(&[1.0, 1.0], &[2.0, 3.0]).is_none());
    }

    #[test]
    fn ranks_are_dense_with_ties() {
        assert_eq!(ranks(&[3.0, 1.0, 2.0, 1.0]), vec![2, 0, 1, 0]);
    }
}

#[cfg(test)]
mod table_statistics_tests {
    use super::*;
    use std::collections::HashMap;
    use wisconsin::Record;

    fn zipf_keys(n: u64, domain: u64, theta: f64, seed: u64) -> Vec<u64> {
        wisconsin::join_input_skewed(domain, n, theta, seed)
            .right
            .iter()
            .map(Record::key)
            .collect()
    }

    #[test]
    fn sketch_estimates_distinct_counts_within_error_bounds() {
        // Property loop: across seeds and cardinalities, the HLL-style
        // estimate stays within 10% of the truth (3σ of the 3.2% RSE).
        for seed in 0..10u64 {
            for &n in &[100u64, 1_000, 10_000, 50_000] {
                let mut sketch = DistinctSketch::new(seed);
                for k in 0..n {
                    sketch.insert(k);
                    sketch.insert(k); // duplicates must be absorbed
                }
                let est = sketch.estimate();
                let err = (est - n as f64).abs() / n as f64;
                assert!(err < 0.10, "seed {seed}, n {n}: estimate {est}, err {err}");
            }
        }
    }

    #[test]
    fn histogram_selectivity_tracks_uniform_and_zipf_truth() {
        for seed in 0..5u64 {
            // Uniform: every key in [0, 2000) appears twice.
            let uniform: Vec<u64> = (0..4000u64).map(|i| i % 2000).collect();
            // Zipf(1.2) over a 500-key domain.
            let zipf = zipf_keys(6000, 500, 1.2, seed);
            for keys in [&uniform, &zipf] {
                let stats = TableStatistics::build(keys, seed);
                for &bound in &[1u64, 50, 250, 499, 1000, 1999] {
                    let truth =
                        keys.iter().filter(|&&k| k < bound).count() as f64 / keys.len() as f64;
                    let est = stats.fraction_below(bound);
                    assert!(
                        (est - truth).abs() < 0.05,
                        "seed {seed}, bound {bound}: est {est}, truth {truth}"
                    );
                    let est_ge = stats.fraction_at_least(bound);
                    assert!((est_ge - (1.0 - truth)).abs() < 0.05);
                }
            }
        }
    }

    #[test]
    fn heavy_hitters_are_empty_on_uniform_and_exact_on_zipf() {
        let uniform: Vec<u64> = (0..4000u64).map(|i| i % 1000).collect();
        let stats = TableStatistics::build(&uniform, 7);
        assert!(
            stats.heavy_keys().is_empty(),
            "uniform data must not report heavy hitters"
        );

        let zipf = zipf_keys(8000, 1000, 1.2, 3);
        let stats = TableStatistics::build(&zipf, 7);
        let heavy = stats.heavy_keys();
        assert!(!heavy.is_empty(), "Zipf(1.2) has heavy hitters");
        // The reported frequency of each heavy hitter is exact.
        for &k in &heavy {
            let truth = zipf.iter().filter(|&&x| x == k).count() as f64;
            assert!((stats.frequency(k) - truth).abs() < 1e-9, "key {k}");
        }
        assert!(stats.heavy_cover() > 0.2, "cover {}", stats.heavy_cover());
    }

    #[test]
    fn join_estimate_beats_uniform_by_an_order_of_magnitude_on_skew() {
        // Two Zipf-skewed sides over one domain: the true join blows up
        // on the hot keys; the uniform estimate misses that entirely.
        for seed in 0..5u64 {
            let a = zipf_keys(4000, 400, 1.2, seed);
            let b = zipf_keys(4000, 400, 1.2, seed ^ 0xa5a5);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &k in &a {
                *counts.entry(k).or_insert(0) += 1;
            }
            let truth: f64 = b
                .iter()
                .map(|k| counts.get(k).copied().unwrap_or(0) as f64)
                .sum();
            let sa = TableStatistics::build(&a, 1);
            let sb = TableStatistics::build(&b, 2);
            let (est, _) = sa.join(&sb);
            let uniform = a.len() as f64 * b.len() as f64 / 400.0;
            let err = (est / truth).max(truth / est);
            let uniform_err = (uniform / truth).max(truth / uniform);
            assert!(
                err < 2.0,
                "seed {seed}: est {est}, truth {truth} (err {err})"
            );
            assert!(
                err < uniform_err,
                "seed {seed}: stats err {err} vs uniform err {uniform_err}"
            );
        }
    }

    #[test]
    fn join_estimate_matches_uniform_formula_on_uniform_inputs() {
        let a: Vec<u64> = (0..1000u64).collect();
        let b: Vec<u64> = (0..5000u64).map(|i| i % 1000).collect();
        let sa = TableStatistics::build(&a, 1);
        let sb = TableStatistics::build(&b, 2);
        let (est, out) = sa.join(&sb);
        // Truth is 5000; both the stats and the uniform formula should
        // land within sketch error of it.
        assert!(
            (est - 5000.0).abs() / 5000.0 < 0.15,
            "join estimate {est} far from 5000"
        );
        assert!(out.heavy_keys().is_empty(), "uniform join output");
    }

    #[test]
    fn filters_condition_the_statistics() {
        let zipf = zipf_keys(8000, 1000, 1.0, 9);
        let stats = TableStatistics::build(&zipf, 4);
        let below = stats.filtered_below(100);
        let truth = zipf.iter().filter(|&&k| k < 100).count() as f64;
        assert!(
            (below.rows() - truth).abs() / truth < 0.1,
            "rows {} vs {truth}",
            below.rows()
        );
        assert!(below.heavy_keys().iter().all(|&k| k < 100));
        let modded = stats.filtered_mod(4, 1);
        assert!(modded.heavy_keys().iter().all(|&k| k % 4 == 1));
        assert!(modded.rows() <= stats.rows() / 2.0);
        let ge = stats.filtered_at_least(500);
        let truth_ge = zipf.iter().filter(|&&k| k >= 500).count() as f64;
        assert!(
            (ge.rows() - truth_ge).abs() <= 0.1 * zipf.len() as f64,
            "rows {} vs {truth_ge}",
            ge.rows()
        );
    }

    #[test]
    fn statistics_are_deterministic_in_data_and_seed() {
        let zipf = zipf_keys(4000, 300, 1.1, 12);
        let a = TableStatistics::build(&zipf, 5);
        let b = TableStatistics::build(&zipf, 5);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.distinct_keys(), b.distinct_keys());
        assert_eq!(a.heavy_keys(), b.heavy_keys());
        assert_eq!(a.fraction_below(57), b.fraction_below(57));
    }

    #[test]
    fn heavy_hitters_are_the_longest_qualifying_runs_of_all() {
        // The reference: every run of the sorted keys, filtered by the
        // mean frequency, then ordered and cut to the list length.
        let reference = |keys: &[u64]| {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            let runs: Vec<(u64, f64)> = sorted
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as f64))
                .collect();
            let mean = sorted.len() as f64 / runs.len().max(1) as f64;
            let mut heavy: Vec<(u64, f64)> = runs
                .into_iter()
                .filter(|&(_, c)| c >= HEAVY_FACTOR * mean && c > 1.0)
                .collect();
            heavy.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            heavy.truncate(HEAVY_HITTERS);
            heavy
        };
        // 100 keys five times each among 2 000 singletons: more qualifying
        // runs than the list holds, all of one length.
        let mut tied: Vec<u64> = (0..2_000u64).map(|k| k * 7 + 3).collect();
        tied.extend((0..500u64).map(|i| (i % 100) * 13));
        let shapes: [(&str, Vec<u64>); 5] = [
            ("zipf", zipf_keys(8_000, 1_000, 1.2, 3)),
            ("tied", tied),
            ("uniform", (0..4_000u64).map(|i| i % 1_000).collect()),
            ("all-duplicate", vec![42; 2_000]),
            ("empty", Vec::new()),
        ];
        for (shape, keys) in &shapes {
            let stats = TableStatistics::build(keys, 1);
            assert_eq!(stats.heavy, reference(keys), "{shape}");
        }
        assert_eq!(reference(&shapes[1].1).len(), HEAVY_HITTERS);
    }

    /// Every observable of `a` equals `b`'s: the fields (through
    /// `PartialEq`) and the estimator outputs the planner consumes.
    fn assert_same_statistics(a: &TableStatistics, b: &TableStatistics, what: &str) {
        assert_eq!(a, b, "{what}: fields");
        let probe = TableStatistics::build(&zipf_keys(500, 64, 1.1, 5), 9);
        let mut points = vec![0, 1, 7, 63, 64, 500, 1_000, 4_999, 5_000, u64::MAX];
        points.extend(a.heavy_keys());
        for &k in &points {
            assert_eq!(
                a.fraction_below(k),
                b.fraction_below(k),
                "{what}: below {k}"
            );
            assert_eq!(
                a.distinct_below(k),
                b.distinct_below(k),
                "{what}: distinct {k}"
            );
            assert_eq!(a.frequency(k), b.frequency(k), "{what}: frequency {k}");
        }
        assert_eq!(a.heavy_keys(), b.heavy_keys(), "{what}: heavy keys");
        assert_eq!(a.heavy_cover(), b.heavy_cover(), "{what}: heavy cover");
        assert_eq!(a.join(&probe), b.join(&probe), "{what}: join as left");
        assert_eq!(probe.join(a), probe.join(b), "{what}: join as right");
    }

    #[test]
    fn absorbing_batches_equals_building_over_the_union() {
        let descending: Vec<u64> = (0..3_000u64).rev().collect();
        let interleaved: Vec<u64> = (0..3_000u64)
            .map(|i| if i % 2 == 0 { i } else { 5_000 - i })
            .collect();
        let shapes: [(&str, Vec<u64>); 6] = [
            ("uniform", (0..4_000u64).map(|i| i % 1_000).collect()),
            ("zipf", zipf_keys(4_000, 300, 1.2, 11)),
            ("all-duplicate", vec![42; 2_000]),
            ("descending", descending),
            ("interleaved", interleaved),
            ("empty", Vec::new()),
        ];
        for (shape, keys) in &shapes {
            for seed in 0..8u64 {
                // Seeded cut points: 1..=6 batches, empty ones included.
                let mut cuts: Vec<usize> = (0..seed % 6)
                    .map(|i| (mix64(i, seed) % (keys.len() as u64 + 1)) as usize)
                    .collect();
                cuts.sort_unstable();
                cuts.push(keys.len());
                let what = format!("{shape}, seed {seed}, cuts {cuts:?}");

                let first = &keys[..cuts[0]];
                let rebuilt = TableStatistics::build(keys, seed);
                // Settled after every batch (a reader between any two
                // writes), and once after all of them (a write burst).
                for settle_each in [true, false] {
                    let what = format!("{what}, settle each {settle_each}");
                    let mut merged = TableStatistics::build(first, seed);
                    let mut prior_asked = 0;
                    for w in cuts.windows(2) {
                        merged.absorb(&keys[w[0]..w[1]], || {
                            prior_asked += 1;
                            first.to_vec()
                        });
                        if settle_each {
                            merged.settle();
                        }
                    }
                    assert!(
                        prior_asked <= 1,
                        "{what}: state kept after the first absorb"
                    );
                    let pending = !settle_each && cuts[0] < keys.len();
                    assert_eq!(merged.is_settled(), !pending, "{what}");
                    if pending {
                        // Unsettled, it still answers for the keys before.
                        assert_eq!(merged, TableStatistics::build(first, seed), "{what}");
                    }
                    assert_eq!(merged.settle(), pending, "{what}: one settle for k batches");
                    assert!(!merged.settle(), "{what}: nothing left to settle");
                    assert_same_statistics(&merged, &rebuilt, &what);
                    // A clone drops the mergeable state and re-materialises
                    // it from the keys it is told it was built from.
                    let mut copy = merged.clone();
                    copy.absorb(&[7, 7, 7], || keys.clone());
                    copy.settle();
                    let mut all = keys.clone();
                    all.extend([7, 7, 7]);
                    assert_same_statistics(&copy, &TableStatistics::build(&all, seed), &what);
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unsettled statistics copied")]
    fn an_unsettled_instance_cannot_be_copied() {
        let mut stats = TableStatistics::build(&[1, 2, 3], 7);
        stats.absorb(&[4], || vec![1, 2, 3]);
        let _escaped = stats.clone();
    }

    #[test]
    fn the_uniform_sketch_is_exactly_the_uniform_key_model() {
        let close = |got: f64, want: f64, what: &str| {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "{what}: got {got}, closed form {want}"
            );
        };
        for seed in 0..200u64 {
            let draw = |i: u64, range: u64| 1 + mix64(i, seed) % range;
            let (rows, domain) = (draw(0, 100_000), draw(1, 100_000));
            let (bound, modulus) = (mix64(2, seed) % (2 * domain), draw(3, 64));
            let what = format!("rows {rows}, domain {domain}, bound {bound}, mod {modulus}");
            let s = TableStatistics::uniform(rows, domain);
            assert_eq!(s.rows(), rows as f64, "{what}");
            assert_eq!(s.distinct_keys(), rows.min(domain) as f64, "{what}");
            assert!(s.heavy_keys().is_empty(), "{what}");

            let (r, d) = (rows as f64, domain as f64);
            let sel = bound.min(domain) as f64 / d;
            close(s.fraction_below(bound), sel, &what);
            close(s.fraction_at_least(bound), 1.0 - sel, &what);
            close(s.filtered_below(bound).rows(), r * sel, &what);
            close(s.filtered_at_least(bound).rows(), r * (1.0 - sel), &what);
            close(s.filtered_mod(modulus, 0).rows(), r / modulus as f64, &what);

            let (o_rows, o_domain) = (draw(4, 100_000), draw(5, 100_000));
            let other = TableStatistics::uniform(o_rows, o_domain);
            let (est, out) = s.join(&other);
            let (d_l, d_r) = (rows.min(domain) as f64, o_rows.min(o_domain) as f64);
            close(est, r * o_rows as f64 / d_l.max(d_r), &what);
            assert_eq!(out.distinct_keys(), d_l.min(d_r), "{what}");
            assert!(out.heavy_keys().is_empty(), "{what}");
        }
    }

    #[test]
    fn selectivities_survive_the_edges_of_the_key_space() {
        // A range covering all of u64: its width, `max − min + 1`, is one
        // more than a u64 holds.
        let ends: Vec<u64> = (0..100)
            .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
            .collect();
        let whole = TableStatistics::build(&ends, 3).filtered_mod(1, 0);
        assert!((whole.fraction_below(1 << 63) - 0.5).abs() < 1e-9);
        assert!((whole.filtered_below(1 << 63).rows() - 50.0).abs() < 1e-6);
        // The same range inside one histogram bucket.
        let mut keys = vec![u64::MAX; 127];
        keys.push(0);
        let bucketed = TableStatistics::build(&keys, 3);
        assert!(bucketed.fraction_below(1 << 63) <= 1.0);
        assert!(bucketed.distinct_below(1 << 63) <= 2.0);
        // A filter past the last key leaves an empty range behind.
        let past = TableStatistics::uniform(100, 1_000).filtered_at_least(5_000);
        assert_eq!(past.rows(), 0.0);
        assert_eq!(past.filtered_below(10).rows(), 0.0);
        // An empty key domain is one key wide, not `0 − 1` wide.
        let no_domain = TableStatistics::uniform(10, 0);
        assert_eq!(no_domain.distinct_keys(), 0.0);
        assert_eq!(no_domain.fraction_below(0), 0.0);
        assert_eq!(no_domain.fraction_below(1), 1.0);
        assert_eq!(no_domain.filtered_mod(0, 0).rows(), 10.0);
        assert_eq!(no_domain.join(&no_domain).0, 0.0);
    }

    #[test]
    fn empty_tables_are_harmless() {
        let stats = TableStatistics::build(&[], 3);
        assert_eq!(stats.rows(), 0.0);
        assert_eq!(stats.distinct_keys(), 0.0);
        assert!(stats.heavy_keys().is_empty());
        assert_eq!(stats.fraction_below(10), 0.0);
        let (rows, _) = stats.join(&stats);
        assert_eq!(rows, 0.0);
    }
}
