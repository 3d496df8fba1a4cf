//! Order statistics over timing samples: medians, quartiles and tail
//! percentiles, with the rule that a percentile is only trusted when at
//! least [`TAIL_SAMPLES`] samples lie beyond it.

use crate::json::Json;

/// Samples that must lie beyond a percentile before it is reported as a
/// tail (p90 needs 100 samples, p99 needs 1000).
pub const TAIL_SAMPLES: usize = 10;

/// Median, quartiles, extremes and sample count of one metric's samples
/// (one sample per timed pass).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Self {
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        })
    }

    /// A summary whose every sample is `value` (exact counters).
    #[cfg(test)]
    pub fn constant(value: f64, n: usize) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n,
        }
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread `--compare` and the driver judge bounds against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Vec<(String, Json)> {
        vec![
            ("median".into(), Json::Num(self.median)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("n".into(), Json::Num(self.n as f64)),
        ]
    }

    pub fn from_json(obj: &Json) -> Option<Self> {
        Some(Self {
            median: obj.get("median")?.as_f64()?,
            q1: obj.get("q1")?.as_f64()?,
            q3: obj.get("q3")?.as_f64()?,
            min: obj.get("min")?.as_f64()?,
            max: obj.get("max")?.as_f64()?,
            n: obj.get("n")?.as_f64()? as usize,
        })
    }
}

/// `samples` in ascending order (NaN-free by construction: every sample
/// is a measured duration or a count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        0.0
    } else {
        quartiles(&sorted).1
    }
}

/// `(q1, median, q3)` of ascending samples, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread printed here is the spread the driver computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (in `0..=100`) of ascending samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile `p`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it — a tail read off a handful
/// of samples does not repeat.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    (sorted.len() >= rank + TAIL_SAMPLES).then(|| nearest_rank(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&sorted(&[3.0, 1.0, 2.0])), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_reports_spread_as_a_share_of_the_median() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]).expect("samples");
        assert_eq!((s.min, s.median, s.max, s.n), (9.0, 11.0, 13.0, 5));
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::constant(4.0, 3).spread(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.25, 1.5, 3.125]).expect("samples");
        assert_eq!(Summary::from_json(&Json::Obj(s.to_json())), Some(s));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        // 100 samples: p90 has exactly 10 beyond, p99 has one.
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&v, 99.0), None);
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(tail_percentile(&v[..99], 90.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 99.0), Some(990.0));
    }
}
