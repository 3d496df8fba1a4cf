//! `--compare A.json B.json`: applies each metric's gate between a
//! baseline (A) and a candidate (B) result document. Exact metrics must
//! be equal; host metrics may worsen by their bound; a metric whose
//! pass-to-pass spread is wider than its bound is *unresolved* — neither
//! unchanged nor regressed — unless every candidate pass beats, or loses
//! to, every baseline pass. A
//! candidate with failed operations or wrong results fails whatever its
//! timings say.

use crate::defs::{Better, Gate};
use crate::json::Json;
use crate::stats::Summary;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, bit-identical.
    Same,
    /// Exact metric that differs: the counters moved.
    ExactMismatch,
    /// No worse than its bound allows, and the spread is narrow enough
    /// to say so.
    WithinBound,
    /// The spread is wider than the bound, but every candidate pass
    /// beats every baseline pass.
    AllBetter,
    /// The spread is wider than the bound and the passes of the two
    /// runs overlap: shown neither unchanged nor regressed.
    Unresolved,
    /// Worse than the baseline by more than its bound, with a spread
    /// narrow enough to say so or on every pass.
    Regression,
    /// Reported, never gated.
    Info,
    /// Present in only one of the two documents.
    Missing,
    /// The candidate's `ops_failed_share` is above 0: operations failed
    /// or returned wrong rows, so its other numbers measure nothing.
    Failed,
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    pub fn blocks(self) -> bool {
        matches!(
            self,
            Verdict::ExactMismatch | Verdict::Regression | Verdict::Missing | Verdict::Failed
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::ExactMismatch => "EXACT MISMATCH",
            Verdict::WithinBound => "within bound",
            Verdict::AllBetter => "better on every pass",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regression => "REGRESSION",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
            Verdict::Failed => "FAILED OPERATIONS",
        }
    }
}

/// One (workload, metric) row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub end_to_end: bool,
    pub a: Option<Summary>,
    pub b: Option<Summary>,
    pub verdict: Verdict,
}

/// Judges one metric present on both sides.
pub fn judge(gate: Gate, better: Better, a: &Summary, b: &Summary) -> Verdict {
    match gate {
        Gate::Info => Verdict::Info,
        Gate::Exact => {
            if (a.median, a.min, a.max) == (b.median, b.min, b.max) {
                Verdict::Same
            } else {
                Verdict::ExactMismatch
            }
        }
        Gate::Within(bound) => {
            let (b_below, b_above) = (b.max < a.min, b.min > a.max);
            let (worse_by, all_better, all_worse) = match better {
                Better::Lower => ((b.median - a.median) / a.median, b_below, b_above),
                Better::Higher => ((a.median - b.median) / a.median, b_above, b_below),
            };
            let resolved = a.spread().max(b.spread()) <= bound;
            if worse_by > bound && (resolved || all_worse) {
                Verdict::Regression
            } else if resolved {
                Verdict::WithinBound
            } else if all_better {
                Verdict::AllBetter
            } else {
                Verdict::Unresolved
            }
        }
    }
}

struct Entry {
    workload: String,
    metric: String,
    unit: String,
    end_to_end: bool,
    better: Better,
    gate: Gate,
    summary: Summary,
}

fn entries(doc: &Json) -> Result<Vec<Entry>, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result document has no \"workloads\" array")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        // Traced and untraced runs of one workload are different rows.
        let traced = w.get("traced") == Some(&Json::Bool(true));
        let workload = format!("{name}{}", if traced { " (traced)" } else { "" });
        for m in w.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |key: &str| m.get(key).and_then(Json::as_str);
            let metric = field("name").ok_or("metric without a name")?;
            let bad = || format!("{workload}/{metric}: malformed metric entry");
            out.push(Entry {
                workload: workload.clone(),
                metric: metric.to_string(),
                unit: field("unit").ok_or_else(bad)?.to_string(),
                end_to_end: field("level") == Some("end_to_end"),
                better: match field("better") {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    _ => return Err(bad()),
                },
                gate: m.get("gate").and_then(Gate::from_json).ok_or_else(bad)?,
                summary: Summary::from_json(m).ok_or_else(bad)?,
            });
        }
    }
    Ok(out)
}

/// Compares baseline `a` with candidate `b`, one row per (workload,
/// metric) of either.
///
/// # Errors
/// Returns what is malformed when a document is not a `wlbench` result.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (entries(a)?, entries(b)?);
    let same = |x: &Entry, y: &Entry| x.workload == y.workload && x.metric == y.metric;
    let mut rows: Vec<Row> = a
        .iter()
        .map(|ea| {
            let eb = b.iter().find(|eb| same(ea, eb));
            Row {
                workload: ea.workload.clone(),
                metric: ea.metric.clone(),
                unit: ea.unit.clone(),
                end_to_end: ea.end_to_end,
                a: Some(ea.summary),
                b: eb.map(|e| e.summary),
                verdict: eb.map_or(Verdict::Missing, |eb| {
                    // Equal shares are not "same" when they are equally
                    // broken.
                    if ea.metric == "ops_failed_share" && eb.summary.max > 0.0 {
                        Verdict::Failed
                    } else {
                        judge(ea.gate, ea.better, &ea.summary, &eb.summary)
                    }
                }),
            }
        })
        .collect();
    rows.extend(
        b.iter()
            .filter(|eb| !a.iter().any(|ea| same(ea, eb)))
            .map(|eb| Row {
                workload: eb.workload.clone(),
                metric: eb.metric.clone(),
                unit: eb.unit.clone(),
                end_to_end: eb.end_to_end,
                a: None,
                b: Some(eb.summary),
                verdict: Verdict::Missing,
            }),
    );
    Ok(rows)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(false)` when anything regressed.
///
/// # Errors
/// Returns a message when a file cannot be read or is not a result
/// document.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare(&load(a)?, &load(b)?)?;
    let cell = |s: &Option<Summary>| {
        s.map_or_else(
            || format!("{:>40}", "-"),
            |s| format!("{:>14.6} [{:>11.6} {:>11.6}]", s.median, s.q1, s.q3),
        )
    };
    println!(
        "{:<26} {:<44} {:<10} {:>40} {:>40}  verdict",
        "workload", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]"
    );
    for r in &rows {
        println!(
            "{:<26} {:<44} {:<10} {} {}  {}",
            r.workload,
            r.metric,
            r.unit,
            cell(&r.a),
            cell(&r.b),
            r.verdict.label()
        );
    }
    let count = |f: &dyn Fn(&Row) -> bool| rows.iter().filter(|r| f(r)).count();
    let blocking = count(&|r| r.verdict.blocks());
    println!(
        "{} rows: {blocking} regressed, mismatched, missing or failed; {} unresolved ({} of them end-to-end)",
        rows.len(),
        count(&|r| r.verdict == Verdict::Unresolved),
        count(&|r| r.verdict == Verdict::Unresolved && r.end_to_end),
    );
    Ok(blocking == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Summary {
        Summary::of(samples).expect("samples")
    }

    #[test]
    fn exact_metrics_must_repeat_bit_for_bit() {
        let a = Summary::constant(1234.0, 5);
        assert_eq!(judge(Gate::Exact, Better::Lower, &a, &a), Verdict::Same);
        let b = Summary::constant(1235.0, 5);
        assert_eq!(
            judge(Gate::Exact, Better::Lower, &a, &b),
            Verdict::ExactMismatch
        );
        // Fewer writes is still a mismatch: a count that moved is a
        // different program, to be claimed as such.
        let c = Summary::constant(1000.0, 5);
        assert!(judge(Gate::Exact, Better::Lower, &a, &c).blocks());
    }

    #[test]
    fn host_metrics_get_their_bound_and_wide_spreads_stay_unresolved() {
        let gate = Gate::Within(0.10);
        let a = s(&[1.00, 1.01, 1.02, 0.99, 1.00]);
        // 5 % slower, tight spread: within the bound.
        let b = s(&[1.05, 1.06, 1.04, 1.05, 1.05]);
        assert_eq!(judge(gate, Better::Lower, &a, &b), Verdict::WithinBound);
        // 20 % slower: regression; 20 % faster: no regression.
        let slow = s(&[1.20, 1.21, 1.19, 1.20, 1.22]);
        assert_eq!(judge(gate, Better::Lower, &a, &slow), Verdict::Regression);
        assert_eq!(judge(gate, Better::Lower, &slow, &a), Verdict::WithinBound);
        // Same median, but the candidate's quartiles are 30 % apart.
        let noisy = s(&[0.80, 1.00, 1.30, 0.85, 1.25]);
        assert_eq!(judge(gate, Better::Lower, &a, &noisy), Verdict::Unresolved);
        assert!(!Verdict::Unresolved.blocks());
        // Nor is a noisy run that reads 20 % slower a regression while
        // its passes overlap the baseline's.
        let noisy_slow = s(&[0.95, 1.20, 1.50, 1.00, 1.45]);
        assert_eq!(
            judge(gate, Better::Lower, &noisy, &noisy_slow),
            Verdict::Unresolved
        );
        // A spread that wide is only overruled by winning, or losing,
        // every pass.
        let halved = s(&[0.50, 0.51, 0.52]);
        assert_eq!(
            judge(gate, Better::Lower, &noisy, &halved),
            Verdict::AllBetter
        );
        assert_eq!(
            judge(gate, Better::Lower, &halved, &noisy),
            Verdict::Regression
        );
        // Throughput: lower is worse.
        let fast = s(&[100.0, 101.0, 99.0]);
        let slower = s(&[80.0, 81.0, 79.0]);
        assert_eq!(
            judge(gate, Better::Higher, &fast, &slower),
            Verdict::Regression
        );
        assert_eq!(
            judge(gate, Better::Higher, &slower, &fast),
            Verdict::WithinBound
        );
        assert_eq!(judge(Gate::Info, Better::Lower, &a, &slow), Verdict::Info);
    }

    fn doc(wall: &[f64], writes: f64, with_extra: bool) -> Json {
        doc_with_failures(wall, writes, with_extra, 0.0)
    }

    fn doc_with_failures(wall: &[f64], writes: f64, with_extra: bool, failed: f64) -> Json {
        let metric = |name: &str, gate: Gate, summary: Summary| {
            let mut m = vec![
                ("name".to_string(), Json::str(name)),
                ("unit".to_string(), Json::str("s")),
                ("better".to_string(), Json::str("lower")),
                ("level".to_string(), Json::str("end_to_end")),
                ("gate".to_string(), gate.to_json()),
            ];
            m.extend(summary.to_json());
            Json::Obj(m)
        };
        let mut metrics = vec![
            metric("wall_s", Gate::Within(0.1), s(wall)),
            metric("sim_cl_writes", Gate::Exact, Summary::constant(writes, 3)),
            metric(
                "ops_failed_share",
                Gate::Exact,
                Summary::constant(failed, 1),
            ),
        ];
        if with_extra {
            metrics.push(metric("extra", Gate::Info, s(&[1.0])));
        }
        let workload = Json::Obj(vec![
            ("name".into(), Json::str("w")),
            ("traced".into(), Json::Bool(false)),
            ("metrics".into(), Json::Arr(metrics)),
        ]);
        Json::Obj(vec![("workloads".into(), Json::Arr(vec![workload]))])
    }

    #[test]
    fn documents_compare_row_by_row_through_the_reader() {
        let base = Json::parse(&doc(&[1.0, 1.01, 0.99], 500.0, true).pretty()).expect("parses");
        let rows = compare(&base, &base).expect("comparable");
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            [
                Verdict::WithinBound,
                Verdict::Same,
                Verdict::Same,
                Verdict::Info
            ]
        );

        let worse = doc(&[1.5, 1.51, 1.49], 501.0, false);
        let rows = compare(&base, &worse).expect("comparable");
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            [
                Verdict::Regression,
                Verdict::ExactMismatch,
                Verdict::Same,
                Verdict::Missing
            ]
        );
        assert!(rows[0].end_to_end && rows[0].workload == "w");
        assert!(compare(&base, &Json::Null).is_err());
    }

    #[test]
    fn a_candidate_with_failed_operations_never_compares_clean() {
        // Timings and counts within bound, but one operation in a
        // hundred failed or returned wrong rows.
        let base = doc(&[1.0, 1.01, 0.99], 500.0, false);
        let broken = doc_with_failures(&[1.0, 1.01, 0.99], 500.0, false, 0.01);
        let failed = |a: &Json, b: &Json| {
            let rows = compare(a, b).expect("comparable");
            let row = rows.iter().find(|r| r.metric == "ops_failed_share");
            (
                row.expect("row").verdict,
                rows.iter().filter(|r| r.verdict.blocks()).count(),
            )
        };
        assert_eq!(failed(&base, &broken), (Verdict::Failed, 1));
        // A baseline that was broken the same way does not excuse it.
        assert_eq!(failed(&broken, &broken), (Verdict::Failed, 1));
        // A fixed candidate differs from its broken baseline, and says so.
        assert_eq!(failed(&broken, &base), (Verdict::ExactMismatch, 1));
        assert_eq!(failed(&base, &base), (Verdict::Same, 0));
    }
}
