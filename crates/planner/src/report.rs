//! Human-readable planning and concordance reports. The planner's
//! evidence ([`crate::NodeChoice`]) is values; this is where it becomes
//! text.

use crate::enumerate::{Alternative, Node, PlannedQuery};
use crate::physical::PhysicalPlan;
use pmem_sim::{IoStats, LatencyProfile, SpanNode};
use std::fmt::{self, Write};

/// Renders the per-node candidate tables: every alternative the
/// enumerator costed, cheapest first, with the winner marked.
pub fn render_choices(planned: &PlannedQuery) -> String {
    let mut out = String::new();
    // A `String` sink never fails.
    let _ = write_choices(&mut out, planned);
    out
}

/// The label of candidate `what` of `node`, e.g. `SegS, 32%`,
/// `GJ (swapped)`, `NLJ over deferred σ` or `((T ⋈ W) ⋈ V)`.
pub fn render_label(node: &Node, what: &Alternative) -> String {
    let mut out = String::new();
    // A `String` sink never fails.
    let _ = write_label(&mut out, node, what);
    out
}

fn write_choices(out: &mut String, planned: &PlannedQuery) -> fmt::Result {
    let (lambda, m) = (planned.lambda, planned.m_buffers);
    writeln!(out, "candidates at λ = {lambda}, M = {m:.0} buffers:")?;
    // One buffer for every label, padded as a `str`: by chars, `σ` and
    // `⋈` included.
    let mut label = String::new();
    for choice in &planned.choices {
        match &choice.node {
            Node::Sort { rows, buffers } => {
                writeln!(out, "  sort over ~{rows:.0} rows ({buffers:.0} buffers)")
            }
            Node::Join {
                left_rows: l,
                right_rows: r,
                left_buffers: lb,
                right_buffers: rb,
            } => writeln!(
                out,
                "  join ~{l:.0} x ~{r:.0} rows ({lb:.0}/{rb:.0} buffers)"
            ),
            Node::Order {
                considered: c,
                relations,
                ..
            } => {
                let n = relations.len();
                writeln!(
                    out,
                    "  join order over {n} relations ({c} subplans considered)"
                )
            }
        }?;
        for (i, cand) in choice.candidates.iter().enumerate() {
            label.clear();
            write_label(&mut label, &choice.node, &cand.what)?;
            let marker = if i == 0 { "→" } else { " " };
            writeln!(
                out,
                "   {marker} {label:<28} {:>14.0} units  ({:.0}r / {:.0}w)",
                cand.cost_units, cand.io.reads, cand.io.writes
            )?;
        }
    }
    Ok(())
}

fn write_label(out: &mut String, node: &Node, what: &Alternative) -> fmt::Result {
    match (*what, node) {
        (Alternative::Sort(algo), _) => write!(out, "{algo}"),
        (
            Alternative::Join {
                algo,
                swapped,
                deferred,
            },
            _,
        ) => {
            let arm = match (deferred, swapped) {
                (true, _) => " over deferred σ",
                (false, true) => " (swapped)",
                (false, false) => "",
            };
            write!(out, "{algo}{arm}")
        }
        (
            Alternative::Order { left, right },
            Node::Order {
                relations,
                best_left,
                ..
            },
        ) => {
            write_order(out, relations, best_left, left.into(), right.into());
            Ok(())
        }
        (Alternative::Order { .. }, _) => out.write_str("?"),
    }
}

/// Appends the join order `(left ⋈ right)` of two relation bitmasks,
/// every half of several relations split again at its winning left
/// half: e.g. `((a ⋈ c) ⋈ σb)`.
fn write_order(out: &mut String, names: &[String], best_left: &[u8], left: usize, right: usize) {
    out.push('(');
    for (i, half) in [left, right].into_iter().enumerate() {
        out.push_str(if i == 0 { "" } else { " ⋈ " });
        match best_left.get(half).map(|&l| usize::from(l)) {
            Some(l) if l != 0 => write_order(out, names, best_left, l, half ^ l),
            _ => out.push_str(
                names
                    .get(half.trailing_zeros() as usize)
                    .map_or("?", String::as_str),
            ),
        }
    }
    out.push(')');
}

/// Renders the chosen physical plan tree.
pub fn render_plan(planned: &PlannedQuery) -> String {
    let mut out = String::from("chosen plan:\n");
    // A `String` sink never fails.
    let _ = planned.plan.describe_into(&mut out, 1);
    out
}

/// Renders predicted vs `measured` cacheline traffic for one execution
/// — the plan-level Fig. 12 concordance row.
pub fn render_concordance(
    planned: &PlannedQuery,
    measured: &IoStats,
    latency: &LatencyProfile,
) -> String {
    let p = planned.predicted;
    let m = measured;
    // One rule for all three rows: nothing predicted and nothing
    // measured agree (1.00x); something predicted against nothing
    // measured is unboundedly off (inf), never "1.00x".
    let ratio = |pred: f64, meas: f64| {
        if meas > 0.0 {
            pred / meas
        } else if pred == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    };
    let pred_units = p.cost_units(planned.lambda);
    let meas_units = m.cl_reads as f64 + planned.lambda * m.cl_writes as f64;
    format!(
        "predicted vs measured (cachelines):\n\
         \x20 reads   {:>12.0} predicted   {:>12} measured   ({:.2}x)\n\
         \x20 writes  {:>12.0} predicted   {:>12} measured   ({:.2}x)\n\
         \x20 cost    {:>12.0} predicted   {:>12.0} measured   ({:.2}x)  [{:.3}s simulated]\n",
        p.reads,
        m.cl_reads,
        ratio(p.reads, m.cl_reads as f64),
        p.writes,
        m.cl_writes,
        ratio(p.writes, m.cl_writes as f64),
        pred_units,
        meas_units,
        ratio(pred_units, meas_units),
        m.time_secs(latency),
    )
}

/// Renders the plan that ran annotated per node with measured rows,
/// measured-vs-predicted cacheline traffic, simulated time, and host
/// wall time — the `EXPLAIN ANALYZE` body. `plan` is the chosen plan,
/// or an adaptive run's plan with the re-planned subtree spliced in.
/// `profile` is the span tree a profiled execution recorded
/// ([`crate::lower::execute_stream_profiled`]); its plan-node spans
/// carry the same labels as the plan, so the two trees are walked in
/// lock-step. Per-node traffic and simulated time are *exclusive* of
/// plan children (matching the per-node predictions, which exclude
/// inputs) but inclusive of the node's own operator phases and worker
/// tasks; wall time is inclusive.
pub fn render_analyze(plan: &PhysicalPlan, profile: &SpanNode, latency: &LatencyProfile) -> String {
    let mut out =
        String::from("analyzed plan (node traffic excludes inputs; wall is inclusive):\n");
    // The profile root is the "query" frame wrapping the plan-root span.
    match profile.find(&plan.label()) {
        Some(root_span) => analyze_into(plan, root_span, profile, latency, 1, &mut out),
        None => analyze_missing(plan, 1, &mut out),
    }
    out
}

fn io_minus(a: IoStats, b: &IoStats) -> IoStats {
    IoStats {
        cl_reads: a.cl_reads.saturating_sub(b.cl_reads),
        cl_writes: a.cl_writes.saturating_sub(b.cl_writes),
        software_ns: (a.software_ns - b.software_ns).max(0.0),
        calls: a.calls.saturating_sub(b.calls),
    }
}

fn analyze_into(
    plan: &PhysicalPlan,
    span: &SpanNode,
    profile: &SpanNode,
    latency: &LatencyProfile,
    depth: usize,
    out: &mut String,
) {
    // Match plan children to this span's children by label, in order
    // (execution opened them in the same pre-order the plan lists them).
    // An adaptive run pre-executes the first-materializing join outside
    // its parent's frame, so a child missing here falls back to a
    // whole-profile search; such out-of-place spans are rendered but not
    // subtracted from this node's own delta (their traffic was never
    // part of it).
    let children = plan.children();
    let mut matched: Vec<(Option<&SpanNode>, bool)> = Vec::with_capacity(children.len());
    let mut cursor = 0usize;
    for child in &children {
        let label = child.label();
        let found = span.children[cursor..]
            .iter()
            .position(|c| c.label == label)
            .map(|p| {
                cursor += p + 1;
                &span.children[cursor - 1]
            });
        match found {
            Some(s) => matched.push((Some(s), true)),
            None => matched.push((profile.find(&label), false)),
        }
    }

    // This node's own delta: inclusive minus plan-child subtrees. What
    // remains covers the node's operator phases, staging, and tasks.
    let mut own = span.io;
    let mut child_tasks = 0usize;
    for (m, direct) in &matched {
        if let (Some(m), true) = (m, direct) {
            own = io_minus(own, &m.io);
            child_tasks += m.task_count();
        }
    }
    let tasks = span.task_count().saturating_sub(child_tasks);

    let c = plan.cost();
    let rows = match span.rows {
        Some(n) => format!("est ~{:.0} / obs {n} rows", c.out_rows),
        None => format!("est ~{:.0} rows", c.out_rows),
    };
    let task_note = if tasks > 0 {
        format!(" | {tasks} tasks")
    } else {
        String::new()
    };
    let pad = "  ".repeat(depth);
    out.push_str(&format!(
        "{pad}{}  [{rows} | {}r/{}w meas, {:.0}r/{:.0}w pred | {:.4}s sim | {:.1}ms wall{task_note}]\n",
        plan.label(),
        own.cl_reads,
        own.cl_writes,
        c.io.reads,
        c.io.writes,
        own.time_secs(latency),
        span.wall_ns as f64 / 1e6,
    ));
    for (child, (m, _)) in children.iter().zip(matched) {
        match m {
            Some(child_span) => analyze_into(child, child_span, profile, latency, depth + 1, out),
            None => analyze_missing(child, depth + 1, out),
        }
    }
}

/// Fallback rendering for a plan subtree the profile carries no span
/// for (should not happen; kept so a report never panics).
fn analyze_missing(plan: &PhysicalPlan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!("{pad}{}  [not measured]\n", plan.label()));
    for child in plan.children() {
        analyze_missing(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableStats};
    use crate::enumerate::Planner;
    use crate::logical::LogicalPlan;
    use crate::lower::{execute_stream, execute_stream_profiled};
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use std::sync::Arc;

    #[test]
    fn choice_report_marks_the_winner() {
        let mut cat = Catalog::new();
        cat.add_stats("T", TableStats::wisconsin(10_000));
        let planned = Planner::new(15.0, 625.0, LayerKind::BlockedMemory)
            .plan(&LogicalPlan::scan("T").sort(), &cat)
            .expect("plans");
        let report = render_choices(&planned);
        assert!(report.contains("→"));
        assert!(report.contains("ExMS"));
        let plan_report = render_plan(&planned);
        assert!(plan_report.contains("sort via"));
        assert!(plan_report.contains("scan T"));
    }

    #[test]
    fn concordance_rows_share_one_ratio_rule() {
        // A three-way join over an empty table predicts a little traffic
        // (sizes are floored at one buffer) and measures none: all three
        // rows must say so the same way.
        let dev = PmDevice::paper_default();
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            let data = Arc::new(pmem_sim::PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                name,
                std::iter::empty::<wisconsin::WisconsinRecord>(),
            ));
            cat.add_table(name, data, 0);
        }
        let logical = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"))
            .join(LogicalPlan::scan("c"));
        let pool = BufferPool::new(200 * 80);
        let planned = Planner::for_device(&dev, &pool, LayerKind::BlockedMemory)
            .plan(&logical, &cat)
            .expect("plans");
        assert!(planned.predicted.reads > 0.0);
        let run = execute_stream(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool)
            .expect("executes");
        assert_eq!((run.stats.cl_reads, run.stats.cl_writes), (0, 0));
        let report = render_concordance(&planned, &run.stats, &dev.config().latency);
        let ratios: Vec<&str> = report
            .lines()
            .skip(1)
            .filter_map(|l| Some(&l[l.find('(')?..=l.find(')')?]))
            .collect();
        let writes = if planned.predicted.writes > 0.0 {
            "(infx)"
        } else {
            "(1.00x)"
        };
        assert_eq!(ratios, ["(infx)", writes, "(infx)"], "{report}");

        // Measured traffic puts plain quotients in every row.
        let measured = pmem_sim::IoStats {
            cl_reads: 2 * planned.predicted.reads as u64,
            cl_writes: 1,
            ..pmem_sim::IoStats::default()
        };
        let report = render_concordance(&planned, &measured, &dev.config().latency);
        assert!(report.contains("(0.50x)"), "{report}");
        assert!(!report.contains("inf"), "{report}");
    }

    #[test]
    fn analyze_report_annotates_every_plan_node() {
        let dev = PmDevice::paper_default();
        let rows = 2000u64;
        let data = Arc::new(pmem_sim::PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            wisconsin::sort_input(rows, wisconsin::KeyOrder::Random, 7),
        ));
        let mut cat = Catalog::new();
        cat.add_table("T", data, rows);
        let pool = BufferPool::new(rows as usize * 8); // force external behaviour
        let planned = Planner::new(
            dev.lambda(),
            pool.budget_buffers() as f64,
            LayerKind::BlockedMemory,
        )
        .plan(
            &LogicalPlan::scan("T")
                .filter(crate::logical::Predicate::KeyBelow(1000))
                .sort(),
            &cat,
        )
        .expect("plans");
        let run = execute_stream_profiled(&planned, &cat, &dev, LayerKind::BlockedMemory, &pool)
            .expect("executes");
        let profile = run.profile.expect("profile recorded");
        profile.validate().expect("span sums hold");
        // The profile covers exactly the measured device delta.
        assert_eq!(profile.io.cl_reads, run.stats.cl_reads);
        assert_eq!(profile.io.cl_writes, run.stats.cl_writes);
        let report = render_analyze(&planned.plan, &profile, &dev.config().latency);
        assert!(report.contains("sort via"));
        assert!(report.contains("scan T"));
        assert!(report.contains("obs 1000 rows"));
        assert!(report.contains("ms wall"));
        assert!(!report.contains("not measured"));
    }
}
