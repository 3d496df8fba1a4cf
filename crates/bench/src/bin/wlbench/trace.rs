//! The span recorder of the traced run.
//!
//! Spans are recorded by `wlbench` itself, around its calls into the
//! engine's public functions; nothing inside the engine is
//! instrumented. A span carries its parent, the workload and statement
//! it belongs to, host start/end times and the simulated I/O the
//! calling thread charged between the two (`pmem_sim::thread_flow`, so
//! reading it costs no flush and perturbs no counter). Spans stay in
//! memory and are written out when the run ends.

use crate::json::Json;
use pmem_sim::{thread_flow, IoStats};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Layer boundary, e.g. `parse`, `plan`, `execute`, `cell`.
    pub name: &'static str,
    /// Statement kind or cell the span belongs to; spans of one
    /// statement share it (with their root's id) as identifier.
    pub stmt: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated traffic charged between start and end.
    pub io: IoStats,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the calling thread. A disabled tracer runs the
/// same closures and records nothing, which is how the same pass is
/// timed with and without tracing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` belonging to `stmt`; nested
    /// calls become children.
    pub fn span<T>(&mut self, name: &'static str, stmt: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            stmt: stmt.to_string(),
            start_ns: 0,
            end_ns: 0,
            io: IoStats::default(),
        });
        self.open.push(id);
        let io_before = thread_flow();
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].io = thread_flow().since(&io_before);
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span (between traced passes).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. Children are clipped to the
/// parent and overlapping children are counted once, so the figure
/// stays right should spans ever come from concurrent workers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row of the self-time table: all spans of one name.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimeRow {
    pub name: &'static str,
    pub spans: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub io: IoStats,
}

/// Self time by span name, largest first — where the pass's host time
/// went, and therefore the most a faster layer could save.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfTimeRow> {
    let mut rows: Vec<SelfTimeRow> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = match rows.iter_mut().find(|r| r.name == s.name) {
            Some(row) => row,
            None => {
                rows.push(SelfTimeRow {
                    name: s.name,
                    spans: 0,
                    total_ns: 0,
                    self_ns: 0,
                    io: IoStats::default(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.spans += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += self_ns;
        // Inclusive traffic of nested spans of one name would count
        // twice; only roots of a name contribute.
        let nested = s.parent.is_some_and(|p| spans[p].name == s.name);
        if !nested {
            row.io = row.io.plus(&s.io);
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Durations in nanoseconds of every span named `name` whose statement
/// satisfies `stmt`.
pub fn durations(spans: &[Span], name: &str, stmt: impl Fn(&str) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && stmt(&s.stmt))
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Spans of the SQL front half: everything before execution.
pub const FRONT_HALF: [&str; 4] = ["parse", "catalog", "bind", "plan"];
/// Spans of the durable write path.
pub const WRITE_PATH: [&str; 3] = ["insert", "checkpoint", "reopen"];

/// Share of the pass (the root spans' total time) spent in the spans
/// named in `names`.
pub fn share_of_roots(spans: &[Span], names: &[&str]) -> f64 {
    let total = |keep: &dyn Fn(&Span) -> bool| -> u64 {
        spans
            .iter()
            .filter(|s| keep(s))
            .map(Span::duration_ns)
            .sum()
    };
    total(&|s| names.contains(&s.name)) as f64 / total(&|s| s.parent.is_none()).max(1) as f64
}

fn io_json(io: &IoStats) -> Json {
    Json::Obj(vec![
        ("cl_reads".into(), Json::Num(io.cl_reads as f64)),
        ("cl_writes".into(), Json::Num(io.cl_writes as f64)),
        ("software_ns".into(), Json::Num(io.software_ns)),
        ("calls".into(), Json::Num(io.calls as f64)),
    ])
}

/// The trace document: every span of the pass plus the self-time table.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let span_rows = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::str(s.name)),
                ("workload".into(), Json::str(workload)),
                ("stmt".into(), Json::str(s.stmt.as_str())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("io".into(), io_json(&s.io)),
            ])
        })
        .collect();
    let table = self_time_table(spans)
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::str(r.name)),
                ("spans".into(), Json::Num(r.spans as f64)),
                ("total_ns".into(), Json::Num(r.total_ns as f64)),
                ("self_ns".into(), Json::Num(r.self_ns as f64)),
                ("io".into(), io_json(&r.io)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::Num(seed as f64)),
        ("self_time".into(), Json::Arr(table)),
        ("spans".into(), Json::Arr(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            stmt: "s".into(),
            start_ns,
            end_ns,
            io: IoStats::default(),
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, None, "stmt", 0, 100),
            span(1, Some(0), "plan", 10, 40),
            // Overlaps `plan` on 30..40 and runs past the parent's end.
            span(2, Some(0), "execute", 30, 120),
            // Nested inside `execute`: must not reduce `stmt` again.
            span(3, Some(2), "deliver", 50, 60),
            // Fully inside `plan`'s interval: adds nothing new.
            span(4, Some(0), "bind", 15, 20),
        ];
        // Children cover 10..100 of the parent: 10 ns of self time.
        assert_eq!(self_times(&spans), vec![10, 30, 80, 10, 5]);
    }

    #[test]
    fn self_time_table_groups_by_name_and_ranks_by_self_time() {
        let spans = [
            span(0, None, "stmt", 0, 50),
            span(1, Some(0), "plan", 0, 40),
            span(2, None, "stmt", 50, 100),
            span(3, Some(2), "plan", 60, 70),
        ];
        let table = self_time_table(&spans);
        let row = |name: &str| table.iter().find(|r| r.name == name).expect("row");
        assert_eq!((row("plan").spans, row("plan").self_ns), (2, 50));
        assert_eq!((row("stmt").total_ns, row("stmt").self_ns), (100, 50));
        assert_eq!(table[0].name, "plan", "ties break by name");
        assert_eq!(share_of_roots(&spans, &["plan"]), 0.5);
        assert_eq!(durations(&spans, "plan", |s| s == "s"), vec![40.0, 10.0]);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let out = t.span("stmt", "q1", |t| {
            t.span("parse", "q1", |_| 1) + t.span("plan", "q1", |_| 2)
        });
        assert_eq!(out, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let doc = to_json("w", 7, spans);
        assert_eq!(Json::parse(&doc.pretty()), Ok(doc));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("stmt", "q1", |t| t.span("parse", "q1", |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
