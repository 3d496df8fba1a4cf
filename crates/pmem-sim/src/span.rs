//! Structured profiling spans.
//!
//! A span brackets a region of work and captures three things: host
//! wall-time, the simulated I/O delta ([`IoStats`], from which simulated
//! time follows under a latency profile), and the thread that ran it.
//! Spans nest, so a profiled query yields a *tree* ([`SpanNode`]) whose
//! shape mirrors the call structure — plan nodes, operator phases, and
//! per-task leaves from the worker pool.
//!
//! Two properties the rest of the system relies on:
//!
//! * **Spans never perturb the counted workload.** Measurement is pure
//!   observation of the thread-local ledgers ([`crate::metrics::thread_flow`]);
//!   no span ever touches a [`crate::Metrics`] bank, so simulated counters
//!   are bit-identical with profiling on or off.
//! * **Child deltas sum to (at most) the parent's.** A frame's delta is
//!   taken from the monotonic per-thread flow ledger, which includes both
//!   the thread's own traffic and traffic it [`crate::metrics::adopt`]ed
//!   from completed worker tasks, so a parent always covers its children
//!   plus its own work ([`SpanNode::validate`]).
//!
//! Profiling is armed per-thread by [`begin_profile`]; while no profile is
//! active on the current thread every entry point here is a cheap no-op,
//! so instrumentation can be left on unconditionally.

use crate::metrics::{thread_flow, IoStats};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One node of a recorded profile tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Human-readable label (plan-node label, phase name, or `task-N`).
    pub label: String,
    /// Profiler-assigned id of the thread that ran the span.
    pub thread: u64,
    /// Host wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Simulated I/O delta over the span, inclusive of children.
    pub io: IoStats,
    /// Result cardinality, when the instrumented site reported one.
    pub rows: Option<u64>,
    /// Nested spans, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Component-wise sum of the direct children's deltas.
    pub fn children_io(&self) -> IoStats {
        self.children
            .iter()
            .fold(IoStats::default(), |acc, c| acc.plus(&c.io))
    }

    /// Checks the tree invariant: at every node, the children's deltas
    /// sum to at most the parent's (per counter; software time gets a
    /// nanosecond of float tolerance). Returns the offending label on
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        let kids = self.children_io();
        if kids.cl_reads > self.io.cl_reads
            || kids.cl_writes > self.io.cl_writes
            || kids.calls > self.io.calls
            || kids.software_ns > self.io.software_ns + 1.0
        {
            return Err(format!(
                "span '{}': children sum {kids:?} exceeds parent delta {:?}",
                self.label, self.io
            ));
        }
        for child in &self.children {
            child.validate()?;
        }
        Ok(())
    }

    /// First node (pre-order) whose label equals `label`.
    pub fn find(&self, label: &str) -> Option<&SpanNode> {
        if self.label == label {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(label))
    }

    /// Number of worker-task leaves (labels starting with `task-`) in the
    /// subtree.
    pub fn task_count(&self) -> usize {
        let own = usize::from(self.label.starts_with("task-"));
        own + self
            .children
            .iter()
            .map(SpanNode::task_count)
            .sum::<usize>()
    }
}

struct Frame {
    label: String,
    start: Instant,
    start_flow: IoStats,
    rows: Option<u64>,
    children: Vec<SpanNode>,
}

impl Frame {
    fn open(label: String) -> Self {
        Self {
            label,
            start: Instant::now(),
            start_flow: thread_flow(),
            rows: None,
            children: Vec::new(),
        }
    }

    fn close(self) -> SpanNode {
        SpanNode {
            label: self.label,
            thread: thread_id(),
            wall_ns: self.start.elapsed().as_nanos() as u64,
            io: thread_flow().since(&self.start_flow),
            rows: self.rows,
            children: self.children,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Stable profiler id of the calling thread (assigned on first use).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let id = t.get();
        if id != u64::MAX {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        id
    })
}

/// Whether a profile is active on the calling thread.
pub fn profiling() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Arms profiling on the calling thread by opening the root frame.
/// Must be balanced by [`end_profile`].
///
/// # Panics
/// Panics if a profile is already active on this thread (profiles do not
/// nest; nest [`span`]s instead).
pub fn begin_profile(label: &str) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        assert!(
            stack.is_empty(),
            "profile already active on this thread (root '{}')",
            stack[0].label
        );
        stack.push(Frame::open(label.to_string()));
    });
}

/// Closes the root frame and returns the recorded tree; disarms
/// profiling on this thread. Returns `None` if no profile was active.
/// Any frames left open by a non-local exit (error propagation dropped
/// their guards already, so this is belt-and-braces) are folded into
/// their parents rather than lost.
pub fn end_profile() -> Option<SpanNode> {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let mut node = stack.pop()?.close();
        while let Some(mut parent) = stack.pop() {
            parent.children.push(node);
            node = parent.close();
        }
        Some(node)
    })
}

/// RAII guard for one nested span; closes and attaches to its parent on
/// drop. Inert when no profile is active on the thread.
#[derive(Debug)]
pub struct Span {
    armed: bool,
}

impl Span {
    /// Whether this guard actually opened a frame.
    pub fn is_active(&self) -> bool {
        self.armed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // The frame below ours always exists: `span` only arms when
            // the stack is non-empty, and profiles close strictly after
            // the spans nested inside them.
            let node = stack.pop().expect("span stack underflow").close();
            if let Some(parent) = stack.last_mut() {
                parent.children.push(node);
            }
        });
    }
}

/// Opens a nested span labelled `label`. No-op unless a profile is
/// active on the calling thread.
pub fn span(label: &str) -> Span {
    span_with(|| label.to_string())
}

/// Opens a nested span, building the label lazily so inactive call sites
/// pay nothing for formatting.
pub fn span_with(label: impl FnOnce() -> String) -> Span {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.is_empty() {
            return Span { armed: false };
        }
        stack.push(Frame::open(label()));
        Span { armed: true }
    })
}

/// Records the result cardinality on the innermost open frame (no-op
/// when inactive).
pub fn note_rows(rows: u64) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            frame.rows = Some(rows);
        }
    });
}

/// Attaches a completed worker task as a leaf of the innermost open
/// frame (no-op when inactive). The caller is responsible for having
/// [`crate::metrics::adopt`]ed off-thread task traffic so the parent
/// frame's flow delta covers the leaf.
pub fn attach_task(label: String, thread: u64, wall_ns: u64, io: IoStats) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            frame.children.push(SpanNode {
                label,
                thread,
                wall_ns,
                io,
                rows: None,
                children: Vec::new(),
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adopt;
    use crate::Metrics;

    #[test]
    fn spans_are_inert_without_a_profile() {
        assert!(!profiling());
        {
            let s = span("ignored");
            assert!(!s.is_active());
            note_rows(5);
            attach_task("task-0".into(), 0, 0, IoStats::default());
        }
        assert!(end_profile().is_none());
    }

    #[test]
    fn nested_spans_build_a_tree_with_summing_deltas() {
        let m = Metrics::new();
        begin_profile("root");
        {
            let _a = span("a");
            m.add_reads(10);
            {
                let _b = span("a.b");
                m.add_writes(4);
            }
        }
        m.add_reads(1);
        let root = end_profile().expect("profile recorded");
        assert!(!profiling());
        assert_eq!(root.label, "root");
        assert_eq!(root.io.cl_reads, 11);
        assert_eq!(root.io.cl_writes, 4);
        let a = root.find("a").expect("child recorded");
        assert_eq!(a.io.cl_reads, 10);
        assert_eq!(a.io.cl_writes, 4);
        let b = root.find("a.b").expect("grandchild recorded");
        assert_eq!(b.io.cl_writes, 4);
        assert_eq!(b.io.cl_reads, 0);
        root.validate().expect("children sum within parents");
        assert_eq!(root.io.cl_reads - root.children_io().cl_reads, 1);
    }

    #[test]
    fn attached_tasks_count_and_validate_after_adoption() {
        let m = Metrics::new();
        begin_profile("root");
        {
            let _p = span("partition");
            m.add_reads(3); // coordinator's own share
            let worker = IoStats {
                cl_reads: 7,
                cl_writes: 2,
                software_ns: 0.0,
                calls: 1,
            };
            adopt(&worker);
            attach_task("task-0".into(), 99, 1_000, worker);
            attach_task("task-1".into(), 99, 1_000, IoStats::default());
        }
        let root = end_profile().expect("profile recorded");
        root.validate().expect("adopted leaves covered by parent");
        assert_eq!(root.task_count(), 2);
        let pool = root.find("partition").expect("pool span");
        assert_eq!(pool.io.cl_reads, 10);
        assert_eq!(pool.io.cl_reads - pool.children_io().cl_reads, 3);
    }

    #[test]
    fn note_rows_lands_on_innermost_frame() {
        begin_profile("root");
        {
            let _s = span("node");
            note_rows(42);
        }
        let root = end_profile().expect("profile recorded");
        assert_eq!(root.rows, None);
        assert_eq!(root.find("node").expect("node").rows, Some(42));
    }

    #[test]
    fn end_profile_folds_frames_left_open_by_unwind() {
        let m = Metrics::new();
        begin_profile("root");
        // Simulate an error path that never closed its span guard in
        // order (guards are Drop-based so this cannot happen in safe
        // code, but end_profile must still terminate).
        STACK.with(|s| s.borrow_mut().push(Frame::open("orphan".into())));
        m.add_writes(5);
        let root = end_profile().expect("profile recorded");
        assert_eq!(root.label, "root");
        assert_eq!(root.find("orphan").expect("folded").io.cl_writes, 5);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().expect("joins");
        assert_ne!(here, other);
    }
}
