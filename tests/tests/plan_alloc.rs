//! The join-order search's heap traffic, counted.
//!
//! The subset DP costs `(3^n − 2^(n+1) + 1) / 2` splits — 3 025 at
//! eight relations — and keeps one entry per relation subset, but what
//! a plan hands back grows with its relations only: one leaf plan per
//! relation, one candidate table per winning edge, and the root's
//! join-order evidence as values (two relation bitmasks per root order,
//! one byte per subset for its winning left half, the relation names).
//! No label is formatted while planning: the text is made by
//! `render_choices` and `render_plan`, whose allocations are counted
//! here on the same plans but apart from planning's, so a statement
//! that renders nothing pays for no text. This binary counts every
//! allocation on the planning thread with a counting global allocator
//! and holds `Planner::plan` of 2–8-relation chains to a budget per
//! relation, which one allocation per split, or one label per root
//! order, exceeds at eight relations on any host.
//!
//! It is a binary of its own because a `#[global_allocator]` is
//! process-wide; the counter is per thread, so the harness's other
//! threads do not count.

use planner::{
    render_choices, render_plan, Catalog, LogicalPlan, Planner, TableStats, MAX_JOIN_RELATIONS,
};
use pmem_sim::LayerKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations made
/// by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`,
// which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Allocations one plan may make per relation: its leaf plan, its share
/// of the winning edges' candidate tables and of the join-order
/// evidence. Measured: 18 at two relations, 80 at eight.
const PER_RELATION: u64 = 11;

#[test]
fn planning_allocates_per_relation_not_per_split() {
    let mut cat = Catalog::new();
    cat.add_stats("r0", TableStats::wisconsin(50_000));
    let mut logical = LogicalPlan::scan("r0");
    let planner = Planner::new(15.0, 3125.0, LayerKind::BlockedMemory);
    let mut report = Vec::new();
    for n in 2..=MAX_JOIN_RELATIONS {
        let name = format!("r{}", n - 1);
        cat.add_stats(&name, TableStats::wisconsin(50_000));
        logical = logical.join(LogicalPlan::scan(&name));
        // Once to settle anything a first call initialises.
        planner.plan(&logical, &cat).expect("plans");
        let (allocs, planned) = allocations(|| planner.plan(&logical, &cat).expect("plans"));
        let (rendered, text) =
            allocations(|| format!("{}{}", render_choices(&planned), render_plan(&planned)));
        let n64 = n as u64;
        let orders = (1u64 << (n - 1)) - 1;
        let splits = planned.splits_costed as u64;
        let budget = PER_RELATION * n64;
        report.push(format!(
            "n = {n}: {allocs} allocations to plan, {rendered} to render {} bytes; \
             {orders} root orders, {splits} splits, budget {budget}",
            text.len()
        ));
        // Where the splits and the root orders outnumber the relations
        // most, one allocation per split or per order must not fit.
        if n == MAX_JOIN_RELATIONS {
            assert!(
                budget < orders && orders < splits,
                "a budget of {budget} admits {orders} root orders"
            );
        }
        assert!(
            allocs <= budget,
            "{n} relations: {allocs} allocations for {orders} root orders and {splits} splits \
             exceed {budget}:\n{}",
            report.join("\n")
        );
    }
    println!("{}", report.join("\n"));
}
