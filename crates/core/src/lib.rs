//! # write-limited — sorts and joins for persistent memory
//!
//! Rust reproduction of *Write-limited sorts and joins for persistent
//! memory* (Stratis D. Viglas, PVLDB 7(5), 2014): sort and join operators
//! that trade expensive persistent-memory writes for cheaper reads, their
//! cost models, and the knob optimizer built on them.
//!
//! * [`sort`] — ExMS, SegS, HybS, LaS, SelS, cycle sort (§2.1)
//! * [`join`] — NLJ, GJ, HJ, HybJ, SegJ, LaJ (§2.2)
//! * [`context`] — the one execution context (device, layer, DRAM
//!   budget, degree of parallelism) every operator above runs in, and
//!   [`context::Capacity`], what the budget holds
//! * [`cost`] — Eqs. 1–11, Fig. 2 surface, knob selection (§2, §4.2.3),
//!   read/write-split predictions and candidate sets for plan enumerators
//! * [`deferral`] — the §3.1 rules for when a deferred collection is
//!   written, in closed form: the pass read-over-write first holds on
//!   ([`adaptive`], [`pipeline`]) and the planner's verdict
//! * [`exec`] — counted staging: one scan that filters or reshapes a
//!   collection into a new one between blocking operators
//! * [`parallel`] — scoped-thread worker pool that fans partition work
//!   out across cores (wall-clock scaling; simulated counts unchanged)
//! * [`stats`] — Kendall's τ for the Fig. 12 concordance experiment
//!
//! Plan-level algorithm selection lives in the `wl-planner` crate
//! (`crates/planner`), which consumes [`cost`]'s candidate sets and
//! predictions and lowers winning plans onto the operators above and
//! [`exec::stage`].
//!
//! ```
//! use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
//! use wisconsin::{sort_input, KeyOrder};
//! use write_limited::sort::{SortAlgorithm, SortContext};
//!
//! let dev = PmDevice::paper_default();
//! let input = PCollection::from_records_uncounted(
//!     &dev, LayerKind::BlockedMemory, "T",
//!     sort_input(10_000, KeyOrder::Random, 42));
//! let pool = BufferPool::new(500 * 80); // M = 500 records of DRAM
//! let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
//! let sorted = SortAlgorithm::SegS { x: 0.5 }.run(&input, &ctx, "sorted").unwrap();
//! assert_eq!(sorted.len(), 10_000);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod agg;
pub mod context;
pub mod cost;
pub mod deferral;
pub mod exec;
pub mod join;
pub mod parallel;
pub mod pipeline;
pub mod sort;
pub mod stats;
