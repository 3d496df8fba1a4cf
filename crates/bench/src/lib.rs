//! # wl-bench — reproduction harness
//!
//! One entry point per table/figure of the paper's evaluation (§4), each
//! printing the rows/series the paper reports from freshly simulated
//! runs, plus ablations for the runtime-driven knobs. The `repro` binary
//! is the one way in: `cargo run -p wl-bench --bin repro -- --all`, or
//! `--figure N` / `--table 1` / `--ablation` / `--plan` for one piece.

#![warn(missing_docs)]

pub mod ablation;
pub mod crash;
pub mod figures;
pub mod measure;
pub mod parallel;
pub mod plan;
pub mod profile;
pub mod scale;
pub mod skew;
pub mod table;

pub use crash::{crash_harness, crash_smoke};
pub use measure::{run_join, run_sort, Measurement};
pub use parallel::{parallel_speedup, parallel_speedup_cells, summary_json, wall_gap_smoke};
pub use plan::{plan_concordance, run_plan_concordance, PlanCell};
pub use profile::{profile_runs, profile_smoke, profile_to_file, ProfiledRun};
pub use scale::Scale;
pub use skew::{run_skew_cells, skew_bench, skew_smoke, SkewCell};
