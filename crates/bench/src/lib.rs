//! # wl-bench — reproduction harness
//!
//! One entry point per table/figure of the paper's evaluation (§4), each
//! rendering the rows/series the paper reports from freshly simulated
//! runs, plus ablations for the runtime-driven knobs. The `repro` binary
//! is the one way in: `cargo run -p wl-bench --bin repro -- --all`, or
//! `--figure N` / `--table 1` / `--ablation` / `--plan` / `--skew` for
//! one piece. `tests/golden/paper_figures.out` pins the rendered text.

#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod measure;
pub mod parallel;
pub mod plan;
pub mod profile;
pub mod scale;
pub mod skew;
pub mod table;

pub use scale::Scale;

/// The deterministic part of `repro --all`: Table 1, Figs. 2 and 5–12
/// with their winner map, ablations A–F and the plan sweep, every
/// operator fanning out to `threads` workers (the plan sweep runs at
/// DoP 1, see [`plan`]).
pub fn evaluation(scale: &Scale, threads: usize) -> String {
    let mut out = figures::table1(scale, threads);
    for n in figures::FIGURES {
        out += &figures::figure(n, scale, threads).expect("a figure of the paper");
    }
    out += &ablation::ablations(scale, threads);
    out += &plan::plan_concordance(scale);
    out
}
