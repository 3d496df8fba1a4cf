//! The paper's evaluation as a golden file: the text `repro` prints for
//! Table 1, Figs. 2 and 5–12 with their winner map, ablations A–F and
//! the plan sweep at `WL_SCALE=quick`, then the skew stars at the
//! default scale — byte-compared with `tests/golden/paper_figures.out`.
//!
//! Every number is simulated, so the file is the same on any host and at
//! any `WL_THREADS`: the figures and ablations run at an explicit DoP
//! (their counters are DoP-invariant), the plan sweep at DoP 1 (the
//! planner costs joins for the degree it fans out to), and the skew
//! stars at DoP 1 and 4, asserting the two agree. A flipped winner is a
//! changed `winner | …` line; the skew section asserts a total traffic
//! cut ≥ 20 % and uniform τ ≥ 0.97 while it renders.
//!
//! Regenerate with `WL_BLESS=1 cargo test --release -p wl-tests --test
//! paper_figures` — at the *parent* commit, never to make a diff go
//! away.

use wl_bench::Scale;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/paper_figures.out");

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about a minute in debug; CI runs it under --release"
)]
fn the_paper_figures_match_the_golden_file() {
    let got =
        wl_bench::evaluation(&Scale::quick(), 1) + &wl_bench::skew::skew(&Scale::default_scale());
    if std::env::var_os("WL_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("golden file written");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden figures present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first divergence at golden line {}", i + 1);
    }
    assert_eq!(got, want);
}
