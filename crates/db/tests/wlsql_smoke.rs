//! End-to-end smoke test: pipe the scripted golden session through the
//! `wlsql` binary and diff its stdout against the checked-in golden
//! file. CI runs this test (release profile) as its wlsql smoke, so the
//! golden mask below exists exactly once. The session pins
//! `SET threads` up front, so the output is identical under any
//! `WL_THREADS` (the CI matrix runs both serial and DoP 4).

use std::io::Write;
use std::process::{Command, Stdio};

/// `SHOW METRICS` rows that hold host wall time.
const WALL_METRICS: [&str; 4] = [
    "exec_wall_ns",
    "plan_wall_ns",
    "checkpoint_wall_ns",
    "recovery_wall_ns",
];

/// Masks host-dependent fields so profiled output diffs cleanly: wall
/// times (`12.3ms wall`, `0.4ms host`) become `#ms ...`, and the
/// [`WALL_METRICS`] lines lose their values.
fn mask_host_time(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for line in raw.lines() {
        let wall_metric = WALL_METRICS.iter().find_map(|name| {
            let ns = line.strip_prefix(name)?.strip_prefix("  ")?;
            (!ns.is_empty() && ns.bytes().all(|b| b.is_ascii_digit())).then_some(name)
        });
        if let Some(name) = wall_metric {
            out.push_str(&format!("{name}  #\n"));
            continue;
        }
        let mut masked = String::with_capacity(line.len());
        let mut rest = line;
        loop {
            let hit = ["ms wall", "ms host"]
                .iter()
                .filter_map(|m| rest.find(m))
                .min();
            let Some(at) = hit else {
                masked.push_str(rest);
                break;
            };
            let number_start = rest[..at]
                .rfind(|c: char| !c.is_ascii_digit() && c != '.')
                .map_or(0, |i| i + 1);
            masked.push_str(&rest[..number_start]);
            masked.push('#');
            masked.push_str(&rest[at..at + 7]);
            rest = &rest[at + 7..];
        }
        masked.push('\n');
        out.push_str(&masked);
    }
    out
}

fn run_wlsql(sql: &str) -> String {
    run_wlsql_with(&[], sql)
}

fn run_wlsql_with(args: &[&str], sql: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wlsql"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("wlsql starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(sql.as_bytes())
        .expect("session written");
    let out = child.wait_with_output().expect("wlsql exits");
    assert!(out.status.success(), "wlsql failed: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn diff_against_golden(stdout: &str, expected: &str) {
    if stdout != expected {
        // Line-level diff for a readable failure.
        let got: Vec<&str> = stdout.lines().collect();
        let want: Vec<&str> = expected.lines().collect();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "first divergence at golden line {}", i + 1);
        }
        assert_eq!(
            got.len(),
            want.len(),
            "output length differs (got {}, golden {})",
            got.len(),
            want.len()
        );
        panic!("outputs differ in trailing whitespace only");
    }
}

#[test]
fn analyze_session_matches_the_golden_output_after_masking() {
    // The observability session: EXPLAIN ANALYZE trees, the profile and
    // timing knobs, SHOW METRICS. Simulated columns are deterministic;
    // host wall-clock fields are masked on both sides of the diff.
    let stdout = run_wlsql(include_str!("golden/analyze.sql"));
    diff_against_golden(&mask_host_time(&stdout), include_str!("golden/analyze.out"));
}

#[test]
fn masking_pins_exactly_the_host_dependent_fields() {
    let raw = "  scan t  [2000 rows | 0r/0w meas | 0.0000s sim | 12.3ms wall]\n\
               -- 3 rows in 1 batches, 0.0000s simulated, 1.1ms host\n\
               exec_wall_ns  25484587\n\
               plan_wall_ns  1158060\n\
               checkpoint_wall_ns  4500000\n\
               recovery_wall_ns  0\n\
               stats_settles  3\n\
               plan_splits  3025\n\
               pool_peak_bytes  40000\n";
    let masked = mask_host_time(raw);
    assert!(masked.contains("| #ms wall]"), "{masked}");
    assert!(masked.contains(", #ms host"), "{masked}");
    assert!(masked.contains("exec_wall_ns  #\n"), "{masked}");
    assert!(masked.contains("plan_wall_ns  #\n"), "{masked}");
    assert!(masked.contains("checkpoint_wall_ns  #\n"), "{masked}");
    assert!(masked.contains("recovery_wall_ns  #\n"), "{masked}");
    // Simulated fields and counts pass through untouched.
    assert!(masked.contains("plan_splits  3025"));
    assert!(masked.contains("stats_settles  3"));
    assert!(masked.contains("0.0000s sim"));
    assert!(masked.contains("pool_peak_bytes  40000"));
}

#[test]
fn persistence_session_survives_a_reopen() {
    // Part 1 builds a durable database (create, insert, checkpoint,
    // post-checkpoint DDL); part 2 reopens the same directory and must
    // see the recovered state, starting with the deterministic recovery
    // banner. Same pair of sessions CI runs as a shell step.
    let dir = std::env::temp_dir().join(format!("wlsql-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("utf-8 temp path");

    let first = run_wlsql_with(&["--path", path], include_str!("golden/persist.sql"));
    diff_against_golden(&first, include_str!("golden/persist.out"));
    let second = run_wlsql_with(&["--path", path], include_str!("golden/persist2.sql"));
    diff_against_golden(&second, include_str!("golden/persist2.out"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scripted_session_matches_the_golden_output() {
    let sql = include_str!("golden/session.sql");
    let expected = include_str!("golden/session.out");

    let mut child = Command::new(env!("CARGO_BIN_EXE_wlsql"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("wlsql starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(sql.as_bytes())
        .expect("session written");
    let out = child.wait_with_output().expect("wlsql exits");

    assert!(out.status.success(), "wlsql failed: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    if stdout != expected {
        // Line-level diff for a readable failure.
        let got: Vec<&str> = stdout.lines().collect();
        let want: Vec<&str> = expected.lines().collect();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "first divergence at golden line {}", i + 1);
        }
        assert_eq!(
            got.len(),
            want.len(),
            "output length differs (got {}, golden {})",
            got.len(),
            want.len()
        );
        panic!("outputs differ in trailing whitespace only");
    }
}
