//! `repro`'s command line, run as a process.

use std::process::Command;

#[test]
fn a_mistyped_scale_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--config")
        .env("WL_SCALE", "quik")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "exit status");
    let err = String::from_utf8_lossy(&out.stderr);
    for name in ["quick", "default", "paper", "quik"] {
        assert!(err.contains(name), "usage names {name}: {err}");
    }
    assert!(out.stdout.is_empty(), "nothing ran");
}
