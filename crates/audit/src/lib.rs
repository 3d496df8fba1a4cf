//! `wl-audit`: an offline invariant checker for the write-limited
//! engine's counting, WAL, and panic disciplines.
//!
//! The engine's correctness rests on conventions the compiler cannot
//! see: simulated device counters mutate only inside `pmem-sim`'s
//! accounting files, `*_uncounted` escape hatches appear only where
//! results leave the cost model, the WAL follows append→fsync→apply,
//! recovery and exec hot paths never panic, every operator module
//! opens its span and DRAM hold through one guard, every record codec
//! method stays `#[inline]`, and the join and sort-kernel byte paths
//! never decode a record they only move. This crate enforces them with a hand-rolled
//! token-level scanner (no `syn`; the build is offline and
//! dependency-free) and file:line diagnostics.
//!
//! Run it with `cargo run --release -q -p wl-audit` from the workspace
//! root; it exits nonzero if any rule fires. Suppress a finding at the
//! site with `// audit:allow(<rule>) <reason>`.

pub mod lexer;
pub mod rules;

pub use rules::Diagnostic;

use std::fs;
use std::path::{Path, PathBuf};

/// Lexes one file's source and runs every rule over it. `rel` is the
/// workspace-relative path; zone membership is decided from it.
pub fn scan_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    rules::check(rel, &lexed)
}

/// True for paths the walker should not descend into or scan: build
/// output, audit fixtures (deliberately bad), golden files, the
/// vendored shim crates, and `*_tests.rs` siblings (test-only code
/// split out of panic-free zones).
fn skip(rel: &str) -> bool {
    rel.contains("/target/")
        || rel.starts_with("target/")
        || rel.contains("/fixtures/")
        || rel.contains("/golden/")
        || rel.contains("crates/shims/")
        || rel.ends_with("_tests.rs")
}

/// Recursively collects `.rs` files under `dir`, relative to `root`.
fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if skip(&rel_str) {
            continue;
        }
        if path.is_dir() {
            collect(root, &path, out);
        } else if rel_str.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Walks the workspace source trees (`crates/`, `examples/`, `tests/`)
/// and returns every diagnostic, sorted by file then line.
pub fn scan_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    for top in ["crates", "examples", "tests"] {
        collect(root, &root.join(top), &mut files);
    }
    let mut diags = Vec::new();
    for path in &files {
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(scan_source(&rel, &source));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// Locates the workspace root: walks up from `start` to the first
/// directory holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_fixtures_tests_and_shims() {
        assert!(skip("crates/audit/fixtures/panic_free.rs"));
        assert!(skip("crates/db/src/wal_tests.rs"));
        assert!(skip("crates/shims/rand/src/lib.rs"));
        assert!(skip("target/debug/build/foo.rs"));
        assert!(!skip("crates/db/src/wal.rs"));
    }

    #[test]
    fn clean_source_scans_clean() {
        let diags = scan_source(
            "crates/db/src/wal.rs",
            "pub fn frame(buf: &[u8]) -> Option<u8> { buf.first().copied() }\n",
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/pmem-sim").is_dir());
    }
}
