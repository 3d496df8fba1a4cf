//! Host facts recorded next to every result, and the scratch directory
//! every file the benchmark creates lives under.

use crate::harness::Config;
use crate::json::Json;
use std::path::{Path, PathBuf};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not offer it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/mounts` (`"unknown"` where that cannot be read).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// `"release"` or `"debug"`: whether this binary was built with
/// optimizations (debug assertions are the observable proxy).
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The header object written at the top of every result document.
pub fn header(cfg: &Config) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::str("wlbench")),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("scale".into(), Json::Num(cfg.scale)),
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("nproc".into(), Json::Num(nproc() as f64)),
        // Every workload pins the degree of parallelism explicitly, so
        // `WL_THREADS` cannot change it.
        ("dop".into(), Json::Num(1.0)),
        ("load".into(), Json::str("closed loop, 1 client, 1 thread")),
        ("build_profile".into(), Json::str(build_profile())),
        (
            "temp_filesystem".into(),
            Json::str(filesystem_of(&cfg.scratch)),
        ),
        (
            "flush_policy".into(),
            Json::str("engine default: one fsync per acknowledged statement"),
        ),
    ])
}

/// Default scratch root: `<target dir>/wlbench`, found from the
/// running executable (`<target dir>/<profile>/wlbench`), so a run
/// writes only inside the build tree of its checkout.
pub fn default_scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("wlbench")))
        .unwrap_or_else(|| PathBuf::from("target/wlbench"))
}

/// A directory removed, with everything in it, when the value drops —
/// on success, on an error return and on an unwinding panic alike.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `root/tmp-<pid>-<tag>` (emptying a stale one first).
    ///
    /// # Errors
    /// Returns the path and the OS error when it cannot be created.
    pub fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let path = root.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn child(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_vanish_on_drop_and_on_panic() {
        let root = std::env::temp_dir().join(format!("wlbench-host-{}", std::process::id()));
        let kept = {
            let dir = ScratchDir::create(&root, "a").expect("creates");
            std::fs::write(dir.child("f"), b"x").expect("writes");
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!kept.exists(), "removed on drop");
        let root2 = root.clone();
        let panicked = std::panic::catch_unwind(move || {
            let dir = ScratchDir::create(&root2, "b").expect("creates");
            std::fs::write(dir.child("f"), b"x").expect("writes");
            panic!("workload failed");
        });
        assert!(panicked.is_err());
        assert!(
            std::fs::read_dir(&root)
                .expect("root stays")
                .next()
                .is_none(),
            "removed while unwinding"
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn host_facts_are_populated() {
        assert!(nproc() >= 1);
        assert!(["release", "debug"].contains(&build_profile()));
        assert!(!filesystem_of(&std::env::temp_dir()).is_empty());
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
