//! Workspace source discovery.
//!
//! The linter scans exactly the shipped source set: the root package's
//! `src/` plus every `crates/**/src/` tree. `tests/`, `examples/`,
//! `benches/`, and fixture directories are out of scope — the determinism
//! contract binds what runs inside a simulation, and test code is free to
//! probe nondeterminism on purpose. All directory walks are sorted so the
//! report and the registry come out byte-identical on every filesystem.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file slated for analysis.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Repo-relative path with `/` separators, used in findings and reports.
    pub rel: String,
    /// Owning crate: the directory name under `crates/` (`"mac"`,
    /// `"devtools/proptest"`), or `"wmn"` for the root package.
    pub crate_name: String,
}

/// Collects every `.rs` file under the root package's `src/` and each
/// crate's `src/`, sorted by repo-relative path.
///
/// # Errors
///
/// Propagates filesystem errors other than the root simply lacking a `src/`
/// or `crates/` directory.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, root, "wmn", &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for dir in sorted_dirs(&crates)? {
            let name = file_name(&dir);
            if dir.join("src").is_dir() {
                walk_rs(&dir.join("src"), root, &name, &mut out)?;
            } else {
                // One nesting level for grouped crates (crates/devtools/*).
                for sub in sorted_dirs(&dir)? {
                    if sub.join("src").is_dir() {
                        let sub_name = format!("{name}/{}", file_name(&sub));
                        walk_rs(&sub.join("src"), root, &sub_name, &mut out)?;
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn file_name(p: &Path) -> String {
    p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

fn walk_rs(dir: &Path, root: &Path, crate_name: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, root, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile { path, rel, crate_name: crate_name.to_string() });
        }
    }
    Ok(())
}

/// Crates bound by the full determinism contract (their directory names
/// under `crates/`): everything that executes inside a simulated run.
/// `exec`, `bench`, `experiments`, and the devtools shims sit outside the
/// event loop and are exempt from `no-hash-iter` (they still answer to the
/// other rules).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "phy",
    "mac",
    "routing",
    "core",
    "netsim",
    "transport",
    "traffic",
    "topology",
    "metrics",
    "scengen",
];

/// Path prefixes where wall-clock reads are legitimate: the telemetry and
/// harness layer, which reports *about* runs rather than participating in
/// them.
pub const WALL_CLOCK_ALLOWED: &[&str] =
    &["crates/exec/", "crates/devtools/", "crates/experiments/src/bin/"];

/// Per-file rule switches derived from where the file lives.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleConfig {
    /// Run `no-hash-iter` (deterministic crates only).
    pub deterministic: bool,
    /// Skip `no-wall-clock` (telemetry allowlist).
    pub wall_clock_allowed: bool,
}

/// Computes the rule switches for a file.
pub fn config_for(rel: &str, crate_name: &str) -> RuleConfig {
    RuleConfig {
        deterministic: DETERMINISTIC_CRATES.contains(&crate_name),
        wall_clock_allowed: WALL_CLOCK_ALLOWED.iter().any(|p| rel.starts_with(p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_classifies_layers() {
        let c = config_for("crates/mac/src/dcf.rs", "mac");
        assert!(c.deterministic);
        assert!(!c.wall_clock_allowed);
        let c = config_for("crates/exec/src/executor.rs", "exec");
        assert!(!c.deterministic);
        assert!(c.wall_clock_allowed);
        // Experiment *binaries* may time themselves; the shared library
        // code in crates/experiments/src/*.rs may not.
        let c = config_for("crates/experiments/src/bin/repro_all.rs", "experiments");
        assert!(c.wall_clock_allowed);
        let c = config_for("crates/experiments/src/common.rs", "experiments");
        assert!(!c.wall_clock_allowed);
        let c = config_for("crates/devtools/proptest/src/lib.rs", "devtools/proptest");
        assert!(c.wall_clock_allowed);
        // The allocation gate counts; `perfbench/` (outside this workspace)
        // owns time.
        let c = config_for("crates/bench/src/bin/alloc_gate.rs", "bench");
        assert!(!c.wall_clock_allowed);
    }

    #[test]
    fn collect_sources_is_sorted_and_scoped_to_src() {
        // The linter's own crate is a convenient self-target.
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = collect_sources(manifest.parent().unwrap().parent().unwrap()).unwrap();
        assert!(files.iter().any(|f| f.rel == "crates/lint/src/lexer.rs"));
        assert!(files.iter().all(|f| !f.rel.contains("/tests/")), "tests/ is out of scope");
        assert!(files.iter().all(|f| f.rel.ends_with(".rs")));
        let mut sorted = files.iter().map(|f| f.rel.clone()).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(sorted, files.iter().map(|f| f.rel.clone()).collect::<Vec<_>>());
        let lint = files.iter().find(|f| f.rel == "crates/lint/src/lexer.rs").unwrap();
        assert_eq!(lint.crate_name, "lint");
        assert!(files.iter().any(|f| f.crate_name == "devtools/proptest"));
    }
}
