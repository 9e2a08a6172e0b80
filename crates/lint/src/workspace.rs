//! Workspace source discovery.
//!
//! The linter scans exactly the shipped source set: the root package's
//! `src/` plus every `crates/**/src/` tree. `tests/`, `examples/`,
//! `benches/`, and fixture directories are out of scope — the registry
//! records the streams a simulation draws from, and test code is free to
//! derive throwaway or duplicate labels on purpose. All directory walks are
//! sorted so the registry comes out byte-identical on every filesystem.

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

#[cfg(test)]
mod tests {
    use super::*;

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
