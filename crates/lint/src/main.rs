//! CLI for the RNG label registry check, run from the repo root.
//!
//! ```text
//! cargo run -p wmn_lint                          # check: findings, waivers, staleness
//! cargo run -p wmn_lint -- --update-registry     # rewrite ci/rng_labels.json first
//! ```
//!
//! Exit codes: `0` clean, `1` findings (a stale registry is one), `2` usage
//! or I/O error. The same check runs inside `cargo test` (`tests/selftest.rs`).

use std::path::Path;
use std::process::ExitCode;

use wmn_lint::{analyze_workspace, Analysis, REGISTRY_PATH};

fn print_summary(analysis: &Analysis) {
    for f in &analysis.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if !analysis.waived.is_empty() {
        println!("-- {} waived finding(s):", analysis.waived.len());
        for f in &analysis.waived {
            println!(
                "{}:{}: [{}] waived: {}",
                f.file,
                f.line,
                f.rule,
                f.waive_reason.as_deref().unwrap_or("")
            );
        }
    }
    println!(
        "wmn_lint: {} file(s) scanned, {} finding(s), {} waived, registry {}",
        analysis.files_scanned,
        analysis.findings.len(),
        analysis.waived.len(),
        if analysis.registry_fresh { "fresh" } else { "STALE" }
    );
}

fn run() -> Result<u8, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update_registry = match args.as_slice() {
        [] => false,
        [flag] if flag == "--update-registry" => true,
        _ => return Err("usage: wmn_lint [--update-registry]".to_string()),
    };
    let root = Path::new(".");
    if update_registry {
        // Two passes: write the regenerated registry first, then re-analyse
        // so the staleness finding reflects the tree being committed.
        let pre = analyze_workspace(root).map_err(|e| format!("scan failed: {e}"))?;
        let path = root.join(REGISTRY_PATH);
        std::fs::write(&path, &pre.registry).map_err(|e| format!("cannot write registry: {e}"))?;
        println!("wmn_lint: wrote {}", path.display());
    }
    let analysis = analyze_workspace(root).map_err(|e| format!("scan failed: {e}"))?;
    print_summary(&analysis);
    Ok(if analysis.findings.is_empty() { 0 } else { 1 })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("wmn_lint: {msg}");
            ExitCode::from(2)
        }
    }
}
