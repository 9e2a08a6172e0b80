//! `wmn_lint` — the RNG label registry.
//!
//! The repro contract for this repository is *bit-identical results*: the
//! same scenario and seed must produce byte-for-byte the same report on any
//! machine, any worker count, any run. Each invariant behind that contract
//! is held by the mechanism that holds it by construction, not by a token
//! heuristic:
//!
//! | Invariant | Holder |
//! |---|---|
//! | no wall clock, sleep, process id or environment read in a run | root `clippy.toml`, `disallowed-methods` (8 entries), type-resolved over every target; exceptions are `#[allow]` attributes with a reason |
//! | no `HashMap`/`HashSet`/`RandomState`/`SystemTime` anywhere | root `clippy.toml`, `disallowed-types` (4 entries) |
//! | a received frame is shared, never copied per receiver | `Frame`/`DataFrame`/`AckFrame`/`RxFrame` are not `Clone` (`compile_fail` doctests in `wmn_mac::frame`); the corruption seam calls `DataFrame::diverged_copy` |
//! | no per-frame allocation in the MAC and engine handlers | `alloc_gate`: seven end-to-end `allocs_per_frame` ceilings at measured + ≤ 10 % (`ci/alloc_budget.json`) |
//! | RNG stream labels neither collide nor drift | **this crate** |
//!
//! What is left here is the one job only a source scanner can do. Every
//! random draw flows through a named stream, and renaming a label silently
//! reseeds every draw behind it, so the crate lexes every workspace source
//! file with its own comment/string-aware lexer (nothing fires inside a doc
//! comment or a log message), extracts every RNG label ([`registry`]),
//! checks that label prefixes are owned by one crate each, and diffs the
//! result against the committed `ci/rng_labels.json`. A call site the
//! scanner cannot register is a finding; one with a genuine reason is
//! waived inline — `// lint:allow(rng-label-registry): <reason>` — and the
//! binary lists every waiver it honoured.
//!
//! [`analyze_workspace`] on this checkout having no findings is a tier-1
//! test (`tests/selftest.rs`), so a stale registry fails `cargo test`.
//!
//! The `liveness` module, compiled only under `cargo clippy`, pins every
//! `clippy.toml` entry with an `#[expect]`: deleting an entry fails the
//! clippy job on an unfulfilled expectation.
//!
//! The linter is dependency-free by design (the only import is
//! `wmn_exec::json`, the repo's own writer): the tool that guards the
//! workspace must not be breakable by the workspace.

#[cfg(clippy)]
mod liveness;

pub mod lexer;
pub mod registry;
pub mod rules;
pub mod workspace;

use std::fs;
use std::io;
use std::path::Path;

use lexer::{lex, strip_test_items, Waiver};
use registry::{extract_labels, prefix_collisions, registry_text, LabelSite};
use rules::{Finding, RNG_LABEL_REGISTRY, RULES, WAIVER};
use workspace::collect_sources;

/// Where the committed label registry lives, relative to the repo root.
pub const REGISTRY_PATH: &str = "ci/rng_labels.json";

/// The outcome of analysing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Findings that no waiver covered.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a waiver (reason attached).
    pub waived: Vec<Finding>,
    /// RNG label call sites extracted from this file.
    pub labels: Vec<LabelSite>,
}

/// Extracts the RNG label sites of one file's source text (test items
/// stripped) and applies the inline waivers. Registry-level checks (prefix
/// ownership, staleness) need the whole workspace and live in
/// [`analyze_workspace`].
pub fn analyze_source(rel: &str, crate_name: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let tokens = strip_test_items(lexed.tokens);
    let (labels, findings) = extract_labels(&tokens, crate_name, rel);

    let (mut findings, waived) = apply_waivers(findings, &lexed.waivers, rel);
    for (line, problem) in &lexed.bad_waivers {
        findings.push(Finding::new(WAIVER, rel, *line, problem.clone()));
    }
    sort_findings(&mut findings);
    FileAnalysis { findings, waived, labels }
}

/// Matches findings against waivers. A waiver covers findings of its rule
/// on its own line or the line directly below; unknown rules and unused
/// waivers become `waiver` findings (never suppressible themselves).
fn apply_waivers(
    findings: Vec<Finding>,
    waivers: &[Waiver],
    rel: &str,
) -> (Vec<Finding>, Vec<Finding>) {
    let mut used = vec![false; waivers.len()];
    let mut kept = Vec::new();
    let mut waived = Vec::new();
    for f in findings {
        let slot = waivers
            .iter()
            .position(|w| w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line));
        match slot {
            Some(i) => {
                used[i] = true;
                waived.push(Finding { waive_reason: Some(waivers[i].reason.clone()), ..f });
            }
            None => kept.push(f),
        }
    }
    for (i, w) in waivers.iter().enumerate() {
        if !RULES.contains(&w.rule.as_str()) {
            kept.push(Finding::new(
                WAIVER,
                rel,
                w.line,
                format!("waiver names unknown rule `{}` (known: {})", w.rule, RULES.join(", ")),
            ));
        } else if !used[i] {
            kept.push(Finding::new(
                WAIVER,
                rel,
                w.line,
                format!(
                    "unused waiver for `{}` — nothing to suppress on this line or the next; \
                     delete it so the exception list stays honest",
                    w.rule
                ),
            ));
        }
    }
    (kept, waived)
}

fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// The outcome of analysing the whole workspace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Unwaived findings, sorted by (file, line, rule). Any entry here fails
    /// the binary and the tier-1 workspace test.
    pub findings: Vec<Finding>,
    /// Waived findings, sorted likewise, each carrying its reason.
    pub waived: Vec<Finding>,
    /// The regenerated registry text (what `ci/rng_labels.json` should be).
    pub registry: String,
    /// Whether the committed registry matches [`Analysis::registry`] byte
    /// for byte.
    pub registry_fresh: bool,
}

/// Scans the workspace rooted at `root`: every crate's `src/`, label
/// extraction, the waivers, prefix ownership, and the registry staleness
/// diff against `ci/rng_labels.json`.
///
/// # Errors
///
/// Propagates I/O failures from the source walk (unreadable files are a
/// broken checkout, not a lint finding).
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let files = collect_sources(root)?;
    let mut analysis = Analysis { files_scanned: files.len(), ..Analysis::default() };
    let mut sites: Vec<LabelSite> = Vec::new();
    for file in &files {
        let src = fs::read_to_string(&file.path)?;
        let mut fa = analyze_source(&file.rel, &file.crate_name, &src);
        analysis.findings.append(&mut fa.findings);
        analysis.waived.append(&mut fa.waived);
        sites.extend(fa.labels);
    }

    // Workspace-level checks: these cannot be waived — a prefix collision
    // or a stale registry is a repo-state problem, not a call-site call.
    analysis.findings.extend(prefix_collisions(&sites));
    analysis.registry = registry_text(&sites);
    let committed = fs::read_to_string(root.join(REGISTRY_PATH)).ok();
    analysis.registry_fresh = committed.as_deref() == Some(analysis.registry.as_str());
    if !analysis.registry_fresh {
        analysis.findings.push(Finding::new(
            RNG_LABEL_REGISTRY,
            REGISTRY_PATH,
            1,
            if committed.is_none() {
                "RNG label registry is missing — run `cargo run -p wmn_lint -- \
                 --update-registry` and commit it"
                    .to_string()
            } else {
                "RNG label registry is stale: the labels in the source no longer match — \
                 review the diff (label changes reseed streams and invalidate the baseline!) \
                 and run `cargo run -p wmn_lint -- --update-registry`"
                    .to_string()
            },
        ));
    }

    sort_findings(&mut analysis.findings);
    sort_findings(&mut analysis.waived);
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_on_the_line_above_suppresses_and_is_reported() {
        let src = "
            fn forward(seed: u64, label: &str) -> StreamRng {
                // lint:allow(rng-label-registry): forwarding shim, callers register their own
                StreamRng::derive(seed, label)
            }
        ";
        let fa = analyze_source("x.rs", "sim", src);
        assert!(fa.findings.is_empty(), "{:?}", fa.findings);
        assert_eq!(fa.waived.len(), 1);
        assert_eq!(
            fa.waived[0].waive_reason.as_deref(),
            Some("forwarding shim, callers register their own")
        );
    }

    #[test]
    fn waiver_for_the_wrong_rule_does_not_suppress() {
        // A retired rule id is just another wrong name.
        let src = "
            fn forward(seed: u64, label: &str) -> StreamRng {
                // lint:allow(no-wall-clock): wrong rule on purpose
                StreamRng::derive(seed, label)
            }
        ";
        let fa = analyze_source("x.rs", "sim", src);
        // The label finding survives AND the waiver is flagged.
        assert_eq!(fa.findings.len(), 2, "{:?}", fa.findings);
        assert!(fa.findings.iter().any(|f| f.rule == RNG_LABEL_REGISTRY));
        assert!(fa.findings.iter().any(|f| f.rule == WAIVER));
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_findings() {
        let src = "
            // lint:allow(no-such-rule): whatever
            fn a() {}
            // lint:allow(rng-label-registry):
            fn b() {}
        ";
        let fa = analyze_source("x.rs", "sim", src);
        assert_eq!(fa.findings.len(), 2, "{:?}", fa.findings);
        assert!(fa.findings.iter().all(|f| f.rule == WAIVER));
    }
}
