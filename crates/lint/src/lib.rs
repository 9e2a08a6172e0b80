//! `wmn_lint` — the workspace determinism linter.
//!
//! The repro contract for this repository is *bit-identical results*: the
//! same scenario and seed must produce byte-for-byte the same report on any
//! machine, any worker count, any run. Most of that contract is structural
//! (named RNG streams, an ordered event queue), but three classes of bug
//! can silently break it and still pass every unit test on the machine that
//! introduced them:
//!
//! * observing HashMap/HashSet iteration order (randomised per process),
//! * reading the wall clock or other ambient process state inside a run,
//! * colliding or drifting RNG stream labels.
//!
//! Two further rules guard performance contracts rather than repro ones:
//! `no-frame-deep-clone` keeps the zero-copy receive path honest — a deep
//! frame clone outside the corruption seam reintroduces per-receiver
//! allocations without failing a single functional test — and
//! `hot-path-vec-new` keeps the steady-state allocation budget honest: a
//! `Vec::new()`/`vec![]` inside a `MacEntity` handler or an engine
//! per-event handler reintroduces per-frame churn the pooled-buffer work
//! (`ActionSink`, `SlotPool`) exists to eliminate.
//!
//! This crate enforces those mechanically. It lexes every workspace source
//! file with its own comment/string-aware lexer (no rule ever fires inside
//! a doc comment or a log message), runs the rules in [`rules`], extracts
//! every RNG label into a committed registry (`ci/rng_labels.json`), and
//! emits a machine-readable report. Violations with a genuine reason are
//! waived inline — `// lint:allow(<rule>): <reason>` — and every waiver is
//! listed in the report, so the full set of exceptions is one grep away.
//!
//! The linter is dependency-free by design (the only import is
//! `wmn_exec::json`, the repo's own writer): the tool that guards the
//! workspace must not be breakable by the workspace.

pub mod lexer;
pub mod registry;
pub mod report;
pub mod rules;
pub mod workspace;

use std::fs;
use std::io;
use std::path::Path;

use lexer::{lex, strip_test_items, Waiver};
use registry::{extract_labels, prefix_collisions, registry_text, LabelSite};
use rules::{Finding, RNG_LABEL_REGISTRY, RULES, WAIVER};
use workspace::{collect_sources, config_for, RuleConfig};

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

/// Runs every applicable rule over one file's source text and applies the
/// inline waivers. Registry-level checks (prefix ownership, staleness) need
/// the whole workspace and live in [`analyze_workspace`].
pub fn analyze_source(rel: &str, crate_name: &str, src: &str, cfg: RuleConfig) -> FileAnalysis {
    let lexed = lex(src);
    let tokens = strip_test_items(lexed.tokens);

    let mut findings = Vec::new();
    if cfg.deterministic {
        findings.extend(rules::no_hash_iter(&tokens, rel));
        findings.extend(rules::no_frame_deep_clone(&tokens, rel));
        findings.extend(rules::hot_path_vec_new(&tokens, rel));
    }
    if !cfg.wall_clock_allowed {
        findings.extend(rules::no_wall_clock(&tokens, rel));
    }
    findings.extend(rules::no_nondet_std(&tokens, rel));
    let (labels, label_findings) = extract_labels(&tokens, crate_name, rel);
    findings.extend(label_findings);

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
    /// Unwaived findings, sorted by (file, line, rule). Any entry here means
    /// `--check` fails.
    pub findings: Vec<Finding>,
    /// Waived findings, sorted likewise, each carrying its reason.
    pub waived: Vec<Finding>,
    /// The regenerated registry text (what `ci/rng_labels.json` should be).
    pub registry: String,
    /// Whether the committed registry matches [`Analysis::registry`] byte
    /// for byte.
    pub registry_fresh: bool,
}

/// Scans the workspace rooted at `root`: every crate's `src/`, the rules,
/// the waivers, label extraction, prefix ownership, and the registry
/// staleness diff against `ci/rng_labels.json`.
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
        let cfg = config_for(&file.rel, &file.crate_name);
        let mut fa = analyze_source(&file.rel, &file.crate_name, &src, cfg);
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

    fn det() -> RuleConfig {
        RuleConfig { deterministic: true, ..RuleConfig::default() }
    }

    #[test]
    fn waiver_on_the_line_above_suppresses_and_is_reported() {
        let src = "
            fn f(m: &HashMap<u32, u32>) {
                // lint:allow(no-hash-iter): keys copied out and sorted below
                for k in m { sorted.push(k); }
                sorted.sort();
            }
        ";
        let fa = analyze_source("x.rs", "mac", src, det());
        assert!(fa.findings.is_empty(), "{:?}", fa.findings);
        assert_eq!(fa.waived.len(), 1);
        assert_eq!(fa.waived[0].waive_reason.as_deref(), Some("keys copied out and sorted below"));
    }

    #[test]
    fn waiver_for_the_wrong_rule_does_not_suppress() {
        let src = "
            fn f(m: &HashMap<u32, u32>) {
                // lint:allow(no-wall-clock): wrong rule on purpose
                for k in m { use_it(k); }
            }
        ";
        let fa = analyze_source("x.rs", "mac", src, det());
        // The hash-iter finding survives AND the waiver is flagged unused.
        assert_eq!(fa.findings.len(), 2, "{:?}", fa.findings);
        assert!(fa.findings.iter().any(|f| f.rule == rules::NO_HASH_ITER));
        assert!(fa.findings.iter().any(|f| f.rule == WAIVER));
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_findings() {
        let src = "
            // lint:allow(no-such-rule): whatever
            fn a() {}
            // lint:allow(no-hash-iter):
            fn b() {}
        ";
        let fa = analyze_source("x.rs", "mac", src, det());
        assert_eq!(fa.findings.len(), 2, "{:?}", fa.findings);
        assert!(fa.findings.iter().all(|f| f.rule == WAIVER));
    }

    #[test]
    fn rule_switches_follow_the_config() {
        let src =
            "fn f(m: &HashMap<u32, u32>) { for k in m { use_it(k); } let t = Instant::now(); }";
        let fa = analyze_source(
            "x.rs",
            "exec",
            src,
            RuleConfig { wall_clock_allowed: true, ..RuleConfig::default() },
        );
        assert!(fa.findings.is_empty(), "exec is exempt from both: {:?}", fa.findings);
        let fa = analyze_source("x.rs", "mac", src, det());
        assert_eq!(fa.findings.len(), 2, "{:?}", fa.findings);
    }
}
