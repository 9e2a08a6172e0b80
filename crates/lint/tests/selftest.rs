//! Fixture self-tests: each file under `tests/fixtures/` is lexed and
//! analysed, and the findings are compared line-for-line against the
//! trailing `//~ <rule>` / `//~ waived <rule>` markers in the fixture
//! itself. Any new false positive or false negative in the rule shows up
//! here as a concrete diff against the pinned corpus. The last test runs the
//! rule over the real workspace.

use std::fs;
use std::path::Path;

use wmn_lint::rules::{RNG_LABEL_REGISTRY, RULES, WAIVER};
use wmn_lint::{analyze_source, analyze_workspace, FileAnalysis};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read fixture {path:?}: {e}"))
}

/// Parses the `//~ [waived] <rule>` markers out of a fixture.
/// Returns `(line, rule, waived)` triples.
fn expectations(src: &str) -> Vec<(u32, String, bool)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let Some((_, tail)) = line.split_once("//~") else { continue };
        let mut words = tail.split_whitespace();
        let first = words.next().expect("marker names a rule");
        let (waived, rule) = if first == "waived" {
            (true, words.next().expect("waived marker names a rule").to_string())
        } else {
            (false, first.to_string())
        };
        assert!(words.next().is_none(), "marker has trailing junk on line {}", i + 1);
        out.push((u32::try_from(i + 1).unwrap(), rule, waived));
    }
    assert!(!out.is_empty() || !src.contains("//~"), "marker parse failure");
    out
}

/// Runs one fixture and asserts findings == markers, exactly.
fn check(name: &str) -> FileAnalysis {
    let src = fixture(name);
    let fa = analyze_source(name, "fixture", &src);
    let mut expected = expectations(&src);
    expected.sort();
    let mut actual: Vec<(u32, String, bool)> = fa
        .findings
        .iter()
        .map(|f| (f.line, f.rule.to_string(), false))
        .chain(fa.waived.iter().map(|f| (f.line, f.rule.to_string(), true)))
        .collect();
    actual.sort();
    assert_eq!(actual, expected, "fixture {name}: findings diverge from pinned markers");
    fa
}

#[test]
fn rng_labels_fixture_matches_markers_and_registers() {
    let fa = check("rng_labels.rs");
    let mut keys: Vec<&str> = fa.labels.iter().map(|l| l.key.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        vec![
            "dynamic:fixture/worker{i}",
            "dynamic:{base}/sub",
            "fixture/nested-seed-args",
            "fixture/static",
            "fixture/stream",
        ],
        "extracted registry keys"
    );
    // Static and anchored-dynamic sites all claim the `fixture` prefix; the
    // prefixless dynamic template claims nothing.
    let prefixes: Vec<Option<&str>> = fa.labels.iter().map(|l| l.prefix.as_deref()).collect();
    assert_eq!(prefixes.iter().filter(|p| **p == Some("fixture")).count(), 4);
    assert_eq!(prefixes.iter().filter(|p| p.is_none()).count(), 1);
}

#[test]
fn waiver_misuse_fixture_reports_each_failure_mode() {
    let src = fixture("waivers.rs");
    let fa = analyze_source("waivers.rs", "fixture", &src);
    assert!(fa.waived.is_empty(), "no waiver in this fixture is valid: {:?}", fa.waived);
    let waiver_msgs: Vec<&str> =
        fa.findings.iter().filter(|f| f.rule == WAIVER).map(|f| f.message.as_str()).collect();
    assert_eq!(waiver_msgs.len(), 4, "{waiver_msgs:?}");
    assert!(waiver_msgs.iter().any(|m| m.contains("missing the `: <reason>`")));
    assert!(waiver_msgs.iter().any(|m| m.contains("empty reason")));
    assert!(waiver_msgs.iter().any(|m| m.contains("unknown rule `no-such-rule`")));
    assert!(waiver_msgs.iter().any(|m| m.contains("unused waiver")));
    // …and none of the malformed waivers suppressed anything: all three
    // opaque label sites still fire.
    assert_eq!(fa.findings.iter().filter(|f| f.rule == RNG_LABEL_REGISTRY).count(), 3);
    assert_eq!(fa.findings.len(), 7);
}

#[test]
fn rng_label_registry_rule_name_is_reserved_for_sites_and_registry() {
    // Guard the rule id the inline waivers name — a rename would silently
    // invalidate every one of them in the workspace.
    assert_eq!(RNG_LABEL_REGISTRY, "rng-label-registry");
    assert_eq!(RULES, [RNG_LABEL_REGISTRY]);
}

/// The gate itself, as a tier-1 test: this checkout has no unwaived
/// finding and `ci/rng_labels.json` matches the labels in the source. A
/// label rename must land with a refreshed registry (`cargo run -p wmn_lint
/// -- --update-registry`) or `cargo test` fails here, naming the fix.
#[test]
fn workspace_has_no_findings_and_the_registry_is_fresh() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = analyze_workspace(&root).expect("workspace sources are readable");
    assert!(analysis.files_scanned > 50, "scanned the workspace, not an empty directory");
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    assert!(analysis.registry_fresh);
}
