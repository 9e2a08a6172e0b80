//! Fixture self-tests: each file under `tests/fixtures/` is lexed and
//! analysed, and the findings are compared line-for-line against the
//! trailing `//~ <rule>` / `//~ waived <rule>` markers in the fixture
//! itself. Any new false positive or false negative in a rule shows up here
//! as a concrete diff against the pinned corpus.

use std::fs;
use std::path::Path;

use wmn_lint::rules::{
    HOT_PATH_VEC_NEW, NO_FRAME_DEEP_CLONE, NO_HASH_ITER, NO_WALL_CLOCK, RNG_LABEL_REGISTRY, WAIVER,
};
use wmn_lint::workspace::RuleConfig;
use wmn_lint::{analyze_source, FileAnalysis};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read fixture {path:?}: {e}"))
}

fn det() -> RuleConfig {
    RuleConfig { deterministic: true, ..RuleConfig::default() }
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

/// Runs one fixture under `cfg` and asserts findings == markers, exactly.
fn check(name: &str, cfg: RuleConfig) -> FileAnalysis {
    let src = fixture(name);
    let fa = analyze_source(name, "fixture", &src, cfg);
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
fn no_hash_iter_fixture_matches_markers() {
    let fa = check("no_hash_iter.rs", det());
    assert!(fa.findings.iter().all(|f| f.rule == NO_HASH_ITER));
    assert_eq!(fa.waived.len(), 1);
    assert_eq!(
        fa.waived[0].waive_reason.as_deref(),
        Some("keys are copied out and sorted before any use")
    );
}

#[test]
fn no_hash_iter_is_off_outside_deterministic_crates() {
    let src = fixture("no_hash_iter.rs");
    let fa = analyze_source(
        "no_hash_iter.rs",
        "exec",
        &src,
        RuleConfig { wall_clock_allowed: true, ..RuleConfig::default() },
    );
    // Without the rule, the inline waiver in the fixture goes unused — that
    // (and only that) surfaces as a waiver finding.
    assert!(fa.findings.iter().all(|f| f.rule == WAIVER), "{:?}", fa.findings);
    assert!(fa.waived.is_empty());
}

#[test]
fn no_wall_clock_fixture_matches_markers() {
    let fa = check("no_wall_clock.rs", det());
    assert!(fa.findings.iter().all(|f| f.rule == NO_WALL_CLOCK));
    // The allowlist switches the rule off entirely.
    let src = fixture("no_wall_clock.rs");
    let fa = analyze_source(
        "no_wall_clock.rs",
        "exec",
        &src,
        RuleConfig { wall_clock_allowed: true, ..RuleConfig::default() },
    );
    assert!(fa.findings.is_empty(), "{:?}", fa.findings);
}

#[test]
fn no_frame_deep_clone_fixture_matches_markers() {
    let fa = check("no_frame_deep_clone.rs", det());
    assert!(fa.findings.iter().all(|f| f.rule == NO_FRAME_DEEP_CLONE));
    assert_eq!(fa.waived.len(), 1);
    assert!(fa.waived[0].waive_reason.as_deref().unwrap().contains("corruption seam"));
}

#[test]
fn no_frame_deep_clone_is_off_outside_deterministic_crates() {
    let src = fixture("no_frame_deep_clone.rs");
    let fa = analyze_source(
        "no_frame_deep_clone.rs",
        "bench",
        &src,
        RuleConfig { wall_clock_allowed: true, ..RuleConfig::default() },
    );
    // Without the rule, only the fixture's now-unused waiver surfaces.
    assert!(fa.findings.iter().all(|f| f.rule == WAIVER), "{:?}", fa.findings);
    assert!(fa.waived.is_empty());
}

#[test]
fn hot_path_vec_new_fixture_matches_markers() {
    let fa = check("hot_path_vec_new.rs", det());
    assert!(fa.findings.iter().all(|f| f.rule == HOT_PATH_VEC_NEW));
    assert_eq!(fa.waived.len(), 1);
    assert!(fa.waived[0].waive_reason.as_deref().unwrap().contains("once per flow"));
}

#[test]
fn hot_path_vec_new_is_off_outside_deterministic_crates() {
    let src = fixture("hot_path_vec_new.rs");
    let fa = analyze_source(
        "hot_path_vec_new.rs",
        "bench",
        &src,
        RuleConfig { wall_clock_allowed: true, ..RuleConfig::default() },
    );
    // Without the rule, only the fixture's now-unused waiver surfaces.
    assert!(fa.findings.iter().all(|f| f.rule == WAIVER), "{:?}", fa.findings);
    assert!(fa.waived.is_empty());
}

#[test]
fn no_nondet_std_fixture_matches_markers() {
    let fa = check("no_nondet_std.rs", det());
    assert_eq!(fa.waived.len(), 1);
    assert!(fa.waived[0].waive_reason.as_deref().unwrap().contains("worker count"));
}

#[test]
fn rng_labels_fixture_matches_markers_and_registers() {
    let fa = check("rng_labels.rs", det());
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
    let fa = analyze_source("waivers.rs", "fixture", &src, det());
    assert!(fa.waived.is_empty(), "no waiver in this fixture is valid: {:?}", fa.waived);
    let waiver_msgs: Vec<&str> =
        fa.findings.iter().filter(|f| f.rule == WAIVER).map(|f| f.message.as_str()).collect();
    assert_eq!(waiver_msgs.len(), 4, "{waiver_msgs:?}");
    assert!(waiver_msgs.iter().any(|m| m.contains("missing the `: <reason>`")));
    assert!(waiver_msgs.iter().any(|m| m.contains("empty reason")));
    assert!(waiver_msgs.iter().any(|m| m.contains("unknown rule `no-such-rule`")));
    assert!(waiver_msgs.iter().any(|m| m.contains("unused waiver")));
    // …and none of the malformed waivers suppressed anything: both
    // Instant::now() calls and the map iteration still fire.
    assert_eq!(fa.findings.iter().filter(|f| f.rule == NO_WALL_CLOCK).count(), 2);
    assert_eq!(fa.findings.iter().filter(|f| f.rule == NO_HASH_ITER).count(), 1);
    assert_eq!(fa.findings.len(), 7);
}

#[test]
fn rng_label_registry_rule_name_is_reserved_for_sites_and_registry() {
    // Guard the rule-id constants the fixtures rely on — a rename would
    // silently invalidate every inline waiver in the workspace.
    assert_eq!(NO_HASH_ITER, "no-hash-iter");
    assert_eq!(NO_WALL_CLOCK, "no-wall-clock");
    assert_eq!(wmn_lint::rules::NO_NONDET_STD, "no-nondeterministic-std");
    assert_eq!(NO_FRAME_DEEP_CLONE, "no-frame-deep-clone");
    assert_eq!(HOT_PATH_VEC_NEW, "hot-path-vec-new");
    assert_eq!(RNG_LABEL_REGISTRY, "rng-label-registry");
}
