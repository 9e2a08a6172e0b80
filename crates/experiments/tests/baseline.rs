//! The stored-results gate ([`wmn_experiments::baseline`]): every entry of
//! `ci/baseline_repro.json` — Fig. 3, Fig. 6 and Table III at the quick
//! setting, and three generated sweeps — must match this build's
//! in-process regeneration, its tables byte for byte and its run count
//! exactly. This test pins the entry list and checks the three sweeps; the
//! three paper artefacts are checked one per test in `tests/golden.rs`. On
//! a mismatch the test names the entries that moved and prints what this
//! build computes; an intended behaviour change rewrites the file with
//! `check_baseline --update` (and says so in its description).
//!
//! The tables are not guaranteed bit-identical across platforms: the
//! simulator calls libm (`ln`, `powf`, `cos`), whose last ulp varies by
//! OS and architecture, so a mismatch on a new platform with no code change
//! is a rounding boundary, not a bug. CI pins x86-64 Linux.
//!
//! This binary holds one test: run counts come from the process-wide
//! executor telemetry, which a concurrent test would inflate.

use wmn_exec::{json, Executor};
use wmn_experiments::baseline;

const BASELINE: &str = include_str!("../../../ci/baseline_repro.json");

/// The entries `tests/golden.rs` checks.
const PAPER_ARTEFACTS: [&str; 3] = ["fig3", "fig6", "table3"];

#[test]
fn baseline_repro_is_unchanged() {
    let doc = json::parse(BASELINE).expect("the committed baseline parses");
    let entries = baseline::entries(&doc).expect("the committed baseline lists its entries");
    let names: Vec<&str> = entries.iter().map(baseline::name).collect();
    assert_eq!(
        names,
        [
            PAPER_ARTEFACTS.as_slice(),
            &["sweep_ci-quick", "sweep_ci-mobility-refresh", "sweep_mixed-refresh"]
        ]
        .concat()
    );
    let jobs = Executor::from_env().jobs();
    let moved: Vec<String> = entries
        .iter()
        .filter(|entry| !PAPER_ARTEFACTS.contains(&baseline::name(entry)))
        .filter_map(|entry| {
            let fresh = baseline::regenerate(entry, jobs).expect("every entry regenerates");
            baseline::moved(entry, &fresh)
        })
        .collect();
    assert!(
        moved.is_empty(),
        "\n== ci/baseline_repro.json diverged; entries that moved: {:?} ==\n{}\n",
        moved.iter().map(|why| why.split(':').next().unwrap_or_default()).collect::<Vec<_>>(),
        moved.join("\n\n")
    );
}
