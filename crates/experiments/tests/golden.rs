//! The paper artefacts of the stored-results gate
//! ([`wmn_experiments::baseline`]), one test each: the `fig3`, `fig6` and
//! `table3` entries of `ci/baseline_repro.json` must match this build's
//! in-process regeneration at the quick setting, their tables byte for byte
//! (Fig. 3 ROUTE0..2, Fig. 6(a) and (b), Table III at both BERs) and their
//! run counts exactly. `tests/baseline.rs` checks the sweep entries and the
//! entry list; an intended behaviour change rewrites the file with
//! `check_baseline --update`.
//!
//! Run counts come from the process-wide executor telemetry, so the tests
//! of this binary take turns.

use std::sync::{Mutex, PoisonError};

use wmn_exec::{json, Executor};
use wmn_experiments::baseline;

const BASELINE: &str = include_str!("../../../ci/baseline_repro.json");

/// Regenerates the stored entry `name` and fails, printing what this build
/// computes, if it moved.
fn assert_entry_unchanged(name: &str) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let doc = json::parse(BASELINE).expect("the committed baseline parses");
    let entries = baseline::entries(&doc).expect("the committed baseline lists its entries");
    let entry = entries
        .iter()
        .find(|entry| baseline::name(entry) == name)
        .unwrap_or_else(|| panic!("ci/baseline_repro.json has no {name:?} entry"));
    let fresh =
        baseline::regenerate(entry, Executor::from_env().jobs()).expect("the entry regenerates");
    if let Some(why) = baseline::moved(entry, &fresh) {
        panic!("\n== ci/baseline_repro.json diverged ==\n{why}\n");
    }
}

#[test]
fn fig3_route0_matches_snapshot() {
    assert_entry_unchanged("fig3");
}

#[test]
fn fig6_regular_matches_snapshot() {
    assert_entry_unchanged("fig6");
}

#[test]
fn table3_matches_snapshot() {
    assert_entry_unchanged("table3");
}
