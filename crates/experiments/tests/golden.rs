//! Golden regression tests for experiment outputs.
//!
//! Each test renders a figure/table at a small fixed configuration
//! (120 simulated ms, seeds {1, 2}) and compares it byte-for-byte with a
//! snapshot taken when the parallel grid engine landed. A mismatch means a
//! refactor changed the simulation's numbers — if the change is intended
//! (e.g. a physics or MAC fix), update the snapshot string in the failing
//! test *and say so in the commit*; if not, it just caught a regression
//! tier-1 would otherwise miss.
//!
//! The snapshot values are engine-independent: `run_grid` guarantees
//! bit-identical results for any `RIPPLE_JOBS`, so a worker-count change
//! can never move them. They are *not* guaranteed bit-identical across
//! platforms — the sim's math uses libm functions (`ln`, `powf`, `cos`)
//! whose last-ulp behaviour varies by OS/arch — so a mismatch on a new
//! platform with no code change means a rounding boundary, not a bug;
//! CI pins x86-64 Linux.

use wmn_experiments as exp;
use wmn_experiments::ExpConfig;
use wmn_sim::SimDuration;

/// The pinned snapshot configuration. Changing it invalidates every golden
/// string below, so don't.
fn golden_cfg() -> ExpConfig {
    ExpConfig::custom(SimDuration::from_millis(120), vec![1, 2])
}

/// Diff-friendly assertion: on mismatch, print the full actual rendering so
/// the snapshot can be updated by copy-paste.
fn assert_golden(actual: &str, expected: &str, what: &str) {
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "\n== {what} diverged from its golden snapshot ==\n\
         -- actual --\n{actual}\n-- end actual --\n"
    );
}

#[test]
fn fig3_route0_matches_snapshot() {
    let tables = exp::fig3::generate(1e-6, &golden_cfg());
    assert_golden(&tables[0].to_string(), GOLDEN_FIG3_ROUTE0, "fig3 ROUTE0");
}

#[test]
fn fig6_regular_matches_snapshot() {
    let table = exp::fig6::generate_regular(&golden_cfg());
    assert_golden(&table.to_string(), GOLDEN_FIG6_REGULAR, "fig6(a)");
}

#[test]
fn table3_matches_snapshot() {
    let tables = exp::table3::generate(&golden_cfg());
    assert_golden(&tables[0].to_string(), GOLDEN_TABLE3_BER1E5, "table3 BER 1e-5");
    assert_golden(&tables[1].to_string(), GOLDEN_TABLE3_BER1E6, "table3 BER 1e-6");
}

const GOLDEN_FIG3_ROUTE0: &str = "\
### Fig. 3 (ROUTE0) — total TCP throughput (Mbps), BER 1e-6
| scheme | flow 1 | flows 1+2 | flows 1+2+3 |
|--------|--------|-----------|-------------|
| S      | 0.10   | 0.60      | 1.13        |
| D      | 8.20   | 8.57      | 7.80        |
| R1     | 11.63  | 8.07      | 13.47       |
| A      | 37.70  | 34.83     | 28.53       |
| R16    | 57.00  | 48.30     | 62.07       |";

const GOLDEN_FIG6_REGULAR: &str = "\
### Fig. 6(a) — single cell, total TCP throughput (Mbps) vs #flows
| scheme | 2 flows | 4 flows | 6 flows | 8 flows | 10 flows |
|--------|---------|---------|---------|---------|----------|
| DCF    | 27.87   | 30.57   | 30.80   | 31.60   | 30.80    |
| AFR    | 129.30  | 124.30  | 121.87  | 113.07  | 114.07   |
| RIPPLE | 127.87  | 123.87  | 119.03  | 112.70  | 111.17   |";

const GOLDEN_TABLE3_BER1E5: &str = "\
### Table III — VoIP MoS, 6 Mbps, BER 1e-5
| scheme | flows 1..10 | flows 1..20 | flows 1..30 |
|--------|-------------|-------------|-------------|
| DCF    | 4.02        | 2.46        | 2.05        |
| AFR    | 4.02        | 2.44        | 2.02        |
| RIPPLE | 4.03        | 4.02        | 3.33        |";

const GOLDEN_TABLE3_BER1E6: &str = "\
### Table III — VoIP MoS, 6 Mbps, BER 1e-6
| scheme | flows 1..10 | flows 1..20 | flows 1..30 |
|--------|-------------|-------------|-------------|
| DCF    | 4.02        | 2.47        | 2.08        |
| AFR    | 4.02        | 2.78        | 2.01        |
| RIPPLE | 4.03        | 4.02        | 3.69        |";
