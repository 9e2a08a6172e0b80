//! Smoke coverage for the workspace's experiment surface: every table /
//! figure generator behind `repro_all`'s roster must at least construct its
//! scenarios and produce a non-empty report without panicking.
//!
//! Runs use a deliberately microscopic configuration (10 simulated
//! milliseconds, one seed) so tier-1 stays fast; the numbers are
//! meaningless at this scale — only the construction and reporting paths
//! are under test. `repro_all` itself is the sequential composition of
//! exactly these generators (plus `ExpConfig::from_env`, covered below).

use wmn_experiments as exp;
use wmn_experiments::ExpConfig;
use wmn_sim::SimDuration;

/// The smallest configuration that still drives every code path.
fn micro() -> ExpConfig {
    ExpConfig::custom(SimDuration::from_millis(10), vec![1])
}

#[test]
fn fig2_overhead_tables() {
    assert!(!exp::fig2::generate().to_string().is_empty());
    assert!(!exp::fig2::worked_example().to_string().is_empty());
}

#[test]
fn motivation_table() {
    assert!(!exp::motivation::generate(&micro()).to_string().is_empty());
}

#[test]
fn fig3_fig4_long_tcp_both_bers() {
    for ber in [1e-6, 1e-5] {
        let tables = exp::fig3::generate(ber, &micro());
        assert!(!tables.is_empty(), "fig3 at BER {ber} produced no tables");
    }
}

#[test]
fn fig6_collision_topologies() {
    assert!(!exp::fig6::generate_regular(&micro()).to_string().is_empty());
    assert!(!exp::fig6::generate_hidden(&micro()).to_string().is_empty());
}

#[test]
fn fig7_hop_sweep() {
    assert!(!exp::fig7::generate(&micro()).is_empty());
}

#[test]
fn fig8_web_traffic() {
    assert!(!exp::fig8::generate_with_users(&micro(), 1).to_string().is_empty());
}

#[test]
fn table3_voip_mos() {
    assert!(!exp::table3::generate(&micro()).is_empty());
}

#[test]
fn fig10_wigle_mesh() {
    assert!(!exp::fig10::generate(&micro()).is_empty());
}

#[test]
fn fig12_roofnet_mesh() {
    assert!(!exp::fig12::generate(&micro()).is_empty());
}

#[test]
fn ablation_tables() {
    let cfg = micro();
    assert!(!exp::ablation::max_forwarders(&cfg).to_string().is_empty());
    assert!(!exp::ablation::aggregation_limit(&cfg).to_string().is_empty());
    assert!(!exp::ablation::phy_rates(&cfg).to_string().is_empty());
}

#[test]
fn repro_all_config_resolution() {
    // `repro_all` starts from the environment-selected config; the default
    // (no RIPPLE_REPRO set in the test environment) must be the quick one.
    let cfg = ExpConfig::from_env();
    assert!(!cfg.seeds.is_empty());
    assert!(cfg.duration > SimDuration::from_millis(0));
}
