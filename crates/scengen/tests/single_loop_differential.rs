//! One-commit differential oracle: the windowed shard engine, about to be
//! deleted, against the per-entity discipline on the single loop that
//! replaces it. `run` with `shards: Some(k)` still drives the windowed
//! engine in this commit; `run_per_entity_single_loop` is the replacement.
//! The generator is `static_mobility_equivalence`'s
//! `prop_shard_counts_are_bit_identical`, at 400 cases instead of 48.

use proptest::prelude::*;
use wmn_netsim::stack::run_per_entity_single_loop;
use wmn_netsim::{run, Scheme};
use wmn_scengen::{MobilitySpec, PairPolicy, PhyPreset, ScenarioSpec, TopologySpec, TrafficMix};

fn spec(topo_pick: usize, scheme_pick: usize, seed: u64) -> ScenarioSpec {
    let topology = match topo_pick % 3 {
        0 => TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 5.0 },
        1 => TopologySpec::RandomGeometric { nodes: 8, side_m: 22.0 },
        _ => TopologySpec::PerturbedLine { nodes: 5, spacing_m: 5.0, jitter_m: 0.5 },
    };
    let scheme = match scheme_pick % 4 {
        0 => Scheme::Dcf { aggregation: 1 },
        1 => Scheme::Dcf { aggregation: 16 },
        2 => Scheme::Ripple { aggregation: 16 },
        _ => Scheme::PreExor,
    };
    ScenarioSpec {
        name: format!("diff-{topo_pick}-{scheme_pick}-{seed}"),
        topology,
        mix: TrafficMix { ftp: 1, web: 0, voip: 1, cbr: 0, pairing: PairPolicy::Random },
        scheme,
        phy: PhyPreset::Mbps216,
        ber: None,
        duration_ms: 60,
        seed,
        max_forwarders: 5,
        mobility: MobilitySpec::Static,
        route_refresh_ms: None,
        shards: None,
    }
}

/// The first shard count in `ks` at which the windowed engine's result is
/// not bit-identical to the single loop's.
fn first_drift_from_single_loop(base: &ScenarioSpec, ks: &[u32]) -> Option<u32> {
    let mut scenario = base.materialise().expect("materialise");
    let reference = run_per_entity_single_loop(&scenario);
    ks.iter().copied().find(|&k| {
        scenario.shards = Some(k);
        run(&scenario) != reference
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn prop_windowed_shards_equal_the_single_loop(
        topo_pick in 0usize..3,
        scheme_pick in 0usize..4,
        seed in 1u64..32,
        mobile in any::<bool>(),
    ) {
        let mut base = spec(topo_pick, scheme_pick, seed);
        if mobile {
            base.mobility = MobilitySpec::Drift { max_speed_mps: 3.0 };
            base.route_refresh_ms = Some(20);
        }
        prop_assert_eq!(first_drift_from_single_loop(&base, &[1, 2, 8]), None);
    }
}

#[test]
fn campus_scale_preset_equals_the_single_loop() {
    let mut campus = ScenarioSpec::campus_scale();
    campus.duration_ms = 2;
    assert_eq!(first_drift_from_single_loop(&campus, &[1, 2, 8]), None);
}
