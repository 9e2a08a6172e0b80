//! Equivalence suite for the mobility refactor: a static mobility spec —
//! in any of its representations — must produce **bit-identical**
//! [`wmn_netsim::RunResult`]s to a scenario with no mobility at all,
//! across a seeded grid of generated scenarios.
//!
//! Together with the unchanged golden snapshots and the committed
//! `ci/baseline_repro.json` (which pin today's static outputs to the
//! pre-refactor runner's bytes), this is the proof that the layered stack
//! and mobility subsystem changed nothing for every run that existed
//! before them: `RunResult`'s `PartialEq` compares all `f64` fields
//! exactly, so equality here is bit-equality of every throughput, delay
//! and MoS.

use proptest::prelude::*;
use wmn_netsim::{run, NodePath, Scheme, Waypoint};
use wmn_scengen::{MobilitySpec, PairPolicy, PhyPreset, ScenarioSpec, TopologySpec, TrafficMix};
use wmn_sim::{SimDuration, SimTime};

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
        name: format!("equiv-{topo_pick}-{scheme_pick}-{seed}"),
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

proptest! {
    /// Across the seeded grid, four representations of "nobody moves" must
    /// produce the same result, bit for bit:
    ///
    /// 1. the implicit static spec (empty plan — schedules nothing);
    /// 2. one explicit `NodePath::Static` per node (still static);
    /// 3. a zero-velocity drift per node (`is_static` recognises it, so it
    ///    degenerates to case 2 — pinned so that recognition never rots);
    /// 4. a *stationary waypoint* per node (each node's single waypoint is
    ///    its own placement). Case 4 is the strongest: the plan is
    ///    structurally mobile, so mobility ticks fire and every node's
    ///    trajectory is re-sampled on each tick; the runner's
    ///    unchanged-position short-circuit (and, for any position that did
    ///    change bits, the incremental refresh pinned bit-identical to a
    ///    rebuild in `wmn_phy`) must keep the run byte-identical to never
    ///    ticking at all.
    #[test]
    fn prop_static_mobility_runs_are_bit_identical(
        topo_pick in 0usize..3,
        scheme_pick in 0usize..4,
        seed in 1u64..64,
    ) {
        let implicit =
            spec(topo_pick, scheme_pick, seed).materialise().expect("materialise");
        let baseline = run(&implicit);

        let mut explicit = implicit.clone();
        explicit.motion.paths = vec![NodePath::Static; explicit.positions.len()];
        prop_assert_eq!(&baseline, &run(&explicit), "explicit static paths drifted");

        let mut zero_drift = implicit.clone();
        zero_drift.motion.paths =
            vec![NodePath::Drift { vx_mps: 0.0, vy_mps: 0.0 }; zero_drift.positions.len()];
        prop_assert_eq!(&baseline, &run(&zero_drift), "zero-velocity drift drifted");

        let mut parked = implicit;
        parked.motion.paths = parked
            .positions
            .iter()
            .map(|&pos| {
                NodePath::Waypoints(vec![Waypoint { at: SimTime::from_millis(10), pos }])
            })
            .collect();
        parked.motion.tick = SimDuration::from_millis(5);
        prop_assert!(!parked.motion.is_static(), "stationary waypoints are structurally mobile");
        prop_assert_eq!(
            &baseline,
            &run(&parked),
            "ticking refreshes towards identical positions drifted"
        );
    }

    /// The same contract for live routing: over a topology where nobody
    /// moves, the link graph a refresh pass sees is bit-identical to the
    /// build-time one, so the recomputed min-ETX routes equal the frozen
    /// tables and the run is byte-identical to refresh-off — for *any*
    /// refresh interval. (The refresh pass consumes no RNG, which is what
    /// makes this provable rather than merely likely.)
    #[test]
    fn prop_route_refresh_over_static_topology_is_a_no_op(
        topo_pick in 0usize..3,
        scheme_pick in 0usize..4,
        seed in 1u64..32,
        interval_ms in 1u64..80,
    ) {
        let mut live_spec = spec(topo_pick, scheme_pick, seed);
        let frozen = live_spec.materialise().expect("materialise");
        live_spec.route_refresh_ms = Some(interval_ms);
        let live = live_spec.materialise().expect("materialise");
        prop_assert_eq!(
            run(&frozen),
            run(&live),
            "a {} ms refresh over a static topology drifted",
            interval_ms
        );
    }

    /// Sanity on the other side: an actually-moving plan over the same
    /// scenarios runs to completion and (being deterministic) reproduces
    /// itself — mobility must not introduce run-to-run nondeterminism.
    #[test]
    fn prop_mobile_runs_are_deterministic(
        topo_pick in 0usize..3,
        scheme_pick in 0usize..4,
        seed in 1u64..32,
    ) {
        let mut mobile = spec(topo_pick, scheme_pick, seed);
        mobile.mobility = MobilitySpec::Drift { max_speed_mps: 3.0 };
        let scenario = mobile.materialise().expect("materialise");
        prop_assert!(!scenario.motion.is_static());
        let a = run(&scenario);
        let b = run(&scenario);
        prop_assert_eq!(a, b, "mobile runs must be deterministic per seed");
    }
}
