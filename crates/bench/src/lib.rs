//! Scenario builders for the `alloc_gate` binary — the CI gate that holds the
//! simulator's steady-state paths to the allocation ceilings committed in
//! `ci/alloc_budget.json` — and the exactness corpus ([`corpus`]). Time is
//! not measured in this crate: `perfbench/` is the benchmark of record.

pub mod corpus;
pub mod layouts;

pub use layouts::{blackout_scenario, drifting_relay_scenario, lossy_scenario};

use wmn_netsim::{FlowSpec, MotionPlan, NodePath, Scenario, Scheme, Waypoint, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_scengen::{ScenarioSpec, TopologySpec};
use wmn_sim::{NodeId, SimDuration, SimTime};
use wmn_topology::collision;
use wmn_traffic::CbrModel;

/// Station placement on a `side`×`side` grid with `spacing_m` metre pitch.
///
/// The gate places three: 16×16 at 5 m pitch, where neighbour links are
/// usable routes (the route-refresh workload); 16×16 at 2 m, the dense
/// neighbourhood; and 32×32 at 2 m, the 1024-station placement whose medium
/// it sizes.
pub fn grid_positions(side: usize, spacing_m: f64) -> Vec<Position> {
    let mut positions = Vec::with_capacity(side * side);
    for row in 0..side {
        for col in 0..side {
            positions.push(Position::new(col as f64 * spacing_m, row as f64 * spacing_m));
        }
    }
    positions
}

/// A fig-6(b)-class end-to-end scenario: a 3-hop FTP flow under `scheme`
/// whose relays are exposed to `n_hidden` saturated hidden CBR senders — the
/// heaviest per-transmission fan-out workload in the paper's experiment
/// set, and the gate's end-to-end allocation probe (once per MAC
/// configuration, so every MAC's data path is under a per-frame ceiling).
pub fn fig6_class_scenario(n_hidden: usize, scheme: Scheme, duration: SimDuration) -> Scenario {
    let topo = collision::hidden_terminals(n_hidden);
    let mut flows = vec![FlowSpec { path: collision::hidden_main_path(), workload: Workload::Ftp }];
    for k in 0..n_hidden {
        let (s, d) = collision::hidden_flow_endpoints(k);
        flows.push(FlowSpec { path: vec![s, d], workload: Workload::Cbr(CbrModel::heavy()) });
    }
    Scenario {
        name: format!("bench-fig6b-{n_hidden}"),
        params: PhyParams::paper_216(),
        positions: topo.positions,
        scheme,
        flows,
        duration,
        seed: 0,
        max_forwarders: 5,
        motion: wmn_netsim::MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// The mobile variant of [`fig6_class_scenario`] under RIPPLE-16: the main
/// flow's two relays pace laterally (waypoint round trips, ±2.5 m every
/// 250 ms for up to 2 s) while the hidden CBR senders stay put — so every
/// mobility tick refreshes link rows *during* that workload.
pub fn fig6_class_mobile_scenario(n_hidden: usize, duration: SimDuration) -> Scenario {
    let mut scenario = fig6_class_scenario(n_hidden, Scheme::Ripple { aggregation: 16 }, duration);
    scenario.name = format!("bench-fig6b-mobile-{n_hidden}");
    let mut paths = vec![NodePath::Static; scenario.positions.len()];
    for (node, side) in [(1usize, 1.0f64), (2, -1.0)] {
        let x = scenario.positions[node].x;
        let points = (1..=8u64)
            .map(|leg| Waypoint {
                at: SimTime::from_millis(250 * leg),
                pos: Position::new(x, if leg % 2 == 1 { 2.5 * side } else { 0.0 }),
            })
            .collect();
        paths[node] = NodePath::Waypoints(points);
    }
    scenario.motion = MotionPlan { paths, tick: SimDuration::from_millis(10) };
    scenario
}

/// A campus-class neighbourhood, built by hand: a 16×16 grid at 2 m pitch
/// (30 m side: a frame sent from an edge row is sensed by 90–130 of the
/// other 255 stations and decodable at 30–50 of them), two RIPPLE-16 FTP
/// flows crossing it along the top and bottom rows in 6 m hops. Where
/// [`fig6_class_scenario`] has a dozen receivers per frame, this has a
/// hundred — the regime the steady-state allocation work never gated.
pub fn dense_neighbourhood_scenario(duration: SimDuration) -> Scenario {
    let side = 16;
    let row_path = |row: usize, reverse: bool| -> Vec<NodeId> {
        let mut path: Vec<NodeId> =
            (0..side).step_by(3).map(|col| NodeId::new((row * side + col) as u32)).collect();
        if reverse {
            path.reverse();
        }
        path
    };
    Scenario {
        name: "bench-dense-16x16".into(),
        params: PhyParams::paper_216(),
        positions: grid_positions(side, 2.0),
        scheme: Scheme::Ripple { aggregation: 16 },
        flows: vec![
            FlowSpec { path: row_path(0, false), workload: Workload::Ftp },
            FlowSpec { path: row_path(side - 1, true), workload: Workload::Ftp },
        ],
        duration,
        seed: 0,
        max_forwarders: 5,
        motion: MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// `ScenarioSpec::campus_scale()` shrunk to perfbench's smoke size: four
/// clusters of 16 stations in a 20 m square, routed for `scheme`. Its six
/// flows' paths name a fraction of the 64 stations, so an untraced run
/// plans receptions at few of the stations that sense each frame.
pub fn smoke_campus_scenario(scheme: Scheme, duration: SimDuration) -> Scenario {
    let mut spec = ScenarioSpec::campus_scale();
    spec.topology = TopologySpec::Campus {
        clusters: 4,
        nodes_per_cluster: 16,
        cluster_radius_m: 3.0,
        side_m: 20.0,
    };
    spec.scheme = scheme;
    let mut scenario = spec.materialise().expect("the smoke campus materialises");
    scenario.duration = duration;
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_netsim::run;
    use wmn_phy::Medium;

    #[test]
    fn grid_positions_shape() {
        let g = grid_positions(4, 5.0);
        assert_eq!(g.len(), 16);
        assert!((g[0].distance_to(g[1]) - 5.0).abs() < 1e-12);
        assert!((g[0].distance_to(g[4]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fig6_class_scenario_is_valid_and_runs() {
        for scheme in [Scheme::Ripple { aggregation: 16 }, Scheme::Dcf { aggregation: 1 }] {
            let s = fig6_class_scenario(3, scheme, SimDuration::from_millis(50));
            assert_eq!(s.validate(), Ok(()));
            let r = run(&s);
            assert!(r.flows[0].delivered_bytes > 0, "{scheme:?}: main flow must make progress");
        }
    }

    #[test]
    fn dense_neighbourhood_scenario_is_valid_dense_and_runs() {
        let s = dense_neighbourhood_scenario(SimDuration::from_millis(20));
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.positions.len(), 256);
        let medium = Medium::new(s.params.clone(), s.positions.clone());
        let mut rng = wmn_sim::StreamRng::derive(1, "bench/dense");
        let sensed = medium.plan_transmission(NodeId::new(0), &mut rng).len();
        assert!(sensed > 64, "a corner frame reaches a campus-class neighbourhood, got {sensed}");
        let r = run(&s);
        assert!(r.flows.iter().all(|f| f.delivered_bytes > 0), "both flows must make progress");
    }

    #[test]
    fn fig6_class_mobile_scenario_moves_and_runs() {
        let s = fig6_class_mobile_scenario(3, SimDuration::from_millis(300));
        assert_eq!(s.validate(), Ok(()));
        assert!(!s.motion.is_static(), "the relays must actually move");
        let r = run(&s);
        assert!(r.flows[0].delivered_bytes > 0, "main flow survives the pacing relays");
        // Determinism holds under mobility (the gate compares against
        // committed ceilings, so a nondeterministic probe would be useless).
        assert_eq!(r, run(&s));
    }
}
