//! Small hostile layouts, shared with `wmn_netsim`'s own unit tests (which
//! compile this file into their crate by path: a scenario must be built
//! from the `Scenario` type of the crate under test); the exactness corpus
//! runs the first three, the allocation gate the drifting mesh. Only
//! `wmn_*` paths appear here, so the file reads the same in both crates.

use wmn_netsim::{FlowSpec, MotionPlan, NodePath, Scenario, Scheme, Waypoint, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_routing::LinkGraph;
use wmn_sim::{NodeId, SimDuration, SimTime, StreamRng};
use wmn_topology::collision;
use wmn_traffic::{CbrModel, VoipModel, WebModel};

fn flow(path: &[u32], workload: Workload) -> FlowSpec {
    FlowSpec { path: path.iter().copied().map(NodeId::new).collect(), workload }
}

/// FTP over `path` on `positions` under `scheme`: 200 ms, seed 42.
fn ftp_scenario(scheme: Scheme, path: &[u32], positions: Vec<Position>) -> Scenario {
    Scenario {
        name: "test".into(),
        params: PhyParams::paper_216(),
        positions,
        scheme,
        flows: vec![flow(path, Workload::Ftp)],
        duration: SimDuration::from_millis(200),
        seed: 42,
        max_forwarders: 5,
        motion: MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// Every way a reception can end, in one run: the Fig. 5(b)
/// hidden-terminal layout (collisions at the chain's far end; arrivals
/// from ~15 m and beyond are sensed but not decodable), a bit-error rate
/// that costs a data frame its header about once in 150 receptions and a
/// subframe its CRC once in seven, and a ninth station, the last, whose
/// CBR source walks 5 km away between 80 and 100 ms and keeps retrying
/// into a void nobody perceives. RIPPLE-16.
pub fn lossy_scenario() -> Scenario {
    let cbr = |path| flow(path, Workload::Cbr(CbrModel::heavy()));
    let mut positions = collision::hidden_terminals(2).positions;
    positions.push(Position::new(5.0, 4.0));
    let mut paths = vec![NodePath::Static; positions.len()];
    paths[positions.len() - 1] = NodePath::Waypoints(vec![
        Waypoint { at: SimTime::from_millis(80), pos: Position::new(5.0, 4.0) },
        Waypoint { at: SimTime::from_millis(100), pos: Position::new(5000.0, 4.0) },
    ]);
    let mut lossy = ftp_scenario(Scheme::Ripple { aggregation: 16 }, &[0, 1, 2, 3], positions);
    lossy.params.ber = 2e-5;
    lossy.flows.extend([cbr(&[4, 5]), cbr(&[6, 7]), cbr(&[8, 1])]);
    // Off the 10 ms tick grid, so the run ends with frames on the air.
    lossy.duration = SimDuration::from_micros(300_198);
    lossy.motion = MotionPlan { paths, tick: SimDuration::from_millis(10) };
    lossy
}

/// A 5 m line 0-1-2-3 with a spare relay at (5, 3), whose first relay
/// drifts away at 60 m/s; routes frozen, DCF-1. A CBR flow rather than
/// FTP: each datagram looks its route up at send time, so a refresh's
/// rescue shows up as raw delivered bytes instead of being masked by TCP
/// on a segment that died in a stale-routed MAC queue.
pub fn drifting_relay_scenario() -> Scenario {
    let mut positions: Vec<Position> =
        (0..4).map(|i| Position::new(5.0 * f64::from(i), 0.0)).collect();
    positions.push(Position::new(5.0, 3.0));
    let mut paths = vec![NodePath::Static; positions.len()];
    paths[1] = NodePath::Drift { vx_mps: 0.0, vy_mps: 60.0 };
    let interval = SimDuration::from_millis(2);
    Scenario {
        flows: vec![flow(&[0, 1, 2, 3], Workload::Cbr(CbrModel { packet_bytes: 1000, interval }))],
        duration: SimDuration::from_millis(400),
        motion: MotionPlan { paths, tick: SimDuration::from_millis(10) },
        ..ftp_scenario(Scheme::Dcf { aggregation: 1 }, &[0, 1], positions)
    }
}

/// FTP 0 → 3, 3 → 0 and 1 → 2 on a four-station 5 m line whose far end is
/// out of everyone's reach from 300 to 700 ms: RTOs expire and back off,
/// and the first ACK after it resets the back-off under a doubled deadline.
/// DCF-1.
pub fn blackout_scenario() -> Scenario {
    let path = |nodes| flow(nodes, Workload::Ftp);
    let (home, away) = (Position::new(15.0, 0.0), Position::new(1000.0, 0.0));
    let at = |ms, pos| Waypoint { at: SimTime::from_millis(ms), pos };
    let mut paths = vec![NodePath::Static; 4];
    paths[3] =
        NodePath::Waypoints(vec![at(290, home), at(300, away), at(690, away), at(700, home)]);
    let line = (0..4).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect();
    Scenario {
        flows: vec![path(&[0, 1, 2, 3]), path(&[3, 2, 1, 0]), path(&[1, 2])],
        duration: SimDuration::from_millis(1000),
        motion: MotionPlan { paths, tick: SimDuration::from_millis(10) },
        ..ftp_scenario(Scheme::Dcf { aggregation: 1 }, &[0, 1], line)
    }
}

/// perfbench's `mobile_refresh` mesh at its station density, smaller: 64
/// stations placed uniformly in a 24 m square, each drifting at a constant
/// velocity (heading uniform on the circle, speed uniform up to 10 m/s),
/// and six RIPPLE-16 flows (two FTP, one web, two VoIP, one CBR), each on
/// the min-ETX path of the longest of eight drawn station pairs. Positions
/// are re-sampled every 50 ms and routes refreshed as often; seed 1.
pub fn drifting_mesh_scenario(duration: SimDuration) -> Scenario {
    const STATIONS: u32 = 64;
    let mut rng = StreamRng::derive(1, "layouts/drifting-mesh");
    let mut coordinate = |scale: f64| rng.uniform() * scale;
    let positions: Vec<Position> =
        (0..STATIONS).map(|_| Position::new(coordinate(24.0), coordinate(24.0))).collect();
    let paths = (0..STATIONS)
        .map(|_| {
            let (heading, speed) = (coordinate(std::f64::consts::TAU), coordinate(10.0));
            NodePath::Drift { vx_mps: speed * heading.cos(), vy_mps: speed * heading.sin() }
        })
        .collect();
    let params = PhyParams::paper_216();
    let graph = LinkGraph::try_from_placement(&params.link, &positions).expect("finite placement");
    let mut station = || NodeId::new(rng.uniform_slots(STATIONS - 1));
    let mut far_path = || {
        let drawn = std::iter::repeat_with(|| (station(), station()))
            .filter(|(src, dst)| src != dst)
            .filter_map(|(src, dst)| graph.shortest_path(src, dst))
            .take(8);
        drawn.reduce(|best, path| if path.len() > best.len() { path } else { best })
    };
    let workloads = [
        Workload::Ftp,
        Workload::Ftp,
        Workload::Web(WebModel::paper()),
        Workload::Voip(VoipModel::paper()),
        Workload::Voip(VoipModel::paper()),
        Workload::Cbr(CbrModel::heavy()),
    ];
    let flows = workloads
        .into_iter()
        .map(|workload| FlowSpec { path: far_path().expect("a routable pair"), workload })
        .collect();
    Scenario {
        name: "drifting-mesh-64".into(),
        params,
        positions,
        scheme: Scheme::Ripple { aggregation: 16 },
        flows,
        duration,
        seed: 1,
        max_forwarders: 5,
        motion: MotionPlan { paths, tick: SimDuration::from_millis(50) },
        route_refresh: Some(SimDuration::from_millis(50)),
        shards: None,
    }
}
