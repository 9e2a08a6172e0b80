//! Two small hostile layouts, shared with `wmn_netsim`'s own unit tests
//! (which compile this file into their crate by path: a scenario must be
//! built from the `Scenario` type of the crate under test) and run by the
//! exactness corpus. Only `wmn_*` paths appear here, so the file reads the
//! same in both crates.

use wmn_netsim::{FlowSpec, MotionPlan, NodePath, Scenario, Scheme, Waypoint, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_sim::{NodeId, SimDuration, SimTime};
use wmn_topology::collision;
use wmn_traffic::CbrModel;

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
/// into a void nobody perceives. RIPPLE-16, legacy family.
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
    lossy.duration = SimDuration::from_micros(300_137);
    lossy.motion = MotionPlan { paths, tick: SimDuration::from_millis(10) };
    lossy
}

/// FTP 0 → 3, 3 → 0 and 1 → 2 on a four-station 5 m line whose far end is
/// out of everyone's reach from 300 to 700 ms: RTOs expire and back off,
/// and the first ACK after it resets the back-off under a doubled deadline.
/// DCF-1, legacy family.
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
