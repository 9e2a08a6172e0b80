//! Metamorphic properties that hold bit for bit, checked on corpus cases
//! ([`wmn_bench::corpus`]): relations between two runs that must agree
//! exactly, whatever the numbers are.
//!
//! * A run to T records what the same run to 2T records up to T.
//! * Mirroring the plane (x → −x: placements, drift velocities,
//!   waypoints) changes no `RunResult` and no `Trace`: every draw is keyed
//!   by station indices and frame counters, and every distance is the same.
//!
//! Each layout runs under one scheme (the schemes rotate across layouts),
//! so the whole file stays cheap in a debug build.

use wmn_netsim::{run_traced, NodePath, Scenario};
use wmn_phy::Position;

/// One corpus case per layout, the scheme rotating across layouts.
fn subset() -> Vec<(String, Scenario)> {
    let cases = wmn_bench::corpus::cases();
    let layouts = cases.iter().take_while(|(name, _)| name.ends_with("/DCF-1")).count();
    let schemes = cases.len() / layouts;
    (0..layouts).map(|layout| cases[(layout % schemes) * layouts + layout].clone()).collect()
}

#[test]
fn a_run_to_t_is_the_run_to_2t_cut_at_t() {
    for (name, scenario) in subset() {
        let (_, short) = run_traced(&scenario);
        let end = wmn_sim::SimTime::ZERO + scenario.duration;
        let long = Scenario { duration: scenario.duration + scenario.duration, ..scenario };
        let (_, long) = run_traced(&long);
        let cut: Vec<_> = long.events.into_iter().take_while(|e| e.at <= end).collect();
        assert!(!short.events.is_empty(), "{name}: nothing was traced");
        assert!(short.events == cut, "{name}: the traces part before {end:?}");
    }
}

#[test]
fn mirroring_the_plane_changes_nothing() {
    let flip = |p: Position| Position::new(-p.x, p.y);
    for (name, scenario) in subset() {
        let mut mirrored = scenario.clone();
        mirrored.positions.iter_mut().for_each(|p| *p = flip(*p));
        for path in &mut mirrored.motion.paths {
            match path {
                NodePath::Static => {}
                NodePath::Drift { vx_mps, .. } => *vx_mps = -*vx_mps,
                NodePath::Waypoints(points) => points.iter_mut().for_each(|w| w.pos = flip(w.pos)),
            }
        }
        assert!(mirrored.positions != scenario.positions, "{name}: nothing to mirror");
        assert!(run_traced(&scenario) == run_traced(&mirrored), "{name}: mirroring moved it");
    }
}
