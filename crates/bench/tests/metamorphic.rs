//! Metamorphic properties that hold bit for bit, checked on corpus cases
//! ([`wmn_bench::corpus`]): relations between two runs that must agree
//! exactly, whatever the numbers are.
//!
//! * A run to T records what the same run to 2T records up to T.
//! * Mirroring the plane (x → −x: placements, drift velocities,
//!   waypoints) changes no `RunResult` and no `Trace`: every draw is keyed
//!   by station indices and frame counters, and every distance is the same.
//! * So does swapping the axes ((x, y) → (y, x)), for the same reasons.
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

/// `scenario` with the linear map `map` applied to every placement, drift
/// velocity and waypoint.
fn mapped(scenario: &Scenario, map: impl Fn(Position) -> Position) -> Scenario {
    let mut out = scenario.clone();
    out.positions.iter_mut().for_each(|p| *p = map(*p));
    for path in &mut out.motion.paths {
        match path {
            NodePath::Static => {}
            NodePath::Drift { vx_mps, vy_mps } => {
                let v = map(Position::new(*vx_mps, *vy_mps));
                (*vx_mps, *vy_mps) = (v.x, v.y);
            }
            NodePath::Waypoints(points) => points.iter_mut().for_each(|w| w.pos = map(w.pos)),
        }
    }
    out
}

#[test]
fn mirroring_the_plane_changes_nothing() {
    for (name, scenario) in subset() {
        let mirrored = mapped(&scenario, |p| Position::new(-p.x, p.y));
        assert!(mirrored.positions != scenario.positions, "{name}: nothing to mirror");
        assert!(run_traced(&scenario) == run_traced(&mirrored), "{name}: mirroring moved it");
    }
}

#[test]
fn swapping_the_axes_changes_nothing() {
    for (name, scenario) in subset() {
        let swapped = mapped(&scenario, |p| Position::new(p.y, p.x));
        assert!(swapped.positions != scenario.positions, "{name}: nothing to swap");
        assert!(run_traced(&scenario) == run_traced(&swapped), "{name}: swapping moved it");
    }
}
