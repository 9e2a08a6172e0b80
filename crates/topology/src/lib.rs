//! Station placements and route sets for every topology the paper
//! evaluates:
//!
//! * [`fig1`] — the 8-station multi-flow topology of Fig. 1 with the three
//!   predetermined route sets of Table II;
//! * [`collision`] — Fig. 5(a) (single cell, regular collisions) and
//!   Fig. 5(b) (hidden terminals);
//! * [`mod@line`] — the 2–7-hop line of Section IV-C, with its 3-hop cross
//!   flow;
//! * [`wigle`] — a synthetic stand-in for the Wigle AP map of Fig. 9
//!   (small diameter, flows 1–3 hops, plus two hidden stations S and R);
//! * [`roofnet`] — a synthetic stand-in for the MIT Roofnet map of Fig. 11
//!   (large sparse mesh; flows 3–5 hops with nearby hidden terminals);
//! * [`motion`] — time-varying positions: per-node trajectories (constant
//!   drift, waypoint schedules) that a mobile simulation samples on a fixed
//!   tick.
//!
//! The Wigle/Roofnet coordinate files are unavailable, so both are
//! deterministic synthetic placements with the same structural properties
//! the experiments rely on (see DESIGN.md, substitutions).
//!
//! Distances are calibrated against the shadowing model in `wmn-phy`:
//! ~5 m links deliver ≈96 % of frames, ~10 m ≈47 %, ~15 m ≈12 %, which
//! engineers the paper's premise that one-hop routing between flow
//! endpoints is inefficient while forwarder chains are reliable.

pub mod collision;
pub mod fig1;
pub mod line;
pub mod motion;
pub mod roofnet;
pub mod wigle;

use wmn_phy::Position;
use wmn_sim::NodeId;

pub use motion::{MotionPlan, NodePath, Waypoint};

/// A named topology: positions plus the flows an experiment will run on it.
///
/// # NodeId contract
///
/// `positions` defines the run's whole id namespace: [`NodeId`]s are **dense
/// indices starting at 0**, so node `i` lives at `positions[i]` and every id
/// handed to [`Topology::distance`] (or placed in a flow path) must be below
/// [`Topology::node_count`]. The hand-placed topologies in this crate and the
/// generators in `wmn_scengen` all emit dense placements; anything assembling
/// ids by hand (see [`path`]) owns keeping them in range.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable name (used in experiment output).
    pub name: String,
    /// Station placements; index = `NodeId` index.
    pub positions: Vec<Position>,
}

impl Topology {
    /// Creates a topology from a placement.
    pub fn new(name: impl Into<String>, positions: Vec<Position>) -> Self {
        Topology { name: name.into(), positions }
    }

    /// Number of stations.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Whether `id` refers to a station of this topology (ids are dense
    /// indices into the placement — see the NodeId contract above).
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.positions.len()
    }

    /// Distance in metres between two stations.
    ///
    /// # Panics
    ///
    /// Panics if either id violates the NodeId contract (out of range for
    /// this placement). Debug builds name the offending id and the topology;
    /// release builds hit the slice bounds check.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        debug_assert!(
            self.contains(a) && self.contains(b),
            "Topology::distance({a}, {b}): id outside the {}-station topology {:?} \
             (NodeIds must be dense indices into `positions`)",
            self.node_count(),
            self.name,
        );
        self.positions[a.index()].distance_to(self.positions[b.index()])
    }
}

/// Convenience conversion from raw u32 ids to a path of [`NodeId`]s.
///
/// The ids are taken verbatim: they must obey the target topology's NodeId
/// contract (dense indices below its node count) — this helper cannot check
/// that because it does not know the topology. Pair it with
/// [`Topology::contains`] or `wmn_netsim::Scenario::prepare` when the ids
/// are not literals.
pub fn path(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().map(|&i| NodeId::new(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_basics() {
        let t = Topology::new("t", vec![Position::new(0.0, 0.0), Position::new(3.0, 4.0)]);
        assert_eq!(t.node_count(), 2);
        assert!((t.distance(NodeId::new(0), NodeId::new(1)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn path_converts_ids() {
        assert_eq!(path(&[0, 2]), vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn contains_matches_the_dense_contract() {
        let t = Topology::new("t", vec![Position::new(0.0, 0.0), Position::new(3.0, 4.0)]);
        assert!(t.contains(NodeId::new(0)) && t.contains(NodeId::new(1)));
        assert!(!t.contains(NodeId::new(2)), "ids are dense: 2 stations end at n1");
    }

    /// Regression for the NodeId contract: a sparse id must fail loudly in
    /// `distance`, not silently read a neighbouring station's position.
    #[test]
    #[should_panic(expected = "NodeIds must be dense")]
    #[cfg(debug_assertions)]
    fn distance_rejects_out_of_range_ids() {
        let t = Topology::new("t", vec![Position::new(0.0, 0.0)]);
        let _ = t.distance(NodeId::new(0), NodeId::new(5));
    }
}
