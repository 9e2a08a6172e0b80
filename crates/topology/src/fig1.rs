//! The Fig. 1 multi-flow topology and the Table II route sets.
//!
//! Eight stations. Flow 1: 0→3, flow 2: 0→4, flow 3: 5→7. Flows 1 and 2
//! share stations 0, 1 and 2; flow 3 intersects the others at station 1.
//!
//! The placement is calibrated so that
//! * consecutive stations of ROUTE0 are strong (~5 m) links,
//! * the direct 0→3 link used by the figures' "S" (SPR) baseline is poor
//!   (~15 m, ≈12 % delivery) — reproducing the paper's premise that the
//!   one-hop route is inefficient (0.76 vs 7.04 Mbps),
//! * ROUTE2's longer hops (0→2, 5→1) are marginal, which is why the paper
//!   measures "significantly lower throughput … on ROUTE2".

use wmn_phy::Position;
use wmn_sim::NodeId;

use crate::{path, Topology};

/// Station placement for Fig. 1.
pub fn topology() -> Topology {
    Topology::new(
        "fig1",
        vec![
            Position::new(0.0, 0.0),  // 0: source of flows 1 and 2
            Position::new(5.0, 0.0),  // 1
            Position::new(8.0, 2.5),  // 2
            Position::new(12.4, 1.6), // 3: destination of flow 1
            Position::new(10.8, 5.2), // 4: destination of flow 2
            Position::new(0.2, 7.2),  // 5: source of flow 3
            Position::new(3.2, 4.5),  // 6
            Position::new(9.0, 1.5),  // 7: destination of flow 3
        ],
    )
}

/// One of the paper's predetermined route sets (Table II).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteSet {
    /// ROUTE0: 0 1 2 3 / 0 1 2 4 / 5 6 1 7.
    Route0,
    /// ROUTE1: 0 1 3 / 0 1 4 / 5 6 7.
    Route1,
    /// ROUTE2: 0 2 3 / 0 2 4 / 5 1 7.
    Route2,
}

impl RouteSet {
    /// All three sets, in paper order.
    pub const ALL: [RouteSet; 3] = [RouteSet::Route0, RouteSet::Route1, RouteSet::Route2];

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            RouteSet::Route0 => "ROUTE0",
            RouteSet::Route1 => "ROUTE1",
            RouteSet::Route2 => "ROUTE2",
        }
    }

    /// The Table II path for flow `flow` (1, 2 or 3), source to destination
    /// inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not 1, 2 or 3.
    pub fn flow_path(self, flow: usize) -> Vec<NodeId> {
        match (self, flow) {
            (RouteSet::Route0, 1) => path(&[0, 1, 2, 3]),
            (RouteSet::Route0, 2) => path(&[0, 1, 2, 4]),
            (RouteSet::Route0, 3) => path(&[5, 6, 1, 7]),
            (RouteSet::Route1, 1) => path(&[0, 1, 3]),
            (RouteSet::Route1, 2) => path(&[0, 1, 4]),
            (RouteSet::Route1, 3) => path(&[5, 6, 7]),
            (RouteSet::Route2, 1) => path(&[0, 2, 3]),
            (RouteSet::Route2, 2) => path(&[0, 2, 4]),
            (RouteSet::Route2, 3) => path(&[5, 1, 7]),
            _ => panic!("Fig. 1 has flows 1..=3, got {flow}"),
        }
    }
}

/// Endpoints (source, destination) of the three flows.
pub fn flow_endpoints(flow: usize) -> (NodeId, NodeId) {
    match flow {
        1 => (NodeId::new(0), NodeId::new(3)),
        2 => (NodeId::new(0), NodeId::new(4)),
        3 => (NodeId::new(5), NodeId::new(7)),
        _ => panic!("Fig. 1 has flows 1..=3, got {flow}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_phy::LinkModel;

    #[test]
    fn table2_routes_match_paper() {
        assert_eq!(RouteSet::Route0.flow_path(1), path(&[0, 1, 2, 3]));
        assert_eq!(RouteSet::Route0.flow_path(3), path(&[5, 6, 1, 7]));
        assert_eq!(RouteSet::Route1.flow_path(2), path(&[0, 1, 4]));
        assert_eq!(RouteSet::Route2.flow_path(3), path(&[5, 1, 7]));
    }

    #[test]
    fn routes_start_and_end_at_flow_endpoints() {
        for set in RouteSet::ALL {
            for flow in 1..=3 {
                let p = set.flow_path(flow);
                let (src, dst) = flow_endpoints(flow);
                assert_eq!(*p.first().unwrap(), src, "{set:?} flow {flow}");
                assert_eq!(*p.last().unwrap(), dst, "{set:?} flow {flow}");
            }
        }
    }

    /// The calibration the whole Fig. 3/4 experiment depends on.
    #[test]
    fn link_quality_calibration() {
        let t = topology();
        let p = LinkModel::paper();
        let quality = |a: u32, b: u32| p.delivery(t.distance(NodeId::new(a), NodeId::new(b)));
        // ROUTE0 hops are strong.
        for (a, b) in [(0, 1), (1, 2), (2, 3), (2, 4), (5, 6), (6, 1), (1, 7)] {
            assert!(quality(a, b) > 0.88, "link {a}-{b} should be strong: {}", quality(a, b));
        }
        // The direct 0→3 link (the "S" baseline) is poor.
        assert!(quality(0, 3) < 0.30, "direct 0-3 must be poor: {}", quality(0, 3));
        assert!(quality(0, 4) < 0.35, "direct 0-4 must be poor: {}", quality(0, 4));
        // ROUTE1's 1→3 hop and ROUTE2's long hops are marginal: usable but
        // clearly worse than ROUTE0's (the paper measures "significantly
        // lower throughput" on ROUTE2).
        for (a, b) in [(1, 3), (1, 4), (0, 2), (5, 1), (6, 7)] {
            let q = quality(a, b);
            assert!((0.45..0.92).contains(&q), "link {a}-{b} should be marginal: {q}");
        }
    }

    #[test]
    #[should_panic(expected = "flows 1..=3")]
    fn bad_flow_panics() {
        let _ = RouteSet::Route0.flow_path(4);
    }
}
