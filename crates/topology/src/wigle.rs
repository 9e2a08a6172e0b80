//! A synthetic stand-in for the Wigle AP topology of Fig. 9.
//!
//! The paper uses the connected component of a real Wigle access-point map
//! (8 stations, small diameter: most flows traverse 1–3 hops) plus two
//! added stations S and R whose TCP flow provides hidden-terminal
//! interference. The original coordinates are not available, so this module
//! provides a fixed placement with the same structural properties; the
//! tests below pin them down.

use wmn_phy::Position;
use wmn_sim::NodeId;

use crate::Topology;

/// Index of the added hidden source S.
pub const HIDDEN_SRC: NodeId = NodeId::new(8);
/// Index of the added hidden destination R.
pub const HIDDEN_DST: NodeId = NodeId::new(9);

/// The 8 main stations (ids 0–7) plus S (8) and R (9).
pub fn topology() -> Topology {
    Topology::new(
        "wigle",
        vec![
            Position::new(0.0, 0.0),   // 0
            Position::new(5.0, 1.0),   // 1
            Position::new(9.5, 0.0),   // 2
            Position::new(3.5, 5.0),   // 3
            Position::new(8.0, 5.5),   // 4
            Position::new(13.0, 4.0),  // 5
            Position::new(12.5, 9.0),  // 6
            Position::new(8.5, 10.0),  // 7
            Position::new(24.0, 14.0), // 8 = S (hidden source)
            Position::new(27.5, 14.0), // 9 = R (hidden destination)
        ],
    )
}

/// The eight station pairs whose TCP flows Fig. 10 measures. Chosen (like
/// the paper's "randomly picked pairs") so the set spans 1–3 hops across
/// the map; routes are computed by ETX at experiment time.
pub fn flow_pairs() -> Vec<(NodeId, NodeId)> {
    [(0u32, 5u32), (7, 2), (3, 5), (0, 7), (2, 7), (5, 0), (6, 1), (4, 0)]
        .iter()
        .map(|&(a, b)| (NodeId::new(a), NodeId::new(b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_phy::LinkModel;
    use wmn_routing::LinkGraph;

    fn graph() -> LinkGraph {
        let t = topology();
        LinkGraph::from_placement(&LinkModel::paper(), &t.positions)
    }

    #[test]
    fn all_flow_pairs_are_routable_within_3_hops() {
        let g = graph();
        for (src, dst) in flow_pairs() {
            let hops = g.hop_count(src, dst).unwrap_or_else(|| panic!("{src}->{dst} unroutable"));
            assert!(
                (1..=3).contains(&hops),
                "small-diameter property: {src}->{dst} is {hops} hops"
            );
        }
        // The set spans more than one hop count.
        let hs: std::collections::BTreeSet<_> =
            flow_pairs().iter().map(|&(a, b)| g.hop_count(a, b).unwrap()).collect();
        assert!(hs.len() >= 2, "flows should span multiple hop counts: {hs:?}");
    }

    #[test]
    fn hidden_pair_is_a_clean_link() {
        let t = topology();
        let p = LinkModel::paper();
        let q = p.delivery(t.distance(HIDDEN_SRC, HIDDEN_DST));
        assert!(q > 0.9, "S-R must be a clean link: {q}");
    }

    #[test]
    fn hidden_source_is_hidden_from_far_stations_but_interferes_nearby() {
        let t = topology();
        let p = LinkModel::paper();
        // Station 0 rarely senses S…
        let far = p.sensing(t.distance(NodeId::new(0), HIDDEN_SRC));
        assert!(far < 0.25, "S should be (mostly) hidden from station 0: {far}");
        // …but stations 5/6 are inside its interference range.
        for near in [5u32, 6] {
            let q = p.sensing(t.distance(NodeId::new(near), HIDDEN_SRC));
            assert!(q > 0.5, "S must interfere at station {near}: {q}");
        }
    }
}
