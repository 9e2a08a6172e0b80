//! A synthetic stand-in for the MIT Roofnet topology of Fig. 11.
//!
//! The paper derives a large sparse mesh from the Roofnet GPS coordinate
//! file and measures flows whose endpoints are 3–5 hops apart, with two
//! nearby stations acting as hidden terminals per flow. The coordinate
//! file is offline, so this module generates a deterministic jittered-grid
//! placement with the same structural properties (documented in DESIGN.md);
//! the tests pin down that 3/4/5-hop pairs exist and that hidden pairs can
//! be selected near each destination.

use wmn_phy::{LinkModel, Position};
use wmn_routing::LinkGraph;
use wmn_sim::{labels, NodeId, RngDirectory};

use crate::Topology;

/// Grid side: 6×6 = 36 stations, comparable to Roofnet's connected core.
pub const GRID_SIDE: usize = 6;
/// Grid spacing in metres (strong-ish links between neighbours).
pub const GRID_SPACING: f64 = 5.5;

/// Deterministic jittered-grid placement (the jitter stream is fixed, so
/// every build sees the same "Roofnet").
pub fn topology() -> Topology {
    let mut rng = RngDirectory::new(0xF00F).stream(labels::ROOFNET_JITTER);
    let mut positions = Vec::with_capacity(GRID_SIDE * GRID_SIDE);
    for row in 0..GRID_SIDE {
        for col in 0..GRID_SIDE {
            let jx = (rng.uniform() - 0.5) * 2.2;
            let jy = (rng.uniform() - 0.5) * 2.2;
            positions.push(Position::new(
                col as f64 * GRID_SPACING + jx,
                row as f64 * GRID_SPACING + jy,
            ));
        }
    }
    Topology::new("roofnet", positions)
}

/// The ETX link graph of the synthetic Roofnet under `model`.
pub fn link_graph(model: &LinkModel) -> LinkGraph {
    LinkGraph::from_placement(model, &topology().positions)
}

/// Finds up to `count` station pairs exactly `hops` ETX-hops apart,
/// scanning deterministically. Used to pick Fig. 12's `3(1)`, `3(2)`, …
/// flows.
pub fn pairs_with_hops(graph: &LinkGraph, hops: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = graph.node_count();
    let mut out = Vec::new();
    'outer: for a in 0..n {
        for b in (a + 1)..n {
            let (src, dst) = (NodeId::new(a as u32), NodeId::new(b as u32));
            if graph.hop_count(src, dst) == Some(hops) {
                // Spread the picks: avoid reusing an endpoint.
                if out
                    .iter()
                    .all(|&(s, d): &(NodeId, NodeId)| s != src && d != dst && s != dst && d != src)
                {
                    out.push((src, dst));
                    if out.len() == count {
                        break 'outer;
                    }
                }
            }
        }
    }
    out
}

/// Picks a hidden-terminal pair for a flow: a station near the destination
/// (interference range) but far from the source, plus that station's
/// nearest neighbour as its traffic sink. Mirrors the paper's "two more
/// nearby stations are selected to act as the hidden terminals".
pub fn pick_hidden_pair(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    exclude: &[NodeId],
) -> Option<(NodeId, NodeId)> {
    let n = topo.node_count();
    let candidates: Vec<NodeId> = (0..n)
        .map(|i| NodeId::new(i as u32))
        .filter(|&x| x != src && x != dst && !exclude.contains(&x))
        .collect();
    // Hidden source: close to the destination, far from the source.
    // `total_cmp` keeps the selection total (and deterministic) even if a
    // distance were ever NaN — a panic in a topology helper is the wrong
    // failure mode for bad coordinates.
    let hidden_src = candidates
        .iter()
        .copied()
        .filter(|&x| topo.distance(x, dst) < 9.0 && topo.distance(x, src) > 14.0)
        .min_by(|&a, &b| topo.distance(a, dst).total_cmp(&topo.distance(b, dst)))?;
    // Its sink: the nearest remaining station.
    let hidden_dst =
        candidates.iter().copied().filter(|&x| x != hidden_src).min_by(|&a, &b| {
            topo.distance(a, hidden_src).total_cmp(&topo.distance(b, hidden_src))
        })?;
    Some((hidden_src, hidden_dst))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let a = topology();
        let b = topology();
        for i in 0..a.node_count() {
            assert_eq!(a.positions[i], b.positions[i]);
        }
        assert_eq!(a.node_count(), 36);
    }

    #[test]
    fn pairs_exist_for_3_4_5_hops() {
        let g = link_graph(&LinkModel::paper());
        for hops in 3..=5 {
            let pairs = pairs_with_hops(&g, hops, 2);
            assert_eq!(pairs.len(), 2, "need two {hops}-hop test pairs (Fig. 12 labels)");
            for (s, d) in pairs {
                assert_eq!(g.hop_count(s, d), Some(hops));
            }
        }
    }

    #[test]
    fn hidden_pairs_selectable_for_long_flows() {
        let t = topology();
        let g = link_graph(&LinkModel::paper());
        let mut found = 0;
        for (s, d) in pairs_with_hops(&g, 4, 2) {
            let path = g.shortest_path(s, d).unwrap();
            if let Some((hs, hd)) = pick_hidden_pair(&t, s, d, &path) {
                found += 1;
                assert!(t.distance(hs, d) < 9.0, "hidden source interferes at destination");
                assert!(t.distance(hs, s) > 14.0, "hidden source far from flow source");
                assert!(t.distance(hs, hd) < 9.0, "hidden pair is a usable link");
            }
        }
        assert!(found >= 1, "at least one 4-hop flow must admit a hidden pair");
    }
}
