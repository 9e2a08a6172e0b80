//! The Fig. 5 collision topologies.
//!
//! * **Regular collisions** (Fig. 5a): all stations within communication
//!   range of each other — contention losses come from simultaneous backoff
//!   expiry, not hidden terminals.
//! * **Hidden collisions** (Fig. 5b): flow 1 runs over a 3-hop chain; the
//!   sources of flows 2–10 are placed beyond carrier-sense range of flow
//!   1's source but within interference range of its downstream forwarders
//!   and destination, so their (saturated) traffic collides with flow 1
//!   invisibly.

use wmn_phy::Position;
use wmn_sim::NodeId;

use crate::Topology;

/// Fig. 5(a): `n_flows` source/destination pairs packed in one cell.
/// Node `2i` is the source and `2i+1` the destination of flow `i`.
pub fn single_cell(n_flows: usize) -> Topology {
    assert!(n_flows >= 1, "at least one flow");
    let mut positions = Vec::with_capacity(2 * n_flows);
    // Pairs on a small circle: every station hears every other.
    for i in 0..n_flows {
        let angle = i as f64 / n_flows as f64 * std::f64::consts::TAU;
        let (s, c) = angle.sin_cos();
        positions.push(Position::new(2.0 * c, 2.0 * s)); // source
        positions.push(Position::new(2.0 * c + 1.5, 2.0 * s)); // destination
    }
    Topology::new(format!("cell-{n_flows}"), positions)
}

/// Source/destination node ids of flow `i` in [`single_cell`].
pub fn cell_flow_endpoints(i: usize) -> (NodeId, NodeId) {
    (NodeId::new(2 * i as u32), NodeId::new(2 * i as u32 + 1))
}

/// Fig. 5(b): flow 1's chain is 0→1→2→3 (5 m hops). Hidden flow `k`
/// (0-based, up to 8) has its source at node `4+2k` and destination at
/// `5+2k`, placed ~27 m from station 0 (rarely sensed) but within range of
/// stations 2, 3.
pub fn hidden_terminals(n_hidden: usize) -> Topology {
    assert!(n_hidden <= 9, "the paper uses up to 9 hidden flows");
    let mut positions = vec![
        Position::new(0.0, 0.0),
        Position::new(5.0, 0.0),
        Position::new(10.0, 0.0),
        Position::new(15.0, 0.0),
    ];
    for k in 0..n_hidden {
        // Hidden sources fan out beyond the destination: ~29.5 m from the
        // flow-1 source (rarely sensed there) and ~15 m from its
        // destination, where their frames are sensed roughly half the time
        // — partial interference, so throughput declines gradually with
        // hidden load instead of collapsing at the first hidden flow.
        let y = (k as f64 - (n_hidden as f64 - 1.0) / 2.0) * 2.5;
        positions.push(Position::new(29.5, y)); // hidden source
        positions.push(Position::new(33.0, y)); // its destination
    }
    Topology::new(format!("hidden-{n_hidden}"), positions)
}

/// Flow 1's chain in [`hidden_terminals`].
pub fn hidden_main_path() -> Vec<NodeId> {
    crate::path(&[0, 1, 2, 3])
}

/// Source/destination of hidden flow `k` (0-based) in [`hidden_terminals`].
pub fn hidden_flow_endpoints(k: usize) -> (NodeId, NodeId) {
    (NodeId::new(4 + 2 * k as u32), NodeId::new(5 + 2 * k as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_phy::LinkModel;

    #[test]
    fn cell_is_fully_connected() {
        let t = single_cell(10);
        let p = LinkModel::paper();
        for a in 0..t.node_count() {
            for b in 0..t.node_count() {
                if a == b {
                    continue;
                }
                let q = p.delivery(t.distance(NodeId::new(a as u32), NodeId::new(b as u32)));
                assert!(q > 0.85, "cell stations must all hear each other: {a}-{b} {q}");
            }
        }
    }

    #[test]
    fn hidden_sources_are_hidden_from_flow1_source_but_interfere_downstream() {
        let t = hidden_terminals(9);
        let p = LinkModel::paper();
        for k in 0..9 {
            let (hs, hd) = hidden_flow_endpoints(k);
            // Rarely sensed by station 0…
            let sense_at_source = p.sensing(t.distance(NodeId::new(0), hs));
            assert!(sense_at_source < 0.3, "hidden source {k} too audible: {sense_at_source}");
            // …but partially inside the destination's interference range.
            let sense_at_dest = p.sensing(t.distance(NodeId::new(3), hs));
            assert!(
                (0.2..0.9).contains(&sense_at_dest),
                "hidden source {k} should interfere at station 3 part-time: {sense_at_dest}"
            );
            // And each hidden pair is a good link.
            let pair = p.delivery(t.distance(hs, hd));
            assert!(pair > 0.9, "hidden pair {k} must be a clean link: {pair}");
        }
    }

    #[test]
    fn main_chain_is_strong() {
        let t = hidden_terminals(0);
        let p = LinkModel::paper();
        let chain = hidden_main_path();
        for w in chain.windows(2) {
            let q = p.delivery(t.distance(w[0], w[1]));
            assert!(q > 0.9);
        }
    }

    #[test]
    #[should_panic(expected = "up to 9")]
    fn too_many_hidden_flows_rejected() {
        let _ = hidden_terminals(10);
    }
}
