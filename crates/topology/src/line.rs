//! The line topology of Section IV-C ("Maximum Hops with Cross Traffic"):
//! a chain of 2–7 hops, optionally intersected mid-way by a 3-hop cross
//! flow. At 6–7 hops the endpoints cannot hear each other at all, so
//! RIPPLE's performance "depends entirely on the forwarders' help".

use wmn_phy::Position;
use wmn_sim::NodeId;

use crate::Topology;

/// Spacing between consecutive chain stations, metres (strong links).
pub const HOP_SPACING: f64 = 5.0;

/// A `hops`-hop chain: stations `0..=hops` along the x axis. If
/// `with_cross` is set, three more stations form a 3-hop cross flow through
/// the chain's middle station: `hops+1 → middle → hops+2 → hops+3`.
///
/// # Panics
///
/// Panics unless `2 ≤ hops ≤ 7` (the paper's range).
pub fn line(hops: usize, with_cross: bool) -> Topology {
    assert!((2..=7).contains(&hops), "the paper evaluates 2..=7 hops");
    let mut positions: Vec<Position> =
        (0..=hops).map(|i| Position::new(i as f64 * HOP_SPACING, 0.0)).collect();
    if with_cross {
        let mid_x = (hops as f64 / 2.0).floor() * HOP_SPACING;
        positions.push(Position::new(mid_x, HOP_SPACING)); // cross source
        positions.push(Position::new(mid_x, -HOP_SPACING)); // 2nd cross hop
        positions.push(Position::new(mid_x, -2.0 * HOP_SPACING)); // cross dest
    }
    Topology::new(format!("line-{hops}{}", if with_cross { "-cross" } else { "" }), positions)
}

/// The chain's end-to-end path.
pub fn main_path(hops: usize) -> Vec<NodeId> {
    (0..=hops as u32).map(NodeId::new).collect()
}

/// The 3-hop cross path through the chain's middle station.
pub fn cross_path(hops: usize) -> Vec<NodeId> {
    let base = hops as u32 + 1;
    let mid = (hops as u32) / 2;
    vec![NodeId::new(base), NodeId::new(mid), NodeId::new(base + 1), NodeId::new(base + 2)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_phy::LinkModel;

    #[test]
    fn chain_links_strong_ends_disconnected() {
        let p = LinkModel::paper();
        for hops in 2..=7 {
            let t = line(hops, false);
            for w in main_path(hops).windows(2) {
                assert!(p.delivery(t.distance(w[0], w[1])) > 0.9);
            }
        }
        // 6+ hops: source and destination cannot hear each other.
        let t = line(6, false);
        let q = p.delivery(t.distance(NodeId::new(0), NodeId::new(6)));
        assert!(q < 0.01, "30 m endpoints must be disconnected: {q}");
        assert!(p.sensing(t.distance(NodeId::new(0), NodeId::new(6))) < 0.1);
    }

    #[test]
    fn cross_path_intersects_the_chain() {
        for hops in 2..=7 {
            let t = line(hops, true);
            let cross = cross_path(hops);
            assert_eq!(cross.len(), 4, "3-hop cross flow");
            let mid = cross[1];
            assert!(mid.index() <= hops, "cross flow relays through a chain station");
            let p = LinkModel::paper();
            for w in cross.windows(2) {
                assert!(
                    p.delivery(t.distance(w[0], w[1])) > 0.8,
                    "cross link {}-{} must be usable",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "2..=7")]
    fn out_of_range_hops_rejected() {
        let _ = line(8, false);
    }
}
