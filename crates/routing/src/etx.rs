//! The ETX link metric and shortest-path route discovery.
//!
//! ETX of a link is the expected number of transmissions for a successful
//! delivery-plus-acknowledgement: `1 / (p_fwd · p_rev)`. ETX of a path is
//! the sum over its links; Dijkstra minimises it. The paper delegates route
//! discovery to this metric ("Existing routing schemes (e.g., ExOR and
//! MORE) use ETX towards the destination to select forwarders") and focuses
//! on forwarding, so we compute delivery probabilities *analytically* from
//! the shadowing model rather than with probe traffic.

use wmn_alloc::{count_work, Work};
use wmn_phy::{LinkModel, Medium, Position};
use wmn_sim::NodeId;

/// Links with delivery probability below this are unusable for routing.
const MIN_LINK_PROBABILITY: f64 = 0.05;

/// A delivery-probability matrix was rejected at [`LinkGraph`] construction.
///
/// Catching bad link costs here — with the offending pair named — replaces
/// the old failure mode: a `NaN` smuggled into the matrix survived until
/// Dijkstra's comparator panicked mid-extraction with no hint of which link
/// was broken.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EtxError {
    /// A matrix row's length differs from the number of rows.
    NonSquare {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The expected dimension (number of rows).
        n: usize,
    },
    /// A link's delivery probability is NaN or infinite.
    NonFinite {
        /// Transmitting node of the offending directed pair.
        from: NodeId,
        /// Receiving node of the offending directed pair.
        to: NodeId,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for EtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtxError::NonSquare { row, len, n } => {
                write!(
                    f,
                    "delivery matrix must be square: row {row} has {len} entries, expected {n}"
                )
            }
            EtxError::NonFinite { from, to, value } => {
                write!(
                    f,
                    "non-finite delivery probability {value} on link {} -> {}",
                    from.index(),
                    to.index()
                )
            }
        }
    }
}

impl std::error::Error for EtxError {}

/// Validates a delivery matrix: square, every entry finite.
fn validate(delivery: &[Vec<f64>]) -> Result<(), EtxError> {
    let n = delivery.len();
    for (i, row) in delivery.iter().enumerate() {
        if row.len() != n {
            return Err(EtxError::NonSquare { row: i, len: row.len(), n });
        }
        for (j, &p) in row.iter().enumerate() {
            if !p.is_finite() {
                return Err(EtxError::NonFinite {
                    from: NodeId::new(i as u32),
                    to: NodeId::new(j as u32),
                    value: p,
                });
            }
        }
    }
    Ok(())
}

/// A margin this many σ under the receive threshold makes a link unusable
/// without evaluating its delivery probability: Φ(−1.7) ≈ 0.0446, and the
/// `erf` approximant is within 7.5e-8 of it, so the probability is below
/// [`MIN_LINK_PROBABILITY`] whether or not the approximant is monotone
/// (pinned by `skip_bound_is_below_the_usability_floor`, which scans the
/// whole skipped range).
const HOPELESS_MARGIN_SIGMAS: f64 = -1.7;

/// Relative widening of [`hopeless_radius`], so that the rounding of a
/// squared distance can never cut a pair the margin test would evaluate.
const RADIUS_GUARD: f64 = 1e-6;

/// The distance beyond which a pair's mean received power sits more than
/// [`HOPELESS_MARGIN_SIGMAS`] σ under the receive threshold, widened by
/// [`RADIUS_GUARD`] (18.23 m for the paper's parameters; infinite — no pair
/// is cut — where [`LinkModel::radius_at`] is).
fn hopeless_radius(model: &LinkModel) -> f64 {
    model.radius_at(model.rx_thresh_dbm, HOPELESS_MARGIN_SIGMAS) * (1.0 + RADIUS_GUARD)
}

/// Link-quality graph with ETX arithmetic and Dijkstra.
///
/// A graph is a function of a [`LinkModel`] and a placement
/// ([`LinkGraph::from_placement`]), or of an explicit delivery matrix
/// ([`LinkGraph::from_matrix`]). Only *usable* links are stored — both
/// directions at or above the 0.05 delivery floor — as one CSR adjacency:
/// each station's neighbours in ascending id with the link's ETX. ETX is
/// symmetric (`1/(p_ab · p_ba)`), so every constructor evaluates the upper
/// triangle of station pairs once and mirrors it. A station has no link to
/// itself.
///
/// # Example
///
/// ```
/// use wmn_phy::{LinkModel, Position};
/// use wmn_routing::LinkGraph;
/// use wmn_sim::NodeId;
///
/// // Three stations in a line, 5 m apart: the two-hop route wins on ETX.
/// let g = LinkGraph::from_placement(
///     &LinkModel::paper(),
///     &[Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(10.0, 0.0)],
/// );
/// let path = g.shortest_path(NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(path.len(), 3); // 0 -> 1 -> 2
/// ```
#[derive(Clone, Debug)]
pub struct LinkGraph {
    /// CSR row bounds: station `v`'s neighbours are
    /// `edges[offsets[v]..offsets[v + 1]]`; `n + 1` entries.
    offsets: Vec<usize>,
    /// `(neighbour, link ETX)`, ascending by neighbour id within a row.
    edges: Vec<(NodeId, f64)>,
}

/// `1/(p_fwd · p_rev)`, or `None` if either direction is below the floor.
fn etx(p_fwd: f64, p_rev: f64) -> Option<f64> {
    (p_fwd >= MIN_LINK_PROBABILITY && p_rev >= MIN_LINK_PROBABILITY).then(|| 1.0 / (p_fwd * p_rev))
}

/// The least of `keys` (infinity if empty). Four independent running minima,
/// so the reduction is not one serial dependency chain: Dijkstra's extraction
/// scan is the dense part of a path query.
fn min_key(keys: &[f64]) -> f64 {
    let least = |a: f64, b: f64| if b < a { b } else { a };
    let mut lanes = [f64::INFINITY; 4];
    let chunks = keys.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &k) in lanes.iter_mut().zip(chunk) {
            *lane = least(*lane, k);
        }
    }
    lanes.iter().chain(tail).fold(f64::INFINITY, |a, &k| least(a, k))
}

impl LinkGraph {
    /// Builds the graph from `model`'s analytic delivery probabilities for
    /// a station placement.
    ///
    /// # Panics
    ///
    /// Panics with the [`EtxError`] message if the model yields a
    /// non-finite delivery probability (a misconfigured [`LinkModel`] — a
    /// programming error, not a runtime condition).
    pub fn from_placement(model: &LinkModel, positions: &[Position]) -> Self {
        Self::try_from_placement(model, positions).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible form of [`LinkGraph::from_placement`]: rejects non-finite
    /// delivery probabilities with a typed error naming the offending pair.
    ///
    /// A pair farther apart than the radius at which the mean received power
    /// sits 1.7 σ under the receive threshold (18.23 m for the paper's
    /// parameters) is dropped on its squared distance, before any `hypot`,
    /// `log10` or `erf`. That is exact: beyond the radius Φ(margin) ≤
    /// 0.0446, and the `erf` approximant's error (≤ 7.5e-8) keeps it below
    /// the 0.05 usability floor, so the full evaluation would drop the pair
    /// too (every usable link lies within the floor's radius, 17.86 m). The
    /// cut is off when σ, β or the reference distance is not positive, or
    /// the radius is not finite; a NaN coordinate fails the comparison and
    /// is still reported for the same first pair. Each pair the cut lets
    /// through is counted as [`Work::LinkEvaluations`].
    ///
    /// A pair's two directions share one delivery probability (a function
    /// of the distance), so its ETX is `1/p²`.
    ///
    /// # Errors
    ///
    /// [`EtxError::NonFinite`] if any pair's delivery probability is NaN or
    /// infinite.
    pub fn try_from_placement(model: &LinkModel, positions: &[Position]) -> Result<Self, EtxError> {
        let radius = hopeless_radius(model);
        let far_sq = radius * radius;
        let mut evaluated = 0;
        let graph = Self::from_upper_triangle(positions.len(), |a, b| {
            let (pa, pb) = (positions[a], positions[b]);
            let (dx, dy) = (pa.x - pb.x, pa.y - pb.y);
            if dx * dx + dy * dy > far_sq {
                return Ok(None);
            }
            evaluated += 1;
            let mean = model.mean_rx_dbm(pa.distance_to(pb));
            // A NaN margin fails the comparison and takes the exact path
            // below, which then reports it.
            if model.margin_sigmas(mean, model.rx_thresh_dbm) < HOPELESS_MARGIN_SIGMAS {
                return Ok(None);
            }
            let p = model.probability_above(mean, model.rx_thresh_dbm);
            if !p.is_finite() {
                return Err(EtxError::NonFinite {
                    from: NodeId::new(a as u32),
                    to: NodeId::new(b as u32),
                    value: p,
                });
            }
            Ok(etx(p, p))
        });
        count_work(Work::LinkEvaluations, evaluated);
        graph
    }

    /// [`LinkGraph::try_from_placement`] over the medium's link model and
    /// *current* placement. Nothing in the workspace calls it: it stays, as
    /// this one-line wrapper, for `perfbench`'s `routing.linkgraph_build`
    /// probe.
    ///
    /// # Errors
    ///
    /// As [`LinkGraph::try_from_placement`].
    pub fn try_from_medium(medium: &Medium) -> Result<Self, EtxError> {
        Self::try_from_placement(&medium.params().link, medium.positions())
    }

    /// Builds a graph directly from a delivery-probability matrix (used by
    /// tests and synthetic topologies); `delivery[i][j]` is the probability
    /// a frame from `i` is decodable at `j`. The diagonal is ignored.
    ///
    /// # Errors
    ///
    /// [`EtxError::NonSquare`] if the matrix is not square,
    /// [`EtxError::NonFinite`] if any entry is NaN or infinite.
    pub fn from_matrix(delivery: Vec<Vec<f64>>) -> Result<Self, EtxError> {
        validate(&delivery)?;
        Self::from_upper_triangle(delivery.len(), |a, b| Ok(etx(delivery[a][b], delivery[b][a])))
    }

    /// The one constructor: asks `pair_etx(a, b)` for every `a < b` in
    /// row-major order (so the first error is the first offending pair of a
    /// row-major scan of the full matrix — a pair's two directions fail
    /// together, and `(a, b)` precedes `(b, a)`), then lays the usable links
    /// out as CSR, sized exactly.
    fn from_upper_triangle(
        n: usize,
        mut pair_etx: impl FnMut(usize, usize) -> Result<Option<f64>, EtxError>,
    ) -> Result<Self, EtxError> {
        let mut upper: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut offsets = vec![0usize; n + 1];
        for a in 0..n {
            for b in a + 1..n {
                if let Some(w) = pair_etx(a, b)? {
                    upper.push((NodeId::new(a as u32), NodeId::new(b as u32), w));
                    offsets[a + 1] += 1;
                    offsets[b + 1] += 1;
                }
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Scatter in row-major order: station v first receives its
        // neighbours below v (from their rows, ascending), then those above
        // (from its own row, ascending) — each row ends up sorted by id.
        let mut edges = vec![(NodeId::new(0), 0.0); 2 * upper.len()];
        let mut next = offsets[..n].to_vec();
        for (a, b, w) in upper {
            edges[next[a.index()]] = (b, w);
            next[a.index()] += 1;
            edges[next[b.index()]] = (a, w);
            next[b.index()] += 1;
        }
        Ok(LinkGraph { offsets, edges })
    }

    /// Number of stations.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The stations `node` has a usable link to, ascending by id, each with
    /// the link's ETX.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbours(&self, node: NodeId) -> &[(NodeId, f64)] {
        let v = node.index();
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// ETX of the link between `a` and `b`: `1/(p_ab · p_ba)`, or infinity
    /// if either direction is below the usability floor (or `a == b`).
    pub fn link_etx(&self, a: NodeId, b: NodeId) -> f64 {
        let row = self.neighbours(a);
        row.binary_search_by_key(&b, |&(v, _)| v).map_or(f64::INFINITY, |i| row[i].1)
    }

    /// Cumulative ETX of a path (sum of link ETX values).
    ///
    /// # Panics
    ///
    /// Panics if the path has fewer than two nodes.
    pub fn path_etx(&self, path: &[NodeId]) -> f64 {
        assert!(path.len() >= 2, "a path needs at least two nodes");
        path.windows(2).map(|w| self.link_etx(w[0], w[1])).sum()
    }

    /// Minimum-ETX path from `src` to `dst` (inclusive of both), or `None`
    /// if no usable path exists.
    ///
    /// Ties are part of the contract (grid placements are full of equal-ETX
    /// alternatives, and route tables must not depend on the data
    /// structure): the next station settled is the unsettled one with the
    /// least `(distance, id)`, and a station's neighbours are relaxed in
    /// ascending id with a strict `<`, so the first-found of equal routes
    /// wins. Pinned against the dense reference in this module's tests.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        // `best[v]`: least distance found to v so far (final once settled).
        // `key[v]`: the same while v is reached but unsettled, infinite
        // otherwise — so extraction is a scan of one flat array. The scan
        // stays linear on purpose: a binary heap was tried at the sizes run
        // here (196-node meshes, tens of neighbours each) and lost to it,
        // and so did a scan of a compact list of the reached-but-unsettled
        // stations (×1.5–1.6, at a mean frontier of 77 on these meshes).
        let mut best = vec![f64::INFINITY; n];
        let mut key = vec![f64::INFINITY; n];
        // Read only along the found path, where every entry has been set.
        let mut prev = vec![src; n];
        best[src.index()] = 0.0;
        key[src.index()] = 0.0;
        loop {
            // Least (distance, id): the minimum, then the first holder.
            let dist = min_key(&key);
            if dist == f64::INFINITY {
                return None;
            }
            let u = key.iter().position(|&k| k == dist).expect("the minimum is in the array");
            if u == dst.index() {
                break;
            }
            key[u] = f64::INFINITY;
            let u = NodeId::new(u as u32);
            // A settled neighbour needs no test of its own: its `best` is
            // at most `dist`, and link ETX is never negative.
            for &(v, w) in self.neighbours(u) {
                if dist + w < best[v.index()] {
                    best[v.index()] = dist + w;
                    key[v.index()] = dist + w;
                    prev[v.index()] = u;
                }
            }
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur.index()];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Hop count of the minimum-ETX path, if one exists.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.shortest_path(src, dst).map(|p| p.len() - 1)
    }
}

/// Builds an opportunistic forwarder priority list from a route.
///
/// The returned list is in the paper's on-the-wire order: the destination
/// first ("the closest one to the MAC header"), then forwarders by
/// decreasing priority — i.e. by decreasing proximity to the destination
/// along the path. At most `max_forwarders` forwarders are kept (the ones
/// nearest the destination, which dominate progress).
///
/// # Panics
///
/// Panics if `path` has fewer than two nodes.
///
/// # Example
///
/// ```
/// use wmn_routing::forwarder_list;
/// use wmn_sim::NodeId;
///
/// let path: Vec<NodeId> = [0u32, 1, 2, 3].iter().map(|&i| NodeId::new(i)).collect();
/// let list = forwarder_list(&path, 5);
/// // Destination 3 first, then forwarder 2 (rank 1), then 1 (rank 2).
/// assert_eq!(list, vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)]);
/// ```
pub fn forwarder_list(path: &[NodeId], max_forwarders: usize) -> Vec<NodeId> {
    assert!(path.len() >= 2, "a path needs at least two nodes");
    let dst = *path.last().expect("non-empty");
    let mut list = vec![dst];
    // Interior nodes, nearest-to-destination first.
    let interior = &path[1..path.len() - 1];
    list.extend(interior.iter().rev().take(max_forwarders).copied());
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(n: usize, spacing: f64) -> Vec<Position> {
        (0..n).map(|i| Position::new(i as f64 * spacing, 0.0)).collect()
    }

    fn graph(n: usize, spacing: f64) -> LinkGraph {
        LinkGraph::from_placement(&LinkModel::paper(), &line(n, spacing))
    }

    /// The dense-matrix graph this module used before the CSR adjacency,
    /// kept verbatim as the oracle (the `plan_transmission_naive` pattern):
    /// an n×n delivery matrix, `link_etx` evaluated per relaxation, and the
    /// linear-scan Dijkstra whose tie-breaks the sparse one must reproduce.
    struct DenseGraph {
        delivery: Vec<Vec<f64>>,
    }

    impl DenseGraph {
        fn from_placement(model: &LinkModel, positions: &[Position]) -> Self {
            let n = positions.len();
            let mut delivery = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        let d = positions[i].distance_to(positions[j]);
                        delivery[i][j] = model.delivery(d);
                    }
                }
            }
            DenseGraph { delivery }
        }

        fn link_etx(&self, a: usize, b: usize) -> f64 {
            let pf = self.delivery[a][b];
            let pr = self.delivery[b][a];
            if pf < MIN_LINK_PROBABILITY || pr < MIN_LINK_PROBABILITY {
                f64::INFINITY
            } else {
                1.0 / (pf * pr)
            }
        }

        fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
            let n = self.delivery.len();
            let (s, d) = (src.index(), dst.index());
            let mut dist = vec![f64::INFINITY; n];
            let mut prev = vec![usize::MAX; n];
            let mut visited = vec![false; n];
            dist[s] = 0.0;
            for _ in 0..n {
                let u = (0..n)
                    .filter(|&u| !visited[u] && dist[u].is_finite())
                    .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))?;
                if u == d {
                    break;
                }
                visited[u] = true;
                for v in 0..n {
                    if v == u || visited[v] {
                        continue;
                    }
                    let w = self.link_etx(u, v);
                    if w.is_finite() && dist[u] + w < dist[v] {
                        dist[v] = dist[u] + w;
                        prev[v] = u;
                    }
                }
            }
            if !dist[d].is_finite() {
                return None;
            }
            let mut path = vec![d];
            let mut cur = d;
            while cur != s {
                cur = prev[cur];
                if cur == usize::MAX {
                    return None;
                }
                path.push(cur);
            }
            path.reverse();
            Some(path.into_iter().map(|i| NodeId::new(i as u32)).collect())
        }
    }

    /// Every off-diagonal link ETX (raw bits) and every `(src, dst)` route,
    /// `src == dst` and unreachable pairs included, against the oracle.
    fn assert_matches_dense(g: &LinkGraph, dense: &DenseGraph, context: &str) {
        let n = dense.delivery.len();
        assert_eq!(g.node_count(), n, "{context}");
        for a in 0..n {
            let mut degree = 0;
            for b in 0..n {
                let (na, nb) = (NodeId::new(a as u32), NodeId::new(b as u32));
                if a != b {
                    let want = dense.link_etx(a, b);
                    assert_eq!(g.link_etx(na, nb).to_bits(), want.to_bits(), "{context}: {a}->{b}");
                    degree += usize::from(want.is_finite());
                }
                assert_eq!(
                    g.shortest_path(na, nb),
                    dense.shortest_path(na, nb),
                    "{context}: route {a}->{b}"
                );
            }
            let row = g.neighbours(NodeId::new(a as u32));
            assert_eq!(row.len(), degree, "{context}: only usable links are stored");
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "{context}: row {a} ascending");
        }
    }

    #[test]
    fn skip_bound_is_below_the_usability_floor() {
        // The margin test may only drop links the exact path would also
        // call unusable: Φ(−1.7) ≈ 0.0446 against a floor of 0.05 and an
        // approximation error of 7.5e-8, held a tenth of the floor under it.
        let at_bound = wmn_phy::math::normal_cdf(HOPELESS_MARGIN_SIGMAS);
        assert!(at_bound < 0.9 * MIN_LINK_PROBABILITY, "Φ at the skip bound is {at_bound}");
        // Not relying on the approximant being monotone: sample the whole
        // skipped range down to where it underflows to exactly 0.
        let mut z = HOPELESS_MARGIN_SIGMAS;
        while z > -45.0 {
            let p = wmn_phy::math::normal_cdf(z);
            assert!(p < 0.9 * MIN_LINK_PROBABILITY, "Φ({z}) = {p}");
            z -= 0.001;
        }
        assert_eq!(wmn_phy::math::normal_cdf(f64::NEG_INFINITY), 0.0);
    }

    /// This thread's link evaluations so far ([`Work::LinkEvaluations`]).
    fn evaluations() -> u64 {
        wmn_alloc::work_totals()[Work::LinkEvaluations as usize]
    }

    #[test]
    fn placement_evaluates_only_the_pairs_inside_the_hopeless_radius() {
        // A 32×32 grid at 2 m: no pair sits within the radius guard of the
        // 18.23 m radius (the nearest lattice distances are 2·√82 ≈ 18.11
        // and 2·√85 ≈ 18.44 m).
        let model = LinkModel::paper();
        let radius = hopeless_radius(&model);
        assert!((radius - 18.23).abs() < 0.01, "radius {radius}");
        let positions: Vec<Position> = (0..1024)
            .map(|i| Position::new((i % 32) as f64 * 2.0, (i / 32) as f64 * 2.0))
            .collect();
        // The pairs the margin test lets through to the `erf`, counted from
        // the link model itself rather than from the radius.
        let mut within = 0;
        for a in 0..positions.len() {
            for b in a + 1..positions.len() {
                let mean = model.mean_rx_dbm(positions[a].distance_to(positions[b]));
                within += u64::from(
                    model.margin_sigmas(mean, model.rx_thresh_dbm) >= HOPELESS_MARGIN_SIGMAS,
                );
            }
        }
        let before = evaluations();
        let g = LinkGraph::from_placement(&model, &positions);
        let evaluated = evaluations() - before;
        assert_eq!(evaluated, within);
        assert!(4 * evaluated < 1024 * 1023 / 2, "{evaluated} of 523 776 pairs evaluated");
        assert!(g.neighbours(NodeId::new(0)).len() > 8, "the grid's short links are kept");
    }

    #[test]
    fn the_cut_keeps_every_link_at_the_floor_radius() {
        // Pairs 1 mm either side of the radius where the delivery
        // probability crosses the 0.05 floor (17.86 m), and either side of
        // the cut by its guard: the cut build equals the uncut dense one,
        // and the floor-radius pairs are where usable links end.
        let model = LinkModel::paper();
        let floor = model.radius_at(model.rx_thresh_dbm, -1.6448536269514722);
        assert!((floor - 17.86).abs() < 0.01, "floor radius {floor}");
        assert!(model.delivery(floor - 1e-3) >= MIN_LINK_PROBABILITY);
        assert!(model.delivery(floor + 1e-3) < MIN_LINK_PROBABILITY);
        let cut = hopeless_radius(&model);
        let guard = cut * RADIUS_GUARD;
        let spans = [floor - 1e-3, floor + 1e-3, cut - guard, cut + guard];
        // One station at the origin, one out along each of four directions
        // at each span, so no two far stations are within a span of each
        // other by accident of the layout.
        let mut positions = vec![Position::new(0.0, 0.0)];
        for (k, span) in spans.into_iter().enumerate() {
            let angle = std::f64::consts::FRAC_PI_2 * k as f64;
            positions.push(Position::new(span * angle.cos(), span * angle.sin()));
        }
        let dense = DenseGraph::from_placement(&model, &positions);
        let g = LinkGraph::from_placement(&model, &positions);
        assert_matches_dense(&g, &dense, "floor and cut edges");
        let origin = NodeId::new(0);
        assert!(g.link_etx(origin, NodeId::new(1)).is_finite(), "inside the floor radius");
        let beyond = [2, 3, 4].map(|i| g.link_etx(origin, NodeId::new(i)));
        assert_eq!(beyond, [f64::INFINITY; 3], "beyond the floor radius");
    }

    #[test]
    fn non_finite_probability_names_the_first_row_major_pair() {
        // σ = 0 makes the margin ±∞ (probability exactly 0 or 1) for every
        // pair except one sitting exactly on the threshold, where 0/0 is
        // NaN. Pair (1, 2) is the only one 7 m apart.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(5.0, 0.0),
            Position::new(5.0, 7.0),
            Position::new(40.0, 0.0),
        ];
        let mut model = LinkModel { sigma_db: 0.0, ..LinkModel::paper() };
        model.rx_thresh_dbm = model.mean_rx_dbm(7.0);
        // What the dense build reported: the first non-finite entry of a
        // row-major scan of the full matrix.
        let dense = DenseGraph::from_placement(&model, &positions);
        let Err(EtxError::NonFinite { from, to, value }) = validate(&dense.delivery) else {
            panic!("the dense matrix must hold a NaN");
        };
        assert_eq!((from, to), (NodeId::new(1), NodeId::new(2)));
        assert!(value.is_nan());
        match LinkGraph::try_from_placement(&model, &positions).unwrap_err() {
            EtxError::NonFinite { from, to, value } => {
                assert_eq!((from, to), (NodeId::new(1), NodeId::new(2)));
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // A NaN σ poisons every pair: the first one is (0, 1), and the NaN
        // margin must fall through the skip test rather than be skipped.
        model.sigma_db = f64::NAN;
        let err = LinkGraph::try_from_placement(&model, &positions).unwrap_err();
        assert!(
            matches!(err, EtxError::NonFinite { from, to, value }
                if (from, to) == (NodeId::new(0), NodeId::new(1)) && value.is_nan()),
            "got {err:?}"
        );
    }

    #[test]
    fn matrix_diagonal_is_ignored() {
        let g = LinkGraph::from_matrix(vec![vec![0.9, 0.8], vec![0.7, 0.9]]).unwrap();
        assert!(g.link_etx(NodeId::new(0), NodeId::new(0)).is_infinite());
        assert_eq!(g.neighbours(NodeId::new(0)), &[(NodeId::new(1), 1.0 / (0.8 * 0.7))]);
        assert_eq!(g.shortest_path(NodeId::new(1), NodeId::new(1)), Some(vec![NodeId::new(1)]));
    }

    #[test]
    fn adjacent_links_have_low_etx() {
        let g = graph(4, 5.0);
        let etx = g.link_etx(NodeId::new(0), NodeId::new(1));
        assert!(etx < 1.2, "5 m link ETX should be near 1, got {etx}");
    }

    #[test]
    fn distant_links_are_unusable() {
        let g = graph(5, 10.0);
        // 40 m apart: both directions far below the floor.
        assert!(g.link_etx(NodeId::new(0), NodeId::new(4)).is_infinite());
    }

    #[test]
    fn shortest_path_prefers_multihop_over_lossy_direct() {
        let g = graph(4, 5.0);
        let path = g.shortest_path(NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(
            path,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            "the hop-by-hop route must win on ETX"
        );
    }

    #[test]
    fn no_path_returns_none() {
        let g = LinkGraph::from_matrix(vec![vec![0.0, 0.0], vec![0.0, 0.0]]).unwrap();
        assert!(g.shortest_path(NodeId::new(0), NodeId::new(1)).is_none());
    }

    #[test]
    fn construction_rejects_non_finite_and_non_square() {
        let err = LinkGraph::from_matrix(vec![vec![0.0, f64::NAN], vec![0.5, 0.0]]).unwrap_err();
        match err {
            EtxError::NonFinite { from, to, value } => {
                assert_eq!((from, to), (NodeId::new(0), NodeId::new(1)));
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(err.to_string().contains("non-finite"), "display names the failure: {err}");
        let err = LinkGraph::from_matrix(vec![vec![0.0, 0.9], vec![0.5, 0.0, 0.1]]).unwrap_err();
        assert_eq!(err, EtxError::NonSquare { row: 1, len: 3, n: 2 });
        let err =
            LinkGraph::from_matrix(vec![vec![0.0, f64::INFINITY], vec![0.5, 0.0]]).unwrap_err();
        assert!(matches!(err, EtxError::NonFinite { value, .. } if value.is_infinite()));
    }

    #[test]
    fn a_moved_relay_falls_off_the_min_etx_path() {
        let mut positions = line(5, 5.0);
        let hop_by_hop: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let route = |positions: &[Position]| {
            LinkGraph::from_placement(&LinkModel::paper(), positions)
                .shortest_path(NodeId::new(0), NodeId::new(4))
        };
        assert_eq!(route(&positions), Some(hop_by_hop.clone()));
        positions[1] = Position::new(5.0, 30.0);
        assert_ne!(route(&positions), Some(hop_by_hop), "the moved relay must fall off the path");
    }

    #[test]
    fn path_etx_adds_links() {
        let g = graph(3, 5.0);
        let path = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let total = g.path_etx(&path);
        let sum = g.link_etx(path[0], path[1]) + g.link_etx(path[1], path[2]);
        assert!((total - sum).abs() < 1e-12);
    }

    #[test]
    fn forwarder_list_order_and_cap() {
        let path: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let list = forwarder_list(&path, 5);
        assert_eq!(list[0], NodeId::new(7), "destination first");
        assert_eq!(list.len(), 6, "dest + 5 forwarders (cap)");
        assert_eq!(list[1], NodeId::new(6), "highest priority forwarder nearest dest");
        assert_eq!(list[5], NodeId::new(2), "cap keeps the 5 nearest the destination");
    }

    #[test]
    fn forwarder_list_direct_path() {
        let path = [NodeId::new(0), NodeId::new(1)];
        assert_eq!(forwarder_list(&path, 5), vec![NodeId::new(1)]);
    }

    #[test]
    fn hop_count_matches_path() {
        let g = graph(5, 5.0);
        assert_eq!(g.hop_count(NodeId::new(0), NodeId::new(4)), Some(4));
    }

    proptest! {
        /// Grid placements are full of equal-ETX alternatives: the sparse
        /// graph must break every tie the way the dense one did.
        #[test]
        fn prop_sparse_matches_dense_on_grids(
            cols in 1usize..7,
            rows in 1usize..6,
            spacing_dm in 30u32..120,
        ) {
            let spacing = f64::from(spacing_dm) / 10.0;
            let positions: Vec<Position> = (0..cols * rows)
                .map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
                .collect();
            let model = LinkModel::paper();
            let dense = DenseGraph::from_placement(&model, &positions);
            let context = format!("grid {cols}x{rows} @ {spacing} m");
            assert_matches_dense(&LinkGraph::from_placement(&model, &positions), &dense, &context);
        }

        /// Random geometric placements, dense to partitioned.
        #[test]
        fn prop_sparse_matches_dense_on_random_placements(
            coords in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..20),
            side in 5.0f64..90.0,
        ) {
            let positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x * side, y * side)).collect();
            let model = LinkModel::paper();
            let dense = DenseGraph::from_placement(&model, &positions);
            assert_matches_dense(&LinkGraph::from_placement(&model, &positions), &dense, "placed");
        }

        /// The squared-distance cut against the uncut dense oracle, with
        /// about half the pairs on the edge of the hopeless radius: three
        /// sites whose pairwise distances are r·(1 ± ε), ε from 1e-12 to
        /// 0.2, each holding some of the stations (colocated), the rest
        /// placed freely. The link model varies over σ ∈ {8, 0.5, 1e-9, 0,
        /// −0.0, −8, NaN} (no cut unless σ > 0: with σ ≤ 0 far pairs are the
        /// usable ones), β ∈ {2, 5} and two receive thresholds. Either both
        /// builds succeed and agree bit for bit, routes included, or both
        /// report the same first offending pair.
        #[test]
        fn prop_far_cut_matches_dense_on_the_radius_edge(
            model in (0usize..7, 0usize..2, 0usize..2),
            sides in proptest::collection::vec((0usize..5, 0usize..2), 3..=3),
            stations in proptest::collection::vec((0usize..7, 0.0f64..1.0, 0.0f64..1.0), 2..12),
        ) {
            const SIGMAS: [f64; 7] = [8.0, 0.5, 1e-9, 0.0, -0.0, -8.0, f64::NAN];
            const EPSILONS: [f64; 5] = [1e-12, 1e-7, 1e-3, 0.05, 0.2];
            let (sigma, beta, thresh) = model;
            let model = LinkModel {
                sigma_db: SIGMAS[sigma],
                path_loss_exponent: [2.0, 5.0][beta],
                rx_thresh_dbm: [-65.0, -80.0][thresh],
                ..LinkModel::paper()
            };
            // The edge is placed at the radius of |σ| (σ = 8 for the
            // degenerate models), where a cut applied by mistake would bite.
            let edge_model = LinkModel {
                sigma_db: match SIGMAS[sigma] {
                    s if s > 0.0 => s,
                    _ => 8.0,
                },
                ..model
            };
            let r = hopeless_radius(&edge_model);
            prop_assert!(r.is_finite());
            let [a, b, c] = [0, 1, 2].map(|i| {
                let (eps, sign) = sides[i];
                r * (1.0 + [-1.0, 1.0][sign] * EPSILONS[eps])
            });
            // Sides a = |s1 s2|, b = |s0 s2|, c = |s0 s1|.
            let x = (b * b + c * c - a * a) / (2.0 * c);
            let sites = [
                Position::new(0.0, 0.0),
                Position::new(c, 0.0),
                Position::new(x, (b * b - x * x).sqrt()),
            ];
            let positions: Vec<Position> = stations
                .iter()
                .map(|&(kind, u, v)| match kind {
                    0..=5 => sites[kind / 2],
                    _ => Position::new((2.5 * u - 0.75) * r, (2.5 * v - 0.75) * r),
                })
                .collect();
            let context = format!(
                "σ {} β {} thresh {}",
                SIGMAS[sigma], model.path_loss_exponent, model.rx_thresh_dbm
            );
            let dense = DenseGraph::from_placement(&model, &positions);
            match (validate(&dense.delivery), LinkGraph::try_from_placement(&model, &positions)) {
                (Ok(()), Ok(g)) => assert_matches_dense(&g, &dense, &context),
                (Err(want), Err(got)) => {
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", context);
                }
                (want, got) => panic!("{context}: oracle {want:?}, cut build {got:?}"),
            }
        }

        /// Asymmetric matrices with entries on both sides of the 0.05
        /// floor (and exactly on it): a link needs both directions usable,
        /// so this produces one-way-dead links and unreachable stations.
        #[test]
        fn prop_sparse_matches_dense_on_asymmetric_matrices(
            n in 1usize..8,
            levels in proptest::collection::vec(0usize..8, 49..=49),
        ) {
            const LEVELS: [f64; 8] = [0.0, 0.02, 0.049_999, 0.05, 0.050_001, 0.3, 0.3, 0.95];
            let delivery: Vec<Vec<f64>> =
                (0..n).map(|i| (0..n).map(|j| LEVELS[levels[i * 7 + j]]).collect()).collect();
            let g = LinkGraph::from_matrix(delivery.clone()).expect("finite square matrix");
            assert_matches_dense(&g, &DenseGraph { delivery }, "matrix");
        }

        /// Dijkstra's result never costs more than the direct link or than
        /// any single-relay alternative (spot optimality check).
        #[test]
        fn prop_dijkstra_beats_simple_alternatives(
            ps in proptest::collection::vec((0.05f64..1.0, 0.05f64..1.0), 6..=6)
        ) {
            // Build a dense 3-node asymmetric graph.
            let mut m = vec![vec![0.0; 3]; 3];
            let mut entries = ps.iter();
            for (i, row) in m.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    if i != j {
                        *cell = entries.next().expect("6 off-diagonal entries").0;
                    }
                }
            }
            let g = LinkGraph::from_matrix(m).expect("finite square matrix");
            let (a, b) = (NodeId::new(0), NodeId::new(2));
            if let Some(path) = g.shortest_path(a, b) {
                let best = g.path_etx(&path);
                let direct = g.link_etx(a, b);
                let via = g.link_etx(a, NodeId::new(1)) + g.link_etx(NodeId::new(1), b);
                prop_assert!(best <= direct + 1e-9);
                prop_assert!(best <= via + 1e-9);
            }
        }
    }
}
