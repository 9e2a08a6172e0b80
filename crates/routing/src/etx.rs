//! The ETX link metric and shortest-path route discovery.
//!
//! ETX of a link is the expected number of transmissions for a successful
//! delivery-plus-acknowledgement: `1 / (p_fwd · p_rev)`. ETX of a path is
//! the sum over its links; one search minimises it, as Dijkstra's algorithm
//! over a built [`LinkGraph`], or as A* over a placement whose links are
//! evaluated only where they could matter ([`PlacementSearch`]), with the
//! same result. Whether a placement is connected is a flood fill over a
//! grid of cells one cut radius wide ([`PlacementSearch::connected`]), with
//! the verdict of the built graph. The paper delegates route
//! discovery to this metric ("Existing routing schemes (e.g., ExOR and
//! MORE) use ETX towards the destination to select forwarders") and focuses
//! on forwarding, so we compute delivery probabilities *analytically* from
//! the shadowing model rather than with probe traffic.

use std::sync::{Arc, Mutex, PoisonError};

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
    /// A matrix entry is finite but not a probability: below 0 or above 1.
    /// Above 1 it would give a link an ETX below 1, which the search's
    /// exactness argument rules out (see [`LinkGraph::shortest_path`]).
    NotAProbability {
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
            EtxError::NotAProbability { from, to, value } => {
                write!(
                    f,
                    "delivery probability {value} outside [0, 1] on link {} -> {}",
                    from.index(),
                    to.index()
                )
            }
        }
    }
}

impl std::error::Error for EtxError {}

/// Validates a delivery matrix: square, every entry a finite probability.
fn validate(delivery: &[Vec<f64>]) -> Result<(), EtxError> {
    let n = delivery.len();
    for (i, row) in delivery.iter().enumerate() {
        if row.len() != n {
            return Err(EtxError::NonSquare { row: i, len: row.len(), n });
        }
        for (j, &value) in row.iter().enumerate() {
            let (from, to) = (NodeId::new(i as u32), NodeId::new(j as u32));
            if !value.is_finite() {
                return Err(EtxError::NonFinite { from, to, value });
            }
            if !(0.0..=1.0).contains(&value) {
                return Err(EtxError::NotAProbability { from, to, value });
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

/// The ETX of a pair of stations `metres` apart under `model` (both
/// directions share the delivery probability, so it is `1/p²`), `None` if
/// the link is unusable, or the non-finite probability as the error. The
/// one evaluation of a placement link: the eager build and the lazy search
/// both call it, on a pair inside the cut.
#[inline]
fn distance_etx(model: &LinkModel, metres: f64) -> Result<Option<f64>, f64> {
    let mean = model.mean_rx_dbm(metres);
    // A NaN margin fails the comparison and takes the exact path below,
    // which then reports it.
    if model.margin_sigmas(mean, model.rx_thresh_dbm) < HOPELESS_MARGIN_SIGMAS {
        return Ok(None);
    }
    let p = model.probability_above(mean, model.rx_thresh_dbm);
    if !p.is_finite() {
        return Err(p);
    }
    Ok(etx(p, p))
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
            distance_etx(model, pa.distance_to(pb)).map_err(|value| EtxError::NonFinite {
                from: NodeId::new(a as u32),
                to: NodeId::new(b as u32),
                value,
            })
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
    /// structure): the path is the one Dijkstra's algorithm returns when the
    /// next station settled is the unsettled one with the least
    /// `(distance, id)` and a station's neighbours are relaxed with a strict
    /// `<`, so the first-found of equal routes wins. Pinned against the
    /// dense reference in this module's tests.
    ///
    /// This is the module's one min-ETX search (A*, the one
    /// [`PlacementSearch`] runs) over the CSR rows with h = 0, which makes
    /// it Dijkstra's algorithm. Its extraction is a scan of one flat array,
    /// on purpose: a binary heap was tried at the sizes run here (196-node
    /// meshes, tens of neighbours each) and lost to it, and so did a scan
    /// of a compact list of the reached-but-unsettled stations (×1.5–1.6,
    /// at a mean frontier of 77 on these meshes).
    ///
    /// A route refresh builds no graph: it runs the search over a
    /// [`PlacementSearch`]. What lost to that on `perfbench`'s
    /// `mobile_refresh` meshes (seed 1, 200 refresh instants of 6 flows;
    /// this eager graph evaluates 7 511 pairs per instant and settles 165
    /// stations per search, the search 2 687 and 34, and 229 when each flow
    /// is re-routed from its path of the instant before): rows built lazily
    /// but no pruning (7 063 evaluations); the lower-bound skip with κ = 0,
    /// i.e. lazy Dijkstra (5 170 evaluations, 165 settled, ×1.65 this
    /// graph's time); κ = 1 / the cut radius (143 settled, ×1.24); a lower
    /// bound of 1 for every link inside the floor radius (4 874
    /// evaluations, ×0.91 against the search's ×0.51); and, measured
    /// before the search, routing a schedule's instants on two threads
    /// (perfbench `wall_s` 0.45–0.53 s against 0.44–0.46 s on a 2-core
    /// host).
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        search(&mut Eager(self), &mut SearchState::default(), src, dst)
    }

    /// Hop count of the minimum-ETX path, if one exists.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.shortest_path(src, dst).map(|p| p.len() - 1)
    }
}

/// Bins of squared distance, over `[0, cut²]`, in a [`LinkBounds`] table.
const BOUND_BINS: usize = 1024;

/// How far a computed delivery probability may sit above the one computed
/// at a shorter distance: twice the `erf` approximant's error in Φ
/// (7.5e-8), plus room for rounding (of the probability, and of the bin a
/// squared distance is read from). A lower bound built from the
/// probability at a bin's near edge plus this holds over the whole bin
/// without relying on the approximant being monotone.
const PROBABILITY_SLACK: f64 = 2e-7;

/// The share of every link's lower bound the heuristic leaves unused:
/// κ·|u − v| ≤ (1 − this)·LB, so h stays consistent by a margin that no
/// rounding of a path's ETX (at least 1 per link) can eat.
const CONSISTENCY_SLACK: f64 = 1e-3;

/// Lower bounds on the ETX of a placement link from its squared distance
/// alone, and the heuristic's slope they admit.
///
/// Facts the lazy search rests on, each pinned by this module's tests:
/// - every usable link has ETX ≥ 1 (a probability is at most 1);
/// - [`LinkBounds::lower`] is at most the computed ETX of any pair in its
///   bin (infinite where no pair of the bin can be usable);
/// - `kappa · d ≤ (1 − CONSISTENCY_SLACK) · lower(d²)`, so h(v) =
///   κ·|v − dst| is a consistent A* heuristic with slack beyond rounding.
#[derive(Clone, Debug)]
struct LinkBounds {
    /// Bins per square metre: the cut, squared, spans [`BOUND_BINS`].
    per_sq: f64,
    /// Bin `k` covers squared distances from `k / per_sq`, upward.
    lower: Box<[f64]>,
    /// κ, in ETX per metre.
    kappa: f64,
}

impl LinkBounds {
    /// The bounds of `model`; `None` unless every field is finite and the
    /// routing cut is (σ, β and the reference distance positive), since
    /// ETX only grows with distance where that holds.
    fn of(model: &LinkModel) -> Option<LinkBounds> {
        let radius = hopeless_radius(model);
        if model.check().is_err() || !radius.is_finite() {
            return None;
        }
        let far_sq = radius * radius;
        let width = far_sq / BOUND_BINS as f64;
        // One entry per bin, the last starting at the cut.
        let lower: Box<[f64]> = (0..=BOUND_BINS)
            .map(|k| {
                let near = (k as f64 * width).sqrt();
                let p = model.probability_above(model.mean_rx_dbm(near), model.rx_thresh_dbm)
                    + PROBABILITY_SLACK;
                match p.min(1.0) {
                    p if p < MIN_LINK_PROBABILITY => f64::INFINITY,
                    p => 1.0 / (p * p),
                }
            })
            .collect();
        // Φ(−1.7) ≈ 0.0446 at the cut: the bound of every squared distance
        // past it.
        assert_eq!(lower[BOUND_BINS], f64::INFINITY, "no link is usable at the cut");
        // Bin k's far edge is its largest distance, so its least ETX per
        // metre.
        let steepest = lower
            .iter()
            .enumerate()
            .map(|(k, &lb)| lb / ((k + 1) as f64 * width).sqrt())
            .fold(f64::INFINITY, f64::min);
        let kappa = if steepest.is_finite() { (1.0 - CONSISTENCY_SLACK) * steepest } else { 0.0 };
        Some(LinkBounds { per_sq: 1.0 / width, lower, kappa })
    }

    /// [`LinkBounds::of`], computed once per model: the table of the last
    /// model asked for is kept for the process (about 8 kB), so the searches
    /// of a sweep's scenarios and route schedules, all under one model,
    /// share it rather than each paying its 1 025 probability evaluations.
    fn shared(model: &LinkModel) -> Option<Arc<LinkBounds>> {
        static LAST: Mutex<Option<(LinkModel, Arc<LinkBounds>)>> = Mutex::new(None);
        // The entry is replaced by one assignment, after the table is
        // built, so a lock poisoned by a panic still holds a valid entry.
        let mut last = LAST.lock().unwrap_or_else(PoisonError::into_inner);
        match &*last {
            Some((held, bounds)) if held == model => Some(Arc::clone(bounds)),
            _ => {
                let bounds = Arc::new(LinkBounds::of(model)?);
                *last = Some((*model, Arc::clone(&bounds)));
                Some(bounds)
            }
        }
    }

    /// A lower bound on the ETX of a pair `d2` square metres apart:
    /// infinite from the cut on, where no pair has a usable link (the cut
    /// sits 1.7 σ under the receive threshold), so a test against it is the
    /// cut test too.
    #[inline]
    fn lower(&self, d2: f64) -> f64 {
        // The bin x = d2 · per_sq falls in, clamped to the last: ⌊x⌋, or
        // ⌊x⌋ − 1 when x is a whole number (a bin's bound holds from its
        // near edge on, so a lower bin bounds the pair too). Read without
        // the saturating float-to-integer cast, which lengthens the scan's
        // critical path: x − 0.5 rounds to nearest when added to 1.5·2⁵²,
        // whose neighbours are one apart.
        const MAGIC: f64 = 6_755_399_441_055_744.0;
        let x = (d2 * self.per_sq).min(BOUND_BINS as f64) - 0.5;
        self.lower[((x + MAGIC).to_bits() - MAGIC.to_bits()) as usize]
    }
}

/// The squared distance between two stations: the routing cut's measure.
#[inline]
fn distance_sq(a: Position, b: Position) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

/// One search's per-station state, kept between the searches of a
/// [`PlacementSearch`] so that its schedule allocates it once.
#[derive(Debug, Default)]
struct SearchState {
    /// What a path to v must come in at or under to be offered: `f64::MAX`
    /// until v is reached, then g(v), the least path ETX found to it so
    /// far, and −g(v) once it is settled (g is final then, and no path is
    /// negative). So one comparison rules out a settled station, and a
    /// path past the cut (infinite) never reaches an unreached one.
    bar: Vec<f64>,
    /// f(v) = g(v) + h(v) while v is reached but unsettled, infinite
    /// otherwise, so extraction is a scan of one flat array.
    key: Vec<f64>,
    /// v's predecessor by Dijkstra's rule (see [`SearchState::tie`]);
    /// read only along the found path.
    prev: Vec<u32>,
}

impl SearchState {
    fn reset(&mut self, n: usize) {
        self.bar.clear();
        self.bar.resize(n, f64::MAX);
        self.key.clear();
        self.key.resize(n, f64::INFINITY);
        self.prev.resize(n, 0);
    }

    /// g(u) of a settled station.
    fn settled_g(&self, u: usize) -> f64 {
        -self.bar[u]
    }

    /// Settles the reached, unsettled station with the least `(f, id)`:
    /// the minimum, then its first holder. `None` when none is left.
    fn settle_least(&mut self) -> Option<usize> {
        let least = min_key(&self.key);
        if least == f64::INFINITY {
            return None;
        }
        let u = self.key.iter().position(|&k| k == least).expect("the minimum is in the array");
        self.key[u] = f64::INFINITY;
        self.bar[u] = -self.bar[u];
        Some(u)
    }

    /// A path of ETX `g` to `v` through the settled `u`: kept, with `u` as
    /// v's predecessor, if strictly shorter than v's (computing v's
    /// heuristic, read only then). Returns whether it was.
    #[inline]
    fn improve(&mut self, u: usize, v: usize, g: f64, h: impl FnOnce() -> f64) -> bool {
        let shorter = g < self.bar[v];
        if shorter {
            self.bar[v] = g;
            self.key[v] = g + h();
            self.prev[v] = u as u32;
        }
        shorter
    }

    /// A path of ETX `g` to `v` through the settled `u` that [`improve`]
    /// did not keep. Dijkstra's rule for the predecessor: the settled `u`
    /// with the least `(g(u), id(u))` among those whose `g(u) + w(u, v)`
    /// rounds to `g(v)`. So a path equal to v's replaces its predecessor if
    /// `u` precedes that in this order. Dijkstra settles in this order, so
    /// there an equal path never replaces one; A* settles by f, so here it
    /// may.
    ///
    /// [`improve`]: SearchState::improve
    fn tie(&mut self, u: usize, v: usize, g: f64) {
        let held = self.prev[v] as usize;
        if g == self.bar[v] && (self.settled_g(u), u) < (self.settled_g(held), held) {
            self.prev[v] = u as u32;
        }
    }
}

/// Where a search reads links from: an eager [`LinkGraph`] ([`Eager`]), or
/// a placement whose links are evaluated on first use ([`Lazy`]). Links are
/// symmetric, and every usable one has ETX ≥ 1.
trait LinkSource {
    fn node_count(&self) -> usize;

    /// h(v), towards the search's destination: zero, or a consistent lower
    /// bound with slack (see [`LinkBounds`]).
    fn heuristic(&self, v: usize) -> f64;

    /// Offers ([`SearchState::improve`], [`SearchState::tie`]) every link
    /// of the just-settled `u` that could shorten a path to its other end,
    /// or tie with it. Skipping a link that cannot is the only liberty a
    /// source takes.
    fn relax(&mut self, u: usize, state: &mut SearchState);
}

/// The module's one min-ETX search: A* with `links`' heuristic, which
/// settles stations in order of f = g + h, ties by id, and stops when it
/// settles `dst`, keeping each station's predecessor by Dijkstra's rule
/// ([`SearchState::tie`]). It returns exactly the path Dijkstra's
/// algorithm returns (see [`LinkGraph::shortest_path`] for its tie rule),
/// with any consistent heuristic:
/// - every usable link has ETX ≥ 1, so a candidate predecessor `u` of `v`
///   has g(u) < g(v), and Dijkstra settles it before `v`;
/// - a consistent h with slack makes a station's g final when it is
///   settled, and settles every candidate predecessor of a station on the
///   path before that station: each offers its link while the station's g
///   can still take it;
/// - a source skips only links that can neither lower a g nor tie with it
///   (a lower bound on the link says so), or that would reach their far
///   end at an f over an upper bound on g(dst); every candidate
///   predecessor of a station on the path has an f below g(dst), so none
///   is skipped.
///
/// Each settled station is counted as [`Work::RouteSettles`].
fn search(
    links: &mut impl LinkSource,
    state: &mut SearchState,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    let (s, d) = (src.index(), dst.index());
    state.reset(links.node_count());
    state.improve(s, s, 0.0, || links.heuristic(s));
    let mut settled = 0;
    let reached = loop {
        let Some(u) = state.settle_least() else { break false };
        settled += 1;
        if u == d {
            break true;
        }
        links.relax(u, state);
    };
    count_work(Work::RouteSettles, settled);
    if !reached {
        return None;
    }
    let mut path = vec![dst];
    let mut v = d;
    while v != s {
        v = state.prev[v] as usize;
        path.push(NodeId::new(v as u32));
    }
    path.reverse();
    Some(path)
}

/// A [`LinkGraph`]'s CSR rows as a link source, with h = 0.
struct Eager<'g>(&'g LinkGraph);

impl LinkSource for Eager<'_> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn heuristic(&self, _: usize) -> f64 {
        0.0
    }

    fn relax(&mut self, u: usize, state: &mut SearchState) {
        // No tie can replace a predecessor here: with h = 0 the search is
        // Dijkstra's, which settles in (g, id) order.
        let g = state.settled_g(u);
        for &(v, w) in self.0.neighbours(NodeId::new(u as u32)) {
            state.improve(u, v.index(), g + w, || 0.0);
        }
    }
}

/// The links of one placement evaluated so far, memoised for the
/// placement: a row per station some search settled, n entries each, NaN
/// until evaluated. A link is read from either end's row and written into
/// both that exist.
#[derive(Debug, Default)]
struct LinkMemo {
    /// Station v's row, [`LinkMemo::NONE`] while it holds none.
    row_of: Vec<u32>,
    /// The held rows, back to back.
    rows: Vec<f64>,
    /// The stations holding a row, in the order they took it.
    holders: Vec<usize>,
    /// Links evaluated since the last count.
    evaluated: u64,
}

impl LinkMemo {
    const NONE: u32 = u32::MAX;

    /// Forgets every link, for a placement of `n` stations; keeps the
    /// buffers.
    fn clear(&mut self, n: usize) {
        for &holder in &self.holders {
            self.row_of[holder] = Self::NONE;
        }
        self.row_of.resize(n, Self::NONE);
        self.holders.clear();
        self.rows.clear();
    }

    /// Gives `u` a row, if it has none.
    fn hold(&mut self, u: usize, n: usize) {
        if self.row_of[u] == Self::NONE {
            self.row_of[u] = self.holders.len() as u32;
            self.holders.push(u);
            self.rows.resize(self.rows.len() + n, f64::NAN);
        }
    }
}

/// A placement as a link source: every station is a candidate, its link
/// evaluated ([`distance_etx`]) on first use only, and only when its lower
/// bound says it could shorten (or tie) a path; h(v) = κ·|v − dst|.
struct Lazy<'s> {
    model: &'s LinkModel,
    bounds: &'s LinkBounds,
    positions: &'s [Position],
    memo: &'s mut LinkMemo,
    /// Scratch for [`LinkSource::relax`]: the stations whose link it reads.
    near: &'s mut Vec<u32>,
    target: Position,
    /// At least g(dst): the ETX of a known walk to the target (infinite
    /// for none). A link whose far end it puts out of reach is not read.
    within: f64,
}

impl Lazy<'_> {
    /// The ETX of the walk `path`, summed link by link as the search sums a
    /// path's (a step that stays put adds nothing); infinite if a link is
    /// unusable. At least the ETX of the least path between its ends, since
    /// every sum only grows.
    fn walk_etx(&mut self, path: &[NodeId]) -> f64 {
        let n = self.positions.len();
        let mut g = 0.0;
        for step in path.windows(2) {
            let (u, v) = (step[0].index(), step[1].index());
            if u != v {
                self.memo.hold(u, n);
                g += self.link(u, v);
            }
        }
        g
    }

    /// The ETX of the link between `u`, which holds a row, and `v`:
    /// infinite if unusable.
    fn link(&mut self, u: usize, v: usize) -> f64 {
        let n = self.positions.len();
        let memo = &mut *self.memo;
        let at_u = memo.row_of[u] as usize * n + v;
        let at_v = (memo.row_of[v] != LinkMemo::NONE).then(|| memo.row_of[v] as usize * n + u);
        let known = match at_v {
            Some(at_v) if memo.rows[at_u].is_nan() => memo.rows[at_v],
            _ => memo.rows[at_u],
        };
        if !known.is_nan() {
            memo.rows[at_u] = known;
            return known;
        }
        let (a, b) = (self.positions[u.min(v)], self.positions[u.max(v)]);
        let w = distance_etx(self.model, a.distance_to(b))
            .expect("a checked model gives every pair inside its cut a finite probability")
            .unwrap_or(f64::INFINITY);
        memo.evaluated += 1;
        memo.rows[at_u] = w;
        if let Some(at_v) = at_v {
            memo.rows[at_v] = w;
        }
        w
    }
}

impl LinkSource for Lazy<'_> {
    fn node_count(&self) -> usize {
        self.positions.len()
    }

    fn heuristic(&self, v: usize) -> f64 {
        self.bounds.kappa * distance_sq(self.positions[v], self.target).sqrt()
    }

    fn relax(&mut self, u: usize, state: &mut SearchState) {
        let n = self.positions.len();
        self.memo.hold(u, n);
        let (at, g) = (self.positions[u], state.settled_g(u));
        // First the stations whose link passes one comparison, which skips
        // a station past the cut (an infinite bound), a settled one (a
        // negative bar), and a link that can neither shorten nor tie the
        // path held; listed without a branch, since about one station in
        // ten passes. Relaxing v changes no other station's bar, so the
        // list is the one a test before each relaxation would pass.
        let mut near = std::mem::take(self.near);
        near.resize(n, 0);
        let mut passed = 0;
        for (v, (&position, &bar)) in self.positions.iter().zip(&state.bar).enumerate() {
            near[passed] = v as u32;
            passed += usize::from(g + self.bounds.lower(distance_sq(at, position)) <= bar);
        }
        for &v in &near[..passed] {
            let v = v as usize;
            // A path through this link would reach v at an f over g(dst):
            // v cannot be on the path, nor u precede it there.
            let lower = self.bounds.lower(distance_sq(at, self.positions[v]));
            if g + lower + self.heuristic(v) > self.within {
                continue;
            }
            let w = self.link(u, v);
            if !state.improve(u, v, g + w, || self.heuristic(v)) {
                state.tie(u, v, g + w);
            }
        }
        *self.near = near;
    }
}

/// Relative widening of a flood-fill cell past the cut radius, so that the
/// rounding of a cell index (at most a few 1e-11 of a cell over 2¹⁶ cells a
/// side) can never put the two ends of a pair inside the cut two cells
/// apart.
const CELL_GUARD: f64 = 1e-9;

/// Scratch for [`PlacementSearch::connected`]: the stations counting-sorted
/// by the cell of a flat grid they fall in, each cell's unreached stations
/// at the back of its run.
#[derive(Debug, Default)]
struct CellFill {
    /// Station ids, cell after cell.
    order: Vec<u32>,
    /// Cell c's unreached stations are `order[runs[c].0..runs[c].1]`; its
    /// reached ones sit just before them.
    runs: Vec<(usize, usize)>,
    /// Reached stations whose cells are still to be scanned.
    stack: Vec<u32>,
}

impl CellFill {
    /// Whether every station reaches station 0 over the links `usable`
    /// accepts, asking it only of pairs whose squared distance is not over
    /// `far_sq`, from a just-reached station to an unreached one. Cells are
    /// at least `reach` wide, which must cover every such pair; there are
    /// at most (⌈√n⌉ + 1)² of them, however far apart the stations are, and
    /// a single one when a coordinate is not finite.
    fn spans(
        &mut self,
        positions: &[Position],
        reach: f64,
        far_sq: f64,
        mut usable: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        let n = positions.len();
        if n == 0 {
            return false;
        }
        let (mut lo, mut hi) = (positions[0], positions[0]);
        for p in positions {
            (lo.x, lo.y, hi.x, hi.y) = (lo.x.min(p.x), lo.y.min(p.y), hi.x.max(p.x), hi.y.max(p.y));
        }
        // Infinitely wide cells, hence one, when a coordinate is not finite:
        // float-to-integer casts saturate and read NaN as 0, as they do for
        // an extent that overflows.
        let side_cap = (n as f64).sqrt().ceil();
        let width = if positions.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
            reach.max((hi.x - lo.x) / side_cap).max((hi.y - lo.y) / side_cap)
        } else {
            f64::INFINITY
        };
        let along = |extent: f64| ((extent / width) as usize).min(side_cap as usize) + 1;
        let (cols, rows) = (along(hi.x - lo.x), along(hi.y - lo.y));
        let cell_of = |p: Position| {
            let col = (((p.x - lo.x) / width) as usize).min(cols - 1);
            let row = (((p.y - lo.y) / width) as usize).min(rows - 1);
            (col, row)
        };
        let index = |(col, row): (usize, usize)| row * cols + col;
        // Counting sort: count, then each run's start, then scatter.
        self.runs.clear();
        self.runs.resize(cols * rows, (0, 0));
        for &p in positions {
            self.runs[index(cell_of(p))].1 += 1;
        }
        let mut start = 0;
        for run in &mut self.runs {
            let count = run.1;
            *run = (start, start);
            start += count;
        }
        self.order.clear();
        self.order.resize(n, 0);
        for (v, &p) in positions.iter().enumerate() {
            let run = &mut self.runs[index(cell_of(p))];
            self.order[run.1] = v as u32;
            run.1 += 1;
        }
        let CellFill { order, runs, stack } = self;
        // A station is reached by swapping it to the front of its cell's
        // unreached run and moving the run's start past it.
        let home = &mut runs[index(cell_of(positions[0]))];
        let at = (home.0..home.1).find(|&i| order[i] == 0).expect("station 0 is in its cell");
        order.swap(at, home.0);
        home.0 += 1;
        stack.clear();
        stack.reserve(n);
        stack.push(0);
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            if reached == n {
                break;
            }
            let (u, (col, row)) = (u as usize, cell_of(positions[u as usize]));
            for r in row.saturating_sub(1)..=(row + 1).min(rows - 1) {
                for c in col.saturating_sub(1)..=(col + 1).min(cols - 1) {
                    let run = &mut runs[index((c, r))];
                    for i in run.0..run.1 {
                        let v = order[i] as usize;
                        // NaN fails the comparison and is evaluated, as in
                        // the graph build.
                        if distance_sq(positions[u], positions[v]) > far_sq || !usable(u, v) {
                            continue;
                        }
                        order.swap(i, run.0);
                        run.0 += 1;
                        stack.push(v as u32);
                        reached += 1;
                    }
                }
            }
        }
        reached == n
    }
}

/// Min-ETX routes over a placement whose links are evaluated on first use:
/// what a route schedule runs at each refresh instant, and a generated
/// scenario routes its flows with, instead of building a [`LinkGraph`]; and
/// whether a placement is connected ([`PlacementSearch::connected`]).
///
/// [`PlacementSearch::shortest_path`] is the module's one search (A*) with
/// h(v) = κ·|v − dst| and a per-link lower bound read from a table indexed
/// by squared distance: it evaluates a link only when the bound says the
/// link could shorten a path, and each link at most once per placement. It
/// returns exactly the path [`LinkGraph::shortest_path`] returns over the
/// same model and placement (pinned by this module's tests).
/// [`PlacementSearch::reroute`] returns the same path from a known walk
/// between the same stations, whose ETX also bounds the search from above.
/// On `perfbench`'s drifting 196-station meshes, re-routing each flow from
/// its route of the instant before evaluates about 230 pairs per refresh
/// instant (2 700 without the walk) where the graph build evaluates about
/// 7 500, and settles about 34 stations per search where Dijkstra settles
/// 165.
///
/// The buffers (per-station state and the memo's rows) are kept between
/// placements, so a schedule allocates them once.
///
/// # Example
///
/// ```
/// use wmn_phy::{LinkModel, Position};
/// use wmn_routing::{LinkGraph, PlacementSearch};
/// use wmn_sim::NodeId;
///
/// let model = LinkModel::paper();
/// let line: Vec<Position> = (0..6).map(|i| Position::new(5.0 * i as f64, 0.0)).collect();
/// let mut search = PlacementSearch::new(&model).expect("the paper's model has a cut");
/// assert!(search.place(&line));
/// let (src, dst) = (NodeId::new(0), NodeId::new(5));
/// let eager = LinkGraph::from_placement(&model, &line).shortest_path(src, dst);
/// assert_eq!(search.shortest_path(src, dst), eager);
/// // From the direct link, which at 25 m is unusable (no bound): the same.
/// assert_eq!(search.reroute(&[src, dst]), eager);
/// ```
#[derive(Debug)]
pub struct PlacementSearch {
    model: LinkModel,
    bounds: Arc<LinkBounds>,
    positions: Vec<Position>,
    memo: LinkMemo,
    near: Vec<u32>,
    state: SearchState,
    fill: CellFill,
}

impl PlacementSearch {
    /// A search over `model`'s links, or `None` when `model` has a
    /// non-finite field or no finite routing cut (σ, β or the reference
    /// distance not positive): its links cannot be bounded by distance, and
    /// [`LinkGraph::try_from_placement`] is the way to route over it. The
    /// bound table is computed once per model and shared.
    pub fn new(model: &LinkModel) -> Option<PlacementSearch> {
        Some(PlacementSearch {
            model: *model,
            bounds: LinkBounds::shared(model)?,
            positions: Vec::new(),
            memo: LinkMemo::default(),
            near: Vec::new(),
            state: SearchState::default(),
            fill: CellFill::default(),
        })
    }

    /// Whether stations at `positions` form one network over usable links:
    /// at least one station, and every one reaches station 0. Exactly
    /// whether [`LinkGraph::from_placement`]'s graph of them is connected,
    /// by construction, without building it: a flood fill from station 0
    /// over a grid of cells one cut radius wide, which scans only the
    /// unreached stations of a reached station's 3×3 cells and evaluates
    /// (counted as [`Work::LinkEvaluations`]) only the pairs among them
    /// inside the cut, where the graph build evaluates every pair inside
    /// it; a pair past the cut is unusable for both. On the 1 024-station
    /// campus preset that is 1 061 evaluations against the build's
    /// 112 154. The bounded model gives every pair a finite probability, so
    /// the order of evaluation cannot change the verdict. A non-finite
    /// coordinate puts every station in one cell and leaves the pair tests
    /// to decide, as the build does. The placed stations and their links
    /// are left as they were.
    pub fn connected(&mut self, positions: &[Position]) -> bool {
        let radius = hopeless_radius(&self.model);
        let model = &self.model;
        let mut evaluated = 0;
        let spans =
            self.fill.spans(positions, radius * (1.0 + CELL_GUARD), radius * radius, |u, v| {
                evaluated += 1;
                let (a, b) = (positions[u.min(v)], positions[u.max(v)]);
                distance_etx(model, a.distance_to(b))
                    .expect("a bounded model gives every pair a finite probability")
                    .is_some()
            });
        count_work(Work::LinkEvaluations, evaluated);
        spans
    }

    /// Moves the search to stations at `positions`, forgetting every link
    /// of the last placement. Returns `false`, placing nothing, if a
    /// coordinate is not finite (no distance bound holds for it).
    pub fn place(&mut self, positions: &[Position]) -> bool {
        if !positions.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
            return false;
        }
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.memo.clear(positions.len());
        true
    }

    /// The minimum-ETX path from `src` to `dst` over the placed stations,
    /// inclusive of both, or `None` if no usable path exists: exactly
    /// [`LinkGraph::shortest_path`]'s. Each link it evaluates is counted as
    /// [`Work::LinkEvaluations`], and each station it settles as
    /// [`Work::RouteSettles`].
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a placed station.
    pub fn shortest_path(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.bounded(src, dst, None)
    }

    /// [`PlacementSearch::shortest_path`] between the two ends of
    /// `current`, a walk over the placed stations (a flow's route before
    /// the stations moved): the same path, found faster while `current` is
    /// still short. Its ETX over the placement bounds the search from
    /// above, so a link is evaluated only if a path through it could come
    /// in under that too: on `perfbench`'s drifting meshes, 228 links per
    /// refresh instant instead of 2 687.
    ///
    /// # Panics
    ///
    /// Panics if `current` is empty or names a station not placed.
    pub fn reroute(&mut self, current: &[NodeId]) -> Option<Vec<NodeId>> {
        let (src, dst) = (current[0], *current.last().expect("a walk has stations"));
        self.bounded(src, dst, Some(current))
    }

    /// The search from `src` to `dst`, bounded by the ETX of `walk`, if
    /// one is given.
    fn bounded(
        &mut self,
        src: NodeId,
        dst: NodeId,
        walk: Option<&[NodeId]>,
    ) -> Option<Vec<NodeId>> {
        let mut links = Lazy {
            model: &self.model,
            bounds: &self.bounds,
            positions: &self.positions,
            memo: &mut self.memo,
            near: &mut self.near,
            target: self.positions[dst.index()],
            within: f64::INFINITY,
        };
        links.within = walk.map_or(f64::INFINITY, |walk| links.walk_etx(walk));
        let path = search(&mut links, &mut self.state, src, dst);
        count_work(Work::LinkEvaluations, std::mem::take(&mut self.memo.evaluated));
        path
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

    /// Every `(src, dst)` route of a [`PlacementSearch`] over `positions`,
    /// `src == dst` and unreachable pairs included, against the dense
    /// oracle and the eager graph, through one search that keeps its memo
    /// between the pairs as a schedule's instant does; and
    /// [`PlacementSearch::reroute`] from three walks between the pair: the
    /// least path itself (the tightest bound), one through a third station
    /// (often over an unusable link), and one that stays put a step. A
    /// model the search cannot bound has none, which is asserted to be the
    /// case.
    fn assert_search_matches(model: &LinkModel, positions: &[Position], context: &str) {
        let Some(mut search) = PlacementSearch::new(model) else {
            assert!(LinkBounds::of(model).is_none(), "{context}: a search for a bounded model");
            return;
        };
        let dense = DenseGraph::from_placement(model, positions);
        let eager = LinkGraph::from_placement(model, positions);
        assert!(search.place(positions), "{context}: finite positions");
        let n = positions.len();
        for a in 0..n {
            for b in 0..n {
                let (na, nb) = (NodeId::new(a as u32), NodeId::new(b as u32));
                let want = dense.shortest_path(na, nb);
                assert_eq!(eager.shortest_path(na, nb), want, "{context}: eager {a}->{b}");
                assert_eq!(search.shortest_path(na, nb), want, "{context}: lazy {a}->{b}");
                let via = NodeId::new(((a + b + 1) % n) as u32);
                let walks =
                    [want.clone().unwrap_or(vec![na, nb]), vec![na, via, nb], vec![na, na, nb]];
                for walk in walks {
                    assert_eq!(search.reroute(&walk), want, "{context}: from {walk:?}");
                }
            }
        }
    }

    /// A `cols` × `rows` grid at `spacing` metres, row by row.
    fn grid(cols: usize, rows: usize, spacing: f64) -> Vec<Position> {
        (0..cols * rows)
            .map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
            .collect()
    }

    #[test]
    fn lower_bounds_hold_over_each_bin() {
        // The three facts of `LinkBounds`, scanned: 33 squared distances per
        // bin, both edges included, under five models (σ from 8 dB down to
        // 0.5, where short links reach p = 1 and ETX exactly 1).
        let models = [
            LinkModel::paper(),
            LinkModel { sigma_db: 0.5, ..LinkModel::paper() },
            LinkModel { sigma_db: 3.0, rx_thresh_dbm: -80.0, ..LinkModel::paper() },
            LinkModel { path_loss_exponent: 2.0, ..LinkModel::paper() },
            LinkModel { path_loss_exponent: 3.5, sigma_db: 12.0, ..LinkModel::paper() },
        ];
        for model in models {
            let bounds = LinkBounds::of(&model).expect("a bounded model");
            assert!(bounds.kappa > 0.0, "{model:?}: some link is usable");
            let width = 1.0 / bounds.per_sq;
            let mut usable = 0;
            for k in 0..=BOUND_BINS {
                for j in 0..=32 {
                    // A station at (d, 0), its squared distance as the
                    // search computes it.
                    let d = ((k as f64 + f64::from(j) / 32.0) * width).sqrt();
                    let d2 = distance_sq(Position::new(0.0, 0.0), Position::new(d, 0.0));
                    let lb = bounds.lower(d2);
                    let etx = distance_etx(&model, d).expect("finite").unwrap_or(f64::INFINITY);
                    assert!(lb <= etx, "{model:?}: bound {lb} over ETX {etx} at {d} m");
                    if etx.is_finite() {
                        usable += 1;
                        assert!(etx >= 1.0, "{model:?}: ETX {etx} at {d} m");
                        let slack = 1.0 - CONSISTENCY_SLACK;
                        assert!(
                            bounds.kappa * d <= slack * lb * (1.0 + 1e-12),
                            "{model:?}: κ·d = {} over the bound {lb} at {d} m",
                            bounds.kappa * d
                        );
                    }
                }
            }
            assert!(usable > 1000, "{model:?}: {usable} usable samples");
            assert_eq!(bounds.lower(f64::INFINITY), f64::INFINITY, "past the cut");
        }
        // No bounds, hence no search, without a finite cut or with a
        // non-finite field.
        for sigma_db in [0.0, -0.0, -8.0, f64::NAN, f64::INFINITY] {
            let model = LinkModel { sigma_db, ..LinkModel::paper() };
            assert!(PlacementSearch::new(&model).is_none(), "σ = {sigma_db}");
        }
        let model = LinkModel { path_loss_exponent: f64::INFINITY, ..LinkModel::paper() };
        assert!(PlacementSearch::new(&model).is_none(), "β = ∞");
    }

    #[test]
    fn a_placement_s_links_are_evaluated_once() {
        // Memoised for the placement: the same searches again evaluate
        // nothing, and a new placement forgets every link.
        let model = LinkModel::paper();
        let positions = grid(8, 8, 5.0);
        let pairs = [(0, 63), (7, 56), (3, 60)].map(|(a, b)| (NodeId::new(a), NodeId::new(b)));
        let round = |search: &mut PlacementSearch| {
            let (evaluated, settled) = (evaluations(), settles());
            let paths: Vec<_> = pairs.iter().map(|&(a, b)| search.shortest_path(a, b)).collect();
            (paths, evaluations() - evaluated, settles() - settled)
        };
        let mut search = PlacementSearch::new(&model).expect("bounded");
        assert!(search.place(&positions));
        let (paths, first, settled) = round(&mut search);
        assert!(paths.iter().all(Option::is_some) && first > 0 && settled > 0);
        assert_eq!(round(&mut search), (paths.clone(), 0, settled), "nothing evaluated again");
        assert!(search.place(&positions));
        assert_eq!(round(&mut search), (paths, first, settled), "a new placement");
        // The graph build evaluates every pair inside the cut.
        let before = evaluations();
        let _ = LinkGraph::from_placement(&model, &positions);
        let built = evaluations() - before;
        assert!(2 * first < built, "{first} evaluations, {built} for the graph");
    }

    /// Whether `graph` has a station and every station reaches station 0:
    /// the verdict [`PlacementSearch::connected`] must give.
    fn graph_spans(graph: &LinkGraph) -> bool {
        let n = graph.node_count();
        let mut seen = vec![false; n];
        let mut stack = Vec::from_iter((n > 0).then_some(0));
        while let Some(u) = stack.pop() {
            if !std::mem::replace(&mut seen[u], true) {
                stack.extend(
                    graph.neighbours(NodeId::new(u as u32)).iter().map(|&(v, _)| v.index()),
                );
            }
        }
        n > 0 && seen.iter().all(|&s| s)
    }

    /// The flood fill's verdict against the built graph's, and the links it
    /// evaluated.
    fn assert_connected_matches(model: &LinkModel, positions: &[Position], context: &str) -> u64 {
        let want = graph_spans(&LinkGraph::from_placement(model, positions));
        let mut search = PlacementSearch::new(model).expect("a bounded model");
        let before = evaluations();
        assert_eq!(search.connected(positions), want, "{context}: {positions:?}");
        evaluations() - before
    }

    #[test]
    fn the_flood_fill_evaluates_a_link_only_to_an_unreached_station() {
        // 1 024 stations on a 2 m grid: the graph build evaluates every pair
        // inside the cut, the flood fill at least one link per station it
        // reaches and, here, under a tenth of the build's.
        let model = LinkModel::paper();
        let positions = grid(32, 32, 2.0);
        let evaluated = assert_connected_matches(&model, &positions, "32x32 @ 2 m");
        let before = evaluations();
        let _ = LinkGraph::from_placement(&model, &positions);
        let built = evaluations() - before;
        assert!((1023..built / 10).contains(&evaluated), "{evaluated} evaluations, {built} built");
        // Cut in two by a 30 m gap: every station of the first half is
        // reached, and no link across the gap is evaluated.
        let mut split = grid(8, 8, 2.0);
        split.extend(grid(8, 8, 2.0).iter().map(|p| Position::new(p.x + 44.0, p.y)));
        let evaluated = assert_connected_matches(&model, &split, "split");
        assert!((63..400).contains(&evaluated), "{evaluated} evaluations");
    }

    #[test]
    fn a_sparse_placement_gets_a_grid_sized_by_its_stations() {
        // Extents of 1e300 m and past f64's range (±1e308 overflows the
        // extent to infinity) must neither size the grid nor overflow a
        // cell index; the verdict is still the graph's.
        let model = LinkModel::paper();
        let cases = [
            vec![Position::new(0.0, 0.0), Position::new(1e300, 0.0), Position::new(0.0, 1e300)],
            vec![Position::new(-1e308, -1e308), Position::new(1e308, 1e308)],
            vec![Position::new(-1e308, 0.0), Position::new(-1e308, 5.0), Position::new(1e308, 0.0)],
            vec![Position::new(1e300, 1e300), Position::new(1e300, 1e300 + 5e284)],
            vec![Position::new(f64::MAX, 0.0), Position::new(f64::MAX, 3.0)],
        ];
        for positions in cases {
            assert_connected_matches(&model, &positions, "sparse");
            let mut search = PlacementSearch::new(&model).expect("bounded");
            search.connected(&positions);
            let cells = search.fill.runs.len();
            assert!(cells <= 9, "{cells} cells for {} stations", positions.len());
        }
    }

    #[test]
    fn a_non_finite_coordinate_keeps_the_graph_s_verdict() {
        // A NaN distance is read at the reference distance (a strong link),
        // an infinite one is past the cut: whatever the graph makes of them,
        // the flood fill must too.
        let model = LinkModel::paper();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for odd in [
            Position::new(nan, 0.0),
            Position::new(0.0, nan),
            Position::new(inf, 0.0),
            Position::new(-inf, inf),
            Position::new(nan, inf),
        ] {
            for at in 0..3 {
                let mut positions = vec![Position::new(0.0, 0.0), Position::new(100.0, 0.0)];
                positions.insert(at, odd);
                assert_connected_matches(&model, &positions, "one odd station");
                positions.push(odd);
                assert_connected_matches(&model, &positions, "two odd stations");
            }
            assert_connected_matches(&model, &[odd], "alone");
        }
    }

    #[test]
    fn a_non_finite_coordinate_places_nothing() {
        let mut search = PlacementSearch::new(&LinkModel::paper()).expect("bounded");
        let mut positions = line(3, 5.0);
        assert!(search.place(&positions));
        positions[1].y = f64::NAN;
        assert!(!search.place(&positions));
        positions[1].y = f64::INFINITY;
        assert!(!search.place(&positions));
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

    /// This thread's settled stations so far ([`Work::RouteSettles`]).
    fn settles() -> u64 {
        wmn_alloc::work_totals()[Work::RouteSettles as usize]
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
        // A probability above 1 would give the link an ETX below 1; one
        // below 0 is no probability either. 0 and 1 themselves are fine.
        for value in [1.0 + 1e-12, 2.0, -1e-12, -0.5] {
            let err = LinkGraph::from_matrix(vec![vec![0.0, 0.5], vec![value, 0.0]]).unwrap_err();
            let (from, to) = (NodeId::new(1), NodeId::new(0));
            assert_eq!(err, EtxError::NotAProbability { from, to, value });
            assert!(err.to_string().contains("outside [0, 1]"), "display names the failure: {err}");
        }
        let g = LinkGraph::from_matrix(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).expect("p = 1");
        assert_eq!(g.link_etx(NodeId::new(0), NodeId::new(1)), 1.0);
        assert!(LinkGraph::from_matrix(vec![vec![0.0, 0.0], vec![0.0, 0.0]]).is_ok());
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
            let positions = grid(cols, rows, spacing);
            let model = LinkModel::paper();
            let dense = DenseGraph::from_placement(&model, &positions);
            let context = format!("grid {cols}x{rows} @ {spacing} m");
            assert_matches_dense(&LinkGraph::from_placement(&model, &positions), &dense, &context);
            assert_search_matches(&model, &positions, &context);
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
            assert_search_matches(&model, &positions, "placed");
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
                (Ok(()), Ok(g)) => {
                    assert_matches_dense(&g, &dense, &context);
                    assert_search_matches(&model, &positions, &context);
                }
                (Err(want), Err(got)) => {
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", context);
                }
                (want, got) => panic!("{context}: oracle {want:?}, cut build {got:?}"),
            }
        }

        /// The flood fill's verdict against the built graph's, under four
        /// bounded models, on three kinds of placement: uniform over a side
        /// from 5 to 200 m (0 to 40 stations: empty, lone and pairs
        /// included); clusters; and chains whose every link sits on the
        /// edge of a decision — the floor radius, the cut radius ± 1e-9 m,
        /// coincident, or a random short or long hop — grown from random
        /// earlier stations at random headings, shifted far from the origin.
        #[test]
        fn prop_flood_fill_matches_the_graph_s_verdict(
            kind in 0usize..3,
            model in 0usize..4,
            stations in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..8), 0..40),
            side in 5.0f64..200.0,
        ) {
            let model = [
                LinkModel::paper(),
                LinkModel { sigma_db: 0.5, ..LinkModel::paper() },
                LinkModel { sigma_db: 3.0, rx_thresh_dbm: -80.0, ..LinkModel::paper() },
                LinkModel { path_loss_exponent: 2.0, ..LinkModel::paper() },
            ][model];
            let floor = model.radius_at(model.rx_thresh_dbm, -1.6448536269514722);
            let cut = hopeless_radius(&model);
            let positions: Vec<Position> = match kind {
                0 => stations.iter().map(|&(x, y, _)| Position::new(x * side, y * side)).collect(),
                1 => stations
                    .iter()
                    .map(|&(x, y, k)| {
                        let centre = stations[k % stations.len()];
                        let (cx, cy) = (centre.0 * side, centre.1 * side);
                        Position::new(cx + 6.0 * x - 3.0, cy + 6.0 * y - 3.0)
                    })
                    .collect(),
                _ => {
                    let mut chain = Vec::with_capacity(stations.len());
                    for (i, &(from, heading, hop)) in stations.iter().enumerate() {
                        let d = [floor, cut - 1e-9, cut, cut + 1e-9, 0.0, 0.3 * floor, 2.5 * cut, floor * 0.5][hop];
                        let angle = std::f64::consts::TAU * heading;
                        chain.push(match chain.get((from * i as f64) as usize) {
                            None => Position::new(1e4 + side, -3e3),
                            Some(&Position { x, y }) => Position::new(x + d * angle.cos(), y + d * angle.sin()),
                        });
                    }
                    chain
                }
            };
            assert_connected_matches(&model, &positions, &format!("kind {kind}, σ {}", model.sigma_db));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The lazy search against Dijkstra's path (the dense oracle and
        /// the eager graph) where ties and pruning are hardest: grids at
        /// pitches whose links tie exactly, some stations drifting off the
        /// lattice over four instants of one search's life; random meshes
        /// as dense as `perfbench`'s and sparse enough to partition; and
        /// link models from σ = 8 down to σ = 0.5, where the shortest links
        /// reach ETX exactly 1 and tie their lower bound. σ = 0 has no
        /// search ([`PlacementSearch::new`]).
        #[test]
        fn prop_lazy_search_is_dijkstra_on_drifting_meshes(
            layout in (0usize..2, 2usize..7, 2usize..6, 5u32..60),
            drifts in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4..40),
            model in (0usize..4, 0usize..2),
        ) {
            const SIGMAS: [f64; 4] = [8.0, 3.0, 0.5, 0.0];
            let (kind, cols, rows, scale) = layout;
            let (sigma, beta) = model;
            let model = LinkModel {
                sigma_db: SIGMAS[sigma],
                path_loss_exponent: [5.0, 3.0][beta],
                ..LinkModel::paper()
            };
            let mut positions = match kind {
                // Pitch 0.5 to 6 m.
                0 => grid(cols, rows, f64::from(scale) / 10.0),
                // Up to 30 stations over a side of 1.7 to 20 m per ten.
                _ => drifts
                    .iter()
                    .cycle()
                    .take(cols * rows)
                    .enumerate()
                    .map(|(i, &(x, y))| {
                        let side = f64::from(scale) / 3.0 * (cols * rows) as f64 / 10.0;
                        let jitter = (i as f64 * 0.618_034).fract();
                        Position::new((x + jitter).fract() * side, (y + 0.5 * jitter).fract() * side)
                    })
                    .collect(),
            };
            for instant in 0..4 {
                let context = format!("layout {kind} {cols}x{rows}/{scale} σ {} instant {instant}",
                    model.sigma_db);
                assert_search_matches(&model, &positions, &context);
                // A quarter of the stations (every fourth, phase by
                // instant) drift by up to 3 m along their own heading.
                for (i, (position, &(dx, dy))) in
                    positions.iter_mut().zip(drifts.iter().cycle()).enumerate()
                {
                    if i % 4 == instant % 4 {
                        position.x += 6.0 * dx - 3.0;
                        position.y += 6.0 * dy - 3.0;
                    }
                }
            }
        }
    }
}
