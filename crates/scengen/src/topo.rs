//! Seeded procedural topology generators.
//!
//! Each [`TopologySpec`] is a small parameter record that deterministically
//! expands into a [`wmn_topology::Topology`] for a given seed: all
//! randomness comes from [`StreamRng`] streams derived from the seed and the
//! `SCENGEN_*` rows of [`wmn_sim::labels`], so the same spec and seed always
//! place the same stations, on any host and in any worker.
//!
//! The generated placements obey the NodeId contract of `wmn_topology`
//! (dense ids, node `i` at `positions[i]`) by construction, and the two
//! stochastic families ([`TopologySpec::RandomGeometric`],
//! [`TopologySpec::Campus`]) regenerate deterministically until the
//! placement is radio-connected, so every emitted topology can actually
//! route traffic.

use wmn_phy::{LinkModel, Position};
use wmn_routing::PlacementSearch;
use wmn_sim::labels::{self, Family};
use wmn_sim::{RngDirectory, StreamRng};
use wmn_topology::Topology;

use crate::json::Value;

/// Attempts the stochastic generators make before giving up on producing a
/// connected placement. Each attempt derives a fresh stream, so the loop is
/// deterministic per `(spec, seed)`.
const CONNECT_ATTEMPTS: u32 = 64;

/// The most stations a spec may ask for: every one needs a `NodeId(u32)`.
const MAX_STATIONS: u64 = 1 << 32;

/// A procedural topology family plus its knobs.
///
/// The four families cover the structural regimes the paper's hand-placed
/// topologies sample: uniform random meshes (density/area knobs), regular
/// grids, clustered "campus" deployments (dense islands, sparse bridges),
/// and noisy line chains.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// `nodes` stations uniform in a `side_m × side_m` square, regenerated
    /// until radio-connected.
    RandomGeometric {
        /// Station count.
        nodes: usize,
        /// Side of the square deployment area, metres.
        side_m: f64,
    },
    /// A `cols × rows` lattice with `spacing_m` metres between neighbours.
    Grid {
        /// Stations per row.
        cols: usize,
        /// Number of rows.
        rows: usize,
        /// Lattice constant, metres.
        spacing_m: f64,
    },
    /// `clusters` cluster centres uniform in a `side_m × side_m` square,
    /// each with `nodes_per_cluster` stations normally scattered
    /// (`cluster_radius_m` standard deviation) around it; regenerated until
    /// radio-connected.
    Campus {
        /// Number of clusters ("buildings").
        clusters: usize,
        /// Stations per cluster.
        nodes_per_cluster: usize,
        /// Standard deviation of the in-cluster scatter, metres.
        cluster_radius_m: f64,
        /// Side of the campus square, metres.
        side_m: f64,
    },
    /// A line of `nodes` stations `spacing_m` apart, each perturbed by a
    /// normal jitter with standard deviation `jitter_m` in both axes.
    PerturbedLine {
        /// Station count.
        nodes: usize,
        /// Nominal spacing along the line, metres.
        spacing_m: f64,
        /// Jitter standard deviation, metres.
        jitter_m: f64,
    },
}

impl TopologySpec {
    /// The family name used in JSON specs and generated scenario names.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::RandomGeometric { .. } => "random-geometric",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Campus { .. } => "campus",
            TopologySpec::PerturbedLine { .. } => "perturbed-line",
        }
    }

    /// Station count the spec will generate (saturating at `usize::MAX`
    /// for a product of knobs that overflows, which [`TopologySpec::check`]
    /// rejects).
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::RandomGeometric { nodes, .. } => nodes,
            TopologySpec::Grid { cols, rows, .. } => cols.saturating_mul(rows),
            TopologySpec::Campus { clusters, nodes_per_cluster, .. } => {
                clusters.saturating_mul(nodes_per_cluster)
            }
            TopologySpec::PerturbedLine { nodes, .. } => nodes,
        }
    }

    /// A short id-friendly slug, e.g. `rgg12`, `grid4x3`, `campus3x6`,
    /// `line6`.
    pub fn slug(&self) -> String {
        match *self {
            TopologySpec::RandomGeometric { nodes, .. } => format!("rgg{nodes}"),
            TopologySpec::Grid { cols, rows, .. } => format!("grid{cols}x{rows}"),
            TopologySpec::Campus { clusters, nodes_per_cluster, .. } => {
                format!("campus{clusters}x{nodes_per_cluster}")
            }
            TopologySpec::PerturbedLine { nodes, .. } => format!("line{nodes}"),
        }
    }

    /// Basic sanity of the knobs (positive sizes, at least two stations, no
    /// more than `NodeId` can number).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn check(&self) -> Result<(), String> {
        let n = self.node_count();
        if n < 2 {
            return Err(format!("{}: needs at least two stations", self.kind()));
        }
        if n as u64 > MAX_STATIONS {
            let knobs = match *self {
                TopologySpec::Grid { cols, rows, .. } => format!("cols × rows = {cols} × {rows}"),
                TopologySpec::Campus { clusters, nodes_per_cluster, .. } => {
                    format!("clusters × nodes_per_cluster = {clusters} × {nodes_per_cluster}")
                }
                TopologySpec::RandomGeometric { nodes, .. }
                | TopologySpec::PerturbedLine { nodes, .. } => format!("nodes = {nodes}"),
            };
            return Err(format!(
                "{}: {knobs} exceeds the {MAX_STATIONS} stations a NodeId can number",
                self.kind()
            ));
        }
        let positive = |value: f64, what: &str| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("{}: {what} must be positive, got {value}", self.kind()))
            }
        };
        match *self {
            TopologySpec::RandomGeometric { side_m, .. } => positive(side_m, "side_m"),
            TopologySpec::Grid { spacing_m, .. } => positive(spacing_m, "spacing_m"),
            TopologySpec::Campus { cluster_radius_m, side_m, .. } => {
                positive(cluster_radius_m, "cluster_radius_m")?;
                positive(side_m, "side_m")
            }
            TopologySpec::PerturbedLine { spacing_m, jitter_m, .. } => {
                positive(spacing_m, "spacing_m")?;
                if jitter_m.is_finite() && jitter_m >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("perturbed-line: jitter_m must be >= 0, got {jitter_m}"))
                }
            }
        }
    }

    /// Generates the placement for `seed`. Deterministic: the same spec and
    /// seed yield byte-identical positions.
    ///
    /// # Errors
    ///
    /// Fails if the knobs are invalid ([`TopologySpec::check`]) or if a
    /// stochastic family reaches no connected placement within its attempt
    /// budget (density far below the connectivity threshold).
    pub fn try_generate(&self, seed: u64) -> Result<Topology, String> {
        self.check().map_err(|msg| format!("invalid topology spec: {msg}"))?;
        let name = format!("{}-s{seed}", self.slug());
        let dir = RngDirectory::new(seed);
        let positions = match *self {
            TopologySpec::Grid { cols, rows, spacing_m } => (0..rows)
                .flat_map(|r| {
                    (0..cols)
                        .map(move |c| Position::new(c as f64 * spacing_m, r as f64 * spacing_m))
                })
                .collect(),
            TopologySpec::PerturbedLine { nodes, spacing_m, jitter_m } => {
                let mut rng = dir.stream(labels::SCENGEN_LINE);
                (0..nodes)
                    .map(|i| {
                        Position::new(
                            i as f64 * spacing_m + jitter_m * rng.standard_normal(),
                            jitter_m * rng.standard_normal(),
                        )
                    })
                    .collect()
            }
            TopologySpec::RandomGeometric { nodes, side_m } => {
                connected_placement(dir, labels::SCENGEN_RGG_ATTEMPT, self, |rng| {
                    (0..nodes)
                        .map(|_| Position::new(rng.uniform() * side_m, rng.uniform() * side_m))
                        .collect()
                })?
            }
            TopologySpec::Campus { clusters, nodes_per_cluster, cluster_radius_m, side_m } => {
                connected_placement(dir, labels::SCENGEN_CAMPUS_ATTEMPT, self, |rng| {
                    let mut positions = Vec::with_capacity(self.node_count());
                    for _ in 0..clusters {
                        let cx = rng.uniform() * side_m;
                        let cy = rng.uniform() * side_m;
                        for _ in 0..nodes_per_cluster {
                            positions.push(Position::new(
                                cx + cluster_radius_m * rng.standard_normal(),
                                cy + cluster_radius_m * rng.standard_normal(),
                            ));
                        }
                    }
                    positions
                })?
            }
        };
        Ok(Topology::new(name, positions))
    }

    /// Serialises the spec as a JSON object (`kind` plus the family knobs).
    pub fn to_json(&self) -> Value {
        let obj = Value::obj().with("kind", self.kind());
        match *self {
            TopologySpec::RandomGeometric { nodes, side_m } => {
                obj.with("nodes", nodes).with("side_m", side_m)
            }
            TopologySpec::Grid { cols, rows, spacing_m } => {
                obj.with("cols", cols).with("rows", rows).with("spacing_m", spacing_m)
            }
            TopologySpec::Campus { clusters, nodes_per_cluster, cluster_radius_m, side_m } => obj
                .with("clusters", clusters)
                .with("nodes_per_cluster", nodes_per_cluster)
                .with("cluster_radius_m", cluster_radius_m)
                .with("side_m", side_m),
            TopologySpec::PerturbedLine { nodes, spacing_m, jitter_m } => {
                obj.with("nodes", nodes).with("spacing_m", spacing_m).with("jitter_m", jitter_m)
            }
        }
    }

    /// Decodes a spec from the [`TopologySpec::to_json`] shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/invalid field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let kind = crate::spec::req_str(value, "kind", "topology")?;
        Ok(match kind {
            "random-geometric" => TopologySpec::RandomGeometric {
                nodes: crate::spec::req_usize(value, "nodes", "topology")?,
                side_m: crate::spec::req_f64(value, "side_m", "topology")?,
            },
            "grid" => TopologySpec::Grid {
                cols: crate::spec::req_usize(value, "cols", "topology")?,
                rows: crate::spec::req_usize(value, "rows", "topology")?,
                spacing_m: crate::spec::req_f64(value, "spacing_m", "topology")?,
            },
            "campus" => TopologySpec::Campus {
                clusters: crate::spec::req_usize(value, "clusters", "topology")?,
                nodes_per_cluster: crate::spec::req_usize(value, "nodes_per_cluster", "topology")?,
                cluster_radius_m: crate::spec::req_f64(value, "cluster_radius_m", "topology")?,
                side_m: crate::spec::req_f64(value, "side_m", "topology")?,
            },
            "perturbed-line" => TopologySpec::PerturbedLine {
                nodes: crate::spec::req_usize(value, "nodes", "topology")?,
                spacing_m: crate::spec::req_f64(value, "spacing_m", "topology")?,
                jitter_m: crate::spec::req_f64(value, "jitter_m", "topology")?,
            },
            other => {
                return Err(format!(
                    "topology kind must be one of \"random-geometric\", \"grid\", \"campus\", \
                     \"perturbed-line\", got {other:?}"
                ))
            }
        })
    }
}

/// Runs `place` with per-attempt RNG streams until the placement is
/// radio-connected (see [`is_connected`]), and returns it. Deterministic per
/// `(seed, attempts)`.
fn connected_placement(
    dir: RngDirectory,
    attempts: Family,
    spec: &TopologySpec,
    mut place: impl FnMut(&mut StreamRng) -> Vec<Position>,
) -> Result<Vec<Position>, String> {
    let mut search = paper_search();
    for attempt in 0..CONNECT_ATTEMPTS {
        let positions = place(&mut dir.indexed_stream(attempts, attempt));
        if search.connected(&positions) {
            return Ok(positions);
        }
    }
    Err(format!(
        "topology spec {spec:?} produced no connected placement in {CONNECT_ATTEMPTS} attempts \
         (seed {}) — raise the density (more nodes or a smaller area)",
        dir.master_seed()
    ))
}

/// Whether every station can reach every other over usable links (finite
/// ETX in both directions under [`LinkModel::paper`] — connectivity is a
/// property of the placement geometry, so the paper's link model is used
/// whatever a scenario later sets).
///
/// Builds no link graph: [`PlacementSearch::connected`] flood-fills a grid
/// of cells one routing-cut radius wide, evaluating a link only to a
/// station not yet reached, and gives the built graph's verdict.
pub fn is_connected(positions: &[Position]) -> bool {
    paper_search().connected(positions)
}

/// A search over [`LinkModel::paper`], the model connectivity is judged
/// under.
fn paper_search() -> PlacementSearch {
    PlacementSearch::new(&LinkModel::paper()).expect("the paper's model has a routing cut")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_sim::NodeId;

    #[test]
    fn grid_places_a_lattice() {
        let spec = TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 };
        let t = spec.try_generate(1).unwrap();
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.name, "grid4x3-s1");
        // Node i sits at (col*5, row*5) — dense ids, row-major.
        assert!((t.distance(NodeId::new(0), NodeId::new(1)) - 5.0).abs() < 1e-12);
        assert!((t.distance(NodeId::new(0), NodeId::new(4)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for spec in [
            TopologySpec::RandomGeometric { nodes: 10, side_m: 25.0 },
            TopologySpec::Campus {
                clusters: 2,
                nodes_per_cluster: 4,
                cluster_radius_m: 4.0,
                side_m: 20.0,
            },
            TopologySpec::PerturbedLine { nodes: 5, spacing_m: 5.0, jitter_m: 1.0 },
        ] {
            let a = spec.try_generate(7).unwrap();
            let b = spec.try_generate(7).unwrap();
            assert_eq!(a.positions, b.positions, "{spec:?} must be deterministic");
            let c = spec.try_generate(8).unwrap();
            assert_ne!(a.positions, c.positions, "{spec:?} must vary with the seed");
        }
    }

    #[test]
    fn stochastic_families_come_out_connected() {
        let rgg = TopologySpec::RandomGeometric { nodes: 12, side_m: 30.0 };
        let campus = TopologySpec::Campus {
            clusters: 3,
            nodes_per_cluster: 4,
            cluster_radius_m: 5.0,
            side_m: 30.0,
        };
        for seed in 0..8 {
            assert!(is_connected(&rgg.try_generate(seed).unwrap().positions), "rgg seed {seed}");
            assert!(
                is_connected(&campus.try_generate(seed).unwrap().positions),
                "campus seed {seed}"
            );
        }
    }

    #[test]
    fn a_sparse_placement_is_unconnected_not_a_giant_grid() {
        // Three stations over a 1e300 m square: the connectivity check's
        // grid is sized by the stations, not the extent, and no attempt
        // connects them.
        let spec = TopologySpec::RandomGeometric { nodes: 3, side_m: 1e300 };
        let msg = spec.try_generate(1).unwrap_err();
        assert!(msg.contains("produced no connected placement in 64 attempts"), "{msg}");
        let far = [Position::new(0.0, 0.0), Position::new(1e300, 0.0), Position::new(0.0, 5.0)];
        assert!(!is_connected(&far));
        assert!(is_connected(&far[..1]) && !is_connected(&[]));
    }

    #[test]
    fn check_rejects_bad_knobs() {
        assert!(TopologySpec::RandomGeometric { nodes: 1, side_m: 10.0 }.check().is_err());
        assert!(TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 0.0 }.check().is_err());
        assert!(TopologySpec::PerturbedLine { nodes: 4, spacing_m: 5.0, jitter_m: -1.0 }
            .check()
            .is_err());
        assert!(TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 5.0 }.check().is_ok());
    }

    #[test]
    fn check_rejects_a_station_count_no_node_id_can_number() {
        // 2^33 × (2^31 + 1) overflows a u64 (it used to wrap to 2^33 in a
        // release build and panic in a debug one).
        let campus = TopologySpec::Campus {
            clusters: 1 << 33,
            nodes_per_cluster: (1 << 31) + 1,
            cluster_radius_m: 3.0,
            side_m: 60.0,
        };
        let msg = campus.check().unwrap_err();
        assert!(msg.contains("clusters × nodes_per_cluster"), "{msg}");
        // The boundary: 2^32 stations are numbered 0 ..= u32::MAX.
        let grid = |cols, rows| TopologySpec::Grid { cols, rows, spacing_m: 5.0 };
        assert_eq!(grid(1 << 16, 1 << 16).check(), Ok(()));
        let msg = grid(1 << 16, (1 << 16) + 1).check().unwrap_err();
        assert!(msg.starts_with("grid: cols × rows = 65536 × 65537 exceeds"), "{msg}");
        let line =
            TopologySpec::PerturbedLine { nodes: (1 << 32) + 1, spacing_m: 5.0, jitter_m: 0.0 };
        assert!(line.check().unwrap_err().contains("nodes = 4294967297"));
    }

    #[test]
    fn json_round_trip_all_kinds() {
        for spec in [
            TopologySpec::RandomGeometric { nodes: 10, side_m: 25.0 },
            TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 },
            TopologySpec::Campus {
                clusters: 2,
                nodes_per_cluster: 4,
                cluster_radius_m: 4.0,
                side_m: 20.0,
            },
            TopologySpec::PerturbedLine { nodes: 5, spacing_m: 5.0, jitter_m: 1.0 },
        ] {
            let text = spec.to_json().to_string();
            let back = TopologySpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(TopologySpec::from_json(&Value::obj().with("kind", "torus")).is_err());
    }
}
