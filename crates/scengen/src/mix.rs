//! Traffic-mix composition: layering workload models onto generated
//! topologies.
//!
//! A [`TrafficMix`] says how many flows of each workload family to run and
//! how to pick their endpoints; [`TrafficMix::compose`] turns that into
//! concrete [`FlowSpec`]s against a placement, routing each flow over the
//! minimum-ETX path (the same metric the paper's experiments use), found by
//! the lazy search of [`wmn_routing::PlacementSearch`]. All
//! endpoint draws come from [`StreamRng`] streams derived from the scenario
//! seed, so composition is deterministic per `(mix, topology, seed)`.

use wmn_netsim::{FlowSpec, Workload};
use wmn_phy::LinkModel;
use wmn_routing::{LinkGraph, PlacementSearch};
use wmn_sim::{labels, NodeId, RngDirectory, StreamRng};
use wmn_topology::Topology;
use wmn_traffic::{CbrModel, VoipModel, WebModel};

use crate::json::Value;

/// Attempts per flow to find a routable endpoint pair before erroring out.
const PAIR_ATTEMPTS: usize = 64;

/// How flow endpoints are selected on a generated topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairPolicy {
    /// Source and destination uniform over distinct, mutually reachable
    /// stations.
    Random,
    /// Every flow terminates at node 0 (a mesh-gateway traffic pattern);
    /// sources are uniform over the remaining stations.
    Gateway,
    /// For each flow, eight random candidate pairs are drawn and the one
    /// whose minimum-ETX route has the most hops wins — stresses multi-hop
    /// forwarding the way the paper's line/Roofnet scenarios do.
    FarPairs,
}

impl PairPolicy {
    /// The JSON / slug name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            PairPolicy::Random => "random",
            PairPolicy::Gateway => "gateway",
            PairPolicy::FarPairs => "far-pairs",
        }
    }

    /// Parses [`PairPolicy::name`] back.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "random" => Ok(PairPolicy::Random),
            "gateway" => Ok(PairPolicy::Gateway),
            "far-pairs" => Ok(PairPolicy::FarPairs),
            other => Err(format!(
                "pairing must be one of \"random\", \"gateway\", \"far-pairs\", got {other:?}"
            )),
        }
    }
}

/// Flow counts per workload family plus the endpoint-selection policy.
///
/// Flows are composed in a fixed order — FTP, then web, then VoIP, then CBR
/// — so flow indices (and their RNG streams) are stable for a given mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficMix {
    /// Long-lived TCP transfers ([`Workload::Ftp`]).
    pub ftp: usize,
    /// Pareto/think-time web flows ([`WebModel::paper`]).
    pub web: usize,
    /// On-off VoIP calls ([`VoipModel::paper`]).
    pub voip: usize,
    /// Heavy CBR cross traffic ([`CbrModel::heavy`]).
    pub cbr: usize,
    /// Endpoint selection policy.
    pub pairing: PairPolicy,
}

impl TrafficMix {
    /// Total flows the mix will lay down (saturating at `usize::MAX`).
    pub fn flow_count(&self) -> usize {
        self.ftp.saturating_add(self.web).saturating_add(self.voip).saturating_add(self.cbr)
    }

    /// An id-friendly slug, e.g. `f2w1v1c0-random`.
    pub fn slug(&self) -> String {
        format!("f{}w{}v{}c{}-{}", self.ftp, self.web, self.voip, self.cbr, self.pairing.name())
    }

    /// Lays the mix onto `topo`: one [`FlowSpec`] per flow, endpoints chosen
    /// by the pairing policy, each routed over its minimum-ETX path (whose
    /// interior nodes double as the forwarder candidates for opportunistic
    /// schemes). Deterministic per `(self, topo, seed)`.
    ///
    /// Builds no link graph: each drawn pair is routed by one
    /// [`PlacementSearch`] over the placement, which evaluates a link only
    /// where it could shorten a path, keeps what it evaluated for the
    /// placement (so the eight draws of [`PairPolicy::FarPairs`] share it),
    /// and returns [`LinkGraph::shortest_path`]'s path bit for bit. A model
    /// the search cannot bound (σ ≤ 0) or a non-finite coordinate routes
    /// over the placement's [`LinkGraph`] instead.
    ///
    /// # Errors
    ///
    /// Fails if the mix is empty, the topology has too few stations for the
    /// policy, or no routable pair can be found within the attempt budget
    /// (e.g. a station cut off from the rest).
    pub fn compose(
        &self,
        topo: &Topology,
        model: &LinkModel,
        seed: u64,
    ) -> Result<Vec<FlowSpec>, String> {
        let mut search = PlacementSearch::new(model);
        let placed = search.as_mut().is_some_and(|search| search.place(&topo.positions));
        match search.as_mut() {
            Some(search) if placed => {
                self.routed(topo, |src, dst| search.shortest_path(src, dst), seed)
            }
            _ => {
                let graph = LinkGraph::from_placement(model, &topo.positions);
                self.routed(topo, |src, dst| graph.shortest_path(src, dst), seed)
            }
        }
    }

    /// [`TrafficMix::compose`] with its min-ETX paths from `route`.
    fn routed(
        &self,
        topo: &Topology,
        mut route: impl FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
        seed: u64,
    ) -> Result<Vec<FlowSpec>, String> {
        if !(1..=u32::MAX as usize).contains(&self.flow_count()) {
            return Err(format!(
                "traffic mix needs 1 to 2^32 - 1 flows, got {}",
                self.flow_count()
            ));
        }
        let n = topo.node_count();
        if n < 2 {
            return Err(format!("topology {:?} has {n} stations; flows need two", topo.name));
        }
        let dir = RngDirectory::new(seed);
        let mut flows = Vec::with_capacity(self.flow_count());
        for index in 0..self.flow_count() {
            let mut rng = dir.indexed_stream(labels::SCENGEN_MIX_FLOW, index as u32);
            let path = self.pick_path(&mut route, n, &mut rng).map_err(|e| {
                format!("flow {index} on {:?} ({} policy): {e}", topo.name, self.pairing.name())
            })?;
            flows.push(FlowSpec { path, workload: self.workload(index) });
        }
        Ok(flows)
    }

    /// The workload of flow `index` under the fixed FTP→web→VoIP→CBR order.
    fn workload(&self, index: usize) -> Workload {
        if index < self.ftp {
            Workload::Ftp
        } else if index < self.ftp + self.web {
            Workload::Web(WebModel::paper())
        } else if index < self.ftp + self.web + self.voip {
            Workload::Voip(VoipModel::paper())
        } else {
            Workload::Cbr(CbrModel::heavy())
        }
    }

    fn pick_path(
        &self,
        route: &mut impl FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
        n: usize,
        rng: &mut StreamRng,
    ) -> Result<Vec<NodeId>, String> {
        let draw = |rng: &mut StreamRng| NodeId::new(rng.uniform_slots(n as u32 - 1));
        match self.pairing {
            PairPolicy::Random => {
                for _ in 0..PAIR_ATTEMPTS {
                    let (src, dst) = (draw(rng), draw(rng));
                    if src == dst {
                        continue;
                    }
                    if let Some(path) = route(src, dst) {
                        return Ok(path);
                    }
                }
                Err(format!("no routable random pair in {PAIR_ATTEMPTS} attempts"))
            }
            PairPolicy::Gateway => {
                let gateway = NodeId::new(0);
                for _ in 0..PAIR_ATTEMPTS {
                    let src = draw(rng);
                    if src == gateway {
                        continue;
                    }
                    if let Some(path) = route(src, gateway) {
                        return Ok(path);
                    }
                }
                Err(format!("no station reaches the gateway in {PAIR_ATTEMPTS} attempts"))
            }
            PairPolicy::FarPairs => {
                let mut best: Option<Vec<NodeId>> = None;
                let mut sampled = 0;
                for _ in 0..PAIR_ATTEMPTS {
                    if sampled == 8 {
                        break;
                    }
                    let (src, dst) = (draw(rng), draw(rng));
                    if src == dst {
                        continue;
                    }
                    let Some(path) = route(src, dst) else { continue };
                    sampled += 1;
                    if best.as_ref().map_or(true, |b| path.len() > b.len()) {
                        best = Some(path);
                    }
                }
                best.ok_or_else(|| format!("no routable pair in {PAIR_ATTEMPTS} attempts"))
            }
        }
    }

    /// Serialises the mix as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("ftp", self.ftp)
            .with("web", self.web)
            .with("voip", self.voip)
            .with("cbr", self.cbr)
            .with("pairing", self.pairing.name())
    }

    /// Decodes a mix from the [`TrafficMix::to_json`] shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/invalid field. The counts are
    /// judged where they are used ([`TrafficMix::compose`]).
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Ok(TrafficMix {
            ftp: crate::spec::req_usize(value, "ftp", "mix")?,
            web: crate::spec::req_usize(value, "web", "mix")?,
            voip: crate::spec::req_usize(value, "voip", "mix")?,
            cbr: crate::spec::req_usize(value, "cbr", "mix")?,
            pairing: PairPolicy::from_name(crate::spec::req_str(value, "pairing", "mix")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::TopologySpec;

    fn mix() -> TrafficMix {
        TrafficMix { ftp: 2, web: 1, voip: 1, cbr: 1, pairing: PairPolicy::Random }
    }

    fn grid() -> Topology {
        TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 }.try_generate(1).unwrap()
    }

    #[test]
    fn compose_honours_flow_counts_and_order() {
        let flows = mix().compose(&grid(), &LinkModel::paper(), 3).unwrap();
        assert_eq!(flows.len(), 5);
        assert!(matches!(flows[0].workload, Workload::Ftp));
        assert!(matches!(flows[1].workload, Workload::Ftp));
        assert!(matches!(flows[2].workload, Workload::Web(_)));
        assert!(matches!(flows[3].workload, Workload::Voip(_)));
        assert!(matches!(flows[4].workload, Workload::Cbr(_)));
        for f in &flows {
            assert!(f.path.len() >= 2);
            assert!(f.path.iter().all(|n| n.index() < 12), "dense NodeId contract");
        }
    }

    #[test]
    fn compose_is_deterministic_per_seed() {
        let topo = grid();
        let model = LinkModel::paper();
        let a = mix().compose(&topo, &model, 9).unwrap();
        let b = mix().compose(&topo, &model, 9).unwrap();
        let paths = |fs: &[FlowSpec]| fs.iter().map(|f| f.path.clone()).collect::<Vec<_>>();
        assert_eq!(paths(&a), paths(&b));
        let c = mix().compose(&topo, &model, 10).unwrap();
        assert_ne!(paths(&a), paths(&c), "different seeds should draw different pairs");
    }

    #[test]
    fn gateway_policy_sinks_everything_at_node_zero() {
        let mix = TrafficMix { pairing: PairPolicy::Gateway, ..mix() };
        let flows = mix.compose(&grid(), &LinkModel::paper(), 5).unwrap();
        for f in &flows {
            assert_eq!(*f.path.last().unwrap(), NodeId::new(0));
            assert_ne!(f.path[0], NodeId::new(0));
        }
    }

    #[test]
    fn far_pairs_prefers_multi_hop_routes() {
        let line = TopologySpec::PerturbedLine { nodes: 6, spacing_m: 5.0, jitter_m: 0.2 }
            .try_generate(2)
            .unwrap();
        let mix = TrafficMix { ftp: 3, web: 0, voip: 0, cbr: 0, pairing: PairPolicy::FarPairs };
        let flows = mix.compose(&line, &LinkModel::paper(), 1).unwrap();
        assert!(
            flows.iter().any(|f| f.path.len() >= 4),
            "far-pairs on a 6-node line should find a 3+-hop route"
        );
    }

    #[test]
    fn the_lazy_search_composes_what_the_graph_composes() {
        // Every policy on a random mesh, a campus and a line, under the
        // paper's model, one a step from it, and σ = 0, which the search
        // cannot bound (so compose falls back to the graph).
        let topologies = [
            TopologySpec::RandomGeometric { nodes: 40, side_m: 40.0 },
            TopologySpec::Campus {
                clusters: 4,
                nodes_per_cluster: 8,
                cluster_radius_m: 3.0,
                side_m: 30.0,
            },
            TopologySpec::PerturbedLine { nodes: 9, spacing_m: 5.0, jitter_m: 0.5 },
        ];
        let models = [
            LinkModel::paper(),
            LinkModel { sigma_db: 3.0, ..LinkModel::paper() },
            LinkModel { sigma_db: 0.0, ..LinkModel::paper() },
        ];
        for pairing in [PairPolicy::Random, PairPolicy::Gateway, PairPolicy::FarPairs] {
            let mix = TrafficMix { ftp: 3, web: 1, voip: 1, cbr: 1, pairing };
            for (t, topology) in topologies.iter().enumerate() {
                let topo = topology.try_generate(t as u64 + 5).unwrap();
                for model in models {
                    let graph = LinkGraph::from_placement(&model, &topo.positions);
                    assert_eq!(
                        PlacementSearch::new(&model).is_some(),
                        model.sigma_db > 0.0,
                        "the search bounds the model exactly when σ > 0"
                    );
                    for seed in 0..4 {
                        let want = mix.routed(&topo, |a, b| graph.shortest_path(a, b), seed);
                        let got = mix.compose(&topo, &model, seed);
                        assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "{pairing:?} on {topology:?}, σ {}, seed {seed}",
                            model.sigma_db
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_mix_and_tiny_topologies_are_rejected() {
        let empty = TrafficMix { ftp: 0, web: 0, voip: 0, cbr: 0, pairing: PairPolicy::Random };
        assert!(empty.compose(&grid(), &LinkModel::paper(), 1).is_err());
        let lonely = Topology::new("one", vec![wmn_phy::Position::new(0.0, 0.0)]);
        assert!(mix().compose(&lonely, &LinkModel::paper(), 1).is_err());
    }

    #[test]
    fn json_round_trip() {
        for pairing in [PairPolicy::Random, PairPolicy::Gateway, PairPolicy::FarPairs] {
            let m = TrafficMix { pairing, ..mix() };
            let text = m.to_json().to_string();
            let back = TrafficMix::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, m);
        }
        assert!(PairPolicy::from_name("nearest").is_err());
    }
}
