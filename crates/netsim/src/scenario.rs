//! Scenario description types.

use wmn_mac::{DcfScheme, MacEntity, MacScheme};
use wmn_phy::{PhyParams, Position};
use wmn_routing::{ExorMode, ExorScheme};
use wmn_sim::{NodeId, SimDuration, SimTime, StreamRng};
use wmn_topology::MotionPlan;
use wmn_traffic::{CbrModel, VoipModel, WebModel};

/// Which forwarding scheme every station in the scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// IEEE 802.11 DCF over predetermined routes. `aggregation = 1` is the
    /// paper's "D" (and "S" when the path is direct); `aggregation = 16` is
    /// AFR ("A").
    Dcf {
        /// Packets per frame (1 or 16 in the paper).
        aggregation: usize,
    },
    /// preExOR: opportunistic forwarding with sequential per-member ACKs.
    PreExor,
    /// MCExOR: opportunistic forwarding with compressed ACKs.
    McExor,
    /// RIPPLE. `aggregation = 1` is "R1", `16` is the full scheme "R16".
    Ripple {
        /// Packets per frame (1 or 16 in the paper).
        aggregation: usize,
    },
}

impl Scheme {
    /// The label the paper's figures use for this scheme.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Dcf { aggregation: 1 } => "DCF",
            Scheme::Dcf { .. } => "AFR",
            Scheme::PreExor => "preExOR",
            Scheme::McExor => "MCExOR",
            Scheme::Ripple { aggregation: 1 } => "RIPPLE-1",
            Scheme::Ripple { .. } => "RIPPLE-16",
        }
    }

    /// Whether routes must be expressed as opportunistic priority lists.
    pub fn is_opportunistic(self) -> bool {
        !matches!(self, Scheme::Dcf { .. })
    }
}

/// Enum dispatch to the concrete scheme factories: the `Scheme` enum stays
/// a copyable scenario field (no allocation, derivable `PartialEq`), while
/// the runner builds node stacks purely through the [`MacScheme`] trait —
/// it never names DCF, ExOR or RIPPLE again. Adding a MAC means adding a
/// variant here and a factory in the crate that owns the state machine.
impl MacScheme for Scheme {
    fn label(&self) -> &'static str {
        Scheme::label(*self)
    }

    fn is_opportunistic(&self) -> bool {
        Scheme::is_opportunistic(*self)
    }

    fn build_mac(&self, params: &PhyParams, node: NodeId, rng: StreamRng) -> Box<dyn MacEntity> {
        match *self {
            Scheme::Dcf { aggregation } => DcfScheme { aggregation }.build_mac(params, node, rng),
            Scheme::PreExor => ExorScheme { mode: ExorMode::PreExor }.build_mac(params, node, rng),
            Scheme::McExor => ExorScheme { mode: ExorMode::McExor }.build_mac(params, node, rng),
            Scheme::Ripple { aggregation } => {
                ripple::RippleScheme { aggregation }.build_mac(params, node, rng)
            }
        }
    }
}

/// The application driving one flow.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Long-lived TCP transfer: unlimited data from t = 0.
    Ftp,
    /// Web traffic: Pareto transfer sizes, exponential think times.
    Web(WebModel),
    /// On-off VoIP over UDP.
    Voip(VoipModel),
    /// Constant-bit-rate UDP (saturating cross / hidden traffic).
    Cbr(CbrModel),
}

/// One end-to-end flow: its (predetermined) path and its workload. For
/// opportunistic schemes the path's interior nodes become the forwarder
/// candidates.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source, forwarders, destination — inclusive, in order.
    pub path: Vec<NodeId>,
    /// The traffic generator.
    pub workload: Workload,
}

impl FlowSpec {
    /// The flow's source station.
    ///
    /// # Panics
    ///
    /// Panics if the path has fewer than two nodes.
    pub fn src(&self) -> NodeId {
        assert!(self.path.len() >= 2, "a flow path needs at least two nodes");
        self.path[0]
    }

    /// The flow's destination station.
    pub fn dst(&self) -> NodeId {
        assert!(self.path.len() >= 2, "a flow path needs at least two nodes");
        *self.path.last().expect("non-empty")
    }
}

/// A complete, reproducible simulation description.
///
/// # NodeId contract
///
/// `positions` is the single id namespace of a run: [`wmn_sim::NodeId`]s are
/// **dense indices into it** (node `i` sits at `positions[i]`), and every id
/// a flow path mentions must be below `positions.len()`. [`Scenario::validate`]
/// checks the whole structure; [`crate::run`] asserts it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Name used in results and logs.
    pub name: String,
    /// PHY/MAC parameters (Table I presets, possibly with modified BER).
    pub params: PhyParams,
    /// Station placement; index = node id.
    pub positions: Vec<Position>,
    /// The forwarding scheme under test.
    pub scheme: Scheme,
    /// The traffic matrix.
    pub flows: Vec<FlowSpec>,
    /// Simulated duration (Table I: 10 s).
    pub duration: SimDuration,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Cap on forwarders per opportunistic list (paper default: 5).
    pub max_forwarders: usize,
    /// Per-node trajectories over `positions` (which pin `t = 0`). The
    /// default plan is empty — fully static — and is byte-for-byte
    /// equivalent to the pre-mobility simulator.
    pub motion: MotionPlan,
    /// Interval between live route-refresh passes, or `None` for build-time
    /// routes only. When set, the runner periodically recomputes every
    /// flow's min-ETX path (and opportunistic forwarder list) from the
    /// medium's *current* link state — the fix for a mobile relay leaving a
    /// flow pinned to its stale forwarder list forever. The refresh consumes
    /// no RNG, so `None` is byte-for-byte identical to the pre-refresh
    /// runner, and a refresh over an unmoved topology changes nothing.
    pub route_refresh: Option<SimDuration>,
    /// Has no effect: every value runs the same simulation. It once sized an
    /// intra-scenario thread partition, then selected one of two result
    /// families; it stays only because the frozen benchmark sets it by
    /// name.
    pub shards: Option<u32>,
}

impl Scenario {
    /// The one gate a run passes: [`crate::run`] runs every scenario this
    /// accepts to its end, and panics exactly when this errs. The rules, each
    /// stated once beside the code it protects: a non-empty placement of
    /// finite coordinates; [`PhyParams::check`]; an aggregation of at least
    /// one packet; a duration within [`SimDuration::LIMIT`]; at least one
    /// flow, each path at least two nodes, with no node twice in a row and
    /// every [`NodeId`] inside the placement (the NodeId contract above),
    /// and each workload's `check` ([`WebModel::check`] and its siblings);
    /// [`MotionPlan::check`] over the placement up to the run's end; and a
    /// positive `route_refresh`, when set. The span rules are
    /// checked one extreme field at a time (`tests/properties.rs`); several
    /// extreme fields together are not.
    ///
    /// # Errors
    ///
    /// The first rule broken, naming the scenario and the field.
    pub fn validate(&self) -> Result<(), String> {
        self.first_violation().map_err(|msg| format!("scenario {:?}: {msg}", self.name))
    }

    fn first_violation(&self) -> Result<(), String> {
        let n = self.positions.len();
        if n == 0 {
            return Err("empty placement".into());
        }
        if let Some(i) = self.positions.iter().position(|p| !(p.x.is_finite() && p.y.is_finite())) {
            return Err(format!("station {i} position {} is not finite", self.positions[i]));
        }
        self.params.check()?;
        if let Scheme::Dcf { aggregation: 0 } | Scheme::Ripple { aggregation: 0 } = self.scheme {
            return Err(format!("aggregation must be at least 1, got {:?}", self.scheme));
        }
        if self.duration > SimDuration::LIMIT {
            return Err(format!("duration {} exceeds {}", self.duration, SimDuration::LIMIT));
        }
        if self.flows.is_empty() {
            return Err("no flows".into());
        }
        for (i, flow) in self.flows.iter().enumerate() {
            if flow.path.len() < 2 {
                return Err(format!(
                    "flow {i}: path needs at least two nodes, got {}",
                    flow.path.len()
                ));
            }
            if let Some(node) = flow.path.iter().find(|node| node.index() >= n) {
                return Err(format!(
                    "flow {i}: {node} outside the {n}-station placement \
                     (NodeIds must be dense indices into `positions`)"
                ));
            }
            if flow.path.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("flow {i}: path repeats a node back-to-back"));
            }
            let workload = match &flow.workload {
                Workload::Ftp => Ok(()),
                Workload::Web(model) => model.check(),
                Workload::Voip(model) => model.check(),
                Workload::Cbr(model) => model.check(),
            };
            workload.map_err(|msg| format!("flow {i}: {msg}"))?;
        }
        let end = SimTime::ZERO + self.duration;
        self.motion.check(&self.positions, end).map_err(|msg| format!("motion: {msg}"))?;
        if self.route_refresh == Some(SimDuration::ZERO) {
            return Err("route_refresh must be positive: zero repeats one instant forever".into());
        }
        Ok(())
    }

    /// The stations a run must plan receptions at, ascending, or `None` for
    /// all. A station no flow's path names never transmits or arms a timer,
    /// and its MAC ignores every frame, since none names it (the contract on
    /// [`MacEntity`]); its draws are keyed to it alone, so leaving out its
    /// receptions changes no result while:
    /// - the run is untraced: the trace records `Decoded` at every station;
    /// - routes are fixed (`route_refresh: None`): a refresh can name a
    ///   station while an arrival is already under way at it.
    pub fn observed_stations(&self, traced: bool) -> Option<Vec<NodeId>> {
        if traced || self.route_refresh.is_some() {
            return None;
        }
        let mut observed: Vec<NodeId> = self.flows.iter().flat_map(|f| f.path.clone()).collect();
        observed.sort_unstable();
        observed.dedup();
        Some(observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_phy::LinkModel;

    #[test]
    fn scheme_labels_match_figures() {
        assert_eq!(Scheme::Dcf { aggregation: 1 }.label(), "DCF");
        assert_eq!(Scheme::Dcf { aggregation: 16 }.label(), "AFR");
        assert_eq!(Scheme::Ripple { aggregation: 1 }.label(), "RIPPLE-1");
        assert_eq!(Scheme::Ripple { aggregation: 16 }.label(), "RIPPLE-16");
        assert_eq!(Scheme::PreExor.label(), "preExOR");
        assert_eq!(Scheme::McExor.label(), "MCExOR");
    }

    #[test]
    fn opportunism_flag() {
        assert!(!Scheme::Dcf { aggregation: 16 }.is_opportunistic());
        assert!(Scheme::Ripple { aggregation: 16 }.is_opportunistic());
        assert!(Scheme::PreExor.is_opportunistic());
    }

    fn valid_scenario() -> Scenario {
        Scenario {
            name: "v".into(),
            params: PhyParams::paper_216(),
            positions: vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            scheme: Scheme::Dcf { aggregation: 1 },
            flows: vec![FlowSpec {
                path: vec![NodeId::new(0), NodeId::new(1)],
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(1),
            seed: 0,
            max_forwarders: 5,
            motion: MotionPlan::default(),
            route_refresh: None,
            shards: None,
        }
    }

    #[test]
    fn validate_accepts_well_formed_scenarios() {
        assert_eq!(valid_scenario().validate(), Ok(()));
        let mut refreshed = valid_scenario();
        refreshed.route_refresh = Some(SimDuration::from_millis(50));
        assert_eq!(refreshed.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_refresh_interval() {
        let mut s = valid_scenario();
        s.route_refresh = Some(SimDuration::ZERO);
        let msg = s.validate().unwrap_err();
        assert!(msg.contains("route_refresh"), "{msg}");
    }

    #[test]
    fn validate_rejects_sparse_node_ids() {
        // Regression: ids must be dense indices into `positions`. A path
        // naming node 7 of a 2-station placement used to die only when
        // `Topology::distance` indexed out of bounds; now it is reported
        // with the offending flow and id.
        let mut s = valid_scenario();
        s.flows[0].path = vec![NodeId::new(0), NodeId::new(7)];
        let msg = s.validate().unwrap_err();
        assert!(msg.contains("n7") && msg.contains("flow 0"), "{msg}");
        assert!(msg.contains("dense indices"), "{msg}");
    }

    #[test]
    fn validate_rejects_structural_defects() {
        let mut empty = valid_scenario();
        empty.positions.clear();
        assert!(empty.validate().unwrap_err().contains("empty placement"));

        // A NaN station would get NaN mean power, which no threshold compare
        // rejects: the planner would book it as a receiver of every frame.
        for bad in [
            Position::new(f64::NAN, 0.0),
            Position::new(0.0, f64::NAN),
            Position::new(f64::INFINITY, 0.0),
            Position::new(0.0, f64::NEG_INFINITY),
        ] {
            let mut off_map = valid_scenario();
            off_map.positions.push(bad);
            let msg = off_map.validate().unwrap_err();
            assert!(msg.contains("station 2") && msg.contains("not finite"), "{msg}");
            assert!(msg.contains(&format!("{:?}", off_map.name)), "{msg}");
        }

        let mut no_flows = valid_scenario();
        no_flows.flows.clear();
        assert!(no_flows.validate().unwrap_err().contains("no flows"));

        let mut short = valid_scenario();
        short.flows[0].path.truncate(1);
        assert!(short.validate().unwrap_err().contains("at least two nodes"));

        let mut looped = valid_scenario();
        looped.flows[0].path = vec![NodeId::new(0), NodeId::new(0)];
        assert!(looped.validate().unwrap_err().contains("back-to-back"));

        let mut bad_motion = valid_scenario();
        bad_motion.motion.paths = vec![wmn_topology::NodePath::Static; 3];
        let msg = bad_motion.validate().unwrap_err();
        assert!(msg.contains("motion") && msg.contains("3 paths"), "{msg}");

        // `BerModel::new` panics on these once the run builds its stations.
        for ber in [1.5, -0.1, 1.0, f64::NAN] {
            let mut noisy = valid_scenario();
            noisy.params.ber = ber;
            let msg = noisy.validate().unwrap_err();
            assert!(msg.contains("ber must be in [0, 1)"), "{msg}");
            assert!(msg.contains(&format!("{:?}", noisy.name)), "{msg}");
        }

        for scheme in [Scheme::Dcf { aggregation: 0 }, Scheme::Ripple { aggregation: 0 }] {
            let unaggregated = Scenario { scheme, ..valid_scenario() };
            let msg = unaggregated.validate().unwrap_err();
            assert!(msg.contains("aggregation must be at least 1"), "{msg}");
            assert!(msg.contains(&format!("{:?}", unaggregated.name)), "{msg}");
        }

        // Each of these used to validate, then panic (or, for the zero CBR
        // interval, hang) inside `run`.
        let with = |workload| {
            let path = vec![NodeId::new(0), NodeId::new(1)];
            Scenario { flows: vec![FlowSpec { path, workload }], ..valid_scenario() }
        };
        let phy = |edit: fn(&mut PhyParams)| {
            let mut s = valid_scenario();
            edit(&mut s.params);
            s
        };
        let (web, voip) = (WebModel::paper(), VoipModel::paper());
        let far = vec![Position::new(-1.7e308, 0.0), Position::new(1.7e308, 0.0)];
        for (field, s) in [
            ("ifq_capacity", phy(|p| p.ifq_capacity = 0)),
            ("cw_min", phy(|p| (p.cw_min, p.cw_max) = (64, 15))),
            ("slot", phy(|p| (p.slot, p.sifs) = (SimDuration::ZERO, SimDuration::ZERO))),
            (
                "mean_off_seconds",
                with(Workload::Web(WebModel { mean_off_seconds: f64::NAN, ..web })),
            ),
            ("pareto_shape", with(Workload::Web(WebModel { pareto_shape: 0.5, ..web }))),
            ("bitrate_bps", with(Workload::Voip(VoipModel { bitrate_bps: 0.0, ..voip }))),
            (
                "mean_on_seconds",
                with(Workload::Voip(VoipModel { mean_on_seconds: f64::NAN, ..voip })),
            ),
            ("packet_bytes", with(Workload::Voip(VoipModel { packet_bytes: u32::MAX, ..voip }))),
            (
                "packet_bytes",
                with(Workload::Cbr(CbrModel::new(u32::MAX, SimDuration::from_micros(300)))),
            ),
            ("interval", with(Workload::Cbr(CbrModel::new(1000, SimDuration::ZERO)))),
            ("positions", Scenario { positions: far, ..valid_scenario() }),
        ] {
            let msg = s.validate().unwrap_err();
            assert!(msg.starts_with("scenario \"v\": ") && msg.contains(field), "{field}: {msg}");
        }
    }

    #[test]
    fn validate_rejects_an_unusable_link_model() {
        // A NaN field gives some pair NaN mean power, which no threshold
        // compare rejects (the planner booked a station 1 km away as a
        // receiver of every frame); d0 = 0 clamped every distance to 0 m, and
        // no frame was ever sensed. Each of these used to validate.
        let paper = LinkModel::paper();
        let nan = f64::NAN;
        for (field, link) in [
            ("tx_power_dbm", LinkModel { tx_power_dbm: nan, ..paper }),
            ("rx_thresh_dbm", LinkModel { rx_thresh_dbm: nan, ..paper }),
            ("cs_thresh_dbm", LinkModel { cs_thresh_dbm: nan, ..paper }),
            ("path_loss_exponent", LinkModel { path_loss_exponent: nan, ..paper }),
            ("sigma_db", LinkModel { sigma_db: nan, ..paper }),
            ("reference_distance", LinkModel { reference_distance: nan, ..paper }),
            ("pl_at_reference_db", LinkModel { pl_at_reference_db: f64::INFINITY, ..paper }),
            ("reference_distance must be positive", LinkModel { reference_distance: 0.0, ..paper }),
        ] {
            let mut s = valid_scenario();
            s.params.link = link;
            let msg = s.validate().unwrap_err();
            assert!(msg.contains(field) && msg.contains(&format!("{:?}", s.name)), "{msg}");
        }
        // A negative σ is odd but legal.
        let mut flipped = valid_scenario();
        flipped.params.link.sigma_db = -8.0;
        assert_eq!(flipped.validate(), Ok(()));
    }

    #[test]
    fn scheme_enum_dispatches_the_mac_scheme_trait() {
        // The trait view must agree with the inherent metadata for every
        // variant — the runner only ever sees the trait.
        for scheme in [
            Scheme::Dcf { aggregation: 1 },
            Scheme::Dcf { aggregation: 16 },
            Scheme::Ripple { aggregation: 1 },
            Scheme::Ripple { aggregation: 16 },
            Scheme::PreExor,
            Scheme::McExor,
        ] {
            let dynamic: &dyn MacScheme = &scheme;
            assert_eq!(dynamic.label(), scheme.label());
            assert_eq!(dynamic.is_opportunistic(), scheme.is_opportunistic());
            let mut mac = dynamic.build_mac(
                &PhyParams::paper_216(),
                NodeId::new(0),
                StreamRng::derive(1, "mac/0"),
            );
            assert_eq!(mac.stats(), wmn_mac::MacStats::default());
            let _ = wmn_mac::MacEntityExt::on_idle_vec(&mut *mac, wmn_sim::SimTime::ZERO);
        }
    }

    #[test]
    fn flow_endpoints() {
        let f = FlowSpec {
            path: vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)],
            workload: Workload::Ftp,
        };
        assert_eq!(f.src(), NodeId::new(0));
        assert_eq!(f.dst(), NodeId::new(3));
    }
}
