//! Scenario description types.

use std::borrow::Cow;

use wmn_mac::{DcfScheme, MacEntity, MacScheme};
use wmn_phy::{Medium, PhyParams, Position};
use wmn_routing::{ExorMode, ExorScheme};
use wmn_sim::{NodeId, SimDuration, SimTime, StreamRng};
use wmn_topology::MotionPlan;
use wmn_traffic::{CbrModel, VoipModel, WebModel};

use crate::stack::net_layer::RouteSchedule;

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
/// a flow path mentions must be below `positions.len()`. A run starts from
/// [`Scenario::prepare`], which checks the whole structure first.
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
    /// Interval between route refreshes, or `None` for the flows' paths
    /// only. When set, every refresh switches each flow to its min-ETX path
    /// (and opportunistic forwarder list) over the stations' positions as
    /// of the last mobility tick at or before it — the fix for a mobile relay leaving a flow pinned
    /// to its stale forwarder list forever. The routes are computed once,
    /// when the run is built; they consume no RNG, so `None` is
    /// byte-for-byte identical to the pre-refresh runner, and a refresh
    /// over an unmoved topology changes nothing.
    pub route_refresh: Option<SimDuration>,
    /// Has no effect: every value runs the same simulation. It once sized an
    /// intra-scenario thread partition, then selected one of two result
    /// families; it stays only because the frozen benchmark sets it by
    /// name.
    pub shards: Option<u32>,
}

/// The first rule a [`Scenario`] breaks, as [`Scenario::validate`] finds
/// it: one variant per rule, carrying what the rule names. A rule another
/// type states ([`PhyParams::check`], the workload models' `check`,
/// [`MotionPlan::check`]) carries that check's message.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The placement has no station.
    EmptyPlacement,
    /// A station's coordinates are not finite.
    NonFinitePosition {
        /// The station's index.
        station: usize,
        /// Where it is said to stand.
        position: Position,
    },
    /// [`PhyParams::check`] rejects the parameters.
    Phy(String),
    /// An aggregating scheme sends no packet per frame.
    ZeroAggregation(Scheme),
    /// The duration is past [`SimDuration::LIMIT`].
    DurationPastLimit(SimDuration),
    /// The scenario has no flow.
    NoFlows,
    /// A flow's path has fewer than two nodes.
    ShortPath {
        /// The flow's index.
        flow: usize,
        /// The path's length.
        len: usize,
    },
    /// A flow's path names a station outside the placement (the NodeId
    /// contract on [`Scenario`]).
    OutsidePlacement {
        /// The flow's index.
        flow: usize,
        /// The first such station.
        node: NodeId,
        /// The placement's size.
        stations: usize,
    },
    /// A flow's path names one station twice in a row.
    RepeatedHop {
        /// The flow's index.
        flow: usize,
    },
    /// A flow's workload model rejects its parameters.
    Workload {
        /// The flow's index.
        flow: usize,
        /// The model's `check` message.
        reason: String,
    },
    /// [`MotionPlan::check`] rejects the plan over the placement.
    Motion(String),
    /// `route_refresh` is zero.
    ZeroRefresh,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::EmptyPlacement => write!(f, "empty placement"),
            ScenarioError::NonFinitePosition { station, position } => {
                write!(f, "station {station} position {position} is not finite")
            }
            ScenarioError::Phy(msg) => write!(f, "{msg}"),
            ScenarioError::ZeroAggregation(scheme) => {
                write!(f, "aggregation must be at least 1, got {scheme:?}")
            }
            ScenarioError::DurationPastLimit(duration) => {
                write!(f, "duration {duration} exceeds {}", SimDuration::LIMIT)
            }
            ScenarioError::NoFlows => write!(f, "no flows"),
            ScenarioError::ShortPath { flow, len } => {
                write!(f, "flow {flow}: path needs at least two nodes, got {len}")
            }
            ScenarioError::OutsidePlacement { flow, node, stations } => write!(
                f,
                "flow {flow}: {node} outside the {stations}-station placement \
                 (NodeIds must be dense indices into `positions`)"
            ),
            ScenarioError::RepeatedHop { flow } => {
                write!(f, "flow {flow}: path repeats a node back-to-back")
            }
            ScenarioError::Workload { flow, reason } => write!(f, "flow {flow}: {reason}"),
            ScenarioError::Motion(msg) => write!(f, "motion: {msg}"),
            ScenarioError::ZeroRefresh => {
                write!(f, "route_refresh must be positive: zero repeats one instant forever")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// The rules a scenario must keep to run, checked without allocating
    /// when it keeps them: a non-empty placement of finite coordinates;
    /// [`PhyParams::check`]; an aggregation of at least one packet; a
    /// duration within [`SimDuration::LIMIT`]; at least one flow, each path
    /// at least two nodes, with no node twice in a row and every [`NodeId`]
    /// inside the placement (the NodeId contract above), and each
    /// workload's `check` ([`WebModel::check`] and its siblings);
    /// [`MotionPlan::check`] over the placement up to the run's end; and a
    /// positive `route_refresh`, when set. The span rules are checked one
    /// extreme field at a time (`tests/properties.rs`); several extreme
    /// fields together are not.
    ///
    /// # Errors
    ///
    /// The first rule broken.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let n = self.positions.len();
        if n == 0 {
            return Err(ScenarioError::EmptyPlacement);
        }
        if let Some(i) = self.positions.iter().position(|p| !(p.x.is_finite() && p.y.is_finite())) {
            return Err(ScenarioError::NonFinitePosition {
                station: i,
                position: self.positions[i],
            });
        }
        self.params.check().map_err(ScenarioError::Phy)?;
        if let Scheme::Dcf { aggregation: 0 } | Scheme::Ripple { aggregation: 0 } = self.scheme {
            return Err(ScenarioError::ZeroAggregation(self.scheme));
        }
        if self.duration > SimDuration::LIMIT {
            return Err(ScenarioError::DurationPastLimit(self.duration));
        }
        if self.flows.is_empty() {
            return Err(ScenarioError::NoFlows);
        }
        for (flow, spec) in self.flows.iter().enumerate() {
            if spec.path.len() < 2 {
                return Err(ScenarioError::ShortPath { flow, len: spec.path.len() });
            }
            if let Some(&node) = spec.path.iter().find(|node| node.index() >= n) {
                return Err(ScenarioError::OutsidePlacement { flow, node, stations: n });
            }
            if spec.path.windows(2).any(|w| w[0] == w[1]) {
                return Err(ScenarioError::RepeatedHop { flow });
            }
            let workload = match &spec.workload {
                Workload::Ftp => Ok(()),
                Workload::Web(model) => model.check(),
                Workload::Voip(model) => model.check(),
                Workload::Cbr(model) => model.check(),
            };
            workload.map_err(|reason| ScenarioError::Workload { flow, reason })?;
        }
        let end = SimTime::ZERO + self.duration;
        self.motion.check(&self.positions, end).map_err(ScenarioError::Motion)?;
        if self.route_refresh == Some(SimDuration::ZERO) {
            return Err(ScenarioError::ZeroRefresh);
        }
        Ok(())
    }

    /// Checks the scenario ([`Scenario::validate`]) and computes, once for
    /// every seed it will run at, what its runs share: every route they
    /// take and the stations they observe. Borrows the scenario; see
    /// [`Scenario::into_prepared`] for one that owns it.
    ///
    /// # Errors
    ///
    /// The first rule the scenario breaks.
    pub fn prepare(&self) -> Result<Prepared<'_>, ScenarioError> {
        Prepared::new(Cow::Borrowed(self))
    }

    /// [`Scenario::prepare`], keeping the scenario: a [`Prepared`] that can
    /// be shared across threads through an [`Arc`](std::sync::Arc).
    ///
    /// # Errors
    ///
    /// The first rule the scenario breaks.
    pub fn into_prepared(self) -> Result<Prepared<'static>, ScenarioError> {
        Prepared::new(Cow::Owned(self))
    }
}

/// A scenario that keeps every rule of [`Scenario::validate`], with what
/// all its runs share computed once: its route schedule, every route a run
/// takes, each a function of the placement, the motion and the duration
/// alone; and the stations an untraced run observes. Only the seed is left
/// to choose: [`Prepared::run`] and [`Prepared::run_traced`] take it, run
/// the scenario to its end, and cannot fail. The scenario's own `seed`
/// field is not read.
#[derive(Debug)]
pub struct Prepared<'s> {
    scenario: Cow<'s, Scenario>,
    pub(crate) schedule: RouteSchedule,
    /// Every station a route of the run names, ascending.
    observed: Vec<NodeId>,
}

impl<'s> Prepared<'s> {
    fn new(scenario: Cow<'s, Scenario>) -> Result<Prepared<'s>, ScenarioError> {
        scenario.validate()?;
        let schedule = RouteSchedule::of(&scenario);
        let observed = schedule.stations(&scenario);
        Ok(Prepared { scenario, schedule, observed })
    }

    /// The checked scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The stations a run must plan receptions at, ascending, or `None` for
    /// all. An untraced run plans only the stations some flow's path names,
    /// at the start or after a route refresh changes it: every route a run
    /// takes is computed before its first event, from positions that are
    /// pure functions of time. A station outside every such path never
    /// transmits or arms a timer, and its MAC ignores every frame, since
    /// none names it, not even one queued under a stale route (the contract
    /// on [`MacEntity`]); its draws are keyed to it alone, so leaving out
    /// its receptions changes no result. The run builds a MAC at these
    /// stations only, and reports the default MAC statistics at the
    /// others. A traced run plans every station and builds every MAC: the
    /// trace records `Decoded` at each.
    pub fn observed_stations(&self, traced: bool) -> Option<&[NodeId]> {
        (!traced).then_some(&self.observed[..])
    }

    /// The medium a run starts from: the placement, observing the
    /// [`Prepared::observed_stations`], so that its rows hold and its ticks
    /// move only the pairs the run can read.
    pub(crate) fn medium(&self, traced: bool) -> Medium {
        let Scenario { params, positions, .. } = &*self.scenario;
        match self.observed_stations(traced) {
            Some(observed) => Medium::observing(params.clone(), positions.clone(), observed),
            None => Medium::new(params.clone(), positions.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::discriminant;
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

    /// The message a rule stated by another type carries.
    fn carried(err: &ScenarioError) -> &str {
        match err {
            ScenarioError::Phy(msg)
            | ScenarioError::Motion(msg)
            | ScenarioError::Workload { reason: msg, .. } => msg,
            other => panic!("no carried message: {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_well_formed_scenarios() {
        assert_eq!(valid_scenario().validate(), Ok(()));
        let mut refreshed = valid_scenario();
        refreshed.route_refresh = Some(SimDuration::from_millis(50));
        assert_eq!(refreshed.validate(), Ok(()));
        let prepared = refreshed.prepare().expect("accepted");
        assert_eq!(prepared.observed_stations(false), Some(&[NodeId::new(0), NodeId::new(1)][..]));
        assert_eq!(prepared.observed_stations(true), None);
    }

    #[test]
    fn validate_rejects_zero_refresh_interval() {
        let mut s = valid_scenario();
        s.route_refresh = Some(SimDuration::ZERO);
        assert_eq!(s.validate(), Err(ScenarioError::ZeroRefresh));
        // A schedule would repeat that one instant forever: nothing is
        // prepared.
        assert_eq!(s.prepare().err(), Some(ScenarioError::ZeroRefresh));
        assert_eq!(s.into_prepared().err(), Some(ScenarioError::ZeroRefresh));
    }

    #[test]
    fn validate_rejects_sparse_node_ids() {
        // Regression: ids must be dense indices into `positions`. A path
        // naming node 7 of a 2-station placement used to die only when
        // `Topology::distance` indexed out of bounds; now it is reported
        // with the offending flow and id.
        let mut s = valid_scenario();
        s.flows[0].path = vec![NodeId::new(0), NodeId::new(7)];
        let err = s.validate().unwrap_err();
        let (flow, node, stations) = (0, NodeId::new(7), 2);
        assert_eq!(err, ScenarioError::OutsidePlacement { flow, node, stations });
        assert_eq!(
            err.to_string(),
            "flow 0: n7 outside the 2-station placement \
             (NodeIds must be dense indices into `positions`)"
        );
    }

    #[test]
    fn validate_rejects_structural_defects() {
        let mut empty = valid_scenario();
        empty.positions.clear();
        assert_eq!(empty.validate(), Err(ScenarioError::EmptyPlacement));

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
            let err = off_map.validate().unwrap_err();
            assert!(
                matches!(err, ScenarioError::NonFinitePosition { station: 2, position }
                    if position.x.to_bits() == bad.x.to_bits()
                        && position.y.to_bits() == bad.y.to_bits()),
                "{err:?}"
            );
        }

        let mut no_flows = valid_scenario();
        no_flows.flows.clear();
        assert_eq!(no_flows.validate(), Err(ScenarioError::NoFlows));

        let mut short = valid_scenario();
        short.flows[0].path.truncate(1);
        assert_eq!(short.validate(), Err(ScenarioError::ShortPath { flow: 0, len: 1 }));

        let mut looped = valid_scenario();
        looped.flows[0].path = vec![NodeId::new(0), NodeId::new(0)];
        assert_eq!(looped.validate(), Err(ScenarioError::RepeatedHop { flow: 0 }));

        let mut bad_motion = valid_scenario();
        bad_motion.motion.paths = vec![wmn_topology::NodePath::Static; 3];
        let err = bad_motion.validate().unwrap_err();
        assert!(matches!(&err, ScenarioError::Motion(msg) if msg.contains("3 paths")), "{err:?}");

        // `BerModel::new` panics on these once the run builds its stations.
        for ber in [1.5, -0.1, 1.0, f64::NAN] {
            let mut noisy = valid_scenario();
            noisy.params.ber = ber;
            let err = noisy.validate().unwrap_err();
            let ok =
                matches!(&err, ScenarioError::Phy(msg) if msg.contains("ber must be in [0, 1)"));
            assert!(ok, "{err:?}");
        }

        for scheme in [Scheme::Dcf { aggregation: 0 }, Scheme::Ripple { aggregation: 0 }] {
            let unaggregated = Scenario { scheme, ..valid_scenario() };
            assert_eq!(unaggregated.validate(), Err(ScenarioError::ZeroAggregation(scheme)));
        }

        let mut long = valid_scenario();
        long.duration = SimDuration::MAX;
        assert_eq!(long.validate(), Err(ScenarioError::DurationPastLimit(SimDuration::MAX)));

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
        let phy_rule = ScenarioError::Phy(String::new());
        let workload = ScenarioError::Workload { flow: 0, reason: String::new() };
        let motion = ScenarioError::Motion(String::new());
        for (field, s, rule) in [
            ("ifq_capacity", phy(|p| p.ifq_capacity = 0), &phy_rule),
            ("cw_min", phy(|p| (p.cw_min, p.cw_max) = (64, 15)), &phy_rule),
            ("slot", phy(|p| (p.slot, p.sifs) = (SimDuration::ZERO, SimDuration::ZERO)), &phy_rule),
            (
                "mean_off_seconds",
                with(Workload::Web(WebModel { mean_off_seconds: f64::NAN, ..web })),
                &workload,
            ),
            ("pareto_shape", with(Workload::Web(WebModel { pareto_shape: 0.5, ..web })), &workload),
            (
                "bitrate_bps",
                with(Workload::Voip(VoipModel { bitrate_bps: 0.0, ..voip })),
                &workload,
            ),
            (
                "mean_on_seconds",
                with(Workload::Voip(VoipModel { mean_on_seconds: f64::NAN, ..voip })),
                &workload,
            ),
            (
                "packet_bytes",
                with(Workload::Voip(VoipModel { packet_bytes: u32::MAX, ..voip })),
                &workload,
            ),
            (
                "packet_bytes",
                with(Workload::Cbr(CbrModel::new(u32::MAX, SimDuration::from_micros(300)))),
                &workload,
            ),
            ("interval", with(Workload::Cbr(CbrModel::new(1000, SimDuration::ZERO))), &workload),
            ("positions", Scenario { positions: far, ..valid_scenario() }, &motion),
        ] {
            let err = s.validate().unwrap_err();
            assert_eq!(discriminant(&err), discriminant(rule), "{field}: {err:?}");
            assert!(carried(&err).contains(field), "{field}: {err:?}");
        }
        // The carried message reads as the rule that broke.
        let err = with(Workload::Cbr(CbrModel::new(1000, SimDuration::ZERO))).validate();
        assert!(err.unwrap_err().to_string().starts_with("flow 0: "));
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
            let err = s.validate().unwrap_err();
            assert!(matches!(&err, ScenarioError::Phy(msg) if msg.contains(field)), "{err:?}");
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
