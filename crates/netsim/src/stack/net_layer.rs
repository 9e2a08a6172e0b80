//! The network layer of the node stack: per-flow routing decisions.
//!
//! Routes start out predetermined per scenario (the paper's experiments fix
//! each flow's path or forwarder list up front), so this layer is pure
//! lookup tables: for every flow, a forward and a reverse table mapping each
//! node to its routing decision. Opportunistic schemes collapse to a single
//! decision at each direction's source (the forwarder list); per-hop
//! schemes get one next-hop entry per interior window of the path.
//!
//! With [`Scenario::route_refresh`] set, every refresh pass re-derives each
//! flow's min-ETX path from where the stations stand — the fix for a mobile
//! relay leaving a flow pinned to its stale forwarder list forever. A pass
//! reads only positions, which are pure functions of time, and draws no
//! RNG, so every route a run will take is known before its first event:
//! `RouteSchedule::of` computes them once, when the run is built, one entry
//! per refresh instant, and the loop arms each refresh pass at the next
//! entry's instant and applies its changes (`NetLayer::refresh`). A flow
//! whose endpoints have no path keeps its last-known-good route, so a
//! refresh over an unmoved topology is a behavioural no-op (pinned by the
//! crate's equivalence tests).

use std::collections::VecDeque;

use wmn_mac::frame::RouteInfo;
use wmn_phy::{LinkModel, Position};
use wmn_routing::{forwarder_list, LinkGraph};
use wmn_sim::{FlowId, NodeId, SimTime};

use crate::scenario::Scenario;
use crate::stack::phy_io::sample_moving;
use crate::stack::station::next_firing;

/// Per-node routing decisions of one flow direction, indexed by `NodeId`
/// (ids are dense indices per [`Scenario::validate`]): `table[node]` is the
/// decision at `node`, `None` where the flow never routes through.
type RouteTable = Vec<Option<RouteInfo>>;

/// Both directions of one flow's routing decisions, plus the path they were
/// derived from (what a traced run records when a refresh changes it).
struct FlowRoutes {
    path: Vec<NodeId>,
    fwd: RouteTable,
    rev: RouteTable,
}

/// One refresh pass of a run: its instant, and each flow it re-routes,
/// ascending, with the flow's new path.
struct RefreshPass {
    at: SimTime,
    changes: Vec<(FlowId, Vec<NodeId>)>,
}

/// Every refresh pass of a run, in order: when each runs and what it finds.
pub(crate) struct RouteSchedule {
    passes: Vec<RefreshPass>,
}

impl RouteSchedule {
    /// The refresh passes of a validated `scenario`, none without
    /// [`Scenario::route_refresh`]. Passes and mobility ticks fire on the
    /// instants [`next_firing`] gives, the rule the loop re-arms ticks by,
    /// and a tick runs before a pass of its instant, so a pass routes over
    /// the positions of the last tick at or before it: the placement before
    /// the first.
    pub(crate) fn of(scenario: &Scenario) -> RouteSchedule {
        let mut passes = Vec::new();
        let Some(interval) = scenario.route_refresh else {
            return RouteSchedule { passes };
        };
        let Scenario { motion, positions: origin, .. } = scenario;
        let end = SimTime::ZERO + scenario.duration;
        let mut paths: Vec<Vec<NodeId>> = scenario.flows.iter().map(|f| f.path.clone()).collect();
        let mut positions = origin.clone();
        let mut tick = (!motion.is_static()).then_some(SimTime::ZERO + motion.tick);
        let mut next = next_firing(SimTime::ZERO, interval, end);
        while let Some(at) = next {
            let mut moved = None;
            while let Some(t) = tick.filter(|&t| t <= at) {
                moved = Some(t);
                tick = next_firing(t, motion.tick, end);
            }
            if let Some(t) = moved {
                for (node, position) in sample_moving(motion, origin, t) {
                    positions[node.index()] = position;
                }
            }
            let changes = reroute(&scenario.params.link, &positions, &mut paths)
                .into_iter()
                .map(|flow| (flow, paths[flow.index()].clone()))
                .collect();
            passes.push(RefreshPass { at, changes });
            next = next_firing(at, interval, end);
        }
        RouteSchedule { passes }
    }

    /// Every station a path of `scenario`'s flows names, at the start or
    /// after a change, ascending: the only stations a frame of the run can
    /// name, queued stale-route frames included.
    pub(crate) fn stations(&self, scenario: &Scenario) -> Vec<NodeId> {
        let initial = scenario.flows.iter().map(|f| &f.path);
        let later = self.passes.iter().flat_map(|pass| pass.changes.iter().map(|(_, path)| path));
        let mut stations: Vec<NodeId> = initial.chain(later).flatten().copied().collect();
        stations.sort_unstable();
        stations.dedup();
        stations
    }
}

/// One routing pass over stations at `positions`, the one place a route is
/// computed: each flow's min-ETX path between the endpoints of `paths`.
/// Rewrites the paths that changed and returns their flows, ascending.
///
/// A flow whose endpoints have no usable path keeps its last-known-good
/// route — a transiently partitioned flow should recover when its relay
/// comes back, not forget how to route entirely. So does every flow when
/// the graph does not build: `Scenario::validate` admits only finite
/// positions and a finite link model, so that takes a degenerate model
/// (σ = 0 with a pair exactly on the receive threshold: 0/0).
fn reroute(link: &LinkModel, positions: &[Position], paths: &mut [Vec<NodeId>]) -> Vec<FlowId> {
    let Ok(graph) = LinkGraph::try_from_placement(link, positions) else {
        return Vec::new();
    };
    let mut changed = Vec::new();
    for (i, current) in paths.iter_mut().enumerate() {
        let (src, dst) = (current[0], *current.last().expect("non-empty path"));
        match graph.shortest_path(src, dst) {
            Some(path) if path != *current => {
                *current = path;
                changed.push(FlowId::new(i as u32));
            }
            _ => {}
        }
    }
    changed
}

/// The network layer: routing decisions for every flow of a run.
pub(crate) struct NetLayer {
    flows: Vec<FlowRoutes>,
    /// The refresh passes still to run, next first.
    schedule: VecDeque<RefreshPass>,
    /// Placement size (dense `NodeId` namespace) the tables are sized to.
    n: usize,
    opportunistic: bool,
    max_forwarders: usize,
}

impl NetLayer {
    /// Builds the per-flow route tables from a validated scenario, with the
    /// route changes its refresh passes will apply.
    pub(crate) fn build(scenario: &Scenario, schedule: RouteSchedule) -> Self {
        let n = scenario.positions.len();
        let opportunistic = scenario.scheme.is_opportunistic();
        let flows = scenario
            .flows
            .iter()
            .map(|spec| {
                let path = spec.path.clone();
                let (fwd, rev) = build_routes(&path, n, opportunistic, scenario.max_forwarders);
                FlowRoutes { path, fwd, rev }
            })
            .collect();
        NetLayer {
            flows,
            schedule: schedule.passes.into(),
            n,
            opportunistic,
            max_forwarders: scenario.max_forwarders,
        }
    }

    /// The routing decision of `flow` at `node`, in the given direction
    /// (`forward` = towards the flow's destination). `None` where the flow
    /// never routes through `node`.
    pub(crate) fn route(&self, flow: FlowId, node: NodeId, forward: bool) -> Option<RouteInfo> {
        let routes = &self.flows[flow.index()];
        let table = if forward { &routes.fwd } else { &routes.rev };
        table[node.index()].clone()
    }

    /// The current path of `flow` (source → destination, inclusive).
    pub(crate) fn path(&self, flow: FlowId) -> &[NodeId] {
        &self.flows[flow.index()].path
    }

    /// The instant of the next refresh pass, `None` when none is left: where
    /// the loop arms it.
    pub(crate) fn next_refresh(&self) -> Option<SimTime> {
        self.schedule.front().map(|pass| pass.at)
    }

    /// The refresh pass at `now`: rebuilds the tables of each flow it
    /// re-routes, and returns those flows, ascending.
    ///
    /// # Panics
    ///
    /// If the next scheduled pass is not at `now`: the loop ran a pass the
    /// schedule does not hold, and every later route would be applied late.
    pub(crate) fn refresh(&mut self, now: SimTime) -> Vec<FlowId> {
        let pass = self.schedule.pop_front().expect("a refresh pass is scheduled");
        assert_eq!(pass.at, now, "the refresh pass scheduled at {:?} ran at {now:?}", pass.at);
        let Self { flows, n, opportunistic, max_forwarders, .. } = self;
        let reroute = |(flow, path): (FlowId, Vec<NodeId>)| {
            let (fwd, rev) = build_routes(&path, *n, *opportunistic, *max_forwarders);
            flows[flow.index()] = FlowRoutes { path, fwd, rev };
            flow
        };
        pass.changes.into_iter().map(reroute).collect()
    }

    /// What a refresh pass over stations at `positions` changes, computed
    /// live from the routes in force: the changed flows and every flow's
    /// path after the pass. The schedule oracle's reference.
    #[cfg(test)]
    pub(crate) fn reroute_live(
        &self,
        link: &LinkModel,
        positions: &[Position],
    ) -> (Vec<FlowId>, Vec<Vec<NodeId>>) {
        let mut paths: Vec<Vec<NodeId>> = self.flows.iter().map(|f| f.path.clone()).collect();
        let changed = reroute(link, positions, &mut paths);
        (changed, paths)
    }
}

/// Builds per-node routing decisions for both directions of a flow path, as
/// dense `NodeId`-indexed tables pre-sized to the placement. The path is
/// borrowed throughout; the only reversal is materialised for the
/// opportunistic forwarder list, which genuinely needs a reversed slice.
fn build_routes(
    path: &[NodeId],
    n: usize,
    opportunistic: bool,
    max_forwarders: usize,
) -> (RouteTable, RouteTable) {
    let mut fwd: RouteTable = vec![None; n];
    let mut rev: RouteTable = vec![None; n];
    if opportunistic {
        let reversed: Vec<NodeId> = path.iter().rev().copied().collect();
        fwd[path[0].index()] =
            Some(RouteInfo::Opportunistic { list: forwarder_list(path, max_forwarders).into() });
        rev[reversed[0].index()] = Some(RouteInfo::Opportunistic {
            list: forwarder_list(&reversed, max_forwarders).into(),
        });
    } else {
        for w in path.windows(2) {
            fwd[w[0].index()] = Some(RouteInfo::NextHop(w[1]));
        }
        // Walk the forward windows back to front — the same overwrite order
        // the reversed-path construction had, should a path revisit a node.
        for w in path.windows(2).rev() {
            rev[w[1].index()] = Some(RouteInfo::NextHop(w[0]));
        }
    }
    (fwd, rev)
}
