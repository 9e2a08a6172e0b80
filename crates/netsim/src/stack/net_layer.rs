//! The network layer of the node stack: per-flow routing decisions.
//!
//! Routes start out predetermined per scenario (the paper's experiments fix
//! each flow's path or forwarder list up front), so this layer holds each
//! flow's path and derives a decision from it on lookup. Opportunistic
//! schemes decide only at each direction's source, with that direction's
//! forwarder list, which is kept alongside the path; per-hop schemes
//! forward each station to the path's next (or, in reverse, previous) one.
//!
//! With [`Scenario::route_refresh`] set, every refresh re-derives each
//! flow's min-ETX path from where the stations stand — the fix for a mobile
//! relay leaving a flow pinned to its stale forwarder list forever. A
//! refresh reads only positions, which are pure functions of time, and
//! draws no RNG, so every route a run will take is known before its first
//! event: `RouteSchedule::of` computes them once per scenario, when it is
//! prepared ([`crate::scenario::Prepared`]), one entry per refresh instant,
//! and every run of it reads them: the loop applies each entry's changes
//! (`NetLayer::refresh`) before the first event at or after its instant. A
//! flow whose endpoints have no path keeps its last-known-good route, so a
//! refresh over an unmoved topology is a behavioural no-op (pinned by the
//! crate's equivalence tests).

use wmn_mac::frame::RouteInfo;
use wmn_phy::{LinkModel, Position};
use wmn_routing::{forwarder_list, LinkGraph};
use wmn_sim::{FlowId, NodeId, SimTime};

use crate::scenario::Scenario;
use crate::stack::phy_io::{last_tick, sample_moving, tick_of};

/// One flow's routes: its current path (source → destination, inclusive;
/// what a traced run records when a refresh changes it), borrowed from the
/// scenario or its route schedule, and, under an opportunistic scheme, the
/// decisions at its two directions' sources.
struct FlowRoutes<'p> {
    path: &'p [NodeId],
    /// The forward and the reverse forwarder list; `None` for a per-hop
    /// scheme.
    lists: Option<[RouteInfo; 2]>,
}

impl<'p> FlowRoutes<'p> {
    fn new(path: &'p [NodeId], opportunistic: bool, max_forwarders: usize) -> FlowRoutes<'p> {
        let lists = opportunistic.then(|| {
            let reversed: Vec<NodeId> = path.iter().rev().copied().collect();
            [path, &reversed[..]].map(|path| RouteInfo::Opportunistic {
                list: forwarder_list(path, max_forwarders).into(),
            })
        });
        FlowRoutes { path, lists }
    }

    /// The decision at `node` in the given direction. Should the path visit
    /// `node` twice, a per-hop flow routes it by its last visit going
    /// forward and its first going in reverse.
    fn route(&self, node: NodeId, forward: bool) -> Option<RouteInfo> {
        let path = self.path;
        let last = path.len() - 1;
        if let Some([fwd, rev]) = &self.lists {
            let (source, list) = if forward { (path[0], fwd) } else { (path[last], rev) };
            return (node == source).then(|| list.clone());
        }
        let hop = if forward {
            path[..last].iter().rposition(|&n| n == node).map(|i| path[i + 1])
        } else {
            path[1..].iter().position(|&n| n == node).map(|i| path[i])
        };
        hop.map(RouteInfo::NextHop)
    }
}

/// One refresh of a run: its instant, and each flow it re-routes,
/// ascending, with the flow's new path.
#[derive(Debug)]
struct Refresh {
    at: SimTime,
    changes: Vec<(FlowId, Vec<NodeId>)>,
}

/// Every refresh of a run, in order: when each runs and what it finds.
#[derive(Debug)]
pub(crate) struct RouteSchedule {
    refreshes: Vec<Refresh>,
}

impl RouteSchedule {
    /// The refreshes of a validated `scenario`, every
    /// [`Scenario::route_refresh`] up to its end, none without one. Each
    /// routes over the positions of the last mobility tick at or before it
    /// ([`last_tick`]): the placement before the first.
    pub(crate) fn of(scenario: &Scenario) -> RouteSchedule {
        let mut refreshes = Vec::new();
        let Some(interval) = scenario.route_refresh else {
            return RouteSchedule { refreshes };
        };
        let Scenario { motion, positions: origin, .. } = scenario;
        let (tick, end) = (tick_of(motion), SimTime::ZERO + scenario.duration);
        let mut paths: Vec<Vec<NodeId>> = scenario.flows.iter().map(|f| f.path.clone()).collect();
        let mut positions = origin.clone();
        let mut sampled = SimTime::ZERO;
        let mut at = SimTime::ZERO + interval;
        while at <= end {
            let t = last_tick(tick, at);
            if t > sampled {
                for (node, position) in sample_moving(motion, origin, t) {
                    positions[node.index()] = position;
                }
                sampled = t;
            }
            let changes = reroute(&scenario.params.link, &positions, &mut paths)
                .into_iter()
                .map(|flow| (flow, paths[flow.index()].clone()))
                .collect();
            refreshes.push(Refresh { at, changes });
            at += interval;
        }
        RouteSchedule { refreshes }
    }

    /// Every station a path of `scenario`'s flows names, at the start or
    /// after a change, ascending: the only stations a frame of the run can
    /// name, queued stale-route frames included.
    pub(crate) fn stations(&self, scenario: &Scenario) -> Vec<NodeId> {
        let initial = scenario.flows.iter().map(|f| &f.path);
        let later =
            self.refreshes.iter().flat_map(|refresh| refresh.changes.iter().map(|(_, path)| path));
        let mut stations: Vec<NodeId> = initial.chain(later).flatten().copied().collect();
        stations.sort_unstable();
        stations.dedup();
        stations
    }
}

/// One routing of the flows over stations at `positions`, the one place a route is
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
pub(crate) struct NetLayer<'p> {
    flows: Vec<FlowRoutes<'p>>,
    /// The cursor into the shared schedule: the refreshes still to apply,
    /// next first.
    pending: &'p [Refresh],
    opportunistic: bool,
    max_forwarders: usize,
}

impl<'p> NetLayer<'p> {
    /// Builds every flow's routes from a validated scenario, with the route
    /// changes its refreshes will apply, read from `schedule`.
    pub(crate) fn build(scenario: &'p Scenario, schedule: &'p RouteSchedule) -> Self {
        let opportunistic = scenario.scheme.is_opportunistic();
        let max_forwarders = scenario.max_forwarders;
        let flows = scenario
            .flows
            .iter()
            .map(|spec| FlowRoutes::new(&spec.path, opportunistic, max_forwarders))
            .collect();
        NetLayer { flows, pending: &schedule.refreshes, opportunistic, max_forwarders }
    }

    /// The routing decision of `flow` at `node`, in the given direction
    /// (`forward` = towards the flow's destination). `None` where the flow
    /// never routes through `node`.
    pub(crate) fn route(&self, flow: FlowId, node: NodeId, forward: bool) -> Option<RouteInfo> {
        self.flows[flow.index()].route(node, forward)
    }

    /// The current path of `flow` (source → destination, inclusive).
    #[cfg(test)]
    pub(crate) fn path(&self, flow: FlowId) -> &'p [NodeId] {
        self.flows[flow.index()].path
    }

    /// The instant of the next refresh, `None` when none is left.
    pub(crate) fn next_refresh(&self) -> Option<SimTime> {
        self.pending.first().map(|refresh| refresh.at)
    }

    /// Applies the next refresh: re-routes each flow it changes, and
    /// returns those flows, ascending, each with its new path.
    pub(crate) fn refresh(&mut self) -> &'p [(FlowId, Vec<NodeId>)] {
        let (refresh, rest) = self.pending.split_first().expect("a refresh is scheduled");
        self.pending = rest;
        for (flow, path) in &refresh.changes {
            self.flows[flow.index()] =
                FlowRoutes::new(path, self.opportunistic, self.max_forwarders);
        }
        &refresh.changes
    }

    /// What a refresh over stations at `positions` changes, computed live
    /// from the routes in force: the changed flows and every flow's path
    /// after the refresh. The schedule oracle's reference.
    #[cfg(test)]
    pub(crate) fn reroute_live(
        &self,
        link: &LinkModel,
        positions: &[Position],
    ) -> (Vec<FlowId>, Vec<Vec<NodeId>>) {
        let mut paths: Vec<Vec<NodeId>> = self.flows.iter().map(|f| f.path.to_vec()).collect();
        let changed = reroute(link, positions, &mut paths);
        (changed, paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Stations the property's paths are drawn over: few enough that most
    /// paths revisit one.
    const STATIONS: u32 = 6;

    /// Per-node routing decisions of one flow direction, indexed by
    /// `NodeId`: `table[node]` is the decision at `node`.
    type RouteTable = Vec<Option<RouteInfo>>;

    /// The dense tables, sized to the placement, that `NetLayer` held per
    /// flow before it derived decisions from the path: the reference
    /// [`FlowRoutes::route`] reproduces, overwrite order included.
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
            fwd[path[0].index()] = Some(RouteInfo::Opportunistic {
                list: forwarder_list(path, max_forwarders).into(),
            });
            rev[reversed[0].index()] = Some(RouteInfo::Opportunistic {
                list: forwarder_list(&reversed, max_forwarders).into(),
            });
        } else {
            for w in path.windows(2) {
                fwd[w[0].index()] = Some(RouteInfo::NextHop(w[1]));
            }
            for w in path.windows(2).rev() {
                rev[w[1].index()] = Some(RouteInfo::NextHop(w[0]));
            }
        }
        (fwd, rev)
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn a_revisited_station_routes_by_its_last_visit_forward_and_its_first_in_reverse() {
        let path = nodes(&[0, 1, 2, 1, 3]);
        let routes = FlowRoutes::new(&path, false, 5);
        let hop = |i| Some(RouteInfo::NextHop(NodeId::new(i)));
        assert_eq!(routes.route(NodeId::new(1), true), hop(3));
        assert_eq!(routes.route(NodeId::new(1), false), hop(0));
        assert_eq!(routes.route(NodeId::new(2), false), hop(1));
        assert_eq!(routes.route(NodeId::new(3), true), None, "the destination forwards nothing");
        assert_eq!(routes.route(NodeId::new(0), false), None, "nor does the source in reverse");
        assert_eq!(routes.route(NodeId::new(4), true), None, "off the path");
    }

    proptest! {
        /// Every decision of every station, both directions, both kinds of
        /// scheme, on paths that may revisit stations (and may even stay at
        /// one for a hop): what the dense tables held.
        #[test]
        fn routes_are_what_the_dense_tables_held(
            ids in proptest::collection::vec(0..STATIONS, 2..10),
            opportunistic in any::<bool>(),
            max_forwarders in 1usize..6,
        ) {
            let path = nodes(&ids);
            let n = STATIONS as usize;
            let (fwd, rev) = build_routes(&path, n, opportunistic, max_forwarders);
            let routes = FlowRoutes::new(&path, opportunistic, max_forwarders);
            for (node, (fwd, rev)) in fwd.iter().zip(&rev).enumerate() {
                let node = NodeId::new(node as u32);
                prop_assert_eq!(&routes.route(node, true), fwd, "forward at {:?}", node);
                prop_assert_eq!(&routes.route(node, false), rev, "reverse at {:?}", node);
            }
        }
    }
}
