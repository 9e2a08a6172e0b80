//! The layered node stack: one engine body on one event loop.
//!
//! The stack mirrors the protocol stack the paper describes, as layers with
//! typed seams:
//!
//! * [`phy_io`] — the air table of transmissions in flight, with their
//!   reception plans, and the mobility step over the medium;
//! * [`mac_engine`] — one [`wmn_mac::MacEntity`] per station, built by the
//!   scenario's [`Scheme`](crate::Scheme), so the engine never names a
//!   concrete MAC;
//! * [`net_layer`] — each flow's path and the routing decisions it gives;
//! * [`flow_layer`] — transport endpoints and workload generators per flow;
//! * [`decode`] — the clean-decode / corruption seam.
//!
//! `station` holds the per-station and per-flow state of those layers, the
//! event queue and the clock, and the only definition of every event
//! handler: MAC actions become transmissions, timers and deliveries;
//! transport actions become enqueues and RTO timers. The loop in this module
//! (`Runner`) pops its queue and lends it the read-mostly world it owns —
//! the medium and the routes. Neither is an event: both are functions of
//! the instant, so before it dispatches an event the loop brings them up to
//! that event's instant — first every route refresh due by then, each over
//! the stations as the last mobility tick before it left them, then the
//! medium to the last tick before the event — and once more at the end of
//! the run. Ticks no event sees are skipped. The routes come from the run's
//! route schedule, which `net_layer` computes once, at build.
//!
//! # Determinism
//!
//! A run is a function of its scenario alone. Tie-break keys count per
//! originating station or flow, and every channel draw is keyed by its
//! transmission and receiver (see `station`), so a static
//! [`MotionPlan`](wmn_topology::MotionPlan), which never moves the medium,
//! and an untraced run, which plans only the stations some route of the run
//! names, change nothing they need not.

pub mod decode;
pub mod flow_layer;
pub mod mac_engine;
pub mod net_layer;
pub mod phy_io;
pub(crate) mod station;

use wmn_mac::TimerToken;
use wmn_phy::Medium;
use wmn_sim::{FlowId, NodeId, SimDuration, SimTime};

use crate::scenario::{Prepared, Scenario};
use crate::trace::{Trace, TraceKind};
use net_layer::NetLayer;
use phy_io::{advance_medium_positions, last_tick, movers, tick_of, Reception};
use station::{StationStack, World};

/// TCP-specific per-flow results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlowResult {
    /// Data segments that arrived at the receiver (incl. duplicates).
    pub segments_arrived: u64,
    /// Arrivals out of order (the paper's re-ordering count).
    pub reordered_arrivals: u64,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// Sender RTO expirations.
    pub timeouts: u64,
}

impl TcpFlowResult {
    /// Fraction of arrivals that were out of order.
    pub fn reorder_fraction(&self) -> f64 {
        if self.segments_arrived == 0 {
            return 0.0;
        }
        self.reordered_arrivals as f64 / self.segments_arrived as f64
    }
}

/// VoIP-specific per-flow results. `PartialEq` compares the `f64` fields
/// exactly — that is the point: the executor's determinism tests assert
/// bit-identical results across worker counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VoipFlowResult {
    /// Datagrams handed to the MAC at the source.
    pub sent: u64,
    /// Distinct datagrams that arrived.
    pub received: u64,
    /// Combined loss: network losses plus late (> 52 ms) arrivals.
    pub loss_fraction: f64,
    /// Mean one-way delay of on-time datagrams.
    pub mean_delay: SimDuration,
    /// 95th-percentile one-way delay (all received datagrams). A p95 near
    /// the 52 ms budget signals imminent late-loss.
    pub p95_delay: SimDuration,
    /// Mean inter-arrival jitter of the delay series.
    pub jitter: SimDuration,
    /// Mean opinion score per the paper's R-factor model.
    pub mos: f64,
}

/// Results for one flow of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowResult {
    /// The flow id (index into the scenario's flow list).
    pub flow: FlowId,
    /// Application-level bytes delivered in order.
    pub delivered_bytes: u64,
    /// Delivered bytes over the scenario duration, Mbps.
    pub throughput_mbps: f64,
    /// TCP details, if the workload was TCP.
    pub tcp: Option<TcpFlowResult>,
    /// VoIP details, if the workload was VoIP.
    pub voip: Option<VoipFlowResult>,
}

/// Results of one complete run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Per-flow results, in scenario order.
    pub flows: Vec<FlowResult>,
    /// Sum of per-flow throughput, Mbps.
    pub total_throughput_mbps: f64,
    /// Per-station MAC statistics (frames sent/received, timeouts, drops).
    pub mac_stats: Vec<wmn_mac::MacStats>,
}

/// The simulation's event vocabulary: what stations and flows schedule,
/// each dispatched by the station stack.
#[derive(Debug)]
pub(crate) enum Event {
    TxEnd { node: NodeId },
    RxStart { reception: Reception },
    RxEnd { reception: Reception },
    MacTimer { node: NodeId, token: TimerToken },
    TcpRto { flow: FlowId, generation: u64 },
    FlowStart { flow: FlowId },
    UdpSend { flow: FlowId },
    WebStart { flow: FlowId },
}

/// Executes a scenario to completion and returns per-flow results: the
/// run of [`Prepared::run`] at the scenario's own seed.
///
/// # Thread safety
///
/// `run` is a pure function of `scenario`: the entire simulation world — MAC state
/// machines, receivers, medium, event queue, and every RNG stream — is built
/// from the scenario's master seed via [`wmn_sim::RngDirectory`] and dropped before
/// returning. There are no globals, no interior mutability shared between
/// runs, no threads and no ambient randomness, so concurrent `run` calls on
/// different scenarios (or different seeds of the same scenario) are
/// independent. [`Scenario`] and [`RunResult`] are `Send` and [`Prepared`]
/// is `Send + Sync` (enforced below at compile time), which is what lets
/// `wmn_exec` share a prepared scenario between worker threads.
///
/// # Panics
///
/// When [`Scenario::prepare`] errs, with its error. Input from outside the
/// program reaches a run through `wmn_scengen`'s `materialise`, which
/// validates first, or through `prepare`, which reports the error.
pub fn run(scenario: &Scenario) -> RunResult {
    prepared(scenario).run(scenario.seed)
}

/// Like [`run`], but also returns the full event [`Trace`] of the run: the
/// run of [`Prepared::run_traced`] at the scenario's own seed.
///
/// # Panics
///
/// When [`Scenario::prepare`] errs, as [`run`] does.
pub fn run_traced(scenario: &Scenario) -> (RunResult, Trace) {
    prepared(scenario).run_traced(scenario.seed)
}

/// `scenario`, prepared for [`run`] and [`run_traced`], which panic on a
/// scenario that breaks a rule.
fn prepared(scenario: &Scenario) -> Prepared<'_> {
    scenario.prepare().unwrap_or_else(|e| panic!("malformed scenario {:?}: {e}", scenario.name))
}

impl Prepared<'_> {
    /// Runs the scenario at `seed` to its end and returns per-flow results.
    pub fn run(&self, seed: u64) -> RunResult {
        let mut runner = Runner::build(self, seed, false);
        runner.run_loop();
        runner.results()
    }

    /// Like [`Prepared::run`], but also returns the full event [`Trace`] of
    /// the run — a pure observer, so the [`RunResult`] equals `run`'s. A
    /// traced run plans receptions at every station, since the trace
    /// records each decode; [`Prepared::run`] skips those nothing can
    /// observe ([`Prepared::observed_stations`]). Tracing costs memory
    /// proportional to the number of transmissions; use short durations.
    pub fn run_traced(&self, seed: u64) -> (RunResult, Trace) {
        let mut runner = Runner::build(self, seed, true);
        runner.run_loop();
        let trace = runner.core.trace.take().expect("built traced");
        (runner.results(), trace)
    }
}

// Compile-time audit for the parallel executor: a scenario (and the scheme
// it names, from which the worker builds every MAC) must be movable to a
// worker thread, a prepared one shareable between them, and each result
// movable back. If a future change smuggles an `Rc`/raw pointer into any of
// them, this fails to compile instead of failing at the `wmn_exec` call
// site. Nothing *between* them is `Send` — pools, frames and MACs count
// without atomics (see `wmn_mac::pool`) — and nothing between them leaves
// the worker.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_shared<T: Send + Sync>() {}
    assert_send::<Scenario>();
    assert_send::<crate::scenario::Scheme>();
    assert_shared::<Prepared<'static>>();
    assert_send::<RunResult>();
};

/// The event loop: owns the world the station stack runs against, and
/// moves it forward in time.
struct Runner<'p> {
    scenario: &'p Scenario,
    medium: Medium,
    net: NetLayer<'p>,
    core: StationStack,
    /// The scenario's mobility tick, `None` for a static plan.
    tick: Option<SimDuration>,
    /// The moving stations a tick moves: those the medium observes.
    movers: Vec<NodeId>,
    /// The tick the medium's positions were sampled at; `SimTime::ZERO`
    /// while it holds the placement.
    ticked: SimTime,
    /// The next instant a mobility tick or a route refresh falls due,
    /// `SimTime::MAX` when none will.
    due: SimTime,
    /// Test reference: every refresh also re-derives the routes from the
    /// medium's live positions and asserts that the schedule's match.
    #[cfg(test)]
    route_oracle: bool,
}

impl<'p> Runner<'p> {
    /// Builds the loop for one run of `prepared` at `seed`, recording a
    /// trace if `traced`; every route the run takes is `prepared`'s.
    fn build(prepared: &'p Prepared<'_>, seed: u64, traced: bool) -> Runner<'p> {
        let scenario = prepared.scenario();
        let core = StationStack::build(prepared, seed, traced);
        let net = NetLayer::build(scenario, &prepared.schedule);
        let mut runner = Runner {
            scenario,
            medium: prepared.medium(traced),
            net,
            core,
            tick: tick_of(&scenario.motion),
            movers: movers(&scenario.motion, prepared.observed_stations(traced)),
            ticked: SimTime::ZERO,
            due: SimTime::MAX,
            #[cfg(test)]
            route_oracle: false,
        };
        runner.due = runner.next_due();
        runner
    }

    /// Pops and processes every event up to the end of the run, and leaves
    /// the world as it stands at the end. Returns the first event past the
    /// end, popped but not processed, if there is one.
    fn run_loop(&mut self) -> Option<Event> {
        // Phase attribution for the counting allocator: everything in the
        // loop is event-loop churn unless a nested scope (tx-path, queue)
        // claims it. No-op outside `wmn_alloc/count` builds.
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::EventLoop);
        let end = self.core.end;
        let past_end = loop {
            let Some((now, event)) = self.core.queue.pop() else { break None };
            if now > end {
                break Some(event);
            }
            if now >= self.due {
                self.catch_up(now);
            }
            self.core.dispatch(event, World { medium: &self.medium, net: &self.net });
        };
        if end >= self.due {
            self.catch_up(end);
        }
        past_end
    }

    /// Brings the world up to `t`: applies every route refresh due by then,
    /// each with the medium moved to the last mobility tick at or before
    /// it, then moves the medium to the last tick at or before `t`. So a
    /// tick runs before a refresh of its instant, and both before the
    /// events of their instant.
    fn catch_up(&mut self, t: SimTime) {
        while let Some(at) = self.net.next_refresh().filter(|&at| at <= t) {
            self.move_medium(last_tick(self.tick, at));
            self.refresh_routes(at);
        }
        self.move_medium(last_tick(self.tick, t));
        self.due = self.next_due();
    }

    /// The next instant a tick (after the one the medium is at) or a
    /// refresh falls due. The first tick is one tick in, since t = 0 is the
    /// placement itself, and the first refresh one interval in, since the
    /// paths the scenario names *are* the min-ETX routes over it.
    fn next_due(&self) -> SimTime {
        let tick = self.tick.map_or(SimTime::MAX, |tick| self.ticked + tick);
        self.net.next_refresh().map_or(tick, |at| at.min(tick))
    }

    /// Moves the medium to the positions of the mobility tick at `at`,
    /// unless it holds them already. Skipping the ticks between is exact:
    /// [`Medium::update_node_positions`] leaves every row as a medium built
    /// over the new positions would hold it.
    fn move_medium(&mut self, at: SimTime) {
        if at > self.ticked {
            let Scenario { motion, positions, .. } = self.scenario;
            advance_medium_positions(&mut self.medium, motion, positions, &self.movers, at);
            self.ticked = at;
        }
    }

    /// The route refresh at `at`: the network layer applies the route
    /// changes the run's schedule holds for it, and a traced run records
    /// each, at `at`. The routes themselves were computed at build, from
    /// the positions of the tick the medium is at now (`RouteSchedule::of`).
    fn refresh_routes(&mut self, at: SimTime) {
        // The live positions, sampled afresh at the tick the medium is at:
        // an untraced run's medium moves only the stations it observes.
        #[cfg(test)]
        let live = self.route_oracle.then(|| {
            let Scenario { motion, positions, params, .. } = self.scenario;
            let mut live = positions.clone();
            if self.ticked > SimTime::ZERO {
                for (node, position) in phy_io::sample_moving(motion, positions, self.ticked) {
                    live[node.index()] = position;
                }
            }
            self.net.reroute_live(&params.link, &live)
        });
        let changed = self.net.refresh();
        #[cfg(test)]
        if let Some((live_changed, live_paths)) = live {
            let flows: Vec<FlowId> = changed.iter().map(|&(flow, _)| flow).collect();
            assert_eq!(flows, live_changed, "flows re-routed at {at:?}");
            for (i, path) in live_paths.iter().enumerate() {
                assert_eq!(self.net.path(FlowId::new(i as u32)), path, "flow {i} at {at:?}");
            }
        }
        if self.core.trace.is_some() {
            for (flow, path) in changed {
                let kind = TraceKind::RouteChange { flow: *flow, path: path.clone() };
                self.core.record_at(at, path[0], kind);
            }
        }
    }

    fn results(&self) -> RunResult {
        let flows = self.core.flows.results(self.scenario);
        let total = flows.iter().map(|f| f.throughput_mbps).sum();
        RunResult { flows, total_throughput_mbps: total, mac_stats: self.core.macs.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::{
        blackout_scenario, drifting_mesh_scenario, drifting_relay_scenario, lossy_scenario,
    };
    use crate::scenario::{FlowSpec, ScenarioError, Scheme, Workload};
    use crate::stack::mac_engine::MacEngine;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wmn_mac::frame::{AckFrame, Frame, Packet, RouteInfo, RxFrame};
    use wmn_mac::{ActionSink, MacAction, MacEntity, MacScheme, MacStats, RateClass};
    use wmn_phy::{PhyParams, Position};
    use wmn_sim::SimTime;
    use wmn_topology::{MotionPlan, NodePath, Waypoint};

    fn line_positions(n: usize) -> Vec<Position> {
        (0..n).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect()
    }

    fn ftp_scenario(scheme: Scheme, path: Vec<u32>, positions: Vec<Position>) -> Scenario {
        Scenario {
            name: "test".into(),
            params: PhyParams::paper_216(),
            positions,
            scheme,
            flows: vec![FlowSpec {
                path: path.into_iter().map(NodeId::new).collect(),
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(200),
            seed: 42,
            max_forwarders: 5,
            motion: MotionPlan::default(),
            route_refresh: None,
            shards: None,
        }
    }

    #[test]
    fn dcf_single_hop_delivers() {
        let s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        let r = run(&s);
        assert!(r.flows[0].delivered_bytes > 100_000, "got {}", r.flows[0].delivered_bytes);
        assert!(r.flows[0].throughput_mbps > 4.0, "got {}", r.flows[0].throughput_mbps);
        let tcp = r.flows[0].tcp.unwrap();
        assert_eq!(tcp.reordered_arrivals, 0, "DCF stop-and-wait never reorders");
    }

    #[test]
    fn dcf_multihop_beats_lossy_direct() {
        // The paper's premise: direct 0->3 (15 m) collapses, the 3-hop
        // route thrives (0.76 vs 7.04 Mbps in the paper).
        let direct =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 3], line_positions(4)));
        let routed =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], line_positions(4)));
        let (d, r) = (direct.flows[0].throughput_mbps, routed.flows[0].throughput_mbps);
        assert!(r > 2.0 * d, "multihop {r} must dominate direct {d}");
        assert!(r > 3.0, "3-hop DCF should sustain a few Mbps, got {r}");
    }

    #[test]
    fn afr_aggregation_beats_plain_dcf() {
        let dcf =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], line_positions(4)));
        let afr = run(&ftp_scenario(
            Scheme::Dcf { aggregation: 16 },
            vec![0, 1, 2, 3],
            line_positions(4),
        ));
        assert!(
            afr.flows[0].throughput_mbps > 1.3 * dcf.flows[0].throughput_mbps,
            "AFR {} must clearly beat DCF {}",
            afr.flows[0].throughput_mbps,
            dcf.flows[0].throughput_mbps
        );
    }

    #[test]
    fn ripple_delivers_in_order_and_beats_dcf() {
        let dcf =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], line_positions(4)));
        let r16 = run(&ftp_scenario(
            Scheme::Ripple { aggregation: 16 },
            vec![0, 1, 2, 3],
            line_positions(4),
        ));
        let tcp = r16.flows[0].tcp.unwrap();
        assert_eq!(tcp.reordered_arrivals, 0, "RIPPLE must not reorder");
        assert!(
            r16.flows[0].throughput_mbps > dcf.flows[0].throughput_mbps,
            "RIPPLE-16 {} must beat DCF {}",
            r16.flows[0].throughput_mbps,
            dcf.flows[0].throughput_mbps
        );
    }

    #[test]
    fn ripple_without_aggregation_still_delivers() {
        let r1 = run(&ftp_scenario(
            Scheme::Ripple { aggregation: 1 },
            vec![0, 1, 2, 3],
            line_positions(4),
        ));
        assert!(r1.flows[0].throughput_mbps > 2.0, "got {}", r1.flows[0].throughput_mbps);
        assert_eq!(r1.flows[0].tcp.unwrap().reordered_arrivals, 0);
    }

    #[test]
    fn preexor_delivers_but_reorders() {
        let pre = run(&ftp_scenario(Scheme::PreExor, vec![0, 1, 2, 3], line_positions(4)));
        assert!(pre.flows[0].delivered_bytes > 50_000, "got {}", pre.flows[0].delivered_bytes);
        let tcp = pre.flows[0].tcp.unwrap();
        assert!(
            tcp.reordered_arrivals > 0,
            "opportunistic relaying with per-hop caching must reorder some packets"
        );
    }

    #[test]
    fn mcexor_delivers() {
        let mce = run(&ftp_scenario(Scheme::McExor, vec![0, 1, 2, 3], line_positions(4)));
        assert!(mce.flows[0].delivered_bytes > 50_000, "got {}", mce.flows[0].delivered_bytes);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.flows[0].delivered_bytes, b.flows[0].delivered_bytes);
        let mut s2 = s;
        s2.seed = 43;
        let c = run(&s2);
        assert_ne!(
            a.flows[0].delivered_bytes, c.flows[0].delivered_bytes,
            "different seeds should explore different sample paths"
        );
    }

    #[test]
    fn voip_flow_reports_mos() {
        let mut s =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        s.flows[0].workload = Workload::Voip(wmn_traffic::VoipModel::paper());
        s.duration = SimDuration::from_millis(500);
        let r = run(&s);
        let v = r.flows[0].voip.expect("voip result");
        assert!(v.sent > 0);
        assert!(v.received > 0, "voice packets must get through");
        assert!(v.mos > 3.0, "a lone VoIP call on a clean mesh should be good: {}", v.mos);
    }

    #[test]
    fn cbr_saturates_and_delivers() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel::saturating());
        let r = run(&s);
        assert!(r.flows[0].throughput_mbps > 10.0, "got {}", r.flows[0].throughput_mbps);
    }

    #[test]
    fn web_flow_transfers_data() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 16 }, vec![0, 1, 2], line_positions(3));
        s.flows[0].workload = Workload::Web(wmn_traffic::WebModel::paper());
        s.duration = SimDuration::from_millis(800);
        let r = run(&s);
        assert!(r.flows[0].delivered_bytes > 0, "web transfers must complete");
    }

    #[test]
    fn explicitly_static_motion_is_bit_identical_to_default() {
        // The runner must not consume RNG, schedule ticks, or perturb
        // anything for a plan that is structurally present but never moves.
        let base =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        let mut explicit = base.clone();
        explicit.motion = MotionPlan { paths: vec![NodePath::Static; 4], ..MotionPlan::default() };
        let mut zero_drift = base.clone();
        zero_drift.motion = MotionPlan {
            paths: vec![NodePath::Drift { vx_mps: 0.0, vy_mps: 0.0 }; 4],
            ..MotionPlan::default()
        };
        let a = run(&base);
        assert_eq!(a, run(&explicit), "explicit static paths must change nothing");
        assert_eq!(a, run(&zero_drift), "zero-velocity drift is static");
    }

    #[test]
    fn departing_node_starves_the_flow() {
        // A 2-node FTP flow whose receiver drifts away at 60 m/s: the link
        // dies mid-run, so a mobile run must deliver strictly less than the
        // static one — and still complete without panicking.
        let base = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        let mut mobile = base.clone();
        mobile.duration = SimDuration::from_millis(400);
        let mut static_long = base;
        static_long.duration = SimDuration::from_millis(400);
        mobile.motion = MotionPlan {
            paths: vec![NodePath::Static, NodePath::Drift { vx_mps: 60.0, vy_mps: 0.0 }],
            tick: SimDuration::from_millis(10),
        };
        let moving = run(&mobile);
        let parked = run(&static_long);
        assert!(
            moving.flows[0].delivered_bytes < parked.flows[0].delivered_bytes / 2,
            "a departing receiver must starve the flow: mobile {} vs static {}",
            moving.flows[0].delivered_bytes,
            parked.flows[0].delivered_bytes
        );
        assert!(moving.flows[0].delivered_bytes > 0, "the early, close-range phase delivers");
    }

    #[test]
    fn waypoint_node_returns_and_recovers() {
        // A saturating CBR sender towards a receiver that walks out to
        // 100 m and (in one variant) back: datagrams flow again as soon as
        // the link returns, so the round trip must deliver strictly more
        // than staying away.
        let positions = line_positions(2);
        let away = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Waypoints(vec![Waypoint {
                    at: SimTime::from_millis(100),
                    pos: Position::new(100.0, 0.0),
                }]),
            ],
            tick: SimDuration::from_millis(10),
        };
        let round_trip = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Waypoints(vec![
                    Waypoint { at: SimTime::from_millis(100), pos: Position::new(100.0, 0.0) },
                    Waypoint { at: SimTime::from_millis(200), pos: Position::new(5.0, 0.0) },
                ]),
            ],
            tick: SimDuration::from_millis(10),
        };
        let mut gone = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], positions);
        gone.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel::saturating());
        gone.duration = SimDuration::from_millis(400);
        let mut back = gone.clone();
        gone.motion = away;
        back.motion = round_trip;
        let gone_r = run(&gone);
        let back_r = run(&back);
        assert!(
            back_r.flows[0].delivered_bytes > gone_r.flows[0].delivered_bytes,
            "returning to range must recover throughput: back {} vs gone {}",
            back_r.flows[0].delivered_bytes,
            gone_r.flows[0].delivered_bytes
        );
        assert!(gone_r.flows[0].delivered_bytes > 0, "the in-range phase delivers");
    }

    #[test]
    fn mobility_ticks_track_positions() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.motion = MotionPlan {
            paths: vec![NodePath::Static, NodePath::Drift { vx_mps: 10.0, vy_mps: 0.0 }],
            tick: SimDuration::from_millis(50),
        };
        s.duration = SimDuration::from_millis(200);
        let prepared = s.prepare().expect("well-formed");
        let mut runner = Runner::build(&prepared, s.seed, false);
        runner.run_loop();
        let p = runner.medium.position(NodeId::new(1));
        // 200 ms at 10 m/s from x = 5: the last tick at or before the end
        // leaves the node at x = 7 (t = 200 ms).
        assert!((p.x - 7.0).abs() < 1e-9, "got {p}");
        assert_eq!(runner.medium.position(NodeId::new(0)), Position::new(0.0, 0.0));
    }

    /// A MAC that logs each enqueue's instant and route and answers it by
    /// sending an ACK frame at once; every other handler does nothing.
    struct EnqueueLog {
        node: NodeId,
        log: Rc<RefCell<Vec<(SimTime, RouteInfo)>>>,
    }

    impl MacEntity for EnqueueLog {
        fn on_enqueue(&mut self, _: Packet, route: RouteInfo, now: SimTime, out: &mut ActionSink) {
            self.log.borrow_mut().push((now, route));
            let frame = Frame::Ack(AckFrame {
                transmitter: self.node,
                to: self.node,
                flow: FlowId::new(0),
                frame_seq: 0,
                acked_seqs: Default::default(),
                relay_list: Default::default(),
            });
            out.push(MacAction::StartTx { frame: frame.into_shared(), rate: RateClass::Basic });
        }
        fn on_busy(&mut self, _: SimTime, _: &mut ActionSink) {}
        fn on_idle(&mut self, _: SimTime, _: &mut ActionSink) {}
        fn on_frame_rx(&mut self, _: RxFrame, _: SimTime, _: &mut ActionSink) {}
        fn on_tx_end(&mut self, _: SimTime, _: &mut ActionSink) {}
        fn on_timer(&mut self, _: TimerToken, _: SimTime, _: &mut ActionSink) {}
        fn stats(&self) -> MacStats {
            MacStats::default()
        }
    }

    #[test]
    fn an_event_at_a_tick_and_a_refresh_sees_the_moved_medium_and_the_new_route() {
        // The drifting relay's source sends every 2 ms from t = 0, so a send
        // falls on every tick (10 ms) and every refresh (50 ms). Its first
        // re-route is at an instant that holds both.
        let base = Scenario {
            route_refresh: Some(SimDuration::from_millis(50)),
            ..drifting_relay_scenario()
        };
        let (_, trace) = run_traced(&base);
        let changes = trace.route_changes(FlowId::new(0));
        let (at, path) = changes.first().map(|(at, path)| (*at, path.to_vec())).expect("re-routed");
        assert_eq!(at, last_tick(tick_of(&base.motion), at), "{at:?} is a tick");

        // The run up to that instant, with the source's send there its last
        // event: its transmission's receptions are queued past the end.
        let scenario = Scenario { duration: at - SimTime::ZERO, ..base };
        let prepared = scenario.prepare().expect("well-formed");
        let mut runner = Runner::build(&prepared, scenario.seed, true);
        let log = Rc::new(RefCell::new(Vec::new()));
        let stations = 0..scenario.positions.len() as u32;
        let mac = |i| Box::new(EnqueueLog { node: NodeId::new(i), log: Rc::clone(&log) });
        runner.core.macs =
            MacEngine::over(stations.map(|i| mac(i) as Box<dyn MacEntity>).collect());
        let first = runner.run_loop();

        // The send at `at` took the new route, the one before it the old.
        let log = log.borrow();
        let [.., (before, old), (sent, new)] = &log[..] else { panic!("two sends: {log:?}") };
        assert_eq!((*before, *sent), (at - SimDuration::from_millis(2), at));
        assert_eq!(*new, RouteInfo::NextHop(path[1]));
        assert_ne!(old, new);

        // Its receptions were planned over the stations as they stand at
        // `at`, not as the tick before left them.
        let stand = |node: NodeId, t: SimTime| {
            scenario.motion.path(node.index()).position_at(scenario.positions[node.index()], t)
        };
        let delay =
            |to, t| scenario.params.propagation_delay(stand(path[0], t).distance_to(stand(to, t)));
        let queued = std::iter::from_fn(|| runner.core.queue.pop().map(|(_, event)| event));
        let mut heard = Vec::new();
        for event in first.into_iter().chain(queued) {
            if let Event::RxStart { reception } = event {
                let plan = runner.core.air.plan(reception);
                assert_eq!(plan.delay, delay(plan.to, at), "to {:?}", plan.to);
                heard.push(plan.to);
            }
        }
        let relay = NodeId::new(1);
        assert!(heard.contains(&relay), "the drifting relay hears the source: {heard:?}");
        let tick_before = at - scenario.motion.tick;
        assert_ne!(delay(relay, at), delay(relay, tick_before), "the relay moved by a whole delay");

        // And the re-route is recorded first among the instant's records.
        let trace = runner.core.trace.take().expect("built traced");
        let kinds: Vec<&TraceKind> =
            trace.events.iter().filter(|e| e.at == at).map(|e| &e.kind).collect();
        assert!(matches!(kinds[..], [TraceKind::RouteChange { .. }, _, ..]), "{kinds:?}");
    }

    #[test]
    fn route_refresh_on_static_topology_is_bit_identical() {
        // Over an unmoved placement the live link graph equals the
        // build-time one, so every refresh is a no-op: same results,
        // no RouteChange events, for any interval.
        let base =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        for interval_ms in [1, 10, 37, 150] {
            let mut refreshed = base.clone();
            refreshed.route_refresh = Some(SimDuration::from_millis(interval_ms));
            let (r, trace) = run_traced(&refreshed);
            assert_eq!(run(&base), r, "refresh every {interval_ms} ms must change nothing");
            assert!(trace.route_changes(FlowId::new(0)).is_empty());
        }
    }

    #[test]
    fn route_refresh_rescues_a_drifting_relay() {
        // The frozen table keeps talking to the departed node forever,
        // while a live refresh re-routes through the spare and keeps the
        // flow alive.
        let stale = drifting_relay_scenario();
        let mut live = stale.clone();
        live.route_refresh = Some(SimDuration::from_millis(50));
        let (live_r, trace) = run_traced(&live);
        let stale_r = run(&stale);
        let changes = trace.route_changes(FlowId::new(0));
        assert!(!changes.is_empty(), "the drift must trigger a re-route");
        let (_, last_path) = changes.last().expect("non-empty");
        assert!(
            last_path.contains(&NodeId::new(4)),
            "the final route must use the spare relay, got {last_path:?}"
        );
        assert!(
            live_r.flows[0].delivered_bytes > stale_r.flows[0].delivered_bytes,
            "live refresh {} must beat the frozen route {}",
            live_r.flows[0].delivered_bytes,
            stale_r.flows[0].delivered_bytes
        );
    }

    /// The allocation gate's drifting mesh, moved onto a 10 ms tick and
    /// carrying VoIP: refreshes read only positions, so the oracle
    /// needs no more traffic than keeps the run short.
    fn voip_drift_mesh() -> Scenario {
        let mesh = drifting_mesh_scenario(SimDuration::from_millis(400));
        let voip = Workload::Voip(wmn_traffic::VoipModel::paper());
        Scenario {
            flows: mesh
                .flows
                .iter()
                .map(|f| FlowSpec { workload: voip.clone(), ..f.clone() })
                .collect(),
            motion: MotionPlan { tick: SimDuration::from_millis(10), ..mesh.motion.clone() },
            ..mesh
        }
    }

    /// A 7×7 grid at 5 m pitch, full of equal-ETX routes, whose every third
    /// station drifts at up to 14 m/s on a 10 ms tick, so links tie exactly
    /// and stop tying as the run goes on; four VoIP flows corner to corner
    /// and edge to edge, on the min-ETX paths over the placement.
    fn voip_drift_grid() -> Scenario {
        const SIDE: u32 = 7;
        let positions: Vec<Position> = (0..SIDE * SIDE)
            .map(|i| Position::new(f64::from(i % SIDE) * 5.0, f64::from(i / SIDE) * 5.0))
            .collect();
        let paths = (0..SIDE * SIDE)
            .map(|i| match i % 3 {
                0 => NodePath::Drift {
                    vx_mps: f64::from(i % 5) * 5.0 - 10.0,
                    vy_mps: f64::from(i % 7) * 3.0 - 9.0,
                },
                _ => NodePath::Static,
            })
            .collect();
        let params = PhyParams::paper_216();
        let graph = wmn_routing::LinkGraph::from_placement(&params.link, &positions);
        let last = SIDE * SIDE - 1;
        let voip = Workload::Voip(wmn_traffic::VoipModel::paper());
        let flows = [(0, last), (SIDE - 1, last - SIDE + 1), (SIDE / 2, last - SIDE / 2), (1, 2)]
            .into_iter()
            .map(|(src, dst)| FlowSpec {
                path: graph.shortest_path(NodeId::new(src), NodeId::new(dst)).expect("a grid"),
                workload: voip.clone(),
            })
            .collect();
        Scenario {
            name: "drift-grid-7x7".into(),
            params,
            positions,
            flows,
            duration: SimDuration::from_millis(300),
            motion: MotionPlan { paths, tick: SimDuration::from_millis(10) },
            ..drifting_relay_scenario()
        }
    }

    #[test]
    fn scheduled_routes_are_the_routes_of_the_live_positions() {
        // The schedule oracle: every refresh also re-derives the routes
        // from the live positions at the tick the loop left the medium at,
        // over the eager `LinkGraph`, and asserts that the ones the
        // schedule's lazy search computed at build match. Refreshes
        // between ticks, across several, and on them.
        let layouts = [
            ("relay", drifting_relay_scenario()),
            ("mesh", voip_drift_mesh()),
            ("grid", voip_drift_grid()),
        ];
        for (layout, base) in layouts {
            assert_eq!(base.motion.tick, SimDuration::from_millis(10));
            for interval_ms in [7, 15, 25, 50] {
                let interval = SimDuration::from_millis(interval_ms);
                let scenario = Scenario { route_refresh: Some(interval), ..base.clone() };
                let prepared = scenario.prepare().expect("well-formed");
                let mut runner = Runner::build(&prepared, scenario.seed, true);
                runner.route_oracle = true;
                runner.run_loop();
                let trace = runner.core.trace.take().expect("built traced");
                let changes = trace
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, TraceKind::RouteChange { .. }))
                    .count();
                assert!(changes > 0, "{layout}, every {interval_ms} ms: no route changed");
            }
        }
    }

    #[test]
    fn the_shard_count_selects_nothing() {
        // `shards` has no effect at any value. Ticks (10 ms) and refreshes
        // (50 ms) coincide here, so catching up on both is on the compared
        // path.
        let mut s = drifting_relay_scenario();
        s.route_refresh = Some(SimDuration::from_millis(50));
        let at = |shards| run(&Scenario { shards, ..s.clone() });
        let none = at(None);
        assert!(none.flows[0].delivered_bytes > 0, "a run that delivers nothing proves nothing");
        for shards in [Some(0), Some(1), Some(2), Some(u32::MAX)] {
            assert_eq!(none, at(shards), "shards {shards:?}");
        }
        // And no count can spawn or lock anything: the crate's sources have
        // no thread, barrier or reader-writer lock left to name (spelled in
        // halves here so this file passes its own scan).
        let banned = [concat!("thread", "::"), concat!("Bar", "rier"), concat!("Rw", "Lock")];
        let mut dirs = vec![std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("crate sources are readable") {
                let path = entry.expect("readable entry").path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("sources are UTF-8");
                for word in banned {
                    assert!(!text.contains(word), "{} names {word}", path.display());
                }
            }
        }
    }

    #[test]
    fn slots_run_what_scheduling_every_arming_runs() {
        // A disarmed or replaced timer's fire would have been ignored: every
        // scheme runs the same with slots as with the `slotless`
        // reference (every arming a plain event, every disarm ignored).
        let traced = |scenario: &Scenario, slotless: bool| {
            let prepared = scenario.prepare().expect("well-formed");
            let mut runner = Runner::build(&prepared, scenario.seed, true);
            runner.core.slotless = slotless;
            runner.run_loop();
            let trace = runner.core.trace.take().expect("built traced");
            (runner.results(), trace, runner.core.mac_timer_pops)
        };
        let schemes = [
            Scheme::Dcf { aggregation: 1 },
            Scheme::Dcf { aggregation: 16 },
            Scheme::Ripple { aggregation: 16 },
            Scheme::PreExor,
            Scheme::McExor,
        ];
        for (layout, base) in [("blackout", blackout_scenario()), ("lossy", lossy_scenario())] {
            for scheme in schemes {
                let scenario = Scenario { scheme, ..base.clone() };
                let label = format!("{layout}, {scheme}");
                let (result, trace, pops) = traced(&scenario, false);
                let (oracle, oracle_trace, oracle_pops) = traced(&scenario, true);
                assert!(result == oracle && trace == oracle_trace, "{label}: runs differ");
                // Not vacuous: cancelled timers went missing, and RTOs fired.
                assert!(pops < oracle_pops, "{label}: {pops} MacTimer pops, were {oracle_pops}");
                let rtos: u64 = result.flows.iter().filter_map(|f| f.tcp).map(|t| t.timeouts).sum();
                assert!(layout == "lossy" || rtos > 0, "{label}: no RTO expired");
            }
        }
    }

    #[test]
    fn a_lossy_run_releases_every_reception_exactly_once() {
        // Every way a reception can end.
        let scenario = lossy_scenario();
        let walker = NodeId::new(scenario.positions.len() as u32 - 1);
        let prepared = scenario.prepare().expect("well-formed");
        let mut runner = Runner::build(&prepared, scenario.seed, false);
        let stopped_at = runner.run_loop();
        let result = runner.results();
        // The receptions still on the air are exactly the RxEnds still
        // queued: once each of those is released, nothing may be pending.
        let queued = std::iter::from_fn(|| runner.core.queue.pop().map(|(_, event)| event));
        let mut on_air = 0;
        for event in stopped_at.into_iter().chain(queued) {
            if let Event::RxEnd { reception } = event {
                runner.core.air.release(reception);
                on_air += 1;
            }
        }
        assert_eq!(runner.core.air.pending(), 0);
        assert!(on_air > 0, "the run ended with receptions on the air");

        let stats = &result.mac_stats;
        assert!(stats.iter().map(|s| s.timeouts).sum::<u64>() > 50, "losses: {stats:?}");
        assert!(result.flows[0].delivered_bytes > 0, "and yet the chain delivers");
        let mut rng = wmn_sim::StreamRng::derive(1, "test/plan");
        let mut plans = Vec::new();
        runner.medium.plan_transmission_into(NodeId::new(0), &mut rng, &mut plans);
        assert!(plans.iter().any(|p| !p.decodable) && plans.iter().any(|p| p.decodable));
        runner.medium.plan_transmission_into(walker, &mut rng, &mut plans);
        assert!(plans.is_empty(), "nobody perceives the walker any more");
        let gave_up = stats[walker.index()].drops_retry_limit;
        assert!(gave_up > 0, "the walker kept transmitting out there: {gave_up} drops");
    }

    #[test]
    fn malformed_motion_plans_are_rejected() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.motion = MotionPlan {
            paths: vec![NodePath::Static; 3], // 3 paths, 2 stations
            ..MotionPlan::default()
        };
        let err = s.prepare().expect_err("3 paths for 2 stations");
        assert!(matches!(&err, ScenarioError::Motion(msg) if msg.contains("3 paths")), "{err}");
    }

    /// Every MAC configuration: DCF, AFR, MCExOR, preExOR, RIPPLE-16.
    const SCHEMES: [Scheme; 5] = [
        Scheme::Dcf { aggregation: 1 },
        Scheme::Dcf { aggregation: 16 },
        Scheme::McExor,
        Scheme::PreExor,
        Scheme::Ripple { aggregation: 16 },
    ];

    /// Layouts with stations outside every route of the run: the frozen
    /// drifting relay (its spare relay is named by no path) and the
    /// drifting mesh (23 of 64 stations named at the start, 29 once its
    /// refreshes re-route), each under `scheme`.
    fn layouts_with_bystanders(scheme: Scheme) -> [Scenario; 2] {
        let relay = Scenario {
            scheme,
            duration: SimDuration::from_millis(150),
            ..drifting_relay_scenario()
        };
        let mesh = Scenario { scheme, ..drifting_mesh_scenario(SimDuration::from_millis(120)) };
        for s in [&relay, &mesh] {
            let observed =
                s.prepare().expect("well-formed").observed_stations(false).map(<[_]>::len);
            assert!(observed < Some(s.positions.len()), "{}: a station off every route", s.name);
        }
        [relay, mesh]
    }

    #[test]
    fn tracing_is_a_pure_observer_with_stations_off_every_route() {
        // A traced run builds every station's MAC, an untraced run only
        // the observed stations'; the results agree bit for bit.
        for scheme in SCHEMES {
            for s in layouts_with_bystanders(scheme) {
                let (traced, _) = run_traced(&s);
                assert_eq!(run(&s), traced, "{} under {scheme}", s.name);
                assert!(traced.flows.iter().any(|f| f.delivered_bytes > 0), "{}", s.name);
            }
        }
    }

    #[test]
    fn mac_stats_name_every_station_and_the_default_off_the_mask() {
        for scheme in SCHEMES {
            // A MAC that has seen no event counts nothing: what the run
            // reports where it built none.
            let dir = wmn_sim::RngDirectory::new(1);
            let fresh = scheme.build_mac(
                &PhyParams::paper_216(),
                NodeId::new(0),
                dir.indexed_stream(wmn_sim::labels::MAC, 0),
            );
            assert_eq!(fresh.stats(), MacStats::default(), "{scheme}");
            for s in layouts_with_bystanders(scheme) {
                let prepared = s.prepare().expect("well-formed");
                let observed = prepared.observed_stations(false).expect("untraced");
                let stats = prepared.run(s.seed).mac_stats;
                assert_eq!(stats.len(), s.positions.len(), "{}", s.name);
                for (i, station) in stats.iter().enumerate() {
                    let kept = observed.contains(&NodeId::new(i as u32));
                    assert!(kept || *station == MacStats::default(), "{}: station {i}", s.name);
                }
                assert!(stats.iter().any(|station| *station != MacStats::default()), "{}", s.name);
            }
        }
    }
}
