//! The layered node stack: one engine body on one event loop.
//!
//! The stack mirrors the protocol stack the paper describes, as layers with
//! typed seams:
//!
//! * [`phy_io`] — the air table of transmissions in flight, with their
//!   reception plans, and the mobility step over the medium;
//! * [`mac_engine`] — one [`wmn_mac::MacEntity`] per station, built through
//!   the [`wmn_mac::MacScheme`] factory trait (enum-dispatched by
//!   [`Scheme`](crate::Scheme), so the engine never names a concrete MAC);
//! * [`net_layer`] — per-flow forward/reverse routing tables;
//! * [`flow_layer`] — transport endpoints and workload generators per flow;
//! * [`decode`] — the clean-decode / corruption seam.
//!
//! `station` holds the per-station and per-flow state of those layers, the
//! event queue and the clock, and the only definition of every event
//! handler: MAC actions become transmissions, timers and deliveries;
//! transport actions become enqueues and RTO timers. The loop in this module
//! (`Runner`) pops its queue and lends it the read-mostly world it owns —
//! the medium and the routing tables — and runs the two global passes that
//! mutate that world, as events in the same queue: mobility ticks
//! re-sampling trajectories into the medium's incremental link-state
//! refresh, and live route refreshes.
//!
//! # Determinism
//!
//! A run is a function of its scenario alone. Tie-break keys count per
//! originating station, flow or pass, and every channel draw is keyed by
//! its transmission and receiver (see `station`), so a static
//! [`MotionPlan`](wmn_topology::MotionPlan), which schedules no mobility
//! ticks, and an untraced run, which plans only the stations it observes,
//! change nothing they need not.

pub mod decode;
pub mod flow_layer;
pub mod mac_engine;
pub mod net_layer;
pub mod phy_io;
pub(crate) mod station;

use wmn_mac::TimerToken;
use wmn_phy::Medium;
use wmn_routing::LinkGraph;
use wmn_sim::{FlowId, NodeId, SimDuration};

use crate::scenario::Scenario;
use crate::trace::{Trace, TraceKind};
use net_layer::NetLayer;
use phy_io::{advance_medium_positions, Reception};
use station::{Pass, StationStack, World};

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

/// The simulation's event vocabulary: everything but the last variant is
/// dispatched by the station stack.
#[derive(Debug)]
pub(crate) enum Event {
    TxEnd {
        node: NodeId,
    },
    RxStart {
        reception: Reception,
    },
    RxEnd {
        reception: Reception,
    },
    MacTimer {
        node: NodeId,
        token: TimerToken,
    },
    TcpRto {
        flow: FlowId,
        generation: u64,
    },
    FlowStart {
        flow: FlowId,
    },
    UdpSend {
        flow: FlowId,
    },
    WebStart {
        flow: FlowId,
    },
    /// One of the loop's global passes: a mobility tick (never scheduled
    /// for static motion plans) or a route refresh (never scheduled unless
    /// [`Scenario::route_refresh`] is set).
    Pass(Pass),
}

/// Executes a scenario to completion and returns per-flow results.
///
/// # Thread safety
///
/// `run` is a pure function of `scenario`: the entire simulation world — MAC state
/// machines, receivers, medium, event queue, and every RNG stream — is built
/// from the scenario's master seed via [`wmn_sim::RngDirectory`] and dropped before
/// returning. There are no globals, no interior mutability shared between
/// runs, no threads and no ambient randomness, so concurrent `run` calls on
/// different scenarios (or different seeds of the same scenario) are
/// independent. [`Scenario`] and [`RunResult`] are `Send` (enforced below at
/// compile time), which is what lets `wmn_exec` move runs onto worker threads.
///
/// # Panics
///
/// Exactly when [`Scenario::validate`] errs, with its message: a scenario
/// it accepts runs to its end. Input from outside the program reaches `run`
/// through `wmn_scengen`'s `materialise`, which validates first.
pub fn run(scenario: &Scenario) -> RunResult {
    let mut runner = Runner::build(scenario, false);
    runner.run_loop();
    runner.results()
}

// Compile-time audit for the parallel executor: a scenario (and the scheme
// it names, from which the worker builds every MAC) must be movable to a
// worker thread and its result movable back. If a future change smuggles
// an `Rc`/raw pointer into any of them, this fails to compile instead of
// failing at the `wmn_exec` call site. Nothing *between* the two is `Send`
// — pools, frames and MACs count without atomics (see `wmn_mac::pool`) —
// and nothing between them leaves the worker.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<crate::scenario::Scheme>();
    assert_send::<RunResult>();
};

/// Like [`run`], but also returns the full event [`Trace`] of the run — a
/// pure observer, so the [`RunResult`] equals `run`'s. A traced run plans
/// receptions at every station, since the trace records each decode;
/// [`run`] skips those nothing can observe ([`Scenario::observed_stations`]).
/// Tracing costs memory proportional to the number of transmissions; use
/// short durations.
///
/// # Panics
///
/// Exactly when [`Scenario::validate`] errs, as [`run`] does.
pub fn run_traced(scenario: &Scenario) -> (RunResult, Trace) {
    let mut runner = Runner::build(scenario, true);
    runner.run_loop();
    let trace = runner.core.trace.take().expect("built traced");
    (runner.results(), trace)
}

/// The event loop: owns the world the station stack runs against and the
/// two global passes that mutate it.
struct Runner<'a> {
    scenario: &'a Scenario,
    medium: Medium,
    net: NetLayer,
    core: StationStack,
}

impl<'a> Runner<'a> {
    /// Builds the loop for `scenario`, recording a trace if `traced`, with
    /// the global passes scheduled on their own key lane.
    fn build(scenario: &'a Scenario, traced: bool) -> Runner<'a> {
        if let Err(msg) = scenario.validate() {
            panic!("malformed scenario: {msg}");
        }
        let mut core = StationStack::build(scenario, traced);
        if !scenario.motion.is_static() {
            // First re-sample one tick in: t = 0 is the placement itself.
            core.schedule_pass(scenario.motion.tick, Pass::Mobility);
        }
        if let Some(interval) = scenario.route_refresh {
            // First refresh one interval in: the build-time tables *are* the
            // min-ETX routes over the t = 0 placement.
            core.schedule_pass(interval, Pass::Refresh);
        }
        Runner {
            scenario,
            medium: Medium::new(scenario.params.clone(), scenario.positions.clone()),
            net: NetLayer::build(scenario),
            core,
        }
    }

    /// Pops and processes every event up to the end of the run. Returns the
    /// first event past the end, popped but not processed, if there is one.
    fn run_loop(&mut self) -> Option<Event> {
        // Phase attribution for the counting allocator: everything in the
        // loop is event-loop churn unless a nested scope (tx-path, queue)
        // claims it. No-op outside `wmn_alloc/count` builds.
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::EventLoop);
        loop {
            let (now, event) = self.core.queue.pop()?;
            if now > self.core.end {
                return Some(event);
            }
            match event {
                Event::Pass(Pass::Mobility) => {
                    let Scenario { motion, positions, .. } = self.scenario;
                    advance_medium_positions(&mut self.medium, motion, positions, now);
                    self.reschedule(motion.tick, Pass::Mobility);
                }
                Event::Pass(Pass::Refresh) => {
                    self.refresh_routes();
                    let interval = self.scenario.route_refresh.expect("scheduled only when set");
                    self.reschedule(interval, Pass::Refresh);
                }
                event => {
                    self.core.dispatch(event, World { medium: &self.medium, net: &self.net });
                }
            }
        }
    }

    /// Re-arms a periodic global pass unless its next firing is past the end.
    fn reschedule(&mut self, period: SimDuration, pass: Pass) {
        if self.core.now() + period <= self.core.end {
            self.core.schedule_pass(period, pass);
        }
    }

    /// One live routing pass: rebuild the link graph from the link model and
    /// the stations' current positions, and let the network layer re-derive
    /// its tables. The pass reads no medium row (so it builds none) and
    /// consumes no RNG. `Scenario::validate` admits only finite positions
    /// and a finite link model, so graph construction fails only on a
    /// degenerate model (σ = 0 with a pair exactly on the receive
    /// threshold: 0/0); the last-known-good routes then stay in force, same
    /// as a transient partition.
    fn refresh_routes(&mut self) {
        let link = &self.medium.params().link;
        let Ok(graph) = LinkGraph::try_from_placement(link, self.medium.positions()) else {
            return;
        };
        let changed = self.net.refresh(&graph);
        if self.core.trace.is_some() {
            for flow in changed {
                let path = self.net.path(flow).to_vec();
                let src = path[0];
                self.core.record(src, TraceKind::RouteChange { flow, path });
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
    use crate::layouts::{blackout_scenario, drifting_relay_scenario, lossy_scenario};
    use crate::scenario::{FlowSpec, Scheme, Workload};
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
        let mut runner = Runner::build(&s, false);
        runner.run_loop();
        let p = runner.medium.position(NodeId::new(1));
        // 200 ms at 10 m/s from x = 5: the last tick at or before the end
        // leaves the node at x = 7 (t = 200 ms).
        assert!((p.x - 7.0).abs() < 1e-9, "got {p}");
        assert_eq!(runner.medium.position(NodeId::new(0)), Position::new(0.0, 0.0));
    }

    #[test]
    fn route_refresh_on_static_topology_is_bit_identical() {
        // Over an unmoved placement the live link graph equals the
        // build-time one, so every refresh pass is a no-op: same results,
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

    #[test]
    fn the_shard_count_selects_nothing() {
        // `shards` has no effect at any value. Ticks (10 ms) and refreshes
        // (50 ms) coincide here, so the pass lane is on the compared path.
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
            let mut runner = Runner::build(scenario, true);
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
                let label = format!("{layout}, {}", scheme.label());
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
        let mut runner = Runner::build(&scenario, false);
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
    #[should_panic(expected = "malformed scenario")]
    fn malformed_motion_plans_are_rejected() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.motion = MotionPlan {
            paths: vec![NodePath::Static; 3], // 3 paths, 2 stations
            ..MotionPlan::default()
        };
        let _ = run(&s);
    }
}
