//! The sharded conservative engine: intra-scenario parallelism with
//! bit-identical results at any shard count.
//!
//! # The window protocol
//!
//! Stations are partitioned into spatial strips (`partition`); each
//! shard's `worker` owns its stations' MAC/PHY state, the flows sourced
//! at those stations, and a keyed event queue. The coordinator repeatedly
//! grants a *window*: with `T_min` the earliest pending event anywhere and
//! `L` the propagation delay of the closest sensed cross-shard pair
//! ([`Medium::min_cross_group_delay`]), every event strictly before
//! `H = min(T_min + L, segment_end)` is safe to process in parallel — a
//! frame transmitted at `t ≥ T_min` reaches another shard no earlier than
//! `t + L ≥ H`, so nothing processed inside the window can be invalidated
//! by a peer. Boundary-crossing receptions ride `worker::CrossShardArrival`
//! records to the owner's mailbox at the window barrier, carrying the
//! transmitter-minted [`EventKey`]s that keep the receiver's pop order
//! identical to a single-queue run.
//!
//! Two degenerate regimes keep the protocol exact instead of approximate:
//! no sensed cross-shard pair (`L = None`) means shards cannot interact
//! until the topology changes, so the window opens to the whole segment;
//! a zero-delay pair (`L = 0`) leaves no safe parallel window at all, so
//! the coordinator falls back to serial steps — one globally-minimal event
//! per round — and the run degrades to the single-loop schedule rather
//! than to a wrong one.
//!
//! # Barriers
//!
//! Mobility ticks and route refreshes mutate global state (the medium's
//! link matrix, the routing tables), so they run on the coordinator at
//! segment boundaries, behind the only `.write()` locks in the engine:
//! every worker is parked between windows whenever the coordinator holds
//! one. Each barrier also invalidates the lookahead, which is recomputed
//! from the moved topology before the next window. Events scheduled at
//! exactly a barrier's instant process *after* the barrier's effect —
//! a fixed rule, applied identically at every shard count.
//!
//! # The determinism contract
//!
//! For a fixed scenario, `shards: Some(k)` yields bit-identical
//! [`RunResult`]s for every `k ≥ 1` — pinned by the engine tests and the
//! CI shard-determinism job. `Some(k)` is *not* byte-identical to the
//! legacy single-loop engine (`shards: None`): sharded runs consume
//! per-entity RNG streams (`shard/medium/<tx>`, `shard/ber/<rx>`) where
//! the legacy engine consumes two global ones, a relabelling that keeps
//! per-entity draw order shard-invariant. The committed CI baseline runs
//! the legacy engine and stays byte-for-byte unchanged.

pub(crate) mod partition;
pub(crate) mod worker;

use std::sync::{Arc, Barrier, Mutex, RwLock};

use wmn_phy::Medium;
use wmn_routing::LinkGraph;
use wmn_sim::{EventKey, FlowId, SimDuration, SimTime};

use crate::scenario::Scenario;
use crate::stack::flow_layer::{flow_result, FlowEndpoints};
use crate::stack::net_layer::NetLayer;
use crate::stack::phy_io::advance_medium_positions;
use crate::stack::RunResult;
use partition::partition_stations;
use worker::{Command, CrossShardArrival, ShardWorker, WindowReport};

/// Executes a scenario on `shards` conservative shards and returns the
/// same [`RunResult`] any other shard count would produce.
///
/// # Panics
///
/// Panics on malformed scenarios, like the single-loop engine.
pub(crate) fn run_sharded(scenario: &Scenario, shards: u32) -> RunResult {
    if let Err(msg) = scenario.validate() {
        panic!("malformed scenario: {msg}");
    }
    let part = partition_stations(&scenario.positions, shards);
    let k = part.shard_count();
    let owner = Arc::new(part.owner);
    let flow_owner: Arc<Vec<u32>> =
        Arc::new(scenario.flows.iter().map(|f| owner[f.src().index()]).collect());
    let medium =
        Arc::new(RwLock::new(Medium::new(scenario.params.clone(), scenario.positions.clone())));
    let net = Arc::new(RwLock::new(NetLayer::build(scenario)));

    let workers: Vec<ShardWorker> = (0..k as u32)
        .map(|shard| {
            ShardWorker::build(
                scenario,
                shard,
                Arc::clone(&owner),
                Arc::clone(&flow_owner),
                Arc::clone(&medium),
                Arc::clone(&net),
            )
        })
        .collect();
    // The first horizon needs every shard's earliest pending event; read it
    // off the freshly-seeded queues before the threads take ownership.
    let mut next: Vec<Option<(SimTime, EventKey)>> =
        workers.iter().map(ShardWorker::next_pending).collect();

    let end = SimTime::ZERO + scenario.duration;
    // Legacy semantics: events at exactly `end` still process, so the open
    // horizon bound ("strictly before") sits one representable instant past
    // the end of time.
    let eot = end + SimDuration::from_nanos(1);
    let mut next_mobility =
        (!scenario.motion.is_static()).then(|| SimTime::ZERO + scenario.motion.tick);
    let mut next_refresh = scenario.route_refresh.map(|interval| SimTime::ZERO + interval);

    let start = Barrier::new(k + 1);
    let done = Barrier::new(k + 1);
    let command = Mutex::new(Command::Stop);
    let mailboxes: Vec<Mutex<Vec<CrossShardArrival>>> =
        (0..k).map(|_| Mutex::new(Vec::new())).collect();
    let reports: Vec<Mutex<WindowReport>> =
        (0..k).map(|_| Mutex::new(WindowReport::default())).collect();

    let workers: Vec<ShardWorker> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let (start, done, command) = (&start, &done, &command);
                let (mailbox, report) = (&mailboxes[i], &reports[i]);
                scope.spawn(move || worker_loop(w, start, done, command, mailbox, report))
            })
            .collect();

        loop {
            // One inter-barrier segment: windows may not cross the next
            // global mutation (mobility tick / route refresh).
            let seg_end =
                [next_mobility, next_refresh].into_iter().flatten().min().unwrap_or(eot).min(eot);
            let lookahead =
                medium.read().expect("medium lock poisoned").min_cross_group_delay(&owner);
            while let Some((t_min, _, min_shard)) = earliest(&next) {
                if t_min >= seg_end {
                    break;
                }
                let cmd = match lookahead {
                    // No sensed cross-shard pair: shards cannot interact
                    // before the next topology change.
                    None => Command::Window { horizon: seg_end },
                    // A zero-delay pair leaves no safe window: degrade to
                    // the exact serial schedule, one global minimum per
                    // round.
                    Some(SimDuration::ZERO) => Command::Step { shard: min_shard },
                    Some(l) => Command::Window { horizon: (t_min + l).min(seg_end) },
                };
                *command.lock().expect("command lock poisoned") = cmd;
                start.wait();
                done.wait();
                merge_round(&reports, &mailboxes, &owner, &mut next);
            }
            if seg_end >= eot {
                break;
            }
            // Global-state barriers, in a fixed order (mobility first, then
            // routing over the moved topology). Workers are parked at
            // `start.wait()`, so these are the engine's only write locks.
            if next_mobility == Some(seg_end) {
                {
                    let mut medium = medium.write().expect("medium lock poisoned");
                    advance_medium_positions(
                        &mut medium,
                        &scenario.motion,
                        &scenario.positions,
                        seg_end,
                    );
                }
                let tick = scenario.motion.tick;
                next_mobility = (seg_end + tick <= end).then(|| seg_end + tick);
            }
            if next_refresh == Some(seg_end) {
                let graph = {
                    let medium = medium.read().expect("medium lock poisoned");
                    LinkGraph::try_from_medium(&medium).ok()
                };
                // A corrupted medium keeps the last-known-good routes in
                // force, same as the single-loop engine.
                if let Some(graph) = graph {
                    net.write().expect("net lock poisoned").refresh(&graph);
                }
                let interval = scenario.route_refresh.expect("scheduled only when set");
                next_refresh = (seg_end + interval <= end).then(|| seg_end + interval);
            }
        }

        *command.lock().expect("command lock poisoned") = Command::Stop;
        start.wait();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });

    merge_results(scenario, &workers, &owner, &flow_owner)
}

/// One worker thread: park at the start barrier, obey the coordinator's
/// command, report, park at the done barrier. On `Stop` the worker returns
/// its state for the results merge *without* touching the done barrier —
/// the coordinator stops waiting there too.
fn worker_loop(
    mut w: ShardWorker,
    start: &Barrier,
    done: &Barrier,
    command: &Mutex<Command>,
    mailbox: &Mutex<Vec<CrossShardArrival>>,
    report: &Mutex<WindowReport>,
) -> ShardWorker {
    loop {
        start.wait();
        let cmd = *command.lock().expect("command lock poisoned");
        if let Command::Stop = cmd {
            return w;
        }
        // Frames routed here at the previous boundary enter the queue
        // before any processing, whatever the command.
        for entry in mailbox.lock().expect("mailbox lock poisoned").drain(..) {
            w.inject(entry);
        }
        match cmd {
            Command::Window { horizon } => w.run_window(horizon),
            Command::Step { shard } => {
                if shard == w.shard {
                    w.step();
                }
            }
            Command::Stop => unreachable!("handled above"),
        }
        *report.lock().expect("report lock poisoned") = w.take_report();
        done.wait();
    }
}

/// The earliest pending `(time, key)` across shards and the shard holding
/// it. Keys are globally unique, so the minimum is never ambiguous — which
/// is exactly what makes the serial-step fallback deterministic.
fn earliest(next: &[Option<(SimTime, EventKey)>]) -> Option<(SimTime, EventKey, u32)> {
    let mut best: Option<(SimTime, EventKey, u32)> = None;
    for (shard, pending) in next.iter().enumerate() {
        let Some((t, key)) = *pending else { continue };
        if best.map_or(true, |(bt, bk, _)| (t, key) < (bt, bk)) {
            best = Some((t, key, shard as u32));
        }
    }
    best
}

/// The window-boundary merge: collect every worker's report, route the
/// boundary-crossing receptions to their owners' mailboxes, and fold them
/// into the pending-event view. The cross-shard sort order is cosmetic —
/// receivers order by `(time, key)` regardless — but it makes mailbox
/// contents (and any future boundary audit) independent of thread timing.
fn merge_round(
    reports: &[Mutex<WindowReport>],
    mailboxes: &[Mutex<Vec<CrossShardArrival>>],
    owner: &[u32],
    next: &mut [Option<(SimTime, EventKey)>],
) {
    let mut crossing: Vec<CrossShardArrival> = Vec::new();
    for (shard, slot) in reports.iter().enumerate() {
        let report = std::mem::take(&mut *slot.lock().expect("report lock poisoned"));
        next[shard] = report.next;
        crossing.extend(report.outbox);
    }
    crossing.sort_by_key(|e| (e.rx_start, e.src_shard, e.emit_seq));
    for entry in crossing {
        let dst = owner[entry.node.index()] as usize;
        // An injected arrival's RxStart may precede everything the owner
        // still has queued; the pending view must see it so the next
        // horizon (and the serial-step argmin) stays conservative. RxEnd
        // needs no fold: it strictly follows its RxStart.
        let candidate = Some((entry.rx_start, entry.start_key));
        if next[dst].is_none() || candidate < next[dst] {
            next[dst] = candidate;
        }
        mailboxes[dst].lock().expect("mailbox lock poisoned").push(entry);
    }
}

/// Stitches the per-shard worker states into one [`RunResult`]: each
/// station's MAC statistics come from its owner, each flow's sender-side
/// endpoints from the shard owning its source and receiver-side endpoints
/// from the shard owning its destination — through the same
/// [`flow_result`] math as the single-loop engine.
fn merge_results(
    scenario: &Scenario,
    workers: &[ShardWorker],
    owner: &[u32],
    flow_owner: &[u32],
) -> RunResult {
    let per_shard: Vec<Vec<wmn_mac::MacStats>> =
        workers.iter().map(ShardWorker::mac_stats).collect();
    let mac_stats: Vec<wmn_mac::MacStats> =
        (0..owner.len()).map(|i| per_shard[owner[i] as usize][i]).collect();
    let flows: Vec<_> = scenario
        .flows
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let id = FlowId::new(i as u32);
            let src_rt = workers[flow_owner[i] as usize].flow_rt(id);
            let dst_rt = workers[owner[spec.dst().index()] as usize].flow_rt(id);
            flow_result(
                FlowEndpoints {
                    spec: &src_rt.spec,
                    id,
                    tcp_tx: src_rt.tcp_tx.as_ref(),
                    tcp_rx: dst_rt.tcp_rx.as_ref(),
                    udp_sink: &dst_rt.udp_sink,
                    udp_sent: src_rt.udp_sent,
                },
                scenario.duration,
            )
        })
        .collect();
    let total = flows.iter().map(|f| f.throughput_mbps).sum();
    RunResult { flows, total_throughput_mbps: total, mac_stats }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{FlowSpec, Scenario, Scheme, Workload};
    use crate::stack::run;
    use wmn_phy::{PhyParams, Position};
    use wmn_sim::{NodeId, SimDuration};
    use wmn_topology::{MotionPlan, NodePath};

    fn line_positions(n: usize) -> Vec<Position> {
        (0..n).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect()
    }

    fn base_scenario() -> Scenario {
        Scenario {
            name: "shard-test".into(),
            params: PhyParams::paper_216(),
            positions: line_positions(4),
            scheme: Scheme::Dcf { aggregation: 1 },
            flows: vec![FlowSpec {
                path: vec![0, 1, 2, 3].into_iter().map(NodeId::new).collect(),
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

    /// Runs the scenario at every shard count in `counts` and asserts the
    /// results are bit-identical to the 1-shard run ([`RunResult`] derives
    /// `PartialEq` with exact `f64` comparison — that is the contract).
    ///
    /// The differential oracle of the engine's last commit: the reference is
    /// the per-entity discipline on the *single loop*, and every windowed
    /// run — at 1, 2 and 8 shards plus the test's own counts — must equal it.
    fn assert_shard_invariant(mut scenario: Scenario, counts: &[u32]) {
        let reference = crate::stack::run_per_entity_single_loop(&scenario);
        assert!(
            reference.flows.iter().any(|f| f.delivered_bytes > 0),
            "a degenerate run that delivers nothing proves nothing"
        );
        for &k in [1, 2, 8].iter().chain(counts) {
            scenario.shards = Some(k);
            assert_eq!(reference, run(&scenario), "{k} shards must equal the single loop");
        }
    }

    #[test]
    fn static_runs_are_shard_count_invariant() {
        assert_shard_invariant(base_scenario(), &[2, 3, 8]);
    }

    #[test]
    fn aggregating_and_opportunistic_macs_are_shard_count_invariant() {
        let mut ripple = base_scenario();
        ripple.scheme = Scheme::Ripple { aggregation: 16 };
        assert_shard_invariant(ripple, &[2, 4]);
        let mut exor = base_scenario();
        exor.scheme = Scheme::McExor;
        assert_shard_invariant(exor, &[2, 4]);
    }

    #[test]
    fn mixed_workloads_and_opposed_flows_are_shard_count_invariant() {
        // Flows in both directions: sender-side and receiver-side endpoint
        // halves land on different shards and must stitch back exactly.
        let mut s = base_scenario();
        s.flows = vec![
            FlowSpec {
                path: vec![0, 1, 2, 3].into_iter().map(NodeId::new).collect(),
                workload: Workload::Voip(wmn_traffic::VoipModel::paper()),
            },
            FlowSpec {
                path: vec![3, 2, 1, 0].into_iter().map(NodeId::new).collect(),
                workload: Workload::Ftp,
            },
            FlowSpec {
                path: vec![1, 2].into_iter().map(NodeId::new).collect(),
                workload: Workload::Cbr(wmn_traffic::CbrModel {
                    packet_bytes: 1000,
                    interval: SimDuration::from_millis(2),
                }),
            },
        ];
        s.duration = SimDuration::from_millis(300);
        assert_shard_invariant(s, &[2, 8]);
    }

    #[test]
    fn mobile_runs_are_shard_count_invariant() {
        // A drifting receiver exercises the mobility barrier and the
        // lookahead recomputation it forces.
        let mut s = base_scenario();
        s.duration = SimDuration::from_millis(300);
        s.motion = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Static,
                NodePath::Static,
                NodePath::Drift { vx_mps: 20.0, vy_mps: 0.0 },
            ],
            tick: SimDuration::from_millis(10),
        };
        assert_shard_invariant(s, &[2, 4]);
    }

    #[test]
    fn route_refreshing_mobile_runs_are_shard_count_invariant() {
        // Mobility plus live routing: both barrier kinds fire, including at
        // coinciding instants (tick 10 ms, refresh 50 ms).
        let mut positions = line_positions(4);
        positions.push(Position::new(5.0, 3.0));
        let mut s = base_scenario();
        s.positions = positions;
        s.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel {
            packet_bytes: 1000,
            interval: SimDuration::from_millis(2),
        });
        s.duration = SimDuration::from_millis(400);
        s.motion = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Drift { vx_mps: 0.0, vy_mps: 60.0 },
                NodePath::Static,
                NodePath::Static,
                NodePath::Static,
            ],
            tick: SimDuration::from_millis(10),
        };
        s.route_refresh = Some(SimDuration::from_millis(50));
        assert_shard_invariant(s, &[2, 5]);
    }

    #[test]
    fn colocated_stations_degrade_to_the_exact_serial_schedule() {
        // Two co-located stations in different shards: zero cross-shard
        // propagation delay, so every round is a serial step — the protocol
        // must still terminate and stay shard-count invariant.
        let mut s = base_scenario();
        s.positions = vec![Position::new(0.0, 0.0); 2];
        s.flows = vec![FlowSpec {
            path: vec![0, 1].into_iter().map(NodeId::new).collect(),
            workload: Workload::Ftp,
        }];
        s.duration = SimDuration::from_millis(50);
        assert_shard_invariant(s, &[2]);
    }

    #[test]
    fn requesting_more_shards_than_stations_is_safe() {
        assert_shard_invariant(base_scenario(), &[64]);
    }
}
