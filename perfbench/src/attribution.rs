//! The attribution run (`--trace 1`): one traced pass over the workload on
//! the single-loop engine (the only one `run_traced` exists on), probes of
//! each layer's public calls on the workload's own inputs, and the shares of
//! the untraced wall time those two explain.
//!
//! Everything here is measured from outside the program. A share is
//! `count from the trace × cost from a probe ÷ untraced wall`; the shares
//! are estimates, need not sum to one, and what they leave over is
//! `attr.unattributed.share` — the engine glue no outside probe reaches.

use std::collections::BTreeMap;
use std::time::Instant;

use wmn_experiments::sweep::run_sweep;
use wmn_netsim::{run, run_traced, FrameKind, RunResult, Scenario, Scheme, Trace, TraceKind};
use wmn_phy::Medium;
use wmn_sim::NodeId;

use crate::measure::{frames_sent, guarded, zero_duration};
use crate::probes::{self, best_of};
use crate::workloads::{build, Item, Plan, Scale};

/// Host time a probe batch should last; long enough to read, short enough
/// that a dozen placements × a dozen probes stay within a few seconds.
const PROBE_BATCH_NS: f64 = 8.0e6;

/// The per-layer reading of one workload.
#[derive(Clone, Debug, Default)]
pub struct Layered {
    /// Metric name → value, exactly the `per_layer` names of `BENCHMARK.json`.
    pub metrics: BTreeMap<String, f64>,
    /// Simulation runs executed for the traced-vs-untraced comparison.
    pub attempted: u64,
    /// Runs whose traced result differed from the untraced one, or panicked.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// What one scenario's trace says happened.
#[derive(Clone, Debug, Default)]
struct Counts {
    events: u64,
    tx_data: u64,
    tx_ack: u64,
    subframes: u64,
    decoded: u64,
    delivered: u64,
    forwards: u64,
    drops_queue_full: u64,
    drops_retry_limit: u64,
    route_changes: u64,
    /// Transmitting station of every `TxStart`, in time order, thinned to a
    /// few thousand entries: the planner probe replays it.
    transmitters: Vec<NodeId>,
}

fn count(trace: &Trace) -> Counts {
    let mut c = Counts { events: trace.len() as u64, ..Counts::default() };
    let tx_total =
        trace.events.iter().filter(|e| matches!(e.kind, TraceKind::TxStart { .. })).count();
    let stride = (tx_total / 4096).max(1);
    let mut tx_seen = 0usize;
    for event in &trace.events {
        match &event.kind {
            TraceKind::TxStart { kind, subframes, .. } => {
                match kind {
                    FrameKind::Data => {
                        c.tx_data += 1;
                        c.subframes += *subframes as u64;
                    }
                    FrameKind::Ack => c.tx_ack += 1,
                }
                if tx_seen % stride == 0 {
                    c.transmitters.push(event.node);
                }
                tx_seen += 1;
            }
            TraceKind::Decoded { .. } => c.decoded += 1,
            TraceKind::Delivered { .. } => c.delivered += 1,
            TraceKind::Forward { .. } => c.forwards += 1,
            TraceKind::Drop { reason, .. } => match reason {
                wmn_netsim::DropReason::QueueFull => c.drops_queue_full += 1,
                wmn_netsim::DropReason::RetryLimit => c.drops_retry_limit += 1,
            },
            TraceKind::RouteChange { .. } => c.route_changes += 1,
            TraceKind::TxEnd => {}
        }
    }
    c
}

/// Picks a batch size that makes `probe` last about [`PROBE_BATCH_NS`], then
/// keeps the fastest of three batches.
fn sized<T>(mut probe: impl FnMut(u64) -> (f64, T)) -> (f64, T) {
    let (ns, _) = probe(32);
    let reps = (PROBE_BATCH_NS / ns.max(1.0)).clamp(32.0, 2.0e6) as u64;
    best_of(3, || probe(reps))
}

fn sized_ns(mut probe: impl FnMut(u64) -> f64) -> f64 {
    sized(|reps| (probe(reps), ())).0
}

/// FNV-1a, 32 bit.
fn fnv1a32(bytes: &[u8], mut hash: u32) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// `model.result_digest32`: FNV-1a over the `Debug` rendering of every
/// result, in plan order.
pub fn result_digest32(results: &[RunResult]) -> u32 {
    results.iter().fold(0x811c_9dc5, |hash, r| fnv1a32(format!("{r:?}").as_bytes(), hash))
}

/// The simulated statistics of a set of results. A change that only makes
/// the simulator faster must leave every one of them untouched.
pub fn model_metrics(results: &[RunResult], out: &mut BTreeMap<String, f64>) {
    let flows = || results.iter().flat_map(|r| r.flows.iter());
    let macs = || results.iter().flat_map(|r| r.mac_stats.iter());
    let mut put = |k: &str, v: u64| out.insert(format!("model.{k}"), v as f64);
    put("frames_sent", results.iter().map(frames_sent).sum());
    put("delivered_bytes", flows().map(|f| f.delivered_bytes).sum());
    put("tcp_retransmits", flows().filter_map(|f| f.tcp).map(|t| t.retransmits).sum());
    put("tcp_reordered", flows().filter_map(|f| f.tcp).map(|t| t.reordered_arrivals).sum());
    put("mac_timeouts", macs().map(|m| m.timeouts).sum());
    put("result_digest32", u64::from(result_digest32(results)));
}

fn legacy(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    s.shards = None;
    s
}

/// Which MAC implementation a scheme instantiates, as a metric prefix, and
/// the representative the probes build.
fn mac_family(scheme: Scheme) -> (&'static str, Scheme) {
    match scheme {
        Scheme::Dcf { .. } => ("mac.dcf", Scheme::Dcf { aggregation: 16 }),
        Scheme::Ripple { .. } => ("core.ripple", Scheme::Ripple { aggregation: 16 }),
        Scheme::PreExor | Scheme::McExor => ("routing.exor", Scheme::McExor),
    }
}

const MAC_FAMILIES: [&str; 3] = ["mac.dcf", "core.ripple", "routing.exor"];

/// Step 1 of the attribution run: what the untraced and traced passes over
/// the single-loop engine measured.
struct Passes {
    /// Σ over scenarios of the fastest untraced `run`, seconds.
    untraced_wall: f64,
    /// Σ over scenarios of the fastest `run_traced`, seconds.
    traced_wall: f64,
    /// Untraced results, in plan order.
    results: Vec<RunResult>,
    /// Trace counts, in plan order.
    counts: Vec<Counts>,
    /// Allocator calls of the first untraced pass, total and per phase.
    allocs: u64,
    phase_allocs: [u64; wmn_alloc::Phase::COUNT],
}

/// Runs every scenario untraced and traced, interleaved, once, and a second
/// time if less than `budget_s` has gone by, keeping the fastest reading of
/// each side and checking traced ≡ untraced.
fn passes(scenarios: &[Scenario], budget_s: f64, out: &mut Layered) -> Result<Passes, String> {
    let started = Instant::now();
    let n = scenarios.len();
    let mut untraced_s = vec![f64::INFINITY; n];
    let mut traced_s = vec![f64::INFINITY; n];
    let mut results: Vec<Option<RunResult>> = vec![None; n];
    let mut counts = vec![Counts::default(); n];
    let mut allocs = 0u64;
    let mut phase_allocs = [0u64; wmn_alloc::Phase::COUNT];
    let mut pass = 0;
    while pass < 1 || (pass < 2 && started.elapsed().as_secs_f64() < budget_s) {
        for (i, scenario) in scenarios.iter().enumerate() {
            out.attempted += 2;
            let before = wmn_alloc::phase_totals();
            let t = Instant::now();
            let (plain, alloc) = wmn_alloc::measure(|| guarded(|| Ok(run(scenario))));
            untraced_s[i] = untraced_s[i].min(t.elapsed().as_secs_f64());
            if pass == 0 {
                let after = wmn_alloc::phase_totals();
                allocs += alloc.allocs;
                for (slot, (a, b)) in phase_allocs.iter_mut().zip(after.iter().zip(&before)) {
                    *slot += a.allocs - b.allocs;
                }
            }
            let t = Instant::now();
            let traced = guarded(|| Ok(run_traced(scenario)));
            traced_s[i] = traced_s[i].min(t.elapsed().as_secs_f64());
            match (plain, traced) {
                (Ok(plain), Ok((traced, trace))) => {
                    if plain != traced {
                        out.failed += 1;
                        out.failures.push(format!("{}: traced result differs", scenario.name));
                    }
                    if pass == 0 {
                        counts[i] = count(&trace);
                        results[i] = Some(plain);
                    }
                }
                (Err(msg), _) | (_, Err(msg)) => {
                    out.failed += 1;
                    out.failures.push(format!("{}: {msg}", scenario.name));
                }
            }
        }
        pass += 1;
    }
    let results = results
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| out.failures.first().cloned().unwrap_or_default())?;
    Ok(Passes {
        untraced_wall: untraced_s.iter().sum(),
        traced_wall: traced_s.iter().sum(),
        results,
        counts,
        allocs,
        phase_allocs,
    })
}

/// What the placement-dependent probes cost, each already multiplied by how
/// often the trace says the workload paid it (nanoseconds unless noted).
#[derive(Default)]
struct PlacementCosts {
    /// Distinct placements probed.
    placements: usize,
    /// Σ transmissions × planner ns/call.
    plan_ns: f64,
    /// Σ transmissions × planned receptions per call: receptions planned.
    arrivals: f64,
    /// Σ transmissions × stations of the placement.
    nodes_weighted: f64,
    /// Σ `Medium::new` ns over placements.
    medium_build_ns: f64,
    /// Σ mobility ticks × moving nodes (moves), and their total ns.
    moves: f64,
    refresh_ns: f64,
    /// Route-refresh passes, Σ snapshot ns, Dijkstra queries, Σ their ns.
    refreshes: f64,
    snapshot_ns: f64,
    paths: f64,
    dijkstra_ns: f64,
}

/// Probes the planner, link refresh and routing on every distinct placement
/// of the workload, replaying the trace's own transmitter sequence.
fn placement_costs(scenarios: &[Scenario], counts: &[Counts]) -> Result<PlacementCosts, String> {
    let n = scenarios.len();
    let mut c = PlacementCosts::default();
    let mut done = vec![false; n];
    for i in 0..n {
        if done[i] {
            continue;
        }
        let same: Vec<usize> =
            (i..n).filter(|&j| scenarios[j].positions == scenarios[i].positions).collect();
        for &j in &same {
            done[j] = true;
        }
        let first = &scenarios[i];
        c.placements += 1;
        let t = Instant::now();
        let mut medium = Medium::new(first.params.clone(), first.positions.clone());
        c.medium_build_ns += t.elapsed().as_nanos() as f64;
        let tx: f64 = same.iter().map(|&j| (counts[j].tx_data + counts[j].tx_ack) as f64).sum();
        let transmitters: Vec<NodeId> =
            same.iter().flat_map(|&j| counts[j].transmitters.iter().copied()).collect();
        if !transmitters.is_empty() {
            let (ns, fanout) = sized(|calls| probes::planner(&medium, &transmitters, calls));
            c.plan_ns += tx * ns;
            c.arrivals += tx * fanout;
            c.nodes_weighted += tx * first.positions.len() as f64;
        }
        for &j in &same {
            let s = &scenarios[j];
            let secs = s.duration.as_secs_f64();
            if !s.motion.is_static() {
                let movers = s.motion.paths.iter().filter(|p| !p.is_static()).count() as f64;
                let moves = (secs / s.motion.tick.as_secs_f64()).floor() * movers;
                c.moves += moves;
                c.refresh_ns += moves * sized_ns(|m| probes::link_refresh(&mut medium, m));
            }
            if let Some(interval) = s.route_refresh {
                let refreshes = (secs / interval.as_secs_f64()).floor();
                let (first_ns, graph) = probes::linkgraph_build(&medium)?;
                let snapshot_ns = first_ns.min(probes::linkgraph_build(&medium)?.0);
                let pairs: Vec<(NodeId, NodeId)> =
                    s.flows.iter().map(|f| (f.src(), f.dst())).collect();
                let per_path = sized_ns(|rounds| probes::dijkstra(&graph, &pairs, rounds.min(64)));
                c.refreshes += refreshes;
                c.snapshot_ns += refreshes * snapshot_ns;
                c.paths += refreshes * pairs.len() as f64;
                c.dijkstra_ns += refreshes * pairs.len() as f64 * per_path;
            }
        }
    }
    Ok(c)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs the attribution pass for one workload. `seconds` only decides
/// whether a second traced pass is made; the probes are a fixed amount of
/// work.
///
/// # Errors
///
/// Workload construction failures and link-state snapshots the router
/// rejects are reported verbatim.
pub fn trace_run(name: &str, seed: u64, scale: Scale, seconds: f64) -> Result<Layered, String> {
    let t = Instant::now();
    let plan = build(name, seed, scale)?;
    let build_ns = t.elapsed().as_nanos() as f64;
    let scenarios: Vec<Scenario> = plan.scenarios.iter().map(legacy).collect();
    let n = scenarios.len();
    let mut out = Layered::default();
    let Passes { untraced_wall, traced_wall, results, counts, allocs, phase_allocs } =
        passes(&scenarios, seconds * 0.2, &mut out).map_err(|msg| format!("{name}: {msg}"))?;

    // The results of the scenarios as the end-to-end run executes them: they
    // differ from the single-loop results only where the workload selects
    // the sharded engine.
    let mut as_timed_wall = 0.0;
    let mut as_timed = Vec::with_capacity(n);
    for (scenario, legacy_result) in plan.scenarios.iter().zip(&results) {
        if scenario.shards.is_none() {
            as_timed.push(legacy_result.clone());
        } else {
            let (wall, result) = best_of(2, || {
                let t = Instant::now();
                let result = run(scenario);
                (t.elapsed().as_secs_f64(), result)
            });
            as_timed_wall += wall;
            as_timed.push(result);
        }
    }
    model_metrics(&as_timed, &mut out.metrics);

    let total = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let m = &mut out.metrics;
    m.insert("netsim.trace.events".into(), total(|c| c.events));
    m.insert("netsim.trace.tx_data".into(), total(|c| c.tx_data));
    m.insert("netsim.trace.tx_ack".into(), total(|c| c.tx_ack));
    m.insert("netsim.trace.decoded".into(), total(|c| c.decoded));
    m.insert("netsim.trace.delivered".into(), total(|c| c.delivered));
    m.insert("netsim.trace.forwards".into(), total(|c| c.forwards));
    m.insert("netsim.trace.drops_queue_full".into(), total(|c| c.drops_queue_full));
    m.insert("netsim.trace.drops_retry_limit".into(), total(|c| c.drops_retry_limit));
    m.insert("netsim.trace.route_changes".into(), total(|c| c.route_changes));

    let frames = results.iter().map(frames_sent).sum::<u64>() as f64;
    m.insert("netsim.ns_per_frame".into(), ratio(untraced_wall * 1e9, frames));
    m.insert(
        "netsim.ns_per_trace_event".into(),
        ratio((traced_wall - untraced_wall) * 1e9, total(|c| c.events)),
    );
    m.insert("netsim.trace.overhead_ratio".into(), traced_wall / untraced_wall);
    m.insert("netsim.allocs_per_frame".into(), ratio(allocs as f64, frames));
    for (phase, key) in [
        (wmn_alloc::Phase::TxPath, "netsim.allocs_tx_path"),
        (wmn_alloc::Phase::Queue, "netsim.allocs_queue"),
        (wmn_alloc::Phase::EventLoop, "netsim.allocs_event_loop"),
    ] {
        m.insert(key.into(), phase_allocs[phase as usize] as f64);
    }

    // World build: a zero-duration `run` of every scenario.
    let world_build_ns: f64 = scenarios
        .iter()
        .map(|s| {
            let zero = zero_duration(s);
            let (wall, ()) = best_of(2, || {
                let t = Instant::now();
                std::hint::black_box(run(&zero));
                (t.elapsed().as_nanos() as f64, ())
            });
            wall
        })
        .sum();
    m.insert("netsim.world_build.ns_per_run".into(), world_build_ns / n as f64);

    let costs = placement_costs(&scenarios, &counts)?;
    let tx_total = total(|c| c.tx_data) + total(|c| c.tx_ack);
    let fanout_mean = ratio(costs.arrivals, tx_total);
    m.insert("phy.plan.ns_per_call".into(), ratio(costs.plan_ns, tx_total));
    m.insert("phy.plan.fanout_mean".into(), fanout_mean);
    m.insert("phy.medium_build.ns".into(), costs.medium_build_ns / costs.placements as f64);
    m.insert("phy.link_refresh.ns_per_move".into(), ratio(costs.refresh_ns, costs.moves));
    m.insert("routing.linkgraph_build.ns".into(), ratio(costs.snapshot_ns, costs.refreshes));
    m.insert("routing.dijkstra.ns_per_path".into(), ratio(costs.dijkstra_ns, costs.paths));

    // Scenario generation, for the workloads that generate.
    let expands = plan.items.iter().any(|i| matches!(i, Item::Sweep { .. }));
    m.insert("scengen.materialise.ns_per_scenario".into(), ratio(build_ns, plan.generated as f64));
    m.insert("scengen.expand.ns".into(), if expands { build_ns } else { 0.0 });

    let receiver_ns = sized_ns(probes::receiver);
    m.insert("phy.receiver.ns_per_arrival".into(), receiver_ns);

    // Queue churn at the heap depth this workload keeps pending: one entry
    // per in-flight reception plus a timer per station.
    let frontier = (fanout_mean + ratio(costs.nodes_weighted, tx_total)).ceil() as usize;
    let event_queue_ns = sized_ns(|ops| probes::event_queue(frontier, ops));
    m.insert("sim.event_queue.ns_per_op".into(), event_queue_ns);
    m.insert(
        "sim.keyed_queue.ns_per_op".into(),
        sized_ns(|ops| probes::keyed_queue(frontier, ops)),
    );

    // MAC handlers, per implementation the workload instantiates, on the
    // workload's mean frame shape and its busiest scenario's PHY.
    let subframes = ratio(total(|c| c.subframes), total(|c| c.tx_data)).round().max(1.0) as usize;
    let busiest = (0..n).max_by_key(|&i| counts[i].decoded).unwrap_or(0);
    let params = &scenarios[busiest].params;
    let mut mac_ns = 0.0;
    for family in MAC_FAMILIES {
        let members: Vec<usize> =
            (0..n).filter(|&i| mac_family(scenarios[i].scheme).0 == family).collect();
        let (mut pair_ns, mut rx_ns) = (0.0, 0.0);
        if let Some(&first) = members.first() {
            let scheme = mac_family(scenarios[first].scheme).1;
            let frame = probes::data_frame(scheme, subframes);
            pair_ns = sized_ns(|pairs| probes::mac_busy_idle(scheme, params, pairs));
            rx_ns = sized_ns(|frames| probes::mac_overheard_rx(scheme, params, &frame, frames));
            for &i in &members {
                let tx = (counts[i].tx_data + counts[i].tx_ack) as f64;
                mac_ns += tx * fanout_mean * pair_ns + counts[i].decoded as f64 * rx_ns;
            }
        }
        m.insert(format!("{family}.busy_idle_ns_per_pair"), pair_ns);
        m.insert(format!("{family}.overheard_rx_ns"), rx_ns);
    }
    m.insert(
        "mac.ifq.ns_per_cycle".into(),
        sized_ns(|cycles| probes::ifq_cycle(subframes, cycles)),
    );

    let frame = probes::data_frame(scenarios[busiest].scheme, subframes);
    let decode_ns = sized_ns(|calls| probes::decode(&frame, params.ber, calls));
    m.insert("netsim.decode.ns_per_frame".into(), decode_ns);

    let (tcp_ns, allocs_per_ack) = sized(probes::tcp_pingpong);
    m.insert("transport.tcp.ns_per_segment".into(), tcp_ns);
    m.insert("transport.tcp.allocs_per_ack".into(), allocs_per_ack);

    // Shares of the untraced single-loop wall. Queue operations are
    // estimated: RxStart + RxEnd per planned reception, TxEnd + one MAC timer
    // per frame. A data segment's round trip is two deliveries.
    let queue_ops = 2.0 * costs.arrivals + 2.0 * tx_total;
    let shares = [
        ("attr.phy_plan.share", costs.plan_ns),
        ("attr.phy_receiver.share", costs.arrivals * receiver_ns),
        ("attr.queue.share", queue_ops * event_queue_ns),
        ("attr.decode.share", total(|c| c.decoded) * decode_ns),
        ("attr.mac.share", mac_ns),
        ("attr.transport.share", total(|c| c.delivered) * tcp_ns / 2.0),
        ("attr.link_refresh.share", costs.refresh_ns),
        ("attr.route_refresh.share", costs.snapshot_ns + costs.dijkstra_ns),
        ("attr.world_build.share", world_build_ns),
    ];
    let mut explained = 0.0;
    for (key, ns) in shares {
        let share = ns / (untraced_wall * 1e9);
        explained += share;
        m.insert(key.into(), share);
    }
    m.insert("attr.unattributed.share".into(), (1.0 - explained).max(0.0));

    shard_metrics(&plan, as_timed_wall, untraced_wall, &mut out);
    exec_metrics(&plan, &mut out)?;

    // Nodes that move under live routing must make some route change.
    let reroutes = scenarios.iter().any(|s| s.route_refresh.is_some() && !s.motion.is_static());
    if reroutes && total(|c| c.route_changes) == 0.0 {
        out.failed += 1;
        out.failures.push(format!("{name}: no route change in the whole batch"));
    }
    Ok(out)
}

/// The sharded engine as a layer metric (campus only; zeros elsewhere):
/// k=1 against the single loop at full duration, k=2 against k=1 at a
/// twentieth of it, with the k-invariance check.
fn shard_metrics(plan: &Plan, k1_wall: f64, legacy_wall: f64, out: &mut Layered) {
    let sharded: Vec<&Scenario> = plan.scenarios.iter().filter(|s| s.shards.is_some()).collect();
    let (mut k1_over_legacy, mut k2_over_k1, mut equal) = (0.0, 0.0, 0.0);
    if !sharded.is_empty() {
        k1_over_legacy = k1_wall / legacy_wall;
        let (mut k1_s, mut k2_s) = (0.0, 0.0);
        equal = 1.0;
        for scenario in sharded {
            let mut short = scenario.clone();
            short.duration = wmn_sim::SimDuration::from_nanos(scenario.duration.as_nanos() / 20);
            let mut timed = |k: u32| {
                short.shards = Some(k);
                out.attempted += 1;
                let t = Instant::now();
                let result = run(&short);
                (t.elapsed().as_secs_f64(), result)
            };
            let (t1, r1) = timed(1);
            let (t2, r2) = timed(2);
            k1_s += t1;
            k2_s += t2;
            if r1 != r2 {
                equal = 0.0;
                out.failed += 1;
                out.failures.push(format!("{}: 2 shards differ from 1 shard", scenario.name));
            }
        }
        k2_over_k1 = k2_s / k1_s;
    }
    out.metrics.insert("shard.k1_over_legacy_wall".into(), k1_over_legacy);
    out.metrics.insert("shard.k2_over_k1_wall".into(), k2_over_k1);
    out.metrics.insert("shard.k2_result_equal".into(), equal);
}

/// The executor and report path (sweep only; zeros elsewhere). Overhead is
/// what a `run_sweep` call spends outside its runs — expansion, plan
/// cloning, averaging, table and document — read from the executor's own
/// busy-time telemetry of the same call, so host noise cancels.
fn exec_metrics(plan: &Plan, out: &mut Layered) -> Result<(), String> {
    let (mut speedup, mut busy_over_wall, mut overhead, mut report_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut walls = [0.0f64; 2];
    let mut busy = [0.0f64; 2];
    let mut runs = 0usize;
    let mut sweeps = 0usize;
    for item in &plan.items {
        let Item::Sweep { spec, .. } = item else { continue };
        sweeps += 1;
        runs += spec.run_count();
        for (slot, jobs) in [1usize, 2].into_iter().enumerate() {
            wmn_exec::telemetry::take();
            let t = Instant::now();
            let outcome = run_sweep(spec, jobs)?;
            walls[slot] += t.elapsed().as_secs_f64();
            busy[slot] += wmn_exec::telemetry::take().busy.as_secs_f64();
            let t = Instant::now();
            let text = outcome.document.to_json_string().map_err(|e| format!("{e:?}"))?;
            std::hint::black_box(text);
            report_ns += t.elapsed().as_nanos() as f64 / 2.0;
        }
    }
    if sweeps > 0 {
        speedup = walls[0] / walls[1];
        busy_over_wall = busy[1] / walls[1];
        overhead = (walls[0] - busy[0]) * 1e9 / runs as f64;
        report_ns /= sweeps as f64;
    }
    out.metrics.insert("exec.jobs2_speedup".into(), speedup);
    out.metrics.insert("exec.busy_over_wall".into(), busy_over_wall);
    out.metrics.insert("exec.overhead_ns_per_run".into(), overhead);
    out.metrics.insert("exec.report.ns".into(), report_ns);
    Ok(())
}
