//! `alloc_gate` — the CI gate on allocation pressure.
//!
//! Runs eighteen deterministic workloads under [`wmn_alloc::CountingAlloc`],
//! prints every measured value beside its committed ceiling, and exits
//! non-zero when one is breached:
//!
//! ```text
//! alloc_gate [BUDGET_JSON]        # default: ci/alloc_budget.json
//! ```
//!
//! The budget file is the key set: every budget entry must name a
//! `(bench, metric)` the gate measures, and every measured pair must have a
//! budget entry — a workload dropped, renamed or added without touching
//! `ci/alloc_budget.json` fails the gate in either direction. Allocation
//! counts are deterministic per workload, which is why they are gated at
//! all; the four steady-state claims (clean decode, saturated interface
//! queue, recycled event list, recycled run buffers) are additionally
//! asserted to be *exactly* zero in place.
//!
//! The nine end-to-end rows are what holds "no allocation per frame in a
//! MAC or engine handler": between them they run `RippleMac`, `DcfMac`
//! (plain and aggregated) and `ExorMac` (both ACK modes), and every
//! `allocs_per_frame` ceiling sits at most 10 % above what is measured, so
//! one new allocation per data frame — by any spelling, in any function —
//! breaches at least one of them. When an intended change moves a reading,
//! re-measure and keep that margin; do not round a ceiling up.
//!
//! Ten rows gate work rather than allocations, through the same file and
//! the same margin: `wmn_alloc`'s exact [`Work`] counters read the shadowing
//! variates computed in full per planner pair on the 1024-station medium
//! and per frame on the dense neighbourhood, so a planner or capture rule
//! that stops deciding from the draw's bounds breaches both; the pairs
//! drawn and receptions planned per transmission on an untraced campus with
//! fixed routes and on an untraced drifting mesh whose routes refresh, so a
//! planner that draws or plans stations no route of the run names breaches
//! those four; and the link-model pairs evaluated and the stations route
//! searches settle, per frame on the drifting mesh and per route-refresh
//! pass on a 256-station grid, so a medium whose rows hold or move
//! stations the run does not observe, or a route search that evaluates
//! links its lower bounds could skip or settles stations its heuristic
//! could leave, breaches those four.
//!
//! Nothing here reads a clock: time is measured by `perfbench/` (see its
//! README), and the root `clippy.toml` holds this crate to that.

use std::hint::black_box;
use std::process::ExitCode;

use wmn_alloc::{AllocStats, Phase, Work};
use wmn_bench::{
    dense_neighbourhood_scenario, drifting_mesh_scenario, fig6_class_mobile_scenario,
    fig6_class_scenario, grid_positions, smoke_campus_scenario,
};
use wmn_exec::json::{parse, Value};
use wmn_mac::frame::{DataFrame, Frame, LinkDst, NetHeader, Packet, Proto, RouteInfo, Subframe};
use wmn_mac::{FramePool, IfQueue};
use wmn_netsim::stack::decode::decode_frame;
use wmn_netsim::{run, Scenario, Scheme};
use wmn_phy::{BerModel, Medium, PhyParams, Position};
use wmn_routing::PlacementSearch;
use wmn_scengen::{ScenarioSpec, TopologySpec};
use wmn_sim::{
    labels, EventKey, FlowId, KeyedEventQueue, NodeId, RngDirectory, SimDuration, SimTime,
};

#[global_allocator]
static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;

// Workload sizes. The committed ceilings — the `peak_bytes` ones above all,
// since peaks grow with simulated duration — are numbers for exactly these.
const DECODE_REPS: u64 = 100_000;
const IFQ_CYCLES: u64 = 20_000;
const QUEUE_OPS: u64 = 200_000;
const ROUTE_REFRESH_PASSES: u64 = 50;
const E2E_DURATION: SimDuration = SimDuration::from_millis(300);
/// A dense-neighbourhood frame costs about twenty times a fig-6 one.
const DENSE_DURATION: SimDuration = SimDuration::from_millis(100);

/// A `(bench, metric)` pair and its number: a value this process measured,
/// or a committed ceiling from the budget file.
#[derive(Clone, Copy)]
struct Entry<'a> {
    bench: &'a str,
    metric: &'a str,
    value: f64,
}

fn allocs_per_op(bench: &'static str, stats: AllocStats, ops: u64) -> Entry<'static> {
    Entry { bench, metric: "allocs_per_op", value: stats.allocs as f64 / ops as f64 }
}

fn header(dst: u32, proto: Proto) -> NetHeader {
    NetHeader {
        flow: FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(dst),
        proto,
        wire_bytes: 1000,
    }
}

/// The zero-copy decode fast path: one pooled 16-subframe broadcast frame,
/// decoded over a clean channel (BER 0 ⇒ every survival draw passes, so
/// every decode takes the shared fast path — an `Arc` refcount bump).
fn clean_decode() -> Entry<'static> {
    let pool = FramePool::default();
    let header = header(3, Proto::Tcp);
    let mut subframes = pool.mint_subframes();
    for seq in 0..16 {
        subframes.push(Subframe {
            seq,
            packet: Packet::new(header, pool.mint_body(&[0u8; 18])),
            corrupted: false,
        });
    }
    let frame = Frame::Data(DataFrame {
        transmitter: NodeId::new(0),
        link_dst: LinkDst::Unicast(NodeId::new(1)),
        flow: FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(3),
        frame_seq: 0,
        subframes,
        retry: 0,
    })
    .into_shared();
    let ber = BerModel::new(0.0);
    let mut rng = RngDirectory::new(7).stream(labels::BENCH_DECODE);
    let (decoded, stats) = wmn_alloc::measure(|| {
        let mut decoded = 0u64;
        for _ in 0..DECODE_REPS {
            if let Some(rx) = decode_frame(&ber, &mut rng, &frame) {
                decoded += 1;
                black_box(&rx);
            }
        }
        decoded
    });
    assert_eq!(decoded, DECODE_REPS, "BER 0 must decode every frame");
    assert_eq!(stats.allocs, 0, "clean decode must be allocation-free");
    allocs_per_op("clean_decode_16sub", stats, DECODE_REPS)
}

/// The saturated interface-queue cycle the aggregation path drives: a full
/// `Sq` where every "transmission" pulls a route-matched batch into a
/// pooled slot and the packets are re-enqueued (the refill a saturated
/// sender performs). After the warm-up the deque, the batch slot and the
/// packet bodies are all at steady-state capacity.
fn saturated_queue() -> Entry<'static> {
    let header = header(9, Proto::Udp);
    let route = RouteInfo::NextHop(NodeId::new(1));
    let mut q = IfQueue::new(50);
    for _ in 0..50 {
        assert!(q.push(Packet::new(header, vec![]), route.clone()).is_none());
    }
    let cycle = |q: &mut IfQueue| {
        let mut batch = q.pop_batch_matching_head(16, u32::MAX);
        for qp in batch.drain(..) {
            assert!(q.push(qp.packet, qp.route).is_none(), "refill must fit");
        }
    };
    // Warm-up: let the batch slot grow to its 16-packet capacity.
    for _ in 0..4 {
        cycle(&mut q);
    }
    let ((), stats) = wmn_alloc::measure(|| {
        for _ in 0..IFQ_CYCLES {
            cycle(&mut q);
        }
    });
    assert_eq!(q.len(), 50, "every batch is fully re-enqueued");
    assert_eq!(stats.allocs, 0, "saturated queue cycle must be allocation-free");
    allocs_per_op("saturated_queue_enqueue", stats, IFQ_CYCLES)
}

/// The recycled-node claim on the future-event list the simulator runs on
/// (`KeyedEventQueue`, keyed here on one lane by insertion count), under
/// the steady-state pattern: a bounded frontier,
/// pre-sized, where every pop schedules a successor at or near "now" — pops
/// hand their storage straight back to the pushes.
fn event_churn_recycled() -> Entry<'static> {
    let mut q = KeyedEventQueue::with_capacity(64);
    for i in 0..64u64 {
        q.schedule_keyed(SimTime::from_nanos(i / 4), EventKey::new(0, 0, i), i);
    }
    let mut sum = 0u64;
    let ((), stats) = wmn_alloc::measure(|| {
        for i in 64..QUEUE_OPS {
            let (_, e) = q.pop().expect("frontier never empties");
            sum = sum.wrapping_add(e);
            q.schedule_keyed_in(SimDuration::from_nanos(i % 3), EventKey::new(0, 0, i), i);
        }
    });
    black_box(sum);
    assert_eq!(stats.allocs, 0, "recycled event churn must be allocation-free");
    allocs_per_op("event_churn_recycled", stats, QUEUE_OPS)
}

/// The recycled-buffer claim on the queue's run path, under a broadcast's
/// pattern: two runs of 256 per transmission (the reception starts and, an
/// airtime later, the ends), drained beside the slot timers of four
/// stations — every sixteenth start re-arms one a few nanoseconds ahead and
/// every sixteenth after it disarms another, as busy edges and ACKs do. One
/// warm-up transmission sizes the two run buffers and the heap; after it a
/// spent run's buffer backs the next run and nothing meets the allocator.
fn run_churn_recycled() -> Entry<'static> {
    const FAN_OUT: u64 = 256;
    const TIMER: u64 = u64::MAX;
    let mut q = KeyedEventQueue::with_slots(64, 4);
    let mut minted = 0u64;
    let mut sum = 0u64;
    // Returns the events it popped.
    let mut transmission = |q: &mut KeyedEventQueue<u64>| {
        let before = minted;
        for airtime in [0, 40_000] {
            let delay = |i| SimDuration::from_nanos(airtime + i / 8);
            q.schedule_run_in((0..FAN_OUT).map(|i| (delay(i), EventKey::new(0, 0, minted + i), i)));
            minted += FAN_OUT;
        }
        while let Some((at, e)) = q.pop() {
            sum = sum.wrapping_add(e);
            let slot = (e / 16 % 4) as u32;
            if e % 16 == 0 {
                let fire = at + SimDuration::from_nanos(e % 7);
                q.arm(slot, fire, EventKey::new(0, 0, minted), TIMER);
                minted += 1;
            } else if e % 16 == 8 {
                sum = sum.wrapping_add(q.disarm(slot).unwrap_or(0));
            }
        }
        minted - before
    };
    transmission(&mut q);
    let (ops, stats) = wmn_alloc::measure(|| {
        let mut ops = 0;
        while ops < QUEUE_OPS {
            ops += transmission(&mut q);
        }
        ops
    });
    black_box(sum);
    assert_eq!(stats.allocs, 0, "recycled run churn must be allocation-free");
    allocs_per_op("run_churn_recycled", stats, ops)
}

/// Full route-refresh passes, as a run's route schedule pays them once per
/// refresh instant that finds the stations moved: place the stations in
/// the schedule's [`PlacementSearch`] (no graph is built, no medium row
/// read) and re-route each flow from its path of the pass before, on a
/// 16×16 grid. 5 m spacing keeps every neighbour link above the ETX
/// usability floor so all flows really route (at 40 m, p ≈ 6e-5 < 0.05 and
/// nothing does). The mover keeps the link state changing between passes
/// so no placement repeats. Reads allocations, link-model evaluations and
/// stations settled per pass: the search evaluates a link only when its
/// lower bound says it could shorten a path, within the old path's ETX,
/// and its heuristic keeps it near the straight line between a flow's
/// endpoints.
fn route_refresh_pass() -> [Entry<'static>; 3] {
    let side = 16;
    let n = side * side;
    let model = PhyParams::paper_216().link;
    let mut positions = grid_positions(side, 5.0);
    // Corner-to-corner and edge-to-edge endpoint pairs, one per flow, each
    // starting from the direct (unusable) link.
    let mut paths: Vec<Vec<NodeId>> = (0..4)
        .map(|f| vec![NodeId::new((f * side) as u32), NodeId::new((n - 1 - f) as u32)])
        .collect();
    let mover = n / 2;
    let work = wmn_alloc::work_totals();
    let (paths_found, stats) = wmn_alloc::measure(|| {
        let mut search = PlacementSearch::new(&model).expect("the paper's model has a cut");
        let mut paths_found = 0u64;
        for i in 0..ROUTE_REFRESH_PASSES {
            // A diagonal walk that stays inside the deployment footprint.
            let step = (i % 128) as f64;
            positions[mover] = Position::new(step * 0.5, step * 0.25);
            assert!(search.place(&positions), "grid positions are finite");
            for current in &mut paths {
                if let Some(path) = search.reroute(current) {
                    paths_found += 1;
                    *current = black_box(path);
                }
            }
        }
        paths_found
    });
    assert_eq!(paths_found, ROUTE_REFRESH_PASSES * 4, "every flow must route on every pass");
    let per_pass = |w: Work| work_delta(work, w) as f64 / ROUTE_REFRESH_PASSES as f64;
    let bench = "route_refresh_pass_grid256_flows4";
    [
        Entry { bench, metric: "link_evaluations_per_op", value: per_pass(Work::LinkEvaluations) },
        Entry { bench, metric: "route_settles_per_op", value: per_pass(Work::RouteSettles) },
        allocs_per_op(bench, stats, ROUTE_REFRESH_PASSES),
    ]
}

/// The live bytes of a medium over 1024 stations (a 32×32 grid at 2 m
/// pitch) that nothing has read yet. It builds a station's row of mean
/// power and delay (16 bytes per station) only when something reads it, so
/// the peak is O(n): an empty row slot and a scratch flag per station. A
/// medium that evaluated every pair up front would hold n² × 16 B ≈ 16.8 MB.
fn medium_build() -> Entry<'static> {
    let positions = grid_positions(32, 2.0);
    let (medium, stats) = wmn_alloc::measure(|| Medium::new(PhyParams::paper_216(), positions));
    assert_eq!(medium.node_count(), 1024);
    Entry {
        bench: "medium_build_1024",
        metric: "peak_bytes",
        value: stats.peak_bytes_in_use as f64,
    }
}

/// This thread's work counters, `after` minus `before`, for one counter.
fn work_delta(before: [u64; Work::COUNT], work: Work) -> u64 {
    wmn_alloc::work_totals()[work as usize] - before[work as usize]
}

/// The same medium plus one transmission from each of 16 stations spread
/// over the grid: the peak is the 16 transmitters' rows (16 KiB each) and
/// the plan buffer, so a medium that builds rows nobody reads breaches it.
/// The same calls read the planner's full variates per pair walked: a
/// planner that computes the variate where the draw's bounds already
/// decide breaches that row.
fn medium_plan() -> [Entry<'static>; 2] {
    let positions = grid_positions(32, 2.0);
    let mut rng = RngDirectory::new(7).stream(labels::CHANNEL);
    let work = wmn_alloc::work_totals();
    let (sensed, stats) = wmn_alloc::measure(|| {
        let medium = Medium::new(PhyParams::paper_216(), positions);
        let mut plans = Vec::new();
        let mut sensed = 0;
        for from in (0..16).map(|i| NodeId::new(i * 64 + 17)) {
            medium.plan_transmission_into(from, &mut rng, &mut plans);
            sensed += plans.len();
        }
        sensed
    });
    assert!(sensed > 0, "a 2 m grid senses every transmission somewhere");
    let pairs = work_delta(work, Work::PlannerPairs);
    assert_eq!(pairs, 16 * 1023, "every other station is in reach on a 62 m grid");
    let bench = "medium_plan_1024_k16";
    [
        Entry { bench, metric: "peak_bytes", value: stats.peak_bytes_in_use as f64 },
        Entry {
            bench,
            metric: "variates_per_pair",
            value: work_delta(work, Work::Variates) as f64 / pairs as f64,
        },
    ]
}

/// One `ScenarioSpec::campus_scale().materialise()`: the connected
/// 1024-station placement and six flows, with no link graph built. The
/// connectivity check is a flood fill that evaluates a link only to a
/// station not yet reached, and each flow is routed by the lazy search;
/// the work rows count the links both evaluate and the stations the
/// searches settle. A materialise that builds the placement's graph again
/// (every pair inside the cut evaluated, Dijkstra's settles) breaches all
/// three rows.
fn materialise_campus() -> [Entry<'static>; 4] {
    let spec = ScenarioSpec::campus_scale();
    let work = wmn_alloc::work_totals();
    let (scenario, stats) =
        wmn_alloc::measure(|| spec.materialise().expect("the campus preset materialises"));
    assert_eq!(scenario.flows.len(), 6);
    let bench = "materialise_campus1024";
    let per_op = |w: Work| work_delta(work, w) as f64;
    [
        Entry { bench, metric: "link_evaluations_per_op", value: per_op(Work::LinkEvaluations) },
        Entry { bench, metric: "route_settles_per_op", value: per_op(Work::RouteSettles) },
        allocs_per_op(bench, stats, 1),
        Entry { bench, metric: "peak_bytes", value: stats.peak_bytes_in_use as f64 },
    ]
}

/// One untraced 300 ms run of a 4096-station campus (128 clusters of 32
/// stations on a 120 m side, `campus_scale`'s density), materialised
/// outside the measured region. The run keeps MACs, receivers and timer
/// slots only at the few dozen stations its flows' paths name, so its peak
/// does not grow with the placement; a stack built for every station
/// holds about 28 MB here.
fn campus4096_run() -> [Entry<'static>; 2] {
    let mut spec = ScenarioSpec::campus_scale();
    spec.topology = TopologySpec::Campus {
        clusters: 128,
        nodes_per_cluster: 32,
        cluster_radius_m: 3.0,
        side_m: 120.0,
    };
    let mut scenario = spec.materialise().expect("the 4096-station campus materialises");
    scenario.duration = E2E_DURATION;
    assert_eq!(scenario.positions.len(), 4096);
    let (result, stats) = wmn_alloc::measure(|| run(&scenario));
    assert!(result.flows.iter().any(|f| f.delivered_bytes > 0), "the campus run made progress");
    let bench = "campus4096_run";
    [
        Entry { bench, metric: "peak_bytes", value: stats.peak_bytes_in_use as f64 },
        allocs_per_op(bench, stats, 1),
    ]
}

/// One end-to-end run: allocations per frame on the air (data, relay and
/// ACK) and the live-bytes peak, for the dense neighbourhood the shadowing
/// variates computed in full per frame (planner and capture rule), and for
/// the drifting mesh the link-model pairs evaluated per frame. Returns
/// the run's allocations split by the engine's phase scopes (scenario build
/// and result collection stay unattributed), so that a breach names where
/// the new traffic comes from.
fn end_to_end(bench: &'static str, scenario: &Scenario, out: &mut Vec<Entry<'static>>) -> String {
    let before = wmn_alloc::phase_totals();
    let work = wmn_alloc::work_totals();
    let (result, stats) = wmn_alloc::measure(|| run(scenario));
    let after = wmn_alloc::phase_totals();
    // The run's own work, read before anything below prepares the scenario
    // again.
    let done = wmn_alloc::work_totals();
    let did = |w: Work| done[w as usize] - work[w as usize];
    assert!(result.flows[0].delivered_bytes > 0, "{bench}: run made no progress");
    let frames: u64 = result
        .mac_stats
        .iter()
        .map(|s| s.data_frames_sent + s.relay_frames_sent + s.ack_frames_sent)
        .sum();
    assert!(frames > 0, "{bench}: no frames transmitted");
    let per_frame = |w: Work| did(w) as f64 / frames as f64;
    out.push(Entry {
        bench,
        metric: "allocs_per_frame",
        value: stats.allocs as f64 / frames as f64,
    });
    out.push(Entry { bench, metric: "peak_bytes", value: stats.peak_bytes_in_use as f64 });
    if bench == DENSE {
        let value = per_frame(Work::Variates);
        out.push(Entry { bench, metric: "variates_per_frame", value });
    }
    if bench == CAMPUS || bench == MESH {
        // Every frame counted is one transmission, and each draws at most
        // one pair per other observed station.
        let prepared = scenario.prepare().expect("well-formed");
        let observed = prepared.observed_stations(false).expect("untraced").len();
        let pairs = did(Work::PlannerPairs);
        assert!(pairs <= frames * (observed as u64 - 1), "{bench}: {pairs} pairs drawn");
        let value = per_frame(Work::PlannerPairs);
        out.push(Entry { bench, metric: "planner_pairs_per_tx", value });
        let value = per_frame(Work::Receptions);
        out.push(Entry { bench, metric: "receptions_per_tx", value });
    }
    if bench == MESH {
        // The route schedule's searches (links whose lower bound admits a
        // shorter path) plus the medium's row builds and tick refreshes
        // (observed pairs only), and the stations the searches settle.
        let value = per_frame(Work::LinkEvaluations);
        out.push(Entry { bench, metric: "link_evaluations_per_frame", value });
        let value = per_frame(Work::RouteSettles);
        out.push(Entry { bench, metric: "route_settles_per_frame", value });
    }
    let split: Vec<String> = [Phase::TxPath, Phase::Queue, Phase::EventLoop]
        .iter()
        .map(|&p| format!("{} {}", p.label(), after[p as usize].allocs - before[p as usize].allocs))
        .collect();
    format!("{bench}: {} allocs over {frames} frames — {}", stats.allocs, split.join(", "))
}

/// The end-to-end row that also gates full variates per frame.
const DENSE: &str = "dense_neighbourhood_end_to_end";

/// The end-to-end rows that also gate pairs drawn and receptions planned
/// per transmission: an untraced run draws and plans them only at stations
/// a flow's path names, at the start or after a route refresh, a handful
/// of the dozens that sense each frame.
const CAMPUS: &str = "smoke_campus_end_to_end";
const MESH: &str = "drifting_mesh_end_to_end";

/// The MAC configurations the fig-6 class runs under: `RippleMac`, `DcfMac`
/// plain and aggregated, `ExorMac` in both ACK modes.
const FIG6_MACS: [(&str, Scheme); 5] = [
    ("fig6_class_end_to_end", Scheme::Ripple { aggregation: 16 }),
    ("fig6_class_dcf1_end_to_end", Scheme::Dcf { aggregation: 1 }),
    ("fig6_class_afr16_end_to_end", Scheme::Dcf { aggregation: 16 }),
    ("fig6_class_mcexor_end_to_end", Scheme::McExor),
    ("fig6_class_preexor_end_to_end", Scheme::PreExor),
];

/// Every gated measurement, plus the end-to-end runs' phase splits.
fn measure_all() -> (Vec<Entry<'static>>, Vec<String>) {
    // The end-to-end scenarios (an FTP flow + 5 hidden CBR senders under
    // each MAC; under RIPPLE-16 again with the relays pacing on a 10 ms
    // mobility tick; the 256-station dense neighbourhood; the 64-station
    // campus; the 64-station drifting mesh) are built up front, so what is
    // live at entry is the same for every measured region.
    let mut scenarios: Vec<(&str, Scenario)> = FIG6_MACS
        .map(|(bench, scheme)| (bench, fig6_class_scenario(5, scheme, E2E_DURATION)))
        .into();
    scenarios.push(("fig6_class_mobile_end_to_end", fig6_class_mobile_scenario(5, E2E_DURATION)));
    scenarios.push((DENSE, dense_neighbourhood_scenario(DENSE_DURATION)));
    let campus = smoke_campus_scenario(Scheme::Ripple { aggregation: 16 }, E2E_DURATION);
    scenarios.push((CAMPUS, campus));
    scenarios.push((MESH, drifting_mesh_scenario(E2E_DURATION)));
    let mut out = vec![medium_build()];
    out.extend(medium_plan());
    out.extend(route_refresh_pass());
    out.extend(materialise_campus());
    out.extend(campus4096_run());
    out.extend([saturated_queue(), event_churn_recycled(), run_churn_recycled(), clean_decode()]);
    let splits =
        scenarios.iter().map(|(bench, scenario)| end_to_end(bench, scenario, &mut out)).collect();
    (out, splits)
}

fn parse_budget(doc: &Value) -> Result<Vec<Entry<'_>>, String> {
    if doc.get("artefact").and_then(Value::as_str) != Some("alloc_budget") {
        return Err("artefact must be \"alloc_budget\"".into());
    }
    let entries = doc.get("budgets").and_then(Value::as_arr).ok_or("budgets must be an array")?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| entry.get(key).and_then(Value::as_str);
            let bench = field("bench").ok_or("every budget entry needs a bench name")?;
            let metric = field("metric").ok_or(format!("budget for {bench:?}: no metric"))?;
            let value = entry
                .get("max")
                .and_then(Value::as_f64)
                .ok_or(format!("budget for {bench:?}: max must be numeric"))?;
            Ok(Entry { bench, metric, value })
        })
        .collect()
}

fn find<'a>(entries: &'a [Entry], key: &Entry) -> Option<&'a Entry<'a>> {
    entries.iter().find(|e| e.bench == key.bench && e.metric == key.metric)
}

/// The gate's verdict, one line per failure: a budget entry nothing
/// measures, a measurement nothing budgets, or a value above its ceiling.
fn check(measured: &[Entry], budgets: &[Entry]) -> Vec<String> {
    let mut failures = Vec::new();
    for b in budgets.iter().filter(|b| find(measured, b).is_none()) {
        failures.push(format!(
            "{} {}: budgeted but not measured — drop the entry or restore the workload",
            b.bench, b.metric
        ));
    }
    for m in measured {
        match find(budgets, m) {
            None => failures.push(format!(
                "{} {}: measured but has no budget entry — add a ceiling",
                m.bench, m.metric
            )),
            Some(b) if m.value > b.value => failures.push(format!(
                "{} {}: {} exceeds the committed ceiling {} — a gated path started \
                 allocating or computing more again (raise the ceiling only if that is \
                 intended)",
                m.bench, m.metric, m.value, b.value
            )),
            Some(_) => {}
        }
    }
    failures
}

/// Measures, loads the budget, prints the table; returns the failure count.
fn gate(path: &str) -> Result<usize, String> {
    assert!(wmn_alloc::counting_enabled(), "wmn_bench must build wmn_alloc with `count`");
    // Measured before the budget is read, so that the peaks (which include
    // whatever the process already holds) do not depend on the file's size.
    let (measured, splits) = measure_all();
    let text = std::fs::read_to_string(path).map_err(|err| err.to_string())?;
    let doc = parse(&text)?;
    let budgets = parse_budget(&doc)?;

    println!("{:<34} {:<17} {:>19} {:>9}", "bench", "metric", "measured", "max");
    for m in &measured {
        let max = find(&budgets, m).map_or("-".to_string(), |b| b.value.to_string());
        println!("{:<34} {:<17} {:>19} {:>9}", m.bench, m.metric, m.value, max);
    }
    for split in &splits {
        println!("{split}");
    }
    let failures = check(&measured, &budgets);
    for failure in &failures {
        eprintln!("FAIL {failure}");
    }
    Ok(failures.len())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "ci/alloc_budget.json".into());
    if args.next().is_some() {
        eprintln!("usage: alloc_gate [BUDGET_JSON]");
        return ExitCode::from(2);
    }
    match gate(&path) {
        Ok(0) => {
            println!("alloc_gate: every metric within {path}");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!("alloc_gate: {n} failure(s) against {path}");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("alloc_gate: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Value {
        parse(include_str!("../../../../ci/alloc_budget.json")).expect("valid JSON")
    }

    /// The committed ceilings themselves are a measurement set that passes.
    #[test]
    fn values_at_the_committed_ceilings_pass() {
        let doc = committed();
        let budgets = parse_budget(&doc).expect("committed budget is well-formed");
        assert_eq!(budgets.len(), 41);
        assert_eq!(check(&budgets, &budgets), Vec::<String>::new());
    }

    #[test]
    fn a_value_above_its_ceiling_fails_naming_bench_and_metric() {
        let doc = committed();
        let budgets = parse_budget(&doc).unwrap();
        let mut measured = budgets.clone();
        let fig6 = measured.iter_mut().find(|e| e.bench == "fig6_class_end_to_end");
        fig6.expect("its allocs_per_frame row comes first").value += 0.5;
        let failures = check(&measured, &budgets);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("fig6_class_end_to_end allocs_per_frame: 2.95 exceeds"));
    }

    #[test]
    fn a_budget_entry_nothing_measures_fails() {
        let doc = committed();
        let budgets = parse_budget(&doc).unwrap();
        let failures = check(&budgets[1..], &budgets);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("clean_decode_16sub allocs_per_op: budgeted but not"));
    }

    #[test]
    fn a_measurement_without_a_budget_entry_fails() {
        let doc = committed();
        let measured = parse_budget(&doc).unwrap();
        let failures = check(&measured, &measured[..measured.len() - 1]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0]
            .starts_with("route_refresh_pass_grid256_flows4 allocs_per_op: measured but has no"));
    }
}
