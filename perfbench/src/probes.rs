//! Per-layer probes: each one times a layer's public calls from outside,
//! on inputs the caller takes from the workload (placement, transmitter
//! sequence, frame shape, heap size). One copy of each probe; the trace run
//! calls them with each workload's inputs.
//!
//! Every probe returns nanoseconds per operation for one batch; callers keep
//! the fastest of a few batches (see [`best_of`]).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use wmn_mac::frame::{
    DataFrame, Frame, LinkDst, NetHeader, NodeList, Packet, Proto, RouteInfo, RxFrame, Subframe,
};
use wmn_mac::{ActionSink, FramePool, IfQueue, MacScheme};
use wmn_netsim::stack::decode::decode_frame;
use wmn_netsim::Scheme;
use wmn_phy::{BerModel, Medium, PhyParams, Position, Receiver};
use wmn_routing::LinkGraph;
use wmn_sim::{
    EventKey, EventQueue, FlowId, KeyedEventQueue, NodeId, SimDuration, SimTime, StreamRng,
};
use wmn_transport::{TcpAction, TcpConfig, TcpReceiver, TcpSegment, TcpSender};

/// Fastest of `batches` runs of `probe`, compared on the first tuple field.
pub fn best_of<T>(batches: usize, mut probe: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = probe();
    for _ in 1..batches {
        let next = probe();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `EventQueue` churn with `frontier` events pending: every pop schedules a
/// successor at or just after "now", the simulator's steady-state pattern.
pub fn event_queue(frontier: usize, ops: u64) -> f64 {
    let frontier = frontier.max(1) as u64;
    let mut q = EventQueue::with_capacity(frontier as usize);
    for i in 0..frontier {
        q.schedule(SimTime::from_nanos(i / 4), i);
    }
    let mut sum = 0u64;
    let start = Instant::now();
    for i in 0..ops {
        let (_, e) = q.pop().expect("frontier never empties");
        sum = sum.wrapping_add(e);
        q.schedule_in(SimDuration::from_nanos(i % 3), i);
    }
    black_box(sum);
    ns_per(start, ops)
}

/// The same churn on the `KeyedEventQueue` the sharded engine schedules on,
/// keys minted per origin lane like the engine's.
pub fn keyed_queue(frontier: usize, ops: u64) -> f64 {
    let frontier = frontier.max(1) as u64;
    let mut q = KeyedEventQueue::with_capacity(frontier as usize);
    for i in 0..frontier {
        q.schedule_keyed(SimTime::from_nanos(i / 4), EventKey::new(0, i as u32, 0), i);
    }
    let mut sum = 0u64;
    let start = Instant::now();
    for i in 0..ops {
        let (_, e) = q.pop().expect("frontier never empties");
        sum = sum.wrapping_add(e);
        let lane = (i % frontier) as u32;
        q.schedule_keyed_in(SimDuration::from_nanos(i % 3), EventKey::new(1, lane, i + 1), i);
    }
    black_box(sum);
    ns_per(start, ops)
}

/// `Medium::plan_transmission_into` for `calls` transmissions cycling
/// through `transmitters` (the workload's own transmitter sequence).
/// Returns (ns/call, mean planned receptions per call).
pub fn planner(medium: &Medium, transmitters: &[NodeId], calls: u64) -> (f64, f64) {
    let mut rng = StreamRng::derive(99, "bench/planner");
    let mut scratch = Vec::new();
    let mut planned = 0u64;
    let start = Instant::now();
    for i in 0..calls {
        let from = transmitters[(i % transmitters.len() as u64) as usize];
        medium.plan_transmission_into(from, &mut rng, &mut scratch);
        planned += scratch.len() as u64;
        black_box(&scratch);
    }
    (ns_per(start, calls), planned as f64 / calls.max(1) as f64)
}

/// One sensed arrival through a `Receiver`: start, then end, with a second
/// arrival overlapping every fourth one (the capture rule's branch).
pub fn receiver(arrivals: u64) -> f64 {
    let mut rx = Receiver::new();
    let mut clean = 0u64;
    let start = Instant::now();
    for i in 0..arrivals {
        let now = SimTime::from_nanos(i * 1_000);
        black_box(rx.on_arrival_start(2 * i, true, -60.0, now));
        if i % 4 == 0 {
            black_box(rx.on_arrival_start(2 * i + 1, true, -75.0, now));
            black_box(rx.on_arrival_end(2 * i + 1, now));
        }
        let (outcome, _) = rx.on_arrival_end(2 * i, now);
        clean += u64::from(outcome == wmn_phy::ArrivalOutcome::Clean);
    }
    black_box(clean);
    ns_per(start, arrivals)
}

/// `Medium::update_node_position` for every node in turn, each nudged by a
/// fraction of a metre as a mobility tick does. Returns ns per moved node.
pub fn link_refresh(medium: &mut Medium, moves: u64) -> f64 {
    let n = medium.node_count() as u64;
    let start = Instant::now();
    for i in 0..moves {
        let node = NodeId::new((i % n) as u32);
        let p = medium.position(node);
        let step = if (i / n) % 2 == 0 { 0.1 } else { -0.1 };
        medium.update_node_position(node, Position::new(p.x + step, p.y + step));
    }
    black_box(&*medium);
    ns_per(start, moves)
}

/// One `LinkGraph` snapshot of the medium's current link state.
pub fn linkgraph_build(medium: &Medium) -> Result<(f64, LinkGraph), String> {
    let start = Instant::now();
    let graph = LinkGraph::try_from_medium(medium).map_err(|e| format!("{e:?}"))?;
    Ok((ns_per(start, 1), graph))
}

/// Min-ETX Dijkstra for each endpoint pair (a route-refresh pass reruns it
/// once per flow). Returns ns per path query.
pub fn dijkstra(graph: &LinkGraph, pairs: &[(NodeId, NodeId)], rounds: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        for &(src, dst) in pairs {
            black_box(graph.shortest_path(src, dst));
        }
    }
    ns_per(start, rounds * pairs.len() as u64)
}

fn header(src: u32, dst: u32, proto: Proto) -> NetHeader {
    NetHeader {
        flow: FlowId::new(0),
        src: NodeId::new(src),
        dst: NodeId::new(dst),
        proto,
        wire_bytes: 1000,
    }
}

fn opportunistic_list() -> NodeList {
    let mut list = NodeList::new();
    for node in [3, 2, 1] {
        list.push(NodeId::new(node));
    }
    list
}

/// A data frame of `subframes` aggregated 1000-byte packets from node 0
/// towards node 3 via 1 and 2, addressed the way `scheme` addresses frames.
pub fn data_frame(scheme: Scheme, subframes: usize) -> Arc<Frame> {
    let pool = FramePool::default();
    let mut subs = pool.mint_subframes();
    for seq in 0..subframes.max(1) as u32 {
        subs.push(Subframe {
            seq,
            packet: Packet::new(header(0, 3, Proto::Tcp), pool.mint_body(&[0u8; 18])),
            corrupted: false,
        });
    }
    let link_dst = if scheme.is_opportunistic() {
        LinkDst::Opportunistic { list: opportunistic_list() }
    } else {
        LinkDst::Unicast(NodeId::new(1))
    };
    Arc::new(Frame::Data(DataFrame {
        transmitter: NodeId::new(0),
        link_dst,
        flow: FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(3),
        frame_seq: 0,
        subframes: subs,
        retry: 0,
    }))
}

/// A MAC of `scheme` at a bystander station (node 9: on no route), with one
/// packet of its own queued so carrier-sense edges do real backoff work.
fn bystander_mac(scheme: Scheme, params: &PhyParams) -> (Box<dyn wmn_mac::MacEntity>, ActionSink) {
    let mut mac = scheme.build_mac(params, NodeId::new(9), StreamRng::derive(7, "bench/decode"));
    let mut sink = ActionSink::new();
    let route = if scheme.is_opportunistic() {
        let mut list = NodeList::new();
        for node in [12, 11, 10] {
            list.push(NodeId::new(node));
        }
        RouteInfo::Opportunistic { list }
    } else {
        RouteInfo::NextHop(NodeId::new(10))
    };
    mac.on_enqueue(Packet::new(header(9, 12, Proto::Udp), vec![]), route, SimTime::ZERO, &mut sink);
    while sink.pop().is_some() {}
    (mac, sink)
}

/// One busy edge followed by one idle edge at a station that has traffic
/// queued: what every sensed transmission costs every MAC in range.
pub fn mac_busy_idle(scheme: Scheme, params: &PhyParams, pairs: u64) -> f64 {
    let (mut mac, mut sink) = bystander_mac(scheme, params);
    let start = Instant::now();
    for i in 0..pairs {
        // 40 µs busy, 10 µs idle: shorter than DIFS, so the backoff timer is
        // armed and frozen on every pair and never fires.
        let t = 1_000 + i * 50_000;
        mac.on_busy(SimTime::from_nanos(t), &mut sink);
        while let Some(action) = sink.pop() {
            black_box(&action);
        }
        mac.on_idle(SimTime::from_nanos(t + 40_000), &mut sink);
        while let Some(action) = sink.pop() {
            black_box(&action);
        }
    }
    ns_per(start, pairs)
}

/// `on_frame_rx` of a clean data frame the station is not addressed by: the
/// fate of all but a handful of the receptions a transmission fans out to.
pub fn mac_overheard_rx(
    scheme: Scheme,
    params: &PhyParams,
    frame: &Arc<Frame>,
    frames: u64,
) -> f64 {
    let (mut mac, mut sink) = bystander_mac(scheme, params);
    let start = Instant::now();
    for i in 0..frames {
        let now = SimTime::from_nanos(1_000 + i * 500_000);
        mac.on_frame_rx(RxFrame::Shared(Arc::clone(frame)), now, &mut sink);
        while let Some(action) = sink.pop() {
            black_box(&action);
        }
    }
    ns_per(start, frames)
}

/// The saturated interface-queue cycle the aggregation path drives: pull a
/// route-matched batch of up to `batch` packets, re-enqueue them.
pub fn ifq_cycle(batch: usize, cycles: u64) -> f64 {
    let route = RouteInfo::NextHop(NodeId::new(1));
    let mut q = IfQueue::new(50);
    for _ in 0..50 {
        assert!(q.push(Packet::new(header(0, 9, Proto::Udp), vec![]), route.clone()).is_none());
    }
    let cycle = |q: &mut IfQueue| {
        let mut pulled = q.pop_batch_matching_head(batch.max(1), u32::MAX);
        for qp in pulled.drain(..) {
            assert!(q.push(qp.packet, qp.route).is_none(), "refill must fit");
        }
    };
    for _ in 0..4 {
        cycle(&mut q);
    }
    let start = Instant::now();
    for _ in 0..cycles {
        cycle(&mut q);
    }
    ns_per(start, cycles)
}

/// A lossless `TcpSender`/`TcpReceiver` ping-pong: every data segment the
/// sender emits is delivered in order and its ACK fed straight back.
/// Returns (ns per data segment, allocator calls per ACK processed).
pub fn tcp_pingpong(segments: u64) -> (f64, f64) {
    let cfg = TcpConfig::default();
    let mut sender = TcpSender::new(cfg.clone());
    let mut receiver = TcpReceiver::new(cfg);
    let mut now_ns = 0u64;
    let mut in_flight: std::collections::VecDeque<TcpSegment> = std::collections::VecDeque::new();
    let push_sends = |actions: Vec<TcpAction>, q: &mut std::collections::VecDeque<TcpSegment>| {
        for action in actions {
            if let TcpAction::Send { segment, .. } = action {
                q.push_back(segment);
            }
        }
    };
    push_sends(sender.start_unlimited(SimTime::ZERO), &mut in_flight);
    let mut delivered = 0u64;
    let mut acks = 0u64;
    let start = Instant::now();
    let ((), alloc) = wmn_alloc::measure(|| {
        while delivered < segments {
            let Some(segment) = in_flight.pop_front() else { break };
            now_ns += 100_000;
            match segment {
                TcpSegment::Data { seq, ts, retx } => {
                    delivered += 1;
                    push_sends(receiver.on_data(seq, ts, retx), &mut in_flight);
                }
                TcpSegment::Ack { cum_ack, ts_echo } => {
                    acks += 1;
                    push_sends(
                        sender.on_ack(cum_ack, ts_echo, SimTime::from_nanos(now_ns)),
                        &mut in_flight,
                    );
                }
            }
        }
    });
    assert_eq!(delivered, segments, "lossless ping-pong stalled");
    (ns_per(start, segments), alloc.allocs as f64 / acks.max(1) as f64)
}

/// `decode_frame` of one shared frame at the workload's bit-error rate.
/// Returns ns per call.
pub fn decode(frame: &Arc<Frame>, ber: f64, calls: u64) -> f64 {
    let model = BerModel::new(ber);
    let mut rng = StreamRng::derive(7, "bench/decode");
    let mut decoded = 0u64;
    let start = Instant::now();
    for _ in 0..calls {
        if let Some(rx) = decode_frame(&model, &mut rng, frame) {
            decoded += 1;
            black_box(&rx);
        }
    }
    black_box(decoded);
    ns_per(start, calls)
}
