//! The station-stack core: every event handler of the engine, once.
//!
//! A [`StationStack`] owns everything that is per-station or per-flow — the
//! MAC state machines, the transport endpoints, one [`Receiver`] per
//! station, the air table, the bit-error model, the transport
//! body pool, the optional [`Trace`] and the keyed future-event list — and
//! holds the only definition of every event handler: MAC actions become
//! transmissions, timers and deliveries; transport actions become enqueues
//! and RTO timers. The queue holds only what stations and flows schedule.
//! The read-mostly world (the [`Medium`] and the routes) is lent to each
//! dispatch as a [`World`] by the loop that pops the queue, which brings
//! that world up to each popped event's instant before lending it.
//!
//! # Keys and channel draws
//!
//! An event's tie-break key comes from one counter per originating station
//! or flow, so the order of simultaneous events is a function of what
//! caused each of them, not of when it was scheduled; a transmission's
//! receptions sort after every other event of their instant (`LANE_AIR`).
//!
//! Each channel draw is keyed by its coordinates, from the two seeds of the
//! `channel` stream: a pair's shadowing by (transmitter, the transmitter's
//! frame counter, receiver), a reception's bit errors by (receiver,
//! transmitter, frame counter). No draw depends on which others were taken,
//! so a run whose medium observes only some stations
//! ([`Prepared::observed_stations`](crate::Prepared::observed_stations))
//! draws, for those stations, exactly what a run that plans every station
//! draws.
//!
//! # MACs only where an event can arrive
//!
//! An untraced run builds a MAC only at the stations its medium observes,
//! and pre-sizes the heap to them; every other station gets a stateless
//! stand-in that allocates nothing and reports the statistics of a MAC
//! that saw no event (`MacEngine::build`). No event reaches such a
//! station: no flow's path names it, so nothing enqueues there, and the
//! medium plans no reception at it. A traced run builds every station's
//! MAC. The receivers, frame and key counters, air-table capacity and
//! timer slots stay one per station, indexed by station: what lost is a
//! station→slot table that sized them to the mask as well (one extra
//! load per lookup; 0 of 6 alternated pairs faster and about +2 % `wall_s`
//! on both `paper_figs` and `sweep_short`, whose runs observe nearly every
//! station, for 0.7 MB less at 4 096 stations).

use std::sync::Arc;

use wmn_mac::frame::{Frame, NetHeader, Packet, Proto, RouteInfo};
use wmn_mac::{ActionSink, FramePool, MacAction, MacEntity, RateClass, TimerSlot};
use wmn_phy::medium::BusyTransition;
use wmn_phy::{ArrivalOutcome, BerModel, Medium, Receiver, RxPlan};
use wmn_sim::{
    labels, DrawKey, EventKey, FlowId, KeyedEventQueue, NodeId, RngDirectory, SimDuration, SimTime,
    StreamRng,
};
use wmn_transport::{TcpAction, TcpSegment, UdpDatagram};

use crate::scenario::{Prepared, Workload};
use crate::stack::decode::decode_frame;
use crate::stack::flow_layer::FlowLayer;
use crate::stack::mac_engine::MacEngine;
use crate::stack::net_layer::NetLayer;
use crate::stack::phy_io::{AirTable, Reception};
use crate::stack::Event;
use crate::trace::{FrameKind, Trace, TraceEvent, TraceKind};

/// Key lane for a station's own events (TxEnd, MacTimer).
const LANE_NODE: u32 = 0;
/// Key lane for events originated by a flow (FlowStart, UdpSend,
/// WebStart, TcpRto).
const LANE_FLOW: u32 = 1;
/// Key lane for a transmission's receptions (RxStart, RxEnd). It sorts
/// last, so what a station's own timers decide at an instant is decided
/// before it hears what arrives at that instant. Two stations that count
/// down the same back-off slot from one idle edge tie exactly — the later
/// one's expiry falls on the earlier one's arrival, one propagation delay
/// apart at both ends — and both transmit, as 802.11 stations that draw
/// the same slot do. In the transmitter's own lane the tie would go by
/// station index and cancel about half of those collisions (DCF chains
/// about 4 % faster than the model allows).
const LANE_AIR: u32 = 2;

// Every sift moves whole heap entries: a fat `Event` variant is a build
// error, not a slow queue.
const _: () = assert!(KeyedEventQueue::<Event>::ENTRY_BYTES <= 48);

/// The order a transmission's receptions start in (and, one airtime later,
/// end in): its `(propagation delay, plan index)` pairs, ascending, in a
/// buffer every transmission reuses.
#[derive(Default)]
struct ReceptionOrder {
    order: Vec<(SimDuration, u32)>,
}

impl ReceptionOrder {
    /// The order of `plans`' receptions.
    fn of(&mut self, plans: &[RxPlan]) -> &[(SimDuration, u32)] {
        self.order.clear();
        self.order.extend(plans.iter().zip(0u32..).map(|(plan, i)| (plan.delay, i)));
        self.order.sort_unstable();
        &self.order
    }
}

/// The read-mostly world a dispatch runs against, lent by the loop.
#[derive(Clone, Copy)]
pub(crate) struct World<'a> {
    /// The shared channel: link state and the reception planner.
    pub(crate) medium: &'a Medium,
    /// Per-flow routes.
    pub(crate) net: &'a NetLayer<'a>,
}

/// The entity an event is scheduled on behalf of — what its tie-break key
/// is derived from.
enum Origin {
    /// A station: TxEnd, MacTimer.
    Node(NodeId),
    /// A station's transmission: its RxStarts and RxEnds.
    Air(NodeId),
    /// A flow: FlowStart, UdpSend, WebStart, TcpRto.
    Flow(FlowId),
}

/// A block of consecutive keys minted for one origin by
/// [`StationStack::keys`].
#[derive(Clone, Copy)]
struct KeyBlock {
    lane: u32,
    entity: u32,
    first: u64,
}

impl KeyBlock {
    /// The block's `i`-th key, counting from zero.
    fn nth(self, i: u64) -> EventKey {
        EventKey::new(self.lane, self.entity, self.first + i)
    }
}

/// The per-station / per-flow engine state and its event handlers (see the
/// module docs). Building only derives streams and keys: no stream a
/// handler draws from is advanced by construction.
pub(crate) struct StationStack {
    /// The future-event list; its clock is the stack's only clock.
    pub(crate) queue: KeyedEventQueue<Event>,
    pub(crate) macs: MacEngine,
    pub(crate) flows: FlowLayer,
    /// The packet-level timeline, when the caller asked for one.
    pub(crate) trace: Option<Trace>,
    /// The last instant of the run; events at exactly `end` still process.
    pub(crate) end: SimTime,
    /// Per-station key counters (lanes `LANE_NODE` and `LANE_AIR`).
    node_seq: Vec<u64>,
    /// Per-flow key counters (lane `LANE_FLOW`).
    flow_seq: Vec<u64>,
    /// The seed every shadowing draw's key starts from.
    shadowing: DrawKey,
    /// The seed every bit-error draw's key starts from.
    bit_errors: DrawKey,
    /// Transmissions each station has started: its frame counter.
    sent: Vec<u64>,
    receivers: Vec<Receiver>,
    /// Every transmission with a reception still to end: its frame and its
    /// reception plan.
    pub(crate) air: AirTable,
    ber: BerModel,
    /// `broadcast`'s reception order, reused by every transmission.
    order: ReceptionOrder,
    /// Recycler for transport packet bodies: once warm, minting a TCP
    /// segment or UDP datagram body reuses a retired buffer instead of
    /// allocating.
    pool: FramePool,
    /// Test reference: every slot arming scheduled as a plain event and
    /// every disarm ignored — the schedule before timers had slots.
    #[cfg(test)]
    pub(super) slotless: bool,
    /// `MacTimer` events dispatched, dead or alive.
    #[cfg(test)]
    pub(super) mac_timer_pops: u64,
}

impl StationStack {
    /// Builds the stack for one run of a validated scenario, every RNG
    /// stream and draw key derived from `seed`, and seeds
    /// the queue with every flow's arrival process, sized to exactly that
    /// load plus a few entries per station, so the heap warms up here
    /// instead of growing inside the hot loop. The timers cancelled far
    /// more often than they fire get queue slots instead of heap entries: a
    /// station's back-off and ACK timeout ([`TimerSlot`]) and a TCP flow's
    /// RTO, each holding its one pending fire. The heap holds a station's
    /// TxEnd, its scheme's own timers and, per transmission in flight, the
    /// heads of its two reception runs; it is pre-sized at four entries per
    /// station a run can reach, the [`Prepared::observed_stations`]. The
    /// air table gets a slot per station for the same reason: a station has
    /// one transmission on the air at a time. A MAC is built only at a
    /// station the run can reach ([`MacEngine::build`]); a `traced` stack
    /// reaches, and records, every event at every station.
    pub(crate) fn build(prepared: &Prepared<'_>, seed: u64, traced: bool) -> StationStack {
        let scenario = prepared.scenario();
        let dir = &RngDirectory::new(seed);
        let n = scenario.positions.len();
        let kept = prepared.observed_stations(traced);
        let mut channel = dir.stream(labels::CHANNEL);
        let macs = MacEngine::build(&scenario.scheme, &scenario.params, n, kept, dir);
        let flows = FlowLayer::build(scenario, dir);
        let seeds = flows.seed_events(scenario, dir);
        let slots = 2 * n + scenario.flows.len();
        let mut stack = StationStack {
            queue: KeyedEventQueue::with_slots(seeds.len(), slots as u32),
            macs,
            flows,
            trace: traced.then(Trace::default),
            end: SimTime::ZERO + scenario.duration,
            node_seq: vec![0; n],
            flow_seq: vec![0; scenario.flows.len()],
            shadowing: DrawKey::new(channel.next_u64()),
            bit_errors: DrawKey::new(channel.next_u64()),
            sent: vec![0; n],
            receivers: (0..n).map(|_| Receiver::new()).collect(),
            air: AirTable::with_capacity(n),
            ber: BerModel::new(scenario.params.ber),
            order: ReceptionOrder::default(),
            pool: FramePool::default(),
            #[cfg(test)]
            slotless: false,
            #[cfg(test)]
            mac_timer_pops: 0,
        };
        for (delay, flow, event) in seeds {
            stack.schedule_in(delay, Origin::Flow(flow), event);
        }
        stack.queue.reserve(kept.map_or(n, <[_]>::len) * 4);
        stack
    }

    /// The simulation clock. There is exactly one: the event queue's notion
    /// of "now" (the instant of the most recently popped event), so handlers
    /// and `schedule_in` can never drift apart.
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Mints the next key for an event caused by `origin`.
    fn key(&mut self, origin: Origin) -> EventKey {
        self.keys(origin, 1).nth(0)
    }

    /// Mints the next `count` keys of `origin` at once; taken one by one
    /// in [`KeyBlock::nth`] order they are the keys `count` calls of
    /// [`StationStack::key`] would have returned.
    fn keys(&mut self, origin: Origin, count: u64) -> KeyBlock {
        let (lane, entity, seq) = match origin {
            Origin::Node(node) => (LANE_NODE, node.index(), &mut self.node_seq[node.index()]),
            Origin::Air(node) => (LANE_AIR, node.index(), &mut self.node_seq[node.index()]),
            Origin::Flow(flow) => (LANE_FLOW, flow.index(), &mut self.flow_seq[flow.index()]),
        };
        let block = KeyBlock { lane, entity: entity as u32, first: *seq };
        *seq += count;
        block
    }

    /// Schedules `event`, `delay` from now, under the next key of `origin`.
    fn schedule_in(&mut self, delay: SimDuration, origin: Origin, event: Event) {
        let key = self.key(origin);
        self.queue.schedule_keyed_in(delay, key, event);
    }

    /// [`Self::schedule_in`], into queue slot `slot`: the key is minted
    /// whether or not the arming replaces one, as if every arming were.
    fn arm(&mut self, slot: u32, delay: SimDuration, origin: Origin, event: Event) {
        let key = self.key(origin);
        #[cfg(test)]
        if self.slotless {
            return self.queue.schedule_keyed_in(delay, key, event);
        }
        self.queue.arm(slot, self.now() + delay, key, event);
    }

    /// Takes back a cancelled timer's fire, which would have been ignored.
    fn disarm(&mut self, slot: u32) {
        #[cfg(test)]
        if self.slotless {
            return;
        }
        self.queue.disarm(slot);
    }

    /// The queue slot of `node`'s contention timer `timer`, two per station.
    fn mac_slot(node: NodeId, timer: TimerSlot) -> u32 {
        2 * node.index() as u32 + timer as u32
    }

    /// The queue slot of `flow`'s retransmission timer, after the stations'.
    fn rto_slot(&self, flow: FlowId) -> u32 {
        (2 * self.receivers.len() + flow.index()) as u32
    }

    /// Records `kind` at `node`, now.
    pub(crate) fn record(&mut self, node: NodeId, kind: TraceKind) {
        self.record_at(self.now(), node, kind);
    }

    /// Records `kind` at `node` as of `at`: what the loop records for a
    /// route refresh, which has no event of its own to set the clock.
    pub(crate) fn record_at(&mut self, at: SimTime, node: NodeId, kind: TraceKind) {
        if let Some(trace) = self.trace.as_mut() {
            trace.events.push(TraceEvent { at, node, kind });
        }
    }

    /// One MAC handler invocation under the sink discipline: open the sink
    /// of this nesting depth, let `handler` fill it in place, interpret
    /// every action, close. A re-entrant invocation (an applied action
    /// triggers another handler) opens the next sink down, so none is ever
    /// refilled mid-drain. Almost every invocation — a busy or idle edge at
    /// a station with nothing to send — emits nothing and skips the drain.
    fn with_mac(
        &mut self,
        node: NodeId,
        w: World<'_>,
        handler: impl FnOnce(&mut dyn MacEntity, &mut ActionSink),
    ) {
        let (mac, sink) = self.macs.open(node);
        handler(mac, sink);
        if !sink.is_empty() {
            self.apply_mac_actions(node, w);
        }
        self.macs.close();
    }

    /// Processes one popped event against the lent world.
    ///
    /// Forced inline: this is the body of the pop loop, and left as a call
    /// per event it costs +8 % wall on the benchmark's
    /// `paper_figs` workload.
    #[inline(always)]
    pub(crate) fn dispatch(&mut self, event: Event, w: World<'_>) {
        let now = self.now();
        match event {
            Event::TxEnd { node } => {
                self.record(node, TraceKind::TxEnd);
                self.with_mac(node, w, |mac, sink| mac.on_tx_end(now, sink));
                if let Some(BusyTransition::BecameIdle) =
                    self.receivers[node.index()].on_tx_end(now)
                {
                    self.with_mac(node, w, |mac, sink| mac.on_idle(now, sink));
                }
            }
            Event::RxStart { reception } => {
                let plan = self.air.plan(reception);
                let (node, decodable, power) = (plan.to, plan.decodable, plan.power);
                if let Some(BusyTransition::BecameBusy) = self.receivers[node.index()]
                    .on_planned_arrival_start(reception.id(), decodable, power, now)
                {
                    self.with_mac(node, w, |mac, sink| mac.on_busy(now, sink));
                }
            }
            Event::RxEnd { reception } => {
                let node = self.air.plan(reception).to;
                let (outcome, transition) =
                    self.receivers[node.index()].on_arrival_end(reception.id(), now);
                // Idle first so relay waits measure from the channel edge.
                if let Some(BusyTransition::BecameIdle) = transition {
                    self.with_mac(node, w, |mac, sink| mac.on_idle(now, sink));
                }
                // A frame that decodes with no subframe losses reaches the
                // MAC as a shared handle to the broadcast allocation; only a
                // corrupted one pays for a copy-on-write detach.
                let decoded = match outcome {
                    ArrivalOutcome::Clean => {
                        let (from, sent) = self.air.sent(reception);
                        let key = self.bit_errors.then(node.index() as u64);
                        let key = key.then(from.index() as u64).then(sent);
                        decode_frame(
                            &self.ber,
                            &mut StreamRng::keyed(key),
                            self.air.frame(reception),
                        )
                    }
                    ArrivalOutcome::Lost => None,
                };
                if let Some(frame) = decoded {
                    if self.trace.is_some() {
                        let (kind, flow, frame_seq) = match &*frame {
                            Frame::Data(d) => (FrameKind::Data, d.flow, d.frame_seq),
                            Frame::Ack(a) => (FrameKind::Ack, a.flow, a.frame_seq),
                        };
                        let from = frame.transmitter();
                        self.record(node, TraceKind::Decoded { kind, from, flow, frame_seq });
                    }
                    self.with_mac(node, w, |mac, sink| mac.on_frame_rx(frame, now, sink));
                }
                // However the reception ends, it lets go of the frame after
                // its MAC has seen it — and exactly once.
                self.air.release(reception);
            }
            Event::MacTimer { node, token } => {
                #[cfg(test)]
                {
                    self.mac_timer_pops += 1;
                }
                self.with_mac(node, w, |mac, sink| mac.on_timer(token, now, sink));
            }
            Event::TcpRto { flow, generation } => {
                let tx = self.flows.flow_mut(flow).tcp_tx.as_mut();
                let actions = tx.map(|tx| tx.on_rto(generation, now)).unwrap_or_default();
                self.apply_tcp_sender_actions(flow, actions, w);
            }
            Event::FlowStart { flow } => self.start_flow(flow, w),
            Event::UdpSend { flow } => self.udp_send(flow, w),
            Event::WebStart { flow } => self.web_next_transfer(flow, w),
        }
    }

    /// Drains the innermost open sink: what `node`'s handler just emitted.
    fn apply_mac_actions(&mut self, node: NodeId, w: World<'_>) {
        while let Some(action) = self.macs.next_action() {
            match action {
                MacAction::StartTx { frame, rate } => self.start_transmission(node, frame, rate, w),
                MacAction::SetTimer { delay, token, slot } => {
                    let (origin, event) = (Origin::Node(node), Event::MacTimer { node, token });
                    match slot {
                        Some(slot) => self.arm(Self::mac_slot(node, slot), delay, origin, event),
                        None => self.schedule_in(delay, origin, event),
                    }
                }
                MacAction::CancelTimer { slot } => self.disarm(Self::mac_slot(node, slot)),
                MacAction::Deliver { packet } => self.handle_delivery(node, packet, w),
                MacAction::Drop { packet, reason } => {
                    // End-to-end recovery (TCP retransmission / VoIP loss
                    // accounting) covers MAC drops; the trace just records
                    // the loss for the packet-level pipeline.
                    self.record(node, TraceKind::Drop { flow: packet.header.flow, reason });
                }
            }
        }
    }

    fn start_transmission(
        &mut self,
        node: NodeId,
        frame: Arc<Frame>,
        rate: RateClass,
        w: World<'_>,
    ) {
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::TxPath);
        if self.trace.is_some() {
            let (kind, flow, frame_seq, subframes) = match &*frame {
                Frame::Data(d) => (FrameKind::Data, d.flow, d.frame_seq, d.subframes.len()),
                Frame::Ack(a) => (FrameKind::Ack, a.flow, a.frame_seq, 0),
            };
            let wire_bytes = frame.wire_bytes();
            self.record(node, TraceKind::TxStart { kind, flow, frame_seq, subframes, wire_bytes });
        }
        let params = w.medium.params();
        let rate = match rate {
            RateClass::Data => params.data_rate,
            RateClass::Basic => params.basic_rate,
        };
        let airtime = params.airtime(rate, frame.wire_bytes());
        let now = self.now();
        if let Some(BusyTransition::BecameBusy) = self.receivers[node.index()].on_tx_start(now) {
            self.with_mac(node, w, |mac, sink| mac.on_busy(now, sink));
        }
        self.schedule_in(airtime, Origin::Node(node), Event::TxEnd { node });
        self.broadcast(node, frame, airtime, w.medium);
    }

    /// Fans one transmission out to every observed station that will
    /// perceive it: plans receptions ([`Self::plan`]), parks frame and plans
    /// in the air table, and mints each reception's RxStart/RxEnd key pair
    /// in the transmitter's air lane, in plan order. Every receiver shares the one
    /// frame allocation the MAC minted, through the one handle the air
    /// table holds until the last of them ends (a transmission nobody
    /// perceives parks nothing and mints no key).
    ///
    /// The 2·F events enter the queue as two runs, not 2·F heap entries (see
    /// [`KeyedEventQueue::schedule_run_in`]): receptions ordered by
    /// `(delay, plan index)` are in `(time, key)` order, because keys grow
    /// with the plan index, and the RxEnds share that order because each is
    /// its RxStart plus the one airtime. The order is sorted in a recycled
    /// buffer ([`ReceptionOrder`]), so steady state allocates nothing.
    fn broadcast(
        &mut self,
        from: NodeId,
        frame: Arc<Frame>,
        airtime: SimDuration,
        medium: &Medium,
    ) {
        let Some(slot) = self.plan(from, frame, medium) else { return };
        // Plan `i` owns keys 2i (RxStart) and 2i + 1 (RxEnd) of the block.
        let keys = self.keys(Origin::Air(from), 2 * self.air.plans(slot).len() as u64);
        let order = self.order.of(self.air.plans(slot));
        self.queue.schedule_run_in(order.iter().map(|&(delay, index)| {
            let reception = Reception { slot, index };
            (delay, keys.nth(2 * u64::from(index)), Event::RxStart { reception })
        }));
        self.queue.schedule_run_in(order.iter().map(|&(delay, index)| {
            let reception = Reception { slot, index };
            (delay + airtime, keys.nth(2 * u64::from(index) + 1), Event::RxEnd { reception })
        }));
    }

    /// Plans `from`'s next transmission at the observed stations (each
    /// pair's shadowing keyed by `from`, its frame counter and the
    /// receiver) into a buffer the air table lends, and parks `frame` with
    /// the plans.
    fn plan(&mut self, from: NodeId, frame: Arc<Frame>, medium: &Medium) -> Option<u32> {
        let mut plans = self.air.lend();
        let sent = self.sent[from.index()];
        self.sent[from.index()] += 1;
        let key = self.shadowing.then(from.index() as u64).then(sent);
        medium.plan_receptions_into(from, key, &mut plans);
        self.air.park(frame, plans, (from, sent))
    }

    fn handle_delivery(&mut self, node: NodeId, packet: Packet, w: World<'_>) {
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::Queue);
        let flow_id = packet.header.flow;
        let spec_src = self.flows.flow(flow_id).spec.src();
        let spec_dst = self.flows.flow(flow_id).spec.dst();
        let forward = packet.header.src == spec_src;

        if packet.header.dst == node {
            // Reached a transport endpoint.
            if node == spec_dst && forward {
                self.record(node, TraceKind::Delivered { flow: flow_id });
                self.deliver_at_destination(flow_id, packet, w);
            } else if node == spec_src && !forward {
                self.deliver_at_source(flow_id, packet, w);
            }
            return;
        }
        // Intermediate hop (predetermined routing only): forward along.
        if let Some(route) = w.net.route(flow_id, node, forward) {
            if self.trace.is_some() {
                if let RouteInfo::NextHop(next_hop) = &route {
                    let next_hop = *next_hop;
                    self.record(node, TraceKind::Forward { flow: flow_id, next_hop });
                }
            }
            let now = self.now();
            self.with_mac(node, w, |mac, sink| mac.on_enqueue(packet, route, now, sink));
        }
    }

    fn deliver_at_destination(&mut self, flow_id: FlowId, packet: Packet, w: World<'_>) {
        let now = self.now();
        match packet.header.proto {
            Proto::Tcp => {
                let actions = {
                    let flow = self.flows.flow_mut(flow_id);
                    let Some(rx) = flow.tcp_rx.as_mut() else { return };
                    match TcpSegment::decode(&packet.body) {
                        Some(TcpSegment::Data { seq, ts, retx }) => rx.on_data(seq, ts, retx),
                        _ => return,
                    }
                };
                self.apply_tcp_receiver_actions(flow_id, actions, w);
            }
            Proto::Udp => {
                let flow = self.flows.flow_mut(flow_id);
                if let Some(dg) = UdpDatagram::decode(&packet.body) {
                    flow.udp_sink.on_datagram(dg, packet.header.wire_bytes, now);
                }
            }
        }
    }

    fn deliver_at_source(&mut self, flow_id: FlowId, packet: Packet, w: World<'_>) {
        let now = self.now();
        let actions = {
            let flow = self.flows.flow_mut(flow_id);
            let Some(tx) = flow.tcp_tx.as_mut() else { return };
            match TcpSegment::decode(&packet.body) {
                Some(TcpSegment::Ack { cum_ack, ts_echo }) => tx.on_ack(cum_ack, ts_echo, now),
                _ => return,
            }
        };
        self.apply_tcp_sender_actions(flow_id, actions, w);
    }

    fn apply_tcp_sender_actions(&mut self, flow_id: FlowId, actions: Vec<TcpAction>, w: World<'_>) {
        for action in actions {
            match action {
                TcpAction::Send { segment, wire_bytes } => {
                    self.enqueue_transport_packet(flow_id, segment, wire_bytes, true, w);
                }
                TcpAction::SetRtoTimer { delay, generation } => {
                    // Each arming replaces the last: only its generation can expire.
                    let event = Event::TcpRto { flow: flow_id, generation };
                    self.arm(self.rto_slot(flow_id), delay, Origin::Flow(flow_id), event);
                }
                TcpAction::SendComplete => {
                    // Web workload: think, then start the next transfer.
                    let off = {
                        let flow = self.flows.flow_mut(flow_id);
                        match (&flow.spec.workload, flow.web_rng.as_mut()) {
                            (Workload::Web(model), Some(rng)) => Some(model.draw_off_period(rng)),
                            _ => None,
                        }
                    };
                    if let Some(off) = off {
                        let event = Event::WebStart { flow: flow_id };
                        self.schedule_in(off, Origin::Flow(flow_id), event);
                    }
                }
            }
        }
    }

    fn apply_tcp_receiver_actions(
        &mut self,
        flow_id: FlowId,
        actions: Vec<TcpAction>,
        w: World<'_>,
    ) {
        for action in actions {
            if let TcpAction::Send { segment, wire_bytes } = action {
                self.enqueue_transport_packet(flow_id, segment, wire_bytes, false, w);
            }
        }
    }

    fn enqueue_transport_packet(
        &mut self,
        flow_id: FlowId,
        segment: TcpSegment,
        wire_bytes: u32,
        forward: bool,
        w: World<'_>,
    ) {
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::Queue);
        let spec = &self.flows.flow(flow_id).spec;
        let (src, dst) = if forward { (spec.src(), spec.dst()) } else { (spec.dst(), spec.src()) };
        let Some(route) = w.net.route(flow_id, src, forward) else { return };
        let packet = Packet::new(
            NetHeader { flow: flow_id, src, dst, proto: Proto::Tcp, wire_bytes },
            self.pool.mint_body_with(|out| segment.encode_into(out)),
        );
        let now = self.now();
        self.with_mac(src, w, |mac, sink| mac.on_enqueue(packet, route, now, sink));
    }

    fn start_flow(&mut self, flow_id: FlowId, w: World<'_>) {
        let now = self.now();
        match &self.flows.flow(flow_id).spec.workload {
            Workload::Ftp => {
                let actions = self
                    .flows
                    .flow_mut(flow_id)
                    .tcp_tx
                    .as_mut()
                    .map(|tx| tx.start_unlimited(now))
                    .unwrap_or_default();
                self.apply_tcp_sender_actions(flow_id, actions, w);
            }
            Workload::Web(_) => self.web_next_transfer(flow_id, w),
            _ => {}
        }
    }

    fn web_next_transfer(&mut self, flow_id: FlowId, w: World<'_>) {
        let now = self.now();
        let actions = {
            let flow = self.flows.flow_mut(flow_id);
            let Workload::Web(model) = flow.spec.workload else { return };
            let Some(rng) = flow.web_rng.as_mut() else { return };
            let segments = model.draw_transfer_segments(rng);
            flow.tcp_tx.as_mut().map(|tx| tx.request_send(segments, now)).unwrap_or_default()
        };
        self.apply_tcp_sender_actions(flow_id, actions, w);
    }

    fn udp_send(&mut self, flow_id: FlowId, w: World<'_>) {
        let now = self.now();
        let (bytes, next) = match self.flows.flow(flow_id).spec.workload {
            Workload::Voip(wmn_traffic::VoipModel { packet_bytes, .. }) => (packet_bytes, None),
            Workload::Cbr(wmn_traffic::CbrModel { packet_bytes, interval }) => {
                (packet_bytes, Some(interval))
            }
            _ => return,
        };
        let src = self.flows.flow(flow_id).spec.src();
        let dst = self.flows.flow(flow_id).spec.dst();
        // Route lookup precedes the counter bumps: a (hypothetical)
        // source without a forward route sends nothing and counts nothing.
        let Some(route) = w.net.route(flow_id, src, true) else { return };
        let packet = {
            let flow = self.flows.flow_mut(flow_id);
            let dg = UdpDatagram { seq: flow.udp_seq, sent_at_ns: now.as_nanos() };
            flow.udp_seq += 1;
            flow.udp_sent += 1;
            Packet::new(
                NetHeader { flow: flow_id, src, dst, proto: Proto::Udp, wire_bytes: bytes },
                self.pool.mint_body_with(|out| dg.encode_into(out)),
            )
        };
        self.with_mac(src, w, |mac, sink| mac.on_enqueue(packet, route, now, sink));
        if let Some(interval) = next {
            if now + interval <= self.end {
                self.schedule_in(interval, Origin::Flow(flow_id), Event::UdpSend { flow: flow_id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use wmn_mac::frame::{AckFrame, RxFrame};
    use wmn_mac::{MacStats, TimerToken};
    use wmn_phy::{PhyParams, Position};

    use crate::scenario::{FlowSpec, Scenario, Scheme};

    /// Token whose fire starts the scripted chain.
    const GO: u64 = 100;
    const TICK: SimDuration = SimDuration::from_millis(1);

    /// A MAC that logs every handler entry — with whether the sink it was
    /// lent arrived empty — and answers three of them from a fixed script.
    struct ScriptMac {
        node: NodeId,
        log: Rc<RefCell<Vec<(&'static str, bool)>>>,
    }

    impl ScriptMac {
        fn enter(&self, handler: &'static str, out: &ActionSink) {
            self.log.borrow_mut().push((handler, out.is_empty()));
        }
    }

    fn timer(token: u64) -> MacAction {
        MacAction::SetTimer { delay: TICK, token: TimerToken(token), slot: None }
    }

    impl MacEntity for ScriptMac {
        fn on_enqueue(&mut self, _: Packet, _: RouteInfo, _: SimTime, out: &mut ActionSink) {
            self.enter("enqueue", out);
            let frame = Frame::Ack(AckFrame {
                transmitter: self.node,
                to: NodeId::new(0),
                flow: FlowId::new(0),
                frame_seq: 0,
                acked_seqs: Default::default(),
                relay_list: Default::default(),
            });
            out.push(timer(20));
            out.push(MacAction::StartTx { frame: frame.into_shared(), rate: RateClass::Basic });
            out.push(timer(21));
        }
        fn on_busy(&mut self, _: SimTime, out: &mut ActionSink) {
            self.enter("busy", out);
            out.push(timer(30));
        }
        fn on_idle(&mut self, _: SimTime, out: &mut ActionSink) {
            self.enter("idle", out);
        }
        fn on_frame_rx(&mut self, _: RxFrame, _: SimTime, out: &mut ActionSink) {
            self.enter("frame_rx", out);
        }
        fn on_tx_end(&mut self, _: SimTime, out: &mut ActionSink) {
            self.enter("tx_end", out);
        }
        fn on_timer(&mut self, token: TimerToken, _: SimTime, out: &mut ActionSink) {
            self.enter("timer", out);
            if token.0 == GO {
                // A packet of flow 0 in transit at the relay: delivering it
                // upwards re-enters the MAC through the forwarding path.
                let header = NetHeader {
                    flow: FlowId::new(0),
                    src: NodeId::new(0),
                    dst: NodeId::new(2),
                    proto: Proto::Udp,
                    wire_bytes: 100,
                };
                out.push(timer(10));
                out.push(MacAction::Deliver { packet: Packet::new(header, vec![]) });
                out.push(timer(11));
            }
        }
        fn stats(&self) -> MacStats {
            MacStats::default()
        }
    }

    /// A three-station line with one CBR flow 0 → 1 → 2.
    fn relay_scenario() -> Scenario {
        Scenario {
            name: "seam".into(),
            params: PhyParams::paper_216(),
            positions: (0..3).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect(),
            scheme: Scheme::Dcf { aggregation: 1 },
            flows: vec![FlowSpec {
                path: (0..3).map(NodeId::new).collect(),
                workload: Workload::Cbr(wmn_traffic::CbrModel::heavy()),
            }],
            duration: SimDuration::from_millis(100),
            seed: 1,
            max_forwarders: 5,
            motion: wmn_topology::MotionPlan::default(),
            route_refresh: None,
            shards: None,
        }
    }

    #[test]
    fn reentrant_handlers_get_their_own_sink_and_actions_apply_in_order() {
        // Relay 1 of a 0 → 1 → 2 route. One fired timer walks both
        // re-entrant chains, three invocations deep:
        //   on_timer   [T10, Deliver, T11]
        //     Deliver → on_enqueue   [T20, StartTx, T21]
        //       StartTx → on_busy   [T30]
        let scenario = relay_scenario();
        let prepared = scenario.prepare().expect("well-formed");
        let mut stack = StationStack::build(&prepared, scenario.seed, false);
        let log = Rc::new(RefCell::new(Vec::new()));
        let script = |i| Box::new(ScriptMac { node: NodeId::new(i), log: Rc::clone(&log) });
        stack.macs = MacEngine::over((0..3).map(|i| script(i) as Box<dyn MacEntity>).collect());
        let medium = prepared.medium(false);
        let net = NetLayer::build(&scenario, &prepared.schedule);
        let w = World { medium: &medium, net: &net };
        let relay = NodeId::new(1);
        let now = stack.now();

        const ROUNDS: usize = 8;
        for round in 0..ROUNDS {
            stack.with_mac(relay, w, |mac, sink| mac.on_timer(TimerToken(GO), now, sink));
            // The radio is released by hand (the queued TxEnd is never
            // popped), so the next round's StartTx finds the channel idle and
            // re-enters `on_busy` again.
            stack.dispatch(Event::TxEnd { node: relay }, w);
            assert_eq!(stack.macs.sink_count(), 3, "round {round}: one sink per nesting depth");
        }

        // Every handler was lent an empty sink — the nested ones while their
        // parents still held undrained actions (T21, T11).
        let log = log.borrow();
        let round = ["timer", "enqueue", "busy", "tx_end", "idle"];
        let expected: Vec<_> = (0..ROUNDS).flat_map(|_| round).map(|h| (h, true)).collect();
        assert_eq!(*log, expected);

        // Same delay, one key lane: the timers pop in the order their
        // actions were applied — a child's actions between the parent's
        // action that triggered it and the parent's next one.
        let mut tokens = Vec::new();
        while let Some((_, event)) = stack.queue.pop() {
            if let Event::MacTimer { node, token } = event {
                assert_eq!(node, relay);
                tokens.push(token.0);
            }
        }
        let expected: Vec<u64> = (0..ROUNDS).flat_map(|_| [10, 20, 30, 21, 11]).collect();
        assert_eq!(tokens, expected);
    }

    impl StationStack {
        /// The per-event scheduling `broadcast` replaced — 2·F pushes, in
        /// plan order — kept as its oracle.
        fn broadcast_per_event(
            &mut self,
            from: NodeId,
            frame: Arc<Frame>,
            airtime: SimDuration,
            medium: &Medium,
        ) {
            let Some(slot) = self.plan(from, frame, medium) else { return };
            for index in 0..self.air.plans(slot).len() as u32 {
                let reception = Reception { slot, index };
                let delay = self.air.plan(reception).delay;
                self.schedule_in(delay, Origin::Air(from), Event::RxStart { reception });
                let end = Event::RxEnd { reception };
                self.schedule_in(delay + airtime, Origin::Air(from), end);
            }
        }
    }

    /// Outer-ring stations of [`dense_scenario`] that its flow's path
    /// leaves out.
    const BYSTANDERS: [u32; 3] = [0, 2, 4];

    /// Thirty-one stations within carrier-sense reach of each other, in an
    /// index order that is not a distance order from anywhere: four
    /// colocated at the origin (zero delay — every reception of a
    /// transmission from there ties) and, around it, rings of exact radius
    /// 5 m and 10 m (3-4-5 triangles: equal non-zero delays, ≈ 17 and 33 ns).
    /// One CBR flow's path names every station but the [`BYSTANDERS`].
    fn dense_scenario() -> Scenario {
        let ring = [(5, 0), (3, 4), (0, 5), (-4, 3), (-5, 0), (-3, -4), (0, -5), (4, -3), (4, 3)];
        let mut positions = Vec::new();
        for (i, (x, y)) in ring.into_iter().enumerate() {
            let (x, y) = (f64::from(x), f64::from(y));
            positions.push(Position::new(2.0 * x, 2.0 * y));
            positions.push(Position::new(x, y));
            positions.push(Position::new(-2.0 * y, 2.0 * x));
            if i % 3 == 0 {
                positions.push(Position::new(0.0, 0.0));
            }
        }
        positions.push(Position::new(0.0, 0.0));
        let stations = 0..positions.len() as u32;
        let path = stations.filter(|i| !BYSTANDERS.contains(i)).map(NodeId::new).collect();
        let workload = Workload::Cbr(wmn_traffic::CbrModel::heavy());
        Scenario { positions, flows: vec![FlowSpec { path, workload }], ..relay_scenario() }
    }

    /// What one pop of the reception test's queues is compared on.
    type Popped = (SimTime, &'static str, u32, u64);

    /// Three overlapping transmissions, two timers and whatever the flow
    /// seeded, popped to exhaustion, and the key each transmitter would
    /// mint next; `send` is the broadcast under test, on a stack built
    /// `traced` or not.
    fn pop_sequence(
        scenario: &Scenario,
        traced: bool,
        send: fn(&mut StationStack, NodeId, Arc<Frame>, SimDuration, &Medium),
    ) -> (Vec<Popped>, [EventKey; 2]) {
        let prepared = scenario.prepare().expect("well-formed");
        let mut stack = StationStack::build(&prepared, scenario.seed, traced);
        let medium = prepared.medium(traced);
        let n = scenario.positions.len() as u32;
        let frame = |from| {
            Frame::Ack(AckFrame {
                transmitter: from,
                to: NodeId::new(0),
                flow: FlowId::new(0),
                frame_seq: 0,
                acked_seqs: Default::default(),
                relay_list: Default::default(),
            })
            .into_shared()
        };
        let airtime = SimDuration::from_micros(40);
        let mut popped = Vec::new();
        let mut pop = |stack: &mut StationStack, count: usize| {
            for _ in 0..count {
                let Some((at, event)) = stack.queue.pop() else { return };
                popped.push(match event {
                    Event::RxStart { reception } => {
                        let node = stack.air.plan(reception).to;
                        (at, "RxStart", node.index() as u32, reception.id())
                    }
                    // Released, so the third transmission recycles a slot.
                    Event::RxEnd { reception } => {
                        let node = stack.air.plan(reception).to;
                        stack.air.release(reception);
                        (at, "RxEnd", node.index() as u32, reception.id())
                    }
                    Event::MacTimer { node, token } => {
                        (at, "MacTimer", node.index() as u32, token.0)
                    }
                    _ => (at, "flow", 0, 0),
                });
            }
        };
        let timer = |stack: &mut StationStack, delay, node: u32| {
            let node = NodeId::new(node);
            let event = Event::MacTimer { node, token: TimerToken(u64::from(node.index() as u32)) };
            stack.schedule_in(delay, Origin::Node(node), event);
        };
        let [inner, outer] = [5.0, 10.0].map(|m| scenario.params.propagation_delay(m));

        // From the origin: its colocated twins tie at zero delay, each ring
        // at its own; a timer ties with the inner ring.
        let first = NodeId::new(n - 1);
        send(&mut stack, first, frame(first), airtime, &medium);
        timer(&mut stack, inner, n - 2);
        // Past the zero-delay ties and into the inner ring's.
        pop(&mut stack, 8);
        let now = stack.now();
        assert!(SimTime::ZERO < now && now < SimTime::ZERO + outer, "inside the window: {now:?}");
        // A lower-indexed station on the inner ring transmits before the
        // outer ring has heard the first frame, and a timer fires *now*.
        let second = NodeId::new(1);
        send(&mut stack, second, frame(second), airtime, &medium);
        timer(&mut stack, SimDuration::ZERO, 0);
        // Into the RxEnds, so the third transmission recycles an air slot.
        pop(&mut stack, 80);
        assert!(stack.now() > SimTime::ZERO + airtime);
        send(&mut stack, first, frame(first), airtime, &medium);
        pop(&mut stack, usize::MAX);
        assert!(stack.queue.is_empty());
        (popped, [first, second].map(|node| stack.key(Origin::Node(node))))
    }

    #[test]
    fn broadcast_pops_what_per_event_scheduling_pops() {
        let scenario = dense_scenario();
        for traced in [false, true] {
            let (runs, next_keys) =
                pop_sequence(&scenario, traced, |s, from, f, air, m| s.broadcast(from, f, air, m));
            let oracle = pop_sequence(&scenario, traced, |s, from, f, air, m| {
                s.broadcast_per_event(from, f, air, m)
            });
            assert_eq!((&runs, next_keys), (&oracle.0, oracle.1), "traced: {traced}");
            // Only an untraced stack leaves the bystanders out.
            let prepared = scenario.prepare().expect("well-formed");
            assert_eq!(prepared.observed_stations(traced).is_some(), !traced);
            let heard = |i: &u32| runs.iter().any(|p| p.1 == "RxStart" && p.2 == *i);
            assert_eq!(BYSTANDERS.iter().any(heard), traced, "traced {traced}");
            // The comparison is not vacuous: dozens of receptions each, and
            // the ties the placement was built for.
            let count = |kind| runs.iter().filter(|p| p.1 == kind).count();
            assert_eq!(count("RxStart"), count("RxEnd"));
            assert!(count("RxStart") >= 60, "{} receptions", count("RxStart"));
            assert_eq!(count("MacTimer"), 2);
            let inner = SimTime::ZERO + scenario.params.propagation_delay(5.0);
            let tied = |at| runs.iter().filter(|p| p.0 == at).count();
            let (colocated, ring) = (tied(SimTime::ZERO), tied(inner));
            assert!(colocated >= 3 && ring >= 6, "{colocated} at 0 ns, {ring} at {inner:?}");
        }
    }

    #[test]
    fn an_untraced_stack_builds_macs_only_at_the_observed_stations() {
        let relay = crate::layouts::drifting_relay_scenario();
        let mesh = crate::layouts::drifting_mesh_scenario(SimDuration::from_millis(100));
        for scenario in [dense_scenario(), relay, mesh] {
            let prepared = scenario.prepare().expect("well-formed");
            let n = scenario.positions.len();
            for traced in [false, true] {
                let stack = StationStack::build(&prepared, 1, traced);
                let kept = prepared.observed_stations(traced).map_or(n, <[_]>::len);
                let name = &scenario.name;
                assert!(traced || kept < n, "{name}: every station observed");
                assert_eq!(stack.macs.built(), kept, "{name}, traced {traced}: MACs built");
                assert_eq!(stack.macs.stats().len(), n, "{name}: one entry per station");
            }
        }
    }

    #[test]
    fn per_entity_keys_count_per_origin() {
        // The flow's start took key 0 of its lane at build time.
        let scenario = relay_scenario();
        let mut stack = StationStack::build(&scenario.prepare().expect("well-formed"), 1, false);
        let node = |i| Origin::Node(NodeId::new(i));
        let flow = |i| Origin::Flow(FlowId::new(i));
        assert_eq!(stack.key(node(2)), EventKey::new(LANE_NODE, 2, 0));
        assert_eq!(stack.key(flow(0)), EventKey::new(LANE_FLOW, 0, 1));
        assert_eq!(stack.key(node(2)), EventKey::new(LANE_NODE, 2, 1));
        assert_eq!(stack.key(node(0)), EventKey::new(LANE_NODE, 0, 0));
        assert_eq!(stack.key(flow(0)), EventKey::new(LANE_FLOW, 0, 2));
        // A station's receptions share its counter, in a lane of their own.
        assert_eq!(stack.key(Origin::Air(NodeId::new(2))), EventKey::new(LANE_AIR, 2, 2));
    }
}
