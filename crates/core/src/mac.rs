//! The RIPPLE MAC state machine.
//!
//! One `RippleMac` instance runs at every station and plays all three roles
//! of Section III simultaneously, per frame. Source contention, aggregation
//! and partial retransmission are unmodified 802.11/AFR — the shared
//! [`wmn_mac::csma`] sender; what RIPPLE changes is forwarding:
//!
//! * **Source** — contends once per mTXOP, addresses the frame to an
//!   opportunistic priority list and arms the *end-to-end* mTXOP timeout;
//!   the destination's bitmap ACK may arrive as several relayed copies and
//!   is applied once.
//! * **Forwarder** — holds *no* queue. An overheard data frame from an
//!   upstream station is relayed exactly once after `rank·T_slot + T_SIFS`
//!   of continuous idle; an overheard ACK from a downstream station after
//!   `(rank−1)·T_slot + T_SIFS`. Any channel activity during the wait
//!   aborts the relay (the mTXOP is broken or a higher-priority station
//!   acted first).
//! * **Destination** — replies with a bitmap ACK one SIFS after every
//!   received data frame (acknowledging both freshly decoded subframes and
//!   ones it already holds) and delivers packets strictly in order through
//!   the receive queue `Rq`.

use std::collections::BTreeSet;

use wmn_mac::frame::{
    AckFrame, AckList, DataFrame, Frame, LinkDst, Packet, RouteInfo, RxFrame, Subframe,
    MAC_HEADER_BYTES, SUBFRAME_OVERHEAD_BYTES,
};
use wmn_mac::{
    ActionSink, AggSender, Backoff, Csma, DataState, IfQueue, MacAction, MacEntity, MacStats,
    TimerToken,
};
use wmn_phy::PhyParams;
use wmn_sim::{FlowId, NodeId, SimDuration, SimTime, StreamRng};

use crate::config::RippleConfig;

/// A relay waiting for its continuous idle window. Paused (its token
/// dropped) whenever the channel turns busy and re-armed with a fresh token
/// and the *full* wait on the next idle edge — the paper's rule is "relay
/// only after detecting the channel idle for T", so a broken window restarts
/// the wait. The relay is abandoned only when a copy from a higher-priority
/// station (or, for data, the destination's ACK) is overheard.
#[derive(Debug)]
struct PendingRelay {
    /// (flow, anchor node, frame_seq, is_ack); the anchor is the data
    /// frame's end-to-end source (ACKs carry it in `to`).
    key: (FlowId, NodeId, u64, bool),
    frame: Frame,
    wait: SimDuration,
    /// The armed wait's token; `None` while paused. A fire for any other
    /// token (a paused or superseded wait) finds no relay.
    token: Option<TimerToken>,
}

/// The RIPPLE MAC for one station. See the module docs for the protocol
/// roles it implements.
pub struct RippleMac {
    cfg: RippleConfig,
    /// The shared 802.11 sender; it hands RIPPLE the relay waits' tokens.
    tx: AggSender,
    /// Relays waiting for their idle window (armed or paused).
    pending_relays: Vec<PendingRelay>,
    /// (flow, origin, frame_seq) data frames this node has already relayed.
    data_relayed: BTreeSet<(FlowId, NodeId, u64)>,
    /// (flow, source, frame_seq) ACK frames this node has already relayed.
    ack_relayed: BTreeSet<(FlowId, NodeId, u64)>,
    /// `frame_seq` of the last bitmap ACK the source side applied. Frame
    /// identities only grow and only the latest attempt's ACK is ever
    /// applied, so one value recognises every later (relayed) copy.
    last_applied_ack: u64,
    /// Relays performed (diagnostic; counts both data and ACK relays).
    relays_performed: u64,
}

impl std::fmt::Debug for RippleMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RippleMac")
            .field("node", &self.tx.node())
            .field("state", &self.tx.csma.state())
            .field("queued", &self.tx.csma.q.len())
            .finish()
    }
}

impl RippleMac {
    /// Creates the MAC for `node` with its own backoff RNG stream.
    pub fn new(cfg: RippleConfig, node: NodeId, rng: StreamRng) -> Self {
        let csma = Csma::new(
            cfg.difs,
            cfg.slot,
            Backoff::new(cfg.cw_min, cfg.cw_max),
            cfg.retry_limit,
            IfQueue::new(cfg.ifq_capacity),
            rng,
        );
        let tx = AggSender::new(node, csma, cfg.max_aggregation, cfg.max_frame_payload_bytes);
        RippleMac {
            cfg,
            tx,
            pending_relays: Vec::new(),
            data_relayed: BTreeSet::new(),
            ack_relayed: BTreeSet::new(),
            last_applied_ack: 0,
            relays_performed: 0,
        }
    }

    /// The station this MAC belongs to.
    pub fn node(&self) -> NodeId {
        self.tx.node()
    }

    /// Total data + ACK relays this station has performed as a forwarder.
    pub fn relays_performed(&self) -> u64 {
        self.relays_performed
    }

    /// Busy channel: pause every armed relay (the idle window broke).
    fn pause_relays(&mut self) {
        for pr in &mut self.pending_relays {
            pr.token = None;
        }
    }

    /// Idle channel: re-arm every paused relay with its full wait.
    fn resume_relays(&mut self, out: &mut ActionSink) {
        for pr in &mut self.pending_relays {
            if pr.token.is_none() {
                let token = self.tx.csma.mint();
                pr.token = Some(token);
                out.push(MacAction::SetTimer { delay: pr.wait, token, slot: None });
            }
        }
    }

    fn schedule_relay(
        &mut self,
        key: (FlowId, NodeId, u64, bool),
        frame: Frame,
        wait: SimDuration,
        out: &mut ActionSink,
    ) {
        let mut pr = PendingRelay { key, frame, wait, token: None };
        if !self.tx.csma.channel_busy() {
            let token = self.tx.csma.mint();
            pr.token = Some(token);
            out.push(MacAction::SetTimer { delay: wait, token, slot: None });
        }
        self.pending_relays.push(pr);
        // Bound the backlog: the oldest pending relays are stale mTXOPs.
        if self.pending_relays.len() > 32 {
            self.pending_relays.remove(0);
        }
    }

    fn drop_pending_relay(&mut self, key: (FlowId, NodeId, u64, bool)) {
        if let Some(idx) = self.pending_relays.iter().position(|pr| pr.key == key) {
            self.pending_relays.remove(idx);
        }
    }

    fn handle_data_frame(&mut self, d: &DataFrame, out: &mut ActionSink) {
        let LinkDst::Opportunistic { list } = &d.link_dst else {
            return; // unicast traffic belongs to other MACs
        };
        let Some(my_rank) = list.iter().position(|&n| n == self.tx.node()) else {
            return;
        };
        self.tx.csma.stats.data_frames_received += 1;

        if my_rank == 0 {
            // Destination: acknowledge and deliver in order via the Rq.
            self.destination_receive(d, out);
            return;
        }

        // Forwarder. Only relay frames heard from upstream: the end-to-end
        // source (not on the list) or a lower-priority (higher-rank)
        // forwarder. A copy from downstream means the frame already passed
        // us — and also cancels any relay we still have pending for it.
        let tx_rank = list.iter().position(|&n| n == d.transmitter);
        if let Some(tx_rank) = tx_rank {
            if tx_rank <= my_rank {
                self.drop_pending_relay((d.flow, d.src, d.frame_seq, false));
                return;
            }
        }
        let key = (d.flow, d.src, d.frame_seq);
        if self.data_relayed.contains(&key) {
            return; // at most one relay per overheard frame
        }
        // Build the relay copy out of this MAC's pool; the kept packets
        // share their bodies with the overheard frame by reference.
        let mut clean = self.tx.pool.mint_subframes();
        for s in d.subframes.iter().filter(|s| !s.corrupted) {
            clean.push(Subframe { seq: s.seq, packet: s.packet.clone(), corrupted: false });
        }
        if clean.is_empty() {
            return;
        }
        let relay = DataFrame {
            transmitter: self.tx.node(),
            link_dst: d.link_dst.clone(),
            flow: d.flow,
            src: d.src,
            dst: d.dst,
            frame_seq: d.frame_seq,
            subframes: clean,
            retry: d.retry,
        };
        let wait = self.cfg.timing.data_relay_wait(my_rank);
        self.data_relayed.insert(key);
        self.schedule_relay((d.flow, d.src, d.frame_seq, false), Frame::Data(relay), wait, out);
    }

    fn destination_receive(&mut self, d: &DataFrame, out: &mut ActionSink) {
        let LinkDst::Opportunistic { list } = &d.link_dst else { return };
        let mut acked_seqs = AckList::new();
        for sf in &d.subframes {
            if sf.corrupted {
                // Acknowledge subframes we already hold from earlier copies,
                // so the source stops retransmitting them.
                if self.tx.holds(sf) {
                    acked_seqs.push((sf.packet.header.flow, sf.seq));
                }
                continue;
            }
            acked_seqs.push((sf.packet.header.flow, sf.seq));
            self.tx.deliver_in_order(sf, out);
        }
        let ack = AckFrame {
            transmitter: self.tx.node(),
            to: d.src,
            flow: d.flow,
            frame_seq: d.frame_seq,
            acked_seqs,
            relay_list: list.clone(),
        };
        self.tx.schedule_ack(ack, self.cfg.timing.destination_ack_wait(), out);
    }

    fn handle_ack_frame(&mut self, a: &AckFrame, now: SimTime, out: &mut ActionSink) {
        if a.to == self.tx.node() {
            self.source_apply_ack(a, now, out);
            return;
        }
        // Forwarder: relay ACKs heard from downstream (closer to the
        // destination, i.e. lower rank) toward the source. An ACK also
        // proves the data frame reached the destination, so any data relay
        // we still hold for that frame is obsolete.
        self.drop_pending_relay((a.flow, a.to, a.frame_seq, false));
        let Some(my_rank) = a.relay_list.iter().position(|&n| n == self.tx.node()) else {
            return;
        };
        if my_rank == 0 {
            return; // we are the destination of the data; nothing to do
        }
        let tx_rank = a.relay_list.iter().position(|&n| n == a.transmitter);
        if let Some(tx_rank) = tx_rank {
            if tx_rank >= my_rank {
                // The ACK has already travelled past us.
                self.drop_pending_relay((a.flow, a.to, a.frame_seq, true));
                return;
            }
        } else {
            return; // ACKs originate on the list; anything else is stale
        }
        let key = (a.flow, a.to, a.frame_seq);
        if self.ack_relayed.contains(&key) {
            return;
        }
        // Inline lists make this a plain memcpy, not a heap clone.
        let relay = AckFrame {
            transmitter: self.tx.node(),
            to: a.to,
            flow: a.flow,
            frame_seq: a.frame_seq,
            acked_seqs: a.acked_seqs.clone(),
            relay_list: a.relay_list.clone(),
        };
        let wait = self.cfg.timing.ack_relay_wait(my_rank);
        self.ack_relayed.insert(key);
        self.schedule_relay((a.flow, a.to, a.frame_seq, true), Frame::Ack(relay), wait, out);
    }

    fn source_apply_ack(&mut self, a: &AckFrame, now: SimTime, out: &mut ActionSink) {
        let awaited = self.tx.inflight().is_some_and(|i| i.frame_seq == a.frame_seq);
        if !awaited || self.last_applied_ack == a.frame_seq {
            return; // stale attempt or duplicate (relayed) ACK copy
        }
        self.last_applied_ack = a.frame_seq;
        if self.tx.csma.state() == DataState::Transmitting {
            return; // cannot happen with a half-duplex radio
        }
        self.tx.apply_ack(a, now, out);
    }

    fn fire_relay(&mut self, token: TimerToken, out: &mut ActionSink) {
        let Some(idx) = self.pending_relays.iter().position(|pr| pr.token == Some(token)) else {
            return; // paused, re-armed or dropped in the meantime
        };
        if !self.tx.csma.radio_free() {
            // Our own radio is mid-transmission (e.g. sending an ACK): the
            // relay re-arms on the next idle edge.
            self.pending_relays[idx].token = None;
            return;
        }
        let pr = self.pending_relays.remove(idx);
        self.relays_performed += 1;
        self.tx.csma.start_relay_tx(pr.frame, out);
    }
}

impl MacEntity for RippleMac {
    fn on_enqueue(&mut self, packet: Packet, route: RouteInfo, now: SimTime, out: &mut ActionSink) {
        assert!(matches!(route, RouteInfo::Opportunistic { .. }), "RIPPLE requires list routes");
        if self.tx.csma.on_enqueue(packet, route, out) {
            self.tx.try_progress(now, out);
        }
    }

    fn on_busy(&mut self, now: SimTime, out: &mut ActionSink) {
        self.tx.csma.on_busy(now, out);
        // A busy channel breaks every pending idle window; the relays pause
        // and restart their full wait on the next idle edge.
        self.pause_relays();
    }

    fn on_idle(&mut self, now: SimTime, out: &mut ActionSink) {
        self.resume_relays(out);
        self.tx.on_idle(now, out);
    }

    fn on_frame_rx(&mut self, frame: RxFrame, now: SimTime, out: &mut ActionSink) {
        match &*frame {
            Frame::Data(d) => self.handle_data_frame(d, out),
            Frame::Ack(a) => self.handle_ack_frame(a, now, out),
        }
    }

    fn on_tx_end(&mut self, now: SimTime, out: &mut ActionSink) {
        if self.tx.on_tx_end(now, out) {
            // The mTXOP timeout spans the whole relay chain and back.
            let inflight = self.tx.inflight().expect("transmitting without inflight");
            let bytes = inflight
                .subframes
                .iter()
                .map(|(_, p)| SUBFRAME_OVERHEAD_BYTES + p.header.wire_bytes)
                .sum::<u32>()
                + MAC_HEADER_BYTES;
            let RouteInfo::Opportunistic { list } = &inflight.route else {
                unreachable!("on_enqueue admits opportunistic routes only");
            };
            let timeout = self.cfg.timing.mtxop_timeout(list.len(), bytes);
            self.tx.csma.arm_timeout(timeout, out);
        }
    }

    fn on_timer(&mut self, token: TimerToken, now: SimTime, out: &mut ActionSink) {
        if let Some(token) = self.tx.on_timer(token, now, out) {
            self.fire_relay(token, out);
        }
    }

    fn stats(&self) -> MacStats {
        self.tx.csma.stats
    }
}

/// The RIPPLE forwarding scheme, as a [`MacScheme`](wmn_mac::MacScheme)
/// factory: `aggregation = 1` is "R1", 16 the full scheme "R16".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RippleScheme {
    /// Packets per frame (1 or 16 in the paper).
    pub aggregation: usize,
}

impl wmn_mac::MacScheme for RippleScheme {
    fn label(&self) -> &'static str {
        if self.aggregation == 1 {
            "RIPPLE-1"
        } else {
            "RIPPLE-16"
        }
    }

    fn is_opportunistic(&self) -> bool {
        true
    }

    fn build_mac(&self, params: &PhyParams, node: NodeId, rng: StreamRng) -> Box<dyn MacEntity> {
        Box::new(RippleMac::new(RippleConfig::from_phy(params, self.aggregation), node, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wmn_mac::frame::{NetHeader, NodeList, Proto};
    use wmn_mac::{DropReason, MacEntityExt};

    fn cfg(agg: usize) -> RippleConfig {
        RippleConfig::from_phy(&PhyParams::paper_216(), agg)
    }

    fn mac(node: u32, agg: usize) -> RippleMac {
        RippleMac::new(cfg(agg), NodeId::new(node), StreamRng::derive(11, "ripple-test"))
    }

    fn packet(flow: u32, src: u32, dst: u32) -> Packet {
        Packet::new(
            NetHeader {
                flow: FlowId::new(flow),
                src: NodeId::new(src),
                dst: NodeId::new(dst),
                proto: Proto::Tcp,
                wire_bytes: 1000,
            },
            vec![],
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// List for flow 0→3 via forwarders 2 (rank 1) and 1 (rank 2).
    fn list() -> NodeList {
        vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)].into()
    }

    fn route() -> RouteInfo {
        RouteInfo::Opportunistic { list: list() }
    }

    /// The first transmission among `actions`, as the broadcast handle every
    /// receiver shares.
    fn find_shared_tx(actions: &[MacAction]) -> Option<&Arc<Frame>> {
        actions.iter().find_map(|a| match a {
            MacAction::StartTx { frame, .. } => Some(frame),
            _ => None,
        })
    }

    fn find_tx(actions: &[MacAction]) -> Option<&Frame> {
        find_shared_tx(actions).map(|frame| &**frame)
    }

    fn timers(actions: &[MacAction]) -> Vec<(SimDuration, TimerToken)> {
        actions
            .iter()
            .filter_map(|a| match a {
                MacAction::SetTimer { delay, token, .. } => Some((*delay, *token)),
                _ => None,
            })
            .collect()
    }

    fn source_frame(src: &mut RippleMac, now: SimTime) -> Arc<Frame> {
        let acts = src.on_enqueue_vec(packet(0, 0, 3), route(), now);
        let frame = find_shared_tx(&acts).expect("expected immediate tx");
        assert!(matches!(**frame, Frame::Data(_)), "expected immediate data tx");
        Arc::clone(frame)
    }

    fn data(frame: &Frame) -> &DataFrame {
        match frame {
            Frame::Data(d) => d,
            Frame::Ack(_) => panic!("expected a data frame"),
        }
    }

    #[test]
    fn source_sends_opportunistic_frame() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        assert_eq!(data(&d).link_dst, LinkDst::Opportunistic { list: list() });
        assert_eq!(data(&d).subframes.len(), 1);
        assert_eq!(data(&d).src, NodeId::new(0));
        assert_eq!(data(&d).dst, NodeId::new(3));
    }

    #[test]
    fn forwarder_arms_rank_scaled_relay() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        // Node 1 has rank 2: waits SIFS + 2 slots.
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let (delay, token) = timers(&acts)[0];
        assert_eq!(delay, SimDuration::from_micros(16 + 18));
        // Fire it: the relay goes out with us as transmitter.
        let acts = f1.on_timer_vec(token, t(200) + delay);
        match find_tx(&acts) {
            Some(Frame::Data(r)) => {
                assert_eq!(r.transmitter, NodeId::new(1));
                assert_eq!(r.frame_seq, data(&d).frame_seq, "relays keep the frame identity");
            }
            _ => panic!("expected relayed data frame"),
        }
        assert_eq!(f1.relays_performed(), 1);
    }

    #[test]
    fn busy_channel_pauses_relay_and_idle_rearms_it() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(RxFrame::Shared(d), t(200));
        let (delay, token) = timers(&acts)[0];
        // Someone transmits during the wait: the idle window broke.
        f1.on_busy_vec(t(210));
        let acts = f1.on_timer_vec(token, t(200) + delay);
        assert!(find_tx(&acts).is_none(), "paused relay must not fire");
        assert_eq!(f1.relays_performed(), 0);
        // The next idle edge restarts the full wait under a fresh token; a
        // late fire of the paused one finds no relay…
        let acts = f1.on_idle_vec(t(400));
        let (delay2, token2) = timers(&acts)[0];
        assert_eq!(delay2, delay, "the wait restarts in full");
        assert!(find_tx(&f1.on_timer_vec(token, t(401))).is_none(), "paused token is dead");
        // …and the relay finally goes out.
        let acts = f1.on_timer_vec(token2, t(400) + delay2);
        assert!(matches!(find_tx(&acts), Some(Frame::Data(_))));
        assert_eq!(f1.relays_performed(), 1);
    }

    #[test]
    fn overheard_ack_cancels_pending_data_relay() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let (delay, token) = timers(&acts)[0];
        // The destination's ACK arrives before our relay slot: the frame
        // already made it end-to-end, so the relay is pointless.
        let ack = AckFrame {
            transmitter: NodeId::new(3),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: list(),
        };
        f1.on_frame_rx_vec(Frame::Ack(ack).into(), t(205));
        let acts = f1.on_timer_vec(token, t(200) + delay);
        assert!(find_tx(&acts).is_none(), "ACK proves delivery; relay cancelled");
        assert_eq!(f1.relays_performed(), 0);
    }

    #[test]
    fn downstream_copy_cancels_pending_data_relay() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        // Node 1 (rank 2) holds a pending relay; then hears node 2 (rank 1)
        // relay the same frame: it progressed past us.
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let (delay, token) = timers(&acts)[0];
        let downstream = DataFrame { transmitter: NodeId::new(2), ..data(&d).diverged_copy() };
        f1.on_frame_rx_vec(Frame::Data(downstream).into(), t(210));
        let acts = f1.on_timer_vec(token, t(200) + delay);
        assert!(find_tx(&acts).is_none(), "higher-priority relay cancels ours");
    }

    #[test]
    fn forwarder_relays_each_frame_at_most_once() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        assert_eq!(timers(&acts).len(), 1);
        // Hearing the same frame again (e.g. another copy) arms nothing.
        let acts = f1.on_frame_rx_vec(RxFrame::Shared(d), t(400));
        assert!(timers(&acts).is_empty(), "at most one relay per frame");
    }

    #[test]
    fn forwarder_ignores_downstream_copies() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        // Node 1 (rank 2) hears the copy relayed by node 2 (rank 1):
        // the frame already progressed past it.
        let relayed = DataFrame { transmitter: NodeId::new(2), ..data(&d).diverged_copy() };
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(Frame::Data(relayed).into(), t(300));
        assert!(timers(&acts).is_empty());
    }

    #[test]
    fn destination_acks_after_sifs_and_delivers() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let mut dst = mac(3, 16);
        let acts = dst.on_frame_rx_vec(RxFrame::Shared(d), t(200));
        assert!(acts.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
        let (delay, token) = timers(&acts)[0];
        assert_eq!(delay, SimDuration::from_micros(16));
        let acts = dst.on_timer_vec(token, t(216));
        match find_tx(&acts) {
            Some(Frame::Ack(a)) => {
                assert_eq!(a.to, NodeId::new(0), "ACK targets the end-to-end source");
                assert_eq!(a.acked_seqs.as_slice(), &[(FlowId::new(0), 0)]);
                assert_eq!(a.relay_list, list(), "ACK carries the relay priority list");
            }
            _ => panic!("expected bitmap ACK"),
        }
    }

    #[test]
    fn destination_acks_already_held_subframes() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let mut dst = mac(3, 16);
        dst.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        // Retransmission arrives with the same seq corrupted this time.
        let mut retx = data(&d).diverged_copy();
        retx.frame_seq += 1;
        retx.subframes[0].corrupted = true;
        let acts = dst.on_frame_rx_vec(Frame::Data(retx).into(), t(400));
        let (_, token) = timers(&acts)[0];
        let acts = dst.on_timer_vec(token, t(420));
        match find_tx(&acts) {
            Some(Frame::Ack(a)) => {
                assert_eq!(
                    a.acked_seqs.as_slice(),
                    &[(FlowId::new(0), 0)],
                    "already-held subframe still acknowledged"
                );
            }
            _ => panic!("expected ACK"),
        }
    }

    #[test]
    fn ack_relay_waits_one_slot_less_and_travels_upstream() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let ack_from = |transmitter: u32| AckFrame {
            transmitter: NodeId::new(transmitter),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: list(),
        };
        // Rank-1 forwarder (node 2) relays the destination's ACK after SIFS
        // exactly.
        let mut f2 = mac(2, 16);
        let acts = f2.on_frame_rx_vec(Frame::Ack(ack_from(3)).into(), t(300));
        let (delay, token) = timers(&acts)[0];
        assert_eq!(delay, SimDuration::from_micros(16));
        let acts = f2.on_timer_vec(token, t(316));
        assert!(matches!(find_tx(&acts), Some(Frame::Ack(_))));
        // A forwarder never relays an ACK heard from upstream of itself:
        // node 2 (rank 1) ignores a copy transmitted by node 1 (rank 2).
        let mut f2b = mac(2, 16);
        let acts = f2b.on_frame_rx_vec(Frame::Ack(ack_from(1)).into(), t(300));
        assert!(timers(&acts).is_empty());
    }

    #[test]
    fn source_completes_on_bitmap_ack() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        src.on_tx_end_vec(t(160));
        let ack = Frame::Ack(AckFrame {
            transmitter: NodeId::new(2), // a relayed ACK copy works too
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: list(),
        })
        .into_shared();
        src.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&ack)), t(400));
        assert!(src.tx.inflight().is_none(), "frame acknowledged end-to-end");
        // A duplicate ACK copy (the destination's direct one) is harmless.
        let acts = src.on_frame_rx_vec(RxFrame::Shared(ack), t(410));
        assert!(acts.is_empty());
    }

    #[test]
    fn partial_ack_retransmits_missing_subframes_only() {
        let mut src = mac(0, 16);
        // Enqueue 3 packets; the first transmits alone, 2 queue up.
        src.on_enqueue_vec(packet(0, 0, 3), route(), t(100));
        src.on_enqueue_vec(packet(0, 0, 3), route(), t(101));
        src.on_enqueue_vec(packet(0, 0, 3), route(), t(102));
        src.on_tx_end_vec(t(160));
        let fs = src.tx.inflight().unwrap().frame_seq;
        let ack = AckFrame {
            transmitter: NodeId::new(3),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: fs,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: list(),
        };
        let acts = src.on_frame_rx_vec(Frame::Ack(ack).into(), t(400));
        let (delay, token) = timers(&acts)[0];
        let acts = src.on_timer_vec(token, t(400) + delay);
        let Some(Frame::Data(d2)) = find_tx(&acts) else { panic!("expected retx") };
        // Seq 0 acked; seqs 1,2 (queued packets) aggregate into the frame.
        assert_eq!(d2.subframes.len(), 2);
        assert_eq!(d2.subframes.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn timeout_retries_and_eventually_drops() {
        let mut src = mac(0, 1);
        src.on_enqueue_vec(packet(0, 0, 3), route(), t(100));
        let mut now = t(160);
        let mut drops = 0;
        for _ in 0..30 {
            let acts = src.on_tx_end_vec(now);
            let Some((delay, token)) = timers(&acts).first().copied() else { break };
            now += delay;
            let acts = src.on_timer_vec(token, now);
            drops += acts
                .iter()
                .filter(|a| matches!(a, MacAction::Drop { reason: DropReason::RetryLimit, .. }))
                .count();
            if drops > 0 {
                break;
            }
            if let Some((d2, tok2)) = timers(&acts).first().copied() {
                now += d2;
                let acts = src.on_timer_vec(tok2, now);
                if find_tx(&acts).is_none() {
                    break;
                }
            }
        }
        assert_eq!(drops, 1, "end-to-end retry limit enforced");
        assert!(src.stats().timeouts >= 8);
    }

    #[test]
    fn aggregates_up_to_sixteen() {
        let mut src = mac(0, 16);
        src.on_busy_vec(t(0)); // hold the channel so packets accumulate
        for i in 0..20 {
            src.on_enqueue_vec(packet(0, 0, 3), route(), t(1 + i));
        }
        let acts = src.on_idle_vec(t(100));
        let (delay, token) = timers(&acts)[0];
        let acts = src.on_timer_vec(token, t(100) + delay);
        match find_tx(&acts) {
            Some(Frame::Data(d)) => assert_eq!(d.subframes.len(), 16),
            _ => panic!("expected aggregated frame"),
        }
    }

    #[test]
    fn non_list_member_ignores_everything() {
        let mut src = mac(0, 16);
        let d = source_frame(&mut src, t(100));
        let mut outsider = mac(7, 16);
        assert!(outsider.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200)).is_empty());
        let ack = AckFrame {
            transmitter: NodeId::new(3),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: list(),
        };
        assert!(outsider.on_frame_rx_vec(Frame::Ack(ack).into(), t(300)).is_empty());
    }

    #[test]
    fn relay_with_all_subframes_corrupted_is_skipped() {
        let mut src = mac(0, 16);
        let mut d = data(&source_frame(&mut src, t(100))).diverged_copy();
        for sf in &mut d.subframes {
            sf.corrupted = true;
        }
        let mut f1 = mac(1, 16);
        let acts = f1.on_frame_rx_vec(Frame::Data(d).into(), t(200));
        assert!(timers(&acts).is_empty(), "nothing decodable to relay");
    }

    #[test]
    fn in_order_delivery_across_partial_loss() {
        // Destination receives seqs 0 and 2 clean, 1 corrupted; holds 2,
        // then releases 1 and 2 together after the retransmission.
        let mut dst = mac(3, 16);
        let mk = |seqs: Vec<(u32, bool)>, fs: u64| {
            Frame::Data(DataFrame {
                transmitter: NodeId::new(0),
                link_dst: LinkDst::Opportunistic { list: list() },
                flow: FlowId::new(0),
                src: NodeId::new(0),
                dst: NodeId::new(3),
                frame_seq: fs,
                subframes: seqs
                    .into_iter()
                    .map(|(seq, corrupted)| Subframe { seq, packet: packet(0, 0, 3), corrupted })
                    .collect(),
                retry: 0,
            })
        };
        let acts =
            dst.on_frame_rx_vec(mk(vec![(0, false), (1, true), (2, false)], 1).into(), t(100));
        let delivered = acts.iter().filter(|a| matches!(a, MacAction::Deliver { .. })).count();
        assert_eq!(delivered, 1, "only seq 0 may be delivered");
        let acts = dst.on_frame_rx_vec(mk(vec![(1, false)], 2).into(), t(1000));
        let delivered = acts.iter().filter(|a| matches!(a, MacAction::Deliver { .. })).count();
        assert_eq!(delivered, 2, "seqs 1 and 2 released in order");
    }
}
