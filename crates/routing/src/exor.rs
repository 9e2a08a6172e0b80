//! The preExOR and MCExOR opportunistic MACs (Section II of the paper).
//!
//! Both schemes transmit each data packet with an in-frame priority list
//! (destination first). Receivers on the list acknowledge:
//!
//! * **preExOR** — *every* list member that decoded the packet sends a MAC
//!   ACK in its own sequential slot (`SIFS + rank·(T_ack + SIFS)` after the
//!   data frame), so a transmission with `m` list members costs up to `m`
//!   ACK slots.
//! * **MCExOR** — a list member of rank `i` waits `(i+1)·SIFS`; if it hears
//!   an ACK start during the wait it suppresses its own, so only the best
//!   receiver acknowledges.
//!
//! In both, the best receiver *caches* the packet and contends for the
//! channel (DIFS + backoff) to relay it with a truncated priority list.
//! That contention races with the source's next packet — the mechanism that
//! re-orders 26–28 % of TCP packets in the paper's measurement and
//! motivates RIPPLE's mTXOP design.
//!
//! Contention and per-hop retransmission (until any ACK for the frame is
//! heard or the retry limit is spent) are the shared [`wmn_mac::csma::Csma`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use wmn_mac::frame::{
    AckFrame, DataFrame, Frame, LinkDst, NodeList, Packet, RouteInfo, RxFrame, Subframe, ACK_BYTES,
};
use wmn_mac::{
    ActionSink, Backoff, Csma, DataState, Fired, FramePool, IfQueue, MacAction, MacEntity,
    MacStats, OwnTx, TimerToken,
};
use wmn_phy::PhyParams;
use wmn_sim::{FlowId, NodeId, SimDuration, SimTime, StreamRng};

/// Which acknowledgement discipline the MAC runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExorMode {
    /// Sequential per-member ACK slots (the early ExOR of Biswas & Morris).
    PreExor,
    /// Compressed, suppression-based ACKs (Zubow et al.).
    McExor,
}

/// Configuration shared by both modes.
#[derive(Clone, Debug)]
pub struct ExorConfig {
    /// Short interframe space.
    pub sifs: SimDuration,
    /// Slot time.
    pub slot: SimDuration,
    /// DIFS.
    pub difs: SimDuration,
    /// Minimum contention window.
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Per-hop retry limit.
    pub retry_limit: u8,
    /// Interface queue capacity.
    pub ifq_capacity: usize,
    /// Complete ACK airtime (PHY header + payload at basic rate).
    pub t_ack: SimDuration,
    /// Extra slack added to ACK-window timeouts.
    pub timeout_margin: SimDuration,
}

impl ExorConfig {
    /// Derives the configuration from PHY parameters.
    pub fn from_phy(params: &PhyParams) -> Self {
        ExorConfig {
            sifs: params.sifs,
            slot: params.slot,
            difs: params.difs(),
            cw_min: params.cw_min,
            cw_max: params.cw_max,
            retry_limit: params.retry_limit,
            ifq_capacity: params.ifq_capacity,
            t_ack: params.airtime(params.basic_rate, ACK_BYTES),
            timeout_margin: SimDuration::from_micros(15),
        }
    }
}

/// A sequenced packet and the priority list it travels with.
#[derive(Debug)]
struct QItem {
    seq: u32,
    packet: Packet,
    list: NodeList,
}

/// The single packet in flight and the identity of its latest attempt.
#[derive(Debug)]
struct Inflight {
    item: QItem,
    frame_seq: u64,
}

/// A data frame this list member decoded, kept until its ACK slot (and, for
/// a preExOR forwarder, its window-end relay decision) has fired.
#[derive(Debug)]
struct Pending {
    seq: u32,
    packet: Packet,
    list: NodeList,
    my_rank: usize,
    flow: FlowId,
    data_tx: NodeId,
    frame_seq: u64,
    heard_higher: bool,
    /// First time this node sees this (flow, src, seq): eligible to relay.
    fresh: bool,
    /// The ACK slot's token, until it fires.
    send_ack: Option<TimerToken>,
    /// The preExOR forwarder's end-of-window relay decision.
    relay_decision: Option<TimerToken>,
}

/// The preExOR / MCExOR MAC state machine for one station.
pub struct ExorMac {
    mode: ExorMode,
    cfg: ExorConfig,
    node: NodeId,
    csma: Csma,
    relay_q: VecDeque<QItem>,
    inflight: Option<Inflight>,
    pending: BTreeMap<(NodeId, u64), Pending>,
    seen: BTreeMap<(FlowId, NodeId), BTreeSet<u32>>,
    pool: FramePool,
}

impl std::fmt::Debug for ExorMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExorMac")
            .field("mode", &self.mode)
            .field("node", &self.node)
            .field("state", &self.csma.state())
            .finish()
    }
}

impl ExorMac {
    /// Creates the MAC for `node` in the given acknowledgement mode.
    pub fn new(mode: ExorMode, cfg: ExorConfig, node: NodeId, rng: StreamRng) -> Self {
        let csma = Csma::new(
            cfg.difs,
            cfg.slot,
            Backoff::new(cfg.cw_min, cfg.cw_max),
            cfg.retry_limit,
            IfQueue::new(cfg.ifq_capacity),
            rng,
        );
        ExorMac {
            mode,
            cfg,
            node,
            csma,
            relay_q: VecDeque::new(),
            inflight: None,
            pending: BTreeMap::new(),
            seen: BTreeMap::new(),
            pool: FramePool::default(),
        }
    }

    /// The acknowledgement discipline this MAC runs.
    pub fn mode(&self) -> ExorMode {
        self.mode
    }

    /// Whether a packet is held outside the interface queue.
    fn holding(&self) -> bool {
        self.inflight.is_some() || !self.relay_q.is_empty()
    }

    /// The ACK wait of list rank `i` after the data frame ends.
    fn ack_offset(&self, rank: usize) -> SimDuration {
        match self.mode {
            ExorMode::PreExor => self.cfg.sifs + (self.cfg.t_ack + self.cfg.sifs) * rank as u64,
            ExorMode::McExor => self.cfg.sifs * (rank as u64 + 1),
        }
    }

    /// Sender-side ACK window for a list of `m` members (timeout measured
    /// from the end of the data transmission).
    fn ack_window(&self, m: usize) -> SimDuration {
        self.ack_offset(m.saturating_sub(1)) + self.cfg.t_ack + self.cfg.timeout_margin
    }

    fn try_progress(&mut self, now: SimTime, out: &mut ActionSink) {
        if self.csma.try_progress(now, self.holding(), out) {
            self.transmit_data(out);
        }
    }

    fn next_outgoing(&mut self) -> Option<QItem> {
        // Relays first: they carry packets already mid-path.
        if let Some(item) = self.relay_q.pop_front() {
            return Some(item);
        }
        let qp = self.csma.q.pop()?;
        let RouteInfo::Opportunistic { list } = qp.route else {
            panic!("ExOR-family MACs require opportunistic routes");
        };
        let seq = self.csma.next_seq(qp.packet.header.flow, qp.packet.header.src);
        Some(QItem { seq, packet: qp.packet, list })
    }

    fn transmit_data(&mut self, out: &mut ActionSink) {
        if self.inflight.is_none() {
            let Some(item) = self.next_outgoing() else { return };
            self.inflight = Some(Inflight { item, frame_seq: 0 });
        }
        let fs = self.csma.next_frame_seq();
        // Pooled subframe vector + by-reference packet body: each
        // (re)transmission attempt is allocation-free at steady state.
        let mut subframes = self.pool.mint_subframes();
        let inflight = self.inflight.as_mut().expect("just set");
        inflight.frame_seq = fs;
        let QItem { seq, packet, list } = &inflight.item;
        subframes.push(Subframe { seq: *seq, packet: packet.clone(), corrupted: false });
        let frame = DataFrame {
            transmitter: self.node,
            link_dst: LinkDst::Opportunistic { list: list.clone() },
            flow: packet.header.flow,
            src: packet.header.src,
            dst: packet.header.dst,
            frame_seq: fs,
            subframes,
            retry: self.csma.retries(),
        };
        self.csma.start_data_tx(frame, out);
    }

    fn handle_data_frame(&mut self, d: &DataFrame, out: &mut ActionSink) {
        let LinkDst::Opportunistic { list } = &d.link_dst else {
            return; // unicast frames belong to other MACs
        };
        let Some(my_rank) = list.iter().position(|&n| n == self.node) else {
            return; // not on the candidate list
        };
        let Some(sf) = d.subframes.first() else { return };
        if sf.corrupted {
            return; // payload CRC failed; nothing to acknowledge
        }
        self.csma.stats.data_frames_received += 1;
        let key_flow = (sf.packet.header.flow, sf.packet.header.src);
        let fresh = self.seen.entry(key_flow).or_default().insert(sf.seq);

        if my_rank == 0 {
            // We are the destination: deliver immediately (no reordering
            // buffer — preExOR/MCExOR deliver as received, which is the
            // behaviour the paper measures).
            if fresh {
                self.csma.stats.delivered_up += 1;
                out.push(MacAction::Deliver { packet: sf.packet.clone() });
            }
        }

        let send_ack = self.csma.mint();
        let relay_decision =
            (self.mode == ExorMode::PreExor && my_rank > 0).then(|| self.csma.mint());
        self.pending.insert(
            (d.transmitter, d.frame_seq),
            Pending {
                seq: sf.seq,
                packet: sf.packet.clone(),
                list: list.clone(),
                my_rank,
                flow: d.flow,
                data_tx: d.transmitter,
                frame_seq: d.frame_seq,
                heard_higher: false,
                fresh,
                send_ack: Some(send_ack),
                relay_decision,
            },
        );
        let delay = self.ack_offset(my_rank);
        out.push(MacAction::SetTimer { delay, token: send_ack, slot: None });
        if let Some(token) = relay_decision {
            let delay = self.ack_window(list.len());
            out.push(MacAction::SetTimer { delay, token, slot: None });
        }
    }

    fn handle_ack_frame(&mut self, a: &AckFrame, now: SimTime, out: &mut ActionSink) {
        // Sender side: any ACK for our inflight frame completes the hop.
        if a.to == self.node
            && self.csma.state() == DataState::WaitAck
            && self.inflight.as_ref().is_some_and(|i| i.frame_seq == a.frame_seq)
        {
            self.csma.attempt_acked(true, out);
            self.inflight = None;
            self.try_progress(now, out);
        }
        // Receiver side: a higher-priority member may have acknowledged a
        // frame we are still holding.
        if let Some(p) = self.pending.get_mut(&(a.to, a.frame_seq)) {
            if let Some(rank) = p.list.iter().position(|&n| n == a.transmitter) {
                if rank < p.my_rank {
                    p.heard_higher = true;
                }
            }
        }
    }

    /// A scheme timer fired: the ACK slot or relay decision of the `pending`
    /// entry that holds the token, if one still does.
    fn fire_pending(&mut self, token: TimerToken, now: SimTime, out: &mut ActionSink) {
        let holder = self
            .pending
            .iter_mut()
            .find(|(_, p)| p.send_ack == Some(token) || p.relay_decision == Some(token));
        let Some((&key, p)) = holder else { return };
        if p.send_ack == Some(token) {
            p.send_ack = None;
            self.fire_send_ack(key, now, out);
        } else {
            self.fire_relay_decision(key, now, out);
        }
    }

    fn fire_send_ack(&mut self, key: (NodeId, u64), now: SimTime, out: &mut ActionSink) {
        let p = &self.pending[&key];
        let suppressed = self.mode == ExorMode::McExor && p.heard_higher;
        if suppressed {
            self.pending.remove(&key);
            return;
        }
        let ack = AckFrame {
            transmitter: self.node,
            to: p.data_tx,
            flow: p.flow,
            frame_seq: p.frame_seq,
            acked_seqs: [(p.flow, p.seq)].as_slice().into(),
            relay_list: NodeList::new(),
        };
        // A preExOR forwarder keeps the entry for its window-end relay
        // decision; every other entry has served its purpose.
        let decides_later = p.relay_decision.is_some();
        self.csma.send_ack(ack, out);
        if decides_later {
            return;
        }
        let p = self.pending.remove(&key).expect("present");
        // MCExOR: the acknowledging member is the relay; adopt immediately.
        if self.mode == ExorMode::McExor && p.my_rank > 0 && p.fresh {
            let list = NodeList::from(&p.list[..p.my_rank]);
            self.relay_q.push_back(QItem { seq: p.seq, packet: p.packet, list });
            self.try_progress(now, out);
        }
    }

    fn fire_relay_decision(&mut self, key: (NodeId, u64), now: SimTime, out: &mut ActionSink) {
        let p = self.pending.remove(&key).expect("the entry holds the token");
        if p.my_rank > 0 && p.fresh && !p.heard_higher {
            let list = NodeList::from(&p.list[..p.my_rank]);
            self.relay_q.push_back(QItem { seq: p.seq, packet: p.packet, list });
            self.try_progress(now, out);
        }
    }
}

impl MacEntity for ExorMac {
    fn on_enqueue(&mut self, packet: Packet, route: RouteInfo, now: SimTime, out: &mut ActionSink) {
        if self.csma.on_enqueue(packet, route, out) {
            self.try_progress(now, out);
        }
    }

    fn on_busy(&mut self, now: SimTime, out: &mut ActionSink) {
        self.csma.on_busy(now, out);
    }

    fn on_idle(&mut self, now: SimTime, out: &mut ActionSink) {
        self.csma.on_idle(now, self.holding(), out);
    }

    fn on_frame_rx(&mut self, frame: RxFrame, now: SimTime, out: &mut ActionSink) {
        match &*frame {
            Frame::Data(d) => self.handle_data_frame(d, out),
            Frame::Ack(a) => self.handle_ack_frame(a, now, out),
        }
    }

    fn on_tx_end(&mut self, now: SimTime, out: &mut ActionSink) {
        match self.csma.on_tx_end() {
            Some(OwnTx::Ack) => self.try_progress(now, out),
            Some(OwnTx::Data) => {
                let m = self.inflight.as_ref().map(|i| i.item.list.len()).unwrap_or(1);
                self.csma.arm_timeout(self.ack_window(m), out);
            }
            Some(OwnTx::Relay) | None => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, now: SimTime, out: &mut ActionSink) {
        match self.csma.on_timer(token, self.holding()) {
            Some(Fired::Transmit) => self.transmit_data(out),
            Some(Fired::TimedOut { exhausted }) => {
                if exhausted {
                    let dead = self.inflight.take().expect("timeout without inflight");
                    self.csma.drop_packet(dead.item.packet, out);
                }
                self.try_progress(now, out);
            }
            Some(Fired::Scheme(token)) => self.fire_pending(token, now, out),
            None => {}
        }
    }

    fn stats(&self) -> MacStats {
        self.csma.stats
    }
}

/// The preExOR / MCExOR forwarding schemes, as a
/// [`MacScheme`](wmn_mac::MacScheme) factory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExorScheme {
    /// Which acknowledgement discipline the stations run.
    pub mode: ExorMode,
}

impl wmn_mac::MacScheme for ExorScheme {
    fn label(&self) -> &'static str {
        match self.mode {
            ExorMode::PreExor => "preExOR",
            ExorMode::McExor => "MCExOR",
        }
    }

    fn is_opportunistic(&self) -> bool {
        true
    }

    fn build_mac(&self, params: &PhyParams, node: NodeId, rng: StreamRng) -> Box<dyn MacEntity> {
        Box::new(ExorMac::new(self.mode, ExorConfig::from_phy(params), node, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wmn_mac::frame::{NetHeader, Proto};
    use wmn_mac::MacEntityExt;

    fn cfg() -> ExorConfig {
        ExorConfig::from_phy(&PhyParams::paper_216())
    }

    fn mac(mode: ExorMode, node: u32) -> ExorMac {
        ExorMac::new(mode, cfg(), NodeId::new(node), StreamRng::derive(3, "exor"))
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

    fn route_0_to_3() -> RouteInfo {
        // Destination 3 first, then forwarders 2 (rank 1) and 1 (rank 2).
        RouteInfo::Opportunistic {
            list: vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)].into(),
        }
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

    fn tx_data_frame(src_mac: &mut ExorMac, now: SimTime) -> Arc<Frame> {
        let actions = src_mac.on_enqueue_vec(packet(0, 0, 3), route_0_to_3(), now);
        let frame = find_shared_tx(&actions).expect("expected immediate tx");
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
    fn source_transmits_with_priority_list() {
        let mut m = mac(ExorMode::PreExor, 0);
        let d = tx_data_frame(&mut m, t(100));
        assert_eq!(
            data(&d).link_dst,
            LinkDst::Opportunistic {
                list: vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)].into(),
            }
        );
        assert_eq!(data(&d).subframes.len(), 1, "no aggregation in preExOR/MCExOR");
    }

    #[test]
    fn preexor_ack_slots_are_sequential_by_rank() {
        let mut src = mac(ExorMode::PreExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let c = cfg();
        // Destination (rank 0).
        let mut dest = mac(ExorMode::PreExor, 3);
        let acts = dest.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let (delay0, _) = timers(&acts)[0];
        assert_eq!(delay0, c.sifs);
        // Forwarder rank 2 (node 1).
        let mut fwd = mac(ExorMode::PreExor, 1);
        let acts = fwd.on_frame_rx_vec(RxFrame::Shared(d), t(200));
        let (delay2, _) = timers(&acts)[0];
        assert_eq!(delay2, c.sifs + (c.t_ack + c.sifs) * 2);
    }

    #[test]
    fn mcexor_waits_are_sifs_multiples() {
        let mut src = mac(ExorMode::McExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let c = cfg();
        let mut fwd = mac(ExorMode::McExor, 2); // rank 1
        let acts = fwd.on_frame_rx_vec(RxFrame::Shared(d), t(200));
        let (delay, _) = timers(&acts)[0];
        assert_eq!(delay, c.sifs * 2, "rank 1 waits 2 SIFS");
    }

    #[test]
    fn destination_delivers_immediately_without_reordering_buffer() {
        let mut src = mac(ExorMode::PreExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let mut dest = mac(ExorMode::PreExor, 3);
        let acts = dest.on_frame_rx_vec(RxFrame::Shared(d), t(200));
        assert!(acts.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
    }

    #[test]
    fn duplicate_is_acked_but_not_redelivered_or_rerelayed() {
        let mut src = mac(ExorMode::PreExor, 0);
        let d1 = tx_data_frame(&mut src, t(100));
        let mut dest = mac(ExorMode::PreExor, 3);
        dest.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d1)), t(200));
        // Source retransmits (missed ACK): same seq, new frame_seq.
        let mut d2 = data(&d1).diverged_copy();
        d2.frame_seq += 10;
        let acts = dest.on_frame_rx_vec(Frame::Data(d2).into(), t(400));
        assert!(
            !acts.iter().any(|a| matches!(a, MacAction::Deliver { .. })),
            "duplicates must not be delivered twice"
        );
        assert!(!timers(&acts).is_empty(), "duplicate still acknowledged");
    }

    #[test]
    fn mcexor_suppresses_ack_after_hearing_higher_priority() {
        let mut src = mac(ExorMode::McExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let mut fwd = mac(ExorMode::McExor, 1); // rank 2
        let acts = fwd.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let (_, token) = timers(&acts)[0];
        // The destination's ACK is overheard before our slot.
        let higher_ack = AckFrame {
            transmitter: NodeId::new(3),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: NodeList::new(),
        };
        fwd.on_frame_rx_vec(Frame::Ack(higher_ack).into(), t(210));
        let acts = fwd.on_timer_vec(token, t(232));
        assert!(find_tx(&acts).is_none(), "ACK suppressed");
        assert!(fwd.relay_q.is_empty(), "no relay adopted");
    }

    #[test]
    fn mcexor_best_receiver_acks_and_relays() {
        let mut src = mac(ExorMode::McExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let mut fwd = mac(ExorMode::McExor, 2); // rank 1: best receiver if dest missed
        let acts = fwd.on_frame_rx_vec(RxFrame::Shared(d), t(200));
        let (delay, token) = timers(&acts)[0];
        let acts = fwd.on_timer_vec(token, t(200) + delay);
        match find_tx(&acts) {
            Some(Frame::Ack(a)) => assert_eq!(a.to, NodeId::new(0)),
            _ => panic!("expected ACK"),
        }
        assert_eq!(fwd.relay_q.len(), 1, "forwarder adopts the packet");
        assert_eq!(fwd.relay_q[0].list.as_slice(), &[NodeId::new(3)], "truncated list");
    }

    #[test]
    fn preexor_relays_only_without_higher_ack() {
        let mut src = mac(ExorMode::PreExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        // Case 1: no higher-priority ACK heard → relay.
        let mut fwd = mac(ExorMode::PreExor, 2); // rank 1
        let acts = fwd.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let [(_, ack_slot), relay_timer] = timers(&acts)[..] else { panic!("two timers") };
        let acts = fwd.on_timer_vec(relay_timer.1, t(200) + relay_timer.0);
        // The idle channel lets the adopted relay transmit immediately.
        let relayed = match find_tx(&acts) {
            Some(Frame::Data(r)) => {
                assert_eq!(
                    r.link_dst,
                    LinkDst::Opportunistic { list: vec![NodeId::new(3)].into() }
                );
                true
            }
            _ => !fwd.relay_q.is_empty(),
        };
        assert!(relayed, "forwarder must adopt and relay the packet");
        // The decision retired the entry: an ACK slot firing late sends nothing.
        fwd.on_tx_end_vec(t(300) + relay_timer.0);
        assert!(fwd.on_timer_vec(ack_slot, t(301) + relay_timer.0).is_empty());
        assert_eq!(fwd.stats().ack_frames_sent, 0);
        // Case 2: destination ACK heard → discard.
        let mut fwd2 = mac(ExorMode::PreExor, 2);
        let acts = fwd2.on_frame_rx_vec(RxFrame::Shared(Arc::clone(&d)), t(200));
        let relay_timer = timers(&acts).last().copied().unwrap();
        let dest_ack = AckFrame {
            transmitter: NodeId::new(3),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: NodeList::new(),
        };
        fwd2.on_frame_rx_vec(Frame::Ack(dest_ack).into(), t(220));
        fwd2.on_timer_vec(relay_timer.1, t(200) + relay_timer.0);
        assert!(fwd2.relay_q.is_empty(), "higher-priority ACK cancels the relay");
    }

    #[test]
    fn preexor_destination_keeps_nothing_it_acknowledged() {
        let mut src = mac(ExorMode::PreExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let mut dest = mac(ExorMode::PreExor, 3);
        for k in 0..3u32 {
            let mut frame = data(&d).diverged_copy();
            frame.frame_seq += u64::from(k);
            frame.subframes[0].seq = k;
            let now = t(200 + 1000 * u64::from(k));
            let acts = dest.on_frame_rx_vec(Frame::Data(frame).into(), now);
            let [(delay, token)] = timers(&acts)[..] else {
                panic!("the destination arms its ACK slot and no relay decision")
            };
            let acts = dest.on_timer_vec(token, now + delay);
            assert!(matches!(find_tx(&acts), Some(Frame::Ack(_))));
            dest.on_tx_end_vec(now + delay + cfg().t_ack);
        }
        assert_eq!(dest.stats().ack_frames_sent, 3);
        assert!(dest.pending.is_empty(), "an acknowledged frame is not kept");
    }

    #[test]
    fn sender_succeeds_on_any_list_ack() {
        let mut src = mac(ExorMode::PreExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        src.on_tx_end_vec(t(160));
        let fwd_ack = AckFrame {
            transmitter: NodeId::new(1),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: data(&d).frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: NodeList::new(),
        };
        src.on_frame_rx_vec(Frame::Ack(fwd_ack).into(), t(260));
        assert!(src.inflight.is_none(), "forwarder ACK means progress");
        assert_eq!(src.stats().acks_received, 1);
    }

    #[test]
    fn sender_times_out_and_retries() {
        let mut src = mac(ExorMode::McExor, 0);
        let d = tx_data_frame(&mut src, t(100));
        let acts = src.on_tx_end_vec(t(160));
        let (delay, token) = timers(&acts)[0];
        let acts = src.on_timer_vec(token, t(160) + delay);
        assert_eq!(src.stats().timeouts, 1);
        // Retry goes through backoff.
        let (d2, tok2) = timers(&acts)[0];
        let acts = src.on_timer_vec(tok2, t(160) + delay + d2);
        match find_tx(&acts) {
            Some(Frame::Data(retry)) => {
                assert_eq!(retry.subframes[0].seq, data(&d).subframes[0].seq);
                assert!(retry.frame_seq > data(&d).frame_seq, "fresh frame_seq per attempt");
            }
            _ => panic!("expected retransmission"),
        }
    }

    #[test]
    fn ack_window_covers_all_slots() {
        let pre = mac(ExorMode::PreExor, 0);
        let mce = mac(ExorMode::McExor, 0);
        let c = cfg();
        // 3-member list: preExOR window spans 3 ACK slots.
        assert!(pre.ack_window(3) > (c.sifs + c.t_ack) * 3);
        // MCExOR's compressed window is much shorter.
        assert!(mce.ack_window(3) < pre.ack_window(3));
    }
}
