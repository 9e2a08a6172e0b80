//! The IEEE 802.11 DCF MAC, which doubles as the paper's AFR baseline.
//!
//! Contention, aggregation and partial retransmission are the shared
//! [`crate::csma`] sender; `max_aggregation = 1` makes it the classic DCF
//! of the "D" (predetermined route) and "S" (direct/SPR) baselines, 16 the
//! AFR scheme of reference \[19\] ("A" in the figures). What this module
//! adds is per-hop unicast: a station accepts only frames addressed to it,
//! answers each with a SIFS-spaced bitmap ACK, delivers through the
//! sender's reorder buffers so partial loss does not re-order the flow, and
//! expects its own ACK within one `ack_timeout`.

use wmn_phy::PhyParams;
use wmn_sim::{NodeId, SimDuration, SimTime, StreamRng};

use crate::backoff::Backoff;
use crate::csma::{AggSender, Csma, DataState};
use crate::frame::{
    AckFrame, AckList, DataFrame, Frame, LinkDst, NodeList, Packet, RouteInfo, RxFrame,
    ACK_BITMAP_BYTES, ACK_BYTES,
};
use crate::queue::IfQueue;
use crate::sink::ActionSink;
use crate::{MacEntity, MacStats, TimerToken};

/// Configuration of a [`DcfMac`], derived from the scenario's PHY parameters.
#[derive(Clone, Debug)]
pub struct DcfConfig {
    /// Short interframe space.
    pub sifs: SimDuration,
    /// Slot time.
    pub slot: SimDuration,
    /// DIFS = SIFS + 2·slot.
    pub difs: SimDuration,
    /// Minimum contention window.
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Per-frame retry limit.
    pub retry_limit: u8,
    /// Packets aggregated per frame: 1 = DCF, 16 = AFR.
    pub max_aggregation: usize,
    /// Interface queue capacity.
    pub ifq_capacity: usize,
    /// How long after a data transmission ends to wait for the MAC ACK.
    pub ack_timeout: SimDuration,
    /// Byte budget per aggregated frame, derived from a 6 ms airtime cap at
    /// the data rate (802.11n bounds A-MPDU duration the same way). Keeps
    /// low-rate frames from monopolising the channel for tens of ms.
    pub max_frame_payload_bytes: u32,
}

impl DcfConfig {
    /// Builds the configuration from PHY parameters and an aggregation
    /// limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_aggregation` is zero.
    pub fn from_phy(params: &PhyParams, max_aggregation: usize) -> Self {
        assert!(max_aggregation > 0, "aggregation limit must be at least 1");
        let ack_air = params.airtime(params.basic_rate, ACK_BYTES + ACK_BITMAP_BYTES);
        DcfConfig {
            sifs: params.sifs,
            slot: params.slot,
            difs: params.difs(),
            cw_min: params.cw_min,
            cw_max: params.cw_max,
            retry_limit: params.retry_limit,
            max_aggregation,
            ifq_capacity: params.ifq_capacity,
            // SIFS + ACK airtime + propagation/turnaround slack.
            ack_timeout: params.sifs + ack_air + SimDuration::from_micros(10),
            max_frame_payload_bytes: frame_payload_budget(params),
        }
    }
}

/// Payload bytes that fit a 6 ms frame at the data rate: every scheme's
/// aggregation budget.
pub fn frame_payload_budget(params: &PhyParams) -> u32 {
    (params.data_rate.as_mbps() * 6_000.0 / 8.0) as u32
}

/// The DCF/AFR MAC state machine for one station.
pub struct DcfMac {
    cfg: DcfConfig,
    /// The shared 802.11 sender; DCF adds no timers of its own.
    tx: AggSender,
}

impl std::fmt::Debug for DcfMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcfMac")
            .field("node", &self.tx.node())
            .field("state", &self.tx.csma.state())
            .field("queued", &self.tx.csma.q.len())
            .field("inflight", &self.tx.inflight().is_some())
            .finish()
    }
}

impl DcfMac {
    /// Creates the MAC for `node` with its own backoff RNG stream.
    pub fn new(cfg: DcfConfig, node: NodeId, rng: StreamRng) -> Self {
        let csma = Csma::new(
            cfg.difs,
            cfg.slot,
            Backoff::new(cfg.cw_min, cfg.cw_max),
            cfg.retry_limit,
            IfQueue::new(cfg.ifq_capacity),
            rng,
        );
        let tx = AggSender::new(node, csma, cfg.max_aggregation, cfg.max_frame_payload_bytes);
        DcfMac { cfg, tx }
    }

    /// The station this MAC belongs to.
    pub fn node(&self) -> NodeId {
        self.tx.node()
    }

    fn handle_data_frame(&mut self, d: &DataFrame, now: SimTime, out: &mut ActionSink) {
        if d.link_dst != LinkDst::Unicast(self.tx.node()) {
            return; // overheard or opportunistic: plain DCF ignores it
        }
        self.tx.csma.stats.data_frames_received += 1;
        let acked_seqs: AckList = d
            .subframes
            .iter()
            .filter(|s| !s.corrupted)
            .map(|s| (s.packet.header.flow, s.seq))
            .collect();
        // Deliver clean, non-duplicate subframes in order through the Rq.
        for sf in d.subframes.iter().filter(|s| !s.corrupted) {
            self.tx.deliver_in_order(sf, now, out);
        }
        // Schedule the MAC ACK one SIFS after the frame ended (now).
        let ack = AckFrame {
            transmitter: self.tx.node(),
            to: d.transmitter,
            flow: d.flow,
            frame_seq: d.frame_seq,
            acked_seqs,
            relay_list: NodeList::new(),
        };
        self.tx.schedule_ack(ack, self.cfg.sifs, out);
    }
}

impl MacEntity for DcfMac {
    fn on_enqueue(&mut self, packet: Packet, route: RouteInfo, now: SimTime, out: &mut ActionSink) {
        assert!(matches!(route, RouteInfo::NextHop(_)), "DCF requires next-hop routes");
        if self.tx.csma.on_enqueue(packet, route, out) {
            self.tx.try_progress(now, out);
        }
    }

    fn on_busy(&mut self, now: SimTime, out: &mut ActionSink) {
        self.tx.csma.on_busy(now, out);
    }

    fn on_idle(&mut self, now: SimTime, out: &mut ActionSink) {
        self.tx.on_idle(now, out);
    }

    fn on_frame_rx(&mut self, frame: RxFrame, now: SimTime, out: &mut ActionSink) {
        match &*frame {
            Frame::Data(d) => self.handle_data_frame(d, now, out),
            // Only the addressed sender, while it waits, takes the ACK.
            Frame::Ack(a) => {
                if a.to == self.tx.node() && self.tx.csma.state() == DataState::WaitAck {
                    self.tx.apply_ack(a, now, out);
                }
            }
        }
    }

    fn on_tx_end(&mut self, now: SimTime, out: &mut ActionSink) {
        if self.tx.on_tx_end(now, out) {
            self.tx.csma.arm_timeout(self.cfg.ack_timeout, out);
        }
    }

    fn on_timer(&mut self, token: TimerToken, now: SimTime, out: &mut ActionSink) {
        self.tx.on_timer(token, now, out);
    }

    fn stats(&self) -> MacStats {
        self.tx.csma.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{NetHeader, Proto, Subframe};
    use crate::{DropReason, MacAction, MacEntityExt};
    use std::sync::Arc;
    use wmn_sim::FlowId;

    fn cfg(max_agg: usize) -> DcfConfig {
        DcfConfig::from_phy(&PhyParams::paper_216(), max_agg)
    }

    fn mac(node: u32, max_agg: usize) -> DcfMac {
        DcfMac::new(cfg(max_agg), NodeId::new(node), StreamRng::derive(7, "test-mac"))
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

    fn find_timer(actions: &[MacAction]) -> Option<(SimDuration, TimerToken)> {
        actions.iter().find_map(|a| match a {
            MacAction::SetTimer { delay, token, .. } => Some((*delay, *token)),
            _ => None,
        })
    }

    #[test]
    fn immediate_tx_when_idle_past_difs() {
        let mut m = mac(0, 1);
        // Channel idle since time zero; enqueue at t=100us >> DIFS.
        let actions = m.on_enqueue_vec(packet(0, 0, 3), RouteInfo::NextHop(NodeId::new(1)), t(100));
        let frame = find_tx(&actions).expect("should transmit immediately");
        match frame {
            Frame::Data(d) => {
                assert_eq!(d.transmitter, NodeId::new(0));
                assert_eq!(d.link_dst, LinkDst::Unicast(NodeId::new(1)));
                assert_eq!(d.subframes.len(), 1);
            }
            _ => panic!("expected data frame"),
        }
    }

    #[test]
    fn backoff_armed_when_enqueue_follows_busy() {
        let mut m = mac(0, 1);
        m.on_busy_vec(t(0));
        m.on_idle_vec(t(50));
        // Only 5us of idle so far: must arm a backoff, not transmit.
        let actions = m.on_enqueue_vec(packet(0, 0, 3), RouteInfo::NextHop(NodeId::new(1)), t(55));
        assert!(find_tx(&actions).is_none());
        let (delay, token) = find_timer(&actions).expect("backoff timer armed");
        // Fire time ≥ DIFS boundary (50 + 34 = 84us) relative to 55us.
        assert!(delay >= SimDuration::from_micros(29));
        // Fire the timer: transmission starts.
        let fire_at = t(55) + delay;
        let actions = m.on_timer_vec(token, fire_at);
        assert!(find_tx(&actions).is_some(), "tx after backoff completes");
    }

    #[test]
    fn busy_freezes_and_idle_resumes_backoff() {
        let mut m = mac(0, 1);
        m.on_busy_vec(t(0));
        m.on_idle_vec(t(10));
        let actions = m.on_enqueue_vec(packet(0, 0, 3), RouteInfo::NextHop(NodeId::new(1)), t(11));
        let (_, token1) = find_timer(&actions).expect("armed");
        let before = m.tx.csma.backoff.remaining().unwrap();
        // Channel turns busy mid-countdown: timer token1 becomes stale.
        m.on_busy_vec(t(60));
        let after = m.tx.csma.backoff.remaining().unwrap();
        assert!(after <= before, "some slots may have been consumed");
        // Stale timer fire is ignored.
        let actions = m.on_timer_vec(token1, t(70));
        assert!(find_tx(&actions).is_none());
        // Idle again: new timer, eventually transmits.
        let actions = m.on_idle_vec(t(80));
        let (delay, token2) = find_timer(&actions).expect("re-armed");
        let actions = m.on_timer_vec(token2, t(80) + delay);
        assert!(find_tx(&actions).is_some());
    }

    #[test]
    fn receiver_acks_and_delivers() {
        let mut sender = mac(0, 1);
        let actions =
            sender.on_enqueue_vec(packet(0, 0, 1), RouteInfo::NextHop(NodeId::new(1)), t(100));
        let frame = Arc::clone(find_shared_tx(&actions).unwrap());

        let mut receiver = mac(1, 1);
        let actions = receiver.on_frame_rx_vec(RxFrame::Shared(frame), t(200));
        // Delivered upward…
        assert!(actions.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
        // …and an ACK scheduled at SIFS.
        let (delay, token) = find_timer(&actions).expect("SIFS ack timer");
        assert_eq!(delay, SimDuration::from_micros(16));
        let actions = receiver.on_timer_vec(token, t(216));
        match find_tx(&actions) {
            Some(Frame::Ack(a)) => {
                assert_eq!(a.to, NodeId::new(0));
                assert_eq!(a.acked_seqs.as_slice(), &[(FlowId::new(0), 0)]);
            }
            _ => panic!("expected ACK"),
        }
    }

    #[test]
    fn ack_completes_transfer() {
        let mut sender = mac(0, 1);
        let actions =
            sender.on_enqueue_vec(packet(0, 0, 1), RouteInfo::NextHop(NodeId::new(1)), t(100));
        let Frame::Data(d) = find_tx(&actions).unwrap() else { panic!() };
        sender.on_tx_end_vec(t(160));
        let ack = AckFrame {
            transmitter: NodeId::new(1),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: d.frame_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: NodeList::new(),
        };
        sender.on_frame_rx_vec(Frame::Ack(ack).into(), t(180));
        assert!(sender.tx.inflight().is_none(), "frame acknowledged");
        assert_eq!(sender.stats().acks_received, 1);
    }

    #[test]
    fn timeout_retries_then_drops() {
        let mut m = mac(0, 1);
        let actions = m.on_enqueue_vec(packet(0, 0, 1), RouteInfo::NextHop(NodeId::new(1)), t(100));
        assert!(find_tx(&actions).is_some());
        let mut now = t(160);
        let mut drops = 0;
        // Drive through all retries via ACK timeouts.
        for _ in 0..20 {
            let actions = m.on_tx_end_vec(now);
            let Some((delay, token)) = find_timer(&actions) else { break };
            now += delay;
            let actions = m.on_timer_vec(token, now);
            drops += actions
                .iter()
                .filter(|a| matches!(a, MacAction::Drop { reason: DropReason::RetryLimit, .. }))
                .count();
            if drops > 0 {
                break;
            }
            // Find the retransmission backoff timer and fire it.
            if let Some((d2, tok2)) = find_timer(&actions) {
                now += d2;
                let acts = m.on_timer_vec(tok2, now);
                if find_tx(&acts).is_none() {
                    break;
                }
            }
        }
        assert_eq!(drops, 1, "packet dropped after retry limit");
        assert!(m.stats().timeouts >= 8);
    }

    #[test]
    fn aggregation_packs_up_to_16() {
        let mut m = mac(0, 16);
        let mut last = Vec::new();
        for i in 0..20 {
            last =
                m.on_enqueue_vec(packet(0, 0, 1), RouteInfo::NextHop(NodeId::new(1)), t(100 + i));
        }
        // First enqueue triggered an immediate tx with 1 subframe; the rest
        // queued. Complete the exchange and check the next frame carries 16.
        let first_seq = match find_tx(&last) {
            Some(Frame::Data(first)) => first.frame_seq,
            // The first enqueue transmitted: the in-flight record names it.
            _ => m.tx.inflight().unwrap().frame_seq,
        };
        m.on_tx_end_vec(t(200));
        let ack = AckFrame {
            transmitter: NodeId::new(1),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: first_seq,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: NodeList::new(),
        };
        let actions = m.on_frame_rx_vec(Frame::Ack(ack).into(), t(220));
        // Post-backoff timer armed; fire it.
        let (delay, token) = find_timer(&actions).expect("post backoff");
        let actions = m.on_timer_vec(token, t(220) + delay);
        match find_tx(&actions) {
            Some(Frame::Data(d)) => {
                assert_eq!(d.subframes.len(), 16, "AFR aggregates 16 packets");
            }
            _ => panic!("expected aggregated data frame"),
        }
    }

    #[test]
    fn partial_retransmission_keeps_only_lost_subframes() {
        let mut m = mac(0, 16);
        for i in 0..4 {
            m.on_enqueue_vec(packet(0, 0, 1), RouteInfo::NextHop(NodeId::new(1)), t(100 + i));
        }
        // The first enqueue transmitted a 1-subframe frame (queue was empty).
        m.on_tx_end_vec(t(150));
        let fs = m.tx.inflight().unwrap().frame_seq;
        let ack = AckFrame {
            transmitter: NodeId::new(1),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: fs,
            acked_seqs: vec![(FlowId::new(0), 0)].into(),
            relay_list: NodeList::new(),
        };
        let actions = m.on_frame_rx_vec(Frame::Ack(ack).into(), t(170));
        let (delay, token) = find_timer(&actions).unwrap();
        let actions = m.on_timer_vec(token, t(170) + delay);
        let Some(Frame::Data(d2)) = find_tx(&actions) else { panic!() };
        assert_eq!(d2.subframes.len(), 3, "remaining queued packets aggregated");
        m.on_tx_end_vec(t(400));
        // ACK only two of the three (one subframe corrupted by BER).
        let acked: Vec<(FlowId, u32)> =
            d2.subframes.iter().map(|s| (s.packet.header.flow, s.seq)).take(2).collect();
        let lost_seq = d2.subframes[2].seq;
        let ack2 = AckFrame {
            transmitter: NodeId::new(1),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: d2.frame_seq,
            acked_seqs: acked.into(),
            relay_list: NodeList::new(),
        };
        let actions = m.on_frame_rx_vec(Frame::Ack(ack2).into(), t(420));
        let (delay, token) = find_timer(&actions).unwrap();
        let actions = m.on_timer_vec(token, t(420) + delay);
        let Some(Frame::Data(d3)) = find_tx(&actions) else { panic!() };
        assert_eq!(d3.subframes.len(), 1, "only the lost subframe retransmits");
        assert_eq!(d3.subframes[0].seq, lost_seq);
    }

    #[test]
    fn receiver_reorders_partial_loss() {
        let mut rx = mac(1, 16);
        // Frame with seqs 0,1,2 where 1 is corrupted.
        let mk = |seqs: Vec<(u32, bool)>, frame_seq| {
            Frame::Data(DataFrame {
                transmitter: NodeId::new(0),
                link_dst: LinkDst::Unicast(NodeId::new(1)),
                flow: FlowId::new(0),
                src: NodeId::new(0),
                dst: NodeId::new(1),
                frame_seq,
                subframes: seqs
                    .into_iter()
                    .map(|(seq, corrupted)| Subframe { seq, packet: packet(0, 0, 1), corrupted })
                    .collect(),
                retry: 0,
            })
        };
        let actions =
            rx.on_frame_rx_vec(mk(vec![(0, false), (1, true), (2, false)], 1).into(), t(100));
        let delivered = actions.iter().filter(|a| matches!(a, MacAction::Deliver { .. })).count();
        assert_eq!(delivered, 1, "seq 0 delivered, seq 2 held for seq 1");
        // Retransmission of seq 1 releases 1 and 2 in order.
        let actions = rx.on_frame_rx_vec(mk(vec![(1, false)], 2).into(), t(500));
        let delivered: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                MacAction::Deliver { .. } => Some(()),
                _ => None,
            })
            .map(|_| 0)
            .collect();
        assert_eq!(delivered.len(), 2, "held subframe released in order");
    }

    #[test]
    fn queue_overflow_drops() {
        let mut m = mac(0, 1);
        m.on_busy_vec(t(0)); // keep the channel busy so nothing drains
        let mut dropped = 0;
        for i in 0..60 {
            let actions =
                m.on_enqueue_vec(packet(0, 0, 1), RouteInfo::NextHop(NodeId::new(1)), t(1 + i));
            dropped += actions
                .iter()
                .filter(|a| matches!(a, MacAction::Drop { reason: DropReason::QueueFull, .. }))
                .count();
        }
        assert_eq!(dropped, 10, "50-packet queue drops the excess");
        assert_eq!(m.stats().drops_queue_full, 10);
    }

    #[test]
    fn overheard_unicast_is_ignored() {
        let mut m = mac(5, 1);
        let frame = Frame::Data(DataFrame {
            transmitter: NodeId::new(0),
            link_dst: LinkDst::Unicast(NodeId::new(1)),
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(3),
            frame_seq: 1,
            subframes: vec![Subframe { seq: 0, packet: packet(0, 0, 3), corrupted: false }].into(),
            retry: 0,
        });
        let actions = m.on_frame_rx_vec(frame.into(), t(100));
        assert!(actions.is_empty(), "not addressed to us");
    }

    #[test]
    fn duplicate_data_is_acked_but_not_redelivered() {
        let mut rx = mac(1, 1);
        let attempt = |frame_seq| {
            Frame::Data(DataFrame {
                transmitter: NodeId::new(0),
                link_dst: LinkDst::Unicast(NodeId::new(1)),
                flow: FlowId::new(0),
                src: NodeId::new(0),
                dst: NodeId::new(1),
                frame_seq,
                subframes: vec![Subframe { seq: 0, packet: packet(0, 0, 1), corrupted: false }]
                    .into(),
                retry: 0,
            })
        };
        let first = rx.on_frame_rx_vec(attempt(1).into(), t(100));
        assert!(first.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
        // Retransmission of the same subframe (sender missed the ACK).
        let second = rx.on_frame_rx_vec(attempt(2).into(), t(400));
        assert!(
            !second.iter().any(|a| matches!(a, MacAction::Deliver { .. })),
            "duplicate must not be delivered twice"
        );
        // But it is still acknowledged.
        assert!(second.iter().any(|a| matches!(a, MacAction::SetTimer { .. })));
    }
}
