//! The CSMA sender every MAC in the workspace is built on, in two halves.
//!
//! * [`Csma`] — unmodified 802.11 contention, shared by DCF/AFR, RIPPLE and
//!   preExOR/MCExOR: busy/idle edges, DIFS and the freezable backoff
//!   countdown, radio occupancy, the data-pipeline state, token minting,
//!   sequence minting, and what an acknowledged or timed-out attempt does
//!   to the window, the retry budget and the next backoff. The paper's
//!   cross-scheme comparison assumes this part is the same everywhere; here
//!   it is the same code.
//! * [`AggSender`] — the aggregated source DCF/AFR and RIPPLE put on top:
//!   the in-flight subframe window, head-matching batch and zero-wait
//!   top-up, frame building from the stored route, bitmap-ACK application,
//!   the pending-ACK responder and in-order delivery through the receive
//!   queues `Rq`.
//!
//! Both are owned by value. Neither keeps a table of timers: a timer is live
//! exactly while the state that armed it still holds its token (the core's
//! back-off and ACK timeout, the sender's pending ACK, a scheme's relay or
//! ACK slot), and a fire whose token no such state holds does nothing.

use std::collections::BTreeMap;

use wmn_sim::{FlowId, NodeId, SimDuration, SimTime, StreamRng};

use crate::backoff::Backoff;
use crate::frame::{AckFrame, DataFrame, Frame, Packet, RouteInfo, Subframe};
use crate::pool::{FramePool, Slot, SlotPool};
use crate::queue::IfQueue;
use crate::reorder::ReorderBuffer;
use crate::sink::ActionSink;
use crate::{DropReason, MacAction, MacStats, RateClass, TimerSlot, TimerToken};

/// Out-of-order packets a receive queue holds before it gives up on the
/// oldest hole.
const REORDER_CAPACITY: usize = 64;

/// How long a hole may hold packets back before the next arrival gives it
/// up: the sender has exhausted its retries on it. About four times the
/// longest a sender keeps retrying one frame under the paper's parameters
/// (7 attempts, back-off windows up to 1023 slots of 9 µs), and the
/// reorder-buffer timeout Linux's mac80211 uses (100 ms). Without it, a
/// TCP flow whose source dropped a frame stalls for good: its window never
/// fills the buffer, and every retransmission waits behind the hole.
const REORDER_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// Where a station's data pipeline stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataState {
    /// No transmission in flight; the backoff countdown may be pending.
    Idle,
    /// Our data frame is on the air.
    Transmitting,
    /// Waiting for the acknowledgement of the frame we just sent.
    WaitAck,
}

/// Which of the station's own transmissions holds its half-duplex radio.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OwnTx {
    /// The data pipeline's frame.
    Data,
    /// A MAC ACK ([`Csma::send_ack`]).
    Ack,
    /// A forwarder's relay ([`Csma::start_relay_tx`]).
    Relay,
}

/// What a fired timer asks of the scheme ([`Csma::on_timer`]).
#[derive(PartialEq, Eq, Debug)]
pub enum Fired {
    /// The backoff countdown ran out: transmit now.
    Transmit,
    /// The acknowledgement window closed unanswered; the core has counted
    /// the timeout, doubled the window, spent a retry and redrawn. The
    /// scheme tries to make progress — after [dropping](Csma::drop_packet)
    /// the frame when the retry limit is `exhausted` (window reset).
    TimedOut {
        /// The frame in flight must be abandoned.
        exhausted: bool,
    },
    /// A token the core does not hold: one the scheme minted through
    /// [`Csma::mint`], or a back-off or timeout the core cancelled or
    /// superseded. The scheme acts only if it still holds the token.
    Scheme(TimerToken),
}

/// The 802.11 contention and retransmission state of one station.
pub struct Csma {
    difs: SimDuration,
    slot: SimDuration,
    retry_limit: u8,
    /// The interface queue feeding the data pipeline.
    pub q: IfQueue,
    state: DataState,
    on_air: Option<OwnTx>,
    channel_busy: bool,
    idle_since: SimTime,
    pub(crate) backoff: Backoff,
    armed_backoff: Option<TimerToken>,
    countdown_anchor: SimTime,
    armed_timeout: Option<TimerToken>,
    /// Attempts spent on the frame in flight; zero whenever none is.
    retries: u8,
    next_token: u64,
    seq_counters: BTreeMap<(FlowId, NodeId), u32>,
    frame_seq_counter: u64,
    rng: StreamRng,
    /// Running counters; the scheme adds its receive-side counts.
    pub stats: MacStats,
}

impl Csma {
    /// Creates the core from the scheme's timing, window, limits and stream.
    pub fn new(
        difs: SimDuration,
        slot: SimDuration,
        backoff: Backoff,
        retry_limit: u8,
        q: IfQueue,
        rng: StreamRng,
    ) -> Self {
        Csma {
            difs,
            slot,
            retry_limit,
            q,
            state: DataState::Idle,
            on_air: None,
            channel_busy: false,
            idle_since: SimTime::ZERO,
            backoff,
            armed_backoff: None,
            countdown_anchor: SimTime::ZERO,
            armed_timeout: None,
            retries: 0,
            next_token: 0,
            seq_counters: BTreeMap::new(),
            frame_seq_counter: 0,
            rng,
            stats: MacStats::default(),
        }
    }

    /// The data pipeline's state.
    pub fn state(&self) -> DataState {
        self.state
    }

    /// Whether the channel at this station is sensed busy.
    pub fn channel_busy(&self) -> bool {
        self.channel_busy
    }

    /// Attempts already spent on the frame in flight (its `retry` field).
    pub fn retries(&self) -> u8 {
        self.retries
    }

    /// Whether the radio is free to start a transmission.
    pub fn radio_free(&self) -> bool {
        self.on_air.is_none()
    }

    /// Mints a fresh token, unique at this station. The core's own timers
    /// and the scheme's draw from the same counter.
    pub fn mint(&mut self) -> TimerToken {
        let token = TimerToken(self.next_token);
        self.next_token += 1;
        token
    }

    /// The next link-level sequence number of `(flow, src)`.
    pub fn next_seq(&mut self, flow: FlowId, src: NodeId) -> u32 {
        let c = self.seq_counters.entry((flow, src)).or_insert(0);
        std::mem::replace(c, *c + 1)
    }

    /// A fresh frame identity; every transmission attempt takes one.
    pub fn next_frame_seq(&mut self) -> u64 {
        self.frame_seq_counter += 1;
        self.frame_seq_counter
    }

    /// Queues a packet, drop-tail. `true` = accepted: now try to progress.
    pub fn on_enqueue(&mut self, packet: Packet, route: RouteInfo, out: &mut ActionSink) -> bool {
        let Some(rejected) = self.q.push(packet, route) else { return true };
        self.stats.drops_queue_full += 1;
        out.push(MacAction::Drop { packet: rejected, reason: DropReason::QueueFull });
        false
    }

    /// The channel turned busy: freeze the countdown.
    #[inline]
    pub fn on_busy(&mut self, now: SimTime, out: &mut ActionSink) {
        self.channel_busy = true;
        if self.armed_backoff.take().is_some() {
            out.push(MacAction::CancelTimer { slot: TimerSlot::Backoff });
            let idle = now.saturating_since(self.countdown_anchor);
            self.backoff.consume_idle(idle, self.slot);
        }
    }

    /// The channel turned idle: resume the countdown if there is work.
    /// `holding` = the scheme holds a frame outside the interface queue.
    pub fn on_idle(&mut self, now: SimTime, holding: bool, out: &mut ActionSink) {
        self.channel_busy = false;
        self.idle_since = now;
        if self.may_contend(holding) {
            self.arm_backoff(now, out);
        }
    }

    fn may_contend(&self, holding: bool) -> bool {
        self.state == DataState::Idle && self.radio_free() && (holding || !self.q.is_empty())
    }

    /// Moves the data pipeline forward: `true` = transmit right now (idle past
    /// DIFS, no countdown pending); otherwise arms the countdown if it can.
    pub fn try_progress(&mut self, now: SimTime, holding: bool, out: &mut ActionSink) -> bool {
        if !self.may_contend(holding) || self.channel_busy {
            return false; // a later idle edge, tx end or ACK tries again
        }
        let idle_for = now.saturating_since(self.idle_since);
        if self.backoff.remaining().is_none() && idle_for >= self.difs {
            return true;
        }
        self.arm_backoff(now, out);
        false
    }

    fn arm_backoff(&mut self, now: SimTime, out: &mut ActionSink) {
        if self.armed_backoff.is_some() || self.channel_busy {
            return;
        }
        let remaining = self.backoff.ensure_drawn(&mut self.rng);
        let start = (self.idle_since + self.difs).max(now);
        self.countdown_anchor = start;
        let fire_at = start + self.slot * u64::from(remaining);
        let token = self.mint();
        self.armed_backoff = Some(token);
        let delay = fire_at.saturating_since(now);
        out.push(MacAction::SetTimer { delay, token, slot: Some(TimerSlot::Backoff) });
    }

    /// A timer fired: does the core's part if the token is its armed back-off
    /// or timeout, and hands any other token back ([`Fired::Scheme`]). `None`
    /// = the core's timer left nothing for the scheme to do.
    #[inline]
    pub fn on_timer(&mut self, token: TimerToken, holding: bool) -> Option<Fired> {
        if self.armed_backoff == Some(token) {
            self.armed_backoff = None;
            if self.channel_busy || !self.may_contend(holding) {
                return None;
            }
            self.backoff.clear();
            Some(Fired::Transmit)
        } else if self.armed_timeout == Some(token) {
            self.armed_timeout = None;
            if self.state != DataState::WaitAck {
                return None;
            }
            self.stats.timeouts += 1;
            self.state = DataState::Idle;
            self.backoff.on_failure();
            self.retries += 1;
            let exhausted = self.budget_exhausted();
            if exhausted {
                self.backoff.on_success(); // window resets after abandoning a frame
            }
            self.backoff.draw(&mut self.rng);
            Some(Fired::TimedOut { exhausted })
        } else {
            Some(Fired::Scheme(token))
        }
    }

    fn budget_exhausted(&mut self) -> bool {
        let exhausted = self.retries > self.retry_limit;
        if exhausted {
            self.retries = 0;
        }
        exhausted
    }

    /// Abandons a packet whose frame exhausted the retry budget.
    pub fn drop_packet(&mut self, packet: Packet, out: &mut ActionSink) {
        self.stats.drops_retry_limit += 1;
        out.push(MacAction::Drop { packet, reason: DropReason::RetryLimit });
    }

    /// The current attempt was acknowledged: the window resets and the
    /// post-transmission backoff is drawn. An ACK that `progressed` (covered
    /// something outstanding) restores the retry budget, a fruitless one
    /// spends a retry; `true` = exhausted, the scheme drops what is left.
    pub fn attempt_acked(&mut self, progressed: bool, out: &mut ActionSink) -> bool {
        self.stats.acks_received += 1;
        if self.armed_timeout.take().is_some() {
            out.push(MacAction::CancelTimer { slot: TimerSlot::AckTimeout });
        }
        self.state = DataState::Idle;
        self.backoff.on_success();
        self.retries = if progressed { 0 } else { self.retries + 1 };
        self.backoff.draw(&mut self.rng);
        self.budget_exhausted()
    }

    /// Puts the data pipeline's frame on the air.
    pub fn start_data_tx(&mut self, frame: DataFrame, out: &mut ActionSink) {
        self.state = DataState::Transmitting;
        self.stats.data_frames_sent += 1;
        self.start_tx(OwnTx::Data, Frame::Data(frame), out);
    }

    /// Sends a MAC ACK. If the radio is occupied at the response instant
    /// (pathological) the ACK is lost and the sender recovers by timeout.
    pub fn send_ack(&mut self, ack: AckFrame, out: &mut ActionSink) {
        if self.radio_free() {
            self.stats.ack_frames_sent += 1;
            self.start_tx(OwnTx::Ack, Frame::Ack(ack), out);
        }
    }

    /// Puts a forwarder's relay on the air, outside the data pipeline.
    pub fn start_relay_tx(&mut self, frame: Frame, out: &mut ActionSink) {
        self.stats.relay_frames_sent += 1;
        self.start_tx(OwnTx::Relay, frame, out);
    }

    /// Where every transmission of every scheme leaves the MAC: the frame
    /// is wrapped, once, in the handle its broadcast will share.
    fn start_tx(&mut self, kind: OwnTx, frame: Frame, out: &mut ActionSink) {
        self.on_air = Some(kind);
        let rate = match &frame {
            Frame::Data(_) => RateClass::Data,
            Frame::Ack(_) => RateClass::Basic,
        };
        out.push(MacAction::StartTx { frame: frame.into_shared(), rate });
    }

    /// Our own transmission finished: frees the radio and says which it was.
    /// After [`OwnTx::Data`] the scheme [arms](Self::arm_timeout) its window.
    pub fn on_tx_end(&mut self) -> Option<OwnTx> {
        let ended = self.on_air.take();
        if ended == Some(OwnTx::Data) {
            self.state = DataState::WaitAck;
        }
        ended
    }

    /// Arms the acknowledgement window of the attempt that just ended,
    /// superseding one still armed (its slot holds one fire).
    pub fn arm_timeout(&mut self, delay: SimDuration, out: &mut ActionSink) {
        let token = self.mint();
        self.armed_timeout = Some(token);
        out.push(MacAction::SetTimer { delay, token, slot: Some(TimerSlot::AckTimeout) });
    }
}

/// The aggregated frame awaiting acknowledgement.
#[derive(Debug)]
pub struct Inflight {
    /// The (seq, packet) pairs still unacknowledged, in a recycled slot so
    /// starting a new frame never allocates at steady state.
    pub subframes: Slot<(u32, Packet)>,
    /// The route every subframe shares; the frame's link destination.
    pub route: RouteInfo,
    /// Flow of the head packet.
    pub flow: FlowId,
    /// Identity of the latest attempt.
    pub frame_seq: u64,
}

/// The aggregated source (and ACK responder and in-order receiver) shared
/// by DCF/AFR and RIPPLE.
pub struct AggSender {
    /// The contention core.
    pub csma: Csma,
    node: NodeId,
    max_aggregation: usize,
    max_frame_payload_bytes: u32,
    inflight: Option<Inflight>,
    /// The ACK waiting for its response instant, and the timer that sends it.
    pending_ack: Option<(TimerToken, AckFrame)>,
    /// Recycled buffers for [`Inflight::subframes`].
    inflight_slots: SlotPool<(u32, Packet)>,
    /// The station's frame-buffer pool.
    pub pool: FramePool,
    /// One receive queue per (flow, end-to-end source): frames may mix
    /// flows that share a route, so the key comes from the subframe. Beside
    /// it, when its current hole started holding packets back.
    rq: BTreeMap<(FlowId, NodeId), (ReorderBuffer, SimTime)>,
}

impl AggSender {
    /// Creates the sender for `node` with its per-frame packet and byte caps.
    pub fn new(
        node: NodeId,
        csma: Csma,
        max_aggregation: usize,
        max_frame_payload_bytes: u32,
    ) -> Self {
        AggSender {
            csma,
            node,
            max_aggregation,
            max_frame_payload_bytes,
            inflight: None,
            pending_ack: None,
            inflight_slots: SlotPool::new(),
            pool: FramePool::default(),
            rq: BTreeMap::new(),
        }
    }

    /// The station this sender belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The frame awaiting acknowledgement, if any.
    pub fn inflight(&self) -> Option<&Inflight> {
        self.inflight.as_ref()
    }

    /// Transmits if the channel allows it, else arms the countdown.
    pub fn try_progress(&mut self, now: SimTime, out: &mut ActionSink) {
        if self.csma.try_progress(now, self.inflight.is_some(), out) {
            self.transmit_data(out);
        }
    }

    /// Transmits a fresh batch sharing the head packet's route, or the
    /// unacknowledged subframes topped up with fresh packets for their route.
    fn transmit_data(&mut self, out: &mut ActionSink) {
        if let Some(inflight) = self.inflight.as_mut() {
            let space = self.max_aggregation - inflight.subframes.len();
            if space > 0 {
                let spent: u32 = inflight.subframes.iter().map(|(_, p)| p.header.wire_bytes).sum();
                let byte_budget = self.max_frame_payload_bytes.saturating_sub(spent).max(1);
                let mut extra = self.csma.q.pop_matching(&inflight.route, space, byte_budget);
                for qp in extra.drain(..) {
                    let seq = self.csma.next_seq(qp.packet.header.flow, qp.packet.header.src);
                    inflight.subframes.push((seq, qp.packet));
                }
            }
        } else {
            let mut batch = self
                .csma
                .q
                .pop_batch_matching_head(self.max_aggregation, self.max_frame_payload_bytes);
            let route = batch[0].route.clone();
            let flow = batch[0].packet.header.flow;
            let mut subframes = self.inflight_slots.mint();
            for qp in batch.drain(..) {
                let seq = self.csma.next_seq(qp.packet.header.flow, qp.packet.header.src);
                subframes.push((seq, qp.packet));
            }
            self.inflight = Some(Inflight { subframes, route, flow, frame_seq: 0 });
        }
        let frame_seq = self.csma.next_frame_seq();

        // Pooled subframe vector + by-reference packet bodies: building a
        // (re)transmission attempt allocates nothing at steady state.
        let mut subframes = self.pool.mint_subframes();
        let inflight = self.inflight.as_mut().expect("just set");
        inflight.frame_seq = frame_seq;
        for (seq, p) in inflight.subframes.iter() {
            subframes.push(Subframe { seq: *seq, packet: p.clone(), corrupted: false });
        }
        let first = &inflight.subframes[0].1.header;
        let frame = DataFrame {
            transmitter: self.node,
            link_dst: inflight.route.link_dst(),
            flow: inflight.flow,
            src: first.src,
            dst: first.dst,
            frame_seq,
            subframes,
            retry: self.csma.retries(),
        };
        self.csma.start_data_tx(frame, out);
    }

    /// The channel turned idle.
    pub fn on_idle(&mut self, now: SimTime, out: &mut ActionSink) {
        self.csma.on_idle(now, self.inflight.is_some(), out);
    }

    /// Our own transmission finished. `true` = it was the data frame: the
    /// scheme arms its acknowledgement window ([`Csma::arm_timeout`]).
    pub fn on_tx_end(&mut self, now: SimTime, out: &mut ActionSink) -> bool {
        let ended = self.csma.on_tx_end();
        if ended == Some(OwnTx::Ack) {
            self.try_progress(now, out);
        }
        ended == Some(OwnTx::Data)
    }

    /// A timer fired. Returns the token when neither the core nor the ACK
    /// responder holds it: the scheme's own, or dead.
    #[inline]
    pub fn on_timer(
        &mut self,
        token: TimerToken,
        now: SimTime,
        out: &mut ActionSink,
    ) -> Option<TimerToken> {
        match self.csma.on_timer(token, self.inflight.is_some())? {
            Fired::Transmit => self.transmit_data(out),
            Fired::TimedOut { exhausted } => {
                if exhausted {
                    self.drop_inflight(out);
                }
                self.try_progress(now, out);
            }
            Fired::Scheme(token) => {
                if !self.pending_ack.as_ref().is_some_and(|(armed, _)| *armed == token) {
                    return Some(token);
                }
                let (_, ack) = self.pending_ack.take().expect("just checked");
                self.csma.send_ack(ack, out);
            }
        }
        None
    }

    fn drop_inflight(&mut self, out: &mut ActionSink) {
        let mut dead = self.inflight.take().expect("an attempt implies a frame in flight");
        for (_, packet) in dead.subframes.drain(..) {
            self.csma.drop_packet(packet, out);
        }
    }

    /// Applies a bitmap ACK for the latest attempt (others are ignored): the
    /// acknowledged subframes leave the window, the rest are retransmitted.
    pub fn apply_ack(&mut self, a: &AckFrame, now: SimTime, out: &mut ActionSink) {
        let Some(inflight) = self.inflight.as_mut().filter(|i| i.frame_seq == a.frame_seq) else {
            return;
        };
        let before = inflight.subframes.len();
        inflight.subframes.retain(|(seq, p)| !a.acked_seqs.contains(&(p.header.flow, *seq)));
        let left = inflight.subframes.len();
        let exhausted = self.csma.attempt_acked(left < before, out);
        if left == 0 {
            self.inflight = None;
        } else if exhausted {
            self.drop_inflight(out);
        }
        self.try_progress(now, out);
    }

    /// Schedules `ack` to go out after `delay`, superseding one still waiting.
    pub fn schedule_ack(&mut self, ack: AckFrame, delay: SimDuration, out: &mut ActionSink) {
        let token = self.csma.mint();
        self.pending_ack = Some((token, ack));
        out.push(MacAction::SetTimer { delay, token, slot: None });
    }

    /// Offers a subframe that survived the channel, at `now`, to its
    /// receive queue and delivers the run that releases, in sequence order.
    /// A hole that has held packets back for [`REORDER_TIMEOUT`] is given
    /// up first. The frame is borrowed (it may be the shared broadcast
    /// copy), so the kept packet is cloned — a header copy plus a body
    /// refcount bump.
    pub fn deliver_in_order(&mut self, sf: &Subframe, now: SimTime, out: &mut ActionSink) {
        let key = (sf.packet.header.flow, sf.packet.header.src);
        let (rq, held_since) =
            self.rq.entry(key).or_insert_with(|| (ReorderBuffer::new(REORDER_CAPACITY), now));
        let stats = &mut self.csma.stats;
        let mut deliver = |mut released: Slot<Packet>| {
            for packet in released.drain(..) {
                stats.delivered_up += 1;
                out.push(MacAction::Deliver { packet });
            }
        };
        let (was_empty, hole) = (rq.buffered() == 0, rq.next_expected());
        if !was_empty && now - *held_since >= REORDER_TIMEOUT {
            deliver(rq.skip_hole());
        }
        deliver(rq.accept(sf.seq, sf.packet.clone()));
        // A hole that opened or moved at this arrival starts its clock.
        if was_empty || rq.next_expected() != hole {
            *held_since = now;
        }
    }

    /// Whether `sf`'s receive queue already holds its sequence number
    /// (delivered or buffered).
    pub fn holds(&self, sf: &Subframe) -> bool {
        let key = (sf.packet.header.flow, sf.packet.header.src);
        self.rq.get(&key).is_some_and(|(rq, _)| rq.has(sf.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{LinkDst, NetHeader, Proto};
    use proptest::prelude::*;

    const DIFS_NS: u64 = 34_000;
    const SLOT_NS: u64 = 9_000;
    const RETRY_LIMIT: u8 = 7;

    fn core(seed: u64) -> Csma {
        Csma::new(
            SimDuration::from_nanos(DIFS_NS),
            SimDuration::from_nanos(SLOT_NS),
            Backoff::new(15, 1023),
            RETRY_LIMIT,
            IfQueue::new(50),
            StreamRng::derive(seed, "csma-test"),
        )
    }

    fn ns(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    fn packet() -> Packet {
        let (flow, src, dst) = (FlowId::new(0), NodeId::new(0), NodeId::new(1));
        Packet::new(NetHeader { flow, src, dst, proto: Proto::Udp, wire_bytes: 100 }, vec![])
    }

    fn enqueue(c: &mut Csma) {
        let mut out = ActionSink::new();
        assert!(c.on_enqueue(packet(), RouteInfo::NextHop(NodeId::new(1)), &mut out));
        assert!(out.is_empty());
    }

    /// The single `SetTimer` a call produced: a contention timer, in its slot.
    fn timer(out: &mut ActionSink) -> (u64, TimerToken) {
        match out.drain_to_vec().as_slice() {
            [MacAction::SetTimer { delay, token, slot: Some(_) }] => (delay.as_nanos(), *token),
            other => panic!("expected exactly one slot SetTimer, got {other:?}"),
        }
    }

    /// Whether a call produced exactly the cancel of `slot`.
    fn cancelled(out: &mut ActionSink, slot: TimerSlot) -> bool {
        matches!(out.drain_to_vec()[..], [MacAction::CancelTimer { slot: s }] if s == slot)
    }

    /// Sends the queued packet and lets the transmission end: the pipeline
    /// now waits for an acknowledgement.
    fn transmit(c: &mut Csma) {
        let mut out = ActionSink::new();
        let frame = DataFrame {
            transmitter: NodeId::new(0),
            link_dst: LinkDst::Unicast(NodeId::new(1)),
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            frame_seq: c.next_frame_seq(),
            subframes: vec![].into(),
            retry: c.retries(),
        };
        c.start_data_tx(frame, &mut out);
        assert!(!c.radio_free());
        assert_eq!(c.on_tx_end(), Some(OwnTx::Data));
        assert_eq!(c.state(), DataState::WaitAck);
    }

    #[test]
    fn a_hole_is_given_up_at_the_first_arrival_after_the_timeout() {
        // Seq 0 never comes (its sender gave up on it).
        let mut tx = AggSender::new(NodeId::new(1), core(3), 16, 65_535);
        let header = NetHeader {
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            proto: Proto::Tcp,
            wire_bytes: 1000,
        };
        let mut out = ActionSink::new();
        let mut arrive = |seq: u32, ms: u64| {
            let packet = Packet::new(header, seq.to_le_bytes().to_vec());
            let sf = Subframe { seq, packet, corrupted: false };
            tx.deliver_in_order(&sf, SimTime::ZERO + SimDuration::from_millis(ms), &mut out);
            let delivered = out.drain_to_vec().into_iter().map(|action| match action {
                MacAction::Deliver { packet } => {
                    u32::from_le_bytes(packet.body[..].try_into().unwrap())
                }
                other => panic!("only deliveries, got {other:?}"),
            });
            delivered.collect::<Vec<_>>()
        };
        assert_eq!(arrive(1, 10), [0u32; 0], "held behind the hole at 0 from 10 ms");
        assert_eq!(arrive(2, 50), [0u32; 0]);
        assert_eq!(arrive(3, 109), [0u32; 0], "99 ms: still held");
        // 100 ms: the hole at 0 goes; 5 then waits behind a new one at 4.
        assert_eq!(arrive(5, 110), [1, 2, 3]);
        assert_eq!(arrive(6, 200), [0u32; 0], "the hole at 4 is 90 ms old");
        assert_eq!(arrive(4, 205), [4, 5, 6], "and it fills in time");
    }

    #[test]
    fn transmits_at_once_only_when_idle_past_difs() {
        let mut c = core(1);
        let mut out = ActionSink::new();
        assert!(!c.try_progress(ns(DIFS_NS), false, &mut out), "nothing to send");
        enqueue(&mut c);
        assert!(c.try_progress(ns(DIFS_NS), false, &mut out));
        // One nanosecond short of DIFS: the countdown is armed instead.
        c.on_busy(ns(DIFS_NS), &mut out);
        assert!(out.is_empty(), "no countdown to cancel");
        c.on_idle(ns(2 * DIFS_NS), false, &mut out);
        let (delay, _) = timer(&mut out);
        let drawn = u64::from(c.backoff.remaining().expect("drawn"));
        assert_eq!(delay, DIFS_NS + SLOT_NS * drawn);
        assert!(!c.try_progress(ns(3 * DIFS_NS - 1), false, &mut out));
        assert!(out.is_empty(), "already armed: no second timer");
    }

    #[test]
    fn timeouts_double_the_window_until_the_limit_then_reset_it() {
        let mut c = core(2);
        enqueue(&mut c);
        let mut out = ActionSink::new();
        let mut cw = 15;
        for attempt in 0..=RETRY_LIMIT {
            assert_eq!(c.retries(), attempt);
            transmit(&mut c);
            c.arm_timeout(SimDuration::from_nanos(1), &mut out);
            let (_, token) = timer(&mut out);
            let exhausted = attempt == RETRY_LIMIT;
            match c.on_timer(token, true) {
                Some(Fired::TimedOut { exhausted: e }) => assert_eq!(e, exhausted),
                other => panic!("expected a timeout, got {other:?}"),
            }
            cw = if exhausted { 15 } else { (cw * 2 + 1).min(1023) };
            assert_eq!(c.backoff.cw(), cw);
            assert!(c.backoff.remaining().is_some(), "backoff redrawn");
            assert_eq!(c.state(), DataState::Idle);
            assert_eq!(c.on_timer(token, true), Some(Fired::Scheme(token)), "fires once");
        }
        assert_eq!(c.retries(), 0, "budget restored for the next frame");
        assert_eq!(c.stats.timeouts, u64::from(RETRY_LIMIT) + 1);
    }

    #[test]
    fn superseded_and_acknowledged_timeouts_never_fire() {
        let mut c = core(3);
        enqueue(&mut c);
        transmit(&mut c);
        let mut out = ActionSink::new();
        c.arm_timeout(SimDuration::from_nanos(5), &mut out);
        let (_, old) = timer(&mut out);
        c.arm_timeout(SimDuration::from_nanos(9), &mut out);
        let (_, new) = timer(&mut out);
        assert_eq!(c.on_timer(old, true), Some(Fired::Scheme(old)), "superseded");
        // A fruitless ACK spends a retry, a progressing one restores the budget.
        assert!(!c.attempt_acked(false, &mut out));
        assert!(cancelled(&mut out, TimerSlot::AckTimeout));
        assert_eq!((c.retries(), c.state()), (1, DataState::Idle));
        assert_eq!(c.on_timer(new, true), Some(Fired::Scheme(new)), "cancelled by the ACK");
        assert!(!c.attempt_acked(true, &mut out));
        assert!(out.is_empty(), "nothing left to cancel");
        assert_eq!((c.retries(), c.stats.acks_received, c.stats.timeouts), (0, 2, 0));
    }

    proptest! {
        /// Freeze/resume conserves slots: over any busy/idle interleaving,
        /// slots consumed + slots remaining = slots drawn, each idle gap
        /// consumes exactly its whole slots past DIFS, every re-armed timer
        /// covers DIFS plus what remains, and frozen timers never fire.
        #[test]
        fn prop_freeze_resume_conserves_slots(
            seed in proptest::num::u64::ANY,
            gaps in proptest::collection::vec((0u64..400_000, 1u64..50_000), 0..12),
        ) {
            let mut c = core(seed);
            let mut out = ActionSink::new();
            c.on_busy(ns(0), &mut out);
            enqueue(&mut c);
            prop_assert!(!c.try_progress(ns(500), false, &mut out));
            let mut now = 1_000;
            c.on_idle(ns(now), false, &mut out);
            let (mut delay, mut token) = timer(&mut out);
            let drawn = u64::from(c.backoff.remaining().expect("drawn on the idle edge"));
            let (mut remaining, mut consumed) = (drawn, 0);
            for (idle, busy) in gaps {
                prop_assert_eq!(delay, DIFS_NS + SLOT_NS * remaining);
                if idle >= delay {
                    break; // the countdown completes before this busy edge
                }
                c.on_busy(ns(now + idle), &mut out);
                prop_assert!(cancelled(&mut out, TimerSlot::Backoff));
                let left = u64::from(c.backoff.remaining().expect("frozen, not cleared"));
                let whole_slots = idle.saturating_sub(DIFS_NS) / SLOT_NS;
                prop_assert_eq!(remaining - left, whole_slots.min(remaining));
                consumed += remaining - left;
                remaining = left;
                prop_assert_eq!(consumed + remaining, drawn);
                prop_assert_eq!(c.on_timer(token, false), Some(Fired::Scheme(token)));
                now += idle + busy;
                c.on_idle(ns(now), false, &mut out);
                (delay, token) = timer(&mut out);
            }
            prop_assert_eq!(delay, DIFS_NS + SLOT_NS * remaining);
            prop_assert!(matches!(c.on_timer(token, false), Some(Fired::Transmit)));
            prop_assert!(c.backoff.remaining().is_none());
        }
    }
}
