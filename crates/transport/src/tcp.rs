//! TCP Reno endpoints.
//!
//! Segments are counted in MSS-sized units (Table I's 1000-byte packets);
//! acknowledgements are 40-byte packets flowing back through the same mesh,
//! which is exactly the two-way traffic RIPPLE's bidirectional aggregation
//! exploits.
//!
//! The sender implements slow start, congestion avoidance, fast
//! retransmit/recovery on three duplicate ACKs (NewReno-style partial-ACK
//! handling kept deliberately simple), and an RFC-6298-style RTO with Karn's
//! rule. The receiver acknowledges every segment, buffers out-of-order
//! arrivals, and *counts re-ordered arrivals* — the statistic Section II of
//! the paper reports (26.58 % under preExOR, 27.9 % under MCExOR).

use wmn_sim::{SimDuration, SimTime};

/// Configuration for both endpoint halves.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Wire size of a data segment (Table I: 1000 bytes).
    pub mss_wire_bytes: u32,
    /// Wire size of a pure acknowledgement.
    pub ack_wire_bytes: u32,
    /// Initial congestion window, segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, segments.
    pub initial_ssthresh: f64,
    /// Receiver advertised window, segments.
    pub advertised_window: u32,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Upper bound on the (exponentially backed-off) RTO.
    pub max_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss_wire_bytes: 1000,
            ack_wire_bytes: 40,
            initial_cwnd: 2.0,
            initial_ssthresh: 64.0,
            advertised_window: 40,
            dupack_threshold: 3,
            min_rto: SimDuration::from_millis(200),
            initial_rto: SimDuration::from_millis(1000),
            max_rto: SimDuration::from_secs_f64(60.0),
        }
    }
}

/// A TCP segment as carried (encoded) in a network packet body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpSegment {
    /// A data segment: one MSS worth of payload.
    Data {
        /// Segment sequence number (counted in segments).
        seq: u64,
        /// Sender timestamp, nanoseconds (echoed by the receiver for RTT).
        ts: u64,
        /// Whether this is a retransmission. Receivers exclude
        /// retransmissions from the re-ordering count: a late-arriving
        /// *copy* is recovery, not network re-ordering.
        retx: bool,
    },
    /// A cumulative acknowledgement.
    Ack {
        /// Next in-order segment the receiver expects.
        cum_ack: u64,
        /// Echo of the timestamp of the segment that triggered this ACK.
        ts_echo: u64,
    },
}

impl TcpSegment {
    const TAG_DATA: u8 = 1;
    const TAG_ACK: u8 = 2;

    /// Serialises the segment into a packet body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18);
        self.encode_into(&mut out);
        out
    }

    /// Serialises the segment into a caller-provided buffer — the
    /// allocation-free variant the engines use with pooled frame bodies.
    /// Appends without clearing, so a recycled buffer must arrive empty.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(18);
        match self {
            TcpSegment::Data { seq, ts, retx } => {
                out.push(Self::TAG_DATA);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&ts.to_le_bytes());
                out.push(u8::from(*retx));
            }
            TcpSegment::Ack { cum_ack, ts_echo } => {
                out.push(Self::TAG_ACK);
                out.extend_from_slice(&cum_ack.to_le_bytes());
                out.extend_from_slice(&ts_echo.to_le_bytes());
                out.push(0);
            }
        }
    }

    /// Parses a segment from a packet body.
    ///
    /// Returns `None` for malformed bodies (never panics on wire data).
    pub fn decode(body: &[u8]) -> Option<Self> {
        if body.len() != 18 {
            return None;
        }
        let a = u64::from_le_bytes(body[1..9].try_into().ok()?);
        let b = u64::from_le_bytes(body[9..17].try_into().ok()?);
        match (body[0], body[17]) {
            (Self::TAG_DATA, f @ (0 | 1)) => Some(TcpSegment::Data { seq: a, ts: b, retx: f == 1 }),
            (Self::TAG_ACK, 0) => Some(TcpSegment::Ack { cum_ack: a, ts_echo: b }),
            _ => None,
        }
    }
}

/// Output of a TCP endpoint, interpreted by the simulation runner.
#[derive(Clone, Debug)]
pub enum TcpAction {
    /// Transmit a segment (the runner wraps it in a network packet and
    /// routes it).
    Send {
        /// The segment to encode and send.
        segment: TcpSegment,
        /// Its simulated wire size.
        wire_bytes: u32,
    },
    /// Arm the retransmission timer; only the most recent `generation` is
    /// live.
    SetRtoTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Generation for stale-fire filtering.
        generation: u64,
    },
    /// Sender-side: everything requested so far has been acknowledged
    /// (drives the web workload's transfer/think cycle).
    SendComplete,
}

/// Sender-side statistics.
#[derive(Clone, Copy, Default, Debug)]
pub struct TcpSenderStats {
    /// Data segments transmitted, including retransmissions.
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit events (three duplicate ACKs).
    pub fast_retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
}

/// The sending half of a TCP connection.
#[derive(Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    next_seq: u64,
    snd_una: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    /// Highest sequence ever retransmitted (Karn's rule: no RTT samples at
    /// or below it).
    highest_retx: Option<u64>,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_backoff: u32,
    timer_generation: u64,
    /// Total segments the application wants sent; `None` = unlimited (FTP).
    app_limit: Option<u64>,
    complete_reported: bool,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Creates a sender with nothing to send yet.
    pub fn new(cfg: TcpConfig) -> Self {
        let rto = cfg.initial_rto;
        TcpSender {
            cfg,
            next_seq: 0,
            snd_una: 0,
            cwnd: 0.0,
            ssthresh: 0.0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            highest_retx: None,
            srtt: None,
            rttvar: 0.0,
            rto,
            rto_backoff: 0,
            timer_generation: 0,
            app_limit: Some(0),
            complete_reported: false,
            stats: TcpSenderStats::default(),
        }
    }

    /// Marks the connection as having unlimited data (a long-lived FTP
    /// transfer) and returns the initial burst.
    pub fn start_unlimited(&mut self, now: SimTime) -> Vec<TcpAction> {
        self.app_limit = None;
        self.ensure_started();
        self.pump(now)
    }

    /// Adds `segments` more data to send (web workload transfers) and
    /// returns whatever can be transmitted immediately.
    pub fn request_send(&mut self, segments: u64, now: SimTime) -> Vec<TcpAction> {
        if let Some(limit) = self.app_limit.as_mut() {
            *limit += segments;
        }
        self.complete_reported = false;
        self.ensure_started();
        self.pump(now)
    }

    fn ensure_started(&mut self) {
        if self.cwnd == 0.0 {
            self.cwnd = self.cfg.initial_cwnd;
            self.ssthresh = self.cfg.initial_ssthresh;
        }
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Lowest unacknowledged sequence.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Running statistics.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    fn effective_window(&self) -> u64 {
        (self.cwnd.floor() as u64).clamp(1, u64::from(self.cfg.advertised_window))
    }

    fn send_limit(&self) -> u64 {
        self.app_limit.unwrap_or(u64::MAX)
    }

    fn emit_data(&mut self, seq: u64, now: SimTime, retx: bool, out: &mut Vec<TcpAction>) {
        self.stats.segments_sent += 1;
        out.push(TcpAction::Send {
            segment: TcpSegment::Data { seq, ts: now.as_nanos(), retx },
            wire_bytes: self.cfg.mss_wire_bytes,
        });
    }

    fn arm_rto(&mut self, out: &mut Vec<TcpAction>) {
        self.timer_generation += 1;
        let scaled = SimDuration::from_nanos(
            self.rto.as_nanos().saturating_mul(1u64 << self.rto_backoff.min(16)),
        );
        let delay = scaled.min(self.cfg.max_rto);
        out.push(TcpAction::SetRtoTimer { delay, generation: self.timer_generation });
    }

    /// [`TcpSender::pump_into`] for a caller with no actions of its own yet.
    fn pump(&mut self, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.pump_into(now, &mut out);
        out
    }

    /// Sends as much new data as the window allows, appending to the
    /// caller's actions: an ACK that advances and opens the window is one
    /// vector, not one per stage.
    fn pump_into(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        let window_edge = self.snd_una + self.effective_window();
        let limit = self.send_limit();
        let mut sent_any = false;
        while self.next_seq < window_edge && self.next_seq < limit {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.emit_data(seq, now, false, out);
            sent_any = true;
        }
        if sent_any {
            self.arm_rto(out);
        }
        self.maybe_report_complete(out);
    }

    fn maybe_report_complete(&mut self, out: &mut Vec<TcpAction>) {
        if let Some(limit) = self.app_limit {
            if !self.complete_reported && limit > 0 && self.snd_una >= limit {
                self.complete_reported = true;
                out.push(TcpAction::SendComplete);
            }
        }
    }

    /// Processes an incoming cumulative ACK.
    pub fn on_ack(&mut self, cum_ack: u64, ts_echo: u64, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        if cum_ack > self.next_seq {
            return out; // corrupt/stale: acknowledges unsent data
        }
        if cum_ack > self.snd_una {
            let newly_acked = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            self.dupacks = 0;
            self.rto_backoff = 0;
            // Karn: only sample RTT if nothing at/below the acked range was
            // ever retransmitted.
            let sample_ok = self.highest_retx.map(|h| cum_ack > h + 1).unwrap_or(true);
            if sample_ok && ts_echo > 0 && now.as_nanos() >= ts_echo {
                self.update_rtt((now.as_nanos() - ts_echo) as f64);
            }
            if self.in_recovery {
                if cum_ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole.
                    self.stats.retransmits += 1;
                    self.highest_retx = Some(self.highest_retx.map_or(cum_ack, |h| h.max(cum_ack)));
                    self.emit_data(cum_ack, now, true, &mut out);
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly_acked as f64; // slow start
            } else {
                self.cwnd += newly_acked as f64 / self.cwnd; // congestion avoidance
            }
            if self.snd_una < self.next_seq {
                self.arm_rto(&mut out);
            }
            self.pump_into(now, &mut out);
            self.maybe_report_complete(&mut out);
        } else if cum_ack == self.snd_una && self.snd_una < self.next_seq {
            self.dupacks += 1;
            if self.in_recovery {
                self.cwnd += 1.0; // window inflation per extra dupack
                self.pump_into(now, &mut out);
            } else if self.dupacks == self.cfg.dupack_threshold {
                // Fast retransmit + fast recovery.
                self.stats.fast_retransmits += 1;
                self.stats.retransmits += 1;
                let flight = (self.next_seq - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max(2.0);
                self.cwnd = self.ssthresh + self.cfg.dupack_threshold as f64;
                self.in_recovery = true;
                self.recover = self.next_seq;
                self.highest_retx =
                    Some(self.highest_retx.map_or(self.snd_una, |h| h.max(self.snd_una)));
                self.emit_data(self.snd_una, now, true, &mut out);
                self.arm_rto(&mut out);
            }
        }
        out
    }

    /// Handles an RTO timer fire; stale generations are ignored.
    pub fn on_rto(&mut self, generation: u64, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        if generation != self.timer_generation || self.snd_una >= self.next_seq {
            return out;
        }
        self.stats.timeouts += 1;
        let flight = (self.next_seq - self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.in_recovery = false;
        self.rto_backoff += 1;
        self.stats.retransmits += 1;
        self.highest_retx = Some(self.highest_retx.map_or(self.snd_una, |h| h.max(self.snd_una)));
        self.emit_data(self.snd_una, now, true, &mut out);
        self.arm_rto(&mut out);
        out
    }

    fn update_rtt(&mut self, sample_ns: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_ns);
                self.rttvar = sample_ns / 2.0;
            }
            Some(srtt) => {
                let err = (sample_ns - srtt).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                self.srtt = Some(0.875 * srtt + 0.125 * sample_ns);
            }
        }
        let rto_ns = self.srtt.expect("just set") + 4.0 * self.rttvar;
        self.rto = SimDuration::from_nanos(rto_ns as u64).max(self.cfg.min_rto);
    }
}

/// Receiver-side statistics (the paper's re-ordering measurements come from
/// here).
#[derive(Clone, Copy, Default, Debug)]
pub struct TcpReceiverStats {
    /// Data segments that arrived (including duplicates).
    pub segments_arrived: u64,
    /// Arrivals with a sequence lower than one already seen — the paper's
    /// "out of order" count.
    pub reordered_arrivals: u64,
    /// Duplicate arrivals.
    pub duplicates: u64,
}

/// The receiving half of a TCP connection.
#[derive(Debug)]
pub struct TcpReceiver {
    cfg: TcpConfig,
    rcv_next: u64,
    out_of_order: std::collections::BTreeSet<u64>,
    max_seq_seen: Option<u64>,
    stats: TcpReceiverStats,
}

impl TcpReceiver {
    /// Creates a receiver expecting sequence 0.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpReceiver {
            cfg,
            rcv_next: 0,
            out_of_order: std::collections::BTreeSet::new(),
            max_seq_seen: None,
            stats: TcpReceiverStats::default(),
        }
    }

    /// Segments delivered in order to the application so far.
    pub fn delivered_segments(&self) -> u64 {
        self.rcv_next
    }

    /// Running statistics.
    pub fn stats(&self) -> TcpReceiverStats {
        self.stats
    }

    /// Processes an arriving data segment and returns the ACK to send.
    /// `retx` marks sender retransmissions, which do not count as network
    /// re-ordering.
    pub fn on_data(&mut self, seq: u64, ts: u64, retx: bool) -> Vec<TcpAction> {
        self.stats.segments_arrived += 1;
        if let Some(max_seen) = self.max_seq_seen {
            if !retx && seq < max_seen && seq >= self.rcv_next {
                self.stats.reordered_arrivals += 1;
            }
        }
        self.max_seq_seen = Some(self.max_seq_seen.map_or(seq, |m| m.max(seq)));
        if seq < self.rcv_next || self.out_of_order.contains(&seq) {
            self.stats.duplicates += 1;
        } else if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else {
            self.out_of_order.insert(seq);
        }
        vec![TcpAction::Send {
            segment: TcpSegment::Ack { cum_ack: self.rcv_next, ts_echo: ts },
            wire_bytes: self.cfg.ack_wire_bytes,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn data_seqs(actions: &[TcpAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                TcpAction::Send { segment: TcpSegment::Data { seq, .. }, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_window_is_two_segments() {
        let mut tx = TcpSender::new(TcpConfig::default());
        let actions = tx.start_unlimited(t(0));
        assert_eq!(data_seqs(&actions), vec![0, 1]);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut tx = TcpSender::new(TcpConfig::default());
        tx.start_unlimited(t(0));
        // ACK both initial segments: cwnd 2 -> 4, two new per ACK.
        let a1 = tx.on_ack(1, t(0).as_nanos(), t(10));
        let a2 = tx.on_ack(2, t(0).as_nanos(), t(11));
        assert_eq!(data_seqs(&a1).len() + data_seqs(&a2).len(), 4);
        assert!((tx.cwnd() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        // Start directly in congestion avoidance.
        let cfg = TcpConfig { initial_ssthresh: 2.0, ..TcpConfig::default() };
        let mut tx = TcpSender::new(cfg);
        tx.start_unlimited(t(0));
        tx.on_ack(1, 0, t(10));
        let cwnd_after_one = tx.cwnd();
        assert!(cwnd_after_one > 2.0 && cwnd_after_one < 3.0, "+1/cwnd per ACK");
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut tx = TcpSender::new(TcpConfig::default());
        tx.start_unlimited(t(0));
        // Grow the window a little.
        tx.on_ack(2, 0, t(5));
        let cwnd_before = tx.cwnd();
        // Segment 2 lost: three dupacks for 2.
        assert!(data_seqs(&tx.on_ack(2, 0, t(6))).is_empty());
        assert!(data_seqs(&tx.on_ack(2, 0, t(7))).is_empty());
        let acts = tx.on_ack(2, 0, t(8));
        assert_eq!(data_seqs(&acts), vec![2], "fast retransmit of the hole");
        assert_eq!(tx.stats().fast_retransmits, 1);
        assert!(
            tx.ssthresh <= cwnd_before / 2.0 + 1e-9,
            "slow-start threshold halved to {} from window {}",
            tx.ssthresh,
            cwnd_before
        );
    }

    #[test]
    fn reordering_causes_spurious_fast_retransmit() {
        // The behaviour the paper exploits: mere re-ordering (no loss)
        // still halves the sender's window.
        let mut tx = TcpSender::new(TcpConfig::default());
        tx.start_unlimited(t(0));
        tx.on_ack(2, 0, t(5));
        let before = tx.cwnd();
        for _ in 0..3 {
            tx.on_ack(2, 0, t(6)); // dupacks caused by late segment 2
        }
        assert_eq!(tx.stats().fast_retransmits, 1);
        assert!(tx.ssthresh <= before / 2.0 + 1e-9, "sending rate halved by mere re-ordering");
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut tx = TcpSender::new(TcpConfig::default());
        tx.start_unlimited(t(0));
        tx.on_ack(2, 0, t(5));
        for _ in 0..3 {
            tx.on_ack(2, 0, t(6));
        }
        assert!(tx.in_recovery);
        let recover = tx.recover;
        tx.on_ack(recover, 0, t(50));
        assert!(!tx.in_recovery);
        assert!((tx.cwnd() - tx.ssthresh).abs() < 1e-9, "cwnd deflates to ssthresh");
    }

    #[test]
    fn rto_resets_window_to_one() {
        let mut tx = TcpSender::new(TcpConfig::default());
        let acts = tx.start_unlimited(t(0));
        let generation = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::SetRtoTimer { generation, .. } => Some(*generation),
                _ => None,
            })
            .expect("RTO armed");
        let acts = tx.on_rto(generation, t(1000));
        assert_eq!(data_seqs(&acts), vec![0], "head-of-line retransmitted");
        assert_eq!(tx.cwnd(), 1.0);
        assert_eq!(tx.stats().timeouts, 1);
        // Stale generation is ignored.
        assert!(tx.on_rto(generation, t(2000)).is_empty());
    }

    #[test]
    fn rto_backoff_doubles_delay() {
        let mut tx = TcpSender::new(TcpConfig::default());
        let acts = tx.start_unlimited(t(0));
        let first_delay = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::SetRtoTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .unwrap();
        let acts = tx.on_rto(1, t(1000));
        let second_delay = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::SetRtoTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .unwrap();
        assert_eq!(second_delay, first_delay * 2);
    }

    /// The counting allocator, so a test can hold an allocation count.
    /// Its totals are process-wide and tests run on parallel threads: count
    /// through a phase no other test of this crate enters (the phase in
    /// force is per thread).
    #[global_allocator]
    static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;

    fn allocs_in(f: impl FnOnce()) -> u64 {
        let phase = wmn_alloc::Phase::TxPath;
        let before = wmn_alloc::phase_totals()[phase as usize].allocs;
        {
            let _scope = wmn_alloc::phase_scope(phase);
            f();
        }
        wmn_alloc::phase_totals()[phase as usize].allocs - before
    }

    #[test]
    fn advancing_ack_arms_then_fills_the_window_in_one_vector() {
        use TcpAction::{Send, SetRtoTimer};
        let mut tx = TcpSender::new(TcpConfig::default());
        tx.start_unlimited(t(0));
        // Slow start, segments 0 and 1 in flight: the ACK of 0 re-arms for
        // what is still out, then the opened window sends two and arms again
        // — consecutive generations, both live at the same deadline.
        let mut acts = Vec::new();
        let allocs = allocs_in(|| acts = tx.on_ack(1, 0, t(10)));
        assert_eq!(allocs, 1, "one action vector per advancing ACK");
        match acts[..] {
            [SetRtoTimer { delay: d1, generation: 2 }, Send { segment: s2, .. }, Send { segment: s3, .. }, SetRtoTimer { delay: d2, generation: 3 }] =>
            {
                assert_eq!(d1, d2);
                assert_eq!(s2, TcpSegment::Data { seq: 2, ts: t(10).as_nanos(), retx: false });
                assert_eq!(s3, TcpSegment::Data { seq: 3, ts: t(10).as_nanos(), retx: false });
            }
            _ => panic!("arm, two sends, arm — got {acts:?}"),
        }
        // Steady state, one new segment per ACK, every result dropped before
        // the next: still exactly one allocation each.
        let mut acked = 1;
        let allocs = allocs_in(|| {
            for ms in 11..111 {
                acked += 1;
                let acts = tx.on_ack(acked, 0, t(ms));
                assert!(matches!(
                    acts[..],
                    [SetRtoTimer { .. }, Send { .. }, .., SetRtoTimer { .. }]
                ));
            }
        });
        assert_eq!(allocs, 100);
    }

    /// Actions as `R`etransmission / `D`ata sends by sequence, `T`imer by
    /// generation and `C`omplete: the order the engine applies them in.
    fn script(actions: &[TcpAction]) -> String {
        let words: Vec<String> = actions
            .iter()
            .map(|a| match a {
                TcpAction::Send { segment: TcpSegment::Data { seq, retx: true, .. }, .. } => {
                    format!("R{seq}")
                }
                TcpAction::Send { segment: TcpSegment::Data { seq, .. }, .. } => format!("D{seq}"),
                TcpAction::SetRtoTimer { generation, .. } => format!("T{generation}"),
                TcpAction::SendComplete => "C".into(),
                TcpAction::Send { .. } => "?".into(),
            })
            .collect();
        words.join(" ")
    }

    #[test]
    fn recovery_and_completion_keep_their_action_order() {
        let mut tx = TcpSender::new(TcpConfig::default());
        assert_eq!(script(&tx.request_send(9, t(0))), "D0 D1 T1");
        assert_eq!(script(&tx.on_ack(2, 0, t(5))), "D2 D3 D4 D5 T2");
        assert_eq!(script(&tx.on_ack(2, 0, t(6))), "");
        assert_eq!(script(&tx.on_ack(2, 0, t(7))), "");
        // Fast retransmit, then window inflation sends new data.
        assert_eq!(script(&tx.on_ack(2, 0, t(8))), "R2 T3");
        assert_eq!(script(&tx.on_ack(2, 0, t(9))), "D6 D7 T4");
        // A partial ACK retransmits the next hole before it re-arms, and
        // arms again behind what the window then lets out.
        assert_eq!(script(&tx.on_ack(4, 0, t(10))), "R4 T5 D8 T6");
        // The full ACK leaves recovery with nothing left to send or time.
        assert_eq!(script(&tx.on_ack(9, 0, t(20))), "C");
        assert_eq!(script(&tx.on_ack(9, 0, t(21))), "");
    }

    #[test]
    fn limited_transfer_reports_completion() {
        let mut tx = TcpSender::new(TcpConfig::default());
        let acts = tx.request_send(2, t(0));
        assert_eq!(data_seqs(&acts), vec![0, 1]);
        let acts = tx.on_ack(2, 0, t(10));
        assert!(
            acts.iter().any(|a| matches!(a, TcpAction::SendComplete)),
            "transfer completion reported once fully acked"
        );
    }

    #[test]
    fn receiver_acks_cumulatively_and_buffers_gaps() {
        let mut rx = TcpReceiver::new(TcpConfig::default());
        let a0 = rx.on_data(0, 1, false);
        assert!(matches!(
            a0[0],
            TcpAction::Send { segment: TcpSegment::Ack { cum_ack: 1, .. }, .. }
        ));
        // Gap: 2 arrives before 1.
        let a2 = rx.on_data(2, 2, false);
        assert!(matches!(
            a2[0],
            TcpAction::Send { segment: TcpSegment::Ack { cum_ack: 1, .. }, .. }
        ));
        let a1 = rx.on_data(1, 3, false);
        assert!(matches!(
            a1[0],
            TcpAction::Send { segment: TcpSegment::Ack { cum_ack: 3, .. }, .. }
        ));
        assert_eq!(rx.delivered_segments(), 3);
    }

    #[test]
    fn receiver_counts_reordered_arrivals() {
        let mut rx = TcpReceiver::new(TcpConfig::default());
        rx.on_data(0, 1, false);
        rx.on_data(2, 2, false); // ahead
        rx.on_data(1, 3, false); // late: re-ordered
        assert_eq!(rx.stats().reordered_arrivals, 1);
        // A duplicate of an old segment is not re-ordering.
        rx.on_data(0, 4, false);
        assert_eq!(rx.stats().duplicates, 1);
    }

    #[test]
    fn ack_wire_bytes_are_small() {
        let mut rx = TcpReceiver::new(TcpConfig::default());
        let acts = rx.on_data(0, 1, false);
        match acts[0] {
            TcpAction::Send { wire_bytes, .. } => assert_eq!(wire_bytes, 40),
            _ => panic!(),
        }
    }

    proptest! {
        /// Segment codec round-trips.
        #[test]
        fn prop_codec_roundtrip(seq in any::<u64>(), ts in any::<u64>(), ack in any::<bool>()) {
            let seg = if ack {
                TcpSegment::Ack { cum_ack: seq, ts_echo: ts }
            } else {
                TcpSegment::Data { seq, ts, retx: seq % 2 == 0 }
            };
            prop_assert_eq!(TcpSegment::decode(&seg.encode()), Some(seg));
        }

        /// Decoder never panics on arbitrary bytes.
        #[test]
        fn prop_decode_total(body in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = TcpSegment::decode(&body);
        }

        /// The sender never has more than the advertised window in flight,
        /// whatever ACK pattern it observes.
        #[test]
        fn prop_flight_bounded(acks in proptest::collection::vec(0u64..2000, 1..200)) {
            let cfg = TcpConfig::default();
            let awnd = u64::from(cfg.advertised_window);
            let mut tx = TcpSender::new(cfg);
            tx.start_unlimited(SimTime::ZERO);
            for (i, cum) in acks.into_iter().enumerate() {
                let now = SimTime::from_millis(i as u64 + 1);
                let _ = tx.on_ack(cum, 0, now);
                prop_assert!(tx.next_seq - tx.snd_una <= awnd + 1);
            }
        }

        /// In-order delivery count never exceeds distinct arrivals, and the
        /// receiver's rcv_next is monotone.
        #[test]
        fn prop_receiver_monotone(seqs in proptest::collection::vec(0u64..50, 1..200)) {
            let mut rx = TcpReceiver::new(TcpConfig::default());
            let mut last = 0;
            for (i, s) in seqs.iter().enumerate() {
                rx.on_data(*s, i as u64 + 1, false);
                prop_assert!(rx.delivered_segments() >= last);
                last = rx.delivered_segments();
            }
            let distinct: std::collections::BTreeSet<_> = seqs.iter().collect();
            prop_assert!(rx.delivered_segments() as usize <= distinct.len());
        }
    }
}
