//! The flow/transport layer of the node stack: per-flow workload state.
//!
//! One `FlowRt` per scenario flow owns the transport endpoints (TCP
//! sender/receiver or the UDP sink), the datagram counters, and the web
//! workload's think-time stream. The layer also lists every flow's arrival
//! process (FTP/web starts, the precomputed VoIP departure schedule, the
//! first CBR send) for the station stack to seed its queue with, and
//! condenses the endpoints into [`FlowResult`]s when the run ends.
//!
//! A TCP flow's retransmission timer lives here too, as an `RtoWake`: the
//! sender re-arms it on every ACK that advances, and the slot is what keeps
//! that from costing a heap entry each time.

use wmn_metrics::mos::{voip_mos, VoipQualityInputs, WIRELESS_BUDGET};
use wmn_metrics::throughput_mbps;
use wmn_sim::{labels, EventKey, FlowId, RngDirectory, SimDuration, SimTime, StreamRng};
use wmn_transport::{TcpConfig, TcpReceiver, TcpSender, UdpSink};

use crate::scenario::{FlowSpec, Scenario, Workload};
use crate::stack::{Event, FlowResult, TcpFlowResult, VoipFlowResult};

/// Runtime state of one flow: its spec plus the transport endpoints.
pub(crate) struct FlowRt {
    pub(crate) spec: FlowSpec,
    pub(crate) id: FlowId,
    pub(crate) tcp_tx: Option<TcpSender>,
    /// `tcp_tx`'s retransmission timer.
    pub(crate) rto: RtoWake,
    pub(crate) tcp_rx: Option<TcpReceiver>,
    pub(crate) udp_sink: UdpSink,
    pub(crate) udp_seq: u64,
    pub(crate) udp_sent: u64,
    pub(crate) web_rng: Option<StreamRng>,
}

/// One arming of a flow's retransmission timer: the instant it fires, the
/// tie-break key minted for it when it was armed, and the sender's timer
/// generation it answers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct RtoTimer {
    pub(crate) at: SimTime,
    pub(crate) key: EventKey,
    pub(crate) generation: u64,
}

/// What a popped `TcpRto` event turns out to be ([`RtoWake::fire`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RtoFire {
    /// A wake-up an earlier one displaced: nothing to do.
    Orphan,
    /// The wake-up the slot was waiting for, but the timer has been re-armed
    /// since: schedule this arming in its place.
    Rearm(RtoTimer),
    /// The live timer itself: the sender's RTO has expired.
    Expired,
}

/// A TCP flow's retransmission timer, kept out of the event heap.
///
/// A saturated sender re-arms its RTO on every ACK that advances, at least
/// `min_rto` (200 ms) ahead, and nearly every arming is superseded by the
/// next one long before it could fire: scheduled one heap entry per arming,
/// nine of every ten entries on the figure grids were such dead timers. The
/// slot instead remembers the latest arming (`armed`) and keeps a single
/// wake-up in the heap (`tracked`). An arming no earlier than the tracked
/// wake-up schedules nothing; when the wake-up pops and the timer has moved
/// on, the latest arming is scheduled then — under the key it was armed
/// with, which sorts after the wake-up's because deadlines only moved later
/// and a flow's keys are minted in increasing order. An arming *earlier*
/// than the tracked wake-up (the back-off was reset) is scheduled at once
/// and the displaced wake-up becomes an orphan, told apart by its
/// generation when it pops.
///
/// The live timer therefore pops at exactly the `(time, key)` it would pop
/// at had every arming been scheduled, and the superseded ones — which did
/// nothing when they popped — are the only events that go missing.
#[derive(Default, Debug)]
pub(crate) struct RtoWake {
    /// The latest arming: the only one that may still expire.
    armed: Option<RtoTimer>,
    /// `(time, generation)` of this flow's wake-up in the heap.
    tracked: Option<(SimTime, u64)>,
    #[cfg(test)]
    pub(crate) stats: RtoWakeStats,
    /// Test oracle: schedule every arming and let the sender's own
    /// generation check drop the stale ones, as the engine did before.
    #[cfg(test)]
    pub(crate) per_arm: bool,
}

/// What the slot did, for the tests that hold it against the heap.
#[cfg(test)]
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct RtoWakeStats {
    /// Calls of [`RtoWake::arm`].
    pub(crate) arms: u64,
    /// Timers handed back for scheduling, by `arm` or `fire`.
    pub(crate) pushes: u64,
    /// Displaced wake-ups that have not popped yet.
    pub(crate) orphans_pending: u64,
}

impl RtoWake {
    /// Records `timer` as the live arming. Returns it when it has to be
    /// scheduled now: nothing is tracked, or it fires strictly before the
    /// tracked wake-up. On a tie the tracked wake-up pops first (smaller
    /// key) and reschedules this arming at that same instant.
    #[must_use]
    pub(crate) fn arm(&mut self, timer: RtoTimer) -> Option<RtoTimer> {
        #[cfg(test)]
        {
            self.stats.arms += 1;
            if self.per_arm {
                self.stats.pushes += 1;
                return Some(timer);
            }
        }
        self.armed = Some(timer);
        if self.tracked.is_some_and(|(at, _)| at <= timer.at) {
            return None;
        }
        #[cfg(test)]
        {
            self.stats.pushes += 1;
            self.stats.orphans_pending += u64::from(self.tracked.is_some());
        }
        self.tracked = Some((timer.at, timer.generation));
        Some(timer)
    }

    /// How many of this flow's wake-ups the slot believes are in the heap:
    /// the tracked one and the displaced ones still to pop.
    #[cfg(test)]
    pub(crate) fn believed_in_heap(&self) -> u64 {
        u64::from(self.tracked.is_some()) + self.stats.orphans_pending
    }

    /// Classifies a popped `TcpRto` event of this flow by its generation.
    #[must_use]
    pub(crate) fn fire(&mut self, generation: u64) -> RtoFire {
        #[cfg(test)]
        if self.per_arm {
            return RtoFire::Expired;
        }
        match (self.tracked, self.armed) {
            (Some((_, tracked)), Some(armed)) if tracked == generation => {
                if armed.generation == generation {
                    self.tracked = None;
                    RtoFire::Expired
                } else {
                    #[cfg(test)]
                    {
                        self.stats.pushes += 1;
                    }
                    self.tracked = Some((armed.at, armed.generation));
                    RtoFire::Rearm(armed)
                }
            }
            _ => {
                #[cfg(test)]
                {
                    self.stats.orphans_pending -= 1;
                }
                RtoFire::Orphan
            }
        }
    }
}

/// The flow layer: every flow's transport and workload state.
pub(crate) struct FlowLayer {
    flows: Vec<FlowRt>,
}

impl FlowLayer {
    /// Builds the per-flow endpoints from a validated scenario (web flows
    /// get their think/transfer stream as `web/<index>`).
    pub(crate) fn build(scenario: &Scenario, dir: &RngDirectory) -> Self {
        let mut flows = Vec::with_capacity(scenario.flows.len());
        for (i, spec) in scenario.flows.iter().enumerate() {
            let id = FlowId::new(i as u32);
            let (tcp_tx, tcp_rx) = match spec.workload {
                Workload::Ftp | Workload::Web(_) => (
                    Some(TcpSender::new(TcpConfig::default())),
                    Some(TcpReceiver::new(TcpConfig::default())),
                ),
                _ => (None, None),
            };
            let web_rng = match spec.workload {
                Workload::Web(_) => Some(dir.indexed_stream(labels::WEB, i as u32)),
                _ => None,
            };
            flows.push(FlowRt {
                spec: spec.clone(),
                id,
                tcp_tx,
                rto: RtoWake::default(),
                tcp_rx,
                udp_sink: UdpSink::new(),
                udp_seq: 0,
                udp_sent: 0,
                web_rng,
            });
        }
        FlowLayer { flows }
    }

    /// Every flow's arrival process, as plain data: the offset from
    /// `t = 0`, the flow, and the event to fire, flow-major in seeding
    /// order. The VoIP departure schedules are precomputed here (streams
    /// `voip/<index>`, each private to its flow). The station stack
    /// schedules the list under its discipline's flow keys.
    pub(crate) fn seed_events(
        &self,
        scenario: &Scenario,
        dir: &RngDirectory,
    ) -> Vec<(SimDuration, FlowId, Event)> {
        let mut seeds = Vec::new();
        for (i, flow) in self.flows.iter().enumerate() {
            // Small deterministic stagger breaks pathological phase locks.
            let stagger = SimDuration::from_micros(17 * i as u64);
            match &flow.spec.workload {
                Workload::Ftp | Workload::Web(_) => {
                    seeds.push((stagger, flow.id, Event::FlowStart { flow: flow.id }));
                }
                Workload::Voip(model) => {
                    let mut rng = dir.indexed_stream(labels::VOIP, i as u32);
                    for dep in model.departure_schedule(scenario.duration, &mut rng) {
                        seeds.push((dep, flow.id, Event::UdpSend { flow: flow.id }));
                    }
                }
                Workload::Cbr(_) => {
                    seeds.push((stagger, flow.id, Event::UdpSend { flow: flow.id }));
                }
            }
        }
        seeds
    }

    /// One flow's runtime state.
    pub(crate) fn flow_mut(&mut self, id: FlowId) -> &mut FlowRt {
        &mut self.flows[id.index()]
    }

    /// Immutable access to one flow's runtime state.
    pub(crate) fn flow(&self, id: FlowId) -> &FlowRt {
        &self.flows[id.index()]
    }

    /// Condenses every flow's endpoints into its [`FlowResult`], in
    /// scenario order.
    pub(crate) fn results(&self, scenario: &Scenario) -> Vec<FlowResult> {
        self.flows.iter().map(|flow| flow_result(flow, scenario.duration)).collect()
    }
}

/// Condenses one flow's endpoint state into its [`FlowResult`].
fn flow_result(flow: &FlowRt, duration: SimDuration) -> FlowResult {
    let mss = u64::from(TcpConfig::default().mss_wire_bytes);
    let (delivered_bytes, tcp, voip) = match &flow.spec.workload {
        Workload::Ftp | Workload::Web(_) => {
            let rx = flow.tcp_rx.as_ref().expect("tcp flow has receiver");
            let tx = flow.tcp_tx.as_ref().expect("tcp flow has sender");
            let bytes = rx.delivered_segments() * mss;
            let tcp = TcpFlowResult {
                segments_arrived: rx.stats().segments_arrived,
                reordered_arrivals: rx.stats().reordered_arrivals,
                retransmits: tx.stats().retransmits,
                timeouts: tx.stats().timeouts,
            };
            (bytes, Some(tcp), None)
        }
        Workload::Voip(_) => {
            let sink = &flow.udp_sink;
            let sent = flow.udp_sent.max(1);
            let late = sink.late_fraction(WIRELESS_BUDGET);
            let ontime = sink.received() as f64 * (1.0 - late);
            let loss = (1.0 - ontime / sent as f64).clamp(0.0, 1.0);
            let mean_delay = sink.mean_ontime_delay(WIRELESS_BUDGET).unwrap_or(WIRELESS_BUDGET);
            let mos = voip_mos(VoipQualityInputs {
                mean_wireless_delay: mean_delay,
                loss_fraction: loss,
            });
            let v = VoipFlowResult {
                sent: flow.udp_sent,
                received: sink.received(),
                loss_fraction: loss,
                mean_delay,
                p95_delay: wmn_metrics::p95(sink.delays()).unwrap_or(wmn_sim::SimDuration::ZERO),
                jitter: wmn_metrics::jitter(sink.delays()).unwrap_or(wmn_sim::SimDuration::ZERO),
                mos,
            };
            (sink.bytes_received(), None, Some(v))
        }
        Workload::Cbr(_) => (flow.udp_sink.bytes_received(), None, None),
    };
    FlowResult {
        flow: flow.id,
        delivered_bytes,
        throughput_mbps: throughput_mbps(delivered_bytes, duration),
        tcp,
        voip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One flow's timer traffic against a stand-in for the event heap: a
    /// set ordered by `(time, key)`, as the keyed queue pops.
    #[derive(Default)]
    struct Model {
        slot: RtoWake,
        heap: BTreeSet<(SimTime, EventKey, u64)>,
        /// Arms so far: the next key's `seq`, and the live generation.
        minted: u64,
        /// Every expiry that reached the sender with the live generation.
        delivered: Vec<RtoTimer>,
        /// Arms that fired before a wake-up already in the heap.
        displacing_arms: u64,
        orphans_popped: u64,
    }

    impl Model {
        fn arm(&mut self, at: SimTime) {
            self.minted += 1;
            let timer =
                RtoTimer { at, key: EventKey::new(2, 0, self.minted), generation: self.minted };
            let tracked = self.slot.tracked;
            if let Some(timer) = self.slot.arm(timer) {
                self.displacing_arms += u64::from(tracked.is_some_and(|(t, _)| timer.at < t));
                self.heap.insert((timer.at, timer.key, timer.generation));
            }
        }

        /// Pops everything due by `until`, as the loop would.
        fn drain(&mut self, until: SimTime) {
            while let Some(&(at, key, generation)) = self.heap.first() {
                if at > until {
                    break;
                }
                self.heap.pop_first();
                match self.slot.fire(generation) {
                    RtoFire::Orphan => self.orphans_popped += 1,
                    RtoFire::Rearm(timer) => {
                        assert!((timer.at, timer.key) > (at, key), "rescheduled into the past");
                        assert_eq!(timer.generation, self.minted, "not the latest arming");
                        self.heap.insert((timer.at, timer.key, timer.generation));
                    }
                    // The sender's own check: only the live generation acts.
                    RtoFire::Expired if generation == self.minted => {
                        self.delivered.push(RtoTimer { at, key, generation });
                    }
                    RtoFire::Expired => assert!(self.slot.per_arm, "a stale timer expired"),
                }
            }
        }

        /// The slot's beliefs against what is really in the heap.
        fn check_lazy_invariants(&self) {
            let stats = self.slot.stats;
            let tracked: Vec<_> = self
                .heap
                .iter()
                .filter(|e| self.slot.tracked.is_some_and(|(_, g)| g == e.2))
                .collect();
            match self.slot.tracked {
                Some((at, _)) => {
                    assert_eq!(tracked.len(), 1, "one tracked wake-up in the heap");
                    assert_eq!(tracked[0].0, at);
                }
                None => assert!(tracked.is_empty()),
            }
            assert_eq!(self.heap.len() as u64, self.slot.believed_in_heap());
            assert_eq!(
                stats.orphans_pending + self.orphans_popped,
                self.displacing_arms,
                "an orphan is what an earlier-deadline arm displaced, nothing else",
            );
            assert_eq!(stats.arms, self.minted);
        }
    }

    proptest! {
        /// A random program of clock advances and arms — 0–5 ns ahead of a
        /// clock that moves 0–2 ns a step, so a new deadline is as often
        /// before or level with the tracked wake-up as after it — drives the
        /// slot and the "schedule every arm, let the sender drop the stale
        /// ones" oracle: the same expiries reach the sender at the same
        /// `(time, key)`, and the slot never loses track of its heap entries.
        #[test]
        fn prop_lazy_wake_delivers_what_per_arm_scheduling_delivers(
            steps in proptest::collection::vec((0u64..3, 0u64..8), 1..200),
        ) {
            let mut lazy = Model::default();
            let mut oracle = Model::default();
            oracle.slot.per_arm = true;
            let mut clock = SimTime::ZERO;
            for (advance, op) in steps {
                clock += SimDuration::from_nanos(advance);
                lazy.drain(clock);
                oracle.drain(clock);
                if let Some(ahead) = op.checked_sub(2) {
                    let at = clock + SimDuration::from_nanos(ahead);
                    lazy.arm(at);
                    oracle.arm(at);
                }
                lazy.check_lazy_invariants();
                prop_assert_eq!(&lazy.delivered, &oracle.delivered);
            }
            lazy.drain(SimTime::MAX);
            oracle.drain(SimTime::MAX);
            lazy.check_lazy_invariants();
            prop_assert!(lazy.heap.is_empty() && lazy.slot.tracked.is_none());
            prop_assert_eq!(&lazy.delivered, &oracle.delivered);
            prop_assert!(lazy.slot.stats.pushes <= oracle.slot.stats.pushes);
        }
    }

    #[test]
    fn an_equal_deadline_arm_waits_for_the_tracked_wake_up() {
        let timer = |at, generation| RtoTimer {
            at: SimTime::from_nanos(at),
            key: EventKey::new(2, 0, generation),
            generation,
        };
        let mut slot = RtoWake::default();
        assert_eq!(slot.arm(timer(10, 1)), Some(timer(10, 1)));
        assert_eq!(slot.arm(timer(10, 2)), None, "level with the tracked wake-up");
        assert_eq!(slot.arm(timer(30, 3)), None, "later");
        // Back-off reset: earlier than tracked, so it goes in at once …
        assert_eq!(slot.arm(timer(5, 4)), Some(timer(5, 4)));
        assert_eq!(slot.arm(timer(5, 5)), None);
        // … its wake-up hands over to the live arming at the same instant,
        assert_eq!(slot.fire(4), RtoFire::Rearm(timer(5, 5)));
        assert_eq!(slot.fire(5), RtoFire::Expired);
        // and the displaced wake-up is nobody's.
        assert_eq!(slot.fire(1), RtoFire::Orphan);
        assert_eq!(slot.stats, RtoWakeStats { arms: 5, pushes: 3, orphans_pending: 0 });
    }
}
