//! The flow/transport layer of the node stack: per-flow workload state.
//!
//! One `FlowRt` per scenario flow owns the transport endpoints (TCP
//! sender/receiver or the UDP sink), the datagram counters, and the web
//! workload's think-time stream. The layer also lists every flow's arrival
//! process (FTP/web starts, the precomputed VoIP departure schedule, the
//! first CBR send) for the station stack to seed its queue with, and
//! condenses the endpoints into [`FlowResult`]s when the run ends.

use wmn_metrics::mos::{voip_mos, VoipQualityInputs, WIRELESS_BUDGET};
use wmn_metrics::throughput_mbps;
use wmn_sim::{labels, FlowId, RngDirectory, SimDuration, StreamRng};
use wmn_transport::{TcpConfig, TcpReceiver, TcpSender, UdpSink};

use crate::scenario::{FlowSpec, Scenario, Workload};
use crate::stack::{Event, FlowResult, TcpFlowResult, VoipFlowResult};

/// Runtime state of one flow: its spec plus the transport endpoints.
pub(crate) struct FlowRt {
    pub(crate) spec: FlowSpec,
    pub(crate) id: FlowId,
    pub(crate) tcp_tx: Option<TcpSender>,
    pub(crate) tcp_rx: Option<TcpReceiver>,
    pub(crate) udp_sink: UdpSink,
    pub(crate) udp_seq: u64,
    pub(crate) udp_sent: u64,
    pub(crate) web_rng: Option<StreamRng>,
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
    /// schedules the list under each flow's own keys.
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
