//! Event tracing: an optional per-run timeline of transmissions,
//! receptions and deliveries.
//!
//! Traces serve two purposes: debugging protocol behaviour, and *in-situ
//! verification* — the integration tests use them to assert, for example,
//! that a RIPPLE forwarder's relay really starts `rank·T_slot + T_SIFS`
//! after the previous transmission ended (the Fig. 2 timeline, measured
//! inside a full simulation rather than on an isolated state machine).

use wmn_mac::DropReason;
use wmn_sim::{FlowId, NodeId, SimTime};

/// Which kind of frame an event refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// A (possibly aggregated) data frame.
    Data,
    /// A MAC acknowledgement.
    Ack,
}

/// One timeline entry.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// The station it happened at.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

/// The event payload.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind {
    /// The station's radio began transmitting.
    TxStart {
        /// Data or ACK.
        kind: FrameKind,
        /// Flow the frame belongs to.
        flow: FlowId,
        /// The frame's attempt identity.
        frame_seq: u64,
        /// Number of aggregated subframes (0 for ACKs).
        subframes: usize,
        /// Simulated wire size.
        wire_bytes: u32,
    },
    /// The station's radio finished transmitting.
    TxEnd,
    /// A frame was received cleanly (post-collision, post-BER-header).
    Decoded {
        /// Data or ACK.
        kind: FrameKind,
        /// Transmitting station of this copy.
        from: NodeId,
        /// Flow the frame belongs to.
        flow: FlowId,
        /// The frame's attempt identity.
        frame_seq: u64,
    },
    /// A packet reached its end-to-end transport endpoint here.
    Delivered {
        /// The flow it belonged to.
        flow: FlowId,
    },
    /// The MAC gave up on a packet (queue overflow or retry exhaustion).
    Drop {
        /// The flow it belonged to.
        flow: FlowId,
        /// Why the MAC dropped it.
        reason: DropReason,
    },
    /// A per-hop relay re-enqueued a packet towards its next hop.
    Forward {
        /// The flow being relayed.
        flow: FlowId,
        /// The hop the packet was re-enqueued towards.
        next_hop: NodeId,
    },
    /// A live route refresh changed this flow's path. Recorded at the
    /// refresh instant, before the events of that instant, at the flow's
    /// source; `path` is the new source → destination route.
    RouteChange {
        /// The re-routed flow.
        flow: FlowId,
        /// The new path, inclusive of both endpoints.
        path: Vec<NodeId>,
    },
}

/// A completed run's timeline with query helpers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All events in time order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// All transmission starts, optionally filtered by station.
    pub fn tx_starts(&self, node: Option<NodeId>) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TxStart { .. }))
            .filter(|e| node.map_or(true, |n| e.node == n))
            .collect()
    }

    /// Transmission starts of *data* frames at `node`.
    pub fn data_tx_starts(&self, node: NodeId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| {
                e.node == node && matches!(e.kind, TraceKind::TxStart { kind: FrameKind::Data, .. })
            })
            .collect()
    }

    /// The first TxEnd at `node` after `t`.
    pub fn tx_end_after(&self, node: NodeId, t: SimTime) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| e.node == node && e.at >= t && matches!(e.kind, TraceKind::TxEnd))
            .map(|e| e.at)
    }

    /// How many packets of `flow` were delivered end-to-end.
    pub fn delivered_count(&self, flow: FlowId) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Delivered { flow: f } if f == flow))
            .count()
    }

    /// How many packets of `flow` the MACs dropped.
    pub fn drop_count(&self, flow: FlowId) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Drop { flow: f, .. } if f == flow))
            .count()
    }

    /// Every route change of `flow`, in time order: `(when, new path)`.
    pub fn route_changes(&self, flow: FlowId) -> Vec<(SimTime, &[NodeId])> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::RouteChange { flow: f, path } if *f == flow => {
                    Some((e.at, path.as_slice()))
                }
                _ => None,
            })
            .collect()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_micros(at_us), node: NodeId::new(node), kind }
    }

    fn tx(kind: FrameKind) -> TraceKind {
        TraceKind::TxStart {
            kind,
            flow: FlowId::new(0),
            frame_seq: 1,
            subframes: 1,
            wire_bytes: 1040,
        }
    }

    #[test]
    fn query_helpers() {
        let trace = Trace {
            events: vec![
                ev(10, 0, tx(FrameKind::Data)),
                ev(70, 0, TraceKind::TxEnd),
                ev(100, 1, tx(FrameKind::Ack)),
                ev(105, 1, TraceKind::TxEnd),
                ev(110, 2, TraceKind::Delivered { flow: FlowId::new(0) }),
                ev(115, 1, TraceKind::Forward { flow: FlowId::new(0), next_hop: NodeId::new(2) }),
                ev(120, 0, TraceKind::Drop { flow: FlowId::new(0), reason: DropReason::QueueFull }),
                ev(
                    130,
                    0,
                    TraceKind::RouteChange {
                        flow: FlowId::new(0),
                        path: vec![NodeId::new(0), NodeId::new(3), NodeId::new(2)],
                    },
                ),
            ],
        };
        assert_eq!(trace.tx_starts(None).len(), 2);
        assert_eq!(trace.tx_starts(Some(NodeId::new(0))).len(), 1);
        assert_eq!(trace.data_tx_starts(NodeId::new(0)).len(), 1);
        assert!(trace.data_tx_starts(NodeId::new(1)).is_empty(), "node 1 sent an ACK");
        assert_eq!(
            trace.tx_end_after(NodeId::new(0), SimTime::from_micros(10)),
            Some(SimTime::from_micros(70))
        );
        assert_eq!(trace.delivered_count(FlowId::new(0)), 1);
        assert_eq!(trace.drop_count(FlowId::new(0)), 1);
        assert_eq!(trace.drop_count(FlowId::new(1)), 0);
        let changes = trace.route_changes(FlowId::new(0));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].0, SimTime::from_micros(130));
        assert_eq!(changes[0].1[1], NodeId::new(3));
        assert_eq!(trace.len(), 8);
        assert!(!trace.is_empty());
    }
}
