//! The MAC layer of the node stack: one [`MacEntity`] state machine per
//! station, built through the [`MacScheme`] factory trait.
//!
//! The engine is deliberately scheme-agnostic: it never names DCF, ExOR or
//! RIPPLE. A scenario's [`Scheme`](crate::Scheme) enum (or any other
//! [`MacScheme`] implementation) decides what gets built; the engine only
//! owns the per-node entities and hands them to the station stack for event
//! dispatch. Adding a MAC scheme therefore touches the crate that owns its
//! state machine and the scenario enum — never this engine or the stack.

use wmn_mac::{ActionSink, MacEntity, MacScheme, MacStats};
use wmn_phy::PhyParams;
use wmn_sim::{NodeId, RngDirectory};

/// The MAC layer: per-station protocol state machines, plus the engine's
/// free list of reusable [`ActionSink`]s.
///
/// Sink discipline: every handler invocation takes its own sink
/// ([`take_sink`](MacEngine::take_sink)), fills it through the
/// [`MacEntity`] call, is drained completely by the stack, and parks it
/// back ([`park_sink`](MacEngine::park_sink)). Re-entrant dispatch —
/// applying a popped action triggers another handler (`StartTx` →
/// `on_busy`, `Deliver` → `on_enqueue`) — simply takes the *next* sink
/// from the free list, so a sink is never refilled mid-drain. The list
/// depth equals the deepest such nesting (two or three), after which the
/// steady state recycles without allocating.
pub(crate) struct MacEngine {
    macs: Vec<Box<dyn MacEntity>>,
    sinks: Vec<ActionSink>,
}

impl MacEngine {
    /// Builds one MAC per station via the scheme factory. Each node's
    /// private RNG stream keeps the pre-trait label (`mac/<index>`), so the
    /// trait dispatch is bit-identical to the old hardwired construction.
    pub(crate) fn build(
        scheme: &dyn MacScheme,
        params: &PhyParams,
        node_count: usize,
        dir: &RngDirectory,
    ) -> Self {
        let macs = (0..node_count)
            .map(|i| {
                scheme.build_mac(params, NodeId::new(i as u32), dir.stream(&format!("mac/{i}")))
            })
            .collect();
        MacEngine { macs, sinks: Vec::new() }
    }

    /// The state machine of one station.
    pub(crate) fn node(&mut self, node: NodeId) -> &mut dyn MacEntity {
        self.macs[node.index()].as_mut()
    }

    /// Pops a sink from the free list (or makes a cold empty one) for one
    /// handler invocation.
    pub(crate) fn take_sink(&mut self) -> ActionSink {
        self.sinks.pop().unwrap_or_default()
    }

    /// Parks a drained sink for reuse.
    pub(crate) fn park_sink(&mut self, sink: ActionSink) {
        debug_assert!(sink.is_empty(), "sinks are drained before parking");
        self.sinks.push(sink);
    }

    /// Per-station running statistics, in node order.
    pub(crate) fn stats(&self) -> Vec<MacStats> {
        self.macs.iter().map(|m| m.stats()).collect()
    }
}
