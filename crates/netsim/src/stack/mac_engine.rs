//! The MAC layer of the node stack: one [`MacEntity`] state machine per
//! station, built through the [`MacScheme`] factory trait.
//!
//! The engine is deliberately scheme-agnostic: it never names DCF, ExOR or
//! RIPPLE. A scenario's [`Scheme`](crate::Scheme) enum (or any other
//! [`MacScheme`] implementation) decides what gets built; the engine only
//! owns the per-node entities and hands them to the station stack for event
//! dispatch. Adding a MAC scheme therefore touches the crate that owns its
//! state machine and the scenario enum — never this engine or the stack.

use wmn_mac::{ActionSink, MacAction, MacEntity, MacScheme, MacStats};
use wmn_phy::PhyParams;
use wmn_sim::{labels, NodeId, RngDirectory};

/// The MAC layer: per-station protocol state machines, plus the engine's
/// [`ActionSink`]s — one per nesting depth of handler invocations.
///
/// Sink discipline: a handler invocation [`open`](MacEngine::open)s the sink
/// of the current depth and fills it through the [`MacEntity`] call; the
/// stack then takes its actions one at a time
/// ([`next_action`](MacEngine::next_action)) and
/// [`close`](MacEngine::close)s the invocation. Re-entrant dispatch —
/// applying a taken action triggers another handler (`StartTx` → `on_busy`,
/// `Deliver` → `on_enqueue`) — opens the sink one level deeper, so a sink is
/// never refilled mid-drain and a nested handler never sees its parent's
/// actions.
///
/// Sinks are **lent in place**: they live in `sinks` for the whole run and
/// only `&mut` borrows and single [`MacAction`]s (a few words each) cross
/// this seam. Nothing the size of a sink may move per call: there are
/// millions of handler calls per simulated second, nearly all of which emit
/// nothing, and handing each one a sink by value measured a fifth of a
/// run's wall time. The list grows to the deepest nesting (two or three)
/// during warm-up and then stays put.
pub(crate) struct MacEngine {
    macs: Vec<Box<dyn MacEntity>>,
    sinks: Vec<ActionSink>,
    /// Handler invocations currently open: `sinks[..depth]` are being
    /// filled or drained, `sinks[depth..]` are empty and free.
    depth: usize,
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
        let macs = (0..node_count as u32)
            .map(|i| scheme.build_mac(params, NodeId::new(i), dir.indexed_stream(labels::MAC, i)))
            .collect();
        MacEngine::over(macs)
    }

    /// The engine over ready-made state machines, in station order.
    pub(crate) fn over(macs: Vec<Box<dyn MacEntity>>) -> Self {
        MacEngine { macs, sinks: Vec::new(), depth: 0 }
    }

    /// Opens one handler invocation: lends the station's state machine and
    /// the (empty) sink of the current nesting depth, both in place.
    pub(crate) fn open(&mut self, node: NodeId) -> (&mut dyn MacEntity, &mut ActionSink) {
        if self.depth == self.sinks.len() {
            self.sinks.push(ActionSink::new());
        }
        let sink = &mut self.sinks[self.depth];
        debug_assert!(sink.is_empty(), "a free sink holds no actions");
        self.depth += 1;
        (self.macs[node.index()].as_mut(), sink)
    }

    /// Takes the oldest undrained action of the innermost open invocation.
    pub(crate) fn next_action(&mut self) -> Option<MacAction> {
        self.sinks[self.depth - 1].pop()
    }

    /// Closes the innermost open invocation; its sink is free again.
    pub(crate) fn close(&mut self) {
        debug_assert!(self.sinks[self.depth - 1].is_empty(), "sinks are drained before closing");
        self.depth -= 1;
    }

    /// Sinks ever created: the deepest nesting seen so far.
    #[cfg(test)]
    pub(crate) fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Per-station running statistics, in node order.
    pub(crate) fn stats(&self) -> Vec<MacStats> {
        self.macs.iter().map(|m| m.stats()).collect()
    }
}
