//! The MAC layer of the node stack: one [`MacEntity`] state machine per
//! station the run can reach (every station of a traced run, the observed
//! ones of an untraced run), built by the scenario's [`Scheme`], and a
//! stateless stand-in at every other station.
//!
//! The engine never names DCF, ExOR or RIPPLE: [`Scheme`] builds each
//! station's MAC, and the engine only owns the per-node entities and hands
//! them to the station stack for event dispatch. Adding a MAC scheme
//! touches the crate that owns its state machine and `Scheme` — never this
//! engine or the stack.

use wmn_mac::frame::{Packet, RouteInfo, RxFrame};
use wmn_mac::{ActionSink, MacAction, MacEntity, MacScheme, MacStats, TimerToken};
use wmn_phy::PhyParams;
use wmn_sim::{labels, NodeId, RngDirectory, SimTime};

use crate::Scheme;

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
    /// State machines built by the scheme; the other `macs` are
    /// [`Unbuilt`].
    #[cfg(test)]
    built: usize,
}

/// The MAC of a station no event of the run can reach: an untraced run's
/// station outside [`Prepared::observed_stations`](crate::Prepared::observed_stations),
/// which no flow's path names and the medium plans no reception at. A
/// zero-sized type, so its box allocates nothing. It reports the
/// statistics of a MAC that saw no event, [`MacStats::default`], which is
/// what the scheme's MAC would report there (the "Inert bystanders"
/// contract on [`MacEntity`]).
struct Unbuilt;

impl Unbuilt {
    fn reached(&self) {
        debug_assert!(false, "an event reached a station outside the run's mask");
    }
}

impl MacEntity for Unbuilt {
    fn on_enqueue(&mut self, _: Packet, _: RouteInfo, _: SimTime, _: &mut ActionSink) {
        self.reached();
    }
    fn on_busy(&mut self, _: SimTime, _: &mut ActionSink) {
        self.reached();
    }
    fn on_idle(&mut self, _: SimTime, _: &mut ActionSink) {
        self.reached();
    }
    fn on_frame_rx(&mut self, _: RxFrame, _: SimTime, _: &mut ActionSink) {
        self.reached();
    }
    fn on_tx_end(&mut self, _: SimTime, _: &mut ActionSink) {
        self.reached();
    }
    fn on_timer(&mut self, _: TimerToken, _: SimTime, _: &mut ActionSink) {
        self.reached();
    }
    fn stats(&self) -> MacStats {
        MacStats::default()
    }
}

impl MacEngine {
    /// Builds one MAC of `scheme` at each station of `kept`
    /// (every station for `None`) and an [`Unbuilt`] stand-in, which
    /// allocates nothing, at each of the other `node_count` stations. Each
    /// node's private RNG stream is keyed by its station index
    /// (`mac/<index>`), so a MAC draws the same whichever others are built.
    pub(crate) fn build(
        scheme: Scheme,
        params: &PhyParams,
        node_count: usize,
        kept: Option<&[NodeId]>,
        dir: &RngDirectory,
    ) -> Self {
        let build = |node: NodeId| {
            scheme.build_mac(params, node, dir.indexed_stream(labels::MAC, node.index() as u32))
        };
        let macs = match kept {
            None => (0..node_count as u32).map(|i| build(NodeId::new(i))).collect(),
            Some(kept) => {
                let mut macs: Vec<Box<dyn MacEntity>> =
                    std::iter::repeat_with(|| Box::new(Unbuilt) as _).take(node_count).collect();
                for &node in kept {
                    macs[node.index()] = build(node);
                }
                macs
            }
        };
        let engine = MacEngine::over(macs);
        #[cfg(test)]
        let engine = MacEngine { built: kept.map_or(node_count, <[_]>::len), ..engine };
        engine
    }

    /// The engine over ready-made state machines, in station order.
    pub(crate) fn over(macs: Vec<Box<dyn MacEntity>>) -> Self {
        MacEngine {
            #[cfg(test)]
            built: macs.len(),
            macs,
            sinks: Vec::new(),
            depth: 0,
        }
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

    /// State machines the scheme built.
    #[cfg(test)]
    pub(crate) fn built(&self) -> usize {
        self.built
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
