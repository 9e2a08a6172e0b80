//! [`ActionSink`]: the reusable output buffer of the [`crate::MacEntity`]
//! interface.
//!
//! Until the steady-state allocation rework every `on_*` handler returned a
//! fresh `Vec<MacAction>` — one heap allocation per event that produced any
//! action at all, several per transmitted frame. An [`ActionSink`] inverts
//! the flow: the *engine* owns the buffer, hands it to the handler to fill,
//! drains it in FIFO order, and reuses it for the next event. The buffer is
//! drained, never dropped, so after warm-up the action path touches the
//! allocator not at all. The engine's sinks live for the whole run, so the
//! storage is one [`VecDeque`] whose capacity is kept across fills.
//!
//! The fill/drain discipline is strict on purpose: a handler only ever
//! [`push`](ActionSink::push)es, the engine only ever
//! [`pop`](ActionSink::pop)s after the handler returned. Re-entrant dispatch
//! (applying a popped action triggers another handler) uses a *different*
//! sink — the engine keeps one per nesting depth — never the one mid-drain.

use std::collections::VecDeque;

use crate::MacAction;

/// A reusable FIFO buffer of [`MacAction`]s: filled by a MAC handler,
/// drained by the engine, then reused for the next event.
///
/// # Example
///
/// ```
/// use wmn_mac::{ActionSink, MacAction, TimerToken};
/// use wmn_sim::SimDuration;
///
/// let mut sink = ActionSink::new();
/// let delay = SimDuration::from_micros(34);
/// sink.push(MacAction::SetTimer { delay, token: TimerToken(1), slot: None });
/// assert_eq!(sink.len(), 1);
/// let action = sink.pop().expect("one action queued");
/// assert!(matches!(action, MacAction::SetTimer { .. }));
/// assert!(sink.pop().is_none());
/// // Drained, not dropped: the sink is ready for the next fill.
/// assert!(sink.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ActionSink {
    /// Pushed at the back, popped from the front; never shrunk.
    queue: VecDeque<MacAction>,
}

impl ActionSink {
    /// An empty sink (no heap allocation).
    pub fn new() -> Self {
        ActionSink::default()
    }

    /// Appends an action. Handlers are push-only; the engine drains.
    pub fn push(&mut self, action: MacAction) {
        self.queue.push_back(action);
    }

    /// Removes and returns the oldest undrained action, or `None` when the
    /// fill is exhausted.
    pub fn pop(&mut self) -> Option<MacAction> {
        self.queue.pop_front()
    }

    /// Actions pushed and not yet popped.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no actions are waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Discards any undrained actions, keeping the capacity.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Drains every remaining action into a fresh `Vec`, in FIFO order.
    /// This is the Vec-returning reference surface tests drive MACs
    /// through (see [`MacEntityExt`](crate::MacEntityExt)); engines use
    /// [`pop`](ActionSink::pop) and never allocate.
    pub fn drain_to_vec(&mut self) -> Vec<MacAction> {
        self.queue.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimerToken;
    use proptest::prelude::*;
    use wmn_sim::SimDuration;

    fn timer(id: u64) -> MacAction {
        let delay = SimDuration::from_nanos(id);
        MacAction::SetTimer { delay, token: TimerToken(id), slot: None }
    }

    fn token_of(action: &MacAction) -> u64 {
        match action {
            MacAction::SetTimer { token, .. } => token.0,
            other => panic!("test pushes timers only, got {other:?}"),
        }
    }

    #[test]
    fn fifo_across_the_inline_spill_boundary() {
        let mut sink = ActionSink::new();
        for id in 0..10 {
            sink.push(timer(id));
        }
        assert_eq!(sink.len(), 10);
        let order: Vec<u64> = std::iter::from_fn(|| sink.pop().map(|a| token_of(&a))).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert!(sink.is_empty());
    }

    #[test]
    fn drained_sink_resets_for_the_next_fill() {
        let mut sink = ActionSink::new();
        for id in 0..7 {
            sink.push(timer(id));
        }
        while sink.pop().is_some() {}
        // Second fill starts from a clean buffer.
        sink.push(timer(99));
        assert_eq!(sink.len(), 1);
        assert_eq!(token_of(&sink.pop().expect("refilled")), 99);
        assert!(sink.pop().is_none());
    }

    #[test]
    fn clear_discards_undrained_actions() {
        let mut sink = ActionSink::new();
        for id in 0..6 {
            sink.push(timer(id));
        }
        assert_eq!(token_of(&sink.pop().expect("first")), 0);
        sink.clear();
        assert!(sink.is_empty());
        assert!(sink.pop().is_none());
        sink.push(timer(42));
        assert_eq!(token_of(&sink.pop().expect("post-clear fill")), 42);
    }

    #[test]
    fn drain_to_vec_preserves_order() {
        let mut sink = ActionSink::new();
        for id in [3u64, 1, 4, 1, 5, 9] {
            sink.push(timer(id));
        }
        let drained: Vec<u64> = sink.drain_to_vec().iter().map(token_of).collect();
        assert_eq!(drained, vec![3, 1, 4, 1, 5, 9]);
        assert!(sink.is_empty());
    }

    proptest! {
        /// Reuse leaks nothing: any sequence of fill/drain cycles on ONE
        /// reused sink yields, cycle for cycle, exactly what a fresh `Vec`
        /// filled by the same pushes would hold.
        #[test]
        fn prop_reused_sink_matches_fresh_vec_reference(
            cycles in proptest::collection::vec(
                proptest::collection::vec(0u64..1000, 0..12), 1..8),
        ) {
            let mut sink = ActionSink::new();
            for cycle in &cycles {
                // The fresh-Vec reference: what the pre-sink interface
                // would have returned for this event.
                let reference: Vec<u64> = cycle.clone();
                for &id in cycle {
                    sink.push(timer(id));
                }
                let drained: Vec<u64> =
                    std::iter::from_fn(|| sink.pop().map(|a| token_of(&a))).collect();
                prop_assert_eq!(&drained, &reference, "reused sink diverged from fresh Vec");
                prop_assert!(sink.is_empty());
            }
        }
    }
}
