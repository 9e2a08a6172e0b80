//! [`ActionSink`]: the reusable output buffer of the [`crate::MacEntity`]
//! interface.
//!
//! Until the steady-state allocation rework every `on_*` handler returned a
//! fresh `Vec<MacAction>` — one heap allocation per event that produced any
//! action at all, several per transmitted frame. An [`ActionSink`] inverts
//! the flow: the *engine* owns the buffer, hands it to the handler to fill,
//! drains it in FIFO order, and reuses it for the next event. The buffer is
//! drained, never dropped, so after warm-up the action path touches the
//! allocator not at all; and like [`SmallList`](crate::SmallList) it keeps
//! the first few actions inline, so even a cold sink does not allocate for
//! the common one-to-three-action bursts.
//!
//! The fill/drain discipline is strict on purpose: a handler only ever
//! [`push`](ActionSink::push)es, the engine only ever
//! [`pop`](ActionSink::pop)s after the handler returned, and a fully
//! drained sink resets itself for the next fill. Re-entrant dispatch
//! (applying a popped action triggers another handler) uses a *different*
//! sink — the engine keeps one per nesting depth — never the one mid-drain.
//!
//! Sinks are lent, not passed around: the engine hands a handler `&mut` to
//! a sink that stays where it lives, and a compile-time guard keeps the type
//! small enough that even a stray by-value move stays cheap.

use crate::MacAction;

/// Actions kept inline before spilling to the heap. MAC handlers emit one
/// to three actions for almost every event (a timer, a transmission, a
/// handful of deliveries); bulk release runs (reorder-buffer drains) spill.
const INLINE_ACTIONS: usize = 4;

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
    /// Inline slots for the common small bursts; `inline[popped..pushed]`
    /// (clamped to `INLINE_ACTIONS`) holds the live prefix.
    inline: [Option<MacAction>; INLINE_ACTIONS],
    /// Overflow beyond the inline slots. Cleared on every full drain but
    /// never shrunk, so a sink that spilled once never spills-allocates
    /// again at that burst size.
    spill: Vec<Option<MacAction>>,
    /// Actions pushed during the current fill.
    pushed: usize,
    /// Actions already popped from the current fill.
    popped: usize,
}

// Four inline actions plus bookkeeping. Growing past this means an action
// variant got fat (see the guard on `MacAction`) or the inline count rose.
const _: () = assert!(std::mem::size_of::<ActionSink>() <= 320);

impl ActionSink {
    /// An empty sink (no heap allocation).
    pub fn new() -> Self {
        ActionSink::default()
    }

    /// Appends an action. Handlers are push-only; the engine drains.
    pub fn push(&mut self, action: MacAction) {
        if self.pushed < INLINE_ACTIONS {
            self.inline[self.pushed] = Some(action);
        } else {
            self.spill.push(Some(action));
        }
        self.pushed += 1;
    }

    /// Removes and returns the oldest undrained action, or `None` when the
    /// fill is exhausted — at which point the sink resets itself (keeping
    /// its spill capacity) so the next handler starts on a clean buffer.
    pub fn pop(&mut self) -> Option<MacAction> {
        if self.popped == self.pushed {
            self.clear();
            return None;
        }
        let action = if self.popped < INLINE_ACTIONS {
            self.inline[self.popped].take()
        } else {
            self.spill[self.popped - INLINE_ACTIONS].take()
        };
        self.popped += 1;
        debug_assert!(action.is_some(), "push/pop counters out of sync");
        action
    }

    /// Actions pushed and not yet popped.
    pub fn len(&self) -> usize {
        self.pushed - self.popped
    }

    /// Whether no actions are waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards any undrained actions and resets the sink for the next
    /// fill, keeping the spill capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline[..self.pushed.min(INLINE_ACTIONS)] {
            *slot = None;
        }
        self.spill.clear();
        self.pushed = 0;
        self.popped = 0;
    }

    /// Drains every remaining action into a fresh `Vec`, in FIFO order.
    /// This is the Vec-returning reference surface tests drive MACs
    /// through (see [`MacEntityExt`](crate::MacEntityExt)); engines use
    /// [`pop`](ActionSink::pop) and never allocate.
    pub fn drain_to_vec(&mut self) -> Vec<MacAction> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(action) = self.pop() {
            out.push(action);
        }
        out
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
