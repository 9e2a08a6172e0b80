//! The future-event list.
//!
//! Two queues over [`BinaryHeap`]. [`EventQueue`] pops events in time order
//! and — crucially for reproducibility — breaks ties among simultaneous
//! events in insertion (FIFO) order, so a run is a pure function of the
//! scenario seed. [`KeyedEventQueue`], the one the simulator runs on, breaks
//! them by a content-derived [`EventKey`] instead.
//!
//! # Runs
//!
//! The simulator's unit of work is a broadcast: one transmission becomes a
//! reception start and a reception end at every station in carrier-sense
//! range, hundreds of events whose relative order is known the moment they
//! are scheduled. [`KeyedEventQueue::schedule_run_in`] takes such a batch —
//! a *run*, already in `(time, key)` order — keeps it in a recycled buffer
//! beside the heap, and represents it in the heap by **one** entry carrying
//! the `(time, key)` of the run's head. Popping that entry hands out the
//! head, rewrites the entry to the next item's `(time, key)` and lets the
//! heap re-sift it from the root — usually zero levels, because the next
//! reception of the same frame is still the global minimum — and the entry
//! leaves the heap when the run is spent. The pop sequence is therefore, by
//! construction, the one scheduling every item on its own gives, for any
//! interleaving with single events, other runs, or events scheduled at
//! `now` in the middle of a run; what changes is that the heap holds the
//! live timers and one entry per transmission in flight, not every pending
//! reception.
//!
//! # Slots
//!
//! A timer cancelled far more often than it fires — a back-off frozen at
//! every busy edge, an ACK timeout every ACK ends, a TCP RTO every advancing
//! ACK re-arms — holds at most one pending event, so it gets a numbered
//! *slot*: [`KeyedEventQueue::arm`] places the slot's event in the usual
//! `(time, key)` order, dropping what the slot held, and
//! [`KeyedEventQueue::disarm`] takes it back instead of leaving it to be
//! popped and ignored. Armed slots live in a small indexed heap beside the
//! main one and `pop` takes whichever top sorts first, so the pop sequence
//! is the one scheduling every arming and skipping the dead ones gives.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event queue.
///
/// Events of type `E` are scheduled at absolute [`SimTime`] instants and
/// popped in non-decreasing time order. Events scheduled for the same instant
/// come out in the order they were scheduled.
///
/// # Example
///
/// ```
/// use wmn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_micros(1);
/// q.schedule(t, "first");
/// q.schedule(t, "second");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // tick, the first-scheduled) entry is popped first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events before
    /// the backing heap reallocates. Simulation runners that know their
    /// initial schedule size (pre-computed departure times, per-flow start
    /// events) use this to avoid growth reallocations in the hot loop.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(capacity), next_seq: 0, now: SimTime::ZERO }
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after [`EventQueue::now`] — the
    /// instant of the most recently popped event. This is the natural form
    /// for discrete-event handlers ("this timer expires 34 µs from now")
    /// and saves every caller from adding `SimTime`s by hand.
    ///
    /// Debug builds assert that `now + delay` does not overflow the
    /// [`SimTime`] range: a wrapped instant would silently schedule the
    /// event in the *past* and corrupt the pop order.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        debug_assert!(
            self.now.as_nanos().checked_add(delay.as_nanos()).is_some(),
            "schedule_in overflows SimTime: now + {delay:?} wraps past SimTime::MAX",
        );
        self.schedule(self.now + delay, event);
    }

    /// Reserves room for at least `additional` more pending events.
    ///
    /// Runners call this once after seeding to pre-size the per-station
    /// schedule burst (each station keeps a backoff timer, a `TxEnd` and a
    /// handful of deliveries in flight at once), so heap growth happens
    /// before the hot loop instead of inside it. After the warm-up the
    /// backing storage is recycled across pops and pushes — the steady
    /// state never returns event nodes to the allocator.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Current capacity of the backing heap, in events.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The queue's clock: the instant of the most recently popped event
    /// ([`SimTime::ZERO`] before the first pop). Offsets passed to
    /// [`EventQueue::schedule_in`] are measured from here.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Advances [`EventQueue::now`] to the popped event's instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.now = e.at;
            (e.at, e.event)
        })
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total events ever scheduled on this queue (the next tie-break
    /// sequence number). Monotone over the queue's lifetime — it never
    /// resets on pops — which is what keeps FIFO order stable when
    /// schedules and pops interleave at one instant.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Canonical, content-derived identity of a scheduled event.
///
/// The plain [`EventQueue`] breaks simultaneous-event ties by insertion
/// order, which makes the order of a tie depend on when each event happened
/// to be scheduled. A key is instead derived from the event's *origin* —
/// the kind and index of the entity that caused it, plus that origin's own
/// event counter — so a tie resolves the same way however the schedules
/// interleaved. Keys order lexicographically as `(kind, entity, seq)`.
///
/// Contract: an origin must mint strictly increasing `seq` values, so every
/// key in flight is unique and `(time, key)` is a total order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Origin lane: `kind << 32 | entity index`.
    lane: u64,
    /// The origin's own event counter at scheduling time.
    seq: u64,
}

impl EventKey {
    /// Builds a key from an origin kind, the origin's dense index, and the
    /// origin's event counter.
    pub fn new(kind: u32, entity: u32, seq: u64) -> EventKey {
        EventKey { lane: (u64::from(kind) << 32) | u64::from(entity), seq }
    }
}

/// A deterministic event queue ordered by `(time, EventKey)` instead of
/// `(time, insertion order)`.
///
/// Two queues holding the same set of `(time, key, event)` entries pop them
/// in the same order no matter how the entries were interleaved at
/// insertion. Keyed on one lane with `seq` = the insertion count it pops
/// exactly what an [`EventQueue`] pops.
///
/// Events enter one at a time ([`KeyedEventQueue::schedule_keyed`]) or as a
/// *run* ([`KeyedEventQueue::schedule_run_in`]): a batch whose `(time, key)`
/// order the caller already knows, held outside the heap and represented in
/// it by a single entry (see the [module docs](self)). The two are
/// indistinguishable from the popping side — same sequence, same clock,
/// same [`len`](KeyedEventQueue::len) — so a run is purely a cheaper way to
/// schedule events that are born sorted. A re-armable timer holds its one
/// pending event in a slot (see "Slots" in the module docs).
///
/// # Example
///
/// ```
/// use wmn_sim::{EventKey, KeyedEventQueue, SimDuration, SimTime};
///
/// let ns = SimDuration::from_nanos;
/// let mut q = KeyedEventQueue::with_capacity(4);
/// q.schedule_run_in(
///     [(ns(10), EventKey::new(0, 0, 0), "a"), (ns(30), EventKey::new(0, 0, 1), "c")],
/// );
/// q.schedule_keyed(SimTime::from_nanos(20), EventKey::new(0, 0, 2), "b");
/// assert_eq!(q.len(), 3);
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct KeyedEventQueue<E> {
    heap: BinaryHeap<KeyedEntry<E>>,
    /// Run storage, indexed by [`Payload::Run`]: the items of a run not yet
    /// popped, head at the front. The heap entry of a run mirrors its
    /// head's `(at, key)`.
    runs: Vec<VecDeque<(SimTime, EventKey, E)>>,
    /// Indices of spent runs: their (empty, warm) buffers back the next
    /// runs, so steady-state scheduling never meets the allocator.
    free_runs: Vec<u32>,
    /// The armed slots' events.
    slots: Slots<E>,
    /// Pending events: single entries, every unpopped run item and the
    /// armed slots.
    len: usize,
    now: SimTime,
}

/// Marks an unarmed slot in [`Slots::by_slot`].
const UNARMED: u32 = u32::MAX;
/// [`Slots::first`] with no slot armed: after every `(time, key)`.
const NEVER: (SimTime, EventKey) = (SimTime::MAX, EventKey { lane: u64::MAX, seq: u64::MAX });

/// The armed slots: an indexed binary min-heap of `(time, key, slot)`, each
/// slot's event held beside it so a sift moves 32 bytes, not an event.
#[derive(Debug)]
struct Slots<E> {
    heap: Vec<(SimTime, EventKey, u32)>,
    /// Per slot: where it sits in `heap` ([`UNARMED`] if nowhere), its event.
    by_slot: Vec<(u32, Option<E>)>,
    /// `heap[0]`'s `(time, key)`, or [`NEVER`]: what every `pop` compares,
    /// kept out of the heap's allocation.
    first: (SimTime, EventKey),
}

impl<E> Slots<E> {
    fn set(&mut self, i: usize, entry: (SimTime, EventKey, u32)) {
        self.heap[i] = entry;
        self.by_slot[entry.2 as usize].0 = i as u32;
        if i == 0 {
            self.first = (entry.0, entry.1);
        }
    }

    /// Fills the hole at `i` with `entry`, moving it up or down to its place.
    fn place(&mut self, mut i: usize, entry: (SimTime, EventKey, u32)) {
        while i > 0 && entry < self.heap[(i - 1) / 2] {
            self.set(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        loop {
            let c = 2 * i + 1;
            let c = c + usize::from(c + 1 < self.heap.len() && self.heap[c + 1] < self.heap[c]);
            if c >= self.heap.len() || entry <= self.heap[c] {
                return self.set(i, entry);
            }
            self.set(i, self.heap[c]);
            i = c;
        }
    }

    /// Arms `slot`, which must be empty.
    fn push(&mut self, at: SimTime, key: EventKey, slot: u32, event: E) {
        self.by_slot[slot as usize].1 = Some(event);
        self.heap.push((at, key, slot));
        self.place(self.heap.len() - 1, (at, key, slot));
    }

    /// Empties `slot`, handing back when it was due and its event.
    fn take(&mut self, slot: u32) -> Option<(SimTime, E)> {
        let (pos, event) = &mut self.by_slot[slot as usize];
        let i = match std::mem::replace(pos, UNARMED) {
            UNARMED => return None,
            i => i as usize,
        };
        let (at, event) = (self.heap[i].0, event.take().expect("an armed slot holds its event"));
        let last = self.heap.pop().expect("an armed slot is in the heap");
        if i < self.heap.len() {
            self.place(i, last);
        } else if i == 0 {
            self.first = NEVER;
        }
        Some((at, event))
    }
}

/// What a heap entry stands for.
#[derive(Debug)]
enum Payload<E> {
    /// One event, carried in the heap.
    Single(E),
    /// The head of the run stored at this index of `runs`.
    Run(u32),
}

#[derive(Debug)]
struct KeyedEntry<E> {
    at: SimTime,
    key: EventKey,
    payload: Payload<E>,
}

impl<E> PartialEq for KeyedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}

impl<E> Eq for KeyedEntry<E> {}

impl<E> PartialOrd for KeyedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for KeyedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap, inverted: earliest (time, key) pops first.
        other.at.cmp(&self.at).then_with(|| other.key.cmp(&self.key))
    }
}

impl<E> KeyedEventQueue<E> {
    /// Bytes one heap entry occupies for this event type: what every sift
    /// moves, so users with a hot event type pin it with a compile-time
    /// assertion (netsim holds its `Event` to 48).
    pub const ENTRY_BYTES: usize = std::mem::size_of::<KeyedEntry<E>>();

    /// Creates an empty queue with room for `capacity` heap entries,
    /// clamped to at least one, and no slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_slots(capacity, 0)
    }

    /// Creates an empty queue like [`KeyedEventQueue::with_capacity`], with
    /// `slots` re-armable timer slots numbered `0..slots`, all unarmed.
    pub fn with_slots(capacity: usize, slots: u32) -> Self {
        let slots = slots as usize;
        KeyedEventQueue {
            heap: BinaryHeap::with_capacity(capacity.max(1)),
            runs: Vec::new(),
            free_runs: Vec::new(),
            slots: Slots {
                heap: Vec::new(),
                by_slot: std::iter::repeat_with(|| (UNARMED, None)).take(slots).collect(),
                first: NEVER,
            },
            len: 0,
            now: SimTime::ZERO,
        }
    }

    /// Arms `slot`: `event` fires at `at` under `key`, ordered like a
    /// scheduled event, and whatever the slot held is dropped unpopped.
    ///
    /// # Panics
    ///
    /// If `slot` is not below [`KeyedEventQueue::with_slots`]'s count.
    pub fn arm(&mut self, slot: u32, at: SimTime, key: EventKey, event: E) {
        self.disarm(slot);
        self.slots.push(at, key, slot, event);
        self.len += 1;
    }

    /// Empties `slot`, returning the event it held (`None` when unarmed).
    pub fn disarm(&mut self, slot: u32) -> Option<E> {
        let (_, event) = self.slots.take(slot)?;
        self.len -= 1;
        Some(event)
    }

    /// Schedules `event` at the absolute instant `at` under `key`.
    pub fn schedule_keyed(&mut self, at: SimTime, key: EventKey, event: E) {
        self.len += 1;
        self.heap.push(KeyedEntry { at, key, payload: Payload::Single(event) });
    }

    /// Schedules `event` under `key`, `delay` after [`KeyedEventQueue::now`].
    ///
    /// Debug builds assert that `now + delay` does not overflow the
    /// [`SimTime`] range (see [`EventQueue::schedule_in`]).
    pub fn schedule_keyed_in(&mut self, delay: SimDuration, key: EventKey, event: E) {
        debug_assert!(
            self.now.as_nanos().checked_add(delay.as_nanos()).is_some(),
            "schedule_keyed_in overflows SimTime: now + {delay:?} wraps past SimTime::MAX",
        );
        self.schedule_keyed(self.now + delay, key, event);
    }

    /// Schedules a *run*: every `(delay, key, event)` of `items` fires
    /// `delay` after [`KeyedEventQueue::now`] under `key`, exactly as if
    /// each had been passed to [`KeyedEventQueue::schedule_keyed_in`] — but
    /// the whole batch costs one heap entry (see the [module docs](self)).
    /// An empty `items` schedules nothing.
    ///
    /// For any caller whose batch is born sorted; the simulator's is a
    /// broadcast's reception starts (and, separately, its reception ends).
    ///
    /// # Panics
    ///
    /// `items` must already be in non-decreasing `(delay, key)` order. The
    /// queue does not sort it: an out-of-order run is a caller bug that
    /// would corrupt the pop order without failing any type check, so it is
    /// rejected by a real `assert!` — in release builds too; the O(len)
    /// scan is noise beside the heap work the run saves. (Equal `(delay,
    /// key)` neighbours pass the scan; they break [`EventKey`]'s uniqueness
    /// contract and pop in an unspecified order, as two single events would.)
    ///
    /// Debug builds also assert that no `now + delay` overflows the
    /// [`SimTime`] range, like [`KeyedEventQueue::schedule_keyed_in`].
    pub fn schedule_run_in(&mut self, items: impl IntoIterator<Item = (SimDuration, EventKey, E)>) {
        let id = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(VecDeque::new());
            (self.runs.len() - 1) as u32
        });
        let run = &mut self.runs[id as usize];
        debug_assert!(run.is_empty(), "a free run buffer holds no items");
        for (delay, key, event) in items {
            debug_assert!(
                self.now.as_nanos().checked_add(delay.as_nanos()).is_some(),
                "schedule_run_in overflows SimTime: now + {delay:?} wraps past SimTime::MAX",
            );
            let at = self.now + delay;
            if let Some(&(prev_at, prev_key, _)) = run.back() {
                assert!(
                    (prev_at, prev_key) <= (at, key),
                    "schedule_run_in: run out of (time, key) order: \
                     ({at:?}, {key:?}) follows ({prev_at:?}, {prev_key:?})",
                );
            }
            run.push_back((at, key, event));
        }
        match run.front() {
            Some(&(at, key, _)) => {
                self.len += run.len();
                self.heap.push(KeyedEntry { at, key, payload: Payload::Run(id) });
            }
            None => self.free_runs.push(id),
        }
    }

    /// Reserves room for at least `additional` more heap entries — the
    /// pre-sizing twin of [`EventQueue::reserve`]. A run of any length
    /// takes one.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Current capacity of the backing heap, in entries.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The queue's clock: the instant of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Removes and returns the earliest `(time, key)` event, advancing the
    /// clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let armed_first = match self.heap.peek() {
            Some(top) => self.slots.first < (top.at, top.key),
            None => !self.slots.heap.is_empty(),
        };
        let (at, event) = if armed_first {
            let slot = self.slots.heap[0].2;
            self.slots.take(slot).expect("the top slot is armed")
        } else {
            self.pop_heap()?
        };
        self.len -= 1;
        self.now = at;
        Some((at, event))
    }

    /// Pops the main heap's earliest event: a single event or a run's head.
    fn pop_heap(&mut self) -> Option<(SimTime, E)> {
        let mut top = self.heap.peek_mut()?;
        let at = top.at;
        let event = match top.payload {
            Payload::Run(id) => {
                let run = &mut self.runs[id as usize];
                let (_, _, event) = run.pop_front().expect("a run in the heap has a head");
                match run.front() {
                    // Dropping the mutated `top` re-sifts it from the root.
                    Some(&(next_at, next_key, _)) => {
                        top.at = next_at;
                        top.key = next_key;
                    }
                    None => {
                        PeekMut::pop(top);
                        self.free_runs.push(id);
                    }
                }
                event
            }
            Payload::Single(_) => match PeekMut::pop(top).payload {
                Payload::Single(event) => event,
                Payload::Run(_) => unreachable!("the entry just matched as a single event"),
            },
        };
        Some((at, event))
    }

    /// Number of pending events: a run counts every item it still holds,
    /// an armed slot one.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn schedule_in_measures_from_last_pop() {
        let mut q = EventQueue::with_capacity(8);
        assert_eq!(q.now(), SimTime::ZERO);
        // Before any pop, delays are measured from time zero.
        q.schedule_in(crate::SimDuration::from_micros(10), "a");
        let (t, e) = q.pop().expect("scheduled");
        assert_eq!((t, e), (SimTime::from_micros(10), "a"));
        assert_eq!(q.now(), SimTime::from_micros(10));
        // After a pop, from the popped instant.
        q.schedule_in(crate::SimDuration::from_micros(5), "b");
        assert_eq!(q.pop().expect("scheduled").0, SimTime::from_micros(15));
    }

    #[test]
    fn schedule_in_zero_delay_is_fifo_with_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(3), "popped");
        q.pop();
        q.schedule(SimTime::from_micros(3), "abs");
        q.schedule_in(crate::SimDuration::ZERO, "rel");
        assert_eq!(q.pop().unwrap().1, "abs");
        assert_eq!(q.pop().unwrap().1, "rel");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
    }

    /// The adversarial case for the tie-break: schedules and pops
    /// interleaved *at the same instant*. Events scheduled after a pop must
    /// still come out after the earlier survivors, not jump the queue.
    #[test]
    fn interleaved_schedule_pop_at_equal_timestamps_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // Scheduled mid-drain, same instant: must follow "b".
        q.schedule(t, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        q.schedule(t, "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert!(q.is_empty());
    }

    /// Draining the queue completely must not reset the tie-break: a second
    /// wave at the same instant still pops in schedule order, and the
    /// sequence counter only ever grows.
    #[test]
    fn seq_survives_full_drain() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(9);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.scheduled_total(), 2);
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 2, "pops must not rewind the counter");
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.scheduled_total(), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3]);
    }

    /// The simulator's actual access pattern under MAC timer storms: a
    /// rolling window where each popped event schedules successors at the
    /// same or a later instant. Global order must stay (time, insertion).
    #[test]
    fn rolling_interleave_preserves_time_then_insertion_order() {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        for wave in 0..50u64 {
            let t = SimTime::from_micros(wave / 4); // several waves share a tick
            q.schedule(t, (t, wave)); // wave doubles as the insertion id
            if wave % 3 == 2 {
                popped.push(q.pop().expect("queue non-empty"));
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), 50);
        for pair in popped.windows(2) {
            let ((ta, (_, ia)), (tb, (_, ib))) = (pair[0], pair[1]);
            assert!(ta <= tb, "pop times must be non-decreasing");
            if ta == tb {
                assert!(ia < ib, "equal instants must preserve insertion order");
            }
        }
    }

    /// Simultaneous events must pop in key order, no matter how their
    /// insertion interleaved — including an entry scheduled after others
    /// with the same timestamp that sorts before them.
    #[test]
    fn window_boundary_simultaneous_pops_are_key_ordered() {
        let t = SimTime::from_micros(50);
        // One queue schedules the late-sorting entries first, the other last.
        let mut local_first = KeyedEventQueue::with_capacity(4);
        local_first.schedule_keyed(t, EventKey::new(0, 7, 3), "node7#3");
        local_first.schedule_keyed(t, EventKey::new(1, 0, 0), "flow0#0");
        local_first.schedule_keyed(t, EventKey::new(0, 2, 9), "node2#9");
        let mut inject_first = KeyedEventQueue::with_capacity(4);
        inject_first.schedule_keyed(t, EventKey::new(0, 2, 9), "node2#9");
        inject_first.schedule_keyed(t, EventKey::new(0, 7, 3), "node7#3");
        inject_first.schedule_keyed(t, EventKey::new(1, 0, 0), "flow0#0");
        for q in [&mut local_first, &mut inject_first] {
            assert_eq!(q.pop().unwrap().1, "node2#9");
            assert_eq!(q.pop().unwrap().1, "node7#3");
            assert_eq!(q.pop().unwrap().1, "flow0#0");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn keyed_queue_orders_by_time_then_kind_then_entity_then_seq() {
        let mut q = KeyedEventQueue::with_capacity(8);
        q.schedule_keyed(SimTime::from_nanos(2), EventKey::new(0, 0, 1), 4);
        q.schedule_keyed(SimTime::from_nanos(1), EventKey::new(1, 0, 0), 3);
        q.schedule_keyed(SimTime::from_nanos(1), EventKey::new(0, 5, 0), 2);
        q.schedule_keyed(SimTime::from_nanos(1), EventKey::new(0, 3, 8), 1);
        q.schedule_keyed(SimTime::from_nanos(1), EventKey::new(0, 3, 2), 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    /// Equal-time *same-key* entries violate the key-uniqueness contract,
    /// so no FIFO promise holds — but the order must still be a pure
    /// function of the insertion sequence (heap mechanics, no address or
    /// hash dependence), or a contract slip would silently break run
    /// reproducibility instead of showing up as a diff. This pins the
    /// current order; if it ever changes, the heap implementation changed
    /// underneath us and the keyed schedule needs re-auditing.
    #[test]
    fn equal_time_same_key_pop_order_is_deterministic() {
        let t = SimTime::from_micros(1);
        let k = EventKey::new(0, 0, 0);
        let build = || {
            let mut q = KeyedEventQueue::with_capacity(4);
            for name in ["a", "b", "c", "d"] {
                q.schedule_keyed(t, k, name);
            }
            q
        };
        fn drain(mut q: KeyedEventQueue<&str>) -> Vec<&str> {
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        }
        let order = drain(build());
        assert_eq!(order, vec!["a", "c", "b", "d"], "insertion-determined, not FIFO");
        assert_eq!(order, drain(build()), "same insertions, same pops");
        // With the contract honoured — unique seqs — the same instant is
        // strictly seq-ordered regardless of insertion interleaving.
        let mut q = KeyedEventQueue::with_capacity(4);
        for (seq, name) in [(2, "third"), (0, "first"), (1, "second")] {
            q.schedule_keyed(t, EventKey::new(0, 0, seq), name);
        }
        assert_eq!(drain(q), vec!["first", "second", "third"]);
    }

    #[test]
    fn reserve_pre_sizes_the_burst() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(2);
        q.reserve(100);
        let warm = q.capacity();
        assert!(warm >= 100);
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(u64::from(i)), i);
        }
        assert_eq!(q.capacity(), warm, "no growth inside the reserved burst");
        let mut kq: KeyedEventQueue<u32> = KeyedEventQueue::with_capacity(1);
        kq.reserve(64);
        assert!(kq.capacity() >= 64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows SimTime")]
    fn schedule_in_overflow_is_caught_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX - SimDuration::from_nanos(1), ());
        q.pop();
        q.schedule_in(SimDuration::from_nanos(2), ());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows SimTime")]
    fn schedule_keyed_in_overflow_is_caught_in_debug() {
        let mut q = KeyedEventQueue::with_capacity(1);
        q.schedule_keyed(SimTime::MAX - SimDuration::from_nanos(1), EventKey::new(0, 0, 0), ());
        q.pop();
        q.schedule_keyed_in(SimDuration::from_nanos(2), EventKey::new(0, 0, 1), ());
    }

    #[test]
    fn keyed_queue_zero_capacity_is_clamped() {
        let mut q: KeyedEventQueue<()> = KeyedEventQueue::with_capacity(0);
        assert!(q.is_empty());
        q.schedule_keyed_in(SimDuration::from_nanos(3), EventKey::new(0, 0, 0), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(3));
        assert_eq!(q.now(), SimTime::from_nanos(3));
    }

    /// `len` counts events, not heap entries; the clock follows run items
    /// like single events; a spent run's buffer is the next run's.
    #[test]
    fn run_counts_every_item_and_recycles_its_buffer() {
        let ns = SimDuration::from_nanos;
        let key = |seq| EventKey::new(0, 0, seq);
        let mut q = KeyedEventQueue::with_capacity(1);
        q.schedule_run_in(std::iter::empty::<(SimDuration, EventKey, u64)>());
        assert!(q.is_empty(), "an empty run schedules nothing");
        q.schedule_run_in((0..5).map(|i| (ns(10 * i), key(i), i)));
        assert_eq!((q.len(), q.heap.len()), (5, 1));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(0), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!((q.len(), q.now()), (3, SimTime::from_nanos(10)));
        // Delays count from the clock, mid-run: 15 ns lands between items.
        q.schedule_run_in([(ns(5), key(5), 5)]);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [5, 2, 3, 4]);
        assert!(q.is_empty() && q.heap.is_empty());
        assert_eq!((q.runs.len(), q.free_runs.len()), (2, 2));
        let warm: Vec<usize> = q.runs.iter().map(VecDeque::capacity).collect();
        for round in 0..10 {
            q.schedule_run_in((0..5).map(|i| (ns(i), key(100 * round + i), i)));
            q.schedule_run_in([(ns(2), key(100 * round + 50), 9)]);
            while q.pop().is_some() {}
        }
        assert_eq!(q.runs.iter().map(VecDeque::capacity).collect::<Vec<_>>(), warm);
    }

    /// The run API's misuse case. A real `assert!`, so this test holds
    /// under `cargo test --release` as well.
    #[test]
    #[should_panic(expected = "out of (time, key) order")]
    fn unsorted_run_is_rejected_in_release_too() {
        let mut q = KeyedEventQueue::with_capacity(1);
        let ns = SimDuration::from_nanos;
        q.schedule_run_in([
            (ns(2), EventKey::new(0, 0, 0), ()),
            (ns(1), EventKey::new(0, 0, 1), ()),
        ]);
    }

    /// Equal instants are ordered by key: the later-minted key may not lead.
    #[test]
    #[should_panic(expected = "out of (time, key) order")]
    fn run_with_keys_out_of_order_at_one_instant_is_rejected() {
        let mut q = KeyedEventQueue::with_capacity(1);
        let ns = SimDuration::from_nanos;
        q.schedule_run_in([
            (ns(1), EventKey::new(0, 0, 1), ()),
            (ns(1), EventKey::new(0, 0, 0), ()),
        ]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows SimTime")]
    fn schedule_run_in_overflow_is_caught_in_debug() {
        let mut q = KeyedEventQueue::with_capacity(1);
        q.schedule_keyed(SimTime::MAX - SimDuration::from_nanos(1), EventKey::new(0, 0, 0), ());
        q.pop();
        q.schedule_run_in([(SimDuration::from_nanos(2), EventKey::new(0, 0, 1), ())]);
    }

    /// The slot oracle: every arming scheduled as an event of its own (the
    /// event is its key), skipped when it pops unless it is still its
    /// slot's latest arming.
    #[derive(Default)]
    struct SlotModel {
        /// Every event scheduled or armed, with the slot it was armed in.
        pending: std::collections::BTreeMap<(SimTime, EventKey), Option<u32>>,
        /// Each armed slot's latest arming.
        live: std::collections::BTreeMap<u32, EventKey>,
        now: SimTime,
    }

    impl SlotModel {
        fn is_live(&self, key: EventKey, slot: Option<u32>) -> bool {
            slot.map_or(true, |slot| self.live.get(&slot) == Some(&key))
        }

        fn pop(&mut self) -> Option<(SimTime, EventKey)> {
            while let Some(((at, key), slot)) = self.pending.pop_first() {
                if self.is_live(key, slot) {
                    slot.map(|slot| self.live.remove(&slot));
                    self.now = at;
                    return Some((at, key));
                }
            }
            None
        }

        fn len(&self) -> usize {
            self.pending.iter().filter(|&(&(_, key), &slot)| self.is_live(key, slot)).count()
        }
    }

    proptest! {
        /// Slots are nothing but a cheaper way to cancel: one random
        /// program of single events, runs, arms, disarms and pops over
        /// three slots — delays of 0–3 ns, so ties are common — pops the
        /// same `(time, key, event)` sequence, with the same clock and
        /// count, as the model that schedules every arming and skips the
        /// disarmed or replaced ones.
        #[test]
        fn prop_slots_pop_what_scheduling_every_arming_and_skipping_the_dead_pops(
            ops in proptest::collection::vec((0u8..6, 0u64..4, 0u32..3, 0u32..2), 1..150),
        ) {
            let mut q = KeyedEventQueue::with_slots(0, 3);
            let mut model = SlotModel::default();
            for (minted, (op, delay, slot, lane)) in (0u64..).zip(ops) {
                let key = |i| EventKey::new(lane, 0, 8 * minted + i);
                let at = q.now() + SimDuration::from_nanos(delay);
                match op {
                    0 | 1 => prop_assert_eq!(q.pop(), model.pop()),
                    2 => {
                        q.schedule_keyed(at, key(0), key(0));
                        model.pending.insert((at, key(0)), None);
                    }
                    3 => {
                        let run: Vec<_> =
                            (0..delay).map(|i| (SimDuration::from_nanos(i / 2), key(i), key(i))).collect();
                        model.pending.extend(run.iter().map(|&(d, k, _)| ((q.now() + d, k), None)));
                        q.schedule_run_in(run);
                    }
                    4 => {
                        q.arm(slot, at, key(0), key(0));
                        model.pending.insert((at, key(0)), Some(slot));
                        model.live.insert(slot, key(0));
                    }
                    _ => prop_assert_eq!(q.disarm(slot), model.live.remove(&slot)),
                }
                prop_assert_eq!(q.now(), model.now);
                prop_assert_eq!(q.len(), model.len());
            }
            while let Some(popped) = model.pop() {
                prop_assert_eq!(q.pop(), Some(popped));
            }
            prop_assert!(q.pop().is_none() && q.is_empty());
        }

        /// A run is nothing but a cheaper way in: one random program —
        /// single events, runs of length 0 / 1 / many, pops anywhere;
        /// delays of 0–3 ns, so equal instants, equal instants with
        /// adjacent keys and items at `now` are the common case — drives
        /// two queues, one scheduling every run item on its own in minting
        /// order, and the two agree on every pop, on the clock and on the
        /// count after every step.
        #[test]
        fn prop_runs_pop_as_their_items_scheduled_one_by_one(
            ops in proptest::collection::vec(
                (0u8..6, proptest::collection::vec((0u64..4, 0u32..3), 0..9)),
                1..60,
            ),
        ) {
            let mut batched = KeyedEventQueue::with_capacity(0);
            let mut itemwise = KeyedEventQueue::with_capacity(0);
            let mut minted = 0u64;
            for (op, mut items) in ops {
                match op {
                    0 | 1 => prop_assert_eq!(batched.pop(), itemwise.pop()),
                    2 => {
                        let (delay, lane) = items.first().copied().unwrap_or((0, 0));
                        let key = EventKey::new(lane, 0, minted);
                        batched.schedule_keyed_in(SimDuration::from_nanos(delay), key, minted);
                        itemwise.schedule_keyed_in(SimDuration::from_nanos(delay), key, minted);
                        minted += 1;
                    }
                    _ => {
                        if op == 5 {
                            items = items.repeat(5);
                        }
                        // Keys are minted in generation order (a broadcast's
                        // plan order); the run is that batch sorted.
                        let mut run = Vec::new();
                        for (delay, lane) in items {
                            let delay = SimDuration::from_nanos(delay);
                            let key = EventKey::new(lane, 0, minted);
                            itemwise.schedule_keyed_in(delay, key, minted);
                            run.push((delay, key, minted));
                            minted += 1;
                        }
                        run.sort_unstable();
                        batched.schedule_run_in(run);
                    }
                }
                prop_assert_eq!(batched.now(), itemwise.now());
                prop_assert_eq!(batched.len(), itemwise.len());
                prop_assert_eq!(batched.is_empty(), itemwise.is_empty());
            }
            while !itemwise.is_empty() {
                prop_assert_eq!(batched.pop(), itemwise.pop());
                prop_assert_eq!(batched.len(), itemwise.len());
            }
            prop_assert_eq!(batched.pop(), None);
            prop_assert!(batched.is_empty() && batched.heap.is_empty());
        }

        /// Keyed pop order is a pure function of the entry *set*: any
        /// permutation of the same `(time, key)` entries pops identically.
        #[test]
        fn prop_keyed_pop_order_is_insertion_invariant(
            entries in proptest::collection::vec((0u64..50, 0u32..3, 0u32..4, 0u64..5), 1..40),
            rot in 0usize..40,
        ) {
            let mut a = KeyedEventQueue::with_capacity(entries.len());
            for &(t, kind, ent, seq) in &entries {
                a.schedule_keyed(SimTime::from_nanos(t), EventKey::new(kind, ent, seq), (t, kind, ent, seq));
            }
            let mut rotated = entries.clone();
            rotated.rotate_left(rot % entries.len().max(1));
            let mut b = KeyedEventQueue::with_capacity(rotated.len());
            for &(t, kind, ent, seq) in &rotated {
                b.schedule_keyed(SimTime::from_nanos(t), EventKey::new(kind, ent, seq), (t, kind, ent, seq));
            }
            // Entries may collide on (time, key) under this generator; the
            // popped *multisets per (time, key)* still must match, and where
            // keys are unique the order is fully pinned. Compare the full
            // sorted-equivalence: pop sequences must agree on (time, key)
            // at every position.
            let pa: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
            let pb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
            prop_assert_eq!(pa.len(), pb.len());
            for ((ta, ea), (tb, eb)) in pa.iter().zip(&pb) {
                prop_assert_eq!(ta, tb);
                prop_assert_eq!((ea.0, ea.1, ea.2, ea.3), (eb.0, eb.1, eb.2, eb.3));
            }
        }

        /// The equivalence netsim's single loop stands on: keyed on one lane
        /// with `seq` = the insertion count, a `KeyedEventQueue` pops exactly
        /// what an `EventQueue` pops, under any interleaving of absolute and
        /// relative schedules and pops — equal-time bursts included (delays
        /// are drawn from 0..4 ns).
        #[test]
        fn prop_single_lane_keys_reproduce_insertion_order(
            ops in proptest::collection::vec((0u8..3, 0u64..4), 1..120),
        ) {
            let mut plain = EventQueue::new();
            let mut keyed = KeyedEventQueue::with_capacity(0);
            let mut n = 0u64;
            for (op, d) in ops {
                let delay = SimDuration::from_nanos(d);
                match op {
                    0 => {
                        plain.schedule(plain.now() + delay, n);
                        keyed.schedule_keyed(keyed.now() + delay, EventKey::new(0, 0, n), n);
                        n += 1;
                    }
                    1 => {
                        plain.schedule_in(delay, n);
                        keyed.schedule_keyed_in(delay, EventKey::new(0, 0, n), n);
                        n += 1;
                    }
                    _ => prop_assert_eq!(plain.pop(), keyed.pop()),
                }
                prop_assert_eq!(plain.now(), keyed.now());
                prop_assert_eq!(plain.len(), keyed.len());
            }
            while !plain.is_empty() {
                prop_assert_eq!(plain.pop(), keyed.pop());
            }
            prop_assert!(keyed.is_empty());
        }

        /// Popping always yields a non-decreasing time sequence, regardless of
        /// the insertion order.
        #[test]
        fn prop_pop_times_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every scheduled event is popped exactly once.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
