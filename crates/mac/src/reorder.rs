//! The receiving-side queue `Rq` (Section III-B remark 6).
//!
//! With packet aggregation, bit errors can corrupt a low-sequence subframe
//! while higher-sequence subframes in the same frame survive. The receiver
//! must hold the survivors and wait for the retransmission, otherwise the
//! aggregation itself would *introduce* re-ordering. `ReorderBuffer` does
//! exactly that: it deduplicates, buffers out-of-order arrivals, and
//! releases packets to the upper layer strictly in sequence.
//!
//! A sender that exhausts its retries leaves a hole that never fills. Two
//! rules give it up, advancing the window to the oldest buffered packet:
//! a capacity bound (the buffer is full), and the caller's age bound
//! ([`ReorderBuffer::skip_hole`], which the MAC calls once a hole has held
//! packets back too long — a window-limited sender such as TCP never
//! fills the buffer).

use std::collections::VecDeque;

use crate::frame::Packet;
use crate::pool::{Slot, SlotPool};

/// In-order delivery buffer for one (flow, direction).
///
/// # Example
///
/// ```
/// use wmn_mac::ReorderBuffer;
/// use wmn_mac::{NetHeader, Packet, Proto};
/// use wmn_sim::{FlowId, NodeId};
///
/// let h = NetHeader {
///     flow: FlowId::new(0), src: NodeId::new(0), dst: NodeId::new(1),
///     proto: Proto::Tcp, wire_bytes: 1000,
/// };
/// let mut rq = ReorderBuffer::new(64);
/// // Sequence 1 arrives before 0: held back…
/// assert!(rq.accept(1, Packet::new(h, vec![])).is_empty());
/// // …and released, in order, once 0 fills the gap.
/// let released = rq.accept(0, Packet::new(h, vec![]));
/// assert_eq!(released.len(), 2);
/// ```
/// Out-of-order arrivals live in a sequence-sorted `VecDeque` (a `BTreeMap`
/// would pay one node allocation per buffered packet — with aggregation,
/// one per *subframe*); insertion shifts at most `capacity` entries, and
/// the deque's capacity is retained across the whole flow. Released runs
/// come back in a recycled [`Slot`], so the in-order fast path — by far the
/// common case on a clean channel — never touches the allocator.
#[derive(Debug)]
pub struct ReorderBuffer {
    next_expected: u32,
    /// Held-back packets, sorted by sequence number (strictly increasing).
    pending: VecDeque<(u32, Packet)>,
    capacity: usize,
    /// Recycled buffers for the released runs [`accept`](ReorderBuffer::accept) returns.
    releases: SlotPool<Packet>,
    /// Packets released out of their original order because the window was
    /// force-advanced past a hole.
    holes_skipped: u64,
}

impl ReorderBuffer {
    /// Creates a buffer holding at most `capacity` out-of-order packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reorder buffer capacity must be positive");
        ReorderBuffer {
            next_expected: 0,
            pending: VecDeque::new(),
            capacity,
            releases: SlotPool::new(),
            holes_skipped: 0,
        }
    }

    /// Offers a received subframe. Returns the packets now releasable to the
    /// upper layer, in sequence order, in a recycled [`Slot`] (drain it and
    /// drop it; the buffer parks for the next run). A duplicate — already
    /// delivered or already buffered — releases nothing.
    pub fn accept(&mut self, seq: u32, packet: Packet) -> Slot<Packet> {
        let mut released = self.releases.mint();
        if seq < self.next_expected {
            return released;
        }
        if seq == self.next_expected {
            // In-order fast path: straight into the release run, no
            // pending-buffer traffic at all.
            released.push(packet);
            self.next_expected += 1;
        } else {
            let idx = self.pending.partition_point(|(s, _)| *s < seq);
            if self.pending.get(idx).is_some_and(|(s, _)| *s == seq) {
                return released;
            }
            self.pending.insert(idx, (seq, packet));
        }
        // Release the contiguous run starting at next_expected.
        self.release_run(&mut released);
        // Window-full recovery: the sender has given up on a hole; advance
        // to the oldest buffered packet so the flow is not stalled forever.
        while self.pending.len() > self.capacity {
            self.advance_to_oldest(&mut released);
        }
        released
    }

    /// Gives up the hole in front of the oldest buffered packet (its sender
    /// has given up on it) and returns the run that releases, as
    /// [`accept`](ReorderBuffer::accept) does. Releases nothing when no
    /// packet is held back.
    pub fn skip_hole(&mut self) -> Slot<Packet> {
        let mut released = self.releases.mint();
        if !self.pending.is_empty() {
            self.advance_to_oldest(&mut released);
        }
        released
    }

    /// Advances the window to the oldest buffered packet and releases the
    /// run from there.
    fn advance_to_oldest(&mut self, released: &mut Slot<Packet>) {
        let oldest = self.pending.front().expect("non-empty").0;
        self.holes_skipped += u64::from(oldest - self.next_expected);
        self.next_expected = oldest;
        self.release_run(released);
    }

    /// Moves the contiguous run starting at `next_expected` out of
    /// `pending` and into `released`.
    fn release_run(&mut self, released: &mut Slot<Packet>) {
        while self.pending.front().is_some_and(|(s, _)| *s == self.next_expected) {
            let (_, p) = self.pending.pop_front().expect("front just matched");
            released.push(p);
            self.next_expected += 1;
        }
    }

    /// The next sequence number the upper layer is waiting for.
    pub fn next_expected(&self) -> u32 {
        self.next_expected
    }

    /// Whether `seq` has already been received (delivered or buffered).
    /// RIPPLE destinations use this to acknowledge retransmitted subframes
    /// they already hold, so the source stops resending them.
    pub fn has(&self, seq: u32) -> bool {
        seq < self.next_expected || self.pending.binary_search_by_key(&seq, |(s, _)| *s).is_ok()
    }

    /// Number of packets currently held back.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// How many sequence numbers were abandoned by forced window advances.
    pub fn holes_skipped(&self) -> u64 {
        self.holes_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wmn_sim::{FlowId, NodeId};

    use crate::frame::{NetHeader, Proto};

    fn pkt(seq: u32) -> Packet {
        Packet::new(
            NetHeader {
                flow: FlowId::new(0),
                src: NodeId::new(0),
                dst: NodeId::new(1),
                proto: Proto::Tcp,
                wire_bytes: 1000,
            },
            seq.to_le_bytes().to_vec(),
        )
    }

    fn seq_of(p: &Packet) -> u32 {
        u32::from_le_bytes(p.body.as_slice().try_into().unwrap())
    }

    #[test]
    fn in_order_stream_flows_through() {
        let mut rq = ReorderBuffer::new(8);
        for s in 0..5 {
            let rel = rq.accept(s, pkt(s));
            assert_eq!(rel.len(), 1);
            assert_eq!(seq_of(&rel[0]), s);
        }
        assert_eq!(rq.next_expected(), 5);
        assert_eq!(rq.buffered(), 0);
    }

    #[test]
    fn gap_holds_then_releases_in_order() {
        let mut rq = ReorderBuffer::new(8);
        assert!(rq.accept(1, pkt(1)).is_empty());
        assert!(rq.accept(2, pkt(2)).is_empty());
        assert_eq!(rq.buffered(), 2);
        let rel = rq.accept(0, pkt(0));
        assert_eq!(rel.iter().map(seq_of).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_are_flagged_not_delivered() {
        let mut rq = ReorderBuffer::new(8);
        rq.accept(0, pkt(0));
        assert!(rq.has(0) && rq.accept(0, pkt(0)).is_empty());
        // Duplicate of a still-buffered packet.
        rq.accept(2, pkt(2));
        assert!(rq.has(2) && rq.accept(2, pkt(2)).is_empty());
        assert_eq!(rq.buffered(), 1, "held once");
    }

    #[test]
    fn forced_advance_skips_dead_hole() {
        let mut rq = ReorderBuffer::new(3);
        // Seq 0 never arrives; 1..=4 overflow the 3-slot buffer.
        for s in 1..=4 {
            rq.accept(s, pkt(s));
        }
        assert!(rq.holes_skipped() >= 1, "hole at 0 must be abandoned");
        assert_eq!(rq.next_expected(), 5);
        assert_eq!(rq.buffered(), 0);
    }

    #[test]
    fn release_buffers_recycle_across_accepts() {
        let mut rq = ReorderBuffer::new(8);
        let first = rq.accept(0, pkt(0));
        assert_eq!(first.len(), 1);
        let capacity = first.capacity();
        drop(first);
        assert_eq!(rq.releases.parked(), 1, "a drained run parks its buffer");
        let second = rq.accept(1, pkt(1));
        assert_eq!(rq.releases.parked(), 0, "the next run reuses it");
        assert_eq!(second.capacity(), capacity);
        assert_eq!(second.len(), 1);
    }

    proptest! {
        /// Whatever the arrival permutation, released packets come out in
        /// strictly increasing sequence order with no duplicates.
        #[test]
        fn prop_release_order_sorted(perm in proptest::sample::subsequence((0u32..40).collect::<Vec<_>>(), 1..40), extra_dups in 0usize..5) {
            let mut order = perm.clone();
            // Shuffle deterministically by reversing chunks.
            order.reverse();
            for _ in 0..extra_dups {
                if let Some(&first) = order.first() {
                    order.push(first);
                }
            }
            let mut rq = ReorderBuffer::new(64);
            let mut released = Vec::new();
            for s in order {
                let rel = rq.accept(s, pkt(s));
                released.extend(rel.iter().map(seq_of));
            }
            let mut sorted = released.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&released, &sorted, "released stream must be sorted and dup-free");
        }
    }
}
