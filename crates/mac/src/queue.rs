//! The bounded interface queue (the paper's `Sq` holding area and NS-2's
//! `ifq`). Drop-tail, capacity 50 packets per Table I.

use std::collections::VecDeque;

use crate::frame::{Packet, RouteInfo};
use crate::pool::{Slot, SlotPool};

/// A packet waiting in the interface queue with its routing decision.
#[derive(Clone, Debug)]
pub struct QueuedPacket {
    /// The waiting packet.
    pub packet: Packet,
    /// How it is to be forwarded.
    pub route: RouteInfo,
}

/// Bounded drop-tail FIFO of packets awaiting transmission.
///
/// # Example
///
/// ```
/// use wmn_mac::{IfQueue, NetHeader, Packet, Proto, RouteInfo};
/// use wmn_sim::{FlowId, NodeId};
///
/// let mut q = IfQueue::new(1);
/// let h = NetHeader {
///     flow: FlowId::new(0), src: NodeId::new(0), dst: NodeId::new(1),
///     proto: Proto::Udp, wire_bytes: 100,
/// };
/// assert!(q.push(Packet::new(h, vec![]), RouteInfo::NextHop(NodeId::new(1))).is_none());
/// // Second push overflows and hands the packet back.
/// assert!(q.push(Packet::new(h, vec![]), RouteInfo::NextHop(NodeId::new(1))).is_some());
/// ```
#[derive(Debug)]
pub struct IfQueue {
    items: VecDeque<QueuedPacket>,
    capacity: usize,
    /// Recycled batch buffers for [`pop_matching`](IfQueue::pop_matching):
    /// in saturated-queue regimes the aggregator pulls a batch per
    /// transmission, and the pool keeps that off the allocator.
    batches: SlotPool<QueuedPacket>,
}

impl IfQueue {
    /// Creates a queue with the given capacity in packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "interface queue capacity must be positive");
        IfQueue {
            items: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            batches: SlotPool::new(),
        }
    }

    /// Appends a packet; returns it back (drop-tail) if the queue is full.
    pub fn push(&mut self, packet: Packet, route: RouteInfo) -> Option<Packet> {
        if self.items.len() >= self.capacity {
            return Some(packet);
        }
        self.items.push_back(QueuedPacket { packet, route });
        None
    }

    /// Removes and returns the head-of-line packet.
    pub fn pop(&mut self) -> Option<QueuedPacket> {
        self.items.pop_front()
    }

    /// Peeks at the head-of-line packet.
    pub fn peek(&self) -> Option<&QueuedPacket> {
        self.items.front()
    }

    /// Removes and returns up to `max` packets totalling at most
    /// `max_bytes` of payload that share the head packet's route (the
    /// aggregation rule: one frame addresses one link destination).
    /// Non-matching packets keep their relative order. The first matching
    /// packet is always taken even if it alone exceeds the byte budget.
    ///
    /// The batch comes back in a recycled [`Slot`]; drain it and drop it,
    /// and the buffer parks for the next transmission.
    pub fn pop_batch_matching_head(&mut self, max: usize, max_bytes: u32) -> Slot<QueuedPacket> {
        let Some(head_route) = self.items.front().map(|q| q.route.clone()) else {
            return self.batches.mint();
        };
        self.pop_matching(&head_route, max, max_bytes)
    }

    /// Removes and returns up to `max` packets (totalling at most
    /// `max_bytes`) whose route equals `route`, preserving relative order of
    /// everything else. Used to top up partial retransmissions with fresh
    /// packets for the same link destination. The byte budget keeps frame
    /// airtimes bounded (real 802.11n caps A-MPDU duration); the first
    /// matching packet is exempt so oversized packets still move.
    ///
    /// Matching packets are extracted in place (`VecDeque::remove` shifts
    /// at most `capacity` entries — 50 per Table I) into a pooled batch
    /// [`Slot`], so a saturated enqueue/aggregate cycle never allocates.
    pub fn pop_matching(
        &mut self,
        route: &RouteInfo,
        max: usize,
        max_bytes: u32,
    ) -> Slot<QueuedPacket> {
        let mut batch = self.batches.mint();
        let mut bytes: u64 = 0;
        let mut i = 0;
        while i < self.items.len() {
            let item = &self.items[i];
            let cost = u64::from(item.packet.header.wire_bytes);
            let fits = batch.is_empty() || bytes + cost <= u64::from(max_bytes);
            if batch.len() < max && fits && item.route == *route {
                bytes += cost;
                batch.push(self.items.remove(i).expect("index is in range"));
            } else {
                i += 1;
            }
        }
        batch
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Remaining free slots.
    pub fn free_space(&self) -> usize {
        self.capacity - self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_sim::{FlowId, NodeId};

    use crate::frame::{NetHeader, Proto};

    fn pkt(flow: u32) -> Packet {
        Packet::new(
            NetHeader {
                flow: FlowId::new(flow),
                src: NodeId::new(0),
                dst: NodeId::new(9),
                proto: Proto::Tcp,
                wire_bytes: 1000,
            },
            vec![],
        )
    }

    fn hop(n: u32) -> RouteInfo {
        RouteInfo::NextHop(NodeId::new(n))
    }

    #[test]
    fn fifo_order() {
        let mut q = IfQueue::new(10);
        for i in 0..3 {
            assert!(q.push(pkt(i), hop(1)).is_none());
        }
        assert_eq!(q.pop().unwrap().packet.header.flow, FlowId::new(0));
        assert_eq!(q.pop().unwrap().packet.header.flow, FlowId::new(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drop_tail_on_overflow() {
        let mut q = IfQueue::new(2);
        assert!(q.push(pkt(0), hop(1)).is_none());
        assert!(q.push(pkt(1), hop(1)).is_none());
        let rejected = q.push(pkt(2), hop(1)).expect("queue full");
        assert_eq!(rejected.header.flow, FlowId::new(2));
        assert_eq!(q.free_space(), 0);
    }

    #[test]
    fn batch_takes_only_matching_route() {
        let mut q = IfQueue::new(10);
        q.push(pkt(0), hop(1));
        q.push(pkt(1), hop(2)); // different next hop, must stay
        q.push(pkt(2), hop(1));
        let batch = q.pop_batch_matching_head(16, u32::MAX);
        assert_eq!(batch.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek().unwrap().route, hop(2));
    }

    #[test]
    fn batch_respects_max() {
        let mut q = IfQueue::new(50);
        for i in 0..20 {
            q.push(pkt(i), hop(1));
        }
        let batch = q.pop_batch_matching_head(16, u32::MAX);
        assert_eq!(batch.len(), 16);
        assert_eq!(q.len(), 4);
        // Remaining packets keep FIFO order.
        assert_eq!(q.pop().unwrap().packet.header.flow, FlowId::new(16));
    }

    #[test]
    fn batch_on_empty_queue() {
        let mut q = IfQueue::new(5);
        assert!(q.pop_batch_matching_head(16, u32::MAX).is_empty());
    }

    #[test]
    fn batch_buffers_recycle_across_calls() {
        let mut q = IfQueue::new(10);
        for i in 0..4 {
            q.push(pkt(i), hop(1));
        }
        let first = q.pop_batch_matching_head(2, u32::MAX);
        assert_eq!(first.len(), 2);
        let capacity = first.capacity();
        drop(first);
        assert_eq!(q.batches.parked(), 1, "a drained batch parks its buffer");
        let second = q.pop_batch_matching_head(2, u32::MAX);
        assert_eq!(q.batches.parked(), 0, "the next batch reuses it");
        assert_eq!(second.capacity(), capacity);
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].packet.header.flow, FlowId::new(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = IfQueue::new(0);
    }
}
