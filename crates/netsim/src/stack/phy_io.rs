//! The channel-facing pieces of the node stack: the `AirTable` holding each
//! transmission's frame while it is on the air, the in-flight `ArrivalSlab`
//! the station stack parks planned receptions in, and the mobility step the
//! loop applies to its [`Medium`].
//!
//! Mobility draws **no** randomness at run time: trajectories are pure
//! functions of time ([`wmn_topology::motion`]), sampled on a fixed tick
//! and pushed into the medium's batched link-state refresh.

use std::sync::Arc;

use wmn_mac::frame::Frame;
use wmn_phy::{Medium, Position};
use wmn_sim::{NodeId, SimTime};
use wmn_topology::MotionPlan;

/// One transmission on the air.
struct AirSlot {
    /// The transmitted frame; `None` while the slot is free.
    frame: Option<Arc<Frame>>,
    /// Planned receptions that have not reached their RxEnd yet.
    pending: u32,
}

/// Every transmission currently on the air, held **once**: a broadcast
/// parks its frame handle here with the number of receptions planned for
/// it, each [`ArrivalState`] carries the slot index instead of a handle of
/// its own, and the frame is dropped at its last RxEnd. Fanning a frame out
/// to F receivers is therefore one move and F plain decrements, where F
/// clones of the handle were 2·F bus-locked updates of one cache line; the
/// only clones left are the ones a successful decode hands its MAC.
///
/// Freed slots recycle LIFO, so the table stays as small as the peak number
/// of overlapping transmissions. Slot indices are pure lookup handles —
/// they never participate in event ordering.
#[derive(Default)]
pub(crate) struct AirTable {
    slots: Vec<AirSlot>,
    free: Vec<u32>,
}

impl AirTable {
    /// An empty table that holds `transmissions` overlapping transmissions
    /// without growing.
    pub(crate) fn with_capacity(transmissions: usize) -> AirTable {
        AirTable {
            slots: Vec::with_capacity(transmissions),
            free: Vec::with_capacity(transmissions),
        }
    }

    /// Parks `frame` until `receptions` RxEnds have [released](Self::release)
    /// it, and returns its slot. A transmission nobody will perceive has
    /// nothing to wait for and must not be parked: its slot would never
    /// free.
    pub(crate) fn park(&mut self, frame: Arc<Frame>, receptions: u32) -> u32 {
        assert!(receptions > 0, "a transmission without receptions is dropped, not parked");
        let occupant = AirSlot { frame: Some(frame), pending: receptions };
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupant;
                slot
            }
            None => {
                self.slots.push(occupant);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The frame parked in `slot`, lent to the decode seam.
    pub(crate) fn frame(&self, slot: u32) -> &Arc<Frame> {
        self.slots[slot as usize].frame.as_ref().expect("a pending reception's slot is live")
    }

    /// One reception of `slot`'s transmission reached its RxEnd; the last
    /// one drops the frame and frees the slot. Releasing a free slot is a
    /// broken slab invariant and panics rather than underflow into the
    /// slot's next occupant.
    pub(crate) fn release(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        assert!(entry.pending > 0, "air slot {slot} released with no reception pending");
        entry.pending -= 1;
        if entry.pending == 0 {
            entry.frame = None;
            self.free.push(slot);
        }
    }

    /// Receptions still pending, over every live slot.
    pub(crate) fn pending(&self) -> u64 {
        self.slots.iter().map(|slot| u64::from(slot.pending)).sum()
    }
}

/// One in-flight arrival: a transmission en route to one receiver.
pub(crate) struct ArrivalState {
    /// The receiving station.
    pub(crate) node: NodeId,
    /// Where the [`AirTable`] holds the transmitted frame: a broadcast to k
    /// receivers costs one allocation and one handle, not k of either.
    /// Clean decodes clone the table's handle into the MAC; a private copy
    /// is made only when bit errors corrupt a subframe (see
    /// [`decode_frame`](super::decode::decode_frame)).
    pub(crate) air: u32,
    /// Whether the arrival is strong enough to decode.
    pub(crate) decodable: bool,
    /// Received power in dBm.
    pub(crate) power_dbm: f64,
}

/// One slab slot: its current occupant (if any) plus a generation counter
/// bumped every time the slot is freed, so recycled slots mint fresh ids.
#[derive(Default)]
struct Slot {
    generation: u32,
    state: Option<ArrivalState>,
}

/// Packs a slot index and its generation into one arrival event id.
fn arrival_id(slot: u32, generation: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(slot)
}

/// Splits an arrival event id back into `(slot, generation)`.
fn split_arrival_id(id: u64) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// The in-flight arrival slab: freed slots are
/// recycled LIFO, so memory stays bounded by the peak number of concurrent
/// arrivals instead of growing with the run length.
///
/// Event ids pack the slot index with the slot's generation tag (see
/// [`arrival_id`]): a stale id whose slot was recycled for a *different*
/// arrival then fails the generation check instead of silently aliasing the
/// new occupant. Slab ids are pure lookup handles — they never participate
/// in event ordering.
#[derive(Default)]
pub(crate) struct ArrivalSlab {
    arrivals: Vec<Slot>,
    free: Vec<u32>,
}

impl ArrivalSlab {
    /// Places an in-flight arrival into the slab, recycling a freed slot if
    /// one is available, and returns its generation-tagged event id.
    pub(crate) fn alloc(&mut self, state: ArrivalState) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.arrivals[slot as usize];
                entry.state = Some(state);
                arrival_id(slot, entry.generation)
            }
            None => {
                self.arrivals.push(Slot { generation: 0, state: Some(state) });
                arrival_id((self.arrivals.len() - 1) as u32, 0)
            }
        }
    }

    /// Arrivals currently parked.
    pub(crate) fn parked(&self) -> usize {
        self.arrivals.len() - self.free.len()
    }

    /// Peeks at a parked arrival (for RxStart), if it is still in flight.
    /// An id whose slot has since been freed — even if recycled for another
    /// arrival — fails the generation check and returns `None`.
    pub(crate) fn peek(&self, id: u64) -> Option<&ArrivalState> {
        let (slot, generation) = split_arrival_id(id);
        let entry = self.arrivals.get(slot as usize)?;
        if entry.generation != generation {
            return None;
        }
        entry.state.as_ref()
    }

    /// Removes a parked arrival (at RxEnd), freeing its slot. Stale ids are
    /// rejected by the generation check like in [`ArrivalSlab::peek`].
    pub(crate) fn take(&mut self, id: u64) -> Option<ArrivalState> {
        let (slot, generation) = split_arrival_id(id);
        let entry = self.arrivals.get_mut(slot as usize)?;
        if entry.generation != generation {
            return None;
        }
        let state = entry.state.take()?;
        // Freeing bumps the generation, invalidating every id minted for
        // the old occupant the moment the slot is recyclable. Wrapping is
        // fine: an id only collides after exactly 2^32 reuses of one slot
        // while it is somehow still in flight.
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot);
        Some(state)
    }
}

/// One mobility step: re-sample every moving node's trajectory at `now` and
/// hand the changed positions to the medium as one batch, so a tick that
/// moves every node evaluates each station pair once (see
/// [`Medium::update_node_positions`]).
///
/// A node whose sampled position equals its current one — typically a
/// waypoint walker parked at its final target — is left out of the batch:
/// recomputing link state from an identical position yields identical values
/// (the computation is deterministic and draws no RNG), so the short-circuit
/// cannot change results, only save the node's pair evaluations.
pub(crate) fn advance_medium_positions(
    medium: &mut Medium,
    motion: &MotionPlan,
    origin: &[Position],
    now: SimTime,
) {
    let moves: Vec<(NodeId, Position)> = motion
        .paths
        .iter()
        .enumerate()
        .filter(|(_, path)| !path.is_static())
        .map(|(i, path)| (NodeId::new(i as u32), path.position_at(origin[i], now)))
        .filter(|&(node, pos)| pos != medium.position(node))
        .collect();
    medium.update_node_positions(&moves);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(node: u32) -> ArrivalState {
        ArrivalState { node: NodeId::new(node), air: 0, decodable: true, power_dbm: -50.0 }
    }

    fn ack(seq: u64) -> Arc<Frame> {
        Frame::Ack(wmn_mac::frame::AckFrame {
            transmitter: NodeId::new(0),
            to: NodeId::new(1),
            flow: wmn_sim::FlowId::new(0),
            frame_seq: seq,
            acked_seqs: Default::default(),
            relay_list: Default::default(),
        })
        .into_shared()
    }

    #[test]
    fn air_slot_holds_one_handle_and_frees_at_the_last_release() {
        const F: u32 = 5;
        let mut air = AirTable::with_capacity(2);
        let frame = ack(7);
        let watch = Arc::downgrade(&frame);
        let slot = air.park(frame, F);
        for released in 0..F {
            // One handle however many receptions are pending, lent (not
            // cloned) to whoever decodes.
            assert_eq!(watch.strong_count(), 1, "after {released} releases");
            assert_eq!(air.pending(), u64::from(F - released));
            assert!(matches!(&**air.frame(slot), Frame::Ack(a) if a.frame_seq == 7));
            air.release(slot);
        }
        assert_eq!(watch.strong_count(), 0, "the F-th release drops the frame");
        assert_eq!(air.pending(), 0);
        assert_eq!(air.free, [slot]);
    }

    #[test]
    fn air_slots_recycle_lifo() {
        let mut air = AirTable::default();
        let slots = [air.park(ack(0), 1), air.park(ack(1), 2), air.park(ack(2), 1)];
        assert_eq!(slots, [0, 1, 2]);
        air.release(0);
        air.release(2);
        air.release(1);
        assert_eq!(air.park(ack(3), 1), 2, "last freed, first reused");
        assert!(matches!(&**air.frame(2), Frame::Ack(a) if a.frame_seq == 3));
        assert_eq!(air.pending(), 2, "slot 1 still waits for its second RxEnd");
        air.release(1);
        assert_eq!(air.park(ack(4), 1), 1);
        assert_eq!(air.park(ack(5), 1), 0);
        assert_eq!(air.slots.len(), 3, "three overlapping transmissions, three slots");
    }

    #[test]
    #[should_panic(expected = "released with no reception pending")]
    fn stale_air_release_panics_instead_of_underflowing() {
        let mut air = AirTable::default();
        let slot = air.park(ack(0), 1);
        air.release(slot);
        air.release(slot);
    }

    #[test]
    #[should_panic(expected = "dropped, not parked")]
    fn a_transmission_without_receptions_is_not_parked() {
        AirTable::default().park(ack(0), 0);
    }

    #[test]
    fn recycled_slot_rejects_stale_ids() {
        let mut slab = ArrivalSlab::default();
        // First occupant of slot 0.
        let first = slab.alloc(arrival(1));
        assert!(slab.peek(first).is_some());
        assert!(slab.take(first).is_some());
        // The slot is recycled LIFO for a different arrival…
        let second = slab.alloc(arrival(0));
        assert_ne!(first, second, "recycling must mint a fresh id");
        assert_eq!(split_arrival_id(first).0, split_arrival_id(second).0, "same slot reused");
        // …and the stale id must not alias the new occupant.
        assert!(slab.peek(first).is_none(), "stale peek rejected");
        assert!(slab.take(first).is_none(), "stale take rejected");
        let current = slab.peek(second).expect("live id still resolves");
        assert_eq!(current.node, NodeId::new(0));
        assert!(slab.take(second).is_some());
        // Double-take of a live id is also rejected.
        assert!(slab.take(second).is_none());
    }

    #[test]
    fn generation_wraps_without_panicking() {
        let mut slab = ArrivalSlab::default();
        let id = slab.alloc(arrival(1));
        let (slot, _) = split_arrival_id(id);
        slab.arrivals[slot as usize].generation = u32::MAX;
        let id = arrival_id(slot, u32::MAX);
        assert!(slab.take(id).is_some());
        assert_eq!(slab.arrivals[slot as usize].generation, 0, "wrapping add");
    }
}
