//! The channel-facing pieces of the node stack: the in-flight `ArrivalSlab`
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

/// One in-flight arrival: a transmission en route to one receiver.
pub(crate) struct ArrivalState {
    /// The receiving station.
    pub(crate) node: NodeId,
    /// Shared handle to the transmitted frame: a broadcast to k receivers
    /// costs one allocation, not k deep clones. Clean decodes ride the same
    /// shared handle all the way into the MAC; a private copy is made only
    /// when bit errors corrupt a subframe (see
    /// [`decode_frame`](super::decode::decode_frame)).
    pub(crate) frame: Arc<Frame>,
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
        ArrivalState {
            node: NodeId::new(node),
            frame: Arc::new(Frame::Ack(wmn_mac::frame::AckFrame {
                transmitter: NodeId::new(0),
                to: NodeId::new(node),
                flow: wmn_sim::FlowId::new(0),
                frame_seq: 0,
                acked_seqs: Default::default(),
                relay_list: Default::default(),
            })),
            decodable: true,
            power_dbm: -50.0,
        }
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
