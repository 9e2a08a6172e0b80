//! The channel-facing pieces of the node stack: the `AirTable` holding each
//! transmission, with its reception plan, while it is on the air, and the
//! mobility step the loop applies to its [`Medium`].
//!
//! Mobility draws **no** randomness at run time: trajectories are pure
//! functions of time ([`wmn_topology::motion`]), sampled on a fixed tick
//! (`last_tick`) and pushed into the medium's batched link-state refresh.

use std::sync::Arc;

use wmn_mac::frame::Frame;
use wmn_phy::{Medium, Position, RxPlan};
use wmn_sim::{NodeId, SimDuration, SimTime};
use wmn_topology::MotionPlan;

/// One planned reception: plan `index` of the transmission in air-table
/// `slot`. Valid from its transmission's park until its own RxEnd
/// [releases](AirTable::release) it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reception {
    pub(crate) slot: u32,
    pub(crate) index: u32,
}

impl Reception {
    /// The id a [`Receiver`](wmn_phy::Receiver) tracks this arrival by.
    /// Unique among receptions on the air: a slot is not reused while any
    /// of its RxEnds is pending, and a plan names each receiver once.
    pub(crate) fn id(self) -> u64 {
        (u64::from(self.slot) << 32) | u64::from(self.index)
    }
}

/// One transmission on the air.
struct AirSlot {
    /// The transmitted frame; `None` while the slot is free.
    frame: Option<Arc<Frame>>,
    /// The planner's receptions, in planner order; kept as a recycled
    /// buffer while the slot is free.
    plans: Vec<RxPlan>,
    /// Planned receptions that have not reached their RxEnd yet.
    pending: u32,
    /// The transmitter and its frame counter: what the transmission's
    /// bit-error draws are keyed by.
    sent: (NodeId, u64),
}

/// Every transmission currently on the air, held **once**: a broadcast
/// parks its frame handle here with the receptions planned for it, each
/// RxStart/RxEnd carries a [`Reception`] into this table instead of a state
/// or handle of its own, and the frame is dropped at its last RxEnd.
/// Fanning a frame out to F receivers is therefore one move and F plain
/// decrements, where F clones of the handle were 2·F bus-locked updates of
/// one cache line; the only clones left are the ones a successful decode
/// hands its MAC.
///
/// Freed slots recycle LIFO, so the table stays as small as the peak number
/// of overlapping transmissions, and their plan buffers rotate through
/// [`AirTable::lend`], so planning allocates nothing at steady state. Slot
/// indices are pure lookup handles — they never participate in event
/// ordering.
#[derive(Default)]
pub(crate) struct AirTable {
    slots: Vec<AirSlot>,
    free: Vec<u32>,
    /// The plan buffer the next [`AirTable::lend`] hands out.
    spare: Vec<RxPlan>,
}

impl AirTable {
    /// An empty table that holds `transmissions` overlapping transmissions
    /// without growing.
    pub(crate) fn with_capacity(transmissions: usize) -> AirTable {
        AirTable {
            slots: Vec::with_capacity(transmissions),
            free: Vec::with_capacity(transmissions),
            spare: Vec::new(),
        }
    }

    /// A recycled buffer for the planner to fill and [`park`](Self::park).
    pub(crate) fn lend(&mut self) -> Vec<RxPlan> {
        std::mem::take(&mut self.spare)
    }

    /// Parks `frame`, `sent` by (transmitter, frame counter), with its
    /// reception plans until every one of them has been
    /// [released](Self::release), and returns its slot. A transmission
    /// nobody perceives has nothing to wait for: it is not parked (its
    /// slot would never free), the frame drops here and the result is
    /// `None`.
    pub(crate) fn park(
        &mut self,
        frame: Arc<Frame>,
        plans: Vec<RxPlan>,
        sent: (NodeId, u64),
    ) -> Option<u32> {
        if plans.is_empty() {
            self.spare = plans;
            return None;
        }
        let pending = plans.len() as u32;
        let occupant = AirSlot { frame: Some(frame), plans, pending, sent };
        Some(match self.free.pop() {
            Some(slot) => {
                let vacated = std::mem::replace(&mut self.slots[slot as usize], occupant);
                self.spare = vacated.plans;
                slot
            }
            None => {
                self.slots.push(occupant);
                (self.slots.len() - 1) as u32
            }
        })
    }

    /// The receptions planned for the transmission parked in `slot`.
    pub(crate) fn plans(&self, slot: u32) -> &[RxPlan] {
        &self.slots[slot as usize].plans
    }

    /// What the planner decided for `reception`.
    pub(crate) fn plan(&self, reception: Reception) -> &RxPlan {
        &self.plans(reception.slot)[reception.index as usize]
    }

    /// Who sent `reception`'s transmission, and as which of its frames.
    pub(crate) fn sent(&self, reception: Reception) -> (NodeId, u64) {
        self.slots[reception.slot as usize].sent
    }

    /// The frame `reception` carries, lent to the decode seam.
    pub(crate) fn frame(&self, reception: Reception) -> &Arc<Frame> {
        let slot = &self.slots[reception.slot as usize];
        slot.frame.as_ref().expect("a pending reception's slot is live")
    }

    /// `reception` reached its RxEnd; the last of its transmission's drops
    /// the frame and frees the slot. Releasing a free slot would underflow
    /// into the slot's next occupant, so it panics, in release builds too.
    pub(crate) fn release(&mut self, reception: Reception) {
        let slot = reception.slot;
        let entry = &mut self.slots[slot as usize];
        assert!(entry.pending > 0, "air slot {slot} released with no reception pending");
        entry.pending -= 1;
        if entry.pending == 0 {
            entry.frame = None;
            self.free.push(slot);
        }
    }

    /// Receptions still pending, over every live slot.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> u64 {
        self.slots.iter().map(|slot| u64::from(slot.pending)).sum()
    }
}

/// The tick of `motion`'s trajectory samples, `None` for a plan that never
/// moves (which is sampled never, whatever its tick).
pub(crate) fn tick_of(motion: &MotionPlan) -> Option<SimDuration> {
    (!motion.is_static()).then_some(motion.tick)
}

/// The last mobility tick at or before `t` of a plan sampled every `tick`
/// ([`tick_of`]): `tick × ⌊t / tick⌋`, and [`SimTime::ZERO`] — the
/// placement itself — before the first tick or for a static plan. The one
/// rule for where the stations stand at `t`, for the loop and for a route
/// schedule alike.
pub(crate) fn last_tick(tick: Option<SimDuration>, t: SimTime) -> SimTime {
    tick.map_or(SimTime::ZERO, |tick| SimTime::ZERO + tick * (t - SimTime::ZERO).div_duration(tick))
}

/// One mobility step: re-sample every moving node's trajectory at `now` and
/// hand the changed positions to the medium as one batch, so a tick that
/// moves every node evaluates each station pair at most once (see
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
    let moves: Vec<(NodeId, Position)> = sample_moving(motion, origin, now)
        .filter(|&(node, pos)| pos != medium.position(node))
        .collect();
    medium.update_node_positions(&moves);
}

/// Every moving node's position at `now`, from its `t = 0` placement in
/// `origin`: what a mobility tick at `now` samples.
pub(crate) fn sample_moving<'a>(
    motion: &'a MotionPlan,
    origin: &'a [Position],
    now: SimTime,
) -> impl Iterator<Item = (NodeId, Position)> + 'a {
    motion
        .paths
        .iter()
        .enumerate()
        .filter(|(_, path)| !path.is_static())
        .map(move |(i, path)| (NodeId::new(i as u32), path.position_at(origin[i], now)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_sim::SimDuration;

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

    /// Parks `frame` with `receptions` plans to stations 10, 11, … in a
    /// lent buffer, as a broadcast does.
    fn park(air: &mut AirTable, frame: Arc<Frame>, receptions: u32) -> Option<u32> {
        let mut plans = air.lend();
        plans.clear();
        plans.extend((0..receptions).map(|i| RxPlan {
            to: NodeId::new(10 + i),
            delay: SimDuration::from_nanos(u64::from(i)),
            power: wmn_phy::RxPower::known(-50.0),
            decodable: true,
        }));
        air.park(frame, plans, (NodeId::new(0), 0))
    }

    fn reception(slot: u32) -> Reception {
        Reception { slot, index: 0 }
    }

    #[test]
    fn air_slot_holds_one_handle_and_frees_at_the_last_release() {
        const F: u32 = 5;
        let mut air = AirTable::with_capacity(2);
        let frame = ack(7);
        let watch = Arc::downgrade(&frame);
        let slot = park(&mut air, frame, F).expect("perceived");
        for index in 0..F {
            // One handle however many receptions are pending, lent (not
            // cloned) to whoever decodes.
            let reception = Reception { slot, index };
            assert_eq!(watch.strong_count(), 1, "after {index} releases");
            assert_eq!(air.pending(), u64::from(F - index));
            assert!(matches!(&**air.frame(reception), Frame::Ack(a) if a.frame_seq == 7));
            assert_eq!(air.plan(reception).to, NodeId::new(10 + index), "planner order");
            air.release(reception);
        }
        assert_eq!(watch.strong_count(), 0, "the F-th release drops the frame");
        assert_eq!(air.pending(), 0);
        assert_eq!(air.free, [slot]);
    }

    #[test]
    fn air_slots_recycle_lifo() {
        let mut air = AirTable::default();
        let slots = [1, 2, 1].map(|f| park(&mut air, ack(u64::from(f)), f).expect("perceived"));
        assert_eq!(slots, [0, 1, 2]);
        air.release(reception(0));
        air.release(reception(2));
        air.release(reception(1));
        assert_eq!(park(&mut air, ack(3), 1), Some(2), "last freed, first reused");
        assert!(matches!(&**air.frame(reception(2)), Frame::Ack(a) if a.frame_seq == 3));
        assert_eq!(air.pending(), 2, "slot 1 still waits for its second RxEnd");
        air.release(reception(1));
        assert_eq!(park(&mut air, ack(4), 1), Some(1));
        assert_eq!(park(&mut air, ack(5), 1), Some(0));
        assert_eq!(air.slots.len(), 3, "three overlapping transmissions, three slots");
    }

    #[test]
    #[should_panic(expected = "released with no reception pending")]
    fn stale_air_release_panics_instead_of_underflowing() {
        let mut air = AirTable::default();
        let slot = park(&mut air, ack(0), 1).expect("perceived");
        air.release(reception(slot));
        air.release(reception(slot));
    }

    #[test]
    fn a_transmission_without_receptions_is_not_parked() {
        let mut air = AirTable::default();
        let frame = ack(0);
        let watch = Arc::downgrade(&frame);
        assert_eq!(park(&mut air, frame, 0), None);
        assert_eq!(watch.strong_count(), 0, "the frame dropped at once");
        assert!(air.slots.is_empty() && air.free.is_empty(), "nothing parked");
        assert_eq!(park(&mut air, ack(1), 1), Some(0));
    }
}
