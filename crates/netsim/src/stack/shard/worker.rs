//! One shard's driver: a [`StationStack`] under the per-entity discipline,
//! run inside the coordinator's conservative windows.
//!
//! # Replicate everything, own a subset
//!
//! The worker's stack holds the full per-entity state vectors and only ever
//! touches the stations its shard was assigned and the flows whose source
//! station it owns (sender-side halves) or whose destination it owns
//! (receiver-side halves) — see [`StationStack`]. No per-entity state is
//! ever shared: the only cross-shard channels are the read-locked
//! [`Medium`]/[`NetLayer`] snapshots (written exclusively by the
//! coordinator, between windows; a worker takes both read guards once per
//! round and lends them to every dispatch in it) and the
//! [`CrossShardArrival`] frames exchanged at window boundaries.
//!
//! # Determinism
//!
//! Every event the stack schedules carries a content-derived [`EventKey`]
//! minted from the origin entity's own counter, so the per-shard queues pop
//! in the `(time, key)` order a single global keyed loop would use — the
//! bit-identity contract between shard counts. Randomness is consumed from
//! per-entity streams only: `shard/medium/<tx>` for a transmitter's
//! shadowing draws, `shard/ber/<rx>` for a receiver's bit errors (both
//! derived here, in [`ShardWorker::build`]), and the per-entity `mac/<i>`,
//! `web/<i>`, `voip/<i>` streams the layers already own. A stream's
//! consumption order then depends only on its entity's own event order,
//! which the keyed schedule fixes independently of the shard count.

use std::sync::{Arc, RwLock};

use wmn_mac::frame::Frame;
use wmn_mac::MacStats;
use wmn_phy::Medium;
use wmn_sim::{EventKey, FlowId, NodeId, RngDirectory, SimTime};

use crate::scenario::Scenario;
use crate::stack::flow_layer::FlowRt;
use crate::stack::net_layer::NetLayer;
use crate::stack::station::{Discipline, StationStack, World};

/// One planned reception, complete enough to cross the shard boundary: the
/// transmitting stack computes the full plan (times, power, decodability)
/// and mints both event keys from the transmitter's lane, so whichever
/// stack owns the receiver schedules the exact `(time, key)` pair a
/// single-shard run would have used; only the slab id is local.
pub(crate) struct CrossShardArrival {
    /// The receiving station (owned by the target shard).
    pub(crate) node: NodeId,
    /// Shared handle to the transmitted frame.
    pub(crate) frame: Arc<Frame>,
    /// Whether the arrival is strong enough to decode.
    pub(crate) decodable: bool,
    /// Received power in dBm.
    pub(crate) power_dbm: f64,
    /// Absolute instant the reception starts.
    pub(crate) rx_start: SimTime,
    /// Absolute instant the reception ends.
    pub(crate) rx_end: SimTime,
    /// Key of the RxStart event (transmitter's lane).
    pub(crate) start_key: EventKey,
    /// Key of the RxEnd event (transmitter's lane).
    pub(crate) end_key: EventKey,
    /// The emitting shard, for the boundary merge's audit order.
    pub(crate) src_shard: u32,
    /// The emitting worker's running emission counter, ditto.
    pub(crate) emit_seq: u64,
}

/// What a worker hands back after each round: the frames it emitted across
/// the boundary and its next pending `(time, key)`.
#[derive(Default)]
pub(crate) struct WindowReport {
    /// Cross-shard receptions emitted this round.
    pub(crate) outbox: Vec<CrossShardArrival>,
    /// Earliest pending event after the round, `None` when drained.
    pub(crate) next: Option<(SimTime, EventKey)>,
}

/// A coordinator instruction for one round.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Command {
    /// Process every owned event strictly before `horizon`.
    Window {
        /// The conservative horizon of this window.
        horizon: SimTime,
    },
    /// Zero-lookahead serial round: the named shard processes exactly one
    /// event (the global `(time, key)` minimum); everyone else only drains
    /// their mailbox.
    Step {
        /// The shard holding the globally minimal event.
        shard: u32,
    },
    /// Shut down and return the worker state for the results merge.
    Stop,
}

/// One shard's driver (see the module docs for the ownership model).
pub(crate) struct ShardWorker {
    pub(super) shard: u32,
    medium: Arc<RwLock<Medium>>,
    net: Arc<RwLock<NetLayer>>,
    core: StationStack,
}

impl ShardWorker {
    /// Builds one shard's worker from a validated scenario: the per-entity
    /// discipline for `shard`, and a stack seeded with the arrival
    /// processes of the flows this shard owns.
    pub(crate) fn build(
        scenario: &Scenario,
        shard: u32,
        owner: Arc<Vec<u32>>,
        flow_owner: Arc<Vec<u32>>,
        medium: Arc<RwLock<Medium>>,
        net: Arc<RwLock<NetLayer>>,
    ) -> ShardWorker {
        let dir = RngDirectory::new(scenario.seed);
        let n = scenario.positions.len() as u32;
        let discipline = Discipline::PerEntity {
            shard,
            owner,
            flow_owner,
            medium: (0..n).map(|i| dir.indexed_stream("shard/medium", i)).collect(),
            ber: (0..n).map(|i| dir.indexed_stream("shard/ber", i)).collect(),
            node_seq: vec![0; n as usize],
            flow_seq: vec![0; scenario.flows.len()],
            pass_seq: [0; 2],
        };
        ShardWorker { shard, medium, net, core: StationStack::build(scenario, &dir, discipline) }
    }

    /// Earliest pending `(time, key)`, for the coordinator's first horizon.
    pub(crate) fn next_pending(&self) -> Option<(SimTime, EventKey)> {
        self.core.queue.peek()
    }

    /// Accepts a reception another shard planned for a station owned here.
    pub(crate) fn inject(&mut self, entry: CrossShardArrival) {
        self.core.inject(entry);
    }

    /// Processes every owned event strictly before `horizon`.
    pub(crate) fn run_window(&mut self, horizon: SimTime) {
        self.with_world(|core, world| {
            while let Some((_, event)) = core.queue.pop_before(horizon) {
                core.dispatch(event, world);
            }
        });
    }

    /// Zero-lookahead serial step: processes exactly one event (the
    /// coordinator guarantees it is the global `(time, key)` minimum).
    pub(crate) fn step(&mut self) {
        self.with_world(|core, world| {
            if let Some((_, event)) = core.queue.pop() {
                core.dispatch(event, world);
            }
        });
    }

    /// Runs one round of dispatching under one pair of read guards. The
    /// coordinator only writes between rounds, with every worker parked.
    fn with_world(&mut self, round: impl FnOnce(&mut StationStack, World<'_>)) {
        let medium = self.medium.read().expect("medium lock poisoned");
        let net = self.net.read().expect("net lock poisoned");
        round(&mut self.core, World { medium: &medium, net: &net });
    }

    /// Drains the outbox and reports the next pending event.
    pub(crate) fn take_report(&mut self) -> WindowReport {
        WindowReport { outbox: std::mem::take(&mut self.core.outbox), next: self.core.queue.peek() }
    }

    /// Per-station MAC statistics of this worker's full engine (only the
    /// owned stations' entries ever advanced past their initial state).
    pub(crate) fn mac_stats(&self) -> Vec<MacStats> {
        self.core.macs.stats()
    }

    /// One flow's runtime state, for the results merge.
    pub(crate) fn flow_rt(&self, id: FlowId) -> &FlowRt {
        self.core.flows.flow(id)
    }
}
