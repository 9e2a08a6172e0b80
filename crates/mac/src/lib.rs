//! 802.11 MAC substrate: frame formats, the shared CSMA sender, the DCF/AFR
//! state machines, queues, and the analytic signaling-overhead model from
//! Section II of the paper.
//!
//! Every MAC in this workspace (plain DCF, AFR, preExOR, MCExOR and RIPPLE
//! itself) is written as a *passive state machine*: the simulation runner
//! calls `on_*` input methods, each of which writes its [`MacAction`]s
//! (start a transmission, set a timer, deliver a packet upwards, …) into a
//! reusable engine-owned [`ActionSink`]; the runner drains the sink and
//! interprets the actions against the event queue and the shared medium.
//! Nothing in this crate touches the clock directly, which is what makes
//! the protocol logic unit-testable at microsecond precision.
//!
//! Contents:
//!
//! * [`frame`] — network packets, aggregated data frames with per-subframe
//!   CRC status, bitmap MAC ACKs, and wire-size arithmetic;
//! * [`queue`] — the bounded interface queue (Table I: 50 packets);
//! * [`reorder`] — the receiving-side in-order delivery buffer (the paper's
//!   `Rq`), shared by AFR receivers and RIPPLE destinations;
//! * [`backoff`] — the 802.11 contention-window engine;
//! * [`csma`] — the sender every MAC is built on, held once: [`Csma`]
//!   (contention, timers, retry budget — used by DCF/AFR, RIPPLE and
//!   preExOR/MCExOR alike) and [`AggSender`] (aggregation with partial
//!   retransmission and the ACK responder — used by DCF/AFR and RIPPLE);
//! * [`dcf`] — the DCF MAC: per-hop unicast on top of [`AggSender`]; with
//!   `max_aggregation > 1` it becomes AFR (802.11n-like aggregation), the
//!   paper's strongest conventional baseline;
//! * [`overhead`] — Section II's closed-form per-packet delivery-time model
//!   (the Fig. 2 timeline), with the paper's worked 3-hop example as tests;
//! * [`scheme`] — the [`MacScheme`] factory trait the simulation runner
//!   builds node stacks through (implemented here for DCF/AFR, in
//!   `wmn_routing` for the ExOR variants, and in `ripple` for RIPPLE).

pub mod backoff;
pub mod csma;
pub mod dcf;
pub mod frame;
pub mod overhead;
pub mod pool;
pub mod queue;
pub mod reorder;
pub mod scheme;
pub mod sink;
pub mod smalllist;

pub use backoff::Backoff;
pub use csma::{AggSender, Csma, DataState, Fired, Inflight, OwnTx};
pub use dcf::{DcfConfig, DcfMac, DcfScheme};
pub use frame::{
    AckFrame, AckList, DataFrame, Frame, LinkDst, NetHeader, NodeList, Packet, Proto, RouteInfo,
    RxFrame, Subframe,
};
pub use overhead::OverheadModel;
pub use pool::{Body, FramePool, Slot, SlotPool, SubframeVec};
pub use queue::IfQueue;
pub use reorder::ReorderBuffer;
pub use scheme::MacScheme;
pub use sink::ActionSink;
pub use smalllist::SmallList;

use std::sync::Arc;

use wmn_sim::{SimDuration, SimTime};

/// Rate class for a transmission; the runner maps it to the scenario's
/// concrete [`wmn_phy::Rate`] (data vs basic rate from Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RateClass {
    /// The PHY data rate (216 or 6 Mbps in the paper).
    Data,
    /// The PHY basic rate used for MAC ACKs (54 or 6 Mbps in the paper).
    Basic,
}

/// Opaque timer handle, minted by [`Csma::mint`] from a per-station counter.
/// A timer is live exactly while the state that armed it holds its token;
/// a fire whose token no state holds does nothing. Cancelling is dropping
/// the token: a contention timer ([`TimerSlot`]) also leaves the event queue,
/// a scheme's own timers (relay waits, ACK responses) fire dead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(pub u64);

/// A station's two contention timers: each has at most one fire pending,
/// so the engine keeps it in one re-armable queue slot per station.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerSlot {
    /// The back-off countdown, frozen at every busy edge.
    Backoff = 0,
    /// The acknowledgement window of the attempt in flight.
    AckTimeout = 1,
}

/// Why a packet was dropped by the MAC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The interface queue was full on enqueue (Table I capacity: 50).
    QueueFull,
    /// The per-hop (or, for RIPPLE, end-to-end) retry limit was exceeded.
    RetryLimit,
}

/// An output of a MAC state machine, interpreted by the simulation runner.
#[derive(Clone, Debug)]
pub enum MacAction {
    /// Begin transmitting `frame` at the given rate class. The runner
    /// computes the airtime, informs the medium, and calls `on_tx_end` when
    /// the transmission completes.
    ///
    /// The frame travels as the shared handle the broadcast will fan out to
    /// every receiver — minted once, where every scheme's transmission
    /// funnels through ([`Csma`]'s `start_tx`) — so between the MAC and the
    /// air a frame is never copied by value and this enum stays a few words
    /// wide (see the size guard below).
    StartTx {
        /// Frame to put on the air.
        frame: Arc<Frame>,
        /// Rate class it is modulated at.
        rate: RateClass,
    },
    /// Request a timer callback `delay` from now, identified by `token`.
    SetTimer {
        /// Delay from the current instant.
        delay: SimDuration,
        /// Token handed back on fire.
        token: TimerToken,
        /// The contention timer this arms, replacing its pending fire;
        /// `None` for a scheme's own timers.
        slot: Option<TimerSlot>,
    },
    /// Take back the pending fire of a contention timer the MAC cancelled.
    /// [`Csma`] emits it before any action that could re-enter the MAC, so
    /// it never takes back an arming made after the cancel.
    CancelTimer {
        /// The timer cancelled.
        slot: TimerSlot,
    },
    /// Hand a packet to the upper layer at this node (the runner routes it
    /// to the transport if this node is the packet's destination, or back
    /// into the forwarding path otherwise).
    Deliver {
        /// The packet, CRC-clean and deduplicated.
        packet: Packet,
    },
    /// The MAC gave up on a packet.
    Drop {
        /// The abandoned packet.
        packet: Packet,
        /// Why it was abandoned.
        reason: DropReason,
    },
}

// Every action crosses the MAC↔engine seam by value and sits in a sink's
// ring buffer: a variant that carries a fat payload inline (a whole `Frame`
// is 248 bytes) taxes every handler call of every scheme, and no functional
// test or allocation count notices. Fail the build instead.
const _: () = assert!(std::mem::size_of::<MacAction>() <= 64);

/// Statistics every MAC keeps; used by experiments and by test assertions.
/// `PartialEq`/`Eq` support the executor's bit-identity determinism checks.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MacStats {
    /// The station's own data frames put on the air (including
    /// retransmissions); relayed copies count in `relay_frames_sent`.
    pub data_frames_sent: u64,
    /// MAC ACK frames put on the air.
    pub ack_frames_sent: u64,
    /// Frames a forwarder relayed on another station's behalf (RIPPLE's
    /// data and ACK relays). Data, relay and ACK frames together count
    /// every transmission the station started.
    pub relay_frames_sent: u64,
    /// Data frames received cleanly.
    pub data_frames_received: u64,
    /// MAC ACKs received for our outstanding transmissions.
    pub acks_received: u64,
    /// Frame transmissions that ended in an ACK timeout.
    pub timeouts: u64,
    /// Packets dropped because the interface queue overflowed.
    pub drops_queue_full: u64,
    /// Packets dropped after exhausting retries.
    pub drops_retry_limit: u64,
    /// Packets delivered to the upper layer.
    pub delivered_up: u64,
}

/// The input interface shared by every MAC state machine in the workspace.
///
/// The simulation runner (`wmn-netsim`) drives implementations through this
/// trait; it is object-safe on purpose so the runner can store heterogeneous
/// MACs behind one interface.
///
/// There is no `Send` bound, and a boxed MAC is not `Send`: it owns pool
/// handles and queued frames whose counts are not atomic (see
/// [`pool`](crate::pool#one-thread)). That is safe because a MAC is built
/// by its run — on the executor worker that called `run`, from the
/// scenario's [`MacScheme`], which is plain data and does travel — driven
/// there and dropped there; nothing of it is in the `RunResult` that
/// comes back.
///
/// ```
/// fn needs_send<T: Send>() {}
/// needs_send::<wmn_mac::DcfScheme>();
/// ```
///
/// ```compile_fail
/// fn needs_send<T: Send>() {}
/// needs_send::<Box<dyn wmn_mac::MacEntity>>();
/// ```
///
/// Every handler writes its actions into the engine-owned [`ActionSink`]
/// passed as `out` instead of returning a fresh `Vec` — the engine drains
/// the sink after the call and reuses it for the next event, so the
/// steady-state action path never allocates. Handlers append in the order
/// the actions must be applied; they never read the sink back.
///
/// # Inert bystanders
///
/// A frame that does not name the station — not addressed to it, and not
/// listing it as a forwarder — must change no state and no [`MacStats`],
/// and emit no action; a busy or idle edge at a station with nothing
/// queued must emit no action and count nothing either. The runner relies
/// on both: an untraced run plans no reception at a station that no
/// flow's path names, at the start or after any of the run's route
/// refreshes (`Prepared::observed_stations` in `wmn_netsim`).
pub trait MacEntity {
    /// A packet arrives from the upper layer with its routing decision.
    fn on_enqueue(&mut self, packet: Packet, route: RouteInfo, now: SimTime, out: &mut ActionSink);
    /// The channel at this station turned busy.
    fn on_busy(&mut self, now: SimTime, out: &mut ActionSink);
    /// The channel at this station turned idle.
    fn on_idle(&mut self, now: SimTime, out: &mut ActionSink);
    /// A frame was received cleanly (header intact; per-subframe corruption
    /// flags already applied by the channel). The frame arrives as an
    /// [`RxFrame`]: on the clean-channel fast path it is the *shared*
    /// broadcast copy, so implementations read through `Deref` and clone out
    /// only the (reference-counted, cheap) pieces they keep.
    fn on_frame_rx(&mut self, frame: RxFrame, now: SimTime, out: &mut ActionSink);
    /// Our own transmission just finished.
    fn on_tx_end(&mut self, now: SimTime, out: &mut ActionSink);
    /// A previously requested timer fired.
    fn on_timer(&mut self, token: TimerToken, now: SimTime, out: &mut ActionSink);
    /// Running statistics.
    fn stats(&self) -> MacStats;
}

/// Vec-collecting drivers for [`MacEntity`] handlers: each method runs the
/// sink-style handler against a fresh [`ActionSink`] and returns the drained
/// actions as a `Vec`, in emission order.
///
/// This is the *reference* surface — what the pre-sink interface returned —
/// kept for tests and tooling that want to pattern-match an action slice.
/// Engines must not use it: a fresh sink per call is exactly the allocation
/// the sink rework removed (the allocation gate's per-frame ceilings watch
/// the hot paths).
pub trait MacEntityExt: MacEntity {
    /// [`MacEntity::on_enqueue`] through a fresh sink, actions collected.
    fn on_enqueue_vec(&mut self, packet: Packet, route: RouteInfo, now: SimTime) -> Vec<MacAction> {
        let mut sink = ActionSink::new();
        self.on_enqueue(packet, route, now, &mut sink);
        sink.drain_to_vec()
    }

    /// [`MacEntity::on_busy`] through a fresh sink, actions collected.
    fn on_busy_vec(&mut self, now: SimTime) -> Vec<MacAction> {
        let mut sink = ActionSink::new();
        self.on_busy(now, &mut sink);
        sink.drain_to_vec()
    }

    /// [`MacEntity::on_idle`] through a fresh sink, actions collected.
    fn on_idle_vec(&mut self, now: SimTime) -> Vec<MacAction> {
        let mut sink = ActionSink::new();
        self.on_idle(now, &mut sink);
        sink.drain_to_vec()
    }

    /// [`MacEntity::on_frame_rx`] through a fresh sink, actions collected.
    fn on_frame_rx_vec(&mut self, frame: RxFrame, now: SimTime) -> Vec<MacAction> {
        let mut sink = ActionSink::new();
        self.on_frame_rx(frame, now, &mut sink);
        sink.drain_to_vec()
    }

    /// [`MacEntity::on_tx_end`] through a fresh sink, actions collected.
    fn on_tx_end_vec(&mut self, now: SimTime) -> Vec<MacAction> {
        let mut sink = ActionSink::new();
        self.on_tx_end(now, &mut sink);
        sink.drain_to_vec()
    }

    /// [`MacEntity::on_timer`] through a fresh sink, actions collected.
    fn on_timer_vec(&mut self, token: TimerToken, now: SimTime) -> Vec<MacAction> {
        let mut sink = ActionSink::new();
        self.on_timer(token, now, &mut sink);
        sink.drain_to_vec()
    }
}

impl<M: MacEntity + ?Sized> MacEntityExt for M {}
