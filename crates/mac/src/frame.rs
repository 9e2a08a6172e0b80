//! Network packets and MAC frames.
//!
//! Terminology follows the paper: a *packet* is what the upper layer hands
//! to the MAC; a *frame* is what the MAC hands to the PHY. Under aggregation
//! a frame carries up to 16 packets as subframes, each protected by its own
//! CRC, so the channel can corrupt subframes individually while the frame
//! header survives.
//!
//! Simulated wire sizes are computed from the declared packet size plus
//! fixed header costs; the in-memory [`Body`] bytes are metadata (an encoded
//! transport segment) and do not influence airtime.
//!
//! Since the zero-copy rework, frame state is built to be *shared*, not
//! copied: packet bodies are reference-counted [`Body`] buffers (cloning a
//! [`Packet`] bumps a count, it does not copy bytes), subframe storage is a
//! copy-on-write [`SubframeVec`], and forwarder/relay/ACK lists are inline
//! [`SmallList`]s ([`NodeList`], [`AckList`]) that never touch the heap at
//! their in-protocol sizes. A received frame reaches the MAC as an
//! [`RxFrame`]: the shared broadcast `Arc` on the clean-channel fast path,
//! an owned diverged copy only when the channel actually corrupted
//! something.

use std::ops::Deref;
use std::sync::Arc;

use wmn_sim::{FlowId, NodeId};

pub use crate::pool::{Body, SubframeVec};
use crate::smalllist::SmallList;

/// MAC header + FCS cost of a data frame, bytes.
pub const MAC_HEADER_BYTES: u32 = 28;
/// Per-subframe cost: subframe header (8) + per-subframe CRC (4), bytes.
pub const SUBFRAME_OVERHEAD_BYTES: u32 = 12;
/// Base size of a MAC ACK frame, bytes.
pub const ACK_BYTES: u32 = 14;
/// Extra bytes an aggregation-aware (bitmap) ACK carries.
pub const ACK_BITMAP_BYTES: u32 = 4;
/// Bytes consumed per entry of an in-frame forwarder list.
pub const FORWARDER_ENTRY_BYTES: u32 = 6;

/// A forwarder/relay priority list: inline up to 8 entries (the paper's
/// lists stay well under the default `max_forwarders = 5`), heap-spilled
/// beyond that so oversized scenarios still work.
pub type NodeList = SmallList<NodeId, 8>;

/// An ACK bitmap as `(flow, seq)` entries: inline up to the aggregation cap
/// of 16 subframes per frame.
pub type AckList = SmallList<(FlowId, u32), 16>;

/// Transport protocol selector for a network packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Proto {
    /// TCP segment (data or acknowledgement).
    Tcp,
    /// UDP datagram (VoIP, CBR cross traffic).
    Udp,
}

/// End-to-end network header carried by every packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetHeader {
    /// The conversation this packet belongs to.
    pub flow: FlowId,
    /// Originating station (end-to-end, not the current hop).
    pub src: NodeId,
    /// Final destination station.
    pub dst: NodeId,
    /// Transport protocol of the body.
    pub proto: Proto,
    /// Simulated on-the-wire size of this packet in bytes (network header +
    /// transport header + application payload). Drives airtime and BER.
    pub wire_bytes: u32,
}

/// An upper-layer packet queued at, carried by, and delivered from the MAC.
///
/// Cloning is cheap by construction: the header is `Copy` and the body is a
/// shared [`Body`] (reference-count bump, no byte copy) — which is why the
/// MAC retransmission paths may clone packets freely while whole frames are
/// not `Clone` at all (see [`Frame`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// End-to-end header.
    pub header: NetHeader,
    /// Encoded transport segment (metadata; see module docs).
    pub body: Body,
}

impl Packet {
    /// Convenience constructor; accepts a plain `Vec<u8>` (tests, unpooled
    /// callers) or a pool-minted [`Body`].
    pub fn new(header: NetHeader, body: impl Into<Body>) -> Self {
        Packet { header, body: body.into() }
    }
}

/// Routing decision attached to a packet when the upper layer enqueues it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RouteInfo {
    /// Predetermined forwarding: transmit to exactly this neighbour.
    NextHop(NodeId),
    /// Opportunistic forwarding: a priority-ordered candidate list. Position
    /// 0 is the destination (highest priority, "closest to the MAC header"
    /// in the paper's framing), followed by forwarders in decreasing
    /// priority.
    Opportunistic {
        /// Priority list; `list[0]` must be the packet's destination.
        list: NodeList,
    },
}

impl RouteInfo {
    /// The priority rank of `node` in an opportunistic list: 0 for the
    /// destination, 1 for the highest-priority forwarder, … `None` if the
    /// node is not on the list or the route is predetermined.
    pub fn rank_of(&self, node: NodeId) -> Option<usize> {
        match self {
            RouteInfo::NextHop(_) => None,
            RouteInfo::Opportunistic { list } => list.iter().position(|&n| n == node),
        }
    }

    /// The link-layer addressing of a frame sent along this route.
    pub fn link_dst(&self) -> LinkDst {
        match self {
            RouteInfo::NextHop(next_hop) => LinkDst::Unicast(*next_hop),
            RouteInfo::Opportunistic { list } => LinkDst::Opportunistic { list: list.clone() },
        }
    }
}

/// One aggregated packet inside a data frame, with its channel fate.
///
/// The one frame-level type that stays `Clone`: [`SubframeVec`]'s
/// copy-on-write needs it, and the clone is no deeper than the [`Packet`]
/// clone it contains.
#[derive(Clone, Debug)]
pub struct Subframe {
    /// Link-level sequence number, per (flow, end-to-end source). Under
    /// RIPPLE this is the end-to-end sequence the Sq/Rq operate on.
    pub seq: u32,
    /// The carried packet.
    pub packet: Packet,
    /// Set by the channel on the receiver's copy when this subframe's CRC
    /// fails (i.i.d. BER model). Transmitted copies always start clean.
    pub corrupted: bool,
}

/// Who a data frame is addressed to at the link layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinkDst {
    /// Conventional unicast to one neighbour.
    Unicast(NodeId),
    /// Opportunistic: any station on the priority list may act on it.
    Opportunistic {
        /// Priority list; position 0 is the end-to-end destination.
        list: NodeList,
    },
}

/// A MAC data frame: header, addressing, and up to 16 subframes.
///
/// Deliberately not `Clone` (see [`Frame`]); the channel-corruption seam
/// copies through [`DataFrame::diverged_copy`].
///
/// ```compile_fail
/// fn needs_clone<T: Clone>() {}
/// needs_clone::<wmn_mac::frame::DataFrame>();
/// ```
#[derive(Debug)]
pub struct DataFrame {
    /// Station whose radio emitted this copy (changes as relays forward it).
    pub transmitter: NodeId,
    /// Link-layer addressing.
    pub link_dst: LinkDst,
    /// The flow whose packets dominate this frame (frames never mix flows in
    /// this implementation; see DESIGN.md).
    pub flow: FlowId,
    /// End-to-end source of the carried packets.
    pub src: NodeId,
    /// End-to-end destination of the carried packets.
    pub dst: NodeId,
    /// Identifies one transmission attempt; retransmissions get fresh
    /// values, relays keep the value so duplicates can be suppressed.
    pub frame_seq: u64,
    /// Aggregated packets (1 for plain DCF, up to 16 under AFR/RIPPLE).
    pub subframes: SubframeVec,
    /// Retry counter of the attempt that produced this frame (diagnostic).
    pub retry: u8,
}

impl DataFrame {
    /// A receiver's private copy of a broadcast frame, for the one place
    /// that needs one: the channel-corruption seam (`wmn_netsim`'s
    /// `stack/decode.rs`), which flags this receiver's own subframe losses
    /// without touching the allocation every other receiver shares. The copy
    /// is shallow — the subframe storage is shared copy-on-write (see
    /// [`SubframeVec`]) until the caller's first `iter_mut` detaches it.
    ///
    /// A named method rather than `Clone` so that every other copy of a
    /// frame is a compile error, not a silent per-receiver allocation.
    pub fn diverged_copy(&self) -> DataFrame {
        DataFrame {
            transmitter: self.transmitter,
            link_dst: self.link_dst.clone(),
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            frame_seq: self.frame_seq,
            subframes: self.subframes.clone(),
            retry: self.retry,
        }
    }

    /// Simulated wire size: MAC header + forwarder list + per-subframe
    /// overhead + payload bytes.
    pub fn wire_bytes(&self) -> u32 {
        let list_cost = match &self.link_dst {
            LinkDst::Unicast(_) => 0,
            LinkDst::Opportunistic { list } => FORWARDER_ENTRY_BYTES * list.len() as u32,
        };
        MAC_HEADER_BYTES
            + list_cost
            + self
                .subframes
                .iter()
                .map(|s| SUBFRAME_OVERHEAD_BYTES + s.packet.header.wire_bytes)
                .sum::<u32>()
    }

    /// Sequence numbers of the subframes that survived the channel on this
    /// copy.
    pub fn clean_seqs(&self) -> Vec<u32> {
        self.subframes.iter().filter(|s| !s.corrupted).map(|s| s.seq).collect()
    }
}

/// A MAC acknowledgement, possibly carrying an aggregation bitmap and — for
/// RIPPLE's two-way opportunistic forwarding — a relay priority list.
///
/// Both lists are inline [`SmallList`]s: building an ACK never allocates at
/// in-protocol sizes. Not `Clone` (see [`Frame`]).
///
/// ```compile_fail
/// fn needs_clone<T: Clone>() {}
/// needs_clone::<wmn_mac::frame::AckFrame>();
/// ```
#[derive(Debug)]
pub struct AckFrame {
    /// Station whose radio emitted this copy.
    pub transmitter: NodeId,
    /// The station being acknowledged (the data frame's origin for this
    /// link; under RIPPLE, the end-to-end source).
    pub to: NodeId,
    /// Flow the acknowledged frame belonged to.
    pub flow: FlowId,
    /// `frame_seq` of the acknowledged data frame.
    pub frame_seq: u64,
    /// Subframes received correctly, identified by (flow, sequence) — the
    /// flow id disambiguates frames that aggregate packets of several flows
    /// sharing a route (bitmap ACK). Plain DCF ACKs carry one entry.
    pub acked_seqs: AckList,
    /// For RIPPLE: the priority list the ACK travels back along (position 0
    /// = the end-to-end destination that generated the ACK). Empty for
    /// single-hop ACKs.
    pub relay_list: NodeList,
}

impl AckFrame {
    /// Simulated wire size of the ACK.
    pub fn wire_bytes(&self) -> u32 {
        let bitmap = if self.acked_seqs.len() > 1 { ACK_BITMAP_BYTES } else { 0 };
        ACK_BYTES + bitmap + FORWARDER_ENTRY_BYTES * self.relay_list.len() as u32
    }
}

/// Anything a radio can put on the air.
///
/// Frames are shared, never copied: a broadcast fans one `Arc<Frame>` out to
/// every receiver, so none of `Frame`, [`DataFrame`], [`AckFrame`] and
/// [`RxFrame`] implements `Clone` — a per-receiver frame copy does not
/// compile. What a second holder clones instead is the handle, or the cheap
/// pieces:
///
/// ```
/// fn needs_clone<T: Clone>() {}
/// needs_clone::<std::sync::Arc<wmn_mac::frame::Frame>>();
/// needs_clone::<wmn_mac::frame::Packet>();
/// needs_clone::<wmn_mac::frame::Subframe>();
/// ```
///
/// ```compile_fail
/// fn needs_clone<T: Clone>() {}
/// needs_clone::<wmn_mac::frame::Frame>();
/// ```
#[derive(Debug)]
pub enum Frame {
    /// A data frame.
    Data(DataFrame),
    /// A MAC acknowledgement.
    Ack(AckFrame),
}

impl Frame {
    /// Wraps the frame in the handle its broadcast shares — the one place a
    /// frame becomes shared, for transmitters and tests alike.
    ///
    /// The handle is an `Arc` although a frame holds pool buffers and never
    /// leaves its run's thread (see [`pool`](crate::pool#one-thread)): the
    /// benchmark of record builds `RxFrame::Shared(Arc<Frame>)` by name.
    /// The expectation below is the record of that debt, and fails the
    /// build the day it is paid.
    #[expect(
        clippy::arc_with_non_send_sync,
        reason = "perfbench builds RxFrame::Shared(Arc<Frame>) by name, so the handle stays Arc"
    )]
    pub fn into_shared(self) -> Arc<Frame> {
        Arc::new(self)
    }

    /// Simulated wire size in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            Frame::Data(d) => d.wire_bytes(),
            Frame::Ack(a) => a.wire_bytes(),
        }
    }

    /// The station that transmitted this copy.
    pub fn transmitter(&self) -> NodeId {
        match self {
            Frame::Data(d) => d.transmitter,
            Frame::Ack(a) => a.transmitter,
        }
    }

    /// Header bytes protected by the frame-level CRC: if these are hit by
    /// bit errors the whole frame is undecodable.
    pub fn header_bytes(&self) -> u32 {
        match self {
            Frame::Data(d) => match &d.link_dst {
                LinkDst::Unicast(_) => MAC_HEADER_BYTES,
                LinkDst::Opportunistic { list } => {
                    MAC_HEADER_BYTES + FORWARDER_ENTRY_BYTES * list.len() as u32
                }
            },
            Frame::Ack(a) => a.wire_bytes(),
        }
    }
}

/// A frame as it reaches a receiving MAC: shared on the clean-channel fast
/// path, owned only when the channel corrupted this receiver's copy.
///
/// A broadcast fans one `Arc<Frame>` out to every receiver; the channel
/// decode (`wmn_netsim`'s shared seam) hands each MAC a `Shared` handle when
/// every CRC survived — zero allocations, zero copies — and materialises an
/// `Owned` diverged copy only on the corruption branch. MACs read through
/// `Deref` and clone out the (cheap, reference-counted) pieces they keep.
///
/// Both variants are one pointer wide: the diverged copy is boxed so that
/// moving an `RxFrame` through the receive path never copies a whole
/// `Frame` by value — the box is one more allocation on the corruption
/// branch, which already allocates, and zero on the fast path.
///
/// Not `Clone` (see [`Frame`]): re-delivering one frame to several MACs means
/// `RxFrame::Shared(Arc::clone(..))`, as the engine does.
///
/// ```compile_fail
/// fn needs_clone<T: Clone>() {}
/// needs_clone::<wmn_mac::frame::RxFrame>();
/// ```
#[derive(Debug)]
pub enum RxFrame {
    /// The transmitter's copy, shared by every clean receiver.
    Shared(Arc<Frame>),
    /// This receiver's diverged copy (some subframe corrupted in transit).
    Owned(Box<Frame>),
}

impl Deref for RxFrame {
    type Target = Frame;

    fn deref(&self) -> &Frame {
        match self {
            RxFrame::Shared(frame) => frame,
            RxFrame::Owned(frame) => frame,
        }
    }
}

impl From<Frame> for RxFrame {
    fn from(frame: Frame) -> Self {
        RxFrame::Owned(Box::new(frame))
    }
}

impl From<Arc<Frame>> for RxFrame {
    fn from(frame: Arc<Frame>) -> Self {
        RxFrame::Shared(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hdr(bytes: u32) -> NetHeader {
        NetHeader {
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(3),
            proto: Proto::Tcp,
            wire_bytes: bytes,
        }
    }

    fn frame_with(n: usize, list: Option<Vec<NodeId>>) -> DataFrame {
        DataFrame {
            transmitter: NodeId::new(0),
            link_dst: match list {
                Some(list) => LinkDst::Opportunistic { list: list.into() },
                None => LinkDst::Unicast(NodeId::new(1)),
            },
            flow: FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(3),
            frame_seq: 1,
            subframes: (0..n)
                .map(|i| Subframe {
                    seq: i as u32,
                    packet: Packet::new(hdr(1000), vec![]),
                    corrupted: false,
                })
                .collect(),
            retry: 0,
        }
    }

    #[test]
    fn unicast_single_packet_wire_size() {
        let f = frame_with(1, None);
        assert_eq!(f.wire_bytes(), 28 + 12 + 1000);
    }

    #[test]
    fn aggregated_wire_size_scales_per_subframe() {
        let f16 = frame_with(16, None);
        assert_eq!(f16.wire_bytes(), 28 + 16 * (12 + 1000));
    }

    #[test]
    fn forwarder_list_costs_bytes() {
        let list = vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)];
        let f = frame_with(1, Some(list));
        assert_eq!(f.wire_bytes(), 28 + 3 * 6 + 12 + 1000);
    }

    #[test]
    fn ack_wire_sizes() {
        let mut a = AckFrame {
            transmitter: NodeId::new(3),
            to: NodeId::new(0),
            flow: FlowId::new(0),
            frame_seq: 9,
            acked_seqs: vec![(FlowId::new(0), 4)].into(),
            relay_list: NodeList::new(),
        };
        assert_eq!(a.wire_bytes(), 14);
        a.acked_seqs = (4u32..7).map(|q| (FlowId::new(0), q)).collect();
        assert_eq!(a.wire_bytes(), 18);
        a.relay_list = vec![NodeId::new(3), NodeId::new(2)].into();
        assert_eq!(a.wire_bytes(), 18 + 12);
    }

    #[test]
    fn clean_seqs_skips_corrupted() {
        let mut f = frame_with(3, None);
        f.subframes[1].corrupted = true;
        assert_eq!(f.clean_seqs(), vec![0, 2]);
    }

    #[test]
    fn rank_of_positions() {
        let route = RouteInfo::Opportunistic {
            list: vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)].into(),
        };
        assert_eq!(route.rank_of(NodeId::new(3)), Some(0));
        assert_eq!(route.rank_of(NodeId::new(1)), Some(2));
        assert_eq!(route.rank_of(NodeId::new(9)), None);
        assert_eq!(RouteInfo::NextHop(NodeId::new(1)).rank_of(NodeId::new(1)), None);
    }

    #[test]
    fn rx_frame_derefs_to_either_representation() {
        let shared = RxFrame::from(Frame::Data(frame_with(2, None)).into_shared());
        let owned = RxFrame::from(Frame::Data(frame_with(2, None)));
        assert_eq!(shared.wire_bytes(), owned.wire_bytes());
        assert_eq!(shared.transmitter(), NodeId::new(0));
    }

    #[test]
    fn packet_clone_shares_the_body() {
        let p = Packet::new(hdr(1000), b"segment".to_vec());
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(&*q.body, b"segment");
    }

    proptest! {
        /// Wire size is additive in subframes: one n-subframe frame costs
        /// exactly the header once plus n subframe costs.
        #[test]
        fn prop_wire_size_additive(n in 1usize..16, payload in 40u32..1500) {
            let mut f = frame_with(n, None);
            for s in &mut f.subframes {
                s.packet.header.wire_bytes = payload;
            }
            let expected = MAC_HEADER_BYTES + n as u32 * (SUBFRAME_OVERHEAD_BYTES + payload);
            prop_assert_eq!(f.wire_bytes(), expected);
        }
    }
}
