//! Integration tests of the aggregation rules through `wmn-mac`'s public
//! API: the airtime byte budget, and multi-flow frames with unambiguous
//! (flow, seq) bitmap acknowledgements.

use wmn_mac::frame::{AckFrame, Frame, LinkDst, NetHeader, Packet, Proto, RouteInfo};
use wmn_mac::{DcfConfig, DcfMac, MacAction, MacEntityExt};
use wmn_phy::{PhyParams, Rate};
use wmn_sim::{FlowId, NodeId, SimTime, StreamRng};

fn packet(flow: u32, bytes: u32) -> Packet {
    Packet::new(
        NetHeader {
            flow: FlowId::new(flow),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            proto: Proto::Tcp,
            wire_bytes: bytes,
        },
        vec![],
    )
}

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn find_data(actions: &[MacAction]) -> Option<&wmn_mac::DataFrame> {
    actions.iter().find_map(|a| match a {
        MacAction::StartTx { frame, .. } => match &**frame {
            Frame::Data(d) => Some(d),
            Frame::Ack(_) => None,
        },
        _ => None,
    })
}

fn drain_first_frame(mac: &mut DcfMac, n_queued: usize) -> wmn_mac::DataFrame {
    // Queue packets while busy, then release the channel and fire the
    // backoff to obtain one aggregated frame.
    mac.on_busy_vec(t(0));
    for i in 0..n_queued {
        mac.on_enqueue_vec(
            packet(i as u32 % 2, 1000),
            RouteInfo::NextHop(NodeId::new(1)),
            t(1 + i as u64),
        );
    }
    let actions = mac.on_idle_vec(t(1000));
    let (delay, token) = actions
        .iter()
        .find_map(|a| match a {
            MacAction::SetTimer { delay, token, .. } => Some((*delay, *token)),
            _ => None,
        })
        .expect("backoff armed");
    let actions = mac.on_timer_vec(token, t(1000) + delay);
    find_data(&actions).expect("frame transmitted").diverged_copy()
}

/// At 6 Mbps the 6 ms airtime budget limits a frame to ~4500 payload
/// bytes: four 1000-byte packets, not sixteen.
#[test]
fn six_mbps_frames_respect_the_airtime_budget() {
    let mut params = PhyParams::paper_6();
    params.data_rate = Rate::mbps(6.0);
    let cfg = DcfConfig::from_phy(&params, 16);
    assert_eq!(cfg.max_frame_payload_bytes, 4500);
    let mut mac = DcfMac::new(cfg, NodeId::new(0), StreamRng::derive(1, "agg"));
    let frame = drain_first_frame(&mut mac, 16);
    assert_eq!(frame.subframes.len(), 4, "6 ms at 6 Mbps fits 4 x 1000 B");
}

/// At 216 Mbps the budget is far above 16 kB, so the packet-count limit
/// binds instead.
#[test]
fn high_rate_frames_aggregate_sixteen() {
    let cfg = DcfConfig::from_phy(&PhyParams::paper_216(), 16);
    assert!(cfg.max_frame_payload_bytes > 16 * 1000);
    let mut mac = DcfMac::new(cfg, NodeId::new(0), StreamRng::derive(1, "agg"));
    let frame = drain_first_frame(&mut mac, 20);
    assert_eq!(frame.subframes.len(), 16);
}

/// Frames may mix packets of two flows sharing the route; the bitmap ACK
/// identifies subframes by (flow, seq), so acknowledging flow 0's seq 0
/// must not release flow 1's seq 0.
#[test]
fn mixed_flow_ack_is_unambiguous() {
    let cfg = DcfConfig::from_phy(&PhyParams::paper_216(), 16);
    let mut mac = DcfMac::new(cfg, NodeId::new(0), StreamRng::derive(2, "mixed"));
    let frame = drain_first_frame(&mut mac, 4); // flows 0,1,0,1 -> seqs 0,0,1,1
    assert_eq!(frame.subframes.len(), 4);
    let flows: Vec<u32> =
        frame.subframes.iter().map(|s| s.packet.header.flow.index() as u32).collect();
    assert_eq!(flows, vec![0, 1, 0, 1], "two flows interleaved in one frame");
    // Both flows restart their seq space at 0: same numeric seqs.
    assert_eq!(frame.subframes[0].seq, frame.subframes[1].seq);

    mac.on_tx_end_vec(t(2000));
    // Acknowledge ONLY flow 0's two subframes.
    let ack = AckFrame {
        transmitter: NodeId::new(1),
        to: NodeId::new(0),
        flow: frame.flow,
        frame_seq: frame.frame_seq,
        acked_seqs: frame
            .subframes
            .iter()
            .filter(|s| s.packet.header.flow == FlowId::new(0))
            .map(|s| (s.packet.header.flow, s.seq))
            .collect(),
        relay_list: Default::default(),
    };
    let actions = mac.on_frame_rx_vec(Frame::Ack(ack).into(), t(2100));
    // The retransmission must contain exactly flow 1's subframes.
    let (delay, token) = actions
        .iter()
        .find_map(|a| match a {
            MacAction::SetTimer { delay, token, .. } => Some((*delay, *token)),
            _ => None,
        })
        .expect("post-ack backoff");
    let actions = mac.on_timer_vec(token, t(2100) + delay);
    let retx = find_data(&actions).expect("partial retransmission");
    assert_eq!(retx.subframes.len(), 2);
    assert!(
        retx.subframes.iter().all(|s| s.packet.header.flow == FlowId::new(1)),
        "only flow 1's unacknowledged subframes may be retransmitted"
    );
}

/// A frame whose link destination differs is never aggregated with the
/// head packet, whatever its flow.
#[test]
fn different_next_hops_never_share_a_frame() {
    let cfg = DcfConfig::from_phy(&PhyParams::paper_216(), 16);
    let mut mac = DcfMac::new(cfg, NodeId::new(0), StreamRng::derive(3, "hops"));
    mac.on_busy_vec(t(0));
    mac.on_enqueue_vec(packet(0, 1000), RouteInfo::NextHop(NodeId::new(1)), t(1));
    mac.on_enqueue_vec(packet(0, 1000), RouteInfo::NextHop(NodeId::new(2)), t(2));
    mac.on_enqueue_vec(packet(0, 1000), RouteInfo::NextHop(NodeId::new(1)), t(3));
    let actions = mac.on_idle_vec(t(100));
    let (delay, token) = actions
        .iter()
        .find_map(|a| match a {
            MacAction::SetTimer { delay, token, .. } => Some((*delay, *token)),
            _ => None,
        })
        .unwrap();
    let actions = mac.on_timer_vec(token, t(100) + delay);
    let frame = find_data(&actions).unwrap();
    assert_eq!(frame.subframes.len(), 2, "only the node-1 packets aggregate");
    assert_eq!(frame.link_dst, LinkDst::Unicast(NodeId::new(1)));
}
