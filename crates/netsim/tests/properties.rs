//! Property-based tests of whole-simulation invariants: random placements,
//! random schemes, random seeds — conservation and sanity must always hold.

use proptest::prelude::*;
use wmn_netsim::{run, FlowSpec, Scenario, Scheme, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_sim::{NodeId, SimDuration};

fn scheme_from(index: u8) -> Scheme {
    match index % 6 {
        0 => Scheme::Dcf { aggregation: 1 },
        1 => Scheme::Dcf { aggregation: 16 },
        2 => Scheme::PreExor,
        3 => Scheme::McExor,
        4 => Scheme::Ripple { aggregation: 1 },
        _ => Scheme::Ripple { aggregation: 16 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the geometry, scheme and seed: the run terminates, flow
    /// accounting is conserved, and totals add up.
    #[test]
    fn prop_run_invariants(
        scheme_idx in 0u8..6,
        seed in 1u64..500,
        n_nodes in 3usize..6,
        spacing in 3.0f64..9.0,
        bend in 0.0f64..3.0,
    ) {
        let positions: Vec<Position> = (0..n_nodes)
            .map(|i| Position::new(i as f64 * spacing, if i % 2 == 0 { 0.0 } else { bend }))
            .collect();
        let scenario = Scenario {
            name: "prop".into(),
            params: PhyParams::paper_216(),
            positions,
            scheme: scheme_from(scheme_idx),
            flows: vec![FlowSpec {
                path: (0..n_nodes as u32).map(NodeId::new).collect(),
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(60),
            seed,
            max_forwarders: 5,
            motion: wmn_netsim::MotionPlan::default(),
            route_refresh: None,
            shards: None,
        };
        let result = run(&scenario);
        let flow = &result.flows[0];
        let tcp = flow.tcp.expect("ftp flow");
        // Conservation: can't deliver more distinct segments than arrived.
        prop_assert!(flow.delivered_bytes / 1000 <= tcp.segments_arrived);
        // Re-ordered arrivals are a subset of arrivals.
        prop_assert!(tcp.reordered_arrivals <= tcp.segments_arrived);
        // Totals add up.
        let sum: f64 = result.flows.iter().map(|f| f.throughput_mbps).sum();
        prop_assert!((sum - result.total_throughput_mbps).abs() < 1e-9);
        // MAC stats exist for every station.
        prop_assert_eq!(result.mac_stats.len(), n_nodes);
    }

    /// RIPPLE's in-order guarantee holds under arbitrary chain geometry.
    #[test]
    fn prop_ripple_never_reorders(
        seed in 1u64..300,
        spacing in 3.0f64..8.0,
    ) {
        let positions: Vec<Position> =
            (0..4).map(|i| Position::new(f64::from(i) * spacing, 0.0)).collect();
        let scenario = Scenario {
            name: "prop-ripple".into(),
            params: PhyParams::paper_216().with_ber(1e-5),
            positions,
            scheme: Scheme::Ripple { aggregation: 16 },
            flows: vec![FlowSpec {
                path: (0..4).map(NodeId::new).collect(),
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(80),
            seed,
            max_forwarders: 5,
            motion: wmn_netsim::MotionPlan::default(),
            route_refresh: None,
            shards: None,
        };
        let result = run(&scenario);
        prop_assert_eq!(result.flows[0].tcp.unwrap().reordered_arrivals, 0);
    }
}

/// Builds a pooled `n`-subframe data frame like a transmitter would.
fn pooled_frame(pool: &wmn_mac::FramePool, n: u32) -> std::sync::Arc<wmn_mac::Frame> {
    pooled_frame_of(pool, &vec![1000; n as usize])
}

/// The same, its subframes carrying `sizes` wire bytes, in order.
fn pooled_frame_of(pool: &wmn_mac::FramePool, sizes: &[u32]) -> std::sync::Arc<wmn_mac::Frame> {
    use wmn_mac::frame::{LinkDst, NetHeader, Packet, Proto, Subframe};
    let mut subframes = pool.mint_subframes();
    for (seq, &wire_bytes) in (0u32..).zip(sizes) {
        let header = NetHeader {
            flow: wmn_sim::FlowId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(3),
            proto: Proto::Tcp,
            wire_bytes,
        };
        subframes.push(Subframe {
            seq,
            packet: Packet::new(header, pool.mint_body(&[0u8; 18])),
            corrupted: false,
        });
    }
    wmn_mac::Frame::Data(wmn_mac::DataFrame {
        transmitter: NodeId::new(0),
        link_dst: LinkDst::Unicast(NodeId::new(1)),
        flow: wmn_sim::FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(3),
        frame_seq: 0,
        subframes,
        retry: 0,
    })
    .into_shared()
}

proptest! {
    /// The decode seam's zero-copy contract, end to end: a clean channel
    /// hands back the transmitter's own allocation (`Arc::ptr_eq`, no
    /// copy), and a corrupting channel detaches a private copy without
    /// ever writing a `corrupted` flag through to the shared frame.
    #[test]
    fn prop_decode_shares_clean_and_isolates_corrupt(
        seed in 1u64..500,
        n_subframes in 1u32..16,
    ) {
        use wmn_mac::frame::{Frame, RxFrame};
        use wmn_netsim::stack::decode::decode_frame;
        use wmn_phy::BerModel;
        use wmn_sim::StreamRng;

        let pool = wmn_mac::FramePool::default();
        let frame = pooled_frame(&pool, n_subframes);

        let clean = BerModel::new(0.0);
        let mut rng = StreamRng::derive(seed, "netsim-test/decode-clean");
        match decode_frame(&clean, &mut rng, &frame) {
            Some(RxFrame::Shared(shared)) => {
                prop_assert!(std::sync::Arc::ptr_eq(&shared, &frame),
                    "clean decode must share the broadcast allocation");
            }
            other => prop_assert!(false, "clean decode must be Shared, got {other:?}"),
        }

        // A punishing channel: most decodes corrupt something (or lose the
        // header). Whenever an Owned copy comes back, the original must be
        // untouched and the copy must actually diverge.
        let noisy = BerModel::new(1e-3);
        let mut rng = StreamRng::derive(seed, "netsim-test/decode-noisy");
        for _ in 0..32 {
            if let Some(RxFrame::Owned(owned)) = decode_frame(&noisy, &mut rng, &frame) {
                let Frame::Data(ref orig) = *frame else { unreachable!() };
                prop_assert!(orig.subframes.iter().all(|sf| !sf.corrupted),
                    "corruption must never write through to the shared frame");
                let Frame::Data(ref diverged) = *owned else { unreachable!() };
                prop_assert!(diverged.subframes.iter().any(|sf| sf.corrupted),
                    "an Owned decode exists only to carry corrupted flags");
            }
        }
    }
}

/// `decode_frame` recomputes a unit's survival probability only when the
/// unit size changes. The oracle is the unmemoised loop — one
/// `BerModel::unit_survives`, one `exp`, per unit — on a twin stream: same
/// verdict per subframe, same stream position afterwards.
#[test]
fn memoised_decode_draws_what_the_unmemoised_loop_draws() {
    use wmn_mac::frame::{Frame, RxFrame, SUBFRAME_OVERHEAD_BYTES};
    use wmn_netsim::stack::decode::decode_frame;
    use wmn_phy::BerModel;
    use wmn_sim::StreamRng;

    /// `None` = header lost, else the corrupted subframes' indices.
    fn oracle(ber: &BerModel, rng: &mut StreamRng, frame: &Frame) -> Option<Vec<usize>> {
        if !ber.unit_survives(frame.header_bytes(), rng) {
            return None;
        }
        let Frame::Data(d) = frame else { return Some(Vec::new()) };
        let sizes =
            d.subframes.iter().map(|sf| SUBFRAME_OVERHEAD_BYTES + sf.packet.header.wire_bytes);
        let lost: Vec<bool> = sizes.map(|bytes| !ber.unit_survives(bytes, rng)).collect();
        Some((0..lost.len()).filter(|&i| lost[i]).collect())
    }

    fn corrupted(rx: &RxFrame) -> Vec<usize> {
        let frame: &Frame = match rx {
            RxFrame::Shared(frame) => frame,
            RxFrame::Owned(frame) => frame,
        };
        let Frame::Data(d) = frame else { return Vec::new() };
        (0..d.subframes.len()).filter(|&i| d.subframes[i].corrupted).collect()
    }

    // Repeats, alternations and a near-miss size; and a frame of 137
    // subframes, wider than any 128-bit mask (`Scheme::Dcf { aggregation:
    // 200 }` at 216 Mbps builds frames of up to 162).
    let mixed = [1000, 1000, 40, 40, 1000, 1536, 1536, 1536, 40, 1000, 999, 1000, 1000];
    let wide: Vec<u32> = (0..137).map(|i| [1000, 1000, 40][i % 3]).collect();
    let pool = wmn_mac::FramePool::default();
    for (ber, sizes) in [(1e-6, &mixed[..]), (1e-5, &mixed[..]), (1e-6, &wide[..])] {
        let (ber, frame) = (BerModel::new(ber), pooled_frame_of(&pool, sizes));
        let mut rng = StreamRng::derive(11, "netsim-test/decode-memo");
        let mut twin = StreamRng::derive(11, "netsim-test/decode-memo");
        let (mut clean, mut corrupt) = (0, 0);
        for round in 0..400 {
            let got = decode_frame(&ber, &mut rng, &frame);
            let want = oracle(&ber, &mut twin, &frame);
            assert_eq!(got.as_ref().map(corrupted), want, "round {round}");
            match want.as_deref() {
                Some([]) => clean += 1,
                Some(_) => corrupt += 1,
                None => {}
            }
        }
        assert_eq!(rng.next_u64(), twin.next_u64(), "the streams advanced alike");
        assert!(clean > 0 && corrupt > 0, "{clean} clean and {corrupt} corrupt decodes");
    }
}
