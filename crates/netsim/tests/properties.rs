//! Property-based tests of whole-simulation invariants: random placements,
//! random schemes, random seeds — conservation and sanity must always hold.

use proptest::prelude::*;
use wmn_netsim::{run, FlowSpec, Scenario, ScenarioError, Scheme, Workload};
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

#[path = "support/watchdog.rs"]
mod watchdog;

/// A small valid scenario every hostile case below mutates one field of.
fn sound_scenario(case: usize) -> Scenario {
    Scenario {
        name: "hostile".into(),
        params: PhyParams::paper_216(),
        positions: (0..3).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect(),
        scheme: scheme_from(case as u8),
        flows: vec![FlowSpec { path: (0..3).map(NodeId::new).collect(), workload: Workload::Ftp }],
        duration: SimDuration::from_millis(2),
        seed: case as u64,
        max_forwarders: 5,
        motion: wmn_netsim::MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// Whether an error is one the mutated field's rule may raise.
type Rule = fn(&ScenarioError) -> bool;

type Mutation = (String, Box<dyn Fn(&mut Scenario) + Send>, Rule);

/// One mutation per (field, hostile value): NaN, ±∞, ±0, 1e-300, ±1e308,
/// 0, 1 and the type's maximum, zero, 1 ns, [`SimDuration::LIMIT`] and
/// `SimDuration::MAX` spans, colocated and far-flung stations, and paths
/// that repeat or revisit nodes; each with the variants its field's rule
/// may reject it with, or none where every value must run.
fn hostile_mutations() -> Vec<Mutation> {
    use wmn_netsim::ScenarioError as E;
    use wmn_netsim::{NodePath, Waypoint};
    use wmn_phy::Rate;
    use wmn_sim::SimTime;
    use wmn_traffic::{CbrModel, VoipModel, WebModel};

    const REALS: [f64; 8] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e-300, 1e308, -1e308];
    const U32S: [u32; 3] = [0, 1, u32::MAX];
    const USIZES: [usize; 3] = [0, 1, usize::MAX];
    const SPANS: [SimDuration; 4] =
        [SimDuration::ZERO, SimDuration::from_nanos(1), SimDuration::LIMIT, SimDuration::MAX];
    fn web(s: &mut Scenario) -> &mut WebModel {
        s.flows[0].workload = Workload::Web(WebModel::paper());
        let Workload::Web(model) = &mut s.flows[0].workload else { unreachable!() };
        model
    }
    fn voip(s: &mut Scenario) -> &mut VoipModel {
        s.flows[0].workload = Workload::Voip(VoipModel::paper());
        let Workload::Voip(model) = &mut s.flows[0].workload else { unreachable!() };
        model
    }
    fn cbr(s: &mut Scenario) -> &mut CbrModel {
        s.flows[0].workload = Workload::Cbr(CbrModel::heavy());
        let Workload::Cbr(model) = &mut s.flows[0].workload else { unreachable!() };
        model
    }
    // A pass every nanosecond costs one event per nanosecond: those rows
    // keep the run to 20 µs.
    fn periodic(s: &mut Scenario, period: SimDuration) {
        if period == SimDuration::from_nanos(1) {
            s.duration = SimDuration::from_micros(20);
        }
    }
    fn drift(s: &mut Scenario) {
        s.motion.paths = vec![NodePath::Drift { vx_mps: 1.0, vy_mps: 1.0 }];
    }
    fn waypoints(points: &[(u64, f64)]) -> NodePath {
        NodePath::Waypoints(
            points
                .iter()
                .map(|&(ns, x)| Waypoint {
                    at: SimTime::from_nanos(ns),
                    pos: Position::new(x, 0.0),
                })
                .collect(),
        )
    }

    let mut out: Vec<Mutation> = Vec::new();
    macro_rules! rows {
        ($field:literal in $values:expr => $rule:pat, |$s:ident, $v:ident| $edit:expr) => {
            for $v in $values {
                out.push((
                    format!("{} = {:?}", $field, $v),
                    Box::new(move |$s: &mut Scenario| $edit),
                    |e| matches!(e, $rule),
                ));
            }
        };
        ($field:literal in $values:expr, |$s:ident, $v:ident| $edit:expr) => {
            for $v in $values {
                out.push((
                    format!("{} = {:?}", $field, $v),
                    Box::new(move |$s: &mut Scenario| $edit),
                    |_| false,
                ));
            }
        };
    }
    rows!("link.tx_power_dbm" in REALS => E::Phy(_), |s, v| s.params.link.tx_power_dbm = v);
    rows!("link.rx_thresh_dbm" in REALS => E::Phy(_), |s, v| s.params.link.rx_thresh_dbm = v);
    rows!("link.cs_thresh_dbm" in REALS => E::Phy(_), |s, v| s.params.link.cs_thresh_dbm = v);
    rows!("link.path_loss_exponent" in REALS => E::Phy(_), |s, v| s.params.link.path_loss_exponent = v);
    rows!("link.sigma_db" in REALS => E::Phy(_), |s, v| s.params.link.sigma_db = v);
    rows!("link.reference_distance" in REALS => E::Phy(_), |s, v| s.params.link.reference_distance = v);
    rows!("link.pl_at_reference_db" in REALS => E::Phy(_), |s, v| s.params.link.pl_at_reference_db = v);
    rows!("ber" in REALS => E::Phy(_), |s, v| s.params.ber = v);
    rows!("data_rate (Mbps)" in [1e-300, 1e-3, 1e308] => E::Phy(_), |s, v| s.params.data_rate = Rate::mbps(v));
    rows!("basic_rate (Mbps)" in [1e-300, 1e-3, 1e308] => E::Phy(_), |s, v| s.params.basic_rate = Rate::mbps(v));
    rows!("sifs" in SPANS => E::Phy(_), |s, v| s.params.sifs = v);
    rows!("slot" in SPANS => E::Phy(_), |s, v| s.params.slot = v);
    rows!("phy_header" in SPANS => E::Phy(_), |s, v| s.params.phy_header = v);
    rows!("slot = sifs" in SPANS => E::Phy(_), |s, v| (s.params.slot, s.params.sifs) = (v, v));
    rows!("cw_min" in U32S => E::Phy(_), |s, v| s.params.cw_min = v);
    rows!("cw_max" in U32S => E::Phy(_), |s, v| s.params.cw_max = v);
    rows!("retry_limit" in [0u8, u8::MAX] => E::Phy(_), |s, v| s.params.retry_limit = v);
    rows!("ifq_capacity" in USIZES => E::Phy(_), |s, v| s.params.ifq_capacity = v);
    rows!("packet_size" in U32S => E::Phy(_), |s, v| s.params.packet_size = v);
    rows!("positions[1].x" in REALS => E::NonFinitePosition { .. } | E::Motion(_), |s, v| s.positions[1].x = v);
    rows!("positions[2].y" in REALS => E::NonFinitePosition { .. } | E::Motion(_), |s, v| s.positions[2].y = v);
    rows!("positions[0, 2].x = ∓" in [1.7e308, 1e16] => E::Motion(_), |s, v| (s.positions[0].x, s.positions[2].x) = (-v, v));
    rows!("every position" in [0.0, 1e-300], |s, v| s.positions.iter_mut().for_each(|p| *p = Position::new(v, v)));
    rows!("Dcf.aggregation" in USIZES => E::ZeroAggregation(_), |s, v| s.scheme = Scheme::Dcf { aggregation: v });
    rows!("Ripple.aggregation" in USIZES => E::ZeroAggregation(_), |s, v| s.scheme = Scheme::Ripple { aggregation: v });
    rows!("flows[0].path" in [vec![0, 1, 0], vec![0, 1, 2, 1, 2], vec![0, 2, 1, 0], vec![2, 1, 0], vec![0, 0, 1], vec![1]] => E::ShortPath { flow: 0, .. } | E::RepeatedHop { flow: 0 }, |s, v| {
        s.flows[0].path = v.iter().map(|&i| NodeId::new(i)).collect()
    });
    rows!("flows" in [2, 0] => E::NoFlows, |s, v| s.flows = vec![s.flows[0].clone(); v]);
    rows!("duration" in [SimDuration::ZERO, SimDuration::from_nanos(1), SimDuration::MAX] => E::DurationPastLimit(_), |s, v| s.duration = v);
    rows!("max_forwarders" in USIZES, |s, v| s.max_forwarders = v);
    rows!("seed" in [0, u64::MAX], |s, v| s.seed = v);
    rows!("shards" in [Some(0), Some(1), Some(u32::MAX)], |s, v| s.shards = v);
    rows!("route_refresh" in SPANS => E::ZeroRefresh, |s, v| {
        s.route_refresh = Some(v);
        periodic(s, v)
    });
    rows!("web.mean_transfer_bytes" in REALS => E::Workload { flow: 0, .. }, |s, v| web(s).mean_transfer_bytes = v);
    rows!("web.pareto_shape" in REALS => E::Workload { flow: 0, .. }, |s, v| web(s).pareto_shape = v);
    rows!("web.pareto_shape" in [0.5, 1.0, 1.0 + f64::EPSILON] => E::Workload { flow: 0, .. }, |s, v| web(s).pareto_shape = v);
    rows!("web.mean_off_seconds" in REALS => E::Workload { flow: 0, .. }, |s, v| web(s).mean_off_seconds = v);
    rows!("web.mss_bytes" in U32S => E::Workload { flow: 0, .. }, |s, v| web(s).mss_bytes = v);
    rows!("voip.bitrate_bps" in REALS => E::Workload { flow: 0, .. }, |s, v| voip(s).bitrate_bps = v);
    rows!("voip.packet_bytes" in U32S => E::Workload { flow: 0, .. }, |s, v| voip(s).packet_bytes = v);
    rows!("voip.mean_on_seconds" in REALS => E::Workload { flow: 0, .. }, |s, v| voip(s).mean_on_seconds = v);
    rows!("voip.mean_off_seconds" in REALS => E::Workload { flow: 0, .. }, |s, v| voip(s).mean_off_seconds = v);
    rows!("cbr.packet_bytes" in U32S => E::Workload { flow: 0, .. }, |s, v| cbr(s).packet_bytes = v);
    rows!("cbr.interval" in SPANS => E::Workload { flow: 0, .. }, |s, v| {
        cbr(s).interval = v;
        periodic(s, v)
    });
    rows!("drift.vx_mps" in REALS => E::Motion(_), |s, v| s.motion.paths = vec![NodePath::Drift { vx_mps: v, vy_mps: 1.0 }]);
    rows!("motion.tick" in SPANS => E::Motion(_), |s, v| {
        drift(s);
        s.motion.tick = v;
        periodic(s, v)
    });
    rows!("motion.paths" in [4, 3] => E::Motion(_), |s, v| s.motion.paths = vec![NodePath::Static; v]);
    rows!("waypoint.x" in REALS => E::Motion(_), |s, v| s.motion.paths = vec![NodePath::Static, waypoints(&[(1000, v)])]);
    rows!("waypoints" in [
        vec![(0, 3.0)],
        vec![(1000, 3.0), (1000, 4.0)],
        vec![(1000, -1.7e308), (2000, 1.7e308)],
        vec![(1, 3.0), (u64::MAX, 4.0)],
    ] => E::Motion(_), |s, v| s.motion.paths = vec![waypoints(&v)]);
    out
}

/// Whatever one field of a sound scenario is set to, the scenario is
/// either rejected by that field's rule or prepared and run to its end: no
/// panic inside the run, no hang.
#[test]
fn prop_a_hostile_field_is_rejected_or_runs() {
    watchdog::run_cases(std::time::Duration::from_secs(60), |announce| {
        for (case, (label, mutate, rule)) in hostile_mutations().into_iter().enumerate() {
            let mut scenario = sound_scenario(case);
            mutate(&mut scenario);
            announce(format!("{label} under {}", scenario.scheme));
            match scenario.prepare() {
                Ok(prepared) => {
                    let result = prepared.run(scenario.seed);
                    assert_eq!(result.flows.len(), scenario.flows.len(), "{label}");
                }
                Err(err) => assert!(rule(&err), "{label}: rejected by another rule: {err:?}"),
            }
        }
    });
}
