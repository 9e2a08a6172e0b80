//! Protocol-level invariants checked through full simulations, including
//! property-style sweeps over seeds and failure injection via hostile
//! channel conditions.

use wmn_mac::frame::{
    AckFrame, DataFrame, Frame, LinkDst, NetHeader, NodeList, Packet, Proto, RouteInfo, RxFrame,
    Subframe,
};
use wmn_mac::{
    Backoff, DropReason, MacAction, MacEntityExt, MacScheme, MacStats, TimerSlot, TimerToken,
};
use wmn_netsim::{run, run_traced, FlowSpec, Scenario, Scheme, Workload};
use wmn_phy::{Medium, PhyParams, Position};
use wmn_sim::{labels, FlowId, NodeId, RngDirectory, SimDuration, SimTime};

fn base(scheme: Scheme, ber: f64, seed: u64) -> Scenario {
    Scenario {
        name: "invariant".into(),
        params: PhyParams::paper_216().with_ber(ber),
        positions: (0..4).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect(),
        scheme,
        flows: vec![FlowSpec { path: (0..4).map(NodeId::new).collect(), workload: Workload::Ftp }],
        duration: SimDuration::from_millis(250),
        seed,
        max_forwarders: 5,
        motion: wmn_netsim::MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// RIPPLE never re-orders, across seeds and both channel states. This is
/// the protocol's core guarantee (Section III-A: "re-ordering caused by
/// relaying from forwarders will never happen").
#[test]
fn ripple_in_order_across_seeds_and_bers() {
    for seed in 1..=8 {
        for ber in [1e-6, 1e-5] {
            for agg in [1usize, 16] {
                let r = run(&base(Scheme::Ripple { aggregation: agg }, ber, seed));
                let tcp = r.flows[0].tcp.unwrap();
                assert_eq!(
                    tcp.reordered_arrivals, 0,
                    "RIPPLE(agg={agg}) reordered at seed {seed}, BER {ber}"
                );
            }
        }
    }
}

/// DCF and AFR (with the receiver-side reorder buffer) also deliver in
/// order — re-ordering is specific to the caching opportunistic schemes.
#[test]
fn predetermined_schemes_in_order() {
    for seed in 1..=5 {
        for agg in [1usize, 16] {
            let r = run(&base(Scheme::Dcf { aggregation: agg }, 1e-5, seed));
            let tcp = r.flows[0].tcp.unwrap();
            assert_eq!(tcp.reordered_arrivals, 0, "DCF(agg={agg}) reordered at seed {seed}");
        }
    }
}

/// Failure injection: a brutally noisy channel (BER 1e-4 ⇒ ~55 % subframe
/// loss) must degrade throughput but never wedge or crash any scheme.
#[test]
fn survives_brutal_bit_error_rates() {
    for scheme in [
        Scheme::Dcf { aggregation: 16 },
        Scheme::Ripple { aggregation: 16 },
        Scheme::PreExor,
        Scheme::McExor,
    ] {
        let hostile = run(&base(scheme, 1e-4, 3));
        let clear = run(&base(scheme, 1e-6, 3));
        assert!(
            hostile.flows[0].throughput_mbps <= clear.flows[0].throughput_mbps,
            "{scheme:?}: noise must not help"
        );
    }
}

/// Failure injection: a partitioned network (destination unreachable) —
/// the run terminates, delivers nothing, and does not panic.
#[test]
fn partitioned_network_terminates_cleanly() {
    for scheme in [Scheme::Dcf { aggregation: 1 }, Scheme::Ripple { aggregation: 16 }] {
        let scenario = Scenario {
            name: "partition".into(),
            params: PhyParams::paper_216(),
            positions: vec![Position::new(0.0, 0.0), Position::new(500.0, 0.0)],
            scheme,
            flows: vec![FlowSpec {
                path: vec![NodeId::new(0), NodeId::new(1)],
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(300),
            seed: 1,
            max_forwarders: 5,
            motion: wmn_netsim::MotionPlan::default(),
            route_refresh: None,
            shards: None,
        };
        let r = run(&scenario);
        assert_eq!(r.flows[0].delivered_bytes, 0, "{scheme:?}: nothing can cross a partition");
    }
}

/// Determinism: identical scenarios produce byte-identical results; the
/// seed is the only source of variation.
#[test]
fn determinism_across_all_schemes() {
    for scheme in [
        Scheme::Dcf { aggregation: 16 },
        Scheme::PreExor,
        Scheme::McExor,
        Scheme::Ripple { aggregation: 16 },
    ] {
        let a = run(&base(scheme, 1e-5, 42));
        let b = run(&base(scheme, 1e-5, 42));
        assert_eq!(
            a.flows[0].delivered_bytes, b.flows[0].delivered_bytes,
            "{scheme:?} must be deterministic"
        );
        assert_eq!(a.flows[0].tcp.unwrap().retransmits, b.flows[0].tcp.unwrap().retransmits);
    }
}

/// Throughput is (loosely) monotone in channel quality for the headline
/// scheme: clear ≥ noisy for every seed.
#[test]
fn ripple_monotone_in_channel_quality() {
    for seed in 1..=5 {
        let clear = run(&base(Scheme::Ripple { aggregation: 16 }, 1e-6, seed));
        let noisy = run(&base(Scheme::Ripple { aggregation: 16 }, 1e-5, seed));
        assert!(
            clear.flows[0].delivered_bytes * 11 >= noisy.flows[0].delivered_bytes * 10,
            "seed {seed}: clear {} should not lose badly to noisy {}",
            clear.flows[0].delivered_bytes,
            noisy.flows[0].delivered_bytes
        );
    }
}

/// The forwarder cap is honoured: a 9-node path under RIPPLE still works
/// with the default 5-forwarder list (the list simply skips the far
/// forwarders).
#[test]
fn long_path_with_forwarder_cap() {
    let scenario = Scenario {
        name: "cap".into(),
        params: PhyParams::paper_216(),
        positions: (0..8).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect(),
        scheme: Scheme::Ripple { aggregation: 16 },
        flows: vec![FlowSpec { path: (0..8).map(NodeId::new).collect(), workload: Workload::Ftp }],
        duration: SimDuration::from_millis(400),
        seed: 2,
        max_forwarders: 5,
        motion: wmn_netsim::MotionPlan::default(),
        route_refresh: None,
        shards: None,
    };
    let r = run(&scenario);
    // With only 5 forwarders on a 7-hop path the source's frames must hop
    // through the listed relays; delivery may be slow but non-zero.
    assert!(r.flows[0].delivered_bytes > 0);
    assert_eq!(r.flows[0].tcp.unwrap().reordered_arrivals, 0);
}

/// VoIP accounting invariants: received ≤ sent, loss ∈ [0,1], MoS ∈ [1,4.5].
#[test]
fn voip_accounting_invariants() {
    for seed in 1..=5 {
        let mut s = base(Scheme::Ripple { aggregation: 16 }, 1e-5, seed);
        s.flows[0].workload = Workload::Voip(wmn_traffic::VoipModel::paper());
        s.duration = SimDuration::from_millis(700);
        let r = run(&s);
        let v = r.flows[0].voip.unwrap();
        assert!(v.received <= v.sent, "seed {seed}: received {} > sent {}", v.received, v.sent);
        assert!((0.0..=1.0).contains(&v.loss_fraction));
        assert!((1.0..=4.5).contains(&v.mos));
    }
}

/// Contention is identical across schemes — the property the paper's
/// DCF/AFR/preExOR/MCExOR/RIPPLE comparison rests on. Every MAC, built from
/// the same seed and driven through the same script (enqueue on a busy
/// channel → idle edge → busy mid-countdown → idle again → transmit →
/// timeout × `retry_limit + 1`), must emit the backoff timers of one
/// reference 802.11 model, each in its slot, the frozen one cancelled there:
/// same freeze/resume arithmetic, the window doubling per timeout and
/// resetting after the drop, the drop exactly at the limit.
#[test]
fn contention_is_identical_across_schemes() {
    const SEED: u64 = 4;
    let params = PhyParams::paper_216();
    let (difs, slot) = (params.difs(), params.slot);
    let list: NodeList = vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)].into();
    let next_hop = RouteInfo::NextHop(NodeId::new(1));
    let opportunistic = RouteInfo::Opportunistic { list };
    let packet = || {
        let (flow, src, dst) = (FlowId::new(0), NodeId::new(0), NodeId::new(3));
        Packet::new(NetHeader { flow, src, dst, proto: Proto::Udp, wire_bytes: 1000 }, vec![])
    };
    let only_timer = |actions: &[MacAction]| -> (SimDuration, TimerToken) {
        match actions {
            [MacAction::SetTimer { delay, token, slot: Some(_) }] => (*delay, *token),
            other => panic!("expected exactly one slot SetTimer, got {other:?}"),
        }
    };

    // The reference: one contention window and the stream every MAC gets.
    let mut model = Backoff::new(params.cw_min, params.cw_max);
    let station_0 = || RngDirectory::new(SEED).indexed_stream(labels::MAC, 0);
    let mut model_rng = station_0();
    let first_draw = model.draw(&mut model_rng);
    let frozen = first_draw / 2; // whole slots that elapse before the busy edge
    assert!(frozen >= 1, "pick a seed whose first countdown survives the busy edge");
    let mut expected =
        vec![difs + slot * u64::from(first_draw), difs + slot * u64::from(first_draw - frozen)];
    let mut windows = Vec::new();
    for attempt in 0..=params.retry_limit {
        model.on_failure();
        if attempt == params.retry_limit {
            model.on_success();
        }
        windows.push(model.cw());
        expected.push(slot * u64::from(model.draw(&mut model_rng)));
    }
    assert_eq!(windows, [31, 63, 127, 255, 511, 1023, 1023, 15], "doubling, cap, reset");

    for (scheme, route) in [
        (Scheme::Dcf { aggregation: 1 }, &next_hop),
        (Scheme::Dcf { aggregation: 16 }, &next_hop),
        (Scheme::Ripple { aggregation: 1 }, &opportunistic),
        (Scheme::Ripple { aggregation: 16 }, &opportunistic),
        (Scheme::PreExor, &opportunistic),
        (Scheme::McExor, &opportunistic),
    ] {
        let label = scheme.label();
        let mut mac = scheme.build_mac(&params, NodeId::new(0), station_0());
        let mut backoffs = Vec::new();

        // Enqueue on a busy channel: nothing may happen until the idle edge.
        assert!(mac.on_busy_vec(SimTime::ZERO).is_empty());
        assert!(mac.on_enqueue_vec(packet(), route.clone(), SimTime::from_micros(1)).is_empty());
        let idle_at = SimTime::from_micros(100);
        let (delay, stale) = only_timer(&mac.on_idle_vec(idle_at));
        backoffs.push(delay);
        // Busy half a slot after `frozen` whole slots of countdown.
        let busy_at = idle_at + difs + slot * u64::from(frozen) + slot / 2;
        let frozen = mac.on_busy_vec(busy_at);
        let cancel = matches!(frozen[..], [MacAction::CancelTimer { slot: TimerSlot::Backoff }]);
        assert!(cancel, "{label}: the busy edge emitted {frozen:?}");
        assert!(mac.on_timer_vec(stale, idle_at + delay).is_empty(), "{label}: frozen timer");
        let mut now = SimTime::from_micros(1000);
        let (delay, mut token) = only_timer(&mac.on_idle_vec(now));
        backoffs.push(delay);
        now += delay;

        let mut drops = 0;
        for attempt in 0..=params.retry_limit {
            let sent = mac.on_timer_vec(token, now);
            let data = match sent.as_slice() {
                [MacAction::StartTx { frame, .. }] => match &**frame {
                    Frame::Data(d) => Some(d),
                    Frame::Ack(_) => None,
                },
                _ => None,
            };
            let Some(d) = data else {
                panic!("{label}: expected attempt {attempt} on the air, got {sent:?}")
            };
            assert_eq!((d.retry, d.subframes.len()), (attempt, 1), "{label}");
            now += SimDuration::from_micros(100);
            let (timeout, timeout_token) = only_timer(&mac.on_tx_end_vec(now));
            now += timeout;
            let mut actions = mac.on_timer_vec(timeout_token, now);
            if attempt == params.retry_limit {
                assert!(
                    matches!(actions[..], [MacAction::Drop { reason: DropReason::RetryLimit, .. }]),
                    "{label}: drop exactly at the limit, got {actions:?}"
                );
                drops += 1;
                // The post-drop backoff shows on the next packet.
                actions = mac.on_enqueue_vec(packet(), route.clone(), now);
            }
            let (delay, next) = only_timer(&actions);
            backoffs.push(delay);
            token = next;
            now += delay;
        }
        assert_eq!(backoffs, expected, "{label}: backoff timers differ from the 802.11 model");
        let stats = mac.stats();
        let attempts = u64::from(params.retry_limit) + 1;
        assert_eq!(
            (drops, stats.drops_retry_limit, stats.timeouts, stats.data_frames_sent),
            (1, 1, attempts, attempts),
            "{label}"
        );
    }
}

const SCHEMES: [Scheme; 6] = [
    Scheme::Dcf { aggregation: 1 },
    Scheme::Dcf { aggregation: 16 },
    Scheme::Ripple { aggregation: 1 },
    Scheme::Ripple { aggregation: 16 },
    Scheme::McExor,
    Scheme::PreExor,
];

/// A flow-less station appended 1 km away, as the last index, changes
/// nothing a run reports, traced or not, under every scheme: each channel
/// draw is keyed by its own transmission and receiver, so a station out of
/// reach takes no draw from anyone, and it never transmits.
#[test]
fn a_far_flowless_station_changes_nothing() {
    for scheme in SCHEMES {
        let near = base(scheme, 1e-5, 3);
        let mut far = near.clone();
        far.positions.push(Position::new(1000.0, 0.0));
        for traced in [false, true] {
            let go = |s: &Scenario| if traced { run_traced(s).0 } else { run(s) };
            let (expected, mut with_far) = (go(&near), go(&far));
            let label = format!("{}, traced {traced}", scheme.label());
            assert_eq!(with_far.mac_stats.pop(), Some(MacStats::default()), "{label}");
            assert!(expected.flows.iter().all(|f| f.delivered_bytes > 0), "{label}: idle run");
            assert_eq!(expected, with_far, "{label}");
        }
    }
}

/// The inertness contract on `MacEntity`: a station that no flow's path
/// names sees busy and idle edges and overhears data and ACK frames of a
/// flow 0 → 1 → 2 → 3, none of which names it. Under every scheme it emits
/// nothing and counts nothing, which is what lets an untraced run skip its
/// receptions — and the planner of such a run never draws a pair for it.
#[test]
fn bystanders_are_inert_under_every_scheme() {
    let params = PhyParams::paper_216();
    let bystander = NodeId::new(9);
    let node = NodeId::new;
    let flow = FlowId::new(0);
    let list: NodeList = [3, 2, 1].map(node).into_iter().collect();
    let data = |transmitter: u32, link_dst: LinkDst, width: u32| {
        let header =
            NetHeader { flow, src: node(0), dst: node(3), proto: Proto::Tcp, wire_bytes: 1000 };
        let subframes = (0..width).map(|seq| Subframe {
            seq,
            packet: Packet::new(header, vec![0; 8]),
            corrupted: seq == 1,
        });
        Frame::Data(DataFrame {
            transmitter: node(transmitter),
            link_dst,
            flow,
            src: node(0),
            dst: node(3),
            frame_seq: 7,
            subframes: subframes.collect(),
            retry: 0,
        })
    };
    let ack = |transmitter: u32, relay_list: NodeList| {
        Frame::Ack(AckFrame {
            transmitter: node(transmitter),
            to: node(0),
            flow,
            frame_seq: 7,
            acked_seqs: [(flow, 0)].into_iter().collect(),
            relay_list,
        })
    };
    let overheard = || {
        let opportunistic = || LinkDst::Opportunistic { list: list.clone() };
        [
            data(0, LinkDst::Unicast(node(1)), 1),
            data(1, LinkDst::Unicast(node(2)), 16),
            data(0, opportunistic(), 1),
            data(2, opportunistic(), 16),
            ack(1, NodeList::new()),
            ack(3, list.clone()),
            ack(2, list.clone()),
        ]
    };
    for scheme in SCHEMES {
        let label = scheme.label();
        let rng = RngDirectory::new(1).indexed_stream(labels::MAC, 9);
        let mut mac = scheme.build_mac(&params, bystander, rng);
        let mut now = SimTime::from_micros(10);
        for (i, frame) in overheard().into_iter().enumerate() {
            assert!(mac.on_busy_vec(now).is_empty(), "{label}: busy edge {i}");
            now += SimDuration::from_micros(300);
            assert!(mac.on_idle_vec(now).is_empty(), "{label}: idle edge {i}");
            let actions = mac.on_frame_rx_vec(RxFrame::from(frame), now);
            assert!(actions.is_empty(), "{label}: overheard frame {i} emitted {actions:?}");
            assert_eq!(mac.stats(), MacStats::default(), "{label}: frame {i} was counted");
            now += SimDuration::from_micros(50);
        }
        // The control: the same MAC takes a frame that names it.
        let named = match scheme {
            Scheme::Dcf { .. } => LinkDst::Unicast(bystander),
            _ => LinkDst::Opportunistic { list: [bystander, node(1)].into_iter().collect() },
        };
        mac.on_frame_rx_vec(RxFrame::from(data(1, named, 1)), now);
        assert_eq!(mac.stats().data_frames_received, 1, "{label}: a frame naming it");
    }
    // Ten stations 2 m apart, all within reach of each other; the flow's
    // path names 0–3. Each transmission of an untraced run draws pairs at
    // the other three only, where the full planner draws nine.
    let mut scenario = base(Scheme::Ripple { aggregation: 16 }, 0.0, 1);
    scenario.positions = (0..10).map(|i| Position::new(f64::from(i) * 2.0, 0.0)).collect();
    let prepared = scenario.prepare().expect("well-formed");
    let observed = prepared.observed_stations(false).expect("untraced");
    assert_eq!(observed, [0, 1, 2, 3].map(node), "the bystanders are left out");
    let drawn = |medium: Medium, masked: bool| {
        let before = wmn_alloc::work_totals()[wmn_alloc::Work::PlannerPairs as usize];
        let mut plans = Vec::new();
        for from in 0..4 {
            let key = wmn_sim::DrawKey::new(from);
            medium.plan_receptions_into(node(from as u32), key, &mut plans);
            assert!(plans.iter().all(|p| p.to.index() < 4 || !masked));
        }
        wmn_alloc::work_totals()[wmn_alloc::Work::PlannerPairs as usize] - before
    };
    let positions = || scenario.positions.clone();
    let masked = drawn(Medium::observing(params.clone(), positions(), observed), true);
    assert_eq!((masked, drawn(Medium::new(params, positions()), false)), (4 * 3, 4 * 9));
}
