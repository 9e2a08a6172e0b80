//! End-to-end integration tests spanning every crate: PHY → MAC → routing
//! → transport → application, driven through the public `wmn-netsim` API.

use wmn_netsim::{run, FlowSpec, Scenario, Scheme, Workload};
use wmn_phy::{LinkModel, PhyParams, Position};
use wmn_routing::{forwarder_list, LinkGraph};
use wmn_sim::{NodeId, SimDuration};
use wmn_topology::{collision, fig1, line, roofnet, wigle};
use wmn_traffic::{CbrModel, VoipModel, WebModel};

fn scenario(scheme: Scheme, positions: Vec<Position>, flows: Vec<FlowSpec>, ms: u64) -> Scenario {
    Scenario {
        name: "e2e".into(),
        params: PhyParams::paper_216(),
        positions,
        scheme,
        flows,
        duration: SimDuration::from_millis(ms),
        seed: 11,
        max_forwarders: 5,
        motion: wmn_netsim::MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

fn chain(n: usize) -> (Vec<Position>, Vec<NodeId>) {
    let positions = (0..n).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect();
    let path = (0..n as u32).map(NodeId::new).collect();
    (positions, path)
}

#[test]
fn every_scheme_completes_a_transfer() {
    let (positions, path) = chain(4);
    for scheme in [
        Scheme::Dcf { aggregation: 1 },
        Scheme::Dcf { aggregation: 16 },
        Scheme::PreExor,
        Scheme::McExor,
        Scheme::Ripple { aggregation: 1 },
        Scheme::Ripple { aggregation: 16 },
    ] {
        let s = scenario(
            scheme,
            positions.clone(),
            vec![FlowSpec { path: path.clone(), workload: Workload::Ftp }],
            250,
        );
        let r = run(&s);
        assert!(
            r.flows[0].delivered_bytes > 20_000,
            "{scheme:?} must deliver data, got {}",
            r.flows[0].delivered_bytes
        );
    }
}

#[test]
fn all_fig1_flows_work_concurrently_under_ripple() {
    let topo = fig1::topology();
    let flows = (1..=3)
        .map(|f| FlowSpec { path: fig1::RouteSet::Route0.flow_path(f), workload: Workload::Ftp })
        .collect();
    let s = scenario(Scheme::Ripple { aggregation: 16 }, topo.positions, flows, 300);
    let r = run(&s);
    for (i, f) in r.flows.iter().enumerate() {
        assert!(f.delivered_bytes > 0, "flow {} starved", i + 1);
        assert_eq!(f.tcp.unwrap().reordered_arrivals, 0, "RIPPLE must not reorder flow {}", i + 1);
    }
}

#[test]
fn voip_and_tcp_coexist() {
    let topo = fig1::topology();
    let flows = vec![
        FlowSpec { path: fig1::RouteSet::Route0.flow_path(1), workload: Workload::Ftp },
        FlowSpec {
            path: fig1::RouteSet::Route0.flow_path(3),
            workload: Workload::Voip(VoipModel::paper()),
        },
    ];
    let s = scenario(Scheme::Ripple { aggregation: 16 }, topo.positions, flows, 500);
    let r = run(&s);
    assert!(r.flows[0].delivered_bytes > 0, "TCP flow starved");
    let voip = r.flows[1].voip.expect("voip result");
    assert!(voip.received > 0, "voice packets lost entirely");
}

#[test]
fn web_users_share_the_mesh() {
    let topo = fig1::topology();
    let flows: Vec<FlowSpec> = (0..6)
        .map(|i| FlowSpec {
            path: fig1::RouteSet::Route0.flow_path(1 + i % 3),
            workload: Workload::Web(WebModel::paper()),
        })
        .collect();
    let s = scenario(Scheme::Dcf { aggregation: 16 }, topo.positions, flows, 600);
    let r = run(&s);
    let total: u64 = r.flows.iter().map(|f| f.delivered_bytes).sum();
    assert!(total > 0, "web traffic must move");
}

#[test]
fn hidden_terminals_throttle_but_do_not_wedge() {
    let topo = collision::hidden_terminals(5);
    let mut flows = vec![FlowSpec { path: collision::hidden_main_path(), workload: Workload::Ftp }];
    for k in 0..5 {
        let (s, d) = collision::hidden_flow_endpoints(k);
        flows.push(FlowSpec { path: vec![s, d], workload: Workload::Cbr(CbrModel::saturating()) });
    }
    let s = scenario(Scheme::Ripple { aggregation: 16 }, topo.positions, flows, 400);
    let r = run(&s);
    // The main flow suffers but the simulation terminates and hidden flows
    // themselves move traffic.
    assert!(r.flows[1..].iter().any(|f| f.delivered_bytes > 0));
}

#[test]
fn seven_hop_chain_delivers_via_forwarders_only() {
    let topo = line::line(7, false);
    let s = scenario(
        Scheme::Ripple { aggregation: 16 },
        topo.positions,
        vec![FlowSpec { path: line::main_path(7), workload: Workload::Ftp }],
        500,
    );
    let r = run(&s);
    assert!(
        r.flows[0].delivered_bytes > 10_000,
        "7-hop RIPPLE must work end-to-end: {}",
        r.flows[0].delivered_bytes
    );
}

#[test]
fn wigle_flows_route_and_run() {
    let topo = wigle::topology();
    let graph = LinkGraph::from_placement(&LinkModel::paper(), &topo.positions);
    let (src, dst) = wigle::flow_pairs()[0];
    let path = graph.shortest_path(src, dst).unwrap();
    let s = scenario(
        Scheme::Ripple { aggregation: 16 },
        topo.positions,
        vec![FlowSpec { path, workload: Workload::Ftp }],
        300,
    );
    assert!(run(&s).flows[0].delivered_bytes > 0);
}

#[test]
fn roofnet_five_hop_flow_runs() {
    let topo = roofnet::topology();
    let graph = roofnet::link_graph(&LinkModel::paper());
    let (src, dst) = roofnet::pairs_with_hops(&graph, 5, 1)[0];
    let path = graph.shortest_path(src, dst).unwrap();
    let s = scenario(
        Scheme::Ripple { aggregation: 16 },
        topo.positions,
        vec![FlowSpec { path, workload: Workload::Ftp }],
        400,
    );
    assert!(run(&s).flows[0].delivered_bytes > 0);
}

#[test]
fn forwarder_lists_respect_the_paper_cap() {
    let path: Vec<NodeId> = (0..9).map(NodeId::new).collect();
    let list = forwarder_list(&path, wmn_routing::DEFAULT_MAX_FORWARDERS);
    assert_eq!(list.len(), 6, "destination + at most 5 forwarders");
}

#[test]
fn two_way_traffic_is_aggregated_both_directions() {
    // A TCP flow generates forward data and reverse ACK packets; under
    // RIPPLE-16 both directions must flow (the reverse direction is its own
    // set of mTXOPs per Section III-A).
    let (positions, path) = chain(4);
    let s = scenario(
        Scheme::Ripple { aggregation: 16 },
        positions,
        vec![FlowSpec { path, workload: Workload::Ftp }],
        300,
    );
    let r = run(&s);
    let tcp = r.flows[0].tcp.unwrap();
    assert!(tcp.segments_arrived > 50, "forward direction moved");
    // Data delivery implies the reverse (ACK) direction also worked, since
    // FTP only advances on acknowledgements.
    assert!(r.flows[0].delivered_bytes > 50_000);
}
