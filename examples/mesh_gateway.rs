//! A community mesh scenario: several houses reach an Internet gateway
//! across a Roofnet-like mesh, 3–5 hops away. Compares per-house TCP
//! download throughput under DCF, AFR and RIPPLE.
//!
//! ```sh
//! cargo run --release --example mesh_gateway
//! ```

use wmn_netsim::{run, FlowSpec, Scenario, Scheme, Workload};
use wmn_phy::PhyParams;
use wmn_sim::{NodeId, SimDuration};
use wmn_topology::roofnet;

fn main() {
    let topo = roofnet::topology();
    let params = PhyParams::paper_216();
    let graph = roofnet::link_graph(&params.link);

    // The gateway is the mesh's corner station; pick three houses at
    // increasing depths.
    let gateway = NodeId::new(0);
    let houses: Vec<NodeId> = [3usize, 4, 5]
        .iter()
        .filter_map(|&hops| {
            (0..topo.node_count() as u32)
                .map(NodeId::new)
                .find(|&n| graph.hop_count(gateway, n) == Some(hops))
        })
        .collect();

    println!("mesh gateway: {} houses download via station {gateway}\n", houses.len());
    println!("{:<10} {:>8} {:>10} {:>10} {:>10}", "house", "hops", "DCF", "AFR", "RIPPLE");

    for house in houses {
        let path = graph.shortest_path(gateway, house).expect("reachable");
        let hops = path.len() - 1;
        let mut row = Vec::new();
        for scheme in [
            Scheme::Dcf { aggregation: 1 },
            Scheme::Dcf { aggregation: 16 },
            Scheme::Ripple { aggregation: 16 },
        ] {
            let scenario = Scenario {
                name: format!("gateway-{house}"),
                params: params.clone(),
                positions: topo.positions.clone(),
                scheme,
                flows: vec![FlowSpec { path: path.clone(), workload: Workload::Ftp }],
                duration: SimDuration::from_secs_f64(1.5),
                seed: 3,
                max_forwarders: 5,
                motion: wmn_netsim::MotionPlan::default(),
                route_refresh: None,
                shards: None,
            };
            row.push(run(&scenario).flows[0].throughput_mbps);
        }
        println!(
            "{:<10} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            house.to_string(),
            hops,
            row[0],
            row[1],
            row[2]
        );
    }
    println!("\nthroughput in Mbps; deeper houses gain the most from RIPPLE's");
    println!("expedited multi-hop TXOPs.");
}
