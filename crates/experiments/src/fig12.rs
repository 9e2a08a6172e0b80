//! Fig. 12: per-flow TCP throughput on the (synthetic) Roofnet topology.
//!
//! Six test flows — two each at 3, 4 and 5 hops, labelled `3(1)`, `3(2)`,
//! `4(1)`, … like the paper's x-axis — each run on its own (plus, in the
//! hidden variants, a saturated hidden pair near the destination), at 6 and
//! 216 Mbps. Expected shape: RIPPLE consistently on top, with the largest
//! relative gains on the longest paths (the paper quotes up to 300 % on a
//! 5-hop flow).

use wmn_metrics::Table;
use wmn_netsim::{FlowSpec, Scenario, Workload};
use wmn_phy::{LinkModel, PhyParams};
use wmn_sim::NodeId;
use wmn_topology::roofnet;
use wmn_traffic::CbrModel;

use crate::common::{dar_schemes, next_named, run_grid, ExpConfig};

/// The six test flows: (label, path).
pub fn test_flows() -> Vec<(String, Vec<NodeId>)> {
    let graph = roofnet::link_graph(&LinkModel::paper());
    let mut out = Vec::new();
    for hops in [3usize, 4, 5] {
        for (i, (s, d)) in roofnet::pairs_with_hops(&graph, hops, 2).into_iter().enumerate() {
            let path = graph.shortest_path(s, d).expect("selected pairs are connected");
            out.push((format!("{hops}({})", i + 1), path));
        }
    }
    out
}

/// One table per (rate, hidden) combination; rows are the six test flows.
pub fn generate(cfg: &ExpConfig) -> Vec<Table> {
    let topo = roofnet::topology();
    let flows = test_flows();
    let rates = [("6Mbps", PhyParams::paper_6()), ("216Mbps", PhyParams::paper_216())];
    let mut scenarios = Vec::new();
    for (rate_label, params) in &rates {
        for hidden in [false, true] {
            for (label, path) in &flows {
                for (_, scheme) in dar_schemes() {
                    let mut specs = vec![FlowSpec { path: path.clone(), workload: Workload::Ftp }];
                    if hidden {
                        if let Some((hs, hd)) =
                            roofnet::pick_hidden_pair(&topo, path[0], *path.last().unwrap(), path)
                        {
                            specs.push(FlowSpec {
                                path: vec![hs, hd],
                                workload: Workload::Cbr(CbrModel::heavy()),
                            });
                        }
                    }
                    scenarios.push(Scenario {
                        name: format!("fig12-{label}-{rate_label}-{hidden}"),
                        params: params.clone(),
                        positions: topo.positions.clone(),
                        scheme,
                        flows: specs,
                        duration: cfg.duration,
                        seed: 0,
                        max_forwarders: 5,
                        motion: wmn_netsim::MotionPlan::default(),
                        route_refresh: None,
                        shards: None,
                    });
                }
            }
        }
    }
    let mut avgs = run_grid(&scenarios, cfg).into_iter();
    let mut tables = Vec::new();
    for (rate_label, _) in &rates {
        for hidden in [false, true] {
            let mut table = Table::new(
                format!(
                    "Fig. 12 — Roofnet, {rate_label}{} — TCP throughput (Mbps)",
                    if hidden { ", with hidden terminals" } else { "" }
                ),
                vec!["flow", "DCF", "AFR", "RIPPLE"],
            );
            for (label, _) in &flows {
                // The scenario name keys on the flow, not the scheme, so
                // this checks row/rate/hidden placement (all three schemes
                // of a row share the name).
                let name = format!("fig12-{label}-{rate_label}-{hidden}");
                let row: Vec<f64> = dar_schemes()
                    .iter()
                    .map(|_| next_named(&mut avgs, &name).flows[0].throughput_mbps)
                    .collect();
                table.add_numeric_row(label.clone(), &row);
            }
            tables.push(table);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_sim::SimDuration;

    #[test]
    fn six_labelled_flows() {
        let flows = test_flows();
        assert_eq!(flows.len(), 6);
        assert_eq!(flows[0].0, "3(1)");
        assert_eq!(flows[5].0, "5(2)");
        assert_eq!(flows[4].1.len(), 6, "a 5-hop path has six nodes");
    }

    #[test]
    fn generates_four_tables() {
        let cfg = ExpConfig::custom(SimDuration::from_millis(100), vec![1]);
        let tables = generate(&cfg);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].row_count(), 6);
    }
}
