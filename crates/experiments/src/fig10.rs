//! Fig. 10: per-flow TCP throughput on the (synthetic) Wigle topology, at
//! 6 and 216 Mbps PHY rates, with and without the hidden S→R flow.
//!
//! Routes come from ETX; flow labels spell out the path like the paper's
//! x-axis ("1-4-6-8"). Expected shape: RIPPLE ≥ AFR ≥ DCF on nearly every
//! flow, with gains up to ~2–3×.

use wmn_metrics::Table;
use wmn_netsim::{FlowSpec, Scenario, Workload};
use wmn_phy::{LinkModel, PhyParams};
use wmn_routing::LinkGraph;
use wmn_sim::NodeId;
use wmn_topology::wigle;
use wmn_traffic::CbrModel;

use crate::common::{dar_schemes, next_named, run_grid, ExpConfig};

fn path_label(path: &[NodeId]) -> String {
    path.iter().map(|n| n.index().to_string()).collect::<Vec<_>>().join("-")
}

/// The ETX paths of the eight Fig. 10 flows.
pub fn flow_paths() -> Vec<Vec<NodeId>> {
    let topo = wigle::topology();
    let graph = LinkGraph::from_placement(&LinkModel::paper(), &topo.positions);
    wigle::flow_pairs()
        .into_iter()
        .map(|(s, d)| graph.shortest_path(s, d).expect("wigle pairs are connected"))
        .collect()
}

/// One table per (rate, hidden) combination, per-flow throughput rows.
pub fn generate(cfg: &ExpConfig) -> Vec<Table> {
    let topo = wigle::topology();
    let paths = flow_paths();
    let rates = [("6Mbps", PhyParams::paper_6()), ("216Mbps", PhyParams::paper_216())];
    let mut scenarios = Vec::new();
    for (rate_label, params) in &rates {
        for hidden in [false, true] {
            for (label, scheme) in dar_schemes() {
                let mut flows: Vec<FlowSpec> = paths
                    .iter()
                    .map(|p| FlowSpec { path: p.clone(), workload: Workload::Ftp })
                    .collect();
                if hidden {
                    flows.push(FlowSpec {
                        path: vec![wigle::HIDDEN_SRC, wigle::HIDDEN_DST],
                        workload: Workload::Cbr(CbrModel::heavy()),
                    });
                }
                scenarios.push(Scenario {
                    name: format!("fig10-{label}-{rate_label}-{hidden}"),
                    params: params.clone(),
                    positions: topo.positions.clone(),
                    scheme,
                    flows,
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
    let mut avgs = run_grid(&scenarios, cfg).into_iter();
    let mut tables = Vec::new();
    for (rate_label, _) in &rates {
        for hidden in [false, true] {
            let mut table = Table::new(
                format!(
                    "Fig. 10 — Wigle, {rate_label}{} — per-flow TCP throughput (Mbps)",
                    if hidden { ", with hidden S->R" } else { "" }
                ),
                vec!["flow (path)", "DCF", "AFR", "RIPPLE"],
            );
            let columns: Vec<Vec<f64>> = dar_schemes()
                .iter()
                .map(|(label, _)| {
                    let name = format!("fig10-{label}-{rate_label}-{hidden}");
                    let avg = next_named(&mut avgs, &name);
                    avg.flows.iter().take(paths.len()).map(|f| f.throughput_mbps).collect()
                })
                .collect();
            for (i, path) in paths.iter().enumerate() {
                table.add_numeric_row(
                    path_label(path),
                    &[columns[0][i], columns[1][i], columns[2][i]],
                );
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
    fn eight_flows_with_path_labels() {
        let paths = flow_paths();
        assert_eq!(paths.len(), 8);
        for p in &paths {
            assert!((2..=4).contains(&p.len()), "1-3 hops: {}", path_label(p));
        }
    }

    #[test]
    fn tables_cover_rate_and_hidden_grid() {
        let cfg = ExpConfig::custom(SimDuration::from_millis(120), vec![1]);
        let tables = generate(&cfg);
        assert_eq!(tables.len(), 4, "2 rates x (plain, hidden)");
        assert_eq!(tables[0].row_count(), 8);
    }
}
