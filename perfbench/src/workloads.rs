//! The four workloads, as lists of runs the benchmark times one by one.
//!
//! Every workload is a fixed set of scenarios: placements, flows and
//! topology seeds never change. `--seed` is the *run* seed of every run
//! (`Scenario::seed`, or the `run_seeds` axis of a sweep), so two seeds
//! exercise the same shapes with different random draws. Topology seeds are
//! deliberately not derived from `--seed`: on these generators a different
//! placement changes a run's cost by up to 2x (measured on `campus-1k`:
//! 0.76 s to 1.35 s for the same 2 s of simulated time), which would drown
//! any code change the benchmark is meant to show.

use std::ops::Range;

use wmn_netsim::{FlowSpec, MotionPlan, Scenario, Scheme, Workload};
use wmn_phy::PhyParams;
use wmn_scengen::{
    MobilitySpec, PairPolicy, PhyPreset, ScenarioSpec, SweepSpec, TopologySpec, TrafficMix,
};
use wmn_sim::SimDuration;
use wmn_topology::{collision, fig1};
use wmn_traffic::CbrModel;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper_figs", "campus1024", "mobile_refresh", "sweep_short"];

/// How big the workloads are. `Full` is the benchmark of record; `Smoke`
/// shrinks durations and placements so the package's own test can drive
/// every code path in a debug build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` numbers are measured at.
    Full,
    /// Tens of simulated milliseconds on small placements.
    Smoke,
}

/// One separately timed piece of a workload.
#[derive(Clone, Debug)]
pub enum Item {
    /// `wmn_netsim::run(&scenarios[i])`.
    Run(usize),
    /// `wmn_experiments::sweep::run_sweep(&spec, 1)`, whose grid is exactly
    /// `scenarios[runs]` (expansion order × run seeds).
    Sweep {
        /// The one-cell-group sweep to execute.
        spec: Box<SweepSpec>,
        /// The slice of [`Plan::scenarios`] this sweep expands to.
        runs: Range<usize>,
    },
}

/// A workload made concrete for one `--seed`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// Every simulation run the workload performs in one pass, with its run
    /// seed and duration set.
    pub scenarios: Vec<Scenario>,
    /// The timed pieces; together they execute each scenario exactly once.
    pub items: Vec<Item>,
    /// Scenarios `wmn_scengen` materialised to build the plan (zero where
    /// the scenarios are written out by hand).
    pub generated: usize,
}

impl Plan {
    /// Simulated seconds covered by one pass over the items.
    pub fn sim_seconds(&self) -> f64 {
        self.scenarios.iter().map(|s| s.duration.as_secs_f64()).sum()
    }
}

/// Builds the named workload for `seed`.
///
/// # Errors
///
/// Unknown workload names and scenario-generation failures (a preset that no
/// longer materialises) are reported verbatim.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Plan, String> {
    match name {
        "paper_figs" => Ok(paper_figs(seed, scale)),
        "campus1024" => campus1024(seed, scale),
        "mobile_refresh" => mobile_refresh(seed, scale),
        "sweep_short" => sweep_short(seed, scale),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// `count` distinct run seeds per `--seed`, never shared between
/// neighbouring `--seed` values.
fn derived_seeds(seed: u64, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |i| seed.wrapping_mul(1_000).wrapping_add(i))
}

fn run_items(name: &'static str, scenarios: Vec<Scenario>, generated: usize) -> Plan {
    let items = (0..scenarios.len()).map(Item::Run).collect();
    Plan { name, scenarios, items, generated }
}

/// The scenario grids of `fig3::generate(1e-6, cfg)` and
/// `fig6::generate_hidden(cfg)`, rebuilt here because those entry points
/// return rendered tables, not `RunResult`s. [`crate::checks`] regenerates
/// the real tables once per invocation and compares them cell by cell with
/// what these scenarios produced, so the copy cannot drift unnoticed.
fn paper_figs(seed: u64, scale: Scale) -> Plan {
    let duration = match scale {
        Scale::Full => SimDuration::from_millis(500),
        Scale::Smoke => SimDuration::from_millis(30),
    };
    let scenario = |name: String, params: &PhyParams, positions, scheme, flows| Scenario {
        name,
        params: params.clone(),
        positions,
        scheme,
        flows,
        duration,
        seed,
        max_forwarders: 5,
        motion: MotionPlan::default(),
        route_refresh: None,
        shards: None,
    };
    let mut scenarios = Vec::new();
    let topo = fig1::topology();
    let params = PhyParams::paper_216().with_ber(1e-6);
    for route_set in fig1::RouteSet::ALL {
        for (label, scheme, direct) in wmn_experiments::common::figure_schemes() {
            for active in 1..=3usize {
                let flows = (1..=active)
                    .map(|f| {
                        let path = if direct {
                            let (s, d) = fig1::flow_endpoints(f);
                            vec![s, d]
                        } else {
                            route_set.flow_path(f)
                        };
                        FlowSpec { path, workload: Workload::Ftp }
                    })
                    .collect();
                scenarios.push(scenario(
                    format!("fig3-{}-{label}-{active}", route_set.label()),
                    &params,
                    topo.positions.clone(),
                    scheme,
                    flows,
                ));
            }
        }
    }
    let params = PhyParams::paper_216();
    for (label, scheme) in wmn_experiments::common::dar_schemes() {
        for n_hidden in [0usize, 1, 3, 5, 7, 9] {
            let topo = collision::hidden_terminals(n_hidden);
            let mut flows =
                vec![FlowSpec { path: collision::hidden_main_path(), workload: Workload::Ftp }];
            for k in 0..n_hidden {
                let (s, d) = collision::hidden_flow_endpoints(k);
                flows.push(FlowSpec {
                    path: vec![s, d],
                    workload: Workload::Cbr(CbrModel::heavy()),
                });
            }
            scenarios.push(scenario(
                format!("fig6b-{label}-{n_hidden}"),
                &params,
                topo.positions,
                scheme,
                flows,
            ));
        }
    }
    run_items("paper_figs", scenarios, 0)
}

/// `ScenarioSpec::campus_scale()` on the sharded engine at one shard: the
/// keyed queue and per-entity RNG streams, with no second thread. Four runs
/// under four run seeds, because one run's frame count moves by a tenth with
/// the seed (TCP on a saturated campus is chaotic) and the sum moves by half
/// of that.
fn campus1024(seed: u64, scale: Scale) -> Result<Plan, String> {
    let mut spec = ScenarioSpec::campus_scale();
    let (runs, duration) = match scale {
        Scale::Full => (4, SimDuration::from_millis(750)),
        Scale::Smoke => {
            spec.topology = TopologySpec::Campus {
                clusters: 4,
                nodes_per_cluster: 16,
                cluster_radius_m: 3.0,
                side_m: 20.0,
            };
            (1, SimDuration::from_millis(20))
        }
    };
    let mut scenario = spec.materialise()?;
    scenario.duration = duration;
    scenario.shards = Some(1);
    let scenarios = derived_seeds(seed, runs)
        .map(|run_seed| Scenario { seed: run_seed, ..scenario.clone() })
        .collect();
    Ok(run_items("campus1024", scenarios, 1))
}

/// Drifting random meshes with live routing: every node's link-state row is
/// rewritten and every flow re-routed on each 50 ms tick.
fn mobile_refresh(seed: u64, scale: Scale) -> Result<Plan, String> {
    let (nodes, side_m, topologies, run_seeds, duration_ms) = match scale {
        Scale::Full => (196, 42.0, 10u64, 2, 500),
        Scale::Smoke => (36, 18.0, 2, 1, 120),
    };
    let mut scenarios = Vec::new();
    for topo_seed in 1..=topologies {
        let spec = ScenarioSpec {
            name: format!("mobile-t{topo_seed}"),
            topology: TopologySpec::RandomGeometric { nodes, side_m },
            mix: TrafficMix { ftp: 2, web: 1, voip: 2, cbr: 1, pairing: PairPolicy::FarPairs },
            scheme: Scheme::Ripple { aggregation: 16 },
            phy: PhyPreset::Mbps216,
            ber: None,
            duration_ms,
            seed: topo_seed,
            max_forwarders: 5,
            mobility: MobilitySpec::Drift { max_speed_mps: 2.0 },
            route_refresh_ms: Some(50),
            shards: None,
        };
        let scenario = spec.materialise()?;
        scenarios.extend(
            derived_seeds(seed, run_seeds)
                .map(|run_seed| Scenario { seed: run_seed, ..scenario.clone() }),
        );
    }
    Ok(run_items("mobile_refresh", scenarios, topologies as usize))
}

/// A generated sweep of short runs, one `run_sweep` call per
/// (topology, mix, scheme) cell group so each call is timed on its own.
fn sweep_short(seed: u64, scale: Scale) -> Result<Plan, String> {
    let (topologies, topo_seeds, run_seeds, duration_ms) = match scale {
        Scale::Full => (
            vec![
                TopologySpec::RandomGeometric { nodes: 48, side_m: 40.0 },
                TopologySpec::Grid { cols: 6, rows: 6, spacing_m: 5.0 },
                TopologySpec::RandomGeometric { nodes: 12, side_m: 30.0 },
            ],
            vec![1, 2],
            2u64,
            200,
        ),
        Scale::Smoke => {
            (vec![TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 }], vec![1], 1, 50)
        }
    };
    let mixes = [
        TrafficMix { ftp: 2, web: 1, voip: 1, cbr: 0, pairing: PairPolicy::Random },
        TrafficMix { ftp: 1, web: 0, voip: 2, cbr: 1, pairing: PairPolicy::Gateway },
    ];
    let schemes = [
        Scheme::Dcf { aggregation: 1 },
        Scheme::Dcf { aggregation: 16 },
        Scheme::McExor,
        Scheme::Ripple { aggregation: 16 },
    ];
    let run_seeds: Vec<u64> = derived_seeds(seed, run_seeds).collect();
    let mut scenarios = Vec::new();
    let mut items = Vec::new();
    let mut generated = 0;
    for topology in &topologies {
        for mix in mixes {
            for scheme in schemes {
                let spec = SweepSpec {
                    name: "bench".into(),
                    topologies: vec![topology.clone()],
                    mixes: vec![mix],
                    schemes: vec![scheme],
                    topo_seeds: topo_seeds.clone(),
                    run_seeds: run_seeds.clone(),
                    phy: PhyPreset::Mbps216,
                    ber: None,
                    duration_ms,
                    max_forwarders: 5,
                    mobilities: vec![MobilitySpec::Static],
                    route_refresh_ms: None,
                    shards: None,
                };
                let start = scenarios.len();
                // The same expansion `run_grid` performs inside `run_sweep`:
                // scenario-major, run seed innermost.
                for cell in spec.expand()? {
                    generated += 1;
                    for &run_seed in &run_seeds {
                        let mut scenario = cell.clone();
                        scenario.seed = run_seed;
                        scenarios.push(scenario);
                    }
                }
                items.push(Item::Sweep { spec: Box::new(spec), runs: start..scenarios.len() });
            }
        }
    }
    Ok(Plan { name: "sweep_short", scenarios, items, generated })
}
