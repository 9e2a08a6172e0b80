//! Shared experiment plumbing: the parallel `(scenario × seed)` grid runner,
//! seed averaging, and the figure scheme roster.

use wmn_exec::{Executor, RunPlan};
use wmn_metrics::mean;
use wmn_netsim::{RunResult, Scenario, ScenarioError, Scheme};
use wmn_sim::SimDuration;

/// How long, how many times, and how wide to run each configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Simulated duration per run (paper: 10 s).
    pub duration: SimDuration,
    /// Seeds to average over ("All results presented are averages over
    /// multiple runs").
    pub seeds: Vec<u64>,
    /// Worker threads for [`run_grid`]. Defaults to the `RIPPLE_JOBS`
    /// environment selection (host parallelism when unset); results are
    /// bit-identical for any value.
    pub jobs: usize,
    /// Has no effect (every scenario runs the same whatever its `shards`);
    /// it stays only because the frozen benchmark sets it by name.
    pub shards: Option<u32>,
}

impl ExpConfig {
    /// A configuration with explicit duration and seeds, and the
    /// environment-selected worker count.
    pub fn custom(duration: SimDuration, seeds: Vec<u64>) -> Self {
        ExpConfig { duration, seeds, jobs: Executor::from_env().jobs(), shards: None }
    }

    /// Fast settings for CI: 1 s, two seeds.
    pub fn quick() -> Self {
        ExpConfig::custom(SimDuration::from_secs_f64(1.0), vec![1, 2])
    }

    /// The paper's settings: 10 s, five seeds.
    pub fn paper() -> Self {
        ExpConfig::custom(SimDuration::from_secs_f64(10.0), vec![1, 2, 3, 4, 5])
    }

    /// Middle ground used to generate EXPERIMENTS.md: 3 s, three seeds.
    pub fn mid() -> Self {
        ExpConfig::custom(SimDuration::from_secs_f64(3.0), vec![1, 2, 3])
    }

    /// Resolves a `RIPPLE_REPRO` setting: `paper`, `mid`, `quick`, or unset
    /// (meaning quick).
    ///
    /// # Errors
    ///
    /// Any other value is rejected with a message naming the valid settings
    /// — a typo like `RIPPLE_REPRO=papre` must not silently produce a quick
    /// run that looks like the real thing.
    pub fn parse_repro(value: Option<&str>) -> Result<Self, String> {
        // Trim like the RIPPLE_JOBS parser does, so the two env knobs agree
        // on what counts as a value.
        match value.map(str::trim) {
            None => Ok(ExpConfig::quick()),
            Some("quick") => Ok(ExpConfig::quick()),
            Some("mid") => Ok(ExpConfig::mid()),
            Some("paper") => Ok(ExpConfig::paper()),
            Some(other) => Err(format!(
                "RIPPLE_REPRO must be one of \"quick\", \"mid\", \"paper\" (or unset), \
                 got {other:?}"
            )),
        }
    }

    /// Reads `RIPPLE_REPRO` from the environment ([`Self::parse_repro`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`Self::parse_repro`] message on an unknown value.
    // The experiment harness's one config boundary: picks how long and how
    // often to run, before any run starts.
    #[allow(clippy::disallowed_methods)]
    pub fn from_env() -> Self {
        let value = std::env::var("RIPPLE_REPRO").ok();
        match Self::parse_repro(value.as_deref()) {
            Ok(cfg) => cfg,
            Err(msg) => panic!("{msg}"),
        }
    }
}

/// Seed-averaged per-flow results.
#[derive(Clone, Debug)]
pub struct AvgFlow {
    /// Mean throughput, Mbps.
    pub throughput_mbps: f64,
    /// Mean TCP re-order fraction (0 for non-TCP flows).
    pub reorder_fraction: f64,
    /// Mean MoS (VoIP flows only).
    pub mos: Option<f64>,
}

/// Seed-averaged results for one scenario configuration.
#[derive(Clone, Debug)]
pub struct AvgResult {
    /// The name of the scenario these averages came from (used by
    /// [`next_named`] to pin table cells to grid entries).
    pub scenario: String,
    /// Per-flow averages, in scenario flow order.
    pub flows: Vec<AvgFlow>,
    /// Mean total throughput, Mbps.
    pub total_throughput_mbps: f64,
}

/// Averages one scenario's per-seed results, in seed order.
fn average(name: &str, flow_count: usize, samples: &[RunResult]) -> AvgResult {
    let mut totals = Vec::with_capacity(samples.len());
    let mut per_flow: Vec<Vec<(f64, f64, Option<f64>)>> = vec![Vec::new(); flow_count];
    for result in samples {
        totals.push(result.total_throughput_mbps);
        for (i, f) in result.flows.iter().enumerate() {
            per_flow[i].push((
                f.throughput_mbps,
                f.tcp.map(|t| t.reorder_fraction()).unwrap_or(0.0),
                f.voip.map(|v| v.mos),
            ));
        }
    }
    let flows = per_flow
        .into_iter()
        .map(|samples| {
            let tputs: Vec<f64> = samples.iter().map(|s| s.0).collect();
            let reorders: Vec<f64> = samples.iter().map(|s| s.1).collect();
            let moses: Vec<f64> = samples.iter().filter_map(|s| s.2).collect();
            AvgFlow {
                throughput_mbps: mean(&tputs),
                reorder_fraction: mean(&reorders),
                mos: if moses.is_empty() { None } else { Some(mean(&moses)) },
            }
        })
        .collect();
    AvgResult { scenario: name.to_string(), flows, total_throughput_mbps: mean(&totals) }
}

/// Runs every `(scenario, seed)` combination of the grid — fanned across
/// `cfg.jobs` worker threads — and returns one seed-averaged result per
/// scenario, in scenario order.
///
/// This is the single entry point every figure/table module funnels
/// through: the per-run seed/duration overrides, the run ordering, and the
/// averaging all live here, so the numbers are identical to the historical
/// serial per-module seed loops for any worker count.
///
/// # Panics
///
/// If a scenario breaks a rule of [`Scenario::validate`]: the figure grids
/// are built in code. A sweep's cells, which come from outside the
/// program, are reported instead (`run_sweep`).
pub fn run_grid(scenarios: &[Scenario], cfg: &ExpConfig) -> Vec<AvgResult> {
    try_run_grid(scenarios, cfg).unwrap_or_else(|e| panic!("malformed grid scenario: {e}"))
}

/// [`run_grid`], reporting a malformed scenario instead of running any:
/// the first rule the first malformed scenario breaks, at `cfg.duration`.
pub(crate) fn try_run_grid(
    scenarios: &[Scenario],
    cfg: &ExpConfig,
) -> Result<Vec<AvgResult>, ScenarioError> {
    let plan = RunPlan::grid(scenarios, &cfg.seeds, cfg.duration)?;
    let outcome = Executor::new(cfg.jobs).execute(&plan);
    let per_seed = cfg.seeds.len();
    Ok(scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            average(
                &scenario.name,
                scenario.flows.len(),
                &outcome.results[i * per_seed..(i + 1) * per_seed],
            )
        })
        .collect())
}

/// Pops the next grid result and asserts it came from the scenario named
/// `expected`.
///
/// The grid modules build their scenarios in one loop and assemble tables
/// in a second, independently-written loop; this pins the two together so
/// any drift between them (a reordered axis, a filtered case) fails loudly
/// instead of silently writing one scheme's numbers into another's cells.
///
/// # Panics
///
/// Panics if the iterator is exhausted or the next result's scenario name
/// differs from `expected`.
pub fn next_named(avgs: &mut impl Iterator<Item = AvgResult>, expected: &str) -> AvgResult {
    let avg = avgs.next().unwrap_or_else(|| panic!("grid exhausted before scenario {expected:?}"));
    assert_eq!(
        avg.scenario, expected,
        "build/consume loop drift: expected scenario {expected:?}, grid has {:?}",
        avg.scenario
    );
    avg
}

/// The five schemes of Figs. 3/4 in paper order: S (direct DCF), D
/// (route DCF), R1 (RIPPLE no aggregation), A (AFR), R16 (RIPPLE).
/// `direct` tells the caller to collapse each flow's path to source →
/// destination.
pub fn figure_schemes() -> Vec<(&'static str, Scheme, bool)> {
    vec![
        ("S", Scheme::Dcf { aggregation: 1 }, true),
        ("D", Scheme::Dcf { aggregation: 1 }, false),
        ("R1", Scheme::Ripple { aggregation: 1 }, false),
        ("A", Scheme::Dcf { aggregation: 16 }, false),
        ("R16", Scheme::Ripple { aggregation: 16 }, false),
    ]
}

/// The three-scheme roster (DCF / AFR / RIPPLE) used by Figs. 6–8, 10, 12
/// and Table III.
pub fn dar_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("DCF", Scheme::Dcf { aggregation: 1 }),
        ("AFR", Scheme::Dcf { aggregation: 16 }),
        ("RIPPLE", Scheme::Ripple { aggregation: 16 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_netsim::{run, FlowSpec, Workload};
    use wmn_phy::{PhyParams, Position};
    use wmn_sim::NodeId;

    fn two_node_scenario(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            params: PhyParams::paper_216(),
            positions: vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            scheme: Scheme::Dcf { aggregation: 1 },
            flows: vec![FlowSpec {
                path: vec![NodeId::new(0), NodeId::new(1)],
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(100),
            seed: 0,
            max_forwarders: 5,
            motion: wmn_netsim::MotionPlan::default(),
            route_refresh: None,
            shards: None,
        }
    }

    #[test]
    fn averaging_covers_all_seeds() {
        let scenario = two_node_scenario("avg");
        let cfg = ExpConfig::custom(SimDuration::from_millis(100), vec![1, 2, 3]);
        let avg = run_grid(std::slice::from_ref(&scenario), &cfg).pop().unwrap();
        assert_eq!(avg.flows.len(), 1);
        assert!(avg.flows[0].throughput_mbps > 1.0);
        assert!(avg.total_throughput_mbps > 1.0);
    }

    #[test]
    fn grid_matches_handrolled_serial_loop() {
        let scenarios = vec![two_node_scenario("g0"), two_node_scenario("g1")];
        let cfg = ExpConfig {
            duration: SimDuration::from_millis(40),
            seeds: vec![5, 6],
            jobs: 3,
            shards: None,
        };
        let grid = run_grid(&scenarios, &cfg);
        assert_eq!(grid.len(), 2);
        // The pre-engine serial path: run per seed, average by hand.
        for (scenario, avg) in scenarios.iter().zip(&grid) {
            let mut totals = Vec::new();
            for &seed in &cfg.seeds {
                let mut s = scenario.clone();
                s.seed = seed;
                s.duration = cfg.duration;
                totals.push(run(&s).total_throughput_mbps);
            }
            assert_eq!(avg.total_throughput_mbps, mean(&totals), "bit-identical averages");
        }
    }

    #[test]
    fn repro_parsing_accepts_known_and_rejects_unknown() {
        assert_eq!(ExpConfig::parse_repro(None).unwrap().seeds, vec![1, 2]);
        assert_eq!(ExpConfig::parse_repro(Some("quick")).unwrap().seeds, vec![1, 2]);
        assert_eq!(ExpConfig::parse_repro(Some("mid")).unwrap().seeds, vec![1, 2, 3]);
        assert_eq!(ExpConfig::parse_repro(Some("paper")).unwrap().seeds, vec![1, 2, 3, 4, 5]);
        let err = ExpConfig::parse_repro(Some("papre")).unwrap_err();
        assert!(err.contains("papre"), "error names the bad value: {err}");
        assert!(err.contains("\"paper\""), "error lists the valid settings: {err}");
        assert!(ExpConfig::parse_repro(Some("")).is_err(), "empty is not quick");
        // Whitespace is trimmed, matching the RIPPLE_JOBS parser.
        assert_eq!(ExpConfig::parse_repro(Some(" mid ")).unwrap().seeds, vec![1, 2, 3]);
    }

    #[test]
    fn next_named_pins_consumption_to_build_order() {
        let scenarios = vec![two_node_scenario("cell-a"), two_node_scenario("cell-b")];
        let cfg = ExpConfig::custom(SimDuration::from_millis(10), vec![1]);
        let mut avgs = run_grid(&scenarios, &cfg).into_iter();
        let a = next_named(&mut avgs, "cell-a");
        assert!(a.total_throughput_mbps >= 0.0);
        let misread = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            next_named(&mut avgs, "cell-zzz")
        }));
        assert!(misread.is_err(), "a drifted consume loop must panic, not mislabel");
    }

    #[test]
    fn configs_resolve_a_positive_worker_count() {
        for cfg in [ExpConfig::quick(), ExpConfig::paper(), ExpConfig::mid()] {
            assert!(cfg.jobs >= 1);
        }
    }

    #[test]
    fn scheme_rosters() {
        let figs = figure_schemes();
        assert_eq!(figs.len(), 5);
        assert_eq!(figs[0].0, "S");
        assert!(figs[0].2, "S uses the direct path");
        assert_eq!(dar_schemes().len(), 3);
    }
}
