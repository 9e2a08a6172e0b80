//! The generated-scenario sweep driver: expands a [`SweepSpec`] grid
//! through the same [`crate::common::run_grid`] path the paper figures use
//! and
//! renders one deterministic report.
//!
//! The report document deliberately contains **no timing** — only the spec
//! echo, the run count, and the seed-averaged result tables — so the same
//! spec produces byte-identical JSON at any worker count (the property the
//! determinism suite pins).

use wmn_exec::json::Value;
use wmn_exec::report::table_value;
use wmn_metrics::Table;
use wmn_scengen::SweepSpec;
use wmn_sim::SimDuration;

use crate::common::{try_run_grid, ExpConfig};

/// One executed sweep: the rendered table plus the deterministic report
/// document.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Seed-averaged per-scenario results.
    pub table: Table,
    /// The full report: `{sweep, spec, runs, tables}` — worker-count
    /// independent by construction.
    pub document: Value,
}

/// The artefact/file stem a sweep's reports are written under
/// (`sweep_<name>`).
pub fn artefact_name(spec: &SweepSpec) -> String {
    format!("sweep_{}", spec.name)
}

/// Expands `spec`, fans the `(scenario × run_seed)` grid across `jobs`
/// workers, and returns the seed-averaged table plus the deterministic
/// report document.
///
/// # Errors
///
/// Propagates expansion failures (empty axes, unroutable cells) verbatim,
/// and reports a cell that breaks a rule of
/// [`Scenario::validate`](wmn_netsim::Scenario::validate) at the sweep's
/// duration ([`wmn_netsim::ScenarioError`]) instead of running any.
pub fn run_sweep(spec: &SweepSpec, jobs: usize) -> Result<SweepOutcome, String> {
    let scenarios = spec.expand()?;
    let cfg = ExpConfig {
        duration: SimDuration::from_millis(spec.duration_ms),
        seeds: spec.run_seeds.clone(),
        jobs,
        shards: None,
    };
    let avgs = try_run_grid(&scenarios, &cfg).map_err(|e| format!("sweep {:?}: {e}", spec.name))?;
    let mut table = Table::new(
        format!(
            "Sweep {} — seed-averaged throughput over {} runs ({} scenarios × {} seeds)",
            spec.name,
            spec.run_count(),
            scenarios.len(),
            spec.run_seeds.len()
        ),
        vec!["scenario", "nodes", "flows", "total Mbps", "worst flow Mbps", "mean MoS"],
    );
    for (scenario, avg) in scenarios.iter().zip(&avgs) {
        assert_eq!(scenario.name, avg.scenario, "grid order must match expansion order");
        let worst = avg.flows.iter().map(|f| f.throughput_mbps).fold(f64::INFINITY, f64::min);
        let moses: Vec<f64> = avg.flows.iter().filter_map(|f| f.mos).collect();
        let mos = if moses.is_empty() {
            "-".to_string()
        } else {
            format!("{:.2}", moses.iter().sum::<f64>() / moses.len() as f64)
        };
        table.add_row(vec![
            scenario.name.clone(),
            scenario.positions.len().to_string(),
            scenario.flows.len().to_string(),
            format!("{:.2}", avg.total_throughput_mbps),
            format!("{worst:.2}"),
            mos,
        ]);
    }
    let document = Value::obj()
        .with("sweep", spec.name.as_str())
        .with("spec", spec.to_json())
        .with("runs", spec.run_count())
        .with("tables", Value::Arr(vec![table_value(&table)]));
    Ok(SweepOutcome { table, document })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_scengen::{PairPolicy, TopologySpec, TrafficMix};

    /// A two-scenario, four-run sweep that keeps unit-test time low; the
    /// full ci-quick grid is exercised by `tests/sweep_determinism.rs`.
    fn tiny() -> SweepSpec {
        let mut spec = SweepSpec::ci_quick();
        spec.name = "tiny".into();
        spec.topologies = vec![TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 5.0 }];
        spec.mixes =
            vec![TrafficMix { ftp: 1, web: 0, voip: 1, cbr: 0, pairing: PairPolicy::Random }];
        spec.topo_seeds = vec![1, 2];
        spec.run_seeds = vec![1, 2];
        spec.duration_ms = 60;
        spec
    }

    #[test]
    fn sweep_produces_one_row_per_scenario() {
        let spec = tiny();
        let outcome = run_sweep(&spec, 2).unwrap();
        assert_eq!(outcome.table.row_count(), spec.scenario_count());
        // VoIP flows give the MoS column real values on at least one row.
        assert!((0..outcome.table.row_count()).any(|r| outcome.table.cell(r, 5) != Some("-")));
        let text = outcome.document.to_string();
        assert!(text.contains("\"sweep\": \"tiny\""));
        assert!(text.contains("\"runs\": 8"));
        assert!(!text.contains("wall_ms"), "deterministic doc must carry no timing");
    }

    #[test]
    fn sweep_errors_surface_the_cell() {
        let mut spec = tiny();
        spec.mixes.clear();
        assert!(run_sweep(&spec, 1).unwrap_err().contains("empty"));
    }

    #[test]
    fn artefact_name_is_prefixed() {
        assert_eq!(artefact_name(&tiny()), "sweep_tiny");
    }
}
