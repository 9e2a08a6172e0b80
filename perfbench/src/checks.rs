//! Output checks of the end-to-end run, beyond pass-to-pass bit-equality
//! (which [`crate::measure`] does while it times).
//!
//! `PAPER.md` carries no numeric reference tables, so the model is
//! unvalidated against the paper's numbers: these are shape checks only, and
//! no error figure is given.

use wmn_exec::json::{parse, Value};
use wmn_experiments::{fig3, fig6, ExpConfig};
use wmn_netsim::RunResult;

use crate::measure::EndToEnd;
use crate::workloads::{Item, Plan};

/// Every run must put frames on the air, and deliver data end to end:
/// every scenario has at least one routable, always-on flow. The exception
/// is Fig. 3's direct-transmission rows ("S"), whose single hop spans the
/// whole topology and delivers nothing at all on some seeds — that is the
/// figure's point, not a wedged run.
fn progress(plan: &Plan, results: &[RunResult], failures: &mut Vec<String>) {
    for (scenario, result) in plan.scenarios.iter().zip(results) {
        let delivered: u64 = result.flows.iter().map(|f| f.delivered_bytes).sum();
        let direct = scenario.name.starts_with("fig3-") && scenario.name.contains("-S-");
        if crate::measure::frames_sent(result) == 0 {
            failures.push(format!("{}: no frame was transmitted", scenario.name));
        } else if delivered == 0 && !direct {
            failures.push(format!("{}: no flow delivered anything", scenario.name));
        }
    }
}

/// Regenerates the real Fig. 3 and Fig. 6(b) tables through the entry
/// points users call and compares every cell with what the benchmark's own
/// copy of those scenario grids produced; then checks the paper's ordering
/// R16 > D on every ROUTE0/ROUTE1 cell (ROUTE2 cells are too close on a
/// single seed to gate).
fn paper_figs(plan: &Plan, results: &[RunResult], failures: &mut Vec<String>) {
    let first = &plan.scenarios[0];
    let cfg =
        ExpConfig { duration: first.duration, seeds: vec![first.seed], jobs: 1, shards: None };
    let by_name =
        |name: &str| plan.scenarios.iter().position(|s| s.name == name).map(|i| &results[i]);
    let compare = |name: String, cell: Option<&str>, value: Option<f64>| match (cell, value) {
        (Some(cell), Some(value)) if cell == format!("{value:.2}") => None,
        (cell, value) => Some(format!(
            "{name}: table says {cell:?}, the benchmark's copy of the scenario gives {value:?}"
        )),
    };
    let tables = fig3::generate(1e-6, &cfg);
    let schemes = ["S", "D", "R1", "A", "R16"];
    for (table, route) in tables.iter().zip(["ROUTE0", "ROUTE1", "ROUTE2"]) {
        for (row, scheme) in schemes.iter().enumerate() {
            for active in 1..=3usize {
                let name = format!("fig3-{route}-{scheme}-{active}");
                let value = by_name(&name).map(|r| r.total_throughput_mbps);
                failures.extend(compare(name, table.cell(row, active), value));
            }
        }
        if route != "ROUTE2" {
            for active in 1..=3usize {
                let cell = |row| table.cell(row, active).and_then(|c| c.parse::<f64>().ok());
                match (cell(1), cell(4)) {
                    (Some(d), Some(r16)) if r16 > d => {}
                    (d, r16) => failures.push(format!(
                        "fig3 {route}, {active} flow(s): R16 ({r16:?}) must beat D ({d:?})"
                    )),
                }
            }
        }
    }
    let table = fig6::generate_hidden(&cfg);
    for (row, scheme) in ["DCF", "AFR", "RIPPLE"].iter().enumerate() {
        for (col, n_hidden) in [0usize, 1, 3, 5, 7, 9].iter().enumerate() {
            let name = format!("fig6b-{scheme}-{n_hidden}");
            let value = by_name(&name).map(|r| r.flows[0].throughput_mbps);
            failures.extend(compare(name, table.cell(row, col + 1), value));
        }
    }
}

/// Compares each sweep report's "total Mbps" column with the seed-average of
/// the benchmark's own runs of the same cells.
fn sweep(plan: &Plan, e2e: &EndToEnd, failures: &mut Vec<String>) {
    let sweeps = plan.items.iter().filter_map(|i| match i {
        Item::Sweep { spec, runs } => Some((spec, runs)),
        Item::Run(_) => None,
    });
    for ((spec, runs), document) in sweeps.zip(&e2e.documents) {
        let rows = parse(document).ok().and_then(|doc| {
            let table = doc.get("tables")?.as_arr()?.first()?.clone();
            Some(table.get("rows")?.as_arr()?.to_vec())
        });
        let Some(rows) = rows else {
            failures.push(format!("sweep {:?}: report has no table rows", spec.name));
            continue;
        };
        let per_cell = spec.run_seeds.len();
        for (cell, row) in rows.iter().enumerate() {
            let slice = &e2e.results[runs.start + cell * per_cell..][..per_cell];
            let totals: Vec<f64> = slice.iter().map(|r| r.total_throughput_mbps).collect();
            let want = format!("{:.2}", wmn_metrics::mean(&totals));
            let got = row.as_arr().and_then(|r| r.get(3)).and_then(Value::as_str);
            if got != Some(want.as_str()) {
                failures.push(format!(
                    "sweep row {cell} of {:?}: report says {got:?}, direct runs give {want}",
                    plan.scenarios[runs.start + cell * per_cell].name
                ));
            }
        }
    }
}

/// Runs every check that applies to the workload; returns one line per
/// failure.
pub fn output_checks(e2e: &EndToEnd) -> Vec<String> {
    let plan = &e2e.plan;
    let mut failures = Vec::new();
    progress(plan, &e2e.results, &mut failures);
    match plan.name {
        "paper_figs" => paper_figs(plan, &e2e.results, &mut failures),
        "sweep_short" => sweep(plan, e2e, &mut failures),
        _ => {}
    }
    failures
}
