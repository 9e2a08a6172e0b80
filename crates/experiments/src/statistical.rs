//! The statistical judge behind `check_baseline --statistical`: whether a
//! change that moves results on purpose (new random draws, a re-keyed
//! stream) leaves the simulator's *distribution* of results where it was.
//!
//! Digests cannot judge such a change — every byte moves — so the judge
//! runs an ensemble instead: every grid below once per seed of [`SEEDS`],
//! each table cell becoming one sample per seed. A cell keeps its mean, its
//! standard error and its sample count; `--write` stores them, and
//! `--against` reruns the ensemble and fails a cell when Welch's
//! `|t| = |m₁ − m₂| / √(se₁² + se₂²)` exceeds [`T_LIMIT`] (two cells with no
//! spread fail unless their means are equal). Every ordering
//! `tests/paper_shapes.rs` asserts must also hold on the fresh ensemble
//! means ([`orderings`]).
//!
//! Cells are checked on six grids: Fig. 3 (BER 1e-6), Fig. 6(b), Table III,
//! and one grid per generated workload family — the 4 × 16 smoke campus,
//! `ci-mobility-refresh` and `ci-quick`. The other grids an ordering reads
//! (motivation, Fig. 4, Fig. 7, Fig. 10 and the four-station chain) feed
//! the orderings only.

use std::sync::Arc;

use wmn_exec::json::Value;
use wmn_exec::{Executor, RunPlan};
use wmn_metrics::Table;
use wmn_netsim::{FlowSpec, MotionPlan, RunResult, Scenario, Scheme, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_scengen::{PairPolicy, PhyPreset, SweepSpec, TopologySpec, TrafficMix};
use wmn_sim::{NodeId, SimDuration};

use crate::common::ExpConfig;
use crate::{fig10, fig3, fig6, fig7, motivation, sweep, table3};

/// The ensemble: every grid runs once per seed.
pub const SEEDS: std::ops::RangeInclusive<u64> = 1..=20;
/// Simulated time per figure run (the `quick` configuration's).
pub const FIGURE_MS: u64 = 1000;
/// Welch's `|t|` above which a cell has moved.
pub const T_LIMIT: f64 = 4.0;

/// One cell over the ensemble.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// `grid/table/row/column`.
    pub key: String,
    /// Mean over the seeds that gave the cell a number.
    pub mean: f64,
    /// Standard error of that mean (sample deviation / √n).
    pub se: f64,
    /// Seeds that gave the cell a number.
    pub n: u64,
    /// Whether the judge compares this cell, or only reads its mean for an
    /// ordering.
    pub checked: bool,
}

/// Every cell of the ensemble, in grid order.
#[derive(Clone, Debug)]
pub struct Ensemble {
    pub cells: Vec<Cell>,
}

impl Ensemble {
    /// Runs every grid at every seed of [`SEEDS`] on `jobs` workers.
    ///
    /// # Errors
    ///
    /// A generated grid that fails to expand.
    pub fn run(jobs: usize) -> Result<Ensemble, String> {
        let mut samples = Samples::default();
        for seed in SEEDS {
            let cfg = ExpConfig {
                duration: SimDuration::from_millis(FIGURE_MS),
                seeds: vec![seed],
                jobs,
                shards: None,
            };
            samples.tables("fig3", true, &fig3::generate(1e-6, &cfg));
            samples.tables("fig6b", true, &[fig6::generate_hidden(&cfg)]);
            samples.tables("table3", true, &table3::generate(&cfg));
            for spec in [smoke_campus(), SweepSpec::ci_mobility_refresh(), SweepSpec::ci_quick()] {
                let spec = SweepSpec { run_seeds: vec![seed], ..spec };
                let name = spec.name.clone();
                samples.tables(&name, true, &[sweep::run_sweep(&spec, jobs)?.table]);
            }
            samples.tables("motivation", false, &[motivation::generate(&cfg)]);
            samples.tables("fig4", false, &fig3::generate(1e-5, &cfg));
            samples.tables("fig7", false, &fig7::generate(&cfg));
            samples.tables("fig10", false, &fig10::generate(&cfg));
            samples.tables("chain", false, &[chain_table(seed, jobs)]);
        }
        Ok(Ensemble { cells: samples.cells() })
    }

    /// The mean of cell `key`, if the ensemble has it.
    pub fn mean(&self, key: &str) -> Option<f64> {
        self.cells.iter().find(|c| c.key == key).map(|c| c.mean)
    }

    /// The reference document `--write` stores: the checked cells only.
    pub fn to_json(&self) -> Value {
        let cells = self
            .cells
            .iter()
            .filter(|c| c.checked)
            .map(|c| {
                Value::obj()
                    .with("cell", c.key.as_str())
                    .with("mean", c.mean)
                    .with("se", c.se)
                    .with("n", c.n)
            })
            .collect();
        let held = orderings(self).iter().filter(|o| o.1).count() as u64;
        Value::obj()
            .with(
                "comment",
                "Ensemble reference for `check_baseline --statistical --against`: per cell, \
                 the mean, standard error and count over seeds 1-20 (see \
                 crates/experiments/src/statistical.rs).",
            )
            .with("seeds", Value::Arr(SEEDS.map(Value::from).collect()))
            .with("figure_ms", FIGURE_MS)
            .with("orderings_held", held)
            .with("cells", Value::Arr(cells))
    }
}

/// What `--against` found.
#[derive(Debug)]
pub struct Verdict {
    /// Reference cells compared.
    pub checked: usize,
    /// One line per failed cell.
    pub failed: Vec<String>,
    /// Every ordering, with whether it held on the fresh means.
    pub orderings: Vec<(String, bool)>,
}

impl Verdict {
    /// Whether every cell and every ordering passed.
    pub fn passed(&self) -> bool {
        self.failed.is_empty() && self.orderings.iter().all(|o| o.1)
    }

    /// The one-line summary.
    pub fn summary(&self) -> String {
        let held = self.orderings.iter().filter(|o| o.1).count();
        format!(
            "statistical judge: {} cells checked, {} failed, {held}/{} orderings held",
            self.checked,
            self.failed.len(),
            self.orderings.len()
        )
    }
}

/// Judges `fresh` against a reference document [`Ensemble::to_json`] wrote.
///
/// # Errors
///
/// A reference that is not such a document.
pub fn judge(reference: &Value, fresh: &Ensemble) -> Result<Verdict, String> {
    let cells = reference.get("cells").and_then(Value::as_arr).ok_or("reference: no \"cells\"")?;
    let mut failed = Vec::new();
    for cell in cells {
        let field = |name: &str| cell.get(name).and_then(Value::as_f64);
        let (Some(key), Some(mean), Some(se)) =
            (cell.get("cell").and_then(Value::as_str), field("mean"), field("se"))
        else {
            return Err(format!("reference: malformed cell {cell}"));
        };
        let Some(now) = fresh.cells.iter().find(|c| c.key == key) else {
            failed.push(format!("{key}: missing from the fresh ensemble"));
            continue;
        };
        let (gap, spread) = (now.mean - mean, (se * se + now.se * now.se).sqrt());
        let t = match spread > 0.0 {
            true => gap / spread,
            // No spread on either side: equal up to the document's rounding.
            false if gap.abs() <= 1e-9 * mean.abs().max(1.0) => 0.0,
            false => f64::INFINITY,
        };
        if t.is_nan() || t.abs() > T_LIMIT {
            failed.push(format!(
                "{key}: {mean:.4} ± {se:.4} → {:.4} ± {:.4} (t = {t:.2})",
                now.mean, now.se
            ));
        }
    }
    Ok(Verdict { checked: cells.len(), failed, orderings: orderings(fresh) })
}

/// Per-cell samples, in first-seen order.
#[derive(Default)]
struct Samples {
    cells: Vec<(String, bool, Vec<f64>)>,
}

impl Samples {
    /// Adds one seed's `tables` of grid `grid`: every cell that parses as a
    /// number, keyed by its row's first cell and its column header.
    fn tables(&mut self, grid: &str, checked: bool, tables: &[Table]) {
        for (t, table) in tables.iter().enumerate() {
            for row in table.rows() {
                for (header, value) in table.headers().iter().zip(row).skip(1) {
                    let Ok(value) = value.parse::<f64>() else { continue };
                    if header == "nodes" || header == "flows" {
                        continue; // structure, not a result
                    }
                    let key = format!("{grid}/{t}/{}/{header}", row[0]);
                    match self.cells.iter_mut().find(|c| c.0 == key) {
                        Some(cell) => cell.2.push(value),
                        None => self.cells.push((key, checked, vec![value])),
                    }
                }
            }
        }
    }

    fn cells(self) -> Vec<Cell> {
        self.cells
            .into_iter()
            .map(|(key, checked, xs)| {
                let n = xs.len() as f64;
                let mean = xs.iter().sum::<f64>() / n;
                let var = if xs.len() > 1 {
                    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
                } else {
                    0.0
                };
                Cell { key, mean, se: (var / n).sqrt(), n: xs.len() as u64, checked }
            })
            .collect()
    }
}

/// The perfbench smoke campus (4 clusters of 16 on a 20 m square, the
/// campus preset's mix and scheme) as a one-cell sweep, run for 200 ms.
fn smoke_campus() -> SweepSpec {
    SweepSpec {
        name: "smoke-campus".into(),
        topologies: vec![TopologySpec::Campus {
            clusters: 4,
            nodes_per_cluster: 16,
            cluster_radius_m: 3.0,
            side_m: 20.0,
        }],
        mixes: vec![TrafficMix { ftp: 2, web: 0, voip: 2, cbr: 2, pairing: PairPolicy::Random }],
        schemes: vec![Scheme::Ripple { aggregation: 16 }],
        duration_ms: 200,
        phy: PhyPreset::Mbps216,
        ..SweepSpec::ci_quick()
    }
}

/// `tests/paper_shapes.rs`' four-station chain at one seed: FTP under
/// DCF, RIPPLE-1, AFR and RIPPLE-16 (throughput, Mbps), and one VoIP call
/// under RIPPLE-16 (delay in ms, MoS, datagrams received).
fn chain_table(seed: u64, jobs: usize) -> Table {
    let chain = |scheme, workload, ms| Scenario {
        name: "chain".into(),
        params: PhyParams::paper_216(),
        positions: (0..4).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect(),
        scheme,
        flows: vec![FlowSpec { path: (0..4).map(NodeId::new).collect(), workload }],
        duration: SimDuration::from_millis(ms),
        seed,
        max_forwarders: 5,
        motion: MotionPlan::default(),
        route_refresh: None,
        shards: None,
    };
    let ftp = [
        Scheme::Dcf { aggregation: 1 },
        Scheme::Ripple { aggregation: 1 },
        Scheme::Dcf { aggregation: 16 },
        Scheme::Ripple { aggregation: 16 },
    ];
    let mut plan = RunPlan::new();
    let mut push = |scenario: Scenario| {
        let prepared = scenario.into_prepared().expect("the chain is well-formed");
        plan.push(Arc::new(prepared), seed);
    };
    for scheme in ftp {
        push(chain(scheme, Workload::Ftp, 400));
    }
    let voip = Workload::Voip(wmn_traffic::VoipModel::paper());
    push(chain(Scheme::Ripple { aggregation: 16 }, voip, 600));
    let results: Vec<RunResult> = Executor::new(jobs).execute(&plan).results;
    let mut table = Table::new("chain", vec!["row", "value"]);
    for (scheme, result) in ftp.iter().zip(&results) {
        table.add_numeric_row(scheme.to_string(), &[result.flows[0].throughput_mbps]);
    }
    let call = results[4].flows[0].voip.expect("a VoIP flow reports VoIP results");
    table.add_numeric_row("voip delay ms", &[call.mean_delay.as_secs_f64() * 1e3]);
    table.add_numeric_row("voip mos", &[call.mos]);
    table.add_numeric_row("voip received", &[call.received as f64]);
    table
}

/// Every ordering `tests/paper_shapes.rs` asserts, on the ensemble means,
/// each with whether it held (a cell the ensemble lacks fails it).
pub fn orderings(e: &Ensemble) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut check = |name: String, cells: &[String], holds: &dyn Fn(&[f64]) -> bool| {
        let means: Option<Vec<f64>> = cells.iter().map(|key| e.mean(key)).collect();
        out.push((name, means.is_some_and(|m| holds(&m))));
    };
    let key =
        |grid: &str, table: usize, row: &str, col: &str| format!("{grid}/{table}/{row}/{col}");
    // Section II motivation.
    let m = |row: &str, col: &str| key("motivation", 0, row, col);
    let (tput, reorder) = ("throughput (Mbps)", "reordered (%)");
    check("motivation: SPR > preExOR".into(), &[m("SPR", tput), m("preExOR", tput)], &|v| {
        v[0] > v[1]
    });
    check("motivation: SPR > MCExOR".into(), &[m("SPR", tput), m("MCExOR", tput)], &|v| {
        v[0] > v[1]
    });
    check("motivation: SPR reorders < 0.5 %".into(), &[m("SPR", reorder)], &|v| v[0] < 0.5);
    for scheme in ["preExOR", "MCExOR"] {
        check(format!("motivation: {scheme} reorders > 2 %"), &[m(scheme, reorder)], &|v| {
            v[0] > 2.0
        });
    }
    // Fig. 3(a), ROUTE0, one flow.
    let f3 = |row: &str| key("fig3", 0, row, "flow 1");
    let route0 = [f3("S"), f3("D"), f3("R1"), f3("A"), f3("R16")];
    check("fig3 ROUTE0: D > 5·S".into(), &route0, &|v| v[1] > 5.0 * v[0]);
    check("fig3 ROUTE0: R1 > D".into(), &route0, &|v| v[2] > v[1]);
    check("fig3 ROUTE0: A > D".into(), &route0, &|v| v[3] > v[1]);
    check("fig3 ROUTE0: R16 > A".into(), &route0, &|v| v[4] > v[3]);
    check("fig3 ROUTE0: R16 > 2·D".into(), &route0, &|v| v[4] > 2.0 * v[1]);
    // Fig. 4: the noisy channel keeps the winner and helps no one.
    let f4 = |row: &str| key("fig4", 0, row, "flow 1");
    check("fig4 ROUTE0: R16 > D".into(), &[f4("R16"), f4("D")], &|v| v[0] > v[1]);
    check("fig4 ROUTE0: R16 < 1.1 · fig3's".into(), &[f4("R16"), f3("R16")], &|v| {
        v[0] < 1.1 * v[1]
    });
    // Section IV-A ablation on the chain.
    let c = |row: &str| key("chain", 0, row, "value");
    let chain = [c("DCF"), c("RIPPLE-1"), c("AFR"), c("RIPPLE-16")];
    check("chain: R1 > DCF".into(), &chain, &|v| v[1] > v[0]);
    check("chain: AFR > DCF".into(), &chain, &|v| v[2] > v[0]);
    check("chain: R16 > AFR".into(), &chain, &|v| v[3] > v[2]);
    check("chain: R16 > R1".into(), &chain, &|v| v[3] > v[1]);
    let call = [c("voip received"), c("voip delay ms"), c("voip mos")];
    check("chain VoIP: received, < 10 ms, MoS > 3.5".into(), &call, &|v| {
        v[0] > 0.0 && v[1] < 10.0 && v[2] > 3.5
    });
    // Fig. 7(a): decay with hops, and RIPPLE on top at 7.
    for scheme in ["DCF", "AFR", "RIPPLE"] {
        let decay = [key("fig7", 0, scheme, "2"), key("fig7", 0, scheme, "7")];
        check(format!("fig7: {scheme} decays from 2 to 7 hops"), &decay, &|v| v[0] > v[1]);
    }
    let seven = [key("fig7", 0, "RIPPLE", "7"), key("fig7", 0, "DCF", "7")];
    check("fig7: RIPPLE > DCF at 7 hops".into(), &seven, &|v| v[0] > v[1]);
    // Table III at 30 calls, both BERs.
    for t in 0..2 {
        let at30 = |row: &str| key("table3", t, row, "flows 1..30");
        let cells = [at30("RIPPLE"), at30("DCF"), at30("AFR")];
        check(format!("table3 {t}: RIPPLE ≥ DCF, AFR − 0.15 at 30 calls"), &cells, &|v| {
            v[0] >= v[1] - 0.15 && v[0] >= v[2] - 0.15
        });
    }
    // Fig. 10 at 216 Mbps: RIPPLE beats DCF on most flows.
    let flows: Vec<String> = e
        .cells
        .iter()
        .filter_map(|c| c.key.strip_prefix("fig10/2/")?.strip_suffix("/DCF").map(str::to_string))
        .collect();
    let pairs: Vec<String> = flows
        .iter()
        .flat_map(|flow| [key("fig10", 2, flow, "DCF"), key("fig10", 2, flow, "RIPPLE")])
        .collect();
    check("fig10 216 Mbps: RIPPLE > DCF on most flows".into(), &pairs, &|v| {
        let wins = v.chunks(2).filter(|p| p[1] > p[0]).count();
        !v.is_empty() && wins * 2 > v.len() / 2
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ensemble(cells: &[(&str, f64, f64)]) -> Ensemble {
        let cells = cells
            .iter()
            .map(|&(key, mean, se)| Cell { key: key.into(), mean, se, n: 20, checked: true })
            .collect();
        Ensemble { cells }
    }

    #[test]
    fn a_cell_fails_past_four_standard_errors_and_when_spreadless_means_differ() {
        let reference = ensemble(&[("a", 10.0, 0.3), ("b", 2.0, 0.0), ("c", 1.0, 0.1)]).to_json();
        // a: t = 1.2 / 0.5 = 2.4; b: equal without spread; c: missing.
        let near = ensemble(&[("a", 11.2, 0.4), ("b", 2.0, 0.0)]);
        let verdict = judge(&reference, &near).unwrap();
        assert_eq!(verdict.checked, 3);
        assert_eq!(verdict.failed.len(), 1, "{:?}", verdict.failed);
        assert!(verdict.failed[0].starts_with("c: missing"));
        // a: t = 2.1 / 0.5 = 4.2; b: no spread, moved.
        let far = ensemble(&[("a", 12.1, 0.4), ("b", 2.5, 0.0), ("c", 1.0, 0.1)]);
        let failed = judge(&reference, &far).unwrap().failed;
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].starts_with("a:") && failed[1].starts_with("b:"), "{failed:?}");
    }

    #[test]
    fn an_ordering_on_a_missing_cell_fails() {
        let verdict = judge(&ensemble(&[]).to_json(), &ensemble(&[])).unwrap();
        assert_eq!(verdict.checked, 0);
        assert!(!verdict.orderings.is_empty() && verdict.orderings.iter().all(|o| !o.1));
        assert!(!verdict.passed());
    }

    #[test]
    fn samples_skip_structure_and_text_and_keep_the_sample_deviation() {
        let mut samples = Samples::default();
        for (nodes, mbps) in [("12", "1.00"), ("12", "3.00")] {
            let mut table = Table::new("t", vec!["scenario", "nodes", "total Mbps", "mean MoS"]);
            table.add_row(vec!["s".into(), nodes.into(), mbps.into(), "-".into()]);
            samples.tables("g", true, &[table]);
        }
        let cells = samples.cells();
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!((cell.key.as_str(), cell.mean, cell.n), ("g/0/s/total Mbps", 2.0, 2));
        assert!((cell.se - 1.0).abs() < 1e-12, "sd √2 over √2: {}", cell.se);
    }
}
