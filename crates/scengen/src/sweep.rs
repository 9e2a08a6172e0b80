//! [`SweepSpec`]: a cartesian grid of [`ScenarioSpec`]s plus the run-seed
//! axis, expanded for the `wmn_exec` engine.
//!
//! A sweep is the generated-scenario analogue of the figure modules'
//! hand-written grids: every combination of topology recipe × traffic mix ×
//! scheme × topology seed becomes one scenario, each run once per *run
//! seed* and seed-averaged downstream. Expansion order is fixed
//! (topology-major, then mix, scheme, topology seed) so plan order — and
//! therefore every report built from it — is deterministic.

use wmn_netsim::{Scenario, Scheme};

use crate::json::Value;
use crate::mix::{PairPolicy, TrafficMix};
use crate::mobility::MobilitySpec;
use crate::spec::{req_str, req_u64, req_u64_list, req_usize, PhyPreset, ScenarioSpec};
use crate::topo::TopologySpec;

/// A grid of scenario axes plus shared run settings.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (report file stem and scenario-name prefix).
    pub name: String,
    /// Topology recipes to sweep over.
    pub topologies: Vec<TopologySpec>,
    /// Traffic mixes to sweep over.
    pub mixes: Vec<TrafficMix>,
    /// Forwarding schemes to sweep over.
    pub schemes: Vec<Scheme>,
    /// Seeds for topology generation / endpoint draws: each adds one
    /// placement variant per (topology, mix, scheme) cell.
    pub topo_seeds: Vec<u64>,
    /// Seeds each scenario is run under (and averaged over) by the engine.
    pub run_seeds: Vec<u64>,
    /// PHY preset shared by the whole sweep.
    pub phy: PhyPreset,
    /// Optional bit-error-rate override.
    pub ber: Option<f64>,
    /// Simulated duration per run, milliseconds.
    pub duration_ms: u64,
    /// Cap on forwarders per opportunistic list.
    pub max_forwarders: usize,
    /// Mobility recipes to sweep over (the innermost axis). `[Static]` —
    /// the default — reproduces the pre-mobility grid byte for byte.
    pub mobilities: Vec<MobilitySpec>,
    /// Live min-ETX route-refresh period shared by every cell,
    /// milliseconds. `None` — the default — keeps routes frozen, which
    /// reproduces the pre-refresh grid byte for byte.
    pub route_refresh_ms: Option<u64>,
    /// Has no effect, is not serialised and reaches no cell; it stays
    /// only because the frozen benchmark sets it by name.
    pub shards: Option<u32>,
}

impl SweepSpec {
    /// The fixed small sweep CI runs on every push (and the determinism
    /// suite replays at two worker counts): 2 topology recipes × 2 mixes ×
    /// 2 schemes × 2 topology seeds × 2 run seeds = 32 runs of 200 ms each.
    pub fn ci_quick() -> Self {
        SweepSpec {
            name: "ci-quick".into(),
            topologies: vec![
                TopologySpec::RandomGeometric { nodes: 12, side_m: 30.0 },
                TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 },
            ],
            mixes: vec![
                TrafficMix { ftp: 2, web: 1, voip: 1, cbr: 0, pairing: PairPolicy::Random },
                TrafficMix { ftp: 1, web: 0, voip: 2, cbr: 1, pairing: PairPolicy::Gateway },
            ],
            schemes: vec![Scheme::Dcf { aggregation: 1 }, Scheme::Ripple { aggregation: 16 }],
            topo_seeds: vec![1, 2],
            run_seeds: vec![1, 2],
            phy: PhyPreset::Mbps216,
            ber: None,
            duration_ms: 200,
            max_forwarders: 5,
            mobilities: vec![MobilitySpec::Static],
            route_refresh_ms: None,
            shards: None,
        }
    }

    /// The mobility companion grid CI's scenario-matrix job runs: one
    /// topology × one mix × {DCF, RIPPLE-16} × {static, drift, waypoint}
    /// × 2 run seeds = 12 runs. Small on purpose — the point is that
    /// moving-node scenarios exercise the whole engine (expansion,
    /// parallel execution, deterministic reporting) on every push.
    pub fn ci_mobility() -> Self {
        SweepSpec {
            name: "ci-mobility".into(),
            topologies: vec![TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 }],
            mixes: vec![TrafficMix {
                ftp: 1,
                web: 0,
                voip: 1,
                cbr: 0,
                pairing: PairPolicy::FarPairs,
            }],
            schemes: vec![Scheme::Dcf { aggregation: 1 }, Scheme::Ripple { aggregation: 16 }],
            topo_seeds: vec![1],
            run_seeds: vec![1, 2],
            phy: PhyPreset::Mbps216,
            ber: None,
            duration_ms: 200,
            max_forwarders: 5,
            mobilities: vec![
                MobilitySpec::Static,
                MobilitySpec::Drift { max_speed_mps: 2.0 },
                MobilitySpec::Waypoint { speed_mps: 2.0, legs: 3 },
            ],
            route_refresh_ms: None,
            shards: None,
        }
    }

    /// The [`SweepSpec::ci_mobility`] grid with live routing switched on:
    /// every cell refreshes its min-ETX routes every 50 ms. CI runs it
    /// alongside the frozen-route grid, so the refresh pass is exercised
    /// (and its 1-vs-N-worker determinism pinned) on every push.
    pub fn ci_mobility_refresh() -> Self {
        SweepSpec {
            name: "ci-mobility-refresh".into(),
            route_refresh_ms: Some(50),
            ..SweepSpec::ci_mobility()
        }
    }

    /// Scenarios in the grid (before the run-seed axis).
    pub fn scenario_count(&self) -> usize {
        self.topologies.len()
            * self.mixes.len()
            * self.schemes.len()
            * self.topo_seeds.len()
            * self.mobilities.len()
    }

    /// Total runs the engine will execute: scenarios × run seeds.
    pub fn run_count(&self) -> usize {
        self.scenario_count() * self.run_seeds.len()
    }

    /// Expands the grid into one [`ScenarioSpec`] per cell, in the fixed
    /// topology-major order (mobility is the innermost axis). Names are
    /// `<sweep>-<topology>-<mix>-<scheme>-t<topo_seed>`, suffixed with
    /// `-m<mobility>` only for non-static cells — so a static-only sweep's
    /// names (and its committed baseline) are untouched by the axis.
    pub fn scenario_specs(&self) -> Vec<ScenarioSpec> {
        let mut specs = Vec::with_capacity(self.scenario_count());
        for topology in &self.topologies {
            for mix in &self.mixes {
                for &scheme in &self.schemes {
                    for &topo_seed in &self.topo_seeds {
                        for &mobility in &self.mobilities {
                            let mut name = format!(
                                "{}-{}-{}-{}-t{topo_seed}",
                                self.name,
                                topology.slug(),
                                mix.slug(),
                                scheme,
                            );
                            if mobility != MobilitySpec::Static {
                                name.push_str(&format!("-m{}", mobility.slug()));
                            }
                            specs.push(ScenarioSpec {
                                name,
                                topology: topology.clone(),
                                mix: *mix,
                                scheme,
                                phy: self.phy,
                                ber: self.ber,
                                duration_ms: self.duration_ms,
                                seed: topo_seed,
                                max_forwarders: self.max_forwarders,
                                mobility,
                                route_refresh_ms: self.route_refresh_ms,
                                shards: None,
                            });
                        }
                    }
                }
            }
        }
        specs
    }

    /// Materialises every cell into a validated [`Scenario`], ready for
    /// `wmn_exec::RunPlan::grid` / `wmn_experiments::common::run_grid` with
    /// [`SweepSpec::run_seeds`] as the seed axis.
    ///
    /// # Errors
    ///
    /// Fails on structurally empty sweeps (any empty axis), on duplicate
    /// cell names (e.g. the same recipe listed twice on an axis — report
    /// rows are keyed by name, so collisions would be indistinguishable),
    /// or on the first cell whose materialisation fails, with the cell
    /// named.
    pub fn expand(&self) -> Result<Vec<Scenario>, String> {
        if self.scenario_count() == 0 || self.run_seeds.is_empty() {
            return Err(format!(
                "sweep {:?} is empty: every axis (topologies, mixes, schemes, topo_seeds, \
                 mobilities, run_seeds) needs at least one entry",
                self.name
            ));
        }
        let specs = self.scenario_specs();
        let mut seen = std::collections::BTreeSet::new();
        for spec in &specs {
            if !seen.insert(spec.name.as_str()) {
                return Err(format!(
                    "sweep {:?}: duplicate cell name {:?} — two axis entries expand to the \
                     same cell",
                    self.name, spec.name
                ));
            }
        }
        specs.iter().map(ScenarioSpec::materialise).collect()
    }

    /// Serialises the sweep as a JSON object (the on-disk format
    /// `scenario_sweep --spec` reads).
    pub fn to_json(&self) -> Value {
        let mut doc = Value::obj()
            .with("name", self.name.as_str())
            .with(
                "topologies",
                Value::Arr(self.topologies.iter().map(TopologySpec::to_json).collect()),
            )
            .with("mixes", Value::Arr(self.mixes.iter().map(TrafficMix::to_json).collect()))
            .with(
                "schemes",
                Value::Arr(self.schemes.iter().map(|s| Value::from(s.to_string())).collect()),
            )
            .with("topo_seeds", self.topo_seeds.clone())
            .with("run_seeds", self.run_seeds.clone())
            .with("phy", self.phy.name());
        if let Some(ber) = self.ber {
            doc = doc.with("ber", ber);
        }
        // Like the scenario spec, an all-static mobility axis stays
        // implicit so pre-mobility sweep files and the committed baseline's
        // spec echo remain byte-identical.
        if self.mobilities != [MobilitySpec::Static] {
            doc = doc.with(
                "mobilities",
                Value::Arr(self.mobilities.iter().map(|m| m.to_json()).collect()),
            );
        }
        // Same omit-when-off rule for the refresh knob.
        if let Some(ms) = self.route_refresh_ms {
            doc = doc.with("route_refresh_ms", ms);
        }
        doc.with("duration_ms", self.duration_ms).with("max_forwarders", self.max_forwarders)
    }

    /// Decodes a sweep from the [`SweepSpec::to_json`] shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or invalid field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let arr = |key: &str| -> Result<&[Value], String> {
            value
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("sweep: missing or non-array \"{key}\""))
        };
        Ok(SweepSpec {
            name: req_str(value, "name", "sweep")?.to_string(),
            topologies: arr("topologies")?
                .iter()
                .map(TopologySpec::from_json)
                .collect::<Result<_, _>>()?,
            mixes: arr("mixes")?.iter().map(TrafficMix::from_json).collect::<Result<_, _>>()?,
            schemes: arr("schemes")?
                .iter()
                .map(|v| v.as_str().ok_or("sweep: \"schemes\" entries must be strings")?.parse())
                .collect::<Result<_, _>>()?,
            topo_seeds: req_u64_list(value, "topo_seeds", "sweep")?,
            run_seeds: req_u64_list(value, "run_seeds", "sweep")?,
            phy: PhyPreset::from_name(req_str(value, "phy", "sweep")?)?,
            ber: match value.get("ber") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("sweep: \"ber\" must be a number")?),
            },
            duration_ms: req_u64(value, "duration_ms", "sweep")?,
            max_forwarders: req_usize(value, "max_forwarders", "sweep")?,
            mobilities: match value.get("mobilities") {
                None | Some(Value::Null) => vec![MobilitySpec::Static],
                Some(v) => v
                    .as_arr()
                    .ok_or("sweep: \"mobilities\" must be an array")?
                    .iter()
                    .map(MobilitySpec::from_json)
                    .collect::<Result<_, _>>()?,
            },
            route_refresh_ms: match value.get("route_refresh_ms") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    Some(v.as_u64().ok_or("sweep: \"route_refresh_ms\" must be an integer")?)
                }
            },
            shards: None,
        })
    }

    /// Parses a sweep from JSON text.
    ///
    /// # Errors
    ///
    /// Returns either the JSON syntax error or the first schema violation.
    pub fn parse(text: &str) -> Result<Self, String> {
        SweepSpec::from_json(&crate::json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ci_quick_is_a_32_run_grid() {
        let sweep = SweepSpec::ci_quick();
        assert_eq!(sweep.scenario_count(), 16);
        assert_eq!(sweep.run_count(), 32);
    }

    #[test]
    fn scenario_names_are_unique_and_prefixed() {
        let sweep = SweepSpec::ci_quick();
        let specs = sweep.scenario_specs();
        assert_eq!(specs.len(), 16);
        let names: BTreeSet<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), specs.len(), "names must be unique");
        assert!(names.iter().all(|n| n.starts_with("ci-quick-")));
    }

    #[test]
    fn expand_materialises_every_cell() {
        let mut sweep = SweepSpec::ci_quick();
        // Keep the test light: one mix, one scheme, one seed each.
        sweep.mixes.truncate(1);
        sweep.schemes.truncate(1);
        sweep.topo_seeds.truncate(1);
        let scenarios = sweep.expand().unwrap();
        assert_eq!(scenarios.len(), 2);
        for s in &scenarios {
            assert_eq!(s.validate(), Ok(()));
            assert_eq!(s.flows.len(), 4);
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut sweep = SweepSpec::ci_quick();
        sweep.schemes.clear();
        let msg = sweep.expand().unwrap_err();
        assert!(msg.contains("empty"), "{msg}");
        let mut no_runs = SweepSpec::ci_quick();
        no_runs.run_seeds.clear();
        assert!(no_runs.expand().is_err());
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        // The same mobility recipe twice expands to two cells with one
        // name; report rows are keyed by name, so this must fail loudly.
        let mut sweep = SweepSpec::ci_mobility();
        sweep.mobilities.push(sweep.mobilities[1]);
        let msg = sweep.expand().unwrap_err();
        assert!(msg.contains("duplicate cell name"), "{msg}");
    }

    #[test]
    fn every_aggregation_is_a_cell_of_its_own() {
        let schemes = vec![Scheme::Ripple { aggregation: 8 }, Scheme::Ripple { aggregation: 16 }];
        let sweep = SweepSpec { schemes, ..SweepSpec::ci_quick() };
        let names: BTreeSet<String> = sweep.expand().unwrap().into_iter().map(|s| s.name).collect();
        assert_eq!(names.len(), sweep.scenario_count());
        assert!(names.iter().any(|name| name.contains("-RIPPLE-8-")), "{names:?}");
    }

    #[test]
    fn json_round_trip() {
        let sweep = SweepSpec::ci_quick();
        let text = sweep.to_json().to_string();
        assert_eq!(SweepSpec::parse(&text).unwrap(), sweep);
        let with_ber = SweepSpec { ber: Some(1e-6), ..SweepSpec::ci_quick() };
        assert_eq!(SweepSpec::parse(&with_ber.to_json().to_string()).unwrap(), with_ber);
        assert!(SweepSpec::parse("{}").is_err());
    }

    #[test]
    fn static_sweeps_serialise_without_a_mobility_axis() {
        let text = SweepSpec::ci_quick().to_json().to_string();
        assert!(!text.contains("mobilities"), "baseline spec echo must stay byte-compatible");
    }

    #[test]
    fn mobility_axis_multiplies_the_grid_and_suffixes_names() {
        let sweep = SweepSpec::ci_mobility();
        assert_eq!(sweep.scenario_count(), 6, "2 schemes x 3 mobility recipes");
        assert_eq!(sweep.run_count(), 12);
        let specs = sweep.scenario_specs();
        let static_cells = specs.iter().filter(|s| s.mobility == MobilitySpec::Static).count();
        assert_eq!(static_cells, 2);
        for spec in &specs {
            if spec.mobility == MobilitySpec::Static {
                assert!(
                    spec.name.ends_with("-t1"),
                    "static names keep the legacy shape: {}",
                    spec.name
                );
            } else {
                assert!(
                    spec.name.contains("-t1-m"),
                    "mobile names carry the recipe: {}",
                    spec.name
                );
            }
        }
        let names: BTreeSet<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), specs.len(), "names must stay unique across the axis");
        // The JSON round-trip covers the axis.
        assert_eq!(SweepSpec::parse(&sweep.to_json().to_string()).unwrap(), sweep);
    }

    #[test]
    fn ci_mobility_refresh_mirrors_the_mobility_grid_with_live_routing() {
        let sweep = SweepSpec::ci_mobility_refresh();
        assert_eq!(sweep.run_count(), SweepSpec::ci_mobility().run_count());
        assert_eq!(sweep.route_refresh_ms, Some(50));
        let scenarios = sweep.expand().unwrap();
        assert!(
            scenarios.iter().all(|s| s.route_refresh.is_some()),
            "every cell must carry the refresh interval"
        );
        assert!(scenarios.iter().all(|s| s.name.starts_with("ci-mobility-refresh-")));
        // The knob round-trips through the on-disk format…
        let text = sweep.to_json().to_string();
        assert!(text.contains("\"route_refresh_ms\": 50"), "{text}");
        assert_eq!(SweepSpec::parse(&text).unwrap(), sweep);
        // …and stays implicit for refresh-off sweeps (baseline byte-compat).
        assert!(!SweepSpec::ci_quick().to_json().to_string().contains("route_refresh"));
    }

    #[test]
    fn ci_mobility_expands_into_runnable_scenarios() {
        let scenarios = SweepSpec::ci_mobility().expand().unwrap();
        assert_eq!(scenarios.len(), 6);
        assert!(scenarios.iter().any(|s| !s.motion.is_static()), "mobile cells exist");
        assert!(scenarios.iter().any(|s| s.motion.is_static()), "static control cells exist");
        for s in &scenarios {
            assert_eq!(s.validate(), Ok(()), "{}", s.name);
        }
    }
}
