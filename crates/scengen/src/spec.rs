//! [`ScenarioSpec`]: a plain-struct, JSON-round-trippable description of one
//! complete run.
//!
//! A spec carries everything [`materialise`](ScenarioSpec::materialise)
//! needs to build a [`wmn_netsim::Scenario`]: the topology family and seed,
//! the traffic mix, the forwarding scheme, the PHY preset, and the run
//! length. Specs are *data* — they can be written to disk, committed as CI
//! fixtures, and expanded into grids by [`crate::SweepSpec`] — and
//! materialisation is deterministic, so a spec file pins a run exactly.

use wmn_netsim::{Scenario, Scheme};
use wmn_phy::PhyParams;
use wmn_sim::SimDuration;

use crate::json::Value;
use crate::mix::TrafficMix;
use crate::mobility::MobilitySpec;
use crate::topo::TopologySpec;

/// The PHY parameter preset a spec runs under (Table I of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhyPreset {
    /// 216 Mbps MIMO preset ([`PhyParams::paper_216`]).
    Mbps216,
    /// 6 Mbps legacy preset ([`PhyParams::paper_6`]).
    Mbps6,
}

impl PhyPreset {
    /// The JSON name: `"216mbps"` / `"6mbps"`.
    pub fn name(self) -> &'static str {
        match self {
            PhyPreset::Mbps216 => "216mbps",
            PhyPreset::Mbps6 => "6mbps",
        }
    }

    /// Parses [`PhyPreset::name`] back.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "216mbps" => Ok(PhyPreset::Mbps216),
            "6mbps" => Ok(PhyPreset::Mbps6),
            other => Err(format!("phy must be \"216mbps\" or \"6mbps\", got {other:?}")),
        }
    }

    /// The parameter set, with `ber` overriding the preset's bit-error rate
    /// when given.
    pub fn params(self, ber: Option<f64>) -> PhyParams {
        let params = match self {
            PhyPreset::Mbps216 => PhyParams::paper_216(),
            PhyPreset::Mbps6 => PhyParams::paper_6(),
        };
        match ber {
            Some(ber) => params.with_ber(ber),
            None => params,
        }
    }
}

/// A fully-described, reproducible run: topology recipe + traffic mix +
/// scheme + PHY + duration + seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Name used for the materialised scenario (results, logs, reports).
    pub name: String,
    /// The procedural topology recipe.
    pub topology: TopologySpec,
    /// The traffic mix to lay onto it.
    pub mix: TrafficMix,
    /// The forwarding scheme under test.
    pub scheme: Scheme,
    /// PHY preset.
    pub phy: PhyPreset,
    /// Optional bit-error-rate override on the preset.
    pub ber: Option<f64>,
    /// Simulated duration, milliseconds.
    pub duration_ms: u64,
    /// Master seed: drives topology generation, endpoint draws, mobility
    /// expansion, and every in-run RNG stream.
    pub seed: u64,
    /// Cap on forwarders per opportunistic list (paper default: 5).
    pub max_forwarders: usize,
    /// Mobility recipe, expanded over the generated placement at
    /// materialisation time ([`MobilitySpec::Static`] — the default —
    /// yields the byte-identical static simulation).
    pub mobility: MobilitySpec,
    /// Live min-ETX route-refresh period, milliseconds. `None` — the
    /// default — freezes routes at their build-time tables (the
    /// pre-refresh behaviour, byte for byte).
    pub route_refresh_ms: Option<u64>,
    /// Has no effect, is not serialised and does not reach the scenario;
    /// it stays only because the frozen benchmark sets it by name.
    pub shards: Option<u32>,
}

impl ScenarioSpec {
    /// The campus-at-scale preset: 32 clusters × 32 stations = 1,024 nodes
    /// in a 60 m square — the dense-neighbourhood workload (~250 sensed
    /// receivers per frame). Density is deliberately high (mean nearest
    /// neighbour under a metre) so the placement is radio-connected at the
    /// first attempt.
    pub fn campus_scale() -> Self {
        ScenarioSpec {
            name: "campus-1k".into(),
            topology: TopologySpec::Campus {
                clusters: 32,
                nodes_per_cluster: 32,
                cluster_radius_m: 3.0,
                side_m: 60.0,
            },
            mix: TrafficMix {
                ftp: 2,
                web: 0,
                voip: 2,
                cbr: 2,
                pairing: crate::mix::PairPolicy::Random,
            },
            scheme: Scheme::Ripple { aggregation: 16 },
            phy: PhyPreset::Mbps216,
            ber: None,
            duration_ms: 40,
            seed: 1,
            max_forwarders: 5,
            mobility: MobilitySpec::Static,
            route_refresh_ms: None,
            shards: None,
        }
    }

    /// Expands the spec into a runnable, validated [`Scenario`]:
    /// generates the placement, composes and routes the flows, and applies
    /// the PHY preset. Deterministic — same spec, same scenario, bit for
    /// bit.
    ///
    /// No link graph is built: the random-geometric and campus generators
    /// judge connectivity by a flood fill that evaluates a link only to a
    /// station not yet reached ([`crate::is_connected`]), and
    /// [`TrafficMix::compose`] routes each drawn pair with the lazy search,
    /// whose bound table is computed once per link model.
    ///
    /// # Errors
    ///
    /// Returns generation failures (no connected placement within the
    /// attempt budget), composition failures (unroutable endpoints, empty
    /// mix), a duration or refresh period past the nanosecond clock's range,
    /// and anything [`Scenario::validate`] rejects, prefixed with the spec
    /// name.
    pub fn materialise(&self) -> Result<Scenario, String> {
        let err = |msg: String| format!("spec {:?}: {msg}", self.name);
        let millis = |field: &str, ms: u64| match ms.checked_mul(1_000_000) {
            Some(ns) => Ok(SimDuration::from_nanos(ns)),
            None => Err(err(format!("\"{field}\" of {ms} ms overflows the nanosecond clock"))),
        };
        let duration = millis("duration_ms", self.duration_ms)?;
        let route_refresh =
            self.route_refresh_ms.map(|ms| millis("route_refresh_ms", ms)).transpose()?;
        let topo = self.topology.try_generate(self.seed).map_err(err)?;
        let params = self.phy.params(self.ber);
        let flows = self.mix.compose(&topo, &params.link, self.seed).map_err(err)?;
        self.mobility.check().map_err(err)?;
        let motion = self.mobility.expand(&topo.positions, self.seed);
        let scenario = Scenario {
            name: self.name.clone(),
            params,
            positions: topo.positions,
            scheme: self.scheme,
            flows,
            duration,
            seed: self.seed,
            max_forwarders: self.max_forwarders,
            motion,
            route_refresh,
            shards: None,
        };
        scenario.validate().map_err(|e| err(e.to_string()))?;
        Ok(scenario)
    }

    /// Serialises the spec as a JSON object (the schema in the README's
    /// "Generating your own scenarios" section).
    pub fn to_json(&self) -> Value {
        let mut doc = Value::obj()
            .with("name", self.name.as_str())
            .with("topology", self.topology.to_json())
            .with("mix", self.mix.to_json())
            .with("scheme", self.scheme.to_string())
            .with("phy", self.phy.name());
        if let Some(ber) = self.ber {
            doc = doc.with("ber", ber);
        }
        // The mobility key is omitted for static specs so every
        // pre-mobility spec file (and the committed CI baseline's spec
        // echo) stays byte-identical.
        if self.mobility != MobilitySpec::Static {
            doc = doc.with("mobility", self.mobility.to_json());
        }
        // Likewise the refresh knob: omitted when off, so pre-refresh spec
        // files stay byte-identical.
        if let Some(ms) = self.route_refresh_ms {
            doc = doc.with("route_refresh_ms", ms);
        }
        doc.with("duration_ms", self.duration_ms)
            .with("seed", self.seed)
            .with("max_forwarders", self.max_forwarders)
    }

    /// Decodes a spec from the [`ScenarioSpec::to_json`] shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or invalid field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Ok(ScenarioSpec {
            name: req_str(value, "name", "scenario")?.to_string(),
            topology: TopologySpec::from_json(
                value.get("topology").ok_or("scenario: missing \"topology\"")?,
            )?,
            mix: TrafficMix::from_json(value.get("mix").ok_or("scenario: missing \"mix\"")?)?,
            scheme: req_str(value, "scheme", "scenario")?.parse()?,
            phy: PhyPreset::from_name(req_str(value, "phy", "scenario")?)?,
            ber: match value.get("ber") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("scenario: \"ber\" must be a number")?),
            },
            duration_ms: req_u64(value, "duration_ms", "scenario")?,
            seed: req_u64(value, "seed", "scenario")?,
            max_forwarders: req_usize(value, "max_forwarders", "scenario")?,
            mobility: match value.get("mobility") {
                None | Some(Value::Null) => MobilitySpec::Static,
                Some(v) => MobilitySpec::from_json(v)?,
            },
            route_refresh_ms: match value.get("route_refresh_ms") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    Some(v.as_u64().ok_or("scenario: \"route_refresh_ms\" must be an integer")?)
                }
            },
            shards: None,
        })
    }

    /// Parses a spec from JSON text ([`crate::json::parse`] +
    /// [`ScenarioSpec::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns either the JSON syntax error or the first schema violation.
    pub fn parse(text: &str) -> Result<Self, String> {
        ScenarioSpec::from_json(&crate::json::parse(text)?)
    }
}

// Field-decoding helpers shared by every spec module (`context` names the
// enclosing object in error messages).

pub(crate) fn req_str<'v>(value: &'v Value, key: &str, context: &str) -> Result<&'v str, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{context}: missing or non-string \"{key}\""))
}

pub(crate) fn req_u64(value: &Value, key: &str, context: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{context}: missing or non-integer \"{key}\""))
}

pub(crate) fn req_usize(value: &Value, key: &str, context: &str) -> Result<usize, String> {
    usize::try_from(req_u64(value, key, context)?)
        .map_err(|_| format!("{context}: \"{key}\" does not fit a usize"))
}

pub(crate) fn req_f64(value: &Value, key: &str, context: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{context}: missing or non-numeric \"{key}\""))
}

pub(crate) fn req_u64_list(value: &Value, key: &str, context: &str) -> Result<Vec<u64>, String> {
    let items = value
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{context}: missing or non-array \"{key}\""))?;
    items
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("{context}: \"{key}\" entries must be integers")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::PairPolicy;
    use wmn_netsim::run;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".into(),
            topology: TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 5.0 },
            mix: TrafficMix { ftp: 1, web: 0, voip: 1, cbr: 0, pairing: PairPolicy::Random },
            scheme: Scheme::Ripple { aggregation: 16 },
            phy: PhyPreset::Mbps216,
            ber: None,
            duration_ms: 40,
            seed: 3,
            max_forwarders: 5,
            mobility: MobilitySpec::Static,
            route_refresh_ms: None,
            shards: None,
        }
    }

    #[test]
    fn materialise_builds_a_runnable_scenario() {
        let scenario = spec().materialise().unwrap();
        assert_eq!(scenario.name, "demo");
        assert_eq!(scenario.positions.len(), 6);
        assert_eq!(scenario.flows.len(), 2);
        assert_eq!(scenario.validate(), Ok(()));
        // It actually runs end to end.
        let result = run(&scenario);
        assert_eq!(result.flows.len(), 2);
    }

    #[test]
    fn materialise_is_deterministic() {
        let a = spec().materialise().unwrap();
        let b = spec().materialise().unwrap();
        assert_eq!(a.positions, b.positions);
        assert_eq!(
            a.flows.iter().map(|f| f.path.clone()).collect::<Vec<_>>(),
            b.flows.iter().map(|f| f.path.clone()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn json_round_trip_with_and_without_ber() {
        let plain = spec();
        assert_eq!(ScenarioSpec::parse(&plain.to_json().to_string()).unwrap(), plain);
        let with_ber = ScenarioSpec { ber: Some(1e-5), phy: PhyPreset::Mbps6, ..spec() };
        assert_eq!(ScenarioSpec::parse(&with_ber.to_json().to_string()).unwrap(), with_ber);
    }

    #[test]
    fn mobility_round_trips_and_static_stays_implicit() {
        let static_text = spec().to_json().to_string();
        assert!(
            !static_text.contains("mobility"),
            "static specs must serialise without a mobility key (baseline byte-compat)"
        );
        let mobile =
            ScenarioSpec { mobility: MobilitySpec::Drift { max_speed_mps: 2.0 }, ..spec() };
        let text = mobile.to_json().to_string();
        assert!(text.contains("\"mobility\""), "{text}");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), mobile);
    }

    #[test]
    fn route_refresh_round_trips_and_off_stays_implicit() {
        let off_text = spec().to_json().to_string();
        assert!(
            !off_text.contains("route_refresh"),
            "refresh-off specs must serialise without the key (baseline byte-compat)"
        );
        let on = ScenarioSpec { route_refresh_ms: Some(50), ..spec() };
        let text = on.to_json().to_string();
        assert!(text.contains("\"route_refresh_ms\": 50"), "{text}");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), on);
        let scenario = on.materialise().unwrap();
        assert_eq!(scenario.route_refresh, Some(SimDuration::from_millis(50)));
        assert_eq!(spec().materialise().unwrap().route_refresh, None);
    }

    #[test]
    fn campus_scale_preset_materialises_a_thousand_station_mesh() {
        let scenario = ScenarioSpec::campus_scale().materialise().unwrap();
        assert_eq!(scenario.positions.len(), 1024);
        assert_eq!(scenario.flows.len(), 6);
        assert_eq!(scenario.validate(), Ok(()));
    }

    #[test]
    fn materialise_routes_over_the_graph_compose_would_build() {
        // `compose` routes by the lazy search, which `mix`'s tests pin to
        // the eager graph's paths under every pairing policy.
        let rgg = ScenarioSpec {
            topology: TopologySpec::RandomGeometric { nodes: 20, side_m: 25.0 },
            ..spec()
        };
        let campus = ScenarioSpec::campus_scale();
        let mut cases = Vec::new();
        for phy in [PhyPreset::Mbps216, PhyPreset::Mbps6] {
            for ber in [None, Some(1e-5)] {
                cases.push(ScenarioSpec { phy, ber, ..rgg.clone() });
                cases.push(ScenarioSpec { phy, ber, ..spec() });
            }
        }
        // The thousand-station campus twice, to keep the debug build quick.
        cases.push(campus.clone());
        cases.push(ScenarioSpec { phy: PhyPreset::Mbps6, ber: Some(1e-5), ..campus });
        for case in cases {
            let scenario = case.materialise().unwrap();
            let topo = case.topology.try_generate(case.seed).unwrap();
            let composed = case.mix.compose(&topo, &scenario.params.link, case.seed).unwrap();
            assert_eq!(
                format!("{:?}", scenario.flows),
                format!("{composed:?}"),
                "{:?} under {:?}, ber {:?}",
                case.topology,
                case.phy,
                case.ber
            );
        }
    }

    #[test]
    fn a_station_count_past_node_id_is_an_error_not_a_wrap() {
        // 4294967297 × 4294967296 wrapped to 2^32 stations in a release
        // build (and passed `check`), and panicked in a debug one.
        let topology =
            TopologySpec::Grid { cols: 4_294_967_297, rows: 4_294_967_296, spacing_m: 5.0 };
        let text = ScenarioSpec { topology, ..spec() }.to_json().to_string();
        assert!(text.contains("\"cols\": 4294967297"), "{text}");
        let msg = ScenarioSpec::parse(&text).and_then(|s| s.materialise().map(drop)).unwrap_err();
        assert!(msg.contains("cols × rows"), "{msg}");
    }

    #[test]
    fn mobile_specs_materialise_into_moving_scenarios() {
        let mobile =
            ScenarioSpec { mobility: MobilitySpec::Drift { max_speed_mps: 2.0 }, ..spec() };
        let scenario = mobile.materialise().unwrap();
        assert!(!scenario.motion.is_static());
        assert_eq!(scenario.motion.paths.len(), scenario.positions.len());
        // Mobile generated scenarios run end to end.
        let result = run(&scenario);
        assert_eq!(result.flows.len(), 2);
        // Static materialisation is unchanged by the mobility field's
        // existence.
        assert!(spec().materialise().unwrap().motion.is_static());
    }

    #[test]
    fn ber_override_reaches_the_params() {
        let s = ScenarioSpec { ber: Some(1e-5), ..spec() };
        let scenario = s.materialise().unwrap();
        assert_eq!(scenario.params.ber, 1e-5);
    }

    #[test]
    fn an_out_of_range_ber_is_an_error_not_a_panic() {
        // `"ber": 1.5` parses, and used to pass every check up to the BER
        // model's panic inside `run`.
        let text = ScenarioSpec { ber: Some(1e-5), ..spec() }.to_json().to_string();
        let text = text.replace("1e-5", "1.5").replace("0.00001", "1.5");
        let parsed = ScenarioSpec::parse(&text).expect("the spec itself is well-formed");
        assert_eq!(parsed.ber, Some(1.5));
        let msg = parsed.materialise().unwrap_err();
        assert!(msg.starts_with("spec \"demo\":") && msg.contains("ber"), "{msg}");
    }

    #[test]
    fn an_unconnectable_topology_is_an_error_not_a_panic() {
        // Ten stations in a 5 km square — {"kind":"random-geometric",
        // "nodes":10,"side_m":5000} — parses, passes `check()`, and no attempt
        // can connect it. `materialise` returns `Result`, so it must say so
        // instead of panicking in the generator.
        let topology = TopologySpec::RandomGeometric { nodes: 10, side_m: 5000.0 };
        let text = ScenarioSpec { topology, ..spec() }.to_json().to_string();
        let parsed = ScenarioSpec::parse(&text).expect("the spec itself is well-formed");
        let msg = parsed.materialise().unwrap_err();
        assert!(msg.starts_with("spec \"demo\":"), "{msg}");
        assert!(msg.contains("RandomGeometric { nodes: 10, side_m: 5000.0 }"), "{msg}");
        assert!(msg.contains("64 attempts"), "{msg}");
    }

    #[test]
    fn a_period_past_the_clock_is_an_error_not_a_panic() {
        // 18446744073710 ms is one past what u64 nanoseconds hold: it
        // parses, and must not wrap (release) or panic (debug) on the way in.
        let past = u64::MAX / 1_000_000 + 1;
        for (field, spec) in [
            ("duration_ms", ScenarioSpec { duration_ms: past, ..spec() }),
            ("route_refresh_ms", ScenarioSpec { route_refresh_ms: Some(past), ..spec() }),
        ] {
            let parsed = ScenarioSpec::parse(&spec.to_json().to_string()).expect("well-formed");
            let msg = parsed.materialise().unwrap_err();
            assert!(msg.starts_with("spec \"demo\":") && msg.contains(field), "{msg}");
        }
    }

    #[test]
    fn decode_errors_name_the_field() {
        let missing = ScenarioSpec::parse("{\"name\": \"x\"}").unwrap_err();
        assert!(missing.contains("topology"), "{missing}");
        let text = spec().to_json().to_string().replace("RIPPLE-16", "RIPPLE-0");
        let bad_scheme = ScenarioSpec::parse(&text).unwrap_err();
        assert!(bad_scheme.contains("RIPPLE-0"), "{bad_scheme}");
        assert!(ScenarioSpec::parse("not json").is_err());
    }

    #[test]
    fn scheme_names_round_trip() {
        // Every aggregation names its own scheme, so a spec file pins it:
        // RIPPLE-8 used to be written as "RIPPLE-16" and read back as 16.
        let aggregated = (1..=32)
            .flat_map(|aggregation| [Scheme::Dcf { aggregation }, Scheme::Ripple { aggregation }]);
        let mut names = std::collections::BTreeSet::new();
        for scheme in aggregated.chain([Scheme::PreExor, Scheme::McExor]) {
            let written = ScenarioSpec { scheme, ..spec() }.to_json().to_string();
            assert_eq!(ScenarioSpec::parse(&written).unwrap().scheme, scheme, "{written}");
            assert!(names.insert(scheme.to_string()), "{scheme} named twice");
        }
    }
}
