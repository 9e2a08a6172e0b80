//! Property tests for the procedural generators: node counts are honoured,
//! generation is deterministic per seed, random-geometric placements at
//! threshold density come out connected, grid degrees stay inside lattice
//! bounds, and composed traffic always satisfies the NodeId contract.

use proptest::prelude::*;
use proptest::TestRng;
use wmn_phy::LinkModel;
use wmn_scengen::{is_connected, PairPolicy, TopologySpec, TrafficMix};
use wmn_sim::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every family generates exactly the stations its spec promises.
    #[test]
    fn prop_node_count_honoured(
        nodes in 2usize..20,
        cols in 1usize..6,
        rows in 2usize..5,
        seed in any::<u64>(),
    ) {
        let specs = [
            TopologySpec::RandomGeometric { nodes, side_m: 8.0 + nodes as f64 },
            TopologySpec::Grid { cols, rows, spacing_m: 5.0 },
            TopologySpec::Campus {
                clusters: rows,
                nodes_per_cluster: cols + 1,
                cluster_radius_m: 4.0,
                side_m: 9.0 * rows as f64,
            },
            TopologySpec::PerturbedLine { nodes, spacing_m: 5.0, jitter_m: 0.5 },
        ];
        for spec in specs {
            let topo = spec.try_generate(seed).unwrap();
            prop_assert_eq!(topo.node_count(), spec.node_count(), "{:?}", spec);
            // Dense NodeId contract: every id below node_count resolves.
            for i in 0..topo.node_count() {
                prop_assert!(topo.contains(NodeId::new(i as u32)));
            }
        }
    }

    /// Same spec + seed ⇒ byte-identical placement; different seed ⇒ a
    /// different placement for the stochastic families.
    #[test]
    fn prop_generation_deterministic_per_seed(nodes in 4usize..16, seed in any::<u64>()) {
        let spec = TopologySpec::RandomGeometric { nodes, side_m: 6.0 + 2.0 * nodes as f64 };
        let a = spec.try_generate(seed).unwrap();
        let b = spec.try_generate(seed).unwrap();
        prop_assert_eq!(&a.positions, &b.positions);
        let c = spec.try_generate(seed.wrapping_add(1)).unwrap();
        prop_assert_ne!(&a.positions, &c.positions);
    }

    /// At threshold density (≥ ~1 station per 8 m × 8 m cell, usable links
    /// reach ≈15 m) random-geometric placements are always connected —
    /// the generator's deterministic rejection loop guarantees it.
    #[test]
    fn prop_random_geometric_connected_above_threshold_density(
        nodes in 9usize..24,
        seed in any::<u64>(),
    ) {
        let side_m = 8.0 * (nodes as f64).sqrt();
        let topo = TopologySpec::RandomGeometric { nodes, side_m }.try_generate(seed).unwrap();
        prop_assert!(
            is_connected(&topo.positions),
            "rgg nodes={} side={:.1} seed={} must be connected",
            nodes, side_m, seed
        );
    }

    /// Grid neighbour degrees stay inside the lattice bounds: counting
    /// stations within one lattice constant (plus slack), corners see 2,
    /// edges 3, interior nodes 4 — never more, never fewer.
    #[test]
    fn prop_grid_degree_bounds(cols in 2usize..7, rows in 2usize..6, seed in any::<u64>()) {
        let spacing_m = 5.0;
        let topo = TopologySpec::Grid { cols, rows, spacing_m }.try_generate(seed).unwrap();
        for a in 0..topo.node_count() {
            let degree = (0..topo.node_count())
                .filter(|&b| b != a)
                .filter(|&b| {
                    topo.distance(NodeId::new(a as u32), NodeId::new(b as u32)) < spacing_m * 1.05
                })
                .count();
            prop_assert!(
                (2..=4).contains(&degree),
                "grid {}x{} node {} has lattice degree {}",
                cols, rows, a, degree
            );
        }
    }

    /// Composition honours the requested flow counts and only ever emits
    /// in-range, routed paths — for every pairing policy.
    #[test]
    fn prop_composition_valid_for_every_policy(
        nodes in 6usize..14,
        ftp in 0usize..3,
        voip in 0usize..3,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::RandomGeometric { nodes, side_m: 7.0 * (nodes as f64).sqrt() }
            .try_generate(seed).unwrap();
        let model = LinkModel::paper();
        for pairing in [PairPolicy::Random, PairPolicy::Gateway, PairPolicy::FarPairs] {
            let mix = TrafficMix { ftp, web: 1, voip, cbr: 1, pairing };
            let flows = mix.compose(&topo, &model, seed).unwrap();
            prop_assert_eq!(flows.len(), mix.flow_count());
            for flow in &flows {
                prop_assert!(flow.path.len() >= 2);
                prop_assert!(flow.path.iter().all(|n| topo.contains(*n)));
                prop_assert!(flow.path.windows(2).all(|w| w[0] != w[1]));
            }
        }
    }
}

#[path = "../../netsim/tests/support/watchdog.rs"]
mod watchdog;

/// Draws a spec's fields: each from its sound values, except the one field
/// the case makes hostile (or none), which takes one of its extremes.
struct Fields<'a> {
    rng: &'a mut TestRng,
    hostile: u64,
    drawn: u64,
}

impl Fields<'_> {
    fn pick<T: Copy>(&mut self, sound: &[T], extremes: &[T]) -> T {
        self.drawn += 1;
        let values = if self.drawn == self.hostile { extremes } else { sound };
        values[self.rng.below(values.len() as u64) as usize]
    }
}

/// A spec of at most 64 stations and 20 ms with one field, or none, set to
/// an extreme value; with no field extreme unless `hostile`.
fn random_spec(rng: &mut TestRng, hostile: bool) -> wmn_scengen::ScenarioSpec {
    use wmn_netsim::Scheme;
    use wmn_scengen::{MobilitySpec, PhyPreset, ScenarioSpec};
    const LENGTHS: [f64; 6] = [f64::NAN, -1.0, 0.0, 1e-300, 1e16, 1e308];
    const COUNTS: [usize; 4] = [0, 1, 65, usize::MAX];
    const SPEEDS: [f64; 3] = [0.5, 5.0, 30.0];
    let kind = rng.below(4);
    let mobility_kind = rng.below(3);
    // Fields count from 1, so 0 picks none.
    let hostile = if hostile { rng.below(20) } else { 0 };
    let mut f = Fields { rng, hostile, drawn: 0 };
    let topology = match kind {
        0 => TopologySpec::RandomGeometric {
            nodes: f.pick(&[4, 9, 16, 30], &COUNTS),
            side_m: f.pick(&[10.0, 15.0], &LENGTHS),
        },
        1 => TopologySpec::Grid {
            cols: f.pick(&[2, 3, 8], &COUNTS),
            rows: f.pick(&[2, 3, 8], &COUNTS),
            spacing_m: f.pick(&[3.0, 5.0], &LENGTHS),
        },
        2 => TopologySpec::Campus {
            clusters: f.pick(&[2, 3, 4], &COUNTS),
            nodes_per_cluster: f.pick(&[2, 4, 8], &COUNTS),
            cluster_radius_m: f.pick(&[1.0, 3.0], &LENGTHS),
            side_m: f.pick(&[8.0, 15.0], &LENGTHS),
        },
        _ => TopologySpec::PerturbedLine {
            nodes: f.pick(&[3, 6, 12], &COUNTS),
            spacing_m: f.pick(&[4.0, 6.0], &LENGTHS),
            jitter_m: f.pick(&[0.0, 0.5, 2.0], &LENGTHS),
        },
    };
    let mobility = match mobility_kind {
        0 => MobilitySpec::Static,
        1 => MobilitySpec::Drift { max_speed_mps: f.pick(&SPEEDS, &LENGTHS) },
        _ => MobilitySpec::Waypoint {
            speed_mps: f.pick(&SPEEDS, &LENGTHS),
            legs: f.pick(&[1, 3], &[0, 4096, 4097, usize::MAX]),
        },
    };
    // Any aggregation, not only the paper's 1 and 16: each has its own name.
    let aggregation = 1 + f.rng.below(20) as usize;
    let schemes = [
        Scheme::Dcf { aggregation },
        Scheme::PreExor,
        Scheme::McExor,
        Scheme::Ripple { aggregation },
    ];
    let pairings = [PairPolicy::Random, PairPolicy::Gateway, PairPolicy::FarPairs];
    ScenarioSpec {
        name: "random".into(),
        topology,
        mix: TrafficMix {
            ftp: f.pick(&[0, 1, 2], &[usize::MAX]),
            web: f.pick(&[0, 1, 2], &[usize::MAX]),
            voip: f.pick(&[0, 1, 2], &[usize::MAX]),
            cbr: f.pick(&[0, 1, 2], &[usize::MAX]),
            pairing: f.pick(&pairings, &pairings),
        },
        scheme: f.pick(&schemes, &schemes),
        phy: f.pick(&[PhyPreset::Mbps216, PhyPreset::Mbps6], &[PhyPreset::Mbps6]),
        ber: f.pick(
            &[None, Some(1e-6), Some(1e-5)],
            &[Some(0.0), Some(0.5), Some(1.0), Some(-0.1), Some(1e-300), Some(f64::NAN)],
        ),
        // The last extreme is the first millisecond count past
        // `SimDuration::LIMIT`.
        duration_ms: f.pick(&[5, 20], &[0, 1, 36_028_797_019, u64::MAX]),
        seed: f.rng.next_u64(),
        max_forwarders: f.pick(&[1, 5], &[0, usize::MAX]),
        mobility,
        route_refresh_ms: f.pick(&[None, Some(7), Some(50)], &[Some(0), Some(u64::MAX)]),
        shards: None,
    }
}

/// A spec file of any field values either fails to parse or materialise,
/// or runs to its end: `to_json` → `parse` → `materialise` → `run` never
/// panics or hangs. A failing case is announced as its spec JSON, the form
/// `ci/regressions/` keeps.
#[test]
fn prop_b_any_spec_file_errs_or_runs() {
    watchdog::run_cases(std::time::Duration::from_secs(60), |announce| {
        for case in 0..256 {
            let text =
                random_spec(&mut TestRng::for_case("prop_b", case), true).to_json().to_string();
            announce(text.clone());
            if let Ok(scenario) =
                wmn_scengen::ScenarioSpec::parse(&text).and_then(|s| s.materialise())
            {
                wmn_netsim::run(&scenario);
            }
        }
    });
}

/// Every committed regression — a spec file or a JSON document that once
/// panicked, hung or aborted — now ends in an error.
#[test]
fn committed_regressions_end_in_an_error() {
    watchdog::run_cases(std::time::Duration::from_secs(60), |announce| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/regressions");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("ci/regressions exists")
            .map(|entry| entry.expect("readable").path())
            .collect();
        files.sort();
        assert!(files.len() >= 3, "{files:?}");
        for path in files {
            announce(path.display().to_string());
            let text = std::fs::read_to_string(&path).expect("readable");
            let outcome = wmn_scengen::ScenarioSpec::parse(&text)
                .and_then(|spec| spec.materialise())
                .and_then(|scenario| {
                    let prepared = scenario.prepare().map_err(|e| e.to_string())?;
                    Ok(prepared.run(scenario.seed))
                });
            assert!(outcome.is_err(), "{} ran to its end", path.display());
        }
    });
}

/// An untraced run reports what a traced one does, bit for bit: the
/// receptions `run` leaves out (`Prepared::observed_stations`) change
/// nothing. Sound random specs, each case pinned to one of six classes
/// (BER 0 or the drawn 1e-6 / 1e-5 × static, mobile, or mobile with route
/// refresh); every class must come up with stations that no flow's path
/// names, the bystanders whose receptions are left out. The refresh class
/// keeps the drawn motion, drift or waypoints, at 60 m/s or more for three
/// 50 ms mobility ticks, so that some of its cases re-route through a
/// station no initial path names: one whose receptions a mask of the
/// initial paths would leave out.
#[test]
fn prop_untraced_runs_match_traced_runs() {
    use wmn_scengen::MobilitySpec;
    let mut covered = std::collections::BTreeSet::new();
    let mut rerouted_outside = 0;
    for case in 0..96 {
        let mut spec = random_spec(&mut TestRng::for_case("prop_untraced", case), false);
        let class = (case % 2, case / 2 % 3);
        if class.0 == 0 {
            spec.ber = Some(0.0);
        }
        if class.1 == 0 {
            spec.mobility = MobilitySpec::Static;
        } else if class.1 == 2 {
            spec.mobility = match spec.mobility {
                MobilitySpec::Static => MobilitySpec::Drift { max_speed_mps: 60.0 },
                MobilitySpec::Drift { max_speed_mps } => {
                    MobilitySpec::Drift { max_speed_mps: max_speed_mps.max(60.0) }
                }
                MobilitySpec::Waypoint { speed_mps, legs } => {
                    MobilitySpec::Waypoint { speed_mps: speed_mps.max(60.0), legs }
                }
            };
            spec.duration_ms = 160;
        } else if spec.mobility == MobilitySpec::Static {
            spec.mobility = MobilitySpec::Drift { max_speed_mps: 30.0 };
        }
        spec.route_refresh_ms = (class.1 == 2).then_some(7);
        let Ok(scenario) = spec.materialise() else { continue };
        let untraced = format!("{:?}", wmn_netsim::run(&scenario));
        let (result, trace) = wmn_netsim::run_traced(&scenario);
        assert_eq!(untraced, format!("{result:?}"), "case {case}: {}", spec.to_json());
        let mut named = vec![false; scenario.positions.len()];
        for node in scenario.flows.iter().flat_map(|flow| &flow.path) {
            named[node.index()] = true;
        }
        if named.contains(&false) {
            covered.insert(class);
        }
        let rerouted = trace.events.iter().filter_map(|event| match &event.kind {
            wmn_netsim::TraceKind::RouteChange { path, .. } => Some(path),
            _ => None,
        });
        if rerouted.flatten().any(|node| !named[node.index()]) {
            rerouted_outside += 1;
        }
    }
    assert_eq!(covered.len(), 6, "classes run with bystanders: {covered:?}");
    assert!(rerouted_outside >= 8, "{rerouted_outside} cases re-routed past the initial paths");
}
