//! The exactness corpus: one row per case of `ci/exact_corpus.json`, each a
//! 32-bit FNV-1a digest of the `Debug` rendering of the case's `RunResult`
//! and of its `Trace` (perfbench's `model.result_digest32` rule, applied to
//! one run).
//!
//! The cases are the six schemes over the fig-6(b)-class scenario with 0
//! and 5 hidden senders, its mobile variant with a 50 ms route refresh, a
//! drifting relay with a 50 ms route refresh (the layout whose routes do
//! change mid-run), the dense neighbourhood, the lossy hidden-terminal
//! layout, the RTO blackout, and the 4×16 campus that perfbench's smoke
//! scale runs, each in both result families. A change that
//! claims to be exact must leave the file as it is. On a mismatch the test
//! names the cases that moved and prints the whole file as this build
//! computes it, so an intended behaviour change updates it by copy-paste
//! (and says so in its description). Each case also runs untraced, and its
//! `RunResult` must have the row's `result` digest.

use wmn_bench::{
    blackout_scenario, dense_neighbourhood_scenario, fig6_class_mobile_scenario,
    fig6_class_scenario, lossy_scenario, smoke_campus_scenario,
};
use wmn_netsim::{run, run_traced, FlowSpec, MotionPlan, NodePath, Scenario, Scheme, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_sim::{NodeId, SimDuration};
use wmn_traffic::CbrModel;

const CORPUS: &str = include_str!("../../../ci/exact_corpus.json");

const SCHEMES: [(&str, Scheme); 6] = [
    ("DCF-1", Scheme::Dcf { aggregation: 1 }),
    ("AFR-16", Scheme::Dcf { aggregation: 16 }),
    ("RIPPLE-1", Scheme::Ripple { aggregation: 1 }),
    ("RIPPLE-16", Scheme::Ripple { aggregation: 16 }),
    ("MCExOR", Scheme::McExor),
    ("preExOR", Scheme::PreExor),
];

/// FNV-1a, 32 bit, over the `Debug` rendering of `value`.
fn digest(value: &impl std::fmt::Debug) -> u32 {
    format!("{value:?}")
        .bytes()
        .fold(0x811c_9dc5, |hash, b| (hash ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// A 5 m line 0-1-2-3 with a spare relay at (5, 3), whose first relay
/// drifts away at 60 m/s: a CBR flow keeps delivering only if the refresh
/// re-routes it through the spare.
fn drifting_relay(scheme: Scheme) -> Scenario {
    let mut positions: Vec<Position> = (0..4).map(|i| Position::new(5.0 * i as f64, 0.0)).collect();
    positions.push(Position::new(5.0, 3.0));
    let mut paths = vec![NodePath::Static; positions.len()];
    paths[1] = NodePath::Drift { vx_mps: 0.0, vy_mps: 60.0 };
    Scenario {
        name: "corpus-drifting-relay".into(),
        params: PhyParams::paper_216(),
        positions,
        scheme,
        flows: vec![FlowSpec {
            path: (0..4).map(NodeId::new).collect(),
            workload: Workload::Cbr(CbrModel {
                packet_bytes: 1000,
                interval: SimDuration::from_millis(2),
            }),
        }],
        duration: SimDuration::from_millis(400),
        seed: 0,
        max_forwarders: 5,
        motion: MotionPlan { paths, tick: SimDuration::from_millis(10) },
        route_refresh: Some(SimDuration::from_millis(50)),
        shards: None,
    }
}

/// Every case, named `<layout>/<scheme>/<family>`.
fn cases() -> Vec<(String, Scenario)> {
    let ms = SimDuration::from_millis;
    let mut cases = Vec::new();
    for (label, scheme) in SCHEMES {
        let mobile = Scenario {
            scheme,
            route_refresh: Some(ms(50)),
            ..fig6_class_mobile_scenario(3, ms(400))
        };
        let dense = Scenario { scheme, ..dense_neighbourhood_scenario(ms(15)) };
        let layouts = [
            ("fig6-0", fig6_class_scenario(0, scheme, ms(60))),
            ("fig6-5", fig6_class_scenario(5, scheme, ms(60))),
            ("fig6-mobile-refresh50", mobile),
            ("drifting-relay-refresh50", drifting_relay(scheme)),
            ("dense-16x16", dense),
            ("lossy", Scenario { scheme, ..lossy_scenario() }),
            ("blackout", Scenario { scheme, ..blackout_scenario() }),
            ("campus-4x16", smoke_campus_scenario(scheme, ms(20))),
        ];
        for (layout, scenario) in layouts {
            for (family, shards) in [("legacy", None), ("per-entity", Some(1))] {
                cases.push((
                    format!("{layout}/{label}/{family}"),
                    Scenario { shards, ..scenario.clone() },
                ));
            }
        }
    }
    cases
}

/// One case's row of the corpus file, from its traced run, and the digest
/// of the `RunResult` of its untraced run.
fn row((name, scenario): &(String, Scenario)) -> (String, u32) {
    let (result, trace) = run_traced(scenario);
    let row = format!(
        "    {{ \"case\": \"{name}\", \"result\": {}, \"trace\": {} }}",
        digest(&result),
        digest(&trace)
    );
    (row, digest(&run(scenario)))
}

/// The corpus file as this build computes it, and each case's untraced
/// result digest. The cases run on two threads, one half each (the halves
/// cost about the same: schemes are the outer loop), and the rows come
/// back in case order.
fn render() -> (String, Vec<(String, u32)>) {
    let cases = cases();
    let (first, second) = cases.split_at(cases.len() / 2);
    let (rows, untraced): (Vec<String>, Vec<u32>) = std::thread::scope(|scope| {
        let other = scope.spawn(|| second.iter().map(row).collect::<Vec<_>>());
        let mut rows: Vec<(String, u32)> = first.iter().map(row).collect();
        rows.extend(other.join().expect("a corpus case panicked"));
        rows.into_iter().unzip()
    });
    let untraced = cases.into_iter().map(|(name, _)| name).zip(untraced).collect();
    let file = format!(
        "{{\n  \"artefact\": \"exact_corpus\",\n  \"comment\": \"FNV-1a 32 of the Debug \
         rendering of each case's RunResult and Trace; checked by crates/bench/tests/\
         exact_corpus.rs. An exact change leaves this file unchanged.\",\n  \"cases\": [\n{}\n  \
         ]\n}}\n",
        rows.join(",\n")
    );
    (file, untraced)
}

/// Every row matches the traced run, and every case's untraced `RunResult`
/// has the row's `result` digest: the receptions an untraced run leaves
/// out (`Scenario::observed_stations`) change nothing it reports.
#[test]
fn exact_corpus_is_unchanged() {
    let (actual, untraced) = render();
    if actual == CORPUS {
        let untraced_moved: Vec<&str> = untraced
            .iter()
            .filter(|(name, result)| {
                !CORPUS.contains(&format!("\"case\": \"{name}\", \"result\": {result},"))
            })
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(
            untraced_moved.is_empty(),
            "untraced runs whose RunResult differs from the row's: {untraced_moved:?}"
        );
        return;
    }
    let committed: Vec<&str> = CORPUS.lines().collect();
    let moved: Vec<&str> = actual
        .lines()
        .filter(|line| line.contains("\"case\"") && !committed.contains(line))
        .filter_map(|line| line.split('"').nth(3))
        .collect();
    panic!(
        "\n== ci/exact_corpus.json diverged; cases that moved: {moved:?} ==\n\
         -- actual --\n{actual}-- end actual --\n"
    );
}
