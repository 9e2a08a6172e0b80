//! The exactness corpus `ci/exact_corpus.json`: one row per case, each a
//! 32-bit FNV-1a digest of the `Debug` rendering of the case's `RunResult`
//! and of its `Trace` (perfbench's `model.result_digest32` rule, applied to
//! one run).
//!
//! The cases are the six schemes over the fig-6(b)-class scenario with 0
//! and 5 hidden senders, its mobile variant with a 50 ms route refresh, a
//! drifting relay with a 50 ms route refresh (the layout whose routes do
//! change mid-run), the dense neighbourhood, the lossy hidden-terminal
//! layout, the RTO blackout, and the 4×16 campus that perfbench's smoke
//! scale runs. `crates/bench/tests/exact_corpus.rs` checks the committed
//! file against [`render`], and `check_baseline --update` rewrites it.

use wmn_netsim::{run, run_traced, Scenario, Scheme};
use wmn_sim::SimDuration;

use crate::{
    blackout_scenario, dense_neighbourhood_scenario, drifting_relay_scenario,
    fig6_class_mobile_scenario, fig6_class_scenario, lossy_scenario, smoke_campus_scenario,
};

const SCHEMES: [(&str, Scheme); 6] = [
    ("DCF-1", Scheme::Dcf { aggregation: 1 }),
    ("AFR-16", Scheme::Dcf { aggregation: 16 }),
    ("RIPPLE-1", Scheme::Ripple { aggregation: 1 }),
    ("RIPPLE-16", Scheme::Ripple { aggregation: 16 }),
    ("MCExOR", Scheme::McExor),
    ("preExOR", Scheme::PreExor),
];

/// FNV-1a, 32 bit, over the `Debug` rendering of `value`.
pub fn digest(value: &impl std::fmt::Debug) -> u32 {
    format!("{value:?}")
        .bytes()
        .fold(0x811c_9dc5, |hash, b| (hash ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// Every case, named `<layout>/<scheme>`.
pub fn cases() -> Vec<(String, Scenario)> {
    let ms = SimDuration::from_millis;
    let mut cases = Vec::new();
    for (label, scheme) in SCHEMES {
        let mobile = Scenario {
            scheme,
            route_refresh: Some(ms(50)),
            ..fig6_class_mobile_scenario(3, ms(400))
        };
        let dense = Scenario { scheme, ..dense_neighbourhood_scenario(ms(15)) };
        let drifting = Scenario { scheme, ..drifting_relay_scenario() };
        let layouts = [
            ("fig6-0", fig6_class_scenario(0, scheme, ms(60))),
            ("fig6-5", fig6_class_scenario(5, scheme, ms(60))),
            ("fig6-mobile-refresh50", mobile),
            ("drifting-relay-refresh50", Scenario { route_refresh: Some(ms(50)), ..drifting }),
            ("dense-16x16", dense),
            ("lossy", Scenario { scheme, ..lossy_scenario() }),
            ("blackout", Scenario { scheme, ..blackout_scenario() }),
            ("campus-4x16", smoke_campus_scenario(scheme, ms(20))),
        ];
        cases.extend(layouts.map(|(layout, scenario)| (format!("{layout}/{label}"), scenario)));
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
pub fn render() -> (String, Vec<(String, u32)>) {
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
         exact_corpus.rs, rewritten by check_baseline --update. An exact change leaves \
         this file unchanged.\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    (file, untraced)
}
