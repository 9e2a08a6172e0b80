//! The exactness corpus ([`wmn_bench::corpus`]): every row of
//! `ci/exact_corpus.json` must match this build's traced run of its case.
//! A change that claims to be exact must leave the file as it is. On a
//! mismatch the test names the cases that moved and prints the whole file
//! as this build computes it; an intended behaviour change rewrites it
//! with `check_baseline --update` (and says so in its description). Each
//! case also runs untraced, and its `RunResult` must have the row's
//! `result` digest. The same cases check that every transmission is
//! counted once in `MacStats`.

use wmn_netsim::TraceKind;

const CORPUS: &str = include_str!("../../../ci/exact_corpus.json");

/// Every row matches the traced run, and every case's untraced `RunResult`
/// has the row's `result` digest: the receptions an untraced run leaves
/// out (`Scenario::observed_stations`) change nothing it reports.
#[test]
fn exact_corpus_is_unchanged() {
    let (actual, untraced) = wmn_bench::corpus::render();
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

/// Every transmission a station starts is counted once in its `MacStats`:
/// on the fig-6(b) class and the smoke campus, under every scheme, the data
/// and ACK transmissions a traced run records at each station equal its
/// data, relay and ACK frames sent.
#[test]
fn every_transmission_is_counted_once() {
    let mut relays = 0;
    for (name, scenario) in wmn_bench::corpus::cases() {
        if !["fig6-0/", "fig6-5/", "campus-4x16/"].iter().any(|layout| name.starts_with(layout)) {
            continue;
        }
        let (result, trace) = wmn_netsim::run_traced(&scenario);
        let mut on_air = vec![0u64; scenario.positions.len()];
        for event in trace.events.iter().filter(|e| matches!(e.kind, TraceKind::TxStart { .. })) {
            on_air[event.node.index()] += 1;
        }
        let stats = &result.mac_stats;
        let counted: Vec<u64> = stats
            .iter()
            .map(|s| s.data_frames_sent + s.relay_frames_sent + s.ack_frames_sent)
            .collect();
        assert_eq!(on_air, counted, "{name}");
        relays += stats.iter().map(|s| s.relay_frames_sent).sum::<u64>();
    }
    assert!(relays > 0, "nothing was relayed: the relay count went untested");
}
