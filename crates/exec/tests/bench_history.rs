//! `BENCH_history.json` — the repository's performance trajectory — stays
//! machine-readable: one JSON object per line, every record carrying the
//! fields the next reader (a re-anchor, a `perf_opt` PR looking for its
//! baseline) relies on.

use wmn_exec::json::{parse, Value};

const WORKLOADS: [&str; 4] = ["paper_figs", "campus1024", "mobile_refresh", "sweep_short"];
const END_TO_END: [&str; 5] =
    ["wall_s", "sim_s_per_wall_s", "frames_per_wall_s", "setup_s", "peak_bytes"];

/// `{median, q1, q3}`: numbers, or — only where a record was backfilled
/// from CHANGES.md prose that did not carry the value — `null`.
fn check_metric(record: &str, metric: &Value, nulls_allowed: bool) {
    let stats = ["q1", "median", "q3"].map(|stat| match metric.get(stat) {
        Some(Value::Null) if nulls_allowed => None,
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 => Some(x),
            _ => panic!("{record}: {stat} must be a non-negative number, got {v:?}"),
        },
        None => panic!("{record}: no {stat}"),
    });
    if let [Some(q1), Some(median), Some(q3)] = stats {
        assert!(q1 <= median && median <= q3, "{record}: quartiles out of order");
    }
}

#[test]
fn every_line_of_bench_history_is_a_complete_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.json");
    let text = std::fs::read_to_string(path).expect("BENCH_history.json at the repository root");
    let mut records = 0;
    for (n, line) in text.lines().enumerate() {
        let record = format!("BENCH_history.json:{}", n + 1);
        let doc = parse(line).unwrap_or_else(|e| panic!("{record}: {e}"));
        let text_field = |key: &str| {
            let value = doc.get(key).and_then(Value::as_str);
            value.filter(|s| !s.is_empty()).unwrap_or_else(|| panic!("{record}: no {key:?}"))
        };
        let commit = text_field("commit");
        assert!(
            commit.len() >= 7 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
            "{record}: commit {commit:?} is not a hash",
        );
        let date = text_field("date");
        assert!(date.len() == 10 && date.split('-').count() == 3, "{record}: date {date:?}");
        text_field("hardware");
        text_field("rustc");
        let source = text_field("source");
        assert!(matches!(source, "changelog" | "perfbench"), "{record}: source {source:?}");
        for count in ["rust_lines", "tier1_tests"] {
            let value = doc.get(count).and_then(Value::as_u64);
            assert!(value.is_some_and(|v| v > 0), "{record}: no {count:?}");
        }
        let workloads = doc.get("workloads").unwrap_or_else(|| panic!("{record}: no workloads"));
        for workload in WORKLOADS {
            let record = format!("{record} {workload}");
            let w = workloads.get(workload).unwrap_or_else(|| panic!("{record}: missing"));
            let seeds = w.get("seeds").and_then(Value::as_arr);
            let seeds = seeds.unwrap_or_else(|| panic!("{record}: no seed list"));
            assert!(
                !seeds.is_empty() && seeds.iter().all(|s| s.as_u64().is_some()),
                "{record}: seeds must be a non-empty list of integers",
            );
            for metric in END_TO_END {
                let m = w.get(metric).unwrap_or_else(|| panic!("{record}: no {metric}"));
                check_metric(&format!("{record} {metric}"), m, source == "changelog");
            }
        }
        records += 1;
    }
    assert!(records >= 4, "two backfilled records and at least one A/B pair, got {records}");
}
