//! Drives every workload and both kinds of run at smoke scale (tens of
//! simulated milliseconds, small placements — a few seconds in a debug
//! build) and holds the output against `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`; the
//! repository's own `cargo test` does not reach this package.

use std::collections::BTreeMap;

use wmn_perfbench::attribution::trace_run;
use wmn_perfbench::checks::output_checks;
use wmn_perfbench::measure::end_to_end;
use wmn_perfbench::report::{contract, result_line, MetricSpec};
use wmn_perfbench::workloads::{Scale, WORKLOADS};

/// The test binary needs the counting allocator for `peak_bytes` to be
/// non-zero, exactly like the `benchmark` binary.
#[global_allocator]
static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn assert_emits_exactly(specs: &[MetricSpec], values: &BTreeMap<String, f64>) {
    for spec in specs {
        assert!(well_formed(&spec.name), "bad metric name {:?}", spec.name);
        let value = values.get(&spec.name).unwrap_or_else(|| panic!("{} not emitted", spec.name));
        assert!(value.is_finite(), "{} = {value}", spec.name);
    }
    // `result_line` additionally rejects metrics the contract does not name.
    result_line(specs, values, true, 1, 0).expect("emitted set equals the contract's");
}

#[test]
fn contract_names_the_workloads_the_package_builds() {
    let contract = contract().expect("BENCHMARK.json parses");
    assert_eq!(contract.workloads, WORKLOADS);
    assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s" && m.lower_is_better));
    assert!(contract.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn end_to_end_emits_every_metric_and_passes_its_own_checks() {
    let contract = contract().expect("BENCHMARK.json parses");
    for name in WORKLOADS {
        let e2e = end_to_end(name, 3, Scale::Smoke, 0.0).expect(name);
        assert_eq!(e2e.failed, 0, "{name}: {:?}", e2e.failures);
        assert!(e2e.passes >= 2, "{name}: every item runs at least twice");
        assert_eq!(output_checks(&e2e), Vec::<String>::new(), "{name}");
        let values = e2e.metrics();
        assert!(values.values().all(|v| *v > 0.0), "{name}: end-to-end metrics are never 0");
        assert_emits_exactly(&contract.end_to_end, &values);
    }
}

#[test]
fn trace_run_emits_every_metric_and_exact_counts_repeat() {
    let contract = contract().expect("BENCHMARK.json parses");
    for name in WORKLOADS {
        let first = trace_run(name, 3, Scale::Smoke, 0.0).expect(name);
        let second = trace_run(name, 3, Scale::Smoke, 0.0).expect(name);
        assert_eq!(first.failed, 0, "{name}: {:?}", first.failures);
        assert_emits_exactly(&contract.per_layer, &first.metrics);
        for (key, value) in &first.metrics {
            if key.starts_with("model.")
                || key.starts_with("netsim.trace.") && !key.ends_with("_ratio")
            {
                assert_eq!(
                    second.metrics.get(key),
                    Some(value),
                    "{name}: {key} must repeat exactly"
                );
            }
        }
    }
}
