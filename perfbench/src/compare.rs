//! `benchmark --compare A B`: two sets of recorded runs, side by side.
//!
//! A set is a file of JSON lines written with `--out`: one record per
//! invocation, `{"workload", "seed", "trace", "result"}` where `result` is
//! the driver's result line. For each workload × end-to-end metric the two
//! medians are printed with their ratio and a verdict from the bound in
//! `BENCHMARK.json`; exact counts (`model.*`, `netsim.trace.*`) of runs that
//! share workload and seed must be identical unless `--rebaseline` is given.

use std::collections::BTreeMap;

use wmn_exec::json::{parse, Value};

use crate::report::{Contract, MetricSpec};

/// (workload, seed) → metric → value, for one trace mode.
type Records = BTreeMap<(String, u64), BTreeMap<String, f64>>;

/// One parsed set: end-to-end records and per-layer records.
#[derive(Clone, Debug, Default)]
pub struct RecordSet {
    end_to_end: Records,
    per_layer: Records,
    incorrect: usize,
}

/// Parses a `--out` file.
///
/// # Errors
///
/// Malformed lines are reported with their line number.
pub fn parse_records(text: &str) -> Result<RecordSet, String> {
    let mut set = RecordSet::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let doc = parse(line).map_err(|e| bad(&e))?;
        let workload =
            doc.get("workload").and_then(Value::as_str).ok_or_else(|| bad("workload"))?;
        let seed = doc.get("seed").and_then(Value::as_u64).ok_or_else(|| bad("seed"))?;
        let trace = doc.get("trace").and_then(Value::as_u64).ok_or_else(|| bad("trace"))?;
        let result = doc.get("result").ok_or_else(|| bad("result"))?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            set.incorrect += 1;
        }
        let Some(Value::Obj(metrics)) = result.get("metrics") else { return Err(bad("metrics")) };
        let values = metrics
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(Value::as_f64).ok_or_else(|| bad(k))?;
                Ok((k.clone(), value))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        let records = if trace == 0 { &mut set.end_to_end } else { &mut set.per_layer };
        records.insert((workload.to_string(), seed), values);
    }
    Ok(set)
}

/// First quartile, median and third quartile by the "exclusive" method
/// Python's `statistics.quantiles(values, n=4)` uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's own quartile spread is wider than the bound, and B is not better
    /// on every run: the data cannot tell.
    Unresolved,
}

/// Compares one metric's values in A and B.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (a1, a2, a3) = quartiles(a);
    let (_, b2, _) = quartiles(b);
    let bound = spec.bound.unwrap_or(0.0);
    let worse_by = if spec.lower_is_better { b2 / a2 - 1.0 } else { 1.0 - b2 / a2 };
    let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if (a3 - a1).abs() / a2.abs() > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (a2, b2, b2 / a2, verdict)
}

fn is_exact_count(name: &str) -> bool {
    name.starts_with("model.")
        || name.starts_with("netsim.trace.") && name != "netsim.trace.overhead_ratio"
}

/// Prints the comparison; returns whether it passed (no regression, no
/// incorrect run, no unexpected count change).
pub fn compare(contract: &Contract, a: &RecordSet, b: &RecordSet, rebaseline: bool) -> bool {
    let mut pass = a.incorrect == 0 && b.incorrect == 0;
    if !pass {
        println!("incorrect runs: A {}, B {}", a.incorrect, b.incorrect);
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B/A"
    );
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let pick = |set: &RecordSet| -> Vec<f64> {
                set.end_to_end
                    .iter()
                    .filter(|((w, _), _)| w == workload)
                    .filter_map(|(_, m)| m.get(&spec.name).copied())
                    .collect()
            };
            let (va, vb) = (pick(a), pick(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb, ratio, v) = verdict(spec, &va, &vb);
            let word = match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            pass &= v != Verdict::Regressed;
            println!(
                "{workload:<16} {:<20} {ma:>14.6} {mb:>14.6} {ratio:>9.4}  {word} (n={}/{}, bound {})",
                spec.name,
                va.len(),
                vb.len(),
                spec.bound.unwrap_or(0.0)
            );
        }
    }
    for (key, ma) in &a.per_layer {
        let Some(mb) = b.per_layer.get(key) else { continue };
        for (name, va) in ma.iter().filter(|(name, _)| is_exact_count(name)) {
            let vb = mb.get(name).copied().unwrap_or(f64::NAN);
            if *va != vb {
                println!("{} seed {}: {name} changed {va} -> {vb}", key.0, key.1);
                pass &= rebaseline;
            }
        }
    }
    pass
}
