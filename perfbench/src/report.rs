//! The benchmark contract (`BENCHMARK.json`, compiled in) and the result
//! line the driver reads.

use std::collections::BTreeMap;

use wmn_exec::json::{parse, Value};

/// `BENCHMARK.json` as committed next to this package: the one place metric
/// names, units, directions and bounds are written down.
pub const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether smaller is better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program itself needs.
#[derive(Clone, Debug)]
pub struct Contract {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics printed with `--trace 0`.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics printed with `--trace 1`.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc.get(key).and_then(Value::as_arr).ok_or_else(|| format!("{key} missing"))?;
    items
        .iter()
        .map(|item| {
            let text = |k: &str| {
                item.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key}: entry without {k}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: item.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parses the compiled-in contract.
///
/// # Errors
///
/// A malformed `BENCHMARK.json` is reported with the offending key.
pub fn contract() -> Result<Contract, String> {
    let doc = parse(CONTRACT_JSON)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("workloads missing")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    Ok(Contract {
        workloads,
        end_to_end: metric_specs(&doc, "end_to_end")?,
        per_layer: metric_specs(&doc, "per_layer")?,
    })
}

/// Formats the driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being exactly
/// `specs` in contract order.
///
/// # Errors
///
/// A metric the contract names but the run did not produce (or the reverse),
/// and a non-finite value, are bugs in this package and reported as such.
pub fn result_line(
    specs: &[MetricSpec],
    values: &BTreeMap<String, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !specs.iter().any(|s| &s.name == *k)) {
        return Err(format!("metric {extra:?} is not in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = *values
            .get(&spec.name)
            .ok_or_else(|| format!("metric {:?} of BENCHMARK.json was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric {:?} is not finite: {value}", spec.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
