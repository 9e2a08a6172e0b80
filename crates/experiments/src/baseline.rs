//! The stored-results gate: `ci/baseline_repro.json` pins the result tables
//! and run counts of three paper artefacts at [`ExpConfig::quick`] and of
//! three generated sweeps.
//!
//! [`regenerate`] reruns one entry in this process: a roster artefact
//! through [`crate::select`], a sweep through [`run_sweep`] on the spec the
//! entry itself stores. It has two callers: the tier-1 gate, `tests/golden.rs`
//! (one test per paper artefact) and `tests/baseline.rs` (the sweeps),
//! which fail naming every entry that [`moved`]; and
//! `check_baseline --update`, which rewrites the file from the same
//! regeneration. An entry joins the baseline by being added to the file by
//! hand (`{"artefact": "fig8"}`, or a `sweep_<name>` with its `"spec"`) and
//! refreshed with `check_baseline --update`.

use wmn_exec::json::Value;
use wmn_exec::report::table_value;
use wmn_exec::telemetry;
use wmn_scengen::SweepSpec;

use crate::common::ExpConfig;
use crate::sweep::{artefact_name, run_sweep};

/// The entries of a baseline document.
///
/// # Errors
///
/// A document without an `"artefacts"` array.
pub fn entries(doc: &Value) -> Result<&[Value], String> {
    doc.get("artefacts").and_then(Value::as_arr).ok_or_else(|| "no \"artefacts\" array".into())
}

/// The artefact name of a baseline entry, or `""` if it has none.
pub fn name(entry: &Value) -> &str {
    entry.get("artefact").and_then(Value::as_str).unwrap_or_default()
}

/// Reruns `entry` on `jobs` workers and returns it as this build computes
/// it: the same `artefact` (and `spec`), the runs executed and the tables.
///
/// The run count is read from the process-wide [`telemetry`], so nothing
/// else may execute plans in this process meanwhile.
///
/// # Errors
///
/// An entry without a name, a name the roster does not hold, a spec that
/// does not decode or is not named after the entry, or a sweep that fails
/// to expand.
pub fn regenerate(entry: &Value, jobs: usize) -> Result<Value, String> {
    let name = name(entry);
    if name.is_empty() {
        return Err("baseline entry without an \"artefact\" name".into());
    }
    let mut fresh = Value::obj().with("artefact", name);
    let _ = telemetry::take();
    let tables = match entry.get("spec") {
        Some(spec) => {
            let spec = SweepSpec::from_json(spec).map_err(|err| format!("{name}: {err}"))?;
            if artefact_name(&spec) != name {
                return Err(format!("{name}: its spec is named {:?}", spec.name));
            }
            fresh = fresh.with("spec", spec.to_json());
            vec![run_sweep(&spec, jobs)?.table]
        }
        None => {
            let [(_, generate)] = crate::select(&[name.to_string()])?[..] else {
                unreachable!("one name selects one artefact")
            };
            generate(&ExpConfig { jobs, ..ExpConfig::quick() })
        }
    };
    Ok(fresh
        .with("runs", telemetry::take().runs)
        .with("tables", Value::Arr(tables.iter().map(table_value).collect())))
}

/// Why `fresh` differs from the committed `entry` — its tables, byte for
/// byte, or its run count — or `None` if it does not.
pub fn moved(entry: &Value, fresh: &Value) -> Option<String> {
    let render = |doc: &Value, key| doc.get(key).map(Value::to_string);
    let name = name(entry);
    if render(entry, "tables") != render(fresh, "tables") {
        let tables = render(fresh, "tables").unwrap_or_default();
        return Some(format!("{name}: result tables moved; this build computes\n{tables}"));
    }
    let runs = |doc: &Value| doc.get("runs").and_then(Value::as_u64);
    (runs(entry) != runs(fresh)).then(|| {
        format!("{name}: ran {:?} runs, the baseline holds {:?}", runs(fresh), runs(entry))
    })
}

/// The baseline document holding `entries`.
pub fn document(entries: Vec<Value>) -> Value {
    Value::obj()
        .with(
            "comment",
            "Stored results: checked by crates/experiments/tests/{golden,baseline}.rs, \
             rewritten by check_baseline --update (crates/experiments/src/baseline.rs).",
        )
        .with("artefacts", Value::Arr(entries))
}
