//! The CI perf-regression gate: diffs fresh repro/sweep JSON against the
//! committed baseline `ci/baseline_repro.json`.
//!
//! For every artefact listed in the baseline it checks that
//!
//! * the fresh `tables` sub-document is **byte-identical** to the baseline
//!   (the simulation is deterministic per seed, so any drift is a real
//!   behaviour change — or an intended one that must refresh the baseline);
//! * the run count matches (a silently shrunk grid would otherwise look
//!   "fast");
//! * the timing accounting is sane: positive wall-clock and non-negative
//!   busy time, both finite. How long the runs took is not gated — absolute
//!   times depend on the host, and `perfbench/` is where time is measured.
//!
//! ## Refreshing the baseline
//!
//! After an *intended* behaviour change (physics fix, new sweep spec):
//!
//! ```text
//! cargo run --release -p wmn_experiments --bin repro_all        # RIPPLE_REPRO=quick default
//! cargo run --release -p wmn_experiments --bin scenario_sweep
//! cargo run --release -p wmn_experiments --bin check_baseline -- --update
//! git add ci/baseline_repro.json   # and say why in the commit message
//! ```
//!
//! `--update` rewrites the baseline from the fresh documents for the same
//! artefact set (or the default set when bootstrapping), and rewrites the
//! exactness corpus beside it (`exact_corpus.json`, rendered by
//! [`wmn_bench::corpus`]), so one command re-baselines both. `--update
//! --only <name>` refreshes just that entry, carries the others over
//! verbatim and leaves the corpus alone; a name the baseline does not list
//! yet is appended, which is how a new artefact (e.g.
//! `sweep_ci-mobility-refresh`) joins the gate.
//!
//! ## The statistical judge
//!
//! `--statistical --write <file>` runs the seed ensemble of
//! [`wmn_experiments::statistical`] and stores each cell's mean, standard
//! error and count; `--statistical --against <file>` reruns it and exits 1
//! if a cell moved (Welch's |t| > 4) or an ordering of
//! `tests/paper_shapes.rs` fails on the ensemble means. It judges a change
//! that moves every byte on purpose, which the table gate above cannot.

use std::path::{Path, PathBuf};
use std::process::exit;

use wmn_exec::json::{self, Value};

/// Artefacts a bootstrap `--update` captures: the three golden-suite
/// figures plus the CI sweep.
const DEFAULT_ARTEFACTS: [&str; 4] = ["fig3", "fig6", "table3", "sweep_ci-quick"];

fn usage() -> ! {
    eprintln!(
        "usage: check_baseline [--baseline <file>] [--fresh <dir>] [--only <artefact>]... \
         [--update]\n\
         \n\
         Defaults: --baseline ci/baseline_repro.json, --fresh target/repro\n\
         (RIPPLE_REPRO_DIR overrides the fresh directory).\n\
         --only restricts the gate (or an --update refresh) to the named\n\
         baseline artefact(s), for jobs that regenerate only part of the\n\
         repro set; other entries are left untouched. With --update, a\n\
         name the baseline does not list yet is appended to it.\n\
         --update rewrites the baseline from the fresh documents, and (without\n\
         --only) the exactness corpus exact_corpus.json beside it.\n\
         \n\
         check_baseline --statistical (--write <file> | --against <file>)\n\
         runs the seed ensemble and writes it as a reference, or judges it\n\
         against one (Welch's |t| > 4 per cell, and the paper's orderings)."
    );
    exit(2)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))
}

/// The fresh document's run count: repro artefacts carry it under
/// `timing.runs`, sweep documents at top level as `runs`.
fn fresh_runs(doc: &Value) -> Option<u64> {
    doc.get("timing")
        .and_then(|t| t.get("runs"))
        .or_else(|| doc.get("runs"))
        .and_then(Value::as_u64)
}

/// Timing block of an artefact: the document's own `timing`, or the
/// side-car `<artefact>_timing.json` sweep binaries write.
fn timing_of(doc: &Value, dir: &Path, artefact: &str) -> Option<Value> {
    if let Some(t) = doc.get("timing") {
        return Some(t.clone());
    }
    let side_car = dir.join(format!("{artefact}_timing.json"));
    load(&side_car).ok().and_then(|d| d.get("timing").cloned())
}

fn check_artefact(entry: &Value, dir: &Path, failures: &mut Vec<String>) {
    let Some(name) = entry.get("artefact").and_then(Value::as_str).map(str::to_string) else {
        failures.push("baseline entry without an \"artefact\" name".into());
        return;
    };
    let doc = match load(&dir.join(format!("{name}.json"))) {
        Ok(doc) => doc,
        Err(err) => {
            failures.push(format!("{name}: missing fresh document ({err})"));
            return;
        }
    };
    // 1. Result tables must match byte for byte.
    let fresh_tables = doc.get("tables").map(Value::to_string).unwrap_or_default();
    let base_tables = entry.get("tables").map(Value::to_string).unwrap_or_default();
    if fresh_tables != base_tables {
        failures.push(format!(
            "{name}: result tables drifted from the baseline.\n\
             If this change is intended, refresh with `check_baseline --update` and say so\n\
             in the commit. Fresh tables:\n{fresh_tables}"
        ));
    }
    // 2. Same amount of work.
    let base_runs = entry.get("runs").and_then(Value::as_u64);
    let runs = fresh_runs(&doc);
    if base_runs.is_some() && runs != base_runs {
        failures.push(format!("{name}: ran {runs:?} runs, baseline expects {base_runs:?}"));
    }
    // 3. Sane accounting.
    let Some(timing) = timing_of(&doc, dir, &name) else {
        failures.push(format!("{name}: no timing accounting found"));
        return;
    };
    let wall = timing.get("wall_ms").and_then(Value::as_f64).unwrap_or(-1.0);
    let busy = timing.get("busy_ms").and_then(Value::as_f64).unwrap_or(-1.0);
    if !(wall > 0.0 && wall.is_finite() && busy >= 0.0 && busy.is_finite()) {
        failures.push(format!("{name}: implausible timing (wall_ms {wall}, busy_ms {busy})"));
    }
}

/// Builds one refreshed baseline entry from the fresh document on disk.
fn fresh_entry(name: &str, dir: &Path) -> Value {
    let doc = match load(&dir.join(format!("{name}.json"))) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("error: {name}: {err} (run repro_all and scenario_sweep first)");
            exit(1)
        }
    };
    let mut entry = Value::obj().with("artefact", name);
    if let Some(runs) = fresh_runs(&doc) {
        entry = entry.with("runs", runs);
    }
    entry.with("tables", doc.get("tables").cloned().unwrap_or(Value::Arr(vec![])))
}

fn write_baseline(baseline_path: &Path, entries: Vec<Value>) {
    let doc = Value::obj()
        .with(
            "comment",
            "Committed repro baseline for the CI gate. Refresh: see the doc comment in \
             crates/experiments/src/bin/check_baseline.rs",
        )
        .with("artefacts", Value::Arr(entries));
    // Checked emission: a NaN that slipped into timing or tables must abort
    // the refresh, not be committed as `null` and break every future diff.
    let text = match doc.to_json_string() {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: refusing to write baseline: {err}");
            exit(1)
        }
    };
    if let Some(parent) = baseline_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(baseline_path, format!("{text}\n")) {
        Ok(()) => println!("baseline refreshed: {}", baseline_path.display()),
        Err(err) => {
            eprintln!("error: could not write {}: {err}", baseline_path.display());
            exit(1)
        }
    }
}

/// `--statistical`: run the ensemble, then write it to `write` or judge it
/// against the reference at `against`.
fn statistical(write: Option<PathBuf>, against: Option<PathBuf>) -> ! {
    use wmn_experiments::statistical::{judge, Ensemble};
    let reference = against.as_deref().map(load).transpose().unwrap_or_else(|err| {
        eprintln!("error: {err}");
        exit(1)
    });
    let ensemble = Ensemble::run(wmn_exec::Executor::from_env().jobs()).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        exit(1)
    });
    if let Some(path) = write {
        let text = ensemble.to_json().to_json_string().unwrap_or_else(|err| {
            eprintln!("error: refusing to write the reference: {err}");
            exit(1)
        });
        if let Err(err) = std::fs::write(&path, format!("{text}\n")) {
            eprintln!("error: could not write {}: {err}", path.display());
            exit(1)
        }
        println!("statistical reference written: {}", path.display());
    }
    let Some(reference) = reference else { exit(0) };
    let verdict = judge(&reference, &ensemble).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        exit(1)
    });
    for line in &verdict.failed {
        eprintln!("FAIL {line}");
    }
    for (ordering, _) in verdict.orderings.iter().filter(|o| !o.1) {
        eprintln!("FAIL ordering {ordering}");
    }
    println!("{}", verdict.summary());
    exit(if verdict.passed() { 0 } else { 1 })
}

fn main() {
    let mut baseline_path = PathBuf::from("ci/baseline_repro.json");
    let mut fresh_dir: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut update = false;
    let (mut stat, mut write, mut against) = (false, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--fresh" => fresh_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--only" => only.push(args.next().unwrap_or_else(|| usage())),
            "--update" => update = true,
            "--statistical" => stat = true,
            "--write" => write = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--against" => against = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    if stat != (write.is_some() || against.is_some()) {
        usage();
    }
    if stat {
        statistical(write, against);
    }
    let dir = fresh_dir.unwrap_or_else(wmn_exec::report::repro_dir);

    if update {
        // Keep the existing artefact set when the baseline already exists
        // (the default set bootstraps a missing file). `--only` restricts
        // which entries are refreshed; the rest are carried over verbatim —
        // never silently re-sourced from possibly-stale fresh files.
        let existing: Vec<Value> = load(&baseline_path)
            .ok()
            .and_then(|doc| doc.get("artefacts").and_then(Value::as_arr).map(<[Value]>::to_vec))
            .unwrap_or_default();
        let entry_name = |e: &Value| e.get("artefact").and_then(Value::as_str).map(str::to_string);
        let mut names: Vec<String> = if existing.is_empty() {
            DEFAULT_ARTEFACTS.iter().map(|s| s.to_string()).collect()
        } else {
            existing.iter().filter_map(&entry_name).collect()
        };
        // `--update --only <new>` is how an artefact joins the baseline: it
        // is appended after the existing entries (a misspelt name has no
        // fresh document, and `fresh_entry` refuses it).
        for name in &only {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        let entries: Vec<Value> = names
            .iter()
            .map(|name| {
                if only.is_empty() || only.contains(name) {
                    fresh_entry(name, &dir)
                } else {
                    existing
                        .iter()
                        .find(|e| entry_name(e).as_deref() == Some(name))
                        .expect("name came from this list")
                        .clone()
                }
            })
            .collect();
        write_baseline(&baseline_path, entries);
        if only.is_empty() {
            let corpus = baseline_path.with_file_name("exact_corpus.json");
            match std::fs::write(&corpus, wmn_bench::corpus::render().0) {
                Ok(()) => println!("exactness corpus refreshed: {}", corpus.display()),
                Err(err) => {
                    eprintln!("error: could not write {}: {err}", corpus.display());
                    exit(1)
                }
            }
        }
        return;
    }

    let baseline = match load(&baseline_path) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("error: {err}\n(bootstrap with `check_baseline -- --update`)");
            exit(1)
        }
    };
    let Some(entries) = baseline.get("artefacts").and_then(Value::as_arr) else {
        eprintln!("error: {} has no \"artefacts\" array", baseline_path.display());
        exit(1)
    };
    let selected: Vec<&Value> = entries
        .iter()
        .filter(|e| {
            only.is_empty()
                || e.get("artefact")
                    .and_then(Value::as_str)
                    .is_some_and(|name| only.iter().any(|o| o == name))
        })
        .collect();
    for name in &only {
        let known = entries
            .iter()
            .any(|e| e.get("artefact").and_then(Value::as_str) == Some(name.as_str()));
        if !known {
            eprintln!("error: --only {name:?} matches no baseline artefact");
            exit(2);
        }
    }
    let mut failures = Vec::new();
    for entry in &selected {
        check_artefact(entry, &dir, &mut failures);
    }
    if failures.is_empty() {
        println!("baseline gate: {} artefact(s) match {}", selected.len(), baseline_path.display());
    } else {
        for failure in &failures {
            eprintln!("FAIL {failure}\n");
        }
        eprintln!("baseline gate: {} failure(s)", failures.len());
        exit(1);
    }
}
