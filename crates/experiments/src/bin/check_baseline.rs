//! The stored-results gate's command: checks or rewrites
//! `ci/baseline_repro.json` by regenerating its entries in this process
//! ([`wmn_experiments::baseline`]), with nothing to run first.
//!
//! For every entry the regenerated `tables` must be **byte-identical** to
//! the stored ones (the simulation is deterministic per seed, so any drift
//! is a real behaviour change — or an intended one that must refresh the
//! baseline), and the run count must match (a silently shrunk grid would
//! otherwise look "fast"). The tier-1 tests `tests/golden.rs` and
//! `tests/baseline.rs` check the same through the same function; this command runs it in a release
//! build and can restrict it to named entries.
//!
//! ## Refreshing the baseline
//!
//! After an *intended* behaviour change (physics fix, new sweep spec):
//!
//! ```text
//! cargo run --release -p wmn_experiments --bin check_baseline -- --update
//! git add ci/   # and say why in the commit message
//! ```
//!
//! `--update` rewrites every entry from its regeneration, and rewrites the
//! exactness corpus beside it (`exact_corpus.json`, rendered by
//! [`wmn_bench::corpus`]), so one command re-baselines both. `--update
//! --only <name>` refreshes just that entry, carries the others over
//! verbatim and leaves the corpus alone.
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
use wmn_exec::Executor;
use wmn_experiments::baseline;

fn usage() -> ! {
    eprintln!(
        "usage: check_baseline [--baseline <file>] [--only <artefact>]... [--update]\n\
         \n\
         Regenerates every entry of the baseline (default ci/baseline_repro.json)\n\
         in this process and fails on any that moved. --only restricts the\n\
         check (or an --update refresh) to the named entries; other entries\n\
         are left untouched. --update rewrites the baseline from the\n\
         regeneration, and (without --only) the exactness corpus\n\
         exact_corpus.json beside it.\n\
         \n\
         check_baseline --statistical (--write <file> | --against <file>)\n\
         runs the seed ensemble and writes it as a reference, or judges it\n\
         against one (Welch's |t| > 4 per cell, and the paper's orderings)."
    );
    exit(2)
}

fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    exit(1)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))
}

/// Writes `text` to `path`, or exits 1 naming it.
fn write_text(path: &Path, text: &str) {
    if let Err(err) = std::fs::write(path, text) {
        fail(format!("could not write {}: {err}", path.display()))
    }
}

/// Checked emission: a NaN in a document must abort the write, not be
/// committed as `null` and break every later comparison.
fn write_json(path: &Path, doc: &Value) {
    match doc.to_json_string() {
        Ok(text) => write_text(path, &format!("{text}\n")),
        Err(err) => fail(format!("refusing to write {}: {err}", path.display())),
    }
}

/// `--statistical`: run the ensemble, then write it to `write` or judge it
/// against the reference at `against`.
fn statistical(write: Option<PathBuf>, against: Option<PathBuf>) -> ! {
    use wmn_experiments::statistical::{judge, Ensemble};
    let reference = against.as_deref().map(load).transpose().unwrap_or_else(|err| fail(err));
    let ensemble = Ensemble::run(Executor::from_env().jobs()).unwrap_or_else(|err| fail(err));
    if let Some(path) = write {
        write_json(&path, &ensemble.to_json());
        println!("statistical reference written: {}", path.display());
    }
    let Some(reference) = reference else { exit(0) };
    let verdict = judge(&reference, &ensemble).unwrap_or_else(|err| fail(err));
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
    let mut only: Vec<String> = Vec::new();
    let mut update = false;
    let (mut stat, mut write, mut against) = (false, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = PathBuf::from(args.next().unwrap_or_else(|| usage())),
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

    let doc = load(&baseline_path).unwrap_or_else(|err| fail(err));
    let entries = baseline::entries(&doc)
        .unwrap_or_else(|err| fail(format!("{}: {err}", baseline_path.display())));
    for name in &only {
        if !entries.iter().any(|e| baseline::name(e) == name) {
            eprintln!("error: --only {name:?} matches no baseline artefact");
            exit(2);
        }
    }
    let jobs = Executor::from_env().jobs();
    let selected = |e: &Value| only.is_empty() || only.iter().any(|o| o == baseline::name(e));
    let mut fresh = Vec::with_capacity(entries.len());
    let mut moved = Vec::new();
    for entry in entries {
        if !selected(entry) {
            fresh.push(entry.clone());
            continue;
        }
        let regenerated = baseline::regenerate(entry, jobs).unwrap_or_else(|err| fail(err));
        moved.extend(baseline::moved(entry, &regenerated));
        fresh.push(regenerated);
    }
    if update {
        write_json(&baseline_path, &baseline::document(fresh));
        println!("baseline refreshed: {}", baseline_path.display());
        if only.is_empty() {
            let corpus = baseline_path.with_file_name("exact_corpus.json");
            write_text(&corpus, &wmn_bench::corpus::render().0);
            println!("exactness corpus refreshed: {}", corpus.display());
        }
        return;
    }
    let checked = entries.iter().filter(|e| selected(e)).count();
    if moved.is_empty() {
        println!("baseline gate: {checked} artefact(s) match {}", baseline_path.display());
    } else {
        for why in &moved {
            eprintln!("FAIL {why}\n");
        }
        eprintln!(
            "baseline gate: {} of {checked} artefact(s) moved. If the change is intended, \
             refresh with `check_baseline --update` and say so in the commit.",
            moved.len()
        );
        exit(1);
    }
}
