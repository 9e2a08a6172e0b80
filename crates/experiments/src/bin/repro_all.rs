//! Runs the paper's experiments, prints their tables, and writes one JSON
//! report per artefact (tables + wall-clock/run accounting) under
//! `target/repro/` — the full reproduction in one command.
//!
//! ```text
//! repro_all                 # every artefact of wmn_experiments::ROSTER
//! repro_all fig3 table3     # only the named ones, in that order
//! ```
//!
//! * `RIPPLE_REPRO` selects the setting: `quick` (default), `mid`, or
//!   `paper` (the 10 s × 5 seed runs). Unknown values abort.
//! * `RIPPLE_JOBS` caps the worker pool (default: all cores); results are
//!   bit-identical for any value.
//! * `RIPPLE_REPRO_DIR` overrides the JSON output directory.

use std::path::Path;
use std::time::Instant;

use wmn_exec::report::{self, ArtifactTiming};
use wmn_exec::telemetry;
use wmn_experiments::ExpConfig;
use wmn_metrics::Table;

/// Generates one artefact, prints its tables, writes its JSON report, and
/// appends a row to the wall-clock summary. Returns the artefact's executor
/// counters so the caller can total them (each call drains the global
/// telemetry, so the final summary must re-accumulate).
// Telemetry: times the generator for the report, never feeds a run.
#[allow(clippy::disallowed_methods)]
fn emit(
    (name, generate): wmn_experiments::Artefact,
    cfg: &ExpConfig,
    dir: &Path,
    summary: &mut Table,
) -> telemetry::Snapshot {
    let t0 = Instant::now();
    let tables = generate(cfg);
    let wall = t0.elapsed();
    let exec = telemetry::take();
    for t in &tables {
        println!("{t}");
    }
    let timing = ArtifactTiming { wall, exec, jobs: cfg.jobs };
    match report::write_artifact(
        dir,
        name,
        &tables,
        &timing,
        cfg.duration.as_secs_f64(),
        &cfg.seeds,
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write {name}.json: {err}"),
    }
    let wall_s = wall.as_secs_f64();
    let busy_s = exec.busy.as_secs_f64();
    summary.add_row(vec![
        name.to_string(),
        exec.runs.to_string(),
        format!("{wall_s:.2}"),
        format!("{busy_s:.2}"),
        format!("{:.2}x", if wall_s > 0.0 { busy_s / wall_s } else { 1.0 }),
    ]);
    exec
}

// Telemetry: the whole-run wall clock of the summary row.
#[allow(clippy::disallowed_methods)]
fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = wmn_experiments::select(&names).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    });
    let cfg = ExpConfig::from_env();
    let dir = report::repro_dir();
    println!("# RIPPLE reproduction — all tables\n");
    println!(
        "({}s x {} seeds, {} workers; JSON -> {})\n",
        cfg.duration.as_secs_f64(),
        cfg.seeds.len(),
        cfg.jobs,
        dir.display()
    );

    let mut summary = Table::new(
        "Run summary — wall-clock per artefact",
        vec!["artefact", "runs", "wall (s)", "busy (s)", "speedup"],
    );
    let started = Instant::now();
    let _ = telemetry::take(); // drop any counters from config resolution
    let mut total_exec = telemetry::Snapshot::default();
    for artefact in selected {
        total_exec += emit(artefact, &cfg, &dir, &mut summary);
    }

    let total = started.elapsed();
    summary.add_row(vec![
        "TOTAL".into(),
        total_exec.runs.to_string(),
        format!("{:.2}", total.as_secs_f64()),
        format!("{:.2}", total_exec.busy.as_secs_f64()),
        String::new(),
    ]);
    println!("{summary}");
    // The per-artefact emits drained the global counters; the summary
    // reports their accumulated total.
    let timing = ArtifactTiming { wall: total, exec: total_exec, jobs: cfg.jobs };
    match report::write_artifact(
        &dir,
        "summary",
        std::slice::from_ref(&summary),
        &timing,
        cfg.duration.as_secs_f64(),
        &cfg.seeds,
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write summary.json: {err}"),
    }
}
