//! Runs a generated-scenario sweep: expands a `wmn_scengen::SweepSpec`
//! grid, fans it across the `wmn_exec` worker pool, prints the
//! seed-averaged table, and writes two JSON files under the repro directory
//! (default `target/repro/`, override with `RIPPLE_REPRO_DIR`):
//!
//! * `sweep_<name>.json` — spec echo + run count + result tables. Contains
//!   no timing, so it is **byte-identical for any `RIPPLE_JOBS`** (pinned
//!   by `tests/sweep_determinism.rs`).
//! * `sweep_<name>_timing.json` — wall/busy/runs/jobs accounting for
//!   perf-trajectory tracking.
//!
//! Usage:
//!
//! ```text
//! scenario_sweep                        # the built-in ci-quick grid (32 runs)
//! scenario_sweep --builtin ci-mobility  # the mobility companion grid (12 runs)
//! scenario_sweep --spec sweep.json      # a sweep spec from disk
//! scenario_sweep --print-spec           # print the selected spec as JSON and exit
//! ```

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use wmn_exec::json::Value;
use wmn_exec::report::{self, ArtifactTiming};
use wmn_exec::{telemetry, Executor};
use wmn_experiments::sweep::{artefact_name, run_sweep};
use wmn_scengen::SweepSpec;

fn usage() -> ! {
    eprintln!(
        "usage: scenario_sweep [--builtin <name>] [--spec <file.json>] [--print-spec]\n\
         \n\
         Runs the built-in ci-quick sweep unless --builtin selects another\n\
         preset (ci-quick, ci-mobility, ci-mobility-refresh) or --spec\n\
         points at a SweepSpec JSON file (see `--print-spec` for the schema\n\
         by example).\n\
         Reports go to RIPPLE_REPRO_DIR (default target/repro).\n\
         RIPPLE_JOBS caps the worker pool; results are identical for any value."
    );
    exit(2)
}

// Telemetry: times the sweep for the side-car report, never feeds a run.
#[allow(clippy::disallowed_methods)]
fn main() {
    let mut spec_path: Option<PathBuf> = None;
    let mut builtin: Option<String> = None;
    let mut print_spec = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => spec_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--builtin" => builtin = Some(args.next().unwrap_or_else(|| usage())),
            "--print-spec" => print_spec = true,
            _ => usage(),
        }
    }
    if builtin.is_some() && spec_path.is_some() {
        eprintln!("error: --builtin and --spec are mutually exclusive");
        exit(2);
    }

    let spec = match &spec_path {
        None => match builtin.as_deref() {
            None | Some("ci-quick") => SweepSpec::ci_quick(),
            Some("ci-mobility") => SweepSpec::ci_mobility(),
            Some("ci-mobility-refresh") => SweepSpec::ci_mobility_refresh(),
            Some(other) => {
                eprintln!(
                    "error: unknown builtin sweep {other:?} (have \"ci-quick\", \"ci-mobility\", \
                     \"ci-mobility-refresh\")"
                );
                exit(2)
            }
        },
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
                eprintln!("error: cannot read {}: {err}", path.display());
                exit(1)
            });
            SweepSpec::parse(&text).unwrap_or_else(|err| {
                eprintln!("error: {}: {err}", path.display());
                exit(1)
            })
        }
    };
    if print_spec {
        println!("{}", spec.to_json());
        return;
    }

    let jobs = Executor::from_env().jobs();
    println!(
        "# Sweep {} — {} scenarios × {} run seeds = {} runs, {} workers\n",
        spec.name,
        spec.scenario_count(),
        spec.run_seeds.len(),
        spec.run_count(),
        jobs
    );
    let _ = telemetry::take();
    let started = Instant::now();
    let outcome = run_sweep(&spec, jobs).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        exit(1)
    });
    let wall = started.elapsed();
    let exec = telemetry::take();
    println!("{}", outcome.table);

    let dir = report::repro_dir();
    let stem = artefact_name(&spec);
    let timing = ArtifactTiming { wall, exec, jobs };
    let side_car = Value::obj()
        .with("sweep", spec.name.as_str())
        .with("jobs", jobs)
        .with("timing", report::timing_value(&timing));
    for (name, doc) in [(stem.clone(), &outcome.document), (format!("{stem}_timing"), &side_car)] {
        match report::write_document(&dir, &name, doc) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("error: could not write {name}.json: {err}");
                exit(1)
            }
        }
    }
    let wall_s = wall.as_secs_f64();
    let busy_s = exec.busy.as_secs_f64();
    println!(
        "\n{} runs in {wall_s:.2}s wall / {busy_s:.2}s busy ({:.2}x concurrency)",
        exec.runs,
        if wall_s > 0.0 { busy_s / wall_s } else { 1.0 }
    );
}
