//! Runs the stale-route crossover (frozen routes vs 50 ms live min-ETX
//! refresh under relay drift), writes the `refresh_crossover` artefact
//! report, and emits one `wmn-trace-v1` packet trace from the
//! fastest-drift refreshed cell (`refresh_crossover_trace.json`, rendered
//! with `trace_render`).

use std::time::Instant;

use wmn_exec::report::{self, ArtifactTiming};
use wmn_exec::{telemetry, trace_document};
use wmn_experiments::{refresh, ExpConfig};

// Telemetry: times the generator for the report, never feeds a run.
#[allow(clippy::disallowed_methods)]
fn main() {
    let cfg = ExpConfig::from_env();
    let dir = report::repro_dir();
    let _ = telemetry::take();
    let t0 = Instant::now();
    let table = refresh::generate(&cfg);
    let wall = t0.elapsed();
    let exec = telemetry::take();
    println!("{table}");

    let timing = ArtifactTiming { wall, exec, jobs: cfg.jobs };
    match report::write_artifact(
        &dir,
        "refresh_crossover",
        std::slice::from_ref(&table),
        &timing,
        cfg.duration.as_secs_f64(),
        &cfg.seeds,
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("error: could not write refresh_crossover.json: {err}");
            std::process::exit(1);
        }
    }

    let (name, trace) = refresh::demo_trace(&cfg);
    let doc = trace_document(&name, &trace);
    match report::write_document(&dir, "refresh_crossover_trace", &doc) {
        Ok(path) => eprintln!("wrote {} ({} events)", path.display(), trace.len()),
        Err(err) => {
            eprintln!("error: could not write refresh_crossover_trace.json: {err}");
            std::process::exit(1);
        }
    }
}
