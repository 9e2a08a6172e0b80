//! `benchmark` — the command `BENCHMARK.json` names.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark --compare A B [--rebaseline]
//! ```
//!
//! A measuring run prints a human-readable report on standard error and, as
//! the last line of standard output, the result object the driver reads.
//! `--out FILE` appends the same result, tagged with workload, seed and
//! environment, as one JSON line: the input of `--compare`.

use std::io::Write;
use std::process::{Command, ExitCode};

use wmn_perfbench::attribution::trace_run;
use wmn_perfbench::checks::output_checks;
use wmn_perfbench::compare::{compare, parse_records};
use wmn_perfbench::measure::end_to_end;
use wmn_perfbench::report::{contract, result_line, Contract};
use wmn_perfbench::workloads::Scale;

/// Allocation counters behind `peak_bytes` and the `allocs_*` layer metrics.
#[global_allocator]
static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;

/// Environment knobs the library entry points read silently; a benchmark
/// run must not inherit a worker count, an engine or a duration from them.
const FORBIDDEN_ENV: [&str; 3] = ["RIPPLE_JOBS", "RIPPLE_SHARDS", "RIPPLE_REPRO"];

enum Mode {
    Measure(Args),
    Compare { a: String, b: String, rebaseline: bool },
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn usage() -> String {
    "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
     \x20      benchmark --compare A B [--rebaseline]"
        .into()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run_compare(contract: &Contract, a: &str, b: &str, rebaseline: bool) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_records(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare(contract, &read(a)?, &read(b)?, rebaseline))
}

fn measure(contract: &Contract, args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(0);
    let rustc = command_line("rustc", &["-V"]);
    // Only `./.git`: the driver's checkout is not a repository, and git must
    // not go looking for one in the directories above it.
    let git = command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]);
    eprintln!(
        "benchmark: workload {} seed {} seconds {} trace {} profile full nproc {nproc}\n\
         benchmark: {rustc} / git {git}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    eprintln!("benchmark: model unvalidated against paper numbers; shape checks only");

    let values;
    let (specs, attempted, failed, failures) = if args.trace {
        let layered = trace_run(&args.workload, args.seed, Scale::Full, args.seconds)?;
        values = layered.metrics;
        (&contract.per_layer, layered.attempted, layered.failed, layered.failures)
    } else {
        let e2e = end_to_end(&args.workload, args.seed, Scale::Full, args.seconds)?;
        let mut failures = e2e.failures.clone();
        failures.extend(output_checks(&e2e));
        values = e2e.metrics();
        eprintln!(
            "timed region {:.2} s, {} passes over {} items; one pass: fastest {:.4} s, \
             median {:.4} s, slowest {:.4} s; set-up: fastest {:.4} s, median {:.4} s",
            e2e.measured_s,
            e2e.passes,
            e2e.plan.items.len(),
            e2e.wall.min,
            e2e.wall.median,
            e2e.wall.max,
            e2e.setup.min,
            e2e.setup.median,
        );
        (&contract.end_to_end, e2e.attempted, e2e.failed, failures)
    };
    for spec in specs {
        if let Some(value) = values.get(&spec.name) {
            eprintln!("{:<40} {value:>18.6} {}", spec.name, spec.unit);
        }
    }
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    let correct = failures.is_empty() && failed == 0;
    let line = result_line(specs, &values, correct, attempted, failed)?;
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {:?}, \
             \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"git\": \"{git}\", \"result\": {line}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace),
            args.seconds,
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    println!("{line}");
    Ok(correct)
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut compare: Option<(String, String)> = None;
    let mut rebaseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(usage);
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--out" => out = Some(value()?),
            "--compare" => compare = Some((value()?, value()?)),
            "--rebaseline" => rebaseline = true,
            _ => return Err(usage()),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Mode::Compare { a, b, rebaseline });
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Mode::Measure(Args { workload, seed, seconds, trace, out }))
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let outcome = (|| {
        if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
            return Err(format!(
                "{var} is set; unset it, the benchmark fixes jobs, engine and durations itself"
            ));
        }
        let contract = contract()?;
        match parse_args()? {
            Mode::Measure(args) => measure(&contract, &args),
            Mode::Compare { a, b, rebaseline } => run_compare(&contract, &a, &b, rebaseline),
        }
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
