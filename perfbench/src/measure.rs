//! The end-to-end measurement: set-up samples, then timed passes over a
//! workload's items with tracing off.
//!
//! # Why the fastest sample, not the median
//!
//! The program under test is single-threaded and deterministic, and the
//! sandbox it is measured in is not quiet: a fixed 25 ms run repeated for a
//! minute reads 25.5 ms or 31.5 ms in alternating stretches of one to ten
//! seconds (on-CPU time moves with it, so it is not time stolen from the
//! process but a slower machine). A median over a ten-second window lands in
//! either mode. Every item is therefore timed on its own, once per pass, and
//! the workload's `wall_s` is the sum over items of each item's *fastest*
//! sample: an item only needs one quiet pass out of several. The median and
//! the slowest pass are printed next to it.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use wmn_experiments::sweep::run_sweep;
use wmn_netsim::{run, RunResult, Scenario};
use wmn_sim::SimDuration;

use crate::workloads::{build, Item, Plan, Scale};

/// Set-up samples per invocation, one after each of the first passes; the
/// fastest is reported.
const SETUP_SAMPLES: usize = 12;
/// One set-up sample repeats the set-up until it lasts about this long.
const SETUP_SAMPLE_TARGET_S: f64 = 0.05;

/// What one execution of an [`Item`] produced, kept for bit-equality checks.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// A plain run's result.
    Run(RunResult),
    /// A sweep's rendered report document (its only deterministic output).
    Sweep(String),
}

/// Executes one item the way a user would.
pub fn execute(plan: &Plan, item: &Item) -> Result<Output, String> {
    match item {
        Item::Run(i) => Ok(Output::Run(run(&plan.scenarios[*i]))),
        Item::Sweep { spec, .. } => {
            let outcome = run_sweep(spec, 1)?;
            let text = outcome.document.to_json_string().map_err(|e| format!("{e:?}"))?;
            Ok(Output::Sweep(text))
        }
    }
}

/// Runs `f`, turning a panic into an error string.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

/// Data + ACK frames put on the air in one run.
pub fn frames_sent(result: &RunResult) -> u64 {
    result.mac_stats.iter().map(|s| s.data_frames_sent + s.ack_frames_sent).sum()
}

/// Lower-envelope, middle and worst of a sample set (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Spread {
    /// Fastest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Slowest sample.
    pub max: f64,
}

impl Spread {
    /// Summarises a non-empty sample set.
    pub fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Spread { min: sorted[0], median, max: sorted[n - 1] }
    }
}

/// What is paid before the first event: building the workload's scenarios
/// from scratch plus one zero-duration `run` of each (world build).
pub fn setup_once(name: &str, seed: u64, scale: Scale) -> Result<Plan, String> {
    let plan = build(name, seed, scale)?;
    for scenario in &plan.scenarios {
        std::hint::black_box(run(&zero_duration(scenario)));
    }
    Ok(plan)
}

/// The same scenario, stopping before the first event.
pub fn zero_duration(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    s.duration = SimDuration::ZERO;
    s
}

/// Takes set-up samples one at a time, so the caller can spread them over
/// the timed region instead of reading them all in one (quiet or noisy)
/// stretch.
struct SetupSampler<'a> {
    name: &'a str,
    seed: u64,
    scale: Scale,
    /// Set-ups per sample: enough of them to last [`SETUP_SAMPLE_TARGET_S`].
    iters: usize,
    /// Seconds per set-up, one entry per sample.
    samples: Vec<f64>,
}

impl<'a> SetupSampler<'a> {
    /// Performs the first set-up, which warms caches and sizes the samples,
    /// and returns the plan it built.
    fn start(name: &'a str, seed: u64, scale: Scale) -> Result<(Self, Plan), String> {
        let t = Instant::now();
        let plan = setup_once(name, seed, scale)?;
        let first = t.elapsed().as_secs_f64().max(1e-6);
        let iters = ((SETUP_SAMPLE_TARGET_S / first).ceil() as usize).clamp(1, 1024);
        Ok((SetupSampler { name, seed, scale, iters, samples: Vec::new() }, plan))
    }

    fn sample(&mut self) -> Result<(), String> {
        let t = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(setup_once(self.name, self.seed, self.scale)?);
        }
        self.samples.push(t.elapsed().as_secs_f64() / self.iters as f64);
        Ok(())
    }
}

/// The end-to-end reading of one workload.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// The workload as built for this seed.
    pub plan: Plan,
    /// Sum over items of the item's wall-time spread across passes.
    pub wall: Spread,
    /// Set-up time spread.
    pub setup: Spread,
    /// Simulated seconds in one pass.
    pub sim_s: f64,
    /// Frames on the air in one pass.
    pub frames: u64,
    /// Highest `wmn_alloc` high-water mark of any item (live bytes at the
    /// item's entry included).
    pub peak_bytes: u64,
    /// Fewest samples any item got.
    pub passes: usize,
    /// Host seconds spent in the timed region.
    pub measured_s: f64,
    /// Simulation runs executed in the timed region.
    pub attempted: u64,
    /// Runs that panicked or differed from the same run in another pass.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// One result per scenario of the plan, in plan order.
    pub results: Vec<RunResult>,
    /// The report document of each sweep item, in item order.
    pub documents: Vec<String>,
}

impl EndToEnd {
    /// The `end_to_end` metrics of `BENCHMARK.json`, by name. Timings are the
    /// fastest-sample readings (see the module docs).
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        BTreeMap::from([
            ("wall_s".to_string(), self.wall.min),
            ("sim_s_per_wall_s".to_string(), self.sim_s / self.wall.min),
            ("frames_per_wall_s".to_string(), self.frames as f64 / self.wall.min),
            ("setup_s".to_string(), self.setup.min),
            ("peak_bytes".to_string(), self.peak_bytes as f64),
        ])
    }
}

/// Untimed reference results for the scenarios sweep items cover (a sweep
/// returns a rendered table, not `RunResult`s).
fn sweep_reference(plan: &Plan, results: &mut [Option<RunResult>], failures: &mut Vec<String>) {
    for item in &plan.items {
        if let Item::Sweep { runs, .. } = item {
            for i in runs.clone() {
                match guarded(|| Ok(run(&plan.scenarios[i]))) {
                    Ok(r) => results[i] = Some(r),
                    Err(msg) => failures.push(format!("{}: {msg}", plan.scenarios[i].name)),
                }
            }
        }
    }
}

/// Passes over the plan's items for `seconds`, timing each item on its own.
/// Every item is executed at least twice so its output can be compared with
/// itself.
pub fn end_to_end(name: &str, seed: u64, scale: Scale, seconds: f64) -> Result<EndToEnd, String> {
    let (mut setup, plan) = SetupSampler::start(name, seed, scale)?;
    let mut failures = Vec::new();
    let mut results: Vec<Option<RunResult>> = vec![None; plan.scenarios.len()];
    sweep_reference(&plan, &mut results, &mut failures);

    let n = plan.items.len();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Option<Output>> = vec![None; n];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut peak_bytes = 0u64;
    let started = Instant::now();
    let mut pass = 0usize;
    'passes: loop {
        for (k, item) in plan.items.iter().enumerate() {
            if pass >= 2 && started.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let runs = match item {
                Item::Run(_) => 1,
                Item::Sweep { runs, .. } => runs.len() as u64,
            };
            attempted += runs;
            let t = Instant::now();
            let (output, alloc) = wmn_alloc::measure(|| guarded(|| execute(&plan, item)));
            samples[k].push(t.elapsed().as_secs_f64());
            peak_bytes = peak_bytes.max(alloc.peak_bytes_in_use);
            match (output, &first[k]) {
                (Err(msg), _) => {
                    failed += runs;
                    failures.push(format!("item {k} pass {pass}: {msg}"));
                }
                (Ok(output), None) => first[k] = Some(output),
                (Ok(output), Some(reference)) => {
                    if &output != reference {
                        failed += runs;
                        failures.push(format!("item {k}: pass {pass} differs from the first pass"));
                    }
                }
            }
        }
        pass += 1;
        if setup.samples.len() < SETUP_SAMPLES {
            setup.sample()?;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    let mut documents = Vec::new();
    for (item, output) in plan.items.iter().zip(first) {
        match (item, output) {
            (Item::Run(i), Some(Output::Run(result))) => results[*i] = Some(result),
            (Item::Sweep { .. }, Some(Output::Sweep(text))) => documents.push(text),
            _ => {}
        }
    }
    let results: Vec<RunResult> = match results.into_iter().collect::<Option<Vec<_>>>() {
        Some(results) => results,
        None => {
            return Err(format!(
                "{name}: some runs produced no result: {}",
                failures.first().cloned().unwrap_or_default()
            ))
        }
    };

    let per_item: Vec<Spread> = samples.iter().map(|s| Spread::of(s)).collect();
    let wall = Spread {
        min: per_item.iter().map(|s| s.min).sum(),
        median: per_item.iter().map(|s| s.median).sum(),
        max: per_item.iter().map(|s| s.max).sum(),
    };
    Ok(EndToEnd {
        sim_s: plan.sim_seconds(),
        wall,
        setup: Spread::of(&setup.samples),
        frames: results.iter().map(frames_sent).sum(),
        peak_bytes,
        passes: samples.iter().map(Vec::len).min().unwrap_or(0),
        measured_s,
        attempted,
        failed,
        failures,
        results,
        documents,
        plan,
    })
}
