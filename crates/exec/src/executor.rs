//! The worker pool that executes a [`RunPlan`].
//!
//! Workers are plain `std::thread` scoped threads pulling plan indices off a
//! shared atomic counter (work stealing at run granularity — the runs of a
//! grid vary in cost by an order of magnitude, so static striping would leave
//! cores idle). Each result is stored in the slot of its plan index, so the
//! returned vector is in plan order regardless of completion order and the
//! whole engine is invisible to downstream averaging.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wmn_netsim::RunResult;

use crate::plan::RunPlan;
use crate::telemetry;

/// Environment variable selecting the worker count (a positive integer).
pub const JOBS_ENV: &str = "RIPPLE_JOBS";

/// The worker count used when [`JOBS_ENV`] is unset: the host's available
/// parallelism, falling back to 1 if it cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Resolves the default worker count from the environment.
///
/// Unset means [`available_jobs`]; anything set must parse as a positive
/// integer.
///
/// # Errors
///
/// Returns a descriptive message if [`JOBS_ENV`] is set to anything that is
/// not a positive integer.
// Worker count only changes the schedule — results are slot-ordered and
// bit-identical for any value.
#[allow(clippy::disallowed_methods)]
pub fn jobs_from_env() -> Result<usize, String> {
    match std::env::var(JOBS_ENV) {
        Err(_) => Ok(available_jobs()),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{JOBS_ENV} must be a positive integer worker count, got {raw:?}")),
        },
    }
}

/// Wall-clock accounting for one executed plan.
#[derive(Clone, Copy, Debug)]
pub struct ExecStats {
    /// Number of runs executed.
    pub runs: usize,
    /// Worker threads used (after clamping to the plan size).
    pub jobs: usize,
    /// Wall-clock time from plan start to last result.
    pub wall: Duration,
    /// Sum of per-run execution times across all workers. `busy / wall`
    /// approximates the achieved speed-up.
    pub busy: Duration,
}

impl ExecStats {
    /// `busy / wall`: the concurrency achieved by this execution (1.0 for a
    /// serial run, approaching `jobs` at perfect scaling). On a host with at
    /// least `jobs` free cores this equals the wall-clock speed-up; on an
    /// oversubscribed host per-run times inflate with time-slicing, so treat
    /// it as an upper bound there.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.busy.as_secs_f64() / wall
    }
}

/// Results of one executed plan: per-run results in plan order, plus timing.
#[derive(Debug)]
pub struct ExecOutcome {
    /// One result per plan entry, in plan order.
    pub results: Vec<RunResult>,
    /// Timing for the whole plan.
    pub stats: ExecStats,
}

/// A fixed-width worker pool for [`RunPlan`]s.
///
/// # Example
///
/// ```no_run
/// use wmn_exec::{Executor, RunPlan};
/// # fn plan() -> RunPlan { unimplemented!() }
/// let outcome = Executor::from_env().execute(&plan());
/// println!("{} runs in {:?}", outcome.stats.runs, outcome.stats.wall);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// An executor with the environment-selected worker count
    /// ([`jobs_from_env`]).
    ///
    /// # Panics
    ///
    /// Panics with a clear message if [`JOBS_ENV`] is set to an invalid
    /// value — a misconfigured run must not silently fall back to some
    /// other parallelism.
    pub fn from_env() -> Self {
        match jobs_from_env() {
            Ok(jobs) => Executor::new(jobs),
            Err(msg) => panic!("{msg}"),
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes every run of `plan` and returns the results in plan order.
    ///
    /// Determinism contract: each run is a pure function of its prepared
    /// scenario and seed (seeded via [`wmn_sim::RngDirectory`]), runs share
    /// nothing they write (a [`wmn_netsim::Prepared`] is only read), and
    /// the result vector is indexed by plan position — so the output is
    /// bit-identical for any worker count, including 1.
    // Telemetry: the clock reads time the runs (`ExecStats`), never feed them.
    #[allow(clippy::disallowed_methods)]
    pub fn execute(&self, plan: &RunPlan) -> ExecOutcome {
        let started = Instant::now();
        let runs = plan.runs();
        let n = runs.len();
        let jobs = self.jobs.min(n).max(1);

        let busy_ns = AtomicU64::new(0);
        let mut slots: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();

        if jobs == 1 {
            for (slot, (prepared, seed)) in slots.iter_mut().zip(runs) {
                let t0 = Instant::now();
                *slot = Some(prepared.run(*seed));
                busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, RunResult)>> = Mutex::new(Vec::with_capacity(n));
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t0 = Instant::now();
                            let (prepared, seed) = &runs[i];
                            let result = prepared.run(*seed);
                            busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            local.push((i, result));
                        }
                        collected.lock().expect("no worker poisons the sink").extend(local);
                    });
                }
            });
            for (i, result) in collected.into_inner().expect("workers joined") {
                slots[i] = Some(result);
            }
        }

        let results: Vec<RunResult> =
            slots.into_iter().map(|r| r.expect("every plan slot executed")).collect();
        let stats = ExecStats {
            runs: n,
            jobs,
            wall: started.elapsed(),
            busy: Duration::from_nanos(busy_ns.into_inner()),
        };
        telemetry::record(&stats);
        ExecOutcome { results, stats }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wmn_netsim::{FlowSpec, Scenario, Scheme, Workload};
    use wmn_phy::{PhyParams, Position};
    use wmn_sim::{NodeId, SimDuration};

    /// `n` two-station FTP scenarios of 5 ms.
    pub(crate) fn scenarios(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|i| Scenario {
                name: format!("exec-test-{i}"),
                params: PhyParams::paper_216(),
                positions: vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
                scheme: Scheme::Dcf { aggregation: 1 },
                flows: vec![FlowSpec {
                    path: vec![NodeId::new(0), NodeId::new(1)],
                    workload: Workload::Ftp,
                }],
                duration: SimDuration::from_millis(5),
                seed: i as u64,
                max_forwarders: 5,
                motion: wmn_netsim::MotionPlan::default(),
                route_refresh: None,
                shards: None,
            })
            .collect()
    }

    #[test]
    fn parallel_results_match_serial_in_plan_order() {
        let plan = RunPlan::grid(&scenarios(5), &[1, 2], SimDuration::from_millis(5)).unwrap();
        let serial = Executor::new(1).execute(&plan);
        let parallel = Executor::new(4).execute(&plan);
        assert_eq!(serial.results.len(), 10);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(parallel.stats.runs, 10);
        assert!(parallel.stats.jobs <= 4);
    }

    #[test]
    fn empty_plan_is_fine() {
        let outcome = Executor::new(8).execute(&RunPlan::new());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.runs, 0);
    }

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn speedup_of_serial_run_is_about_one() {
        let plan = RunPlan::grid(&scenarios(2), &[1], SimDuration::from_millis(5)).unwrap();
        let outcome = Executor::new(1).execute(&plan);
        // busy ≈ wall when one worker does everything (scheduling overhead
        // only ever pushes the ratio below 1).
        assert!(outcome.stats.speedup() <= 1.05, "got {}", outcome.stats.speedup());
    }
}
