//! Run plans: the ordered list of independent simulations an
//! [`Executor`](crate::Executor) fans across its workers.
//!
//! A plan fixes the *result order* up front: however the runs are scheduled
//! onto threads, [`Executor::execute`](crate::Executor::execute) returns one
//! [`RunResult`](wmn_netsim::RunResult) per plan entry, in plan order. That
//! makes downstream seed-averaging bit-identical to a serial loop over the
//! same entries.

use std::sync::Arc;

use wmn_netsim::{Prepared, Scenario, ScenarioError};
use wmn_sim::SimDuration;

/// An ordered collection of independent runs: each a prepared scenario
/// (duration already set) and the seed to run it at, exactly as
/// [`Prepared::run`] will see them. The runs of one scenario share its
/// [`Prepared`], and with it the routes computed for them all.
///
/// # Example
///
/// Expanding one scenario over a seed list (the common experiment shape):
///
/// ```no_run
/// use wmn_exec::RunPlan;
/// # fn scenario() -> wmn_netsim::Scenario { unimplemented!() }
/// let plan = RunPlan::grid(
///     std::slice::from_ref(&scenario()),
///     &[1, 2, 3],
///     wmn_sim::SimDuration::from_secs_f64(1.0),
/// )
/// .expect("a well-formed scenario");
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunPlan {
    runs: Vec<(Arc<Prepared<'static>>, u64)>,
}

impl RunPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        RunPlan { runs: Vec::new() }
    }

    /// Appends one run of `prepared` at `seed`; returns its plan index.
    pub fn push(&mut self, prepared: Arc<Prepared<'static>>, seed: u64) -> usize {
        self.runs.push((prepared, seed));
        self.runs.len() - 1
    }

    /// Builds the (scenario × seed) grid every figure/table experiment runs:
    /// for each scenario, in order, its duration overridden, prepared once,
    /// and one entry per seed (in seed order) sharing that preparation.
    ///
    /// The resulting plan order — scenario-major, seed-minor — is the
    /// contract [`crate::Executor::execute`] preserves, so averaging
    /// consecutive `seeds.len()`-sized chunks reproduces a serial
    /// run-per-seed loop exactly.
    ///
    /// # Errors
    ///
    /// The first rule the first malformed scenario breaks.
    pub fn grid(
        scenarios: &[Scenario],
        seeds: &[u64],
        duration: SimDuration,
    ) -> Result<Self, ScenarioError> {
        let mut plan = RunPlan::new();
        for scenario in scenarios {
            let prepared = Arc::new(Scenario { duration, ..scenario.clone() }.into_prepared()?);
            for &seed in seeds {
                plan.push(Arc::clone(&prepared), seed);
            }
        }
        Ok(plan)
    }

    /// The planned runs, in execution-result order: each prepared scenario
    /// with its seed.
    pub fn runs(&self) -> &[(Arc<Prepared<'static>>, u64)] {
        &self.runs
    }

    /// Number of planned runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the plan holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_netsim::{FlowSpec, Scheme, Workload};
    use wmn_sim::NodeId;

    fn scenario(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            params: wmn_phy::PhyParams::paper_216(),
            positions: vec![wmn_phy::Position::new(0.0, 0.0), wmn_phy::Position::new(5.0, 0.0)],
            scheme: Scheme::Dcf { aggregation: 1 },
            flows: vec![FlowSpec {
                path: vec![NodeId::new(0), NodeId::new(1)],
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(1),
            seed: 0,
            max_forwarders: 5,
            motion: wmn_netsim::MotionPlan::default(),
            route_refresh: None,
            shards: None,
        }
    }

    #[test]
    fn grid_is_scenario_major_seed_minor() {
        let scenarios = [scenario("a"), scenario("b")];
        let plan = RunPlan::grid(&scenarios, &[7, 8, 9], SimDuration::from_millis(20)).unwrap();
        assert_eq!(plan.len(), 6);
        let seeds: Vec<u64> = plan.runs().iter().map(|&(_, seed)| seed).collect();
        assert_eq!(seeds, vec![7, 8, 9, 7, 8, 9]);
        assert_eq!(plan.runs()[0].0.scenario().name, "a");
        assert_eq!(plan.runs()[3].0.scenario().name, "b");
        let duration = |(prepared, _): &(Arc<Prepared>, u64)| prepared.scenario().duration;
        assert!(plan.runs().iter().all(|run| duration(run) == SimDuration::from_millis(20)));
    }

    #[test]
    fn grid_reports_a_malformed_scenario() {
        let mut bad = scenario("bad");
        bad.flows.clear();
        let grid = RunPlan::grid(&[scenario("a"), bad], &[1], SimDuration::from_millis(20));
        assert_eq!(grid.err(), Some(ScenarioError::NoFlows));
    }

    #[test]
    fn push_returns_index() {
        let mut plan = RunPlan::new();
        assert!(plan.is_empty());
        let prepared = |name| Arc::new(scenario(name).into_prepared().unwrap());
        assert_eq!(plan.push(prepared("x"), 1), 0);
        assert_eq!(plan.push(prepared("y"), 1), 1);
        assert_eq!(plan.len(), 2);
    }
}
