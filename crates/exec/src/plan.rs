//! Run plans: the ordered list of independent simulations an
//! [`Executor`](crate::Executor) fans across its workers.
//!
//! A plan fixes the *result order* up front: however the runs are scheduled
//! onto threads, [`Executor::execute`](crate::Executor::execute) returns one
//! [`RunResult`](wmn_netsim::RunResult) per plan entry, in plan order. That
//! makes downstream seed-averaging bit-identical to a serial loop over the
//! same entries.

use wmn_netsim::Scenario;
use wmn_sim::SimDuration;

/// An ordered collection of independent runs: fully-specified scenarios
/// (seed and duration already set), each exactly as [`wmn_netsim::run`]
/// will see it.
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
/// );
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunPlan {
    scenarios: Vec<Scenario>,
}

impl RunPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        RunPlan { scenarios: Vec::new() }
    }

    /// Appends one fully-specified scenario; returns its plan index.
    pub fn push(&mut self, scenario: Scenario) -> usize {
        self.scenarios.push(scenario);
        self.scenarios.len() - 1
    }

    /// Builds the (scenario × seed) grid every figure/table experiment runs:
    /// for each scenario, in order, one entry per seed (in seed order) with
    /// the scenario's `seed` and `duration` overridden.
    ///
    /// The resulting plan order — scenario-major, seed-minor — is the
    /// contract [`crate::Executor::execute`] preserves, so averaging
    /// consecutive `seeds.len()`-sized chunks reproduces a serial
    /// run-per-seed loop exactly.
    pub fn grid(scenarios: &[Scenario], seeds: &[u64], duration: SimDuration) -> Self {
        let mut plan = RunPlan::new();
        for scenario in scenarios {
            for &seed in seeds {
                let mut s = scenario.clone();
                s.seed = seed;
                s.duration = duration;
                plan.push(s);
            }
        }
        plan
    }

    /// The planned runs, in execution-result order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of planned runs.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan holds no runs.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
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
        let plan = RunPlan::grid(&scenarios, &[7, 8, 9], SimDuration::from_millis(20));
        assert_eq!(plan.len(), 6);
        let seeds: Vec<u64> = plan.scenarios().iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![7, 8, 9, 7, 8, 9]);
        assert_eq!(plan.scenarios()[0].name, "a");
        assert_eq!(plan.scenarios()[3].name, "b");
        assert!(plan.scenarios().iter().all(|s| s.duration == SimDuration::from_millis(20)));
    }

    #[test]
    fn push_returns_index() {
        let mut plan = RunPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.push(scenario("x")), 0);
        assert_eq!(plan.push(scenario("y")), 1);
        assert_eq!(plan.len(), 2);
    }
}
