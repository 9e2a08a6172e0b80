//! The executor's core contract, property-tested: for random small
//! scenarios, results from 1, 2, and 8 workers are **bit-identical** to a
//! plain serial `wmn_netsim::run` loop over the same seeds.
//!
//! Scenarios vary over topology size, scheme (incl. the opportunistic
//! ExOR variants), workload, seed set, and duration, so any hidden shared
//! state, scheduling leak, or result-reordering in the engine shows up as a
//! failed equality on some case.

use proptest::prelude::*;
use wmn_exec::{Executor, RunPlan};
use wmn_netsim::{run, FlowSpec, RunResult, Scenario, Scheme, Workload};
use wmn_phy::{PhyParams, Position};
use wmn_sim::{NodeId, SimDuration};

/// Builds the sampled scenario: an `n`-node line with one end-to-end flow.
fn scenario(n_nodes: usize, scheme_pick: usize, workload_pick: usize, ms: u64) -> Scenario {
    // Opportunistic schemes need interior forwarders to be meaningful;
    // sample them only on 3+-node lines.
    let scheme = match scheme_pick % if n_nodes >= 3 { 6 } else { 2 } {
        0 => Scheme::Dcf { aggregation: 1 },
        1 => Scheme::Dcf { aggregation: 16 },
        2 => Scheme::Ripple { aggregation: 1 },
        3 => Scheme::Ripple { aggregation: 16 },
        4 => Scheme::PreExor,
        _ => Scheme::McExor,
    };
    let workload = match workload_pick % 4 {
        0 => Workload::Ftp,
        1 => Workload::Web(wmn_traffic::WebModel::paper()),
        2 => Workload::Voip(wmn_traffic::VoipModel::paper()),
        _ => Workload::Cbr(wmn_traffic::CbrModel::heavy()),
    };
    Scenario {
        name: format!("det-{n_nodes}-{scheme_pick}-{workload_pick}"),
        params: PhyParams::paper_216(),
        positions: (0..n_nodes).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect(),
        scheme,
        flows: vec![FlowSpec {
            path: (0..n_nodes).map(|i| NodeId::new(i as u32)).collect(),
            workload,
        }],
        duration: SimDuration::from_millis(ms),
        seed: 0,
        max_forwarders: 5,
        motion: wmn_netsim::MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// The pre-engine ground truth: a hand-rolled serial loop over the seeds.
fn serial_baseline(scenario: &Scenario, seeds: &[u64], duration: SimDuration) -> Vec<RunResult> {
    seeds
        .iter()
        .map(|&seed| {
            let mut s = scenario.clone();
            s.seed = seed;
            s.duration = duration;
            run(&s)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any worker count reproduces the serial loop exactly, run by run.
    #[test]
    fn prop_worker_count_is_invisible(
        n_nodes in 2usize..5,
        scheme_pick in 0usize..6,
        workload_pick in 0usize..4,
        ms in 5u64..25,
        seed_base in any::<u32>(),
    ) {
        let scenario = scenario(n_nodes, scheme_pick, workload_pick, ms);
        let duration = SimDuration::from_millis(ms);
        let seeds: Vec<u64> =
            (0..3).map(|i| u64::from(seed_base).wrapping_add(i * 7919)).collect();
        let baseline = serial_baseline(&scenario, &seeds, duration);
        let plan = RunPlan::grid(std::slice::from_ref(&scenario), &seeds, duration);
        for jobs in [1usize, 2, 8] {
            let outcome = Executor::new(jobs).execute(&plan);
            prop_assert_eq!(
                &outcome.results,
                &baseline,
                "executor with {} workers diverged from the serial loop ({})",
                jobs,
                scenario.name
            );
        }
    }

    /// A mixed plan of *different* scenarios also comes back in plan order,
    /// independent of scheduling.
    #[test]
    fn prop_mixed_plan_keeps_plan_order(
        picks in proptest::collection::vec((2usize..5, 0usize..6, 0usize..4), 2..6),
        ms in 5u64..15,
    ) {
        let scenarios: Vec<Scenario> = picks
            .iter()
            .map(|&(n, s, w)| {
                let mut sc = scenario(n, s, w, ms);
                sc.seed = (n + s + w) as u64;
                sc
            })
            .collect();
        let mut plan = RunPlan::new();
        for sc in &scenarios {
            plan.push(sc.clone());
        }
        let baseline: Vec<RunResult> = scenarios.iter().map(run).collect();
        let parallel = Executor::new(8).execute(&plan);
        prop_assert_eq!(&parallel.results, &baseline);
    }
}
