//! # wmn_exec — the parallel experiment engine
//!
//! Every figure and table of the paper is a seed-average over independent
//! `(Scenario, seed)` simulations — embarrassingly parallel by construction.
//! This crate fans those runs across a [`std::thread::scope`] worker pool
//! while keeping the results **bit-identical to a serial loop**:
//!
//! * a [`RunPlan`] fixes the result order up front (scenario-major,
//!   seed-minor for [`RunPlan::grid`]);
//! * the [`Executor`] hands plan indices to workers through an atomic
//!   counter and stores each [`wmn_netsim::RunResult`] in the slot of its
//!   plan index, so scheduling order never leaks into the output;
//! * each run derives all randomness from its own seed via
//!   [`wmn_sim::RngDirectory`] — runs share no mutable state: the runs of
//!   one scenario read one [`wmn_netsim::Prepared`], its routes computed
//!   once for all of them (`Prepared` is `Send + Sync` and `RunResult` is
//!   `Send`, enforced at compile time in `wmn_netsim`).
//!
//! The worker count comes from the `RIPPLE_JOBS` environment variable
//! ([`jobs_from_env`]), defaulting to the host's available parallelism.
//!
//! ## Reports
//!
//! [`report`] writes per-artefact JSON (result tables + wall-clock/busy/run
//! accounting) under `target/repro/`, and [`telemetry`] exposes the global
//! counters drivers use to attribute runs to artefacts.
//!
//! ## Example
//!
//! ```
//! use wmn_exec::{Executor, RunPlan};
//! use wmn_netsim::{FlowSpec, Scenario, Scheme, Workload};
//! use wmn_phy::{PhyParams, Position};
//! use wmn_sim::{NodeId, SimDuration};
//!
//! let scenario = Scenario {
//!     name: "demo".into(),
//!     params: PhyParams::paper_216(),
//!     positions: vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
//!     scheme: Scheme::Dcf { aggregation: 1 },
//!     flows: vec![FlowSpec {
//!         path: vec![NodeId::new(0), NodeId::new(1)],
//!         workload: Workload::Ftp,
//!     }],
//!     duration: SimDuration::from_millis(5),
//!     seed: 0,
//!     max_forwarders: 5,
//!     motion: wmn_netsim::MotionPlan::default(),
//!     route_refresh: None,
//!     shards: None,
//! };
//! let plan = RunPlan::grid(
//!     std::slice::from_ref(&scenario),
//!     &[1, 2, 3],
//!     SimDuration::from_millis(5),
//! )
//! .expect("a well-formed scenario");
//! let outcome = Executor::new(2).execute(&plan);
//! assert_eq!(outcome.results.len(), 3); // plan order: seeds 1, 2, 3
//! ```

pub mod executor;
pub mod json;
pub mod plan;
pub mod report;
pub mod telemetry;
pub mod trace;

pub use executor::{available_jobs, jobs_from_env, ExecOutcome, ExecStats, Executor, JOBS_ENV};
pub use plan::RunPlan;
pub use trace::{trace_document, validate_trace, TRACE_SCHEMA};
