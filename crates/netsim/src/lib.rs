//! Scenario composition and the layered simulation stack.
//!
//! This crate is the only place where the passive state machines of the
//! lower crates meet the event queue. The simulation is one engine body —
//! the station stack in [`stack`], which owns the per-station and per-flow
//! layers ([`stack::mac_engine`]: one MAC per station behind the
//! [`wmn_mac::MacScheme`] factory trait; [`stack::flow_layer`]: transport
//! endpoints and workloads; receivers and [`stack::phy_io`]'s table of
//! transmissions on the air) together with
//! the event queue, and interprets every [`wmn_mac::MacAction`] /
//! [`wmn_transport::TcpAction`] against simulated time — driven by one
//! event loop that lends it the medium and the routing tables
//! ([`stack::net_layer`]). Received frames are decoded through one BER seam,
//! [`stack::decode`], whose clean-channel fast path hands every receiver
//! the transmitter's own `Arc`-backed allocation — zero copies, zero
//! allocations per clean decode.
//!
//! A [`Scenario`] fully describes one run (placement, forwarding scheme,
//! flows, duration, seed, and optionally a [`MotionPlan`] of per-node
//! trajectories). [`Scenario::prepare`] checks it, yielding a
//! [`ScenarioError`] for a malformed one, and computes what every run of it
//! shares: a [`Prepared`] scenario, whose [`Prepared::run`] executes it at
//! a seed and returns per-flow [`FlowResult`]s. Runs are deterministic per
//! seed, mobile or not. [`run`] is the run at the scenario's own seed.
//!
//! # Example
//!
//! ```
//! use wmn_netsim::{FlowSpec, Scenario, ScenarioError, Scheme, Workload};
//! use wmn_phy::{PhyParams, Position};
//! use wmn_sim::{NodeId, SimDuration};
//!
//! let scenario = Scenario {
//!     name: "quick".into(),
//!     params: PhyParams::paper_216(),
//!     positions: vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
//!     scheme: Scheme::Dcf { aggregation: 1 },
//!     flows: vec![FlowSpec {
//!         path: vec![NodeId::new(0), NodeId::new(1)],
//!         workload: Workload::Ftp,
//!     }],
//!     duration: SimDuration::from_millis(50),
//!     seed: 1,
//!     max_forwarders: 5,
//!     motion: wmn_netsim::MotionPlan::default(),
//!     route_refresh: None,
//!     shards: None,
//! };
//! let prepared = scenario.prepare().expect("a well-formed scenario");
//! for seed in [1, 2, 3] {
//!     assert!(prepared.run(seed).flows[0].delivered_bytes > 0);
//! }
//! assert_eq!(prepared.run(1), wmn_netsim::run(&scenario));
//!
//! let silent = Scenario { flows: Vec::new(), ..scenario };
//! assert_eq!(silent.prepare().err(), Some(ScenarioError::NoFlows));
//! ```

pub mod scenario;
pub mod stack;
pub mod trace;

// The corpus layouts are `wmn_bench`'s; the unit tests build them from this
// crate's own types, through the `wmn_netsim` paths the file names.
#[cfg(test)]
extern crate self as wmn_netsim;
#[cfg(test)]
#[path = "../../bench/src/layouts.rs"]
mod layouts;

pub use scenario::{FlowSpec, Prepared, Scenario, ScenarioError, Scheme, Workload};
pub use stack::{run, run_traced, FlowResult, RunResult, TcpFlowResult, VoipFlowResult};
pub use trace::{FrameKind, Trace, TraceEvent, TraceKind};
pub use wmn_mac::DropReason;
// Re-exported so scenario authors can describe mobility without naming the
// topology crate.
pub use wmn_topology::{MotionPlan, NodePath, Waypoint};
