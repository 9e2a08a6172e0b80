//! # wmn_scengen — procedural scenario generation
//!
//! The paper evaluates a handful of hand-placed topologies; this crate
//! turns the reproduction into a general experiment platform by making
//! scenarios *data*:
//!
//! * [`TopologySpec`] — seeded procedural placement generators (random
//!   geometric, regular grid, clustered campus, perturbed line) emitting
//!   [`wmn_topology::Topology`] deterministically per seed;
//! * [`TrafficMix`] — composes `wmn_traffic` workloads (FTP / web / VoIP /
//!   CBR) onto a placement with pluggable endpoint policies, routing each
//!   flow over its minimum-ETX path;
//! * [`MobilitySpec`] — seeded mobility recipes (static, per-node drift,
//!   random waypoint) expanding into concrete
//!   [`wmn_topology::MotionPlan`] trajectories at materialisation time;
//! * [`ScenarioSpec`] — a plain-struct description of one run that
//!   round-trips through the hand-rolled JSON in [`wmn_exec::json`] and
//!   [`materialises`](ScenarioSpec::materialise) into a validated
//!   [`wmn_netsim::Scenario`];
//! * [`SweepSpec`] — a cartesian grid of scenario specs plus the run-seed
//!   axis, expanded in a fixed order for `wmn_exec`'s deterministic
//!   engine. The `scenario_sweep` binary in `wmn_experiments` drives it.
//!
//! Everything is deterministic: the same spec JSON and seeds produce
//! byte-identical placements, flows, and (through the engine's plan-order
//! contract) byte-identical sweep reports at any worker count.
//!
//! ## Example
//!
//! ```
//! use wmn_scengen::{PairPolicy, PhyPreset, ScenarioSpec, TopologySpec, TrafficMix};
//! use wmn_netsim::Scheme;
//!
//! let spec = ScenarioSpec {
//!     name: "my-mesh".into(),
//!     topology: TopologySpec::RandomGeometric { nodes: 12, side_m: 30.0 },
//!     mix: TrafficMix { ftp: 2, web: 1, voip: 1, cbr: 0, pairing: PairPolicy::Random },
//!     scheme: Scheme::Ripple { aggregation: 16 },
//!     phy: PhyPreset::Mbps216,
//!     ber: None,
//!     duration_ms: 50,
//!     seed: 7,
//!     max_forwarders: 5,
//!     mobility: wmn_scengen::MobilitySpec::Static,
//!     route_refresh_ms: None,
//!     shards: None,
//! };
//! // Specs are data: they round-trip to disk …
//! let reloaded = ScenarioSpec::parse(&spec.to_json().to_string()).unwrap();
//! assert_eq!(reloaded, spec);
//! // … and expand deterministically into runnable scenarios.
//! let scenario = reloaded.materialise().unwrap();
//! assert_eq!(scenario.positions.len(), 12);
//! let result = wmn_netsim::run(&scenario);
//! assert_eq!(result.flows.len(), 4);
//! ```

pub mod mix;
pub mod mobility;
pub mod spec;
pub mod sweep;
pub mod topo;

/// Re-export of the JSON tree this crate's specs serialise through.
pub use wmn_exec::json;

pub use mix::{PairPolicy, TrafficMix};
pub use mobility::MobilitySpec;
pub use spec::{PhyPreset, ScenarioSpec};
pub use sweep::SweepSpec;
pub use topo::{is_connected, TopologySpec};
