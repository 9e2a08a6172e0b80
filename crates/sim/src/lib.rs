//! Discrete-event simulation engine for the RIPPLE wireless-mesh reproduction.
//!
//! This crate is the bottom layer of the workspace. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated clock
//!   newtypes with microsecond convenience constructors (802.11 timing is
//!   specified in µs),
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   ordering among simultaneous events, plus [`KeyedEventQueue`], the
//!   variant ordered by content-derived [`EventKey`]s instead of insertion
//!   order (the one the simulator runs on),
//! * [`rng`] — named, independently-seeded random-number streams so that
//!   changing how one component consumes randomness does not perturb others,
//!   and [`labels`], the one table of the names those streams may have,
//! * small shared identifier newtypes ([`NodeId`], [`FlowId`]).
//!
//! Every protocol entity in the upper crates is written as a passive state
//! machine; the event queue in this crate is the only source of time.
//!
//! # Example
//!
//! ```
//! use wmn_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "beacon");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(3), "ack");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "ack");
//! assert_eq!(t, SimTime::from_micros(3));
//! ```

pub mod ids;
pub mod labels;
#[cfg(clippy)]
mod liveness;
pub mod queue;
pub mod rng;
pub mod time;

pub use ids::{FlowId, NodeId};
pub use queue::{EventKey, EventQueue, KeyedEventQueue};
pub use rng::{max_standard_normal, NormalWords, RngDirectory, StreamRng};
pub use time::{SimDuration, SimTime};
