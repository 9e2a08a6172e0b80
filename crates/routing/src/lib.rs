//! Route discovery and the two prior opportunistic MACs the paper compares
//! against.
//!
//! * [`etx`] — the ETX link metric of De Couto et al. (the paper's route
//!   discovery substrate, inherited from ExOR/MORE): analytic per-link
//!   delivery probabilities from the shadowing model, min-ETX paths
//!   (Dijkstra over a link graph, or a lazy A* over a placement that
//!   returns the same paths), and forwarder-list construction (destination
//!   first, then forwarders by decreasing priority, capped at the paper's
//!   default of 5).
//! * [`exor`] — the **preExOR** (sequential per-forwarder ACKs) and
//!   **MCExOR** (compressed, rank-scaled ACK slots) MAC state machines used
//!   in Section II's motivation study. Both cache overheard packets at
//!   forwarders and contend for the channel to relay them — which is exactly
//!   what re-orders interactive traffic and motivates RIPPLE.

pub mod etx;
pub mod exor;

pub use etx::{forwarder_list, EtxError, LinkGraph, PlacementSearch};
pub use exor::{ExorConfig, ExorMac, ExorMode};

/// The paper's default cap on forwarders per path ("we use 5 as the default
/// maximum forwarders since it works well under a wide range of network
/// conditions").
pub const DEFAULT_MAX_FORWARDERS: usize = 5;
