//! # RIPPLE — opportunistic routing for interactive traffic
//!
//! This crate implements the primary contribution of *"Opportunistic Routing
//! for Interactive Traffic in Wireless Networks"* (Li, Leith, Qiu — ICDCS
//! 2010): the **RIPPLE** MAC/forwarding scheme, built from two mechanisms:
//!
//! 1. **Expedited multi-hop transmission opportunities (mTXOP)** — the
//!    source contends for the channel once; a forwarder of priority rank `i`
//!    relays an overheard data frame after sensing the channel idle for
//!    `i·T_slot + T_SIFS`, the destination acknowledges after `T_SIFS`, and
//!    forwarders relay the MAC ACK back after `(i−1)·T_slot + T_SIFS`.
//!    Forwarders never cache: each overheard frame is relayed at most once
//!    and any channel activity during the wait aborts the relay.
//!    Retransmission is purely end-to-end from the source. Together these
//!    rules eliminate protocol-induced re-ordering — the property that makes
//!    RIPPLE suitable for TCP and VoIP where batch-based schemes
//!    (ExOR/MORE) are not.
//! 2. **Two-way packet aggregation** — up to 16 packets per frame, each with
//!    its own CRC, in *both* directions (TCP data and TCP ACKs), with
//!    bitmap MAC ACKs and partial retransmission. Zero waiting time: a
//!    frame carries whatever the send queue holds, so frame sizes adapt to
//!    load automatically (Section III-A remark 5).
//!
//! The implementation is a passive state machine ([`RippleMac`]) driven
//! through the [`wmn_mac::MacEntity`] interface; see `wmn-netsim` for the
//! runner and `wmn-experiments` for the paper's full evaluation.
//!
//! The relay path rebuilds each forwarded frame from `Packet` clones, which
//! is deliberate and cheap: a `wmn_mac::Packet` clone is a small header copy
//! plus a refcount bump on the pooled payload body, so a relayed
//! subframe never duplicates its bytes. Cloning a whole *frame*, by
//! contrast, does not compile: the frame types are not `Clone`, and only the
//! decode seam copies one (`DataFrame::diverged_copy`).
//!
//! # Example
//!
//! ```
//! use ripple::{RippleConfig, RippleMac};
//! use wmn_phy::PhyParams;
//! use wmn_sim::{NodeId, StreamRng};
//!
//! let cfg = RippleConfig::from_phy(&PhyParams::paper_216(), 16);
//! let mac = RippleMac::new(cfg, NodeId::new(0), StreamRng::derive(1, "ripple/n0"));
//! assert_eq!(mac.node(), NodeId::new(0));
//! ```

pub mod config;
pub mod mac;
pub mod timing;

pub use config::RippleConfig;
pub use mac::{RippleMac, RippleScheme};
pub use timing::MtxopTiming;

/// The paper's aggregation limit: "we select 16 as the maximum number of
/// packets that can be aggregated into a frame" (following 802.11n / AFR).
pub const MAX_AGGREGATION: usize = 16;
