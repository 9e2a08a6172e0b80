//! Radio/PHY substrate for the RIPPLE reproduction.
//!
//! The paper evaluates RIPPLE in NS-2 with two loss processes layered on top
//! of each other, both reproduced here:
//!
//! 1. a **log-normal shadowing** propagation model (path-loss exponent 5,
//!    shadowing deviation 8 dB, 281 mW transmit power) drawn independently
//!    per frame and per receiver — [`propagation`];
//! 2. an **i.i.d. bit-error model** (BER 10⁻⁵ "noisy" / 10⁻⁶ "clear")
//!    corrupting individual aggregated subframes — [`ber`].
//!
//! The crate also provides the Table-I timing parameters ([`params`]), frame
//! airtime arithmetic ([`rate`]), node placement ([`position`]), and the
//! reception state machine (with NS-2 capture semantics) shared by every MAC ([`medium`]).
//!
//! # Example
//!
//! ```
//! use wmn_phy::{PhyParams, Rate};
//!
//! let p = PhyParams::paper_216();
//! // A 1000-byte packet plus MAC overhead at 216 Mbps, preceded by the
//! // 20 us PHY header, is a few tens of microseconds on the air.
//! let t = p.airtime(Rate::mbps(216.0), 1028);
//! assert!(t.as_micros_f64() > 50.0 && t.as_micros_f64() < 70.0);
//! ```

pub mod ber;
pub mod math;
pub mod medium;
pub mod params;
pub mod position;
pub mod propagation;
pub mod rate;

pub use ber::BerModel;
pub use medium::{ArrivalOutcome, Medium, Receiver, RxPlan, RxPower};
pub use params::PhyParams;
pub use position::Position;
pub use propagation::LinkModel;
pub use rate::Rate;
