//! RIPPLE configuration.

use wmn_mac::dcf::frame_payload_budget;
use wmn_phy::PhyParams;
use wmn_sim::SimDuration;

use crate::timing::MtxopTiming;

/// Configuration of a [`crate::RippleMac`].
#[derive(Clone, Debug)]
pub struct RippleConfig {
    /// Short interframe space.
    pub sifs: SimDuration,
    /// Slot time.
    pub slot: SimDuration,
    /// DIFS.
    pub difs: SimDuration,
    /// Minimum contention window (source contention only; relays use the
    /// mTXOP idle-window rule instead of backoff).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// End-to-end retry limit: how many mTXOP attempts the source makes per
    /// frame before dropping the unacknowledged packets.
    pub retry_limit: u8,
    /// Packets aggregated per frame: 1 reproduces "RIPPLE without packet
    /// aggregation" (R1), 16 the full scheme (R16).
    pub max_aggregation: usize,
    /// Interface queue capacity.
    pub ifq_capacity: usize,
    /// Byte budget per aggregated frame (6 ms airtime cap at the data
    /// rate, as in 802.11n's bounded A-MPDU duration). Multi-hop TXOPs
    /// relay the frame once per hop, so bounding it matters even more here
    /// than for AFR.
    pub max_frame_payload_bytes: u32,
    /// mTXOP timing rules (relay waits, end-to-end timeout).
    pub timing: MtxopTiming,
}

impl RippleConfig {
    /// Builds the configuration from PHY parameters and an aggregation
    /// limit (1 for R1, [`crate::MAX_AGGREGATION`] for R16).
    ///
    /// # Panics
    ///
    /// Panics if `max_aggregation` is zero.
    pub fn from_phy(params: &PhyParams, max_aggregation: usize) -> Self {
        assert!(max_aggregation > 0, "aggregation limit must be at least 1");
        RippleConfig {
            sifs: params.sifs,
            slot: params.slot,
            difs: params.difs(),
            cw_min: params.cw_min,
            cw_max: params.cw_max,
            retry_limit: params.retry_limit,
            max_aggregation,
            ifq_capacity: params.ifq_capacity,
            max_frame_payload_bytes: frame_payload_budget(params),
            timing: MtxopTiming::new(params.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_phy_copies_table1() {
        let cfg = RippleConfig::from_phy(&PhyParams::paper_216(), 16);
        assert_eq!(cfg.sifs, SimDuration::from_micros(16));
        assert_eq!(cfg.slot, SimDuration::from_micros(9));
        assert_eq!(cfg.difs, SimDuration::from_micros(34));
        assert_eq!(cfg.max_aggregation, 16);
        assert_eq!(cfg.ifq_capacity, 50);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_aggregation_rejected() {
        let _ = RippleConfig::from_phy(&PhyParams::paper_216(), 0);
    }
}
