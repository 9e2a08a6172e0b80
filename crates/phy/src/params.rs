//! The simulation parameter set (Table I of the paper) plus the radio
//! constants the paper inherits from NS-2's 802.11 model.
//!
//! | Parameter | Value |
//! |---|---|
//! | T_SIFS | 16 µs |
//! | Idle slot | 9 µs |
//! | Packet size | 1000 bytes |
//! | PHY data rate | 216 Mbps |
//! | PHY basic rate | 54 Mbps |
//! | Interface queue | 50 packets |
//! | T_phyhdr | 20 µs |
//! | Simulation time | 10 s |
//!
//! Shadowing: path-loss exponent 5, deviation 8 dB, transmit power 281 mW.

use wmn_sim::SimDuration;

use crate::propagation::LinkModel;
use crate::rate::Rate;

/// Speed of light, m/s, for propagation delay.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Complete PHY/MAC-timing parameter set for one simulation.
///
/// Constructed from the paper presets ([`PhyParams::paper_216`],
/// [`PhyParams::paper_6`]) and tweaked through the public fields; the struct
/// is a plain parameter record in the C spirit, so fields are public. The
/// radio's reach — transmit power, thresholds and shadowing — is the one
/// [`LinkModel`] in [`PhyParams::link`]; everything else here is timing,
/// rates, queueing and bit errors.
///
/// # Example
///
/// ```
/// use wmn_phy::PhyParams;
/// let mut p = PhyParams::paper_216();
/// p.ber = 1e-5; // switch to the paper's "noisy" channel state
/// assert_eq!(p.difs(), wmn_sim::SimDuration::from_micros(34));
/// ```
#[derive(Clone, Debug)]
pub struct PhyParams {
    /// Short interframe space (16 µs).
    pub sifs: SimDuration,
    /// Idle slot duration (9 µs).
    pub slot: SimDuration,
    /// PHY-layer header/preamble time (20 µs), rate-independent.
    pub phy_header: SimDuration,
    /// Data transmission rate.
    pub data_rate: Rate,
    /// Basic (control/ACK) transmission rate.
    pub basic_rate: Rate,
    /// Minimum contention window (slots − 1), i.e. CW ∈ [0, cw_min].
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Per-hop MAC retry limit before a frame is dropped.
    pub retry_limit: u8,
    /// Interface queue capacity, packets (Table I: 50).
    pub ifq_capacity: usize,
    /// Upper-layer packet size in bytes (Table I: 1000).
    pub packet_size: u32,
    /// Independent, identically distributed bit error rate.
    pub ber: f64,
    /// The link model: transmit power, receive and carrier-sense
    /// thresholds, and log-normal shadowing.
    pub link: LinkModel,
}

impl PhyParams {
    /// Table-I parameters with the 216 Mbps data / 54 Mbps basic rates used
    /// by the TCP experiments. BER defaults to the "clear" 10⁻⁶ state.
    pub fn paper_216() -> Self {
        Self::base(Rate::mbps(216.0), Rate::mbps(54.0))
    }

    /// Table-I parameters at the 6 Mbps data and basic rates used for the
    /// VoIP (Table III) and low-rate Wigle/Roofnet experiments.
    pub fn paper_6() -> Self {
        Self::base(Rate::mbps(6.0), Rate::mbps(6.0))
    }

    fn base(data_rate: Rate, basic_rate: Rate) -> Self {
        PhyParams {
            sifs: SimDuration::from_micros(16),
            slot: SimDuration::from_micros(9),
            phy_header: SimDuration::from_micros(20),
            data_rate,
            basic_rate,
            cw_min: 15,
            cw_max: 1023,
            retry_limit: 7,
            ifq_capacity: 50,
            packet_size: 1000,
            ber: 1e-6,
            link: LinkModel::paper(),
        }
    }

    /// Returns a copy with the given bit-error rate (the paper's channel
    /// states are 10⁻⁵ "noisy" and 10⁻⁶ "clear").
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.ber = ber;
        self
    }

    /// DIFS = SIFS + 2·slot (34 µs with Table-I values).
    pub fn difs(&self) -> SimDuration {
        self.sifs + self.slot * 2
    }

    /// Time on the air for a frame of `bytes` at `rate`, including the PHY
    /// header.
    pub fn airtime(&self, rate: Rate, bytes: u32) -> SimDuration {
        self.phy_header + rate.payload_airtime(bytes)
    }

    /// One-way propagation delay over `metres`.
    pub fn propagation_delay(&self, metres: f64) -> SimDuration {
        SimDuration::from_secs_f64(metres.max(0.0) / SPEED_OF_LIGHT)
    }

    /// Errs, naming the field, unless a run can use these parameters: each
    /// rule mirrors an `assert!` ([`LinkModel::check`], [`crate::BerModel::new`],
    /// the interface queue, the back-off, which divides by `slot` and doubles
    /// its window in `u32`) or keeps a span within [`SimDuration::LIMIT`].
    pub fn check(&self) -> Result<(), String> {
        self.link.check().map_err(|msg| format!("link {msg}"))?;
        let fits = |ns: f64| ns <= SimDuration::LIMIT.as_nanos() as f64;
        let carries = |rate: Rate| fits(f64::from(u32::MAX) * 8e3 / rate.as_mbps());
        let backoff = self.slot > SimDuration::ZERO
            && fits(self.slot.as_nanos() as f64 * (f64::from(self.cw_max) + 1.0));
        let (sifs, header) = (self.sifs.as_nanos() as f64, self.phy_header.as_nanos() as f64);
        let rules: [(&str, &dyn std::fmt::Display, bool); 9] = [
            ("ber must be in [0, 1)", &self.ber, (0.0..1.0).contains(&self.ber)),
            ("ifq_capacity must be positive", &self.ifq_capacity, self.ifq_capacity > 0),
            ("cw_min must not exceed cw_max", &self.cw_min, self.cw_min <= self.cw_max),
            ("cw_max must be below 2^31", &self.cw_max, self.cw_max < 1 << 31),
            ("slot must be positive, slot · (cw_max + 1) within the limit", &self.slot, backoff),
            ("sifs must be within SimDuration::LIMIT", &self.sifs, fits(sifs)),
            ("phy_header must be within SimDuration::LIMIT", &self.phy_header, fits(header)),
            ("data_rate must be at least ≈ 1 kbps", &self.data_rate, carries(self.data_rate)),
            ("basic_rate must be at least ≈ 1 kbps", &self.basic_rate, carries(self.basic_rate)),
        ];
        match rules.into_iter().find(|&(_, _, holds)| !holds) {
            Some((rule, value, _)) => Err(format!("{rule}, got {value}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_is_34us() {
        assert_eq!(PhyParams::paper_216().difs(), SimDuration::from_micros(34));
    }

    #[test]
    fn table1_values() {
        let p = PhyParams::paper_216();
        assert_eq!(p.sifs, SimDuration::from_micros(16));
        assert_eq!(p.slot, SimDuration::from_micros(9));
        assert_eq!(p.phy_header, SimDuration::from_micros(20));
        assert_eq!(p.packet_size, 1000);
        assert_eq!(p.ifq_capacity, 50);
        assert_eq!(p.data_rate.as_mbps(), 216.0);
        assert_eq!(p.basic_rate.as_mbps(), 54.0);
    }

    #[test]
    fn low_rate_preset() {
        let p = PhyParams::paper_6();
        assert_eq!(p.data_rate.as_mbps(), 6.0);
        assert_eq!(p.basic_rate.as_mbps(), 6.0);
    }

    #[test]
    fn airtime_includes_phy_header() {
        let p = PhyParams::paper_216();
        let t = p.airtime(p.data_rate, 1000);
        assert!((t.as_micros_f64() - (20.0 + 37.037)).abs() < 0.01);
    }

    #[test]
    fn with_ber_sets_only_ber() {
        let p = PhyParams::paper_216().with_ber(1e-5);
        assert_eq!(p.ber, 1e-5);
        assert_eq!(p.packet_size, 1000);
    }

    #[test]
    fn propagation_delay_scale() {
        let p = PhyParams::paper_216();
        // 30 m ≈ 100 ns.
        let d = p.propagation_delay(30.0);
        assert!((d.as_nanos() as f64 - 100.0).abs() < 2.0);
    }

    #[test]
    fn calibrated_link_quality_bands() {
        let p = PhyParams::paper_216().link;
        let close = p.delivery(5.0);
        let mid = p.delivery(10.0);
        let far = p.delivery(15.0);
        assert!(close > 0.93, "5 m link should be good, got {close}");
        assert!((0.3..0.7).contains(&mid), "10 m link should be marginal, got {mid}");
        assert!(far < 0.25, "15 m link should be poor, got {far}");
        // Carrier sense reaches further than decoding.
        assert!(p.sensing(15.0) > p.delivery(15.0));
    }
}
