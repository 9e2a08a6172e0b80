//! Workload models for the paper's evaluation:
//!
//! * long-lived TCP transfers ("persistently send traffic throughout the
//!   simulation") need no model: `wmn_netsim`'s `Workload::Ftp` sends from
//!   time zero without end;
//! * short-lived web traffic: ON periods transfer a Pareto-distributed
//!   amount (mean 80 KB, shape 1.5), OFF periods are exponential with mean
//!   one second — [`WebModel`];
//! * VoIP: a 96 kbps on-off stream, on/off periods exponential with mean
//!   1.5 s — [`VoipModel`];
//! * saturated CBR cross/hidden traffic ("sending 5 × 10⁶ packets during
//!   the simulations") — [`CbrModel`].
//!
//! These are pure distribution/parameter records: the simulation runner
//! (`wmn-netsim`) owns the clocks and feedback loops and calls the draw
//! methods with its own RNG streams, keeping every workload deterministic
//! per seed.

use wmn_sim::{SimDuration, StreamRng};

/// The first rule that does not hold, as `"{rule}, got {value}"`.
fn first_broken(rules: &[(&str, &dyn std::fmt::Display, bool)]) -> Result<(), String> {
    match rules.iter().find(|rule| !rule.2) {
        Some((rule, value, _)) => Err(format!("{rule}, got {value}")),
        None => Ok(()),
    }
}

/// Whether 37 means, the longest exponential draw (its uniform has 53
/// bits), fit in [`SimDuration::LIMIT`].
fn mean_fits(seconds: f64) -> bool {
    seconds > 0.0 && seconds * 37.0 <= SimDuration::LIMIT.as_secs_f64()
}

/// Whether a packet interval rounds to at least 1 ns (zero sends forever at
/// one instant) and is at most [`SimDuration::LIMIT`].
fn interval_fits(seconds: f64) -> bool {
    seconds * 1e9 >= 0.5 && seconds <= SimDuration::LIMIT.as_secs_f64()
}

/// The paper's web-traffic workload (Section IV-D).
#[derive(Clone, Copy, Debug)]
pub struct WebModel {
    /// Mean transfer size in bytes (paper: 80 KB).
    pub mean_transfer_bytes: f64,
    /// Pareto shape parameter (paper: 1.5).
    pub pareto_shape: f64,
    /// Mean OFF (think-time) duration in seconds (paper: 1 s).
    pub mean_off_seconds: f64,
    /// Segment size used to convert bytes to TCP segments.
    pub mss_bytes: u32,
}

impl WebModel {
    /// The paper's parameters.
    pub fn paper() -> Self {
        WebModel {
            mean_transfer_bytes: 80_000.0,
            pareto_shape: 1.5,
            mean_off_seconds: 1.0,
            mss_bytes: 1000,
        }
    }

    /// Errs, naming the field, unless the draws below can run: a positive,
    /// finite mean size, a finite Pareto shape above 1 (the mean must exist),
    /// and an OFF mean whose draws fit the clock.
    pub fn check(&self) -> Result<(), String> {
        let (mean, shape, off) =
            (self.mean_transfer_bytes, self.pareto_shape, self.mean_off_seconds);
        first_broken(&[
            ("mean_transfer_bytes must be finite, > 0", &mean, mean > 0.0 && mean.is_finite()),
            ("pareto_shape must be finite, > 1", &shape, shape > 1.0 && shape.is_finite()),
            ("mean_off_seconds must fit", &off, mean_fits(off)),
        ])
    }

    /// Draws the size of the next transfer, in whole segments (≥ 1).
    pub fn draw_transfer_segments(&self, rng: &mut StreamRng) -> u64 {
        let bytes = rng.pareto_with_mean(self.pareto_shape, self.mean_transfer_bytes);
        ((bytes / f64::from(self.mss_bytes)).ceil() as u64).max(1)
    }

    /// Draws the next OFF (reading) period.
    pub fn draw_off_period(&self, rng: &mut StreamRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.exponential(self.mean_off_seconds))
    }
}

/// The paper's VoIP workload (Section IV-E): "a 96 kbps on-off traffic
/// stream with on and off periods exponentially distributed with mean 1.5
/// seconds".
#[derive(Clone, Copy, Debug)]
pub struct VoipModel {
    /// Codec bitrate during ON periods, bits per second.
    pub bitrate_bps: f64,
    /// Wire size of each voice packet.
    pub packet_bytes: u32,
    /// Mean ON duration, seconds.
    pub mean_on_seconds: f64,
    /// Mean OFF duration, seconds.
    pub mean_off_seconds: f64,
}

impl VoipModel {
    /// The paper's parameters: 96 kbps, 1.5 s mean on/off. 240-byte packets
    /// give the canonical 20 ms packetisation interval.
    pub fn paper() -> Self {
        VoipModel {
            bitrate_bps: 96_000.0,
            packet_bytes: 240,
            mean_on_seconds: 1.5,
            mean_off_seconds: 1.5,
        }
    }

    /// Errs, naming the field, unless the departure schedule can run: a
    /// packet of at most an IP datagram's 65 535 bytes (so a frame of up to
    /// 60 000 keeps its wire size inside `u32`), a finite, positive bitrate
    /// whose packet interval the clock can step by, and ON and OFF means it
    /// can hold.
    pub fn check(&self) -> Result<(), String> {
        let (bytes, bps, on, off) =
            (self.packet_bytes, self.bitrate_bps, self.mean_on_seconds, self.mean_off_seconds);
        let interval = f64::from(bytes) * 8.0 / bps;
        first_broken(&[
            ("packet_bytes must be at most 65535", &bytes, bytes <= 65_535),
            ("bitrate_bps must be finite, > 0", &bps, bps > 0.0 && bps.is_finite()),
            ("packet_bytes / bitrate_bps must fit", &interval, interval_fits(interval)),
            ("mean_on_seconds must fit", &on, mean_fits(on)),
            ("mean_off_seconds must fit", &off, mean_fits(off)),
        ])
    }

    /// Interval between packets during an ON period.
    pub fn packet_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(self.packet_bytes) * 8.0 / self.bitrate_bps)
    }

    /// Draws the duration of the next ON or OFF phase.
    pub fn draw_phase(&self, on: bool, rng: &mut StreamRng) -> SimDuration {
        let mean = if on { self.mean_on_seconds } else { self.mean_off_seconds };
        SimDuration::from_secs_f64(rng.exponential(mean))
    }

    /// Pre-generates the departure times of every packet in `[0, horizon)`,
    /// alternating ON/OFF phases starting with ON.
    pub fn departure_schedule(
        &self,
        horizon: SimDuration,
        rng: &mut StreamRng,
    ) -> Vec<SimDuration> {
        let mut departures = Vec::new();
        let mut t = SimDuration::ZERO;
        let mut on = true;
        let interval = self.packet_interval();
        while t < horizon {
            let phase = self.draw_phase(on, rng);
            if on {
                let phase_end = t + phase;
                let mut next = t;
                while next < phase_end && next < horizon {
                    departures.push(next);
                    next += interval;
                }
            }
            t += phase;
            on = !on;
        }
        departures
    }
}

/// Constant-bit-rate traffic used as saturating cross / hidden-terminal
/// load. An interval shorter than the frame service time keeps the sender
/// permanently backlogged, which is how the paper's "5 × 10⁶ packets"
/// senders behave over a 10 s run.
#[derive(Clone, Copy, Debug)]
pub struct CbrModel {
    /// Wire size of each packet.
    pub packet_bytes: u32,
    /// Inter-departure interval.
    pub interval: SimDuration,
}

impl CbrModel {
    /// Creates a CBR source with the given packet size and interval.
    pub fn new(packet_bytes: u32, interval: SimDuration) -> Self {
        CbrModel { packet_bytes, interval }
    }

    /// The paper's hidden/cross traffic: effectively saturated at any PHY
    /// rate used in the evaluation (5 × 10⁶ packets over 10 s would need
    /// 400 Mbps of goodput).
    pub fn saturating() -> Self {
        CbrModel { packet_bytes: 1000, interval: SimDuration::from_micros(100) }
    }

    /// Heavy-but-not-annihilating cross/hidden load: ~27 Mbps. Enough to
    /// keep the sender backlogged at 6 Mbps PHY and to contend hard at
    /// 216 Mbps, without occupying every microsecond of airtime the way
    /// [`CbrModel::saturating`] does — which is what reproduces the paper's
    /// *gradual* throughput decline under interference.
    pub fn heavy() -> Self {
        CbrModel { packet_bytes: 1000, interval: SimDuration::from_micros(300) }
    }

    /// Errs, naming the field, unless a packet is at most 65 535 bytes (as
    /// for VoIP) and the interval one the clock can step by.
    pub fn check(&self) -> Result<(), String> {
        let (bytes, interval) = (self.packet_bytes, self.interval);
        first_broken(&[
            ("packet_bytes must be at most 65535", &bytes, bytes <= 65_535),
            ("interval must fit", &interval, interval_fits(interval.as_secs_f64())),
        ])
    }

    /// Offered load in Mbps.
    pub fn offered_load_mbps(&self) -> f64 {
        f64::from(self.packet_bytes) * 8.0 / self.interval.as_micros_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::derive(21, "traffic-test")
    }

    #[test]
    fn web_transfer_sizes_have_right_mean() {
        let m = WebModel::paper();
        let mut r = rng();
        let n = 100_000;
        let total: u64 = (0..n).map(|_| m.draw_transfer_segments(&mut r)).sum();
        let mean_bytes = total as f64 * 1000.0 / n as f64;
        // Heavy-tailed: wide tolerance around 80 KB.
        assert!(
            (mean_bytes - 80_000.0).abs() / 80_000.0 < 0.3,
            "mean transfer {mean_bytes} too far from 80 KB"
        );
    }

    #[test]
    fn web_off_periods_average_one_second() {
        let m = WebModel::paper();
        let mut r = rng();
        let n = 20_000;
        let total: f64 = (0..n).map(|_| m.draw_off_period(&mut r).as_secs_f64()).sum();
        assert!((total / n as f64 - 1.0).abs() < 0.05);
    }

    #[test]
    fn voip_packetisation_is_20ms() {
        let m = VoipModel::paper();
        assert_eq!(m.packet_interval(), SimDuration::from_millis(20));
    }

    #[test]
    fn voip_rate_during_on_is_96kbps() {
        let m = VoipModel::paper();
        let per_second = 1.0 / m.packet_interval().as_secs_f64();
        let bps = per_second * f64::from(m.packet_bytes) * 8.0;
        assert!((bps - 96_000.0).abs() < 1.0);
    }

    #[test]
    fn voip_schedule_respects_duty_cycle() {
        let m = VoipModel::paper();
        let mut r = rng();
        let horizon = SimDuration::from_secs_f64(200.0);
        let schedule = m.departure_schedule(horizon, &mut r);
        // 50 % duty cycle at 50 pkt/s over 200 s ≈ 5000 packets.
        let expected = 5000.0;
        let got = schedule.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.25,
            "expected ≈{expected} packets, got {got}"
        );
        // Strictly increasing and inside the horizon.
        assert!(schedule.windows(2).all(|w| w[0] < w[1]));
        assert!(schedule.iter().all(|d| *d < horizon));
    }

    #[test]
    fn saturating_cbr_exceeds_phy_service_rate() {
        let m = CbrModel::saturating();
        assert!(m.offered_load_mbps() > 50.0, "must exceed any achievable goodput");
    }
}
