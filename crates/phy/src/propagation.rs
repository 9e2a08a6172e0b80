//! Log-normal shadowing propagation, matching NS-2's `Shadowing` model that
//! the paper selects ("path loss exponent 5, shadowing deviation 8,
//! transmission power 281 mW").
//!
//! Received power over a link of length `d` is
//!
//! ```text
//! Pr(d) [dBm] = Pt − PL(d0) − 10·β·log10(d/d0) + X_σ,   X_σ ~ N(0, σ²)
//! ```
//!
//! with reference distance `d0 = 1 m` and `PL(d0)` the free-space loss at
//! 2.4 GHz. The Gaussian term is drawn **independently per frame and per
//! receiver**, which is exactly the property opportunistic routing exploits:
//! losses at different forwarders are uncorrelated.

use crate::math::{mw_to_dbm, normal_cdf};

/// The link model: transmit power, the two reception thresholds and the
/// log-normal shadowing parameters. It is the one place a distance becomes
/// a mean received power, a delivery or sensing probability, or a radius —
/// the medium's planner, the routing graph and the scenario generators all
/// read it.
///
/// `==` compares the seven fields by bit pattern, so two models are equal
/// exactly when they give every placement the same link state (σ = 0.0 and
/// σ = −0.0 are *not* equal: they give every margin the opposite sign).
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Transmit power in dBm (281 mW ≈ 24.49 dBm).
    pub tx_power_dbm: f64,
    /// Receive-sensitivity threshold in dBm: arrivals at or above this can be
    /// decoded.
    pub rx_thresh_dbm: f64,
    /// Carrier-sense threshold in dBm: arrivals at or above this make the
    /// channel busy.
    pub cs_thresh_dbm: f64,
    /// Path-loss exponent β (paper: 5).
    pub path_loss_exponent: f64,
    /// Shadowing deviation σ in dB (paper: 8).
    pub sigma_db: f64,
    /// Reference distance d0 in metres (1 m).
    pub reference_distance: f64,
    /// Free-space path loss at the reference distance, dB.
    pub pl_at_reference_db: f64,
}

impl LinkModel {
    /// The paper's model: 281 mW, β = 5, σ = 8 dB, d0 = 1 m, 2.4 GHz
    /// reference loss ≈ 40.05 dB, and receive / carrier-sense thresholds of
    /// −65 / −78 dBm.
    pub fn paper() -> Self {
        LinkModel {
            tx_power_dbm: mw_to_dbm(281.0),
            // Calibrated so that adjacent stations ~5 m apart deliver ≈96 %
            // of frames, 10 m ≈ 47 %, 15 m ≈ 12 % — reproducing the regime
            // the paper engineers where one-hop routing is inefficient.
            rx_thresh_dbm: -65.0,
            cs_thresh_dbm: -78.0,
            path_loss_exponent: 5.0,
            sigma_db: 8.0,
            reference_distance: 1.0,
            // 20·log10(4π·d0/λ) with λ = c/2.4 GHz ≈ 0.125 m.
            pl_at_reference_db: 40.05,
        }
    }

    /// The seven fields by name, in declaration order.
    fn fields(&self) -> [(&'static str, f64); 7] {
        [
            ("tx_power_dbm", self.tx_power_dbm),
            ("rx_thresh_dbm", self.rx_thresh_dbm),
            ("cs_thresh_dbm", self.cs_thresh_dbm),
            ("path_loss_exponent", self.path_loss_exponent),
            ("sigma_db", self.sigma_db),
            ("reference_distance", self.reference_distance),
            ("pl_at_reference_db", self.pl_at_reference_db),
        ]
    }

    /// Rejects a model no run can use: a non-finite field gives some pair a
    /// NaN mean power, which no threshold comparison rejects (the planner
    /// would book that station as a receiver of every frame), and a
    /// reference distance that is not positive clamps every distance to
    /// it, so no frame is ever sensed. A negative σ is legal.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field.
    pub fn check(&self) -> Result<(), String> {
        if let Some((name, value)) = self.fields().into_iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{name} must be finite, got {value}"));
        }
        if self.reference_distance <= 0.0 {
            return Err(format!(
                "reference_distance must be positive, got {}",
                self.reference_distance
            ));
        }
        Ok(())
    }

    /// Mean received power (dBm) at distance `metres`, i.e. the
    /// deterministic part of the model.
    ///
    /// Distances below the reference distance are clamped to it.
    pub fn mean_rx_dbm(&self, metres: f64) -> f64 {
        let d = metres.max(self.reference_distance);
        self.tx_power_dbm
            - self.pl_at_reference_db
            - 10.0 * self.path_loss_exponent * (d / self.reference_distance).log10()
    }

    /// A link's margin over `threshold_dbm` in units of σ, given its mean
    /// received power: `(mean − threshold)/σ`. The probability that a frame
    /// clears the threshold is Φ of this ([`LinkModel::probability_above`]);
    /// callers that only need to know a link is hopeless can compare the
    /// margin and skip the `erf`.
    pub fn margin_sigmas(&self, mean_rx_dbm: f64, threshold_dbm: f64) -> f64 {
        (mean_rx_dbm - threshold_dbm) / self.sigma_db
    }

    /// Analytic probability that a sample around `mean_rx_dbm` exceeds
    /// `threshold_dbm`: Φ((mean − threshold)/σ). Every delivery and sensing
    /// probability in the workspace goes through it.
    pub fn probability_above(&self, mean_rx_dbm: f64, threshold_dbm: f64) -> f64 {
        normal_cdf(self.margin_sigmas(mean_rx_dbm, threshold_dbm))
    }

    /// Analytic probability that a frame sent over a link of length
    /// `metres` arrives at or above the receive threshold (shadowing only;
    /// bit errors are a separate process).
    pub fn delivery(&self, metres: f64) -> f64 {
        self.probability_above(self.mean_rx_dbm(metres), self.rx_thresh_dbm)
    }

    /// Analytic probability that a transmission over `metres` is *sensed*
    /// (raises carrier sense) at the receiver.
    pub fn sensing(&self, metres: f64) -> f64 {
        self.probability_above(self.mean_rx_dbm(metres), self.cs_thresh_dbm)
    }

    /// The distance at which the mean received power sits `margin_sigmas` σ
    /// from `threshold_dbm` ([`LinkModel::mean_rx_dbm`] solved for the
    /// metres). Infinite unless σ, β and the reference distance are
    /// positive and the radius is finite: a non-positive σ flips the sign
    /// of every margin, so beyond the radius is not the weaker side.
    pub fn radius_at(&self, threshold_dbm: f64, margin_sigmas: f64) -> f64 {
        if !(self.sigma_db > 0.0 && self.path_loss_exponent > 0.0 && self.reference_distance > 0.0)
        {
            return f64::INFINITY;
        }
        let floor_dbm = threshold_dbm + margin_sigmas * self.sigma_db;
        let decades = (self.tx_power_dbm - self.pl_at_reference_db - floor_dbm)
            / (10.0 * self.path_loss_exponent);
        let radius = self.reference_distance * 10f64.powf(decades);
        if radius.is_finite() {
            radius
        } else {
            f64::INFINITY
        }
    }
}

impl PartialEq for LinkModel {
    fn eq(&self, other: &Self) -> bool {
        self.fields().map(|(_, v)| v.to_bits()) == other.fields().map(|(_, v)| v.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhyParams;
    use proptest::prelude::*;
    use wmn_sim::StreamRng;

    #[test]
    fn mean_decays_50db_per_decade() {
        let m = LinkModel::paper();
        assert!(
            (m.mean_rx_dbm(1.0) - m.mean_rx_dbm(10.0) - 50.0).abs() < 1e-9,
            "β=5 → 50 dB/decade"
        );
    }

    #[test]
    fn sub_reference_distances_clamp() {
        let m = LinkModel::paper();
        assert_eq!(m.mean_rx_dbm(0.0), m.mean_rx_dbm(1.0));
        assert_eq!(m.mean_rx_dbm(0.5), m.mean_rx_dbm(1.0));
    }

    #[test]
    fn delivery_is_half_at_threshold() {
        let mut m = LinkModel::paper();
        m.rx_thresh_dbm = m.mean_rx_dbm(10.0);
        assert!((m.delivery(10.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_analytic() {
        let m = LinkModel::paper();
        let mut rng = StreamRng::derive(3, "shadow");
        let d = 8.0;
        let n = 50_000;
        let sample = |rng: &mut StreamRng| m.mean_rx_dbm(d) + m.sigma_db * rng.standard_normal();
        let hits = (0..n).filter(|_| sample(&mut rng) >= m.rx_thresh_dbm).count() as f64 / n as f64;
        let analytic = m.delivery(d);
        assert!((hits - analytic).abs() < 0.01, "empirical {hits} vs analytic {analytic}");
    }

    #[test]
    fn equality_is_by_bits_over_all_seven_fields() {
        for params in [PhyParams::paper_216(), PhyParams::paper_6()] {
            assert_eq!(params.link, LinkModel::paper());
            assert_eq!(params.with_ber(1e-5).link, LinkModel::paper());
        }
        let paper = LinkModel::paper();
        assert_ne!(LinkModel { rx_thresh_dbm: -70.0, ..paper }, paper);
        assert_ne!(LinkModel { path_loss_exponent: 4.0, ..paper }, paper);
        // Equal by f64's `==`, opposite margins: not the same model.
        assert_ne!(LinkModel { sigma_db: 0.0, ..paper }, LinkModel { sigma_db: -0.0, ..paper });
        // And a NaN field equals itself, so a model is always its own.
        let nan = LinkModel { sigma_db: f64::NAN, ..paper };
        assert_eq!(nan, nan);
    }

    #[test]
    fn radius_round_trips_through_the_mean() {
        let m = LinkModel::paper();
        for (threshold, margin) in [(-65.0, -2.0), (-78.0, 0.0), (-65.0, 1.5), (-40.0, 3.0)] {
            let r = m.radius_at(threshold, margin);
            let want = threshold + margin * m.sigma_db;
            assert!((m.mean_rx_dbm(r) - want).abs() < 1e-9, "{threshold} {margin}: r = {r}");
        }
        assert!((m.radius_at(m.rx_thresh_dbm, -2.0) - 20.35).abs() < 0.01);
        for degenerate in [
            LinkModel { sigma_db: 0.0, ..m },
            LinkModel { sigma_db: -8.0, ..m },
            LinkModel { path_loss_exponent: 0.0, ..m },
            LinkModel { reference_distance: 0.0, ..m },
            LinkModel { sigma_db: f64::NAN, ..m },
            LinkModel { path_loss_exponent: 1e-300, ..m },
        ] {
            assert_eq!(degenerate.radius_at(-65.0, -2.0), f64::INFINITY, "{degenerate:?}");
        }
    }

    #[test]
    fn check_names_the_first_unusable_field() {
        assert_eq!(LinkModel::paper().check(), Ok(()));
        assert_eq!(LinkModel { sigma_db: -8.0, ..LinkModel::paper() }.check(), Ok(()));
        for (i, (name, _)) in LinkModel::paper().fields().into_iter().enumerate() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut fields = LinkModel::paper().fields().map(|(_, v)| v);
                fields[i] = bad;
                let [tx, rx, cs, beta, sigma, d0, pl] = fields;
                let model = LinkModel {
                    tx_power_dbm: tx,
                    rx_thresh_dbm: rx,
                    cs_thresh_dbm: cs,
                    path_loss_exponent: beta,
                    sigma_db: sigma,
                    reference_distance: d0,
                    pl_at_reference_db: pl,
                };
                let msg = model.check().unwrap_err();
                assert!(msg.starts_with(name) && msg.contains("finite"), "{msg}");
            }
        }
        for d0 in [0.0, -0.0, -1.0] {
            let msg =
                LinkModel { reference_distance: d0, ..LinkModel::paper() }.check().unwrap_err();
            assert!(msg.contains("reference_distance must be positive"), "{msg}");
        }
    }

    proptest! {
        /// Delivery probability is monotone non-increasing with distance.
        #[test]
        fn prop_monotone_in_distance(d1 in 1.0f64..60.0, d2 in 1.0f64..60.0) {
            let m = LinkModel::paper();
            let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(m.delivery(near) + 1e-12 >= m.delivery(far));
        }

        /// Lowering the threshold can only help: sensing reaches at least
        /// as far as decoding.
        #[test]
        fn prop_monotone_in_threshold(d in 1.0f64..60.0) {
            let m = LinkModel::paper();
            prop_assert!(m.sensing(d) + 1e-12 >= m.delivery(d));
        }
    }
}
