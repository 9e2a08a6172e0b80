//! The i.i.d. bit-error model.
//!
//! The paper: "We use a widely used independent and identically distributed
//! (i.i.d.) BER model … a BER of 10⁻⁵ and 10⁻⁶ to simulate a 'noisy' and a
//! 'clear' channel state."
//!
//! Under aggregation (AFR, RIPPLE-16) each subframe carries its own CRC, so
//! bit errors corrupt *individual subframes* while the rest of the frame
//! survives — the property that makes partial retransmission effective. The
//! model is applied per receiver, independently.

use wmn_sim::StreamRng;

/// I.i.d. bit-error channel with a fixed bit error rate.
///
/// # Example
///
/// ```
/// use wmn_phy::BerModel;
/// let clear = BerModel::new(1e-6);
/// // A 1000-byte unit survives the clear channel ~99.2 % of the time.
/// let p = clear.unit_success_probability(1000);
/// assert!((p - 0.992).abs() < 0.001);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BerModel {
    ber: f64,
    /// `ln(1 − ber)`, the per-bit log-survival: constant for the model, so
    /// computed once here instead of once per decoded unit.
    ln_bit_success: f64,
}

impl BerModel {
    /// Creates a model with the given bit error rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ber < 1`.
    pub fn new(ber: f64) -> Self {
        assert!((0.0..1.0).contains(&ber), "invalid BER: {ber}");
        BerModel { ber, ln_bit_success: (1.0 - ber).ln() }
    }

    /// The configured bit error rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Probability that a `bytes`-long protected unit (header or subframe)
    /// arrives with no bit errors: `(1 − BER)^(8·bytes)`.
    pub fn unit_success_probability(&self, bytes: u32) -> f64 {
        let bits = f64::from(bytes) * 8.0;
        // ln-space for numerical robustness at large sizes.
        (bits * self.ln_bit_success).exp()
    }

    /// Randomly decides whether a `bytes`-long protected unit survives.
    ///
    /// Exactly one RNG draw per call. The decode seam
    /// (`wmn-netsim`'s `stack::decode`) relies on this: it draws header
    /// first, then each subframe in frame order, and decides clean-vs-copy
    /// only *after* the draws — so the zero-copy fast path consumes the
    /// stream in precisely the order the old mutate-as-you-go loop did.
    pub fn unit_survives(&self, bytes: u32, rng: &mut StreamRng) -> bool {
        rng.chance(self.unit_success_probability(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_ber_never_corrupts() {
        let m = BerModel::new(0.0);
        assert_eq!(m.unit_success_probability(100_000), 1.0);
        let mut rng = StreamRng::derive(1, "ber");
        assert!((0..100).all(|_| m.unit_survives(1500, &mut rng)));
    }

    #[test]
    fn paper_channel_states() {
        // 1000-byte packet = 8000 bits.
        let noisy = BerModel::new(1e-5).unit_success_probability(1000);
        let clear = BerModel::new(1e-6).unit_success_probability(1000);
        assert!((noisy - 0.9231).abs() < 1e-3, "noisy ≈ 7.7 % loss, got {noisy}");
        assert!((clear - 0.9920).abs() < 1e-3, "clear ≈ 0.8 % loss, got {clear}");
    }

    #[test]
    fn empirical_matches_analytic() {
        let m = BerModel::new(1e-5);
        let mut rng = StreamRng::derive(5, "ber-emp");
        let n = 40_000;
        let ok = (0..n).filter(|_| m.unit_survives(1000, &mut rng)).count() as f64 / n as f64;
        assert!((ok - m.unit_success_probability(1000)).abs() < 0.01);
    }

    /// Caching `ln(1 − BER)` at construction is the same expression
    /// evaluated earlier: every probability keeps its bits, over the two
    /// paper channels (Figs. 3 and 4) and every unit size a frame carries.
    #[test]
    fn cached_log_keeps_the_closed_form_bit_for_bit() {
        for ber in [0.0, 1e-6, 1e-5, 1e-3] {
            let m = BerModel::new(ber);
            for bytes in (0..=64).chain(40..=1536) {
                let closed_form = (f64::from(bytes) * 8.0 * (1.0 - ber).ln()).exp();
                assert_eq!(
                    m.unit_success_probability(bytes).to_bits(),
                    closed_form.to_bits(),
                    "BER {ber}, {bytes} B",
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid BER")]
    fn rejects_ber_of_one() {
        let _ = BerModel::new(1.0);
    }

    proptest! {
        /// Success probability is monotone decreasing in unit size.
        #[test]
        fn prop_monotone_in_size(bytes in 1u32..10_000) {
            let m = BerModel::new(1e-5);
            prop_assert!(
                m.unit_success_probability(bytes) >= m.unit_success_probability(bytes + 1)
            );
        }

        /// Success probability is monotone decreasing in BER.
        #[test]
        fn prop_monotone_in_ber(exp in 3u32..9) {
            let high = BerModel::new(10f64.powi(-(exp as i32)));
            let low = BerModel::new(10f64.powi(-(exp as i32 + 1)));
            prop_assert!(low.unit_success_probability(1000) >= high.unit_success_probability(1000));
        }
    }
}
