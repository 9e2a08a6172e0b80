//! Named random-number streams.
//!
//! Every stochastic component of the simulator (per-link shadowing, per-node
//! backoff, each traffic generator, …) draws from its own [`StreamRng`],
//! derived deterministically from the master seed and a stream label. This
//! keeps components statistically independent and means adding a new consumer
//! of randomness does not perturb the draws seen by existing ones. The labels
//! themselves are the rows of [`crate::labels`]; simulator code reaches a
//! stream through [`RngDirectory`], which accepts nothing but those rows.

use crate::labels::{Family, Label};

/// A deterministic random stream derived from `(master_seed, label)`.
///
/// Wraps an inline xoshiro256++ generator (the algorithm behind `rand`'s
/// `SmallRng` on 64-bit targets — implemented here because this build
/// environment cannot fetch crates.io dependencies) and adds the
/// distribution helpers the simulator needs: exponential, Pareto, and
/// standard-normal variates.
///
/// # Example
///
/// ```
/// use wmn_sim::StreamRng;
/// let mut a = StreamRng::derive(42, "unit-test/backoff");
/// let mut b = StreamRng::derive(42, "unit-test/backoff");
/// assert_eq!(a.next_u64(), b.next_u64()); // same label => same stream
/// ```
#[derive(Debug)]
pub struct StreamRng {
    state: [u64; 4],
}

impl StreamRng {
    /// Derives a stream from the master seed and a free-form label.
    ///
    /// For unit tests and the `perfbench` probes, which want a throwaway
    /// stream and call this by name. Simulator code does not: it goes through
    /// [`RngDirectory`], whose labels are the typed rows of
    /// [`crate::labels`], so that every stream a run draws from is in that
    /// one table. Nothing enforces the split — the function stays `pub`
    /// while the frozen probes name it (ROADMAP item 3(0) narrows it).
    pub fn derive(master_seed: u64, label: &str) -> Self {
        Self::seeded(master_seed, fold(LABEL_BASIS, label.as_bytes()))
    }

    /// The stream for a master seed and a folded label.
    fn seeded(master_seed: u64, label_hash: u64) -> Self {
        // Expand the mixed seed into four non-degenerate state words, as
        // xoshiro's authors recommend: successive splitmix64 outputs.
        let mut s = splitmix64(master_seed ^ label_hash);
        let mut state = [0u64; 4];
        for word in &mut state {
            s = splitmix64(s);
            *word = s;
        }
        StreamRng { state }
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        unit_interval(self.next_u64())
    }

    /// Uniform integer in `[0, n]` (inclusive). Used for 802.11 backoff
    /// counter draws over the contention window.
    ///
    /// # Panics
    ///
    /// Never panics; `n = 0` always yields 0.
    pub fn uniform_slots(&mut self, n: u32) -> u32 {
        // n + 1 ≤ 2^32 values; modulo bias over a u64 draw is < 2^-32 and
        // irrelevant to backoff statistics.
        (self.next_u64() % (u64::from(n) + 1)) as u32
    }

    /// Exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid exponential mean: {mean}");
        let u: f64 = 1.0 - self.uniform(); // in (0, 1]
        -mean * u.ln()
    }

    /// Pareto variate with the given `shape` and *mean* (not scale).
    ///
    /// The paper's web workload draws transfer sizes from a Pareto
    /// distribution with mean 80 KB and shape 1.5. For shape `a > 1` the mean
    /// of a Pareto with scale `x_m` is `a·x_m/(a−1)`, so the scale is derived
    /// as `mean·(a−1)/a`.
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 1` and `mean > 0` (the mean is otherwise
    /// undefined).
    pub fn pareto_with_mean(&mut self, shape: f64, mean: f64) -> f64 {
        assert!(shape > 1.0, "Pareto mean undefined for shape <= 1 (got {shape})");
        assert!(mean.is_finite() && mean > 0.0, "invalid Pareto mean: {mean}");
        let scale = mean * (shape - 1.0) / shape;
        let u: f64 = 1.0 - self.uniform(); // in (0, 1]
        scale / u.powf(1.0 / shape)
    }

    /// Standard normal variate (Box–Muller), for log-normal shadowing draws:
    /// the [`NormalWords::z`] of the next [`StreamRng::normal_words`].
    ///
    /// Consumes exactly two raw words per call, and — because `u1` is at
    /// least 2⁻⁵³ — the variate is hard-bounded by [`max_standard_normal`].
    /// A caller that only compares a sample against thresholds can take the
    /// words instead and decide most comparisons from
    /// [`NormalWords::bounds`], paying for the transcendental math only
    /// when the bounds straddle a threshold (the medium's planner does).
    pub fn standard_normal(&mut self) -> f64 {
        self.normal_words().z()
    }

    /// The two raw words one [`standard_normal`](StreamRng::standard_normal)
    /// draw consumes, taken without any math: the stream advances exactly as
    /// by that call, and [`NormalWords::z`] is bit-equal to what it returns.
    #[inline]
    pub fn normal_words(&mut self) -> NormalWords {
        let w1 = self.next_u64();
        let w2 = self.next_u64();
        NormalWords { w1, w2 }
    }

    /// Bernoulli trial that succeeds with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }
}

/// Where a label's fold starts.
const LABEL_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the label hash `h`. FNV-1a-style (odd multiplier, not
/// the exact FNV-64 prime — do not "correct" it: every derived stream, and
/// so every seed-dependent result, would change). Folding a label in pieces
/// equals folding it whole.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from the 53 high bits of a raw word — the standard
/// dyadic-rational construction.
fn unit_interval(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The Box–Muller transform of two raw words, one variate per pair.
fn box_muller(w1: u64, w2: u64) -> f64 {
    let u1 = 1.0 - unit_interval(w1); // in (0,1], avoids ln(0)
    let u2 = unit_interval(w2);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One standard-normal draw before its math: the two raw words
/// [`StreamRng::normal_words`] took, from which [`NormalWords::z`] computes
/// the Box–Muller variate and [`NormalWords::bounds`] a sound interval on
/// it from two table reads.
///
/// The bounds are exact for threshold decisions, not merely likely: for any
/// `σ ≥ 0` and mean, `mean + σ·lo ≤ mean + σ·z ≤ mean + σ·hi` holds in f64
/// arithmetic as written, because rounding is monotone at every step (for
/// `σ < 0` the two ends swap). A comparison both ends agree on is therefore
/// the comparison `z` would give; one they disagree on needs `z`. A NaN end
/// agrees with nothing. The default is the draw of two zero words, whose
/// variate is zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NormalWords {
    w1: u64,
    w2: u64,
}

impl NormalWords {
    /// The variate itself: bit-equal to the
    /// [`StreamRng::standard_normal`] these words would have produced.
    #[inline]
    pub fn z(self) -> f64 {
        box_muller(self.w1, self.w2)
    }

    /// `(lo, hi)` with `lo ≤ z() ≤ hi`, from the top eight bits of each
    /// word: the Box–Muller radius and cosine are each bounded over the
    /// word's bucket by a floor and a ceiling table, and the product's
    /// extremes sit at the bounds' corners (the radius is never negative).
    #[inline]
    pub fn bounds(self) -> (f64, f64) {
        let tables = NormalBounds::get();
        let [r_lo, r_hi] = tables.radius[(self.w1 >> BUCKET_SHIFT) as usize];
        let [c_lo, c_hi] = tables.cosine[(self.w2 >> BUCKET_SHIFT) as usize];
        ((r_lo * c_lo).min(r_hi * c_lo), (r_lo * c_hi).max(r_hi * c_hi))
    }
}

/// A ceiling on the Box–Muller radius `sqrt(-2·ln u)` over every `u` in
/// `[u1, 1]`: the radius at `u1` (it grows as `u` falls), inflated by a small
/// guard so that libm rounding in either direction cannot make a bound built
/// from it unsound.
fn radius_ceiling(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (1.0 + 1e-9) + 1e-9
}

/// A floor on the Box–Muller radius over every `u` in `(0, u1]`: the radius
/// at `u1`, deflated by the ceiling's guard and never below zero.
fn radius_floor(u1: f64) -> f64 {
    ((-2.0 * u1.ln()).sqrt() * (1.0 - 1e-9) - 1e-9).max(0.0)
}

/// The largest `|z|` [`StreamRng::standard_normal`] can return: `u1` is a
/// 53-bit uniform, so `u1 ≥ 2⁻⁵³` and `|z| ≤ sqrt(-2·ln 2⁻⁵³) ≈ 8.5716`
/// (guarded as every radius ceiling is). The one definition of
/// that property: `wmn_phy`'s test-side link classification and the last
/// bucket's radius ceiling in [`NormalWords::bounds`] both read it from
/// here.
pub fn max_standard_normal() -> f64 {
    radius_ceiling(1.0 / (1u64 << 53) as f64)
}

/// Raw-word shift that leaves the bucket index: the top eight bits.
const BUCKET_SHIFT: u32 = 56;
/// Buckets per table.
const BUCKETS: usize = 1 << (64 - BUCKET_SHIFT);

/// Per-bucket `[floor, ceiling]` pairs on the two Box–Muller factors,
/// indexed by the top eight bits of the raw word each factor is computed
/// from.
///
/// Process-wide and built once, from the same libm the sampler calls: the
/// tables depend on nothing but the transform, and a copy per `Medium` would
/// be paid on every world build.
struct NormalBounds {
    /// Bounds on the radius `sqrt(-2·ln u1)` over the first word's bucket.
    radius: [[f64; 2]; BUCKETS],
    /// Bounds on `cos(τ·u2)` over the second word's bucket.
    cosine: [[f64; 2]; BUCKETS],
}

impl NormalBounds {
    fn get() -> &'static NormalBounds {
        static TABLES: std::sync::OnceLock<NormalBounds> = std::sync::OnceLock::new();
        TABLES.get_or_init(NormalBounds::build)
    }

    fn build() -> NormalBounds {
        let mut bounds = NormalBounds { radius: [[0.0; 2]; BUCKETS], cosine: [[0.0; 2]; BUCKETS] };
        for k in 0..BUCKETS as u64 {
            let first = k << BUCKET_SHIFT;
            let last = first | (u64::MAX >> (64 - BUCKET_SHIFT));
            // u1 = 1 − u falls as the word grows: the bucket's largest u1
            // (smallest radius) is at its first word, its smallest u1
            // (largest radius) at its last.
            bounds.radius[k as usize] = [
                radius_floor(1.0 - unit_interval(first)),
                radius_ceiling(1.0 - unit_interval(last)),
            ];
            // The bucket edges fall on the cosine's turning points (angle 0,
            // π at bucket 128), so it is monotone inside every bucket and its
            // extremes sit at the two edges.
            let cos = |word| (std::f64::consts::TAU * unit_interval(word)).cos();
            let (a, b) = (cos(first), cos(last));
            bounds.cosine[k as usize] = [(a.min(b) - 1e-9).max(-1.0), (a.max(b) + 1e-9).min(1.0)];
        }
        bounds
    }
}

/// A factory handing out [`StreamRng`]s for a fixed master seed.
///
/// Scenario runners hold one directory and derive per-component streams from
/// it, e.g. `dir.stream(labels::MEDIUM)` or
/// `dir.indexed_stream(labels::MAC, 3)` (the stream labelled `"mac/3"`).
#[derive(Debug, Clone, Copy)]
pub struct RngDirectory {
    master_seed: u64,
}

impl RngDirectory {
    /// Creates a directory for the given master seed.
    pub const fn new(master_seed: u64) -> Self {
        RngDirectory { master_seed }
    }

    /// The master seed this directory was built from.
    pub const fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derives the stream with the given label.
    pub fn stream(&self, label: Label) -> StreamRng {
        StreamRng::derive(self.master_seed, label.0)
    }

    /// Derives stream `index` of a family: the stream labelled
    /// `"{head}{index}"`, without building that string — the head's bytes
    /// and then the index's decimal digits go straight into the fold.
    pub fn indexed_stream(&self, family: Family, index: u32) -> StreamRng {
        let mut digits = [0u8; 10]; // u32::MAX has ten
        let mut first = digits.len();
        let mut rest = index;
        loop {
            first -= 1;
            digits[first] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let head = fold(LABEL_BASIS, family.0.as_bytes());
        StreamRng::seeded(self.master_seed, fold(head, &digits[first..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_label_same_stream() {
        let dir = RngDirectory::new(7);
        let mut a = dir.stream(Label("x"));
        let mut b = dir.stream(Label("x"));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let dir = RngDirectory::new(7);
        let mut a = dir.stream(Label("x"));
        let mut b = dir.stream(Label("y"));
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different labels should diverge");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StreamRng::derive(1, "x");
        let mut b = StreamRng::derive(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StreamRng::derive(11, "exp");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(1.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.5).abs() < 0.05, "sample mean {mean} too far from 1.5");
    }

    #[test]
    fn pareto_mean_is_close() {
        let mut rng = StreamRng::derive(13, "pareto");
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.pareto_with_mean(1.5, 80_000.0)).sum();
        let mean = sum / n as f64;
        // Heavy-tailed: allow a generous tolerance.
        assert!((mean - 80_000.0).abs() / 80_000.0 < 0.25, "sample mean {mean} too far from 80000");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StreamRng::derive(17, "norm");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn standard_normal_is_hard_bounded() {
        // Box–Muller over a 53-bit uniform: |z| ≤ sqrt(-2·ln(2⁻⁵³)). The
        // medium's build-time link classification relies on this bound, and
        // it closes the radius table.
        let bound = max_standard_normal();
        assert!(bound > 8.5716 && bound < 8.572, "analytic bound {bound}");
        assert_eq!(NormalBounds::get().radius[BUCKETS - 1][1].to_bits(), bound.to_bits());
        let mut rng = StreamRng::derive(23, "bound");
        for _ in 0..100_000 {
            assert!(rng.standard_normal().abs() <= bound);
        }
        // The extreme word pair itself: smallest u1, cosine exactly one.
        assert!(box_muller(u64::MAX, 0) <= bound);
    }

    /// The sigmas the bound is exercised with: the paper's 8 dB, two tighter
    /// channels, and three degenerate values (σ = 0 and σ < 0 decide from
    /// the bounds as well; NaN decides nothing).
    const SIGMAS: [f64; 6] = [8.0, 4.0, 0.5, 0.0, -8.0, f64::NAN];
    /// Offsets of the mean from the limit, straddling it on both sides and
    /// reaching past the largest possible excursion (8 dB × 8.57).
    const MEAN_OFFSETS: [f64; 12] =
        [-80.0, -68.5, -40.0, -16.0, -8.0, -4.0, -1.0, -0.25, 0.0, 0.25, 4.0, 40.0];
    const LIMIT: f64 = -78.0;

    /// The planner's use of the bounds: whether `mean + sigma * z ≥ limit`,
    /// if the two ends of the interval agree on it.
    fn decided(words: NormalWords, mean: f64, sigma: f64, limit: f64) -> Option<bool> {
        let (lo, hi) = words.bounds();
        let (a, b) = (mean + sigma * lo, mean + sigma * hi);
        let (floor, ceiling) = if sigma >= 0.0 { (a, b) } else { (b, a) };
        if floor >= limit {
            Some(true)
        } else if ceiling < limit {
            Some(false)
        } else {
            None
        }
    }

    #[test]
    fn bound_is_sound_on_every_bucket_edge() {
        // Both words at every bucket edge k·2⁴⁵ and its two neighbours (in
        // 53-bit uniform units), with the low 11 bits — which reach nothing —
        // both clear and set: wherever the tables change value, the drawn
        // sample lies inside its bounds, and a decision taken from them is
        // the sample's own.
        let edges: Vec<u64> = (0..=BUCKETS as u64)
            .flat_map(|k| [(k << 45).wrapping_sub(1), k << 45, (k << 45) + 1])
            .filter(|&m| m < 1 << 53)
            .flat_map(|m| [m << 11, (m << 11) | 0x7ff])
            .collect();
        let (mut decisions, mut open) = (0u64, 0u64);
        for &w1 in &edges {
            for &w2 in &edges {
                let words = NormalWords { w1, w2 };
                let z = words.z();
                let (lo, hi) = words.bounds();
                assert!(lo <= z && z <= hi, "w1 {w1:#x} w2 {w2:#x}: {lo} <= {z} <= {hi}");
                for sigma in SIGMAS {
                    for offset in MEAN_OFFSETS {
                        let mean = LIMIT + offset;
                        match decided(words, mean, sigma, LIMIT) {
                            Some(sensed) => {
                                assert_eq!(
                                    sensed,
                                    mean + sigma * z >= LIMIT,
                                    "w1 {w1:#x} w2 {w2:#x} mean {mean} sigma {sigma} z {z}"
                                );
                                decisions += 1;
                            }
                            None => open += 1,
                        }
                    }
                }
            }
        }
        assert!(decisions > 0 && open > 0, "both outcomes: {decisions} decided, {open} open");
    }

    #[test]
    fn bounded_draw_matches_the_full_sample_on_a_twin_stream() {
        // Over 1.8 million raw words: every threshold decision the bounds
        // take is the full sample's, `z()` is bit-equal to it, and the two
        // streams never part — the next raw word agrees after every draw.
        let mut bounded = StreamRng::derive(29, "reach");
        let mut full = StreamRng::derive(29, "reach");
        let (mut decisions, mut open) = (0u64, 0u64);
        for draw in 0..600_000usize {
            let sigma = SIGMAS[draw % SIGMAS.len()];
            let mean = LIMIT + MEAN_OFFSETS[(draw / SIGMAS.len()) % MEAN_OFFSETS.len()];
            let z = full.standard_normal();
            let words = bounded.normal_words();
            assert_eq!(words.z().to_bits(), z.to_bits(), "draw {draw}");
            match decided(words, mean, sigma, LIMIT) {
                Some(sensed) => {
                    assert_eq!(sensed, mean + sigma * z >= LIMIT, "draw {draw}: {mean} {sigma}");
                    decisions += 1;
                }
                None => open += 1,
            }
            assert_eq!(bounded.next_u64(), full.next_u64(), "streams parted at {draw}");
        }
        // NaN sigma decides nothing; every other column mostly decides.
        assert!(decisions > 450_000 && open > 100_000, "decided {decisions}, open {open}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = StreamRng::derive(19, "chance");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    proptest! {
        /// The indexed form is *defined* as the `"{head}{index}"` label: the
        /// digit fold agrees with the formatted string for every family of
        /// the table, at the digit-count boundaries in particular.
        #[test]
        fn indexed_stream_matches_the_formatted_label(seed in any::<u64>(), index in any::<u32>()) {
            for row in crate::labels::TABLE {
                let crate::labels::Row::Family(family) = *row else { continue };
                for i in [0, 9, 10, u32::MAX, index] {
                    let label = format!("{}{i}", family.0);
                    let mut folded = RngDirectory::new(seed).indexed_stream(family, i);
                    let mut formatted = StreamRng::derive(seed, &label);
                    for _ in 0..4 {
                        prop_assert!(folded.next_u64() == formatted.next_u64(), "{label}");
                    }
                }
            }
        }

        /// Backoff draws always fall inside the contention window.
        #[test]
        fn prop_uniform_slots_in_range(n in 0u32..4096, seed in any::<u64>()) {
            let mut rng = StreamRng::derive(seed, "slots");
            for _ in 0..32 {
                prop_assert!(rng.uniform_slots(n) <= n);
            }
        }

        /// Pareto variates are never below the derived scale parameter.
        #[test]
        fn prop_pareto_lower_bound(seed in any::<u64>()) {
            let mut rng = StreamRng::derive(seed, "p");
            let shape = 1.5;
            let mean = 80_000.0;
            let scale = mean * (shape - 1.0) / shape;
            for _ in 0..64 {
                prop_assert!(rng.pareto_with_mean(shape, mean) >= scale - 1e-9);
            }
        }
    }
}
