//! Deterministic random numbers for reproducible simulations.
//!
//! Every simulation run is seeded with a single `u64`; independent
//! sub-streams (one per device, one for the channel, …) are derived with
//! SplitMix64 so that adding a consumer never perturbs the draws of
//! another. The paper's channel "controls bit inversion with a random
//! number generator"; [`SimRng::next_flip_gap`] provides the geometric
//! jumps that implement that efficiently at packet granularity.

/// SplitMix64 step, used for seed derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Xoshiro256++ core: fast, high-quality, dependency-free.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_seed(seed: u64) -> Self {
        // Expand the seed with SplitMix64, as the xoshiro authors
        // advise: draw n of the stream is splitmix64 of the seed
        // advanced by n golden-ratio steps.
        let mut s = [0u64; 4];
        for (n, word) in s.iter_mut().enumerate() {
            *word = splitmix64(seed.wrapping_add((n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        Self { s }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// A seedable simulation RNG.
///
/// # Examples
///
/// ```
/// use btsim_kernel::SimRng;
///
/// let mut a = SimRng::new(42).fork(7);
/// let mut b = SimRng::new(42).fork(7);
/// assert_eq!(a.range_u64(1000), b.range_u64(1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    rng: Xoshiro256,
}

impl SimRng {
    /// Creates the root RNG of a run.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: Xoshiro256::from_seed(splitmix64(seed)),
        }
    }

    /// Derives an independent sub-stream identified by `stream`.
    ///
    /// Forking with the same `(seed, stream)` always yields the same
    /// stream, regardless of draws made on the parent.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)),
        ))
    }

    /// The seed this RNG was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A digest of the generator's current position in its stream.
    ///
    /// Two generators with the same seed have equal fingerprints exactly
    /// when they have made the same number of draws — which is how the
    /// engine-equivalence harness proves an alternative simulation engine
    /// consumed the random streams identically to the reference engine.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = splitmix64(self.seed);
        for w in self.rng.s {
            acc = splitmix64(acc ^ w);
        }
        acc
    }

    /// Draws a boolean that is `true` with probability `p` (clamped to 0..=1).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Draws a uniform integer in `0..bound` (`bound` must be nonzero).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be nonzero");
        // Multiply-shift mapping of a 64-bit draw onto `0..bound`; the
        // bias is at most 2^-64 per value, far below simulation noise.
        ((self.rng.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Draws a uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Number of successes (bits kept intact) before the next failure when
    /// each bit flips independently with probability `ber`.
    ///
    /// Returns `u64::MAX` when `ber <= 0` (no flips ever) and `0` when
    /// `ber >= 1`. Sampling geometric gaps lets the channel corrupt a
    /// packet in O(errors) instead of O(bits).
    pub fn next_flip_gap(&mut self, ber: f64) -> u64 {
        self.next_flip_gap_at(FlipRate::new(ber))
    }

    /// [`SimRng::next_flip_gap`] for a rate whose divisor was computed
    /// once: a packet's noise loop draws many gaps at one BER, and the
    /// logarithm of the keep probability would otherwise be taken again
    /// for every one of them. Returns the same gaps from the same draws.
    pub fn next_flip_gap_at(&mut self, rate: FlipRate) -> u64 {
        match rate {
            FlipRate::Never => u64::MAX,
            FlipRate::Always => 0,
            FlipRate::Geometric { ln_keep } => {
                let u = self.unit_f64().max(f64::MIN_POSITIVE);
                (u.ln() / ln_keep) as u64
            }
        }
    }
}

/// A bit error rate prepared for [`SimRng::next_flip_gap_at`].
///
/// The two extremes stay draw-free, as in [`SimRng::next_flip_gap`]:
/// BER ≤ 0 never flips and BER ≥ 1 flips every bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlipRate {
    /// BER ≤ 0: no flips, no draws.
    Never,
    /// BER ≥ 1: every bit flips, no draws.
    Always,
    /// Geometric gaps: each draw `u` gives `ln(u) / ln_keep` kept bits.
    Geometric {
        /// `(1 - ber).ln()`, the divisor of every gap.
        ln_keep: f64,
    },
}

impl FlipRate {
    /// Prepares `ber` (a NaN BER draws, as [`SimRng::next_flip_gap`]
    /// always has).
    pub fn new(ber: f64) -> Self {
        if ber <= 0.0 {
            FlipRate::Never
        } else if ber >= 1.0 {
            FlipRate::Always
        } else {
            FlipRate::Geometric {
                ln_keep: (1.0 - ber).ln(),
            }
        }
    }
}

// Snapshots persist the exact stream *position* (the four xoshiro
// words), not just the seed: a restored RNG continues the stream from
// the same draw, which is what makes restore-then-run bit-identical to
// an uninterrupted run.
crate::snap_struct! { Xoshiro256 { s } }
crate::snap_struct! { SimRng { seed, rng } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.range_u64(1_000_000), b.range_u64(1_000_000));
        }
    }

    #[test]
    fn forks_are_independent_of_parent_draws() {
        let mut parent1 = SimRng::new(9);
        let parent2 = SimRng::new(9);
        parent1.range_u64(10); // consume from one parent only
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        for _ in 0..10 {
            assert_eq!(f1.range_u64(1 << 40), f2.range_u64(1 << 40));
        }
    }

    #[test]
    fn different_streams_differ() {
        let root = SimRng::new(77);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..20)
            .filter(|_| a.range_u64(1 << 30) == b.range_u64(1 << 30))
            .count();
        assert!(same < 3, "streams should not coincide");
    }

    #[test]
    fn fingerprint_tracks_draws() {
        let mut a = SimRng::new(11);
        let b = SimRng::new(11);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.range_u64(100);
        assert_ne!(a.fingerprint(), b.fingerprint(), "a drew, b did not");
        let mut b = b;
        b.range_u64(100);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same draw count again");
        assert_ne!(
            SimRng::new(1).fingerprint(),
            SimRng::new(2).fingerprint(),
            "different seeds differ"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn flip_gap_extremes() {
        let mut r = SimRng::new(5);
        assert_eq!(r.next_flip_gap(0.0), u64::MAX);
        assert_eq!(r.next_flip_gap(-0.5), u64::MAX);
        assert_eq!(r.next_flip_gap(1.0), 0);
    }

    #[test]
    fn prepared_rate_keeps_the_draw_free_extremes() {
        let mut r = SimRng::new(5);
        let fp = r.fingerprint();
        assert_eq!(FlipRate::new(0.0), FlipRate::Never);
        assert_eq!(FlipRate::new(-0.5), FlipRate::Never);
        assert_eq!(FlipRate::new(1.0), FlipRate::Always);
        assert_eq!(FlipRate::new(3.0), FlipRate::Always);
        assert_eq!(r.next_flip_gap_at(FlipRate::Never), u64::MAX);
        assert_eq!(r.next_flip_gap_at(FlipRate::Always), 0);
        assert_eq!(r.fingerprint(), fp, "the extremes draw nothing");
        assert!(matches!(
            FlipRate::new(f64::NAN),
            FlipRate::Geometric { .. }
        ));
    }

    #[test]
    fn flip_gap_mean_matches_geometric() {
        let mut r = SimRng::new(2024);
        let ber = 0.01;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.next_flip_gap(ber).min(10_000)).sum();
        let mean = total as f64 / n as f64;
        // Geometric mean gap ≈ (1-p)/p ≈ 99.
        assert!((80.0..120.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn flip_gap_induces_correct_ber_over_stream() {
        let mut r = SimRng::new(7);
        let ber = 0.02;
        let bits: u64 = 500_000;
        let mut flips = 0u64;
        let mut pos = 0u64;
        loop {
            let gap = r.next_flip_gap(ber);
            if pos.saturating_add(gap) >= bits {
                break;
            }
            pos += gap + 1;
            flips += 1;
        }
        let measured = flips as f64 / bits as f64;
        assert!(
            (measured - ber).abs() < ber * 0.15,
            "measured BER {measured} vs {ber}"
        );
    }

    #[test]
    fn snap_roundtrip_preserves_position() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut a = SimRng::new(31);
        a.unit_f64();
        a.unit_f64();
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut b = SimRng::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.next_flip_gap(0.01), b.next_flip_gap(0.01));
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::new(1);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
