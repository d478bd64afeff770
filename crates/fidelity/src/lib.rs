//! Fidelity tiers and the analytic packet-error model.
//!
//! The bit-level pipeline encodes, whitens, FEC-protects and correlates
//! every packet even when the link is clean and settled, yet on such a
//! link the *outcome* of a reception is statistically determined by the
//! channel BER alone. This crate derives closed-form
//! per-section failure probabilities from the same table-driven codecs
//! in `btsim-coding` that the bit pipeline uses:
//!
//! - **sync-word miss** — the correlator compares 64 received sync bits
//!   against the expected word and fires when at least `threshold` match,
//!   so a miss is the exact binomial tail
//!   `P(flips > 64 - threshold)` over 64 independent bits;
//! - **header (HEC) failure** — the 18 header bits travel under FEC 1/3
//!   (bit-tripling + majority vote), so a decoded header bit is wrong
//!   with `p3 = p^3 + 3 p^2 (1-p)`, and the HEC rejects the header when
//!   any decoded bit is wrong: `1 - (1-p3)^18` (the ~2^-8 chance of a
//!   coincidental HEC match on a corrupt header is neglected);
//! - **payload (CRC) failure** — for FEC 2/3 payloads the per-block data
//!   survival is computed *exactly* from a checked-in table that counts,
//!   per pattern weight, the error patterns whose decoded data prefix
//!   is intact (this includes miscorrections that happen to leave the
//!   data bits unchanged, and partial final blocks); a unit test
//!   rebuilds the table by running all 2^15 error patterns through the
//!   real `(15,10)` decoder and pins it. Uncoded payloads fail when
//!   any framed bit flips, `1 - (1-p)^framed` (the 2^-16 undetected-CRC
//!   probability is neglected). Whitening is a bijection on bit
//!   positions and does not change any of these probabilities.
//!
//! The statistical receive path draws a single uniform variate per
//! transmitted packet and classifies it into the four-way
//! [`Outcome`] with cumulative thresholds — see
//! [`PacketProfile::draw`] for the pinned draw contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btsim_kernel::SimRng;

/// Simulation fidelity tier selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Always simulate the PHY bit by bit (the reference tier).
    #[default]
    Bit,
    /// Promote eligible links to the statistical tier as soon as the
    /// stability conditions hold, without waiting for channel history.
    Stat,
    /// Like [`Fidelity::Stat`], but additionally require a converged
    /// channel-quality estimate before the first promotion.
    Auto,
}

impl Fidelity {
    /// Parses a `--fidelity` CLI value. Unknown names return `None`.
    pub fn from_name(name: &str) -> Option<Fidelity> {
        match name {
            "bit" => Some(Fidelity::Bit),
            "stat" => Some(Fidelity::Stat),
            "auto" => Some(Fidelity::Auto),
            _ => None,
        }
    }

    /// The CLI name of this tier.
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Bit => "bit",
            Fidelity::Stat => "stat",
            Fidelity::Auto => "auto",
        }
    }
}

btsim_kernel::snap_enum! {
    Fidelity {
        0 => Bit,
        1 => Stat,
        2 => Auto,
    } else "fidelity tier tag out of range"
}

/// The four-way outcome of a statistical packet reception, ordered by
/// how far the receiver got before failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The sync correlator never fired; the receiver saw nothing.
    SyncMiss,
    /// Sync detected but the FEC-1/3-decoded header failed its HEC.
    HecFail,
    /// Header accepted but the payload failed its CRC (or, for
    /// FEC 2/3, an uncorrectable block corrupted the framed bits).
    CrcFail,
    /// The packet decoded cleanly.
    Clean,
}

impl Outcome {
    /// Whether the receiver extracted a usable packet.
    pub fn is_clean(self) -> bool {
        self == Outcome::Clean
    }
}

/// Payload coding of a packet, as needed by the error model.
///
/// `framed_bits` counts everything inside the FEC/CRC envelope: the
/// payload header, the user bytes and the 16-bit CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadCoding {
    /// No payload section at all (NULL / POLL).
    None,
    /// Payload transmitted uncoded (DH types).
    Uncoded {
        /// Framed payload length in bits.
        framed_bits: usize,
    },
    /// Payload under (15,10) shortened-Hamming FEC 2/3 (DM types).
    Fec23 {
        /// Framed payload length in bits (before FEC expansion).
        framed_bits: usize,
    },
}

/// Number of sync bits the correlator compares.
const SYNC_BITS: u32 = 64;
/// Number of header bits protected by FEC 1/3 and checked by the HEC.
const HEADER_BITS: i32 = 18;

/// `FEC23_OK[k][w]`: number of 15-bit error patterns of weight `w`
/// whose decoded data leaves the first `k` data bits intact, for the
/// real (15,10) decoder. The code is linear, so decoding each error
/// pattern against the all-zero codeword is fully general; the counts
/// come from running all 2^15 patterns through
/// [`fec23_decode`](btsim_coding::fec::fec23_decode), and the unit
/// test `fec23_ok_counts_match_the_decoder` pins them to it.
#[rustfmt::skip]
const FEC23_OK: [[u16; 16]; 11] = [
    [1, 15, 105, 455, 1365, 3003, 5005, 6435, 6435, 5005, 3003, 1365, 455, 105, 15, 1],
    [1, 15, 91, 336, 1001, 1967, 3003, 3368, 3003, 2093, 1001, 392, 91, 21, 1, 0],
    [1, 15, 78, 242, 715, 1253, 1716, 1676, 1287, 809, 286, 98, 13, 3, 0, 0],
    [1, 15, 66, 169, 495, 774, 924, 786, 495, 283, 66, 21, 1, 0, 0, 0],
    [1, 15, 55, 113, 330, 462, 462, 346, 165, 83, 11, 5, 0, 0, 0, 0],
    [1, 15, 45, 73, 210, 263, 210, 139, 45, 22, 1, 0, 0, 0, 0, 0],
    [1, 15, 36, 46, 126, 142, 84, 46, 9, 7, 0, 0, 0, 0, 0, 0],
    [1, 15, 28, 24, 70, 71, 28, 18, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 15, 21, 11, 35, 29, 7, 9, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 15, 15, 6, 15, 11, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 15, 10, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
];

/// Closed-form per-section error probabilities for one channel BER.
///
/// Constructed once per simulation from the configured BER and sync
/// threshold; [`ErrorModel::profile`] then yields per-packet
/// classification thresholds in O(1).
#[derive(Debug, Clone)]
pub struct ErrorModel {
    ber: f64,
    p_sync_miss: f64,
    p_header_fail: f64,
    /// `q_block[k]`: probability that the first `k` data bits of one
    /// FEC 2/3 block decode intact (`k = 10` for full blocks).
    q_block: [f64; 11],
}

impl ErrorModel {
    /// Builds the model for a channel flipping each air bit
    /// independently with probability `ber`, received through a sync
    /// correlator firing at `sync_threshold` of 64 matching bits.
    pub fn new(ber: f64, sync_threshold: u8) -> Self {
        let ber = ber.clamp(0.0, 1.0);
        let p_sync_miss =
            binomial_tail_gt(SYNC_BITS, SYNC_BITS as i32 - sync_threshold as i32, ber);
        // FEC 1/3 majority vote: a decoded bit is wrong when >= 2 of
        // its 3 copies flipped.
        let p3 = ber * ber * ber + 3.0 * ber * ber * (1.0 - ber);
        let p_header_fail = 1.0 - (1.0 - p3).powi(HEADER_BITS);
        let mut q_block = [1.0f64; 11];
        if ber > 0.0 {
            for (k, row) in FEC23_OK.iter().enumerate() {
                let mut q = 0.0;
                for (w, &count) in row.iter().enumerate() {
                    if count > 0 {
                        let count = f64::from(count);
                        q += count * ber.powi(w as i32) * (1.0 - ber).powi(15 - w as i32);
                    }
                }
                q_block[k] = q;
            }
        }
        Self {
            ber,
            p_sync_miss,
            p_header_fail,
            q_block,
        }
    }

    /// The channel bit-error rate the model was built for.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Probability that the 64-bit sync correlator does not fire.
    pub fn p_sync_miss(&self) -> f64 {
        self.p_sync_miss
    }

    /// Probability that the FEC-1/3-protected header fails its HEC,
    /// given sync was detected.
    pub fn p_header_fail(&self) -> f64 {
        self.p_header_fail
    }

    /// Probability that the payload section fails its integrity check,
    /// given the header was accepted.
    pub fn p_payload_fail(&self, coding: PayloadCoding) -> f64 {
        match coding {
            PayloadCoding::None => 0.0,
            PayloadCoding::Uncoded { framed_bits } => {
                1.0 - (1.0 - self.ber).powi(framed_bits as i32)
            }
            PayloadCoding::Fec23 { framed_bits } => {
                let full = framed_bits / 10;
                let rem = framed_bits % 10;
                let mut ok = self.q_block[10].powi(full as i32);
                if rem > 0 {
                    ok *= self.q_block[rem];
                }
                1.0 - ok
            }
        }
    }

    /// The cumulative classification thresholds for one packet shape.
    pub fn profile(&self, coding: PayloadCoding) -> PacketProfile {
        let p_s = self.p_sync_miss;
        let p_h = self.p_header_fail;
        let p_p = self.p_payload_fail(coding);
        let t_sync = p_s;
        let t_header = t_sync + (1.0 - p_s) * p_h;
        let t_payload = t_header + (1.0 - p_s) * (1.0 - p_h) * p_p;
        PacketProfile {
            t_sync,
            t_header,
            t_payload,
        }
    }
}

// The derived probabilities are written bit-exactly rather than
// re-derived, so a restored model classifies identically even across
// floating-point environment differences.
btsim_kernel::snap_struct! { ErrorModel { ber, p_sync_miss, p_header_fail, q_block } }

/// Cumulative outcome thresholds for one packet shape at one BER.
///
/// The unit interval is partitioned as
/// `[0, t_sync) -> SyncMiss`, `[t_sync, t_header) -> HecFail`,
/// `[t_header, t_payload) -> CrcFail`, `[t_payload, 1) -> Clean`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketProfile {
    t_sync: f64,
    t_header: f64,
    t_payload: f64,
}

impl PacketProfile {
    /// Classifies a uniform variate `u in [0, 1)` into an outcome.
    pub fn classify(&self, u: f64) -> Outcome {
        if u < self.t_sync {
            Outcome::SyncMiss
        } else if u < self.t_header {
            Outcome::HecFail
        } else if u < self.t_payload {
            Outcome::CrcFail
        } else {
            Outcome::Clean
        }
    }

    /// Draws the outcome of one transmitted packet.
    ///
    /// **Pinned draw contract:** exactly one [`SimRng::unit_f64`] is
    /// consumed per transmitted packet, unconditionally — even at
    /// BER 0, where the draw always classifies as [`Outcome::Clean`].
    /// The *receiver's* link-controller RNG makes the draw. Keeping the
    /// count fixed makes RNG fingerprints comparable across runs and
    /// keeps the statistical tier's draw schedule independent of the
    /// channel configuration.
    pub fn draw(&self, rng: &mut SimRng) -> Outcome {
        self.classify(rng.unit_f64())
    }

    /// Probability that [`PacketProfile::draw`] returns a clean packet.
    pub fn p_clean(&self) -> f64 {
        1.0 - self.t_payload
    }
}

/// `P(Binomial(n, p) > k)`, exactly, by iterating the pmf.
///
/// `k < 0` yields 1; `k >= n` yields 0.
fn binomial_tail_gt(n: u32, k: i32, p: f64) -> f64 {
    if p <= 0.0 {
        return if k < 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if (n as i64) > k as i64 { 1.0 } else { 0.0 };
    }
    if k < 0 {
        return 1.0;
    }
    if k as i64 >= n as i64 {
        return 0.0;
    }
    // pmf(0) = (1-p)^n, then pmf(j) = pmf(j-1) * (n-j+1)/j * p/(1-p).
    let mut pmf = (1.0 - p).powi(n as i32);
    let ratio = p / (1.0 - p);
    let mut head = pmf; // running sum of pmf(0..=j)
    for j in 1..=(k as u32) {
        pmf *= (n - j + 1) as f64 / j as f64 * ratio;
        head += pmf;
    }
    (1.0 - head).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btsim_coding::fec::{fec13_decode, fec13_encode_into, fec23_decode, fec23_encode_into};
    use btsim_coding::syncword::{access_code, correlate, DEFAULT_SYNC_THRESHOLD};
    use btsim_coding::BitVec;

    fn flip_bits(bits: &BitVec, ber: f64, rng: &mut SimRng) -> BitVec {
        BitVec::from_fn(bits.len(), |i| bits.get(i).unwrap() ^ rng.chance(ber))
    }

    #[test]
    fn fidelity_names_round_trip() {
        for f in [Fidelity::Bit, Fidelity::Stat, Fidelity::Auto] {
            assert_eq!(Fidelity::from_name(f.name()), Some(f));
        }
        assert_eq!(Fidelity::from_name("fast"), None);
        assert_eq!(Fidelity::from_name(""), None);
        assert_eq!(Fidelity::from_name("Bit"), None);
    }

    /// Pins [`FEC23_OK`] to the decoder: every 15-bit error pattern is
    /// decoded against the all-zero codeword and counted, per weight, for
    /// each data prefix it leaves intact.
    #[test]
    fn fec23_ok_counts_match_the_decoder() {
        let mut table = [[0u16; 16]; 11];
        let mut bits = BitVec::new();
        let mut decoded = BitVec::new();
        for pattern in 0u32..(1 << 15) {
            bits.clear();
            bits.push_bits_lsb(pattern as u64, 15);
            decoded.clear();
            fec23_decode(&bits, 0..15, &mut decoded);
            let w = pattern.count_ones() as usize;
            table[0][w] += 1; // k = 0: vacuously intact
            let mut intact = true;
            for (k, row) in table.iter_mut().enumerate().skip(1) {
                intact = intact && decoded.get(k - 1) != Some(true);
                if intact {
                    row[w] += 1;
                }
            }
        }
        assert_eq!(table, FEC23_OK);
    }

    #[test]
    fn zero_ber_is_always_clean() {
        let m = ErrorModel::new(0.0, DEFAULT_SYNC_THRESHOLD);
        assert_eq!(m.p_sync_miss(), 0.0);
        assert_eq!(m.p_header_fail(), 0.0);
        for coding in [
            PayloadCoding::None,
            PayloadCoding::Uncoded { framed_bits: 2744 },
            PayloadCoding::Fec23 { framed_bits: 160 },
        ] {
            assert_eq!(m.p_payload_fail(coding), 0.0);
            let mut rng = SimRng::new(1);
            assert_eq!(m.profile(coding).draw(&mut rng), Outcome::Clean);
        }
    }

    #[test]
    fn saturated_ber_always_misses_sync() {
        let m = ErrorModel::new(1.0, DEFAULT_SYNC_THRESHOLD);
        assert!((m.p_sync_miss() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn draw_consumes_exactly_one_variate_even_at_zero_ber() {
        let profile = ErrorModel::new(0.0, DEFAULT_SYNC_THRESHOLD)
            .profile(PayloadCoding::Fec23 { framed_bits: 160 });
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        profile.draw(&mut a);
        b.unit_f64();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn classify_respects_cumulative_thresholds() {
        let p = PacketProfile {
            t_sync: 0.1,
            t_header: 0.3,
            t_payload: 0.6,
        };
        assert_eq!(p.classify(0.0), Outcome::SyncMiss);
        assert_eq!(p.classify(0.0999), Outcome::SyncMiss);
        assert_eq!(p.classify(0.1), Outcome::HecFail);
        assert_eq!(p.classify(0.2999), Outcome::HecFail);
        assert_eq!(p.classify(0.3), Outcome::CrcFail);
        assert_eq!(p.classify(0.5999), Outcome::CrcFail);
        assert_eq!(p.classify(0.6), Outcome::Clean);
        assert_eq!(p.classify(0.9999), Outcome::Clean);
        assert!((p.p_clean() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_monotone_in_ber() {
        let coding = PayloadCoding::Fec23 { framed_bits: 160 };
        let mut last = (0.0, 0.0, 0.0);
        for ber in [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5] {
            let m = ErrorModel::new(ber, DEFAULT_SYNC_THRESHOLD);
            let now = (m.p_sync_miss(), m.p_header_fail(), m.p_payload_fail(coding));
            assert!(
                now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2,
                "{ber}"
            );
            last = now;
        }
    }

    /// Monte-Carlo cross-check of the sync-miss tail against the real
    /// correlator from `btsim-coding`.
    #[test]
    fn sync_miss_matches_correlator_monte_carlo() {
        let lap = 0x2A96EF;
        let code = access_code(lap, true);
        let ber = 0.08;
        let model = ErrorModel::new(ber, DEFAULT_SYNC_THRESHOLD);
        let mut rng = SimRng::new(0xF1DE);
        let trials = 20_000;
        let mut misses = 0usize;
        for _ in 0..trials {
            let dirty = flip_bits(&code, ber, &mut rng);
            if !correlate(&dirty, 4, None, lap, DEFAULT_SYNC_THRESHOLD).detected {
                misses += 1;
            }
        }
        let measured = misses as f64 / trials as f64;
        let sigma = (model.p_sync_miss() * (1.0 - model.p_sync_miss()) / trials as f64).sqrt();
        assert!(
            (measured - model.p_sync_miss()).abs() < 5.0 * sigma + 1e-4,
            "measured {measured} vs analytic {}",
            model.p_sync_miss()
        );
    }

    /// Monte-Carlo cross-check of the header failure probability against
    /// the real FEC 1/3 codec.
    #[test]
    fn header_fail_matches_fec13_monte_carlo() {
        let ber = 0.05;
        let model = ErrorModel::new(ber, DEFAULT_SYNC_THRESHOLD);
        let header = BitVec::from_fn(18, |i| i % 3 != 1);
        let mut coded = BitVec::new();
        fec13_encode_into(&header, &mut coded);
        let mut rng = SimRng::new(0x13EC);
        let trials = 20_000;
        let mut failures = 0usize;
        for _ in 0..trials {
            let dirty = flip_bits(&coded, ber, &mut rng);
            let mut decoded = BitVec::new();
            fec13_decode(&dirty, 0..dirty.len(), &mut decoded);
            if decoded != header {
                failures += 1;
            }
        }
        let measured = failures as f64 / trials as f64;
        let p = model.p_header_fail();
        let sigma = (p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (measured - p).abs() < 5.0 * sigma + 1e-4,
            "measured {measured} vs analytic {p}"
        );
    }

    /// Monte-Carlo cross-check of the FEC 2/3 payload survival against
    /// the real codec, including a partial final block.
    #[test]
    fn fec23_payload_matches_codec_monte_carlo() {
        for (framed, seed) in [(160usize, 0x23A_u64), (64, 0x23B)] {
            let ber = 0.03;
            let model = ErrorModel::new(ber, DEFAULT_SYNC_THRESHOLD);
            let data = BitVec::from_fn(framed, |i| (i * 5 + 1) % 3 == 0);
            let mut coded = BitVec::new();
            fec23_encode_into(&data, &mut coded);
            let mut rng = SimRng::new(seed);
            let trials = 20_000;
            let mut failures = 0usize;
            for _ in 0..trials {
                let dirty = flip_bits(&coded, ber, &mut rng);
                let mut decoded = BitVec::new();
                fec23_decode(&dirty, 0..dirty.len(), &mut decoded);
                if decoded.slice(0, framed) != data {
                    failures += 1;
                }
            }
            let measured = failures as f64 / trials as f64;
            let p = model.p_payload_fail(PayloadCoding::Fec23 {
                framed_bits: framed,
            });
            let sigma = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (measured - p).abs() < 5.0 * sigma + 1e-4,
                "framed {framed}: measured {measured} vs analytic {p}"
            );
        }
    }

    /// The uncoded payload formula is a plain binomial zero-flip term.
    #[test]
    fn uncoded_payload_is_any_flip_probability() {
        let model = ErrorModel::new(0.01, DEFAULT_SYNC_THRESHOLD);
        let p = model.p_payload_fail(PayloadCoding::Uncoded { framed_bits: 200 });
        assert!((p - (1.0 - 0.99f64.powi(200))).abs() < 1e-12);
    }

    #[test]
    fn binomial_tail_edges() {
        assert_eq!(binomial_tail_gt(64, -1, 0.5), 1.0);
        assert_eq!(binomial_tail_gt(64, 64, 0.5), 0.0);
        assert_eq!(binomial_tail_gt(64, 10, 0.0), 0.0);
        assert_eq!(binomial_tail_gt(64, 10, 1.0), 1.0);
        // P(X > 31) + P(X <= 31) for a symmetric binomial: the tail at
        // the median of an even n splits around 0.5.
        let t = binomial_tail_gt(64, 31, 0.5);
        assert!((0.4..0.6).contains(&t), "{t}");
    }
}
