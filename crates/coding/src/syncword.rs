//! Channel access codes and their 64-bit sync words.
//!
//! Every Bluetooth packet starts with an access code derived from a 24-bit
//! Lower Address Part (LAP): the device access code (DAC) of a paged
//! device, the channel access code (CAC) of a piconet master, or the
//! general/dedicated inquiry access codes (GIAC/DIAC). The 64-bit sync
//! word is a (64,30) expurgated BCH codeword, scrambled with a fixed PN
//! sequence so that even all-zero LAPs produce well-balanced words
//! (Bluetooth spec v1.2, Baseband §6.3.3).
//!
//! Bits are indexed in transmission order: parity first, then the LAP,
//! then the 6 appended Barker-extension bits.

use crate::BitVec;

/// The 64-bit scrambling PN sequence of the spec; `p0` is the most
/// significant bit of this constant.
pub const PN64: u64 = 0x8384_8D96_BBCC_54FC;

/// Generator polynomial of the (64,30) BCH code, degree 34.
pub const BCH_GEN: u64 = 0o260_534_236_651;

/// The general inquiry access code LAP shared by all Bluetooth devices.
pub const GIAC_LAP: u32 = 0x9E8B33;

/// First LAP reserved for dedicated inquiry access codes.
pub const DIAC_LAP_BASE: u32 = 0x9E8B00;

/// Default sliding-correlator threshold: a sync word is accepted when at
/// least this many of its 64 bits match (spec-suggested value 54, which
/// tolerates up to 10 channel errors).
pub const DEFAULT_SYNC_THRESHOLD: u8 = 54;

/// The PN sequence in transmission order: bit `i` is `p_i`, so XOR-ing
/// it scrambles a whole codeword at once.
const PN_WORD: u64 = PN64.reverse_bits();

/// `p34..p63`, aligned with the information bits `x0..x29` they
/// scramble before encoding.
const PN_INFO: u32 = (PN_WORD >> 34) as u32;

/// The BCH parity of `v` (degree < 64): `v(D) mod g(D)`, coefficient of
/// `D^i` at bit `i`, by long division.
const fn bch_remainder(mut v: u64) -> u64 {
    let mut k = 63;
    while k >= 34 {
        if v & (1 << k) != 0 {
            v ^= BCH_GEN << (k - 34);
        }
        k -= 1;
    }
    v
}

/// `BCH_PARITY[j][b]` is the parity of information byte `j` holding `b`,
/// i.e. `(b·D^(8j))·D^34 mod g(D)`. The remainder is linear over GF(2),
/// so the parity of a 30-bit information word is the XOR of its four
/// bytes' entries.
static BCH_PARITY: [[u64; 256]; 4] = {
    let mut t = [[0u64; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 0;
        while b < 256 {
            t[j][b] = bch_remainder((b as u64) << (34 + 8 * j));
            b += 1;
        }
        j += 1;
    }
    t
};

/// Computes the 64-bit sync word of `lap`.
///
/// The returned word has bit 0 (LSB) as the first transmitted bit.
/// Only the low 24 bits of `lap` are used.
///
/// The spec's construction — scramble the information bits with
/// `p34..p63`, append the (64,30) BCH parity, scramble the codeword
/// with `p0..p63` — costs two XORs with constant masks and four table
/// lookups.
///
/// # Examples
///
/// ```
/// use btsim_coding::syncword;
///
/// let giac = syncword::sync_word(syncword::GIAC_LAP);
/// let dac = syncword::sync_word(0x000001);
/// assert_ne!(giac, dac);
/// ```
pub fn sync_word(lap: u32) -> u64 {
    let lap = lap & 0x00FF_FFFF;
    // 30 information bits x0..x29: the LAP a0..a23 then the 6-bit
    // extension selected by a23 (0 -> 001101, 1 -> 110010, LSB first).
    let ext: u32 = if lap & 0x80_0000 == 0 {
        0b101100
    } else {
        0b010011
    };
    let info = (lap | (ext << 24)) ^ PN_INFO; // bit i = x_i, scrambled
                                              // Codeword c(D) = info(D)·D^34 + (info(D)·D^34 mod g(D)); the
                                              // coefficient of D^i lives at bit i, and bit 0 is transmitted first.
    let parity = BCH_PARITY[0][(info & 0xFF) as usize]
        ^ BCH_PARITY[1][((info >> 8) & 0xFF) as usize]
        ^ BCH_PARITY[2][((info >> 16) & 0xFF) as usize]
        ^ BCH_PARITY[3][(info >> 24) as usize];
    (((info as u64) << 34) | parity) ^ PN_WORD
}

/// Extracts the 34 parity bits of a sync word (the FHS "parity" field).
pub fn parity_bits(sync: u64) -> u64 {
    sync & 0x3_FFFF_FFFF
}

/// Builds the access code bit image for `lap`.
///
/// The 4-bit preamble alternates and starts opposite to the first sync
/// bit; when a header follows (`with_trailer`), a 4-bit alternating
/// trailer extends the word, giving 72 bits instead of 68.
pub fn access_code(lap: u32, with_trailer: bool) -> BitVec {
    let sync = sync_word(lap);
    let first = sync & 1 == 1;
    let last = (sync >> 63) & 1 == 1;
    let mut bits = BitVec::with_capacity(72);
    // Preamble 0101 or 1010 (transmission order), ending opposite of first.
    for i in 0..4 {
        bits.push(if i % 2 == 0 { !first } else { first });
    }
    bits.push_bits_lsb(sync, 64);
    if with_trailer {
        for i in 0..4 {
            bits.push(if i % 2 == 0 { !last } else { last });
        }
    }
    bits
}

/// Length in bits of an ID packet (preamble + sync word, no trailer).
pub const ID_PACKET_BITS: usize = 68;

/// Result of correlating a received window against an expected sync word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correlation {
    /// Number of matching bits out of 64.
    pub matches: u8,
    /// Whether the correlator fired (matches ≥ threshold).
    pub detected: bool,
}

/// Correlates 64 received bits (starting at `offset` in `bits`) against
/// the sync word of `lap`.
///
/// Bits missing past the end of `bits` count as mismatches, as does any
/// bit marked in `collision_mask` (a same-length mask of bits that were
/// driven by more than one transmitter; pass `None` when clean).
///
/// The comparison is one 64-bit XOR + popcount, not a per-bit scan.
pub fn correlate(
    bits: &BitVec,
    offset: usize,
    collision_mask: Option<&BitVec>,
    lap: u32,
    threshold: u8,
) -> Correlation {
    let sync = sync_word(lap);
    let avail = bits.len().saturating_sub(offset).min(64) as u32;
    let received = bits.bits_lsb(offset, 64);
    let collided = collision_mask.map_or(0, |m| m.bits_lsb(offset, 64));
    let window = if avail == 64 {
        !0u64
    } else {
        (1u64 << avail) - 1
    };
    let good = !(received ^ sync) & !collided & window;
    let matches = good.count_ones() as u8;
    Correlation {
        matches,
        detected: matches >= threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spec's bit-serial construction, PN bit by PN bit and one
    /// division step per information bit: the reference `sync_word`
    /// must equal.
    fn sync_word_bit_serial(lap: u32) -> u64 {
        let pn_bit = |i: usize| (PN64 >> (63 - i)) & 1 == 1;
        let lap = lap & 0x00FF_FFFF;
        let ext: u32 = if lap & 0x80_0000 == 0 {
            0b101100
        } else {
            0b010011
        };
        let mut info = lap | (ext << 24);
        for i in 0..30 {
            if pn_bit(34 + i) {
                info ^= 1 << i;
            }
        }
        let mut v = (info as u64) << 34;
        for k in (34..64).rev() {
            if v & (1 << k) != 0 {
                v ^= BCH_GEN << (k - 34);
            }
        }
        let mut sync = ((info as u64) << 34) | v;
        for i in 0..64 {
            if pn_bit(i) {
                sync ^= 1 << i;
            }
        }
        sync
    }

    #[test]
    fn sync_word_matches_the_bit_serial_construction() {
        // Edge LAPs (both extension patterns, every single-bit LAP),
        // then a fixed pseudo-random sample of the 2^24 LAP space.
        let edges = [
            0u32,
            0xFF_FFFF,
            0x7F_FFFF,
            0x80_0000,
            GIAC_LAP,
            DIAC_LAP_BASE,
        ];
        let singles = (0..32).map(|b| 1u32 << b);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let random = std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        });
        for lap in edges.into_iter().chain(singles).chain(random.take(20_000)) {
            assert_eq!(sync_word(lap), sync_word_bit_serial(lap), "lap {lap:#08X}");
        }
    }

    #[test]
    fn sync_word_is_deterministic_and_lap_dependent() {
        assert_eq!(sync_word(GIAC_LAP), sync_word(GIAC_LAP));
        assert_ne!(sync_word(0x000000), sync_word(0x000001));
        // Only the low 24 bits matter.
        assert_eq!(sync_word(0x12345678), sync_word(0x00345678));
    }

    #[test]
    fn distinct_laps_have_distance_at_least_14() {
        // dmin of the expurgated (64,30) BCH code is 14; scrambling with a
        // fixed PN preserves pairwise distance.
        let laps = [
            0x000000u32,
            0x000001,
            0x9E8B33,
            0x9E8B00,
            0xFFFFFF,
            0x123456,
            0x800000,
            0x7FFFFF,
        ];
        for (i, &a) in laps.iter().enumerate() {
            for &b in &laps[i + 1..] {
                let d = (sync_word(a) ^ sync_word(b)).count_ones();
                assert!(d >= 14, "distance {d} between {a:06X} and {b:06X}");
            }
        }
    }

    #[test]
    fn access_code_lengths() {
        assert_eq!(access_code(GIAC_LAP, false).len(), ID_PACKET_BITS);
        assert_eq!(access_code(GIAC_LAP, true).len(), 72);
    }

    #[test]
    fn preamble_alternates_and_ends_opposite_first_sync_bit() {
        for lap in [0x000000u32, 0x9E8B33, 0xFFFFFF, 0x2497AB] {
            let ac = access_code(lap, true);
            let sync_first = ac.get(4).unwrap();
            assert_eq!(ac.get(3).unwrap(), sync_first);
            assert_ne!(ac.get(2).unwrap(), ac.get(3).unwrap());
            assert_ne!(ac.get(0).unwrap(), ac.get(1).unwrap());
            // Trailer alternates starting opposite the last sync bit.
            let sync_last = ac.get(67).unwrap();
            assert_ne!(ac.get(68).unwrap(), sync_last);
        }
    }

    #[test]
    fn correlation_detects_clean_and_noisy_words() {
        let lap = 0x21043C;
        let ac = access_code(lap, false);
        let clean = correlate(&ac, 4, None, lap, DEFAULT_SYNC_THRESHOLD);
        assert_eq!(clean.matches, 64);
        assert!(clean.detected);

        // Up to 10 errors still detect at threshold 54.
        let mut noisy = ac.clone();
        for i in 0..10 {
            noisy.toggle(4 + i * 6);
        }
        let c = correlate(&noisy, 4, None, lap, DEFAULT_SYNC_THRESHOLD);
        assert_eq!(c.matches, 54);
        assert!(c.detected);

        // Eleven errors fall below the threshold.
        noisy.toggle(4 + 63);
        let c = correlate(&noisy, 4, None, lap, DEFAULT_SYNC_THRESHOLD);
        assert!(!c.detected);
    }

    #[test]
    fn correlation_rejects_foreign_lap() {
        let ac = access_code(0x111111, false);
        let c = correlate(&ac, 4, None, 0x222222, DEFAULT_SYNC_THRESHOLD);
        assert!(!c.detected, "foreign sync matched with {} bits", c.matches);
    }

    #[test]
    fn collision_mask_bits_count_as_errors() {
        let lap = 0x424242;
        let ac = access_code(lap, false);
        let mut mask = BitVec::zeros(ac.len());
        for i in 0..11 {
            mask.set(4 + i, true);
        }
        let c = correlate(&ac, 4, Some(&mask), lap, DEFAULT_SYNC_THRESHOLD);
        assert!(!c.detected);
        assert_eq!(c.matches, 53);
    }

    #[test]
    fn truncated_window_counts_missing_bits_as_mismatches() {
        let lap = 0x3A5F01;
        let ac = access_code(lap, false);
        let short = ac.slice(0, 40);
        let c = correlate(&short, 4, None, lap, DEFAULT_SYNC_THRESHOLD);
        assert!(!c.detected);
    }

    #[test]
    fn parity_field_is_34_bits() {
        let p = parity_bits(sync_word(GIAC_LAP));
        assert!(p <= 0x3_FFFF_FFFF);
    }

    #[test]
    fn sync_words_are_balanced() {
        // The PN scrambling should keep words roughly balanced even for
        // degenerate LAPs.
        for lap in [0x000000u32, 0xFFFFFF] {
            let ones = sync_word(lap).count_ones();
            assert!((16..=48).contains(&ones), "lap {lap:06X}: {ones} ones");
        }
    }
}
