//! Forward error correction: the 1/3 repetition code and the 2/3
//! shortened-Hamming (15,10) code (Bluetooth spec v1.2, Baseband §7.4/§7.5).
//!
//! * **FEC 1/3** repeats every bit three times and majority-decodes;
//!   it protects the 18-bit packet header.
//! * **FEC 2/3** appends 5 parity bits to every 10 data bits using the
//!   generator g(D) = (D + 1)(D⁴ + D + 1) = D⁵ + D⁴ + D² + 1. The code
//!   corrects one error and detects two per 15-bit codeword; it protects
//!   DM and FHS payloads.
//!
//! Both codes run table-driven: encode triples 8 input bits to 24 coded
//! bits per lookup ([`trip_bits`]), decode majority-votes 4 triples per
//! lookup, and the (15,10) code keeps one parity lookup per block plus a
//! 32-entry syndrome → error-position table. Every table is built at
//! compile time from the bit-serial definitions, and the unit tests pin
//! the tables to those definitions.

use std::ops::Range;

use crate::BitVec;

/// Generator polynomial of the (15,10) code, including the D⁵ term.
const FEC23_GEN: u16 = 0b110101;

/// `TRIP[b]`: the 8 bits of `b` each repeated three times, LSB first —
/// input bit j occupies output bits 3j, 3j+1, 3j+2.
const fn build_trip() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut out = 0u32;
        let mut j = 0;
        while j < 8 {
            if b & (1 << j) != 0 {
                out |= 0b111 << (3 * j);
            }
            j += 1;
        }
        t[b] = out;
        b += 1;
    }
    t
}

const TRIP: [u32; 256] = build_trip();

/// `VOTE[chunk]`: majority vote of 4 received triples (12 coded bits,
/// LSB first) packed as (decoded nibble, triples needing correction).
/// An absent (zero-padded) triple votes 0 with no correction, so partial
/// chunks decode through the same table.
const fn build_vote() -> ([u8; 4096], [u8; 4096]) {
    let mut data = [0u8; 4096];
    let mut corr = [0u8; 4096];
    let mut c = 0usize;
    while c < 4096 {
        let mut d = 0u8;
        let mut k = 0u8;
        let mut t = 0;
        while t < 4 {
            let triple = ((c >> (3 * t)) & 0b111) as u32;
            let votes = triple.count_ones();
            if votes >= 2 {
                d |= 1 << t;
            }
            if votes == 1 || votes == 2 {
                k += 1;
            }
            t += 1;
        }
        data[c] = d;
        corr[c] = k;
        c += 1;
    }
    (data, corr)
}

const VOTE: ([u8; 4096], [u8; 4096]) = build_vote();

/// Repeats the `n <= 21` low bits of `value` three times each, LSB
/// first: input bit j lands on output bits 3j..3j+3.
pub fn trip_bits(value: u64, n: u32) -> u64 {
    assert!(n <= 21, "tripling more than 21 bits overflows 64");
    let value = value & ((1u64 << n) - 1);
    let mut out = 0u64;
    let mut i = 0;
    while 8 * i < n {
        out |= (TRIP[(value >> (8 * i)) as usize & 0xFF] as u64) << (24 * i);
        i += 1;
    }
    out
}

/// Appends the 1/3-repetition encoding of `bits` (each bit sent three
/// times) to `out`, 8 input bits per table step.
pub fn fec13_encode_into(bits: &BitVec, out: &mut BitVec) {
    let mut i = 0;
    while i < bits.len() {
        let n = (bits.len() - i).min(8) as u32;
        out.push_bits_lsb(TRIP[bits.bits_lsb(i, n) as usize] as u64, 3 * n);
        i += n as usize;
    }
}

/// Majority-decodes the 1/3-repetition stream `bits[range]`, appending
/// the decoded bits to `out`; returns how many triples needed
/// correction.
///
/// # Panics
///
/// Panics if the range exceeds `bits` or its length is not a multiple
/// of 3.
pub fn fec13_decode(bits: &BitVec, range: Range<usize>, out: &mut BitVec) -> usize {
    assert!(range.end <= bits.len(), "FEC 1/3 range out of bounds");
    assert_eq!(range.len() % 3, 0, "FEC 1/3 stream length must be 3n");
    let mut corrected = 0usize;
    let mut i = range.start;
    while i < range.end {
        let n = (range.end - i).min(12) as u32;
        let chunk = bits.bits_lsb(i, n) as usize;
        out.push_bits_lsb(VOTE.0[chunk] as u64, n / 3);
        corrected += VOTE.1[chunk] as usize;
        i += n as usize;
    }
    corrected
}

/// Computes the 5 parity bits of one 10-bit data block, all in *spec
/// order* (first transmitted bit = highest power of D, matching the
/// serial encoder circuit). Kept `const` so the transmission-order
/// tables below are derived from the spec definition at compile time.
const fn fec23_parity(block: u16) -> u8 {
    // value = data << 5, then polynomial modulo g(D).
    let mut v = (block as u32) << 5;
    let mut k = 14;
    while k >= 5 {
        if v & (1 << k) != 0 {
            v ^= (FEC23_GEN as u32) << (k - 5);
        }
        k -= 1;
    }
    (v & 0x1F) as u8
}

/// Reverses the `n` low bits of `x`.
const fn rev_bits(x: u16, n: u32) -> u16 {
    let mut out = 0u16;
    let mut i = 0;
    while i < n {
        if x & (1 << i) != 0 {
            out |= 1 << (n - 1 - i);
        }
        i += 1;
    }
    out
}

/// `PARITY_T[d]`: the 5 parity bits in transmission order (LSB first)
/// for the 10 data bits `d` in transmission order. The (15,10) code is
/// systematic, so a codeword on the air is `d | (PARITY_T[d] << 10)`.
const fn build_parity_t() -> [u8; 1024] {
    let mut t = [0u8; 1024];
    let mut d = 0usize;
    while d < 1024 {
        let spec = fec23_parity(rev_bits(d as u16, 10));
        t[d] = rev_bits(spec as u16, 5) as u8;
        d += 1;
    }
    t
}

const PARITY_T: [u8; 1024] = build_parity_t();

/// `SYN_POS[s]`: transmitted bit position (0..15) of the single error
/// producing syndrome `s` (transmission order), or `NO_POS` for
/// multi-error patterns. A single error at data position k has syndrome
/// `PARITY_T[1 << k]`; at parity position 10+k it is `1 << k`.
const NO_POS: u8 = 0xFF;

const fn build_syn_pos() -> [u8; 32] {
    let mut t = [NO_POS; 32];
    let mut k = 0usize;
    while k < 10 {
        t[PARITY_T[1usize << k] as usize] = k as u8;
        k += 1;
    }
    while k < 15 {
        t[1usize << (k - 10)] = k as u8;
        k += 1;
    }
    t
}

const SYN_POS: [u8; 32] = build_syn_pos();

/// Appends the 2/3 FEC encoding of `bits` to `out`, one parity lookup
/// per 10-bit block.
///
/// The input is zero-padded to a multiple of 10 bits, as the baseband does
/// for the final block; the receiver trims using the known payload length.
pub fn fec23_encode_into(bits: &BitVec, out: &mut BitVec) {
    let mut i = 0;
    while i < bits.len() {
        let d = bits.bits_lsb(i, 10); // zero-padded final block
        out.push_bits_lsb(d | ((PARITY_T[d as usize] as u64) << 10), 15);
        i += 10;
    }
}

/// Codeword counts of a 2/3 FEC decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fec23Decoded {
    /// Codewords whose single-bit error was corrected.
    pub corrected: usize,
    /// Codewords with an uncorrectable error pattern (≥ 2 errors detected).
    pub failed: usize,
}

/// Decodes the 2/3 FEC stream `bits[range]`, correcting one error per
/// 15-bit codeword and appending the 10 data bits of each codeword to
/// `out`.
///
/// Uncorrectable codewords are passed through uncorrected and counted in
/// [`Fec23Decoded::failed`]; the payload CRC is expected to catch them.
///
/// # Panics
///
/// Panics if the range exceeds `bits` or its length is not a multiple
/// of 15.
pub fn fec23_decode(bits: &BitVec, range: Range<usize>, out: &mut BitVec) -> Fec23Decoded {
    assert!(range.end <= bits.len(), "FEC 2/3 range out of bounds");
    assert_eq!(range.len() % 15, 0, "FEC 2/3 stream length must be 15n");
    let mut corrected = 0;
    let mut failed = 0;
    let mut i = range.start;
    while i < range.end {
        let cw = bits.bits_lsb(i, 15);
        let mut d = (cw & 0x3FF) as u16;
        let syndrome = PARITY_T[d as usize] ^ (cw >> 10) as u8;
        if syndrome != 0 {
            match SYN_POS[syndrome as usize] {
                pos if pos < 10 => {
                    d ^= 1 << pos;
                    corrected += 1;
                }
                pos if pos != NO_POS => {
                    // Error in a parity bit: data is already correct.
                    corrected += 1;
                }
                _ => failed += 1,
            }
        }
        out.push_bits_lsb(d as u64, 10);
        i += 15;
    }
    Fec23Decoded { corrected, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bits(len: usize) -> BitVec {
        BitVec::from_fn(len, |i| (i * 7 + 3) % 5 < 2)
    }

    fn fec13_encode(bits: &BitVec) -> BitVec {
        let mut out = BitVec::new();
        fec13_encode_into(bits, &mut out);
        out
    }

    fn fec23_encode(bits: &BitVec) -> BitVec {
        let mut out = BitVec::new();
        fec23_encode_into(bits, &mut out);
        out
    }

    /// The whole of `bits` 1/3-decoded into a fresh vector.
    fn dec13(bits: &BitVec) -> (BitVec, usize) {
        let mut out = BitVec::new();
        let corrected = fec13_decode(bits, 0..bits.len(), &mut out);
        (out, corrected)
    }

    /// The whole of `bits` 2/3-decoded into a fresh vector.
    fn dec23(bits: &BitVec) -> (BitVec, Fec23Decoded) {
        let mut out = BitVec::new();
        let counts = fec23_decode(bits, 0..bits.len(), &mut out);
        (out, counts)
    }

    /// Bit-serial reference encoders/decoders: the pre-table
    /// implementations, retained to pin the tables to the definitions.
    mod reference {
        use super::super::{fec23_parity, FEC23_GEN};
        use crate::BitVec;

        pub fn fec13_encode(bits: &BitVec) -> BitVec {
            let mut out = BitVec::with_capacity(bits.len() * 3);
            for b in bits.iter() {
                out.push(b);
                out.push(b);
                out.push(b);
            }
            out
        }

        pub fn fec13_decode(bits: &BitVec) -> (BitVec, usize) {
            assert_eq!(bits.len() % 3, 0);
            let mut out = BitVec::with_capacity(bits.len() / 3);
            let mut corrected = 0;
            for i in (0..bits.len()).step_by(3) {
                let votes = bits.get(i).unwrap() as u8
                    + bits.get(i + 1).unwrap() as u8
                    + bits.get(i + 2).unwrap() as u8;
                out.push(votes >= 2);
                if votes == 1 || votes == 2 {
                    corrected += 1;
                }
            }
            (out, corrected)
        }

        pub fn fec23_encode(bits: &BitVec) -> BitVec {
            let mut out = BitVec::with_capacity(bits.len().div_ceil(10) * 15);
            let mut i = 0;
            while i < bits.len() {
                let mut block = 0u16;
                for k in 0..10 {
                    if bits.get(i + k) == Some(true) {
                        block |= 1 << (9 - k);
                    }
                }
                let parity = fec23_parity(block);
                for k in 0..10 {
                    out.push(block & (1 << (9 - k)) != 0);
                }
                for k in 0..5 {
                    out.push(parity & (1 << (4 - k)) != 0);
                }
                i += 10;
            }
            out
        }

        pub fn error_position(syndrome: u8) -> Option<usize> {
            for k in 0..15usize {
                let mut v = 1u32 << (14 - k);
                for j in (5..15).rev() {
                    if v & (1 << j) != 0 {
                        v ^= (FEC23_GEN as u32) << (j - 5);
                    }
                }
                if (v & 0x1F) as u8 == syndrome {
                    return Some(k);
                }
            }
            None
        }

        pub fn fec23_decode(bits: &BitVec) -> (BitVec, super::super::Fec23Decoded) {
            assert_eq!(bits.len() % 15, 0);
            let mut data = BitVec::with_capacity(bits.len() / 15 * 10);
            let mut corrected = 0;
            let mut failed = 0;
            for i in (0..bits.len()).step_by(15) {
                let mut block = 0u16;
                let mut parity = 0u8;
                for k in 0..10 {
                    if bits.get(i + k).unwrap() {
                        block |= 1 << (9 - k);
                    }
                }
                for k in 0..5 {
                    if bits.get(i + 10 + k).unwrap() {
                        parity |= 1 << (4 - k);
                    }
                }
                let syndrome = fec23_parity(block) ^ parity;
                if syndrome != 0 {
                    match error_position(syndrome) {
                        Some(pos) if pos < 10 => {
                            block ^= 1 << (9 - pos);
                            corrected += 1;
                        }
                        Some(_) => corrected += 1,
                        None => failed += 1,
                    }
                }
                for k in 0..10 {
                    data.push(block & (1 << (9 - k)) != 0);
                }
            }
            (data, super::super::Fec23Decoded { corrected, failed })
        }
    }

    #[test]
    fn tables_match_bit_serial_reference() {
        for len in [1usize, 2, 3, 9, 10, 13, 17, 18, 30, 100, 160, 333, 2744] {
            let data = BitVec::from_fn(len, |i| (i * 13 + len) % 7 < 3);
            assert_eq!(fec13_encode(&data), reference::fec13_encode(&data), "{len}");
            assert_eq!(fec23_encode(&data), reference::fec23_encode(&data), "{len}");
            let coded13 = fec13_encode(&data);
            assert_eq!(dec13(&coded13), reference::fec13_decode(&coded13));
            // Corrupt a couple of bits so the decode paths diverge from
            // the trivial all-clean case.
            let mut dirty13 = coded13.clone();
            dirty13.toggle(0);
            dirty13.toggle(coded13.len() / 2);
            assert_eq!(dec13(&dirty13), reference::fec13_decode(&dirty13));
            let coded23 = fec23_encode(&data);
            assert_eq!(dec23(&coded23), reference::fec23_decode(&coded23));
            let mut dirty23 = coded23.clone();
            dirty23.toggle(1);
            dirty23.toggle(coded23.len() - 2);
            assert_eq!(dec23(&dirty23), reference::fec23_decode(&dirty23));
        }
    }

    #[test]
    fn trip_bits_matches_table() {
        for n in 0..=21u32 {
            let v = 0x15_5555u64 & ((1 << n) - 1);
            let mut want = 0u64;
            for j in 0..n as usize {
                if v & (1 << j) != 0 {
                    want |= 0b111 << (3 * j);
                }
            }
            assert_eq!(trip_bits(v, n), want, "n {n}");
        }
    }

    #[test]
    fn fec13_roundtrip_clean() {
        let data = sample_bits(18);
        let coded = fec13_encode(&data);
        assert_eq!(coded.len(), 54);
        let (decoded, corrected) = dec13(&coded);
        assert_eq!(decoded, data);
        assert_eq!(corrected, 0);
    }

    #[test]
    fn fec13_corrects_one_error_per_triple() {
        let data = sample_bits(18);
        let coded = fec13_encode(&data);
        for i in 0..coded.len() {
            let mut corrupt = coded.clone();
            corrupt.toggle(i);
            let (decoded, corrected) = dec13(&corrupt);
            assert_eq!(decoded, data, "flip at {i}");
            assert_eq!(corrected, 1);
        }
    }

    #[test]
    fn fec13_two_errors_in_one_triple_corrupt_that_bit_only() {
        let data = sample_bits(6);
        let coded = fec13_encode(&data);
        let mut corrupt = coded.clone();
        corrupt.toggle(3);
        corrupt.toggle(4);
        let (decoded, _) = dec13(&corrupt);
        assert_eq!(decoded.get(0), data.get(0));
        assert_ne!(decoded.get(1), data.get(1));
    }

    #[test]
    fn fec23_roundtrip_clean() {
        for len in [10usize, 20, 30, 160] {
            let data = sample_bits(len);
            let coded = fec23_encode(&data);
            assert_eq!(coded.len(), len / 10 * 15);
            let (got, out) = dec23(&coded);
            assert_eq!(got, data);
            assert_eq!(out.corrected, 0);
            assert_eq!(out.failed, 0);
        }
    }

    #[test]
    fn fec23_pads_partial_blocks() {
        let data = sample_bits(13);
        let coded = fec23_encode(&data);
        assert_eq!(coded.len(), 30);
        let (got, _) = dec23(&coded);
        assert_eq!(got.slice(0, 13), data);
    }

    #[test]
    fn fec23_corrects_every_single_bit_error() {
        let data = sample_bits(30);
        let coded = fec23_encode(&data);
        for i in 0..coded.len() {
            let mut corrupt = coded.clone();
            corrupt.toggle(i);
            let (got, out) = dec23(&corrupt);
            assert_eq!(got, data, "flip at {i}");
            assert_eq!(out.corrected, 1, "flip at {i}");
            assert_eq!(out.failed, 0, "flip at {i}");
        }
    }

    #[test]
    fn fec23_flags_or_miscorrects_double_errors_without_panicking() {
        // dmin = 4: any 2-bit error is detected (failed) or, at worst for a
        // shortened code, corrected into a wrong codeword caught by CRC.
        let data = sample_bits(10);
        let coded = fec23_encode(&data);
        let mut detected = 0;
        let mut total = 0;
        for i in 0..15 {
            for j in (i + 1)..15 {
                let mut corrupt = coded.clone();
                corrupt.toggle(i);
                corrupt.toggle(j);
                let (got, out) = dec23(&corrupt);
                total += 1;
                if out.failed == 1 {
                    detected += 1;
                } else {
                    // Miscorrection must not silently return the original.
                    assert_ne!(got, data, "flips at {i},{j}");
                }
            }
        }
        assert!(
            detected * 2 >= total,
            "most double errors should be flagged"
        );
    }

    #[test]
    fn syndrome_table_is_injective() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..15 {
            let mut corrupt = fec23_encode(&BitVec::zeros(10));
            corrupt.toggle(k);
            let mut block = 0u16;
            let mut parity = 0u8;
            for b in 0..10 {
                if corrupt.get(b).unwrap() {
                    block |= 1 << (9 - b);
                }
            }
            for b in 0..5 {
                if corrupt.get(10 + b).unwrap() {
                    parity |= 1 << (4 - b);
                }
            }
            let syndrome = fec23_parity(block) ^ parity;
            assert!(seen.insert(syndrome), "duplicate syndrome for {k}");
            assert_eq!(reference::error_position(syndrome), Some(k));
            // The transmission-order syndrome table agrees.
            let syn_t = rev_bits(syndrome as u16, 5) as usize;
            assert_eq!(SYN_POS[syn_t], k as u8);
        }
    }
}
