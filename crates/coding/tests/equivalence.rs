//! Word-parallel ≡ bit-serial equivalence suite.
//!
//! The coding hot path (whitening, FEC 1/3, FEC 2/3, CRC-16, HEC, the
//! sync-word correlator and the word-level `BitVec` operations) was
//! rewritten to process 64-bit words and compile-time tables. This suite
//! retains the original bit-serial implementations as reference codecs
//! and proves the rewrites bit-exact over every length the baseband can
//! produce (1..=2880 air bits) and random clock seeds — the gate the
//! perf work rides on (see `docs/PERF.md`).

use btsim_coding::{crc, fec, hec, syncword, BitVec, Whitener};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Bit-serial reference codecs (the pre-rewrite implementations).
// ---------------------------------------------------------------------

/// Reference whitening: clock the x⁷+x⁴+1 LFSR one bit at a time.
struct RefWhitener {
    reg: u8,
}

impl RefWhitener {
    fn from_clk(clk6_1: u8) -> Self {
        Self {
            reg: 0x40 | (clk6_1 & 0x3F),
        }
    }

    fn next_bit(&mut self) -> bool {
        let out = (self.reg >> 6) & 1;
        let fb = out ^ ((self.reg >> 3) & 1);
        self.reg = ((self.reg << 1) | fb) & 0x7F;
        out == 1
    }

    fn apply(&mut self, bits: &BitVec) -> BitVec {
        BitVec::from_fn(bits.len(), |i| bits.get(i).unwrap() ^ self.next_bit())
    }
}

fn ref_fec13_encode(bits: &BitVec) -> BitVec {
    let mut out = BitVec::with_capacity(bits.len() * 3);
    for b in bits.iter() {
        out.push(b);
        out.push(b);
        out.push(b);
    }
    out
}

fn ref_fec13_decode(bits: &BitVec) -> (BitVec, usize) {
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

/// Generator of the (15,10) code, D⁵ term included.
const FEC23_GEN: u32 = 0b110101;

fn ref_fec23_parity(block: u16) -> u8 {
    let mut v = (block as u32) << 5;
    for k in (5..15).rev() {
        if v & (1 << k) != 0 {
            v ^= FEC23_GEN << (k - 5);
        }
    }
    (v & 0x1F) as u8
}

fn ref_fec23_encode(bits: &BitVec) -> BitVec {
    let mut out = BitVec::with_capacity(bits.len().div_ceil(10) * 15);
    let mut i = 0;
    while i < bits.len() {
        let mut block = 0u16;
        for k in 0..10 {
            if bits.get(i + k) == Some(true) {
                block |= 1 << (9 - k);
            }
        }
        let parity = ref_fec23_parity(block);
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

fn ref_error_position(syndrome: u8) -> Option<usize> {
    for k in 0..15usize {
        let mut v = 1u32 << (14 - k);
        for j in (5..15).rev() {
            if v & (1 << j) != 0 {
                v ^= FEC23_GEN << (j - 5);
            }
        }
        if (v & 0x1F) as u8 == syndrome {
            return Some(k);
        }
    }
    None
}

/// Reference FEC 2/3 decode; returns (data, corrected, failed).
fn ref_fec23_decode(bits: &BitVec) -> (BitVec, usize, usize) {
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
        let syndrome = ref_fec23_parity(block) ^ parity;
        if syndrome != 0 {
            match ref_error_position(syndrome) {
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
    (data, corrected, failed)
}

fn ref_crc16(uap: u8, bits: &BitVec) -> u16 {
    let mut reg = (uap as u16) << 8;
    for bit in bits.iter() {
        let fb = (reg >> 15) ^ (bit as u16);
        reg <<= 1;
        if fb & 1 == 1 {
            reg ^= 0x1021;
        }
    }
    reg
}

fn ref_hec(uap: u8, info: u16) -> u8 {
    let mut reg = uap;
    for i in 0..10 {
        let bit = ((info >> i) & 1) as u8;
        let fb = (reg >> 7) ^ bit;
        reg <<= 1;
        if fb & 1 == 1 {
            reg ^= 0b1010_0111;
        }
    }
    reg
}

fn ref_correlate(
    bits: &BitVec,
    offset: usize,
    mask: Option<&BitVec>,
    lap: u32,
    threshold: u8,
) -> (u8, bool) {
    let sync = syncword::sync_word(lap);
    let mut matches = 0u8;
    for i in 0..64 {
        let expected = (sync >> i) & 1 == 1;
        let collided = mask.and_then(|m| m.get(offset + i)).unwrap_or(false);
        if !collided && bits.get(offset + i) == Some(expected) {
            matches += 1;
        }
    }
    (matches, matches >= threshold)
}

// ---------------------------------------------------------------------
// Deterministic content generator (xorshift-style LCG).
// ---------------------------------------------------------------------

fn pattern(len: usize, seed: u64) -> BitVec {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    BitVec::from_fn(len, |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x & 1 == 1
    })
}

/// `bits` XORed with the next stretch of `w`'s whitening stream.
fn whiten(w: &mut Whitener, bits: &BitVec) -> BitVec {
    let mut out = bits.clone();
    w.xor_into(&mut out);
    out
}

fn fec13_encode(bits: &BitVec) -> BitVec {
    let mut out = BitVec::new();
    fec::fec13_encode_into(bits, &mut out);
    out
}

fn fec23_encode(bits: &BitVec) -> BitVec {
    let mut out = BitVec::new();
    fec::fec23_encode_into(bits, &mut out);
    out
}

/// `coded` embedded at bit `offset` of a longer image (junk before and
/// after), so a range decoder starts mid-word and stops short of the
/// end; and a non-empty output buffer, which the decoders append to.
fn embedded(coded: &BitVec, offset: usize) -> (BitVec, BitVec) {
    let mut host = pattern(offset, offset as u64 + 1);
    host.extend_bits(coded);
    host.extend_bits(&pattern(7, 99));
    (host, pattern(offset % 13, 5))
}

/// The table FEC 1/3 decoder run over `coded` at bit `offset` of a
/// longer image; returns only the bits it appended.
fn fec13_decode_at(coded: &BitVec, offset: usize) -> (BitVec, usize) {
    let (host, mut out) = embedded(coded, offset);
    let before = out.clone();
    let corrected = fec::fec13_decode(&host, offset..offset + coded.len(), &mut out);
    assert_eq!(
        out.slice(0, before.len()),
        before,
        "decoder rewrote its output prefix"
    );
    (out.slice(before.len(), out.len() - before.len()), corrected)
}

/// [`fec13_decode_at`] for the FEC 2/3 decoder: (data, corrected, failed).
fn fec23_decode_at(coded: &BitVec, offset: usize) -> (BitVec, usize, usize) {
    let (host, mut out) = embedded(coded, offset);
    let before = out.clone();
    let counts = fec::fec23_decode(&host, offset..offset + coded.len(), &mut out);
    assert_eq!(
        out.slice(0, before.len()),
        before,
        "decoder rewrote its output prefix"
    );
    let data = out.slice(before.len(), out.len() - before.len());
    (data, counts.corrected, counts.failed)
}

/// Every air-image length the baseband can produce: 1..=2880 bits
/// (a DH5 image is 2871 bits; 2880 adds margin to cover the FEC 2/3
/// padded grid).
const MAX_AIR_BITS: usize = 2880;

// ---------------------------------------------------------------------
// Exhaustive length sweeps.
// ---------------------------------------------------------------------

#[test]
fn whitening_equivalent_for_all_lengths() {
    for len in 1..=MAX_AIR_BITS {
        let clk = (len % 64) as u8;
        let data = pattern(len, len as u64);
        let mut fast = Whitener::from_clk(clk);
        let mut slow = RefWhitener::from_clk(clk);
        assert_eq!(whiten(&mut fast, &data), slow.apply(&data), "len {len}");
    }
}

#[test]
fn fec13_equivalent_for_all_lengths() {
    for len in 1..=MAX_AIR_BITS / 3 {
        let data = pattern(len, 31 + len as u64);
        let coded = fec13_encode(&data);
        assert_eq!(coded, ref_fec13_encode(&data), "encode len {len}");
        // Corrupt a deterministic sprinkle of bits before decoding.
        let mut dirty = coded.clone();
        for i in (0..dirty.len()).step_by(7) {
            dirty.toggle(i);
        }
        let (d_fast, c_fast) = fec13_decode_at(&dirty, len % 97);
        let (d_ref, c_ref) = ref_fec13_decode(&dirty);
        assert_eq!(d_fast, d_ref, "decode len {len}");
        assert_eq!(c_fast, c_ref, "corrected len {len}");
    }
}

#[test]
fn fec23_equivalent_for_all_lengths() {
    for len in 1..=MAX_AIR_BITS / 2 {
        let data = pattern(len, 47 + len as u64);
        let coded = fec23_encode(&data);
        assert_eq!(coded, ref_fec23_encode(&data), "encode len {len}");
        let mut dirty = coded.clone();
        for i in (0..dirty.len()).step_by(11) {
            dirty.toggle(i);
        }
        let fast = fec23_decode_at(&dirty, len % 97);
        assert_eq!(fast, ref_fec23_decode(&dirty), "decode len {len}");
    }
}

#[test]
fn crc_equivalent_for_all_lengths() {
    for len in 1..=MAX_AIR_BITS {
        let data = pattern(len, 77 + len as u64);
        let uap = (len * 37) as u8;
        assert_eq!(
            crc::crc16_bits(uap, &data),
            ref_crc16(uap, &data),
            "len {len}"
        );
        assert_eq!(
            crc::crc16(uap, data.iter()),
            ref_crc16(uap, &data),
            "iterator form len {len}"
        );
    }
}

#[test]
fn hec_equivalent_exhaustively() {
    for uap in 0..=255u8 {
        for info in 0..1024u16 {
            assert_eq!(
                hec::hec(uap, info),
                ref_hec(uap, info),
                "{uap:#x}/{info:#x}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Randomized properties (content, seeds, masks, offsets).
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn whitening_equivalent_for_random_seeds_and_content(
        clk in 0u8..64,
        len in 1usize..=MAX_AIR_BITS,
        seed: u64,
    ) {
        let data = pattern(len, seed);
        let mut fast = Whitener::from_clk(clk);
        let mut slow = RefWhitener::from_clk(clk);
        // Split like the baseband: 18 header bits, then the payload,
        // whitened with one continuous stream.
        let head = len.min(18);
        let mut got = whiten(&mut fast, &data.slice(0, head));
        got.extend_bits(&whiten(&mut fast, &data.slice(head, len - head)));
        let mut want = slow.apply(&data.slice(0, head));
        want.extend_bits(&slow.apply(&data.slice(head, len - head)));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fec_equivalent_for_random_content(
        len in 1usize..=960,
        seed: u64,
        offset in 0usize..200,
    ) {
        let data = pattern(len, seed);
        prop_assert_eq!(fec13_encode(&data), ref_fec13_encode(&data));
        prop_assert_eq!(fec23_encode(&data), ref_fec23_encode(&data));
        // Decode a randomly corrupted stream at a random offset.
        let mut coded13 = fec13_encode(&data);
        let mut coded23 = fec23_encode(&data);
        let mut x = seed | 1;
        for _ in 0..8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            coded13.toggle((x >> 33) as usize % coded13.len());
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            coded23.toggle((x >> 33) as usize % coded23.len());
        }
        prop_assert_eq!(fec13_decode_at(&coded13, offset), ref_fec13_decode(&coded13));
        prop_assert_eq!(fec23_decode_at(&coded23, offset), ref_fec23_decode(&coded23));
    }

    #[test]
    fn crc_check_equivalent_for_random_content(
        len in 0usize..=2728,
        seed: u64,
        uap: u8,
    ) {
        let mut framed = pattern(len, seed);
        let rx_crc = ref_crc16(uap, &framed);
        crc::append_crc(uap, &mut framed);
        prop_assert_eq!(framed.bits_lsb(len, 16) as u16, rx_crc);
        prop_assert!(crc::check_framed(uap, &framed, len + 16));
        let mut corrupt = framed.clone();
        corrupt.toggle((seed as usize) % corrupt.len());
        prop_assert!(!crc::check_framed(uap, &corrupt, len + 16));
    }

    #[test]
    fn correlate_equivalent_with_masks_and_truncation(
        lap in 0u32..0x100_0000,
        cut in 0usize..=72,
        mask_seed: u64,
        threshold in 0u8..=64,
    ) {
        let ac = syncword::access_code(lap, false);
        let bits = ac.slice(0, ac.len() - cut.min(ac.len() - 4));
        let mask = if mask_seed.is_multiple_of(3) {
            None
        } else {
            Some(pattern(bits.len(), mask_seed))
        };
        let got = syncword::correlate(&bits, 4, mask.as_ref(), lap, threshold);
        let (matches, detected) = ref_correlate(&bits, 4, mask.as_ref(), lap, threshold);
        prop_assert_eq!(got.matches, matches);
        prop_assert_eq!(got.detected, detected);
    }

    #[test]
    fn bitvec_word_ops_match_naive(
        len in 1usize..=512,
        start_frac in 0usize..100,
        seed: u64,
    ) {
        let v = pattern(len, seed);
        // slice ≡ from_fn over get.
        let start = start_frac * len / 100;
        let slen = len - start;
        let naive = BitVec::from_fn(slen, |i| v.get(start + i).unwrap());
        prop_assert_eq!(v.slice(start, slen), naive);
        // extend_bits ≡ pushing every bit.
        let mut a = v.clone();
        a.extend_bits(&v);
        let mut b = v.clone();
        for bit in v.iter() {
            b.push(bit);
        }
        prop_assert_eq!(a, b);
        // fill_range ≡ per-bit set; ones ≡ fill_range over everything.
        let lo = start.min(len - 1);
        let hi = len - (len - lo) / 3;
        let mut f = v.clone();
        f.fill_range(lo, hi);
        let mut g = v.clone();
        for i in lo..hi {
            g.set(i, true);
        }
        prop_assert_eq!(&f, &g);
        let mut all = v.clone();
        all.fill_range(0, len);
        prop_assert_eq!(all.count_ones(), len);
        prop_assert_eq!(all, BitVec::ones(len));
        // xor_words ≡ xor_in_place with an equal-length vector.
        let w = pattern(len, seed ^ 0xDEAD_BEEF);
        let mut x1 = v.clone();
        x1.xor_in_place(&w);
        let mut x2 = v.clone();
        let mut words = Vec::new();
        let mut i = 0;
        while i < len {
            let n = (len - i).min(64) as u32;
            words.push(w.bits_lsb(i, n));
            i += n as usize;
        }
        x2.xor_words(&words);
        prop_assert_eq!(x1, x2);
        // bits_lsb ≡ per-bit read at arbitrary offsets.
        let off = start;
        let n = (len - off).min(64) as u32;
        let mut want = 0u64;
        for i in 0..n as usize {
            if v.get(off + i) == Some(true) {
                want |= 1u64 << i;
            }
        }
        prop_assert_eq!(v.bits_lsb(off, n), want);
    }
}
