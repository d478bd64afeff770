//! Data whitening (scrambling) with the 7-bit LFSR x⁷ + x⁴ + 1.
//!
//! Header and payload bits are XORed with the LFSR output before FEC
//! encoding on transmit, and again after FEC decoding on receive
//! (Bluetooth spec v1.2, Baseband §7.2). The register is seeded from the
//! master clock bits CLK₆₋₁ with a 1 forced into the top position, so the
//! seed is never zero.
//!
//! The LFSR has maximal period 127, so its output is one fixed 127-bit
//! cycle entered at a seed-dependent position. The tables below hold that
//! cycle (doubled, so any 64-bit window is a contiguous read) plus the
//! position of every register state, letting [`Whitener::xor_into`] XOR the
//! stream in 64-bit words instead of clocking the register per bit.

use crate::BitVec;

/// Advances the Fibonacci LFSR for x⁷ + x⁴ + 1 by one bit: output is
/// bit 6, feedback is bit 6 ^ bit 3. This is the bit-serial reference
/// step; the word-parallel tables are built from it at compile time.
const fn lfsr_step(reg: u8) -> (u8, bool) {
    let out = (reg >> 6) & 1;
    let fb = out ^ ((reg >> 3) & 1);
    ((((reg << 1) | fb) & 0x7F), out == 1)
}

/// Length of the maximal-period output cycle.
const CYCLE: usize = 127;

/// (doubled 127-bit output cycle, state at each position, position of
/// each state). The cycle starts at state `0x40` (the seed of
/// `from_clk(0)`); positions of all 127 nonzero states are recorded.
const fn build_tables() -> ([u64; 4], [u8; CYCLE], [u8; 128]) {
    let mut doubled = [0u64; 4];
    let mut state_at = [0u8; CYCLE];
    let mut pos_of = [0u8; 128];
    let mut reg = 0x40u8;
    let mut i = 0;
    while i < CYCLE {
        state_at[i] = reg;
        pos_of[reg as usize] = i as u8;
        let (next, out) = lfsr_step(reg);
        if out {
            doubled[i / 64] |= 1u64 << (i % 64);
            let j = i + CYCLE;
            doubled[j / 64] |= 1u64 << (j % 64);
        }
        reg = next;
        i += 1;
    }
    (doubled, state_at, pos_of)
}

const TABLES: ([u64; 4], [u8; CYCLE], [u8; 128]) = build_tables();
/// The 127-bit output cycle stored twice back to back, so a 64-bit
/// window at any cycle position is two adjacent words.
const DOUBLED: [u64; 4] = TABLES.0;
/// Register state at each cycle position.
const STATE_AT: [u8; CYCLE] = TABLES.1;
/// Cycle position of each (nonzero) register state.
const POS_OF: [u8; 128] = TABLES.2;

/// 64 stream bits starting at cycle position `pos` (`pos < 127`),
/// LSB = the next bit produced.
fn stream_word(pos: usize) -> u64 {
    debug_assert!(pos < CYCLE);
    let w = pos / 64;
    let off = pos % 64;
    if off == 0 {
        DOUBLED[w]
    } else {
        (DOUBLED[w] >> off) | (DOUBLED[w + 1] << (64 - off))
    }
}

/// The whitening LFSR.
///
/// # Examples
///
/// ```
/// use btsim_coding::{BitVec, Whitener};
///
/// let data = BitVec::from_bytes_lsb(b"payload");
/// let mut bits = data.clone();
/// Whitener::from_clk(0x2A).xor_into(&mut bits); // whiten
/// assert_ne!(bits, data);
/// Whitener::from_clk(0x2A).xor_into(&mut bits); // and back
/// assert_eq!(bits, data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Whitener {
    reg: u8, // 7 bits, never zero
}

impl Whitener {
    /// Creates a whitener seeded from clock bits CLK₆₋₁.
    ///
    /// Only the low 6 bits of `clk6_1` are used; bit 6 of the register is
    /// forced to 1 per the spec, so the LFSR can never be stuck at zero.
    pub fn from_clk(clk6_1: u8) -> Self {
        Self {
            reg: 0x40 | (clk6_1 & 0x3F),
        }
    }

    /// Produces the next bit of the whitening sequence.
    pub fn next_bit(&mut self) -> bool {
        let (next, out) = lfsr_step(self.reg);
        self.reg = next;
        out
    }

    /// Produces the next `n <= 64` stream bits at once, LSB first.
    pub fn next_bits(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "cannot draw more than 64 stream bits at once");
        let pos = POS_OF[self.reg as usize] as usize;
        let w = stream_word(pos);
        self.reg = STATE_AT[(pos + n as usize) % CYCLE];
        if n == 64 {
            w
        } else {
            w & ((1u64 << n) - 1)
        }
    }

    /// XORs the next `out.len()` sequence bits into `out` in place,
    /// 64 bits per step, advancing the register past them.
    ///
    /// Whitening is an involution: applying it twice from the same seed
    /// restores the data. The baseband whitens the 18 header bits and
    /// the payload with one continuous stream, so a later call (or
    /// [`Whitener::next_bits`]) continues where this one stopped.
    pub fn xor_into(&mut self, out: &mut BitVec) {
        let len = out.len();
        let start = POS_OF[self.reg as usize] as usize;
        let mut pos = start;
        let full = len / 64;
        let tail = len % 64;
        let words = out.words_mut();
        for w in words.iter_mut().take(full) {
            *w ^= stream_word(pos);
            pos = (pos + 64) % CYCLE;
        }
        if tail != 0 {
            words[full] ^= stream_word(pos) & ((1u64 << tail) - 1);
        }
        self.reg = STATE_AT[(start + len) % CYCLE];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bits` whitened from seed `clk`.
    fn whiten(clk: u8, bits: &BitVec) -> BitVec {
        let mut out = bits.clone();
        Whitener::from_clk(clk).xor_into(&mut out);
        out
    }

    /// Bit-serial reference: the pre-word-parallel implementation.
    fn apply_serial(w: &mut Whitener, bits: &BitVec) -> BitVec {
        BitVec::from_fn(bits.len(), |i| bits.get(i).unwrap() ^ w.next_bit())
    }

    #[test]
    fn involution_for_all_seeds() {
        let data = BitVec::from_bytes_lsb(b"all seeds must invert");
        for clk in 0..64u8 {
            let w = whiten(clk, &data);
            let back = whiten(clk, &w);
            assert_eq!(back, data, "seed {clk}");
        }
    }

    #[test]
    fn word_parallel_matches_bit_serial_reference() {
        for clk in 0..64u8 {
            for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 254, 300, 2744] {
                let data = BitVec::from_fn(len, |i| (i * 11 + clk as usize).is_multiple_of(3));
                let mut fast = Whitener::from_clk(clk);
                let mut slow = Whitener::from_clk(clk);
                let mut got = data.clone();
                fast.xor_into(&mut got);
                assert_eq!(got, apply_serial(&mut slow, &data), "clk {clk} len {len}");
                assert_eq!(fast, slow, "register desync: clk {clk} len {len}");
            }
        }
    }

    #[test]
    fn next_bits_matches_next_bit() {
        for clk in [0u8, 1, 31, 63] {
            for n in [0u32, 1, 7, 18, 63, 64] {
                let mut fast = Whitener::from_clk(clk);
                let mut slow = Whitener::from_clk(clk);
                let got = fast.next_bits(n);
                let mut want = 0u64;
                for i in 0..n {
                    if slow.next_bit() {
                        want |= 1 << i;
                    }
                }
                assert_eq!(got, want, "clk {clk} n {n}");
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn sequence_has_maximal_period_127() {
        let mut w = Whitener::from_clk(0b010101);
        let start = w.reg;
        let mut period = 0usize;
        loop {
            w.next_bit();
            period += 1;
            if w.reg == start {
                break;
            }
            assert!(period <= 127, "period exceeds maximal length");
        }
        assert_eq!(period, 127);
    }

    #[test]
    fn register_never_reaches_zero() {
        let mut w = Whitener::from_clk(0);
        for _ in 0..256 {
            assert_ne!(w.reg, 0);
            w.next_bit();
        }
    }

    #[test]
    fn position_tables_are_consistent() {
        for (pos, &state) in STATE_AT.iter().enumerate().take(CYCLE) {
            assert_ne!(state, 0);
            assert_eq!(POS_OF[state as usize] as usize, pos);
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let data = BitVec::zeros(64);
        let a = whiten(1, &data);
        let b = whiten(2, &data);
        assert_ne!(a, b);
    }

    #[test]
    fn xor_into_continues_the_stream() {
        let data = BitVec::from_bytes_lsb(b"header+payload stream");
        let whole = whiten(9, &data);
        let mut w = Whitener::from_clk(9);
        let mut head = data.slice(0, 18);
        let mut tail = data.slice(18, data.len() - 18);
        w.xor_into(&mut head);
        w.xor_into(&mut tail);
        head.extend_bits(&tail);
        assert_eq!(head, whole);
    }

    #[test]
    fn actually_scrambles() {
        let data = BitVec::zeros(128);
        let w = whiten(0b11011, &data);
        let ones = w.count_ones();
        assert!(
            (32..=96).contains(&ones),
            "whitened all-zero data should look balanced, got {ones} ones"
        );
    }
}
