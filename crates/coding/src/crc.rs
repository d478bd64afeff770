//! CRC-16 for payload integrity, as used by DM/DH/FHS payloads.
//!
//! The CRC-CCITT generator g(D) = D¹⁶ + D¹² + D⁵ + 1 is used with the
//! register preloaded with the UAP in its upper byte (Bluetooth spec v1.2,
//! Baseband §7.1.2). Bits are processed in transmission order.
//!
//! The hot path ([`crc16_bits`]) steps the register a byte at a time
//! through two compile-time tables; the bit-serial [`crc16`] iterator
//! form is retained as the defining reference and for callers that do
//! not hold a [`BitVec`].

use crate::BitVec;

/// CRC-CCITT polynomial without the D¹⁶ term.
const CRC_TAPS: u16 = 0x1021;

/// `CRC_TABLE[b]`: register after clocking the 8 bits of `b`, MSB
/// first, into a zero register.
const fn build_crc_table() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut reg = (b as u16) << 8;
        let mut k = 0;
        while k < 8 {
            reg = if reg & 0x8000 != 0 {
                (reg << 1) ^ CRC_TAPS
            } else {
                reg << 1
            };
            k += 1;
        }
        t[b] = reg;
        b += 1;
    }
    t
}

const CRC_TABLE: [u16; 256] = build_crc_table();

/// `REV8[b]`: the bits of `b` reversed. Transmission order feeds bytes
/// LSB first, while the table above clocks MSB first.
const fn build_rev8() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut out = 0u8;
        let mut i = 0;
        while i < 8 {
            if b & (1 << i) != 0 {
                out |= 1 << (7 - i);
            }
            i += 1;
        }
        t[b] = out;
        b += 1;
    }
    t
}

pub(crate) const REV8: [u8; 256] = build_rev8();

/// Computes the CRC-16 over `bits`, register preloaded with `uap << 8`.
///
/// # Examples
///
/// ```
/// use btsim_coding::{crc, BitVec};
///
/// let payload = BitVec::from_bytes_lsb(b"hello");
/// let c = crc::crc16(0x47, payload.iter());
/// assert!(crc::check(0x47, &payload, c));
/// ```
pub fn crc16(uap: u8, bits: impl IntoIterator<Item = bool>) -> u16 {
    let mut reg = (uap as u16) << 8;
    for bit in bits {
        let fb = (reg >> 15) ^ (bit as u16);
        reg <<= 1;
        if fb & 1 == 1 {
            reg ^= CRC_TAPS;
        }
    }
    reg
}

/// Computes the CRC-16 over the whole of `bits`, a byte per table step.
pub fn crc16_bits(uap: u8, bits: &BitVec) -> u16 {
    crc16_prefix(uap, bits, bits.len())
}

/// Byte-stepped CRC over the first `len` bits of `bits` (so a framed
/// payload can be checked without slicing it out first).
fn crc16_prefix(uap: u8, bits: &BitVec, len: usize) -> u16 {
    debug_assert!(len <= bits.len());
    let mut reg = (uap as u16) << 8;
    let mut i = 0;
    while i + 8 <= len {
        let byte = bits.bits_lsb(i, 8) as u8;
        reg = (reg << 8) ^ CRC_TABLE[((reg >> 8) as u8 ^ REV8[byte as usize]) as usize];
        i += 8;
    }
    while i < len {
        let fb = (reg >> 15) ^ (bits.get(i).unwrap() as u16);
        reg <<= 1;
        if fb & 1 == 1 {
            reg ^= CRC_TAPS;
        }
        i += 1;
    }
    reg
}

/// Verifies a received `(payload, crc)` pair.
pub fn check(uap: u8, payload: &BitVec, received: u16) -> bool {
    crc16_bits(uap, payload) == received
}

/// Appends the 16 CRC bits to `bits` in transmission order (LSB first).
pub fn append_crc(uap: u8, bits: &mut BitVec) {
    let c = crc16_bits(uap, bits);
    bits.push_bits_lsb(c as u64, 16);
}

/// Whether the first `len` bits of `bits` are a payload followed by its
/// CRC (false when `len` is shorter than a CRC). Checks in place, so a
/// receiver keeps the payload in its own buffer.
///
/// # Panics
///
/// Panics if `len` exceeds `bits.len()`.
pub fn check_framed(uap: u8, bits: &BitVec, len: usize) -> bool {
    assert!(len <= bits.len(), "framed length out of bounds");
    if len < 16 {
        return false;
    }
    let plen = len - 16;
    crc16_prefix(uap, bits, plen) == bits.bits_lsb(plen, 16) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_stepped_crc_matches_bit_serial_reference() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 100, 333, 2728] {
            let bits = BitVec::from_fn(len, |i| (i * 5 + len) % 3 != 0);
            for uap in [0u8, 0x47, 0xFF] {
                assert_eq!(
                    crc16_bits(uap, &bits),
                    crc16(uap, bits.iter()),
                    "len {len} uap {uap:#x}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_via_append_and_check() {
        let uap = 0x9E;
        for msg in [&b"x"[..], b"hello world", b"\x00\x00\x00", b"\xff\xff"] {
            let mut bits = BitVec::from_bytes_lsb(msg);
            append_crc(uap, &mut bits);
            assert!(check_framed(uap, &bits, bits.len()), "valid CRC");
            // Only the framed prefix counts: trailing bits are ignored.
            let framed = bits.len();
            bits.push_bits_lsb(0b1011, 4);
            assert!(check_framed(uap, &bits, framed));
        }
    }

    #[test]
    fn detects_every_single_bit_error() {
        let uap = 0x12;
        let mut bits = BitVec::from_bytes_lsb(b"data under test");
        append_crc(uap, &mut bits);
        for i in 0..bits.len() {
            let mut corrupt = bits.clone();
            corrupt.toggle(i);
            assert!(
                !check_framed(uap, &corrupt, corrupt.len()),
                "missed flip at {i}"
            );
        }
    }

    #[test]
    fn detects_double_bit_errors() {
        let uap = 0x12;
        let mut bits = BitVec::from_bytes_lsb(b"ab");
        append_crc(uap, &mut bits);
        for i in 0..bits.len() {
            for j in (i + 1)..bits.len() {
                let mut corrupt = bits.clone();
                corrupt.toggle(i);
                corrupt.toggle(j);
                assert!(
                    !check_framed(uap, &corrupt, corrupt.len()),
                    "missed flips at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn detects_bursts_up_to_16() {
        let uap = 0x55;
        let mut bits = BitVec::from_bytes_lsb(b"burst error test vector");
        append_crc(uap, &mut bits);
        for burst_len in 2..=16usize {
            for start in (0..bits.len() - burst_len).step_by(7) {
                let mut corrupt = bits.clone();
                for k in 0..burst_len {
                    corrupt.toggle(start + k);
                }
                assert!(
                    !check_framed(uap, &corrupt, corrupt.len()),
                    "missed burst len {burst_len} at {start}"
                );
            }
        }
    }

    #[test]
    fn wrong_uap_fails() {
        let mut bits = BitVec::from_bytes_lsb(b"uap matters");
        append_crc(0x47, &mut bits);
        assert!(!check_framed(0x48, &bits, bits.len()));
    }

    #[test]
    fn short_input_is_rejected() {
        let bits = BitVec::from_bytes_lsb(&[0xAB]);
        assert!(!check_framed(0, &bits, bits.len()));
    }
}
