//! # btsim-coding
//!
//! Bit-level coding primitives of the Bluetooth baseband, used to build
//! exact over-the-air packet images for the `btsim` system-level simulator
//! (reproduction of Conti & Moretti, *System Level Analysis of the
//! Bluetooth Standard*, DATE 2005):
//!
//! * [`BitVec`] — packed bit vector in transmission order, and
//!   [`AirImage`], what a transmission carries onto the air;
//! * [`hec`] — 8-bit header error check;
//! * [`crc`] — CRC-16 payload check;
//! * [`fec`] — 1/3 repetition and 2/3 (15,10) shortened-Hamming FEC;
//! * [`Whitener`] — x⁷+x⁴+1 data whitening;
//! * [`syncword`] — (64,30) BCH access-code sync words and correlation.
//!
//! # Examples
//!
//! Building and checking a DM-style payload. Every stage appends into or
//! rewrites a caller's buffer, so a receiver reuses one scratch vector:
//!
//! ```
//! use btsim_coding::{crc, fec, BitVec, Whitener};
//!
//! // payload + CRC, whiten, then 2/3 FEC — exactly the baseband TX chain.
//! let mut payload = BitVec::from_bytes_lsb(b"data");
//! crc::append_crc(0x47, &mut payload);
//! let framed = payload.len();
//! Whitener::from_clk(13).xor_into(&mut payload);
//! let mut air = BitVec::new();
//! fec::fec23_encode_into(&payload, &mut air);
//!
//! // Receive chain: FEC decode, de-whiten, CRC check, in one buffer.
//! let mut rx = BitVec::new();
//! let counts = fec::fec23_decode(&air, 0..air.len(), &mut rx);
//! assert_eq!(counts.failed, 0);
//! rx.truncate(framed);
//! Whitener::from_clk(13).xor_into(&mut rx);
//! assert!(crc::check_framed(0x47, &rx, framed), "CRC must pass");
//! rx.truncate(framed - 16);
//! assert_eq!(rx.to_bytes_lsb(), b"data");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
pub mod crc;
pub mod fec;
pub mod hec;
pub mod syncword;
mod whitening;

pub use bits::{AirImage, BitVec, Iter};
pub use whitening::Whitener;
