//! Property-based tests for the coding primitives.

use btsim_coding::{crc, fec, hec, syncword, BitVec, Whitener};
use proptest::prelude::*;

fn bitvec_strategy(max_bits: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), 1..max_bits).prop_map(|v| v.into_iter().collect())
}

proptest! {
    #[test]
    fn bitvec_bytes_roundtrip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let v = BitVec::from_bytes_lsb(&bytes);
        prop_assert_eq!(v.to_bytes_lsb(), bytes);
    }

    #[test]
    fn bitvec_push_bits_roundtrip(value: u64, n in 0u32..=64) {
        let mut v = BitVec::new();
        v.push_bits_lsb(value, n);
        let masked = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        prop_assert_eq!(v.bits_lsb(0, n), masked);
    }

    #[test]
    fn bitvec_hamming_symmetry(a in bitvec_strategy(256)) {
        let mut b = a.clone();
        let flips: Vec<usize> = (0..a.len()).step_by(3).collect();
        for &i in &flips {
            b.toggle(i);
        }
        prop_assert_eq!(a.hamming(&b), flips.len());
        prop_assert_eq!(b.hamming(&a), flips.len());
    }

    #[test]
    fn fec13_corrects_any_single_error_per_triple(data in bitvec_strategy(60), seed: u64) {
        let mut coded = BitVec::new();
        fec::fec13_encode_into(&data, &mut coded);
        let mut corrupt = coded.clone();
        // Flip exactly one bit in each triple, position chosen per-triple.
        let mut x = seed;
        for t in 0..data.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            corrupt.toggle(t * 3 + (x >> 33) as usize % 3);
        }
        let mut decoded = BitVec::new();
        let corrected = fec::fec13_decode(&corrupt, 0..corrupt.len(), &mut decoded);
        prop_assert_eq!(decoded, data.clone());
        prop_assert_eq!(corrected, data.len());
    }

    #[test]
    fn fec23_roundtrip_with_single_error_per_block(
        blocks in 1usize..8,
        positions in prop::collection::vec(0usize..15, 8),
        data_seed: u64,
    ) {
        let data = BitVec::from_fn(blocks * 10, |i| (data_seed >> (i % 64)) & 1 == 1);
        let mut coded = BitVec::new();
        fec::fec23_encode_into(&data, &mut coded);
        let mut corrupt = coded.clone();
        for (b, &pos) in positions.iter().enumerate().take(blocks) {
            corrupt.toggle(b * 15 + pos);
        }
        let mut decoded = BitVec::new();
        let out = fec::fec23_decode(&corrupt, 0..corrupt.len(), &mut decoded);
        prop_assert_eq!(decoded, data);
        prop_assert_eq!(out.corrected, blocks);
        prop_assert_eq!(out.failed, 0);
    }

    #[test]
    fn crc_detects_arbitrary_corruptions(
        msg in prop::collection::vec(any::<u8>(), 1..32),
        uap: u8,
        flips in prop::collection::vec(0usize..128, 1..6),
    ) {
        let mut bits = BitVec::from_bytes_lsb(&msg);
        crc::append_crc(uap, &mut bits);
        let mut corrupt = bits.clone();
        let mut any_flip = false;
        let mut seen = std::collections::HashSet::new();
        for f in flips {
            let idx = f % corrupt.len();
            if seen.insert(idx) {
                corrupt.toggle(idx);
                any_flip = !any_flip;
            }
        }
        // An odd number of distinct flips can never cancel out.
        if any_flip {
            prop_assert!(!crc::check_framed(uap, &corrupt, corrupt.len()));
        }
    }

    #[test]
    fn hec_roundtrips_for_all_inputs(uap: u8, info in 0u16..1024) {
        prop_assert!(hec::check(uap, info, hec::hec(uap, info)));
    }

    #[test]
    fn whitening_is_involution(data in bitvec_strategy(512), clk in 0u8..64) {
        let mut bits = data.clone();
        Whitener::from_clk(clk).xor_into(&mut bits);
        Whitener::from_clk(clk).xor_into(&mut bits);
        prop_assert_eq!(bits, data);
    }

    #[test]
    fn sync_words_pairwise_distance(a in 0u32..0x100_0000, b in 0u32..0x100_0000) {
        prop_assume!(a != b);
        let d = (syncword::sync_word(a) ^ syncword::sync_word(b)).count_ones();
        prop_assert!(d >= 14, "distance {} between {:06X} and {:06X}", d, a, b);
    }

    #[test]
    fn correlation_tolerates_threshold_errors(lap in 0u32..0x100_0000, n_err in 0usize..=10) {
        let ac = syncword::access_code(lap, false);
        let mut noisy = ac.clone();
        for i in 0..n_err {
            noisy.toggle(4 + i * 5);
        }
        let c = syncword::correlate(&noisy, 4, None, lap, syncword::DEFAULT_SYNC_THRESHOLD);
        prop_assert!(c.detected);
        prop_assert_eq!(c.matches as usize, 64 - n_err);
    }
}
