//! Property-based tests of the baseband layer.

use btsim_baseband::{hop, packet, BdAddr, ClkVal, Clock, PacketType, CLK_WRAP};
use btsim_coding::syncword;
use btsim_kernel::SimTime;
use proptest::prelude::*;

fn arb_keys() -> impl Strategy<Value = packet::LinkKeys> {
    (any::<u32>(), any::<u8>(), 0u8..64, any::<bool>()).prop_map(|(lap, uap, whiten, fhs_fec)| {
        packet::LinkKeys {
            lap: lap & 0xFF_FFFF,
            uap,
            whiten,
            sync_threshold: syncword::DEFAULT_SYNC_THRESHOLD,
            fhs_fec,
        }
    })
}

/// Every packet type a transmission can carry, ID first.
const AIR_TYPES: [PacketType; 14] = [
    PacketType::Id,
    PacketType::Null,
    PacketType::Poll,
    PacketType::Fhs,
    PacketType::Dm1,
    PacketType::Dh1,
    PacketType::Dm3,
    PacketType::Dh3,
    PacketType::Dm5,
    PacketType::Dh5,
    PacketType::Aux1,
    PacketType::Hv1,
    PacketType::Hv2,
    PacketType::Hv3,
];

/// The payload a packet of type `t` carries, cut from random material.
/// FHS fields are left unmasked, so they also check that a reception
/// returns the fields as the air bits carry them.
fn payload_for(t: PacketType, mut data: Vec<u8>, fhs: (u64, u32, u32)) -> packet::Payload {
    match t {
        PacketType::Id | PacketType::Null | PacketType::Poll => packet::Payload::None,
        PacketType::Fhs => packet::Payload::Fhs(packet::FhsPayload {
            addr: BdAddr::from_raw(fhs.0),
            class_of_device: fhs.1,
            lt_addr: (fhs.2 >> 24) as u8,
            clk27_2: fhs.2,
            page_scan_mode: fhs.1 as u8,
            sr: (fhs.1 >> 8) as u8,
            sp: (fhs.1 >> 16) as u8,
        }),
        PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3 => {
            data.resize(t.max_user_bytes(), 0x55);
            packet::Payload::Sco(data)
        }
        _ => {
            data.truncate(t.max_user_bytes());
            packet::Payload::Acl {
                llid: packet::Llid::from_code(data.len() as u8 | 1).expect("nonzero code"),
                flow: data.len().is_multiple_of(3),
                data,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn receptions_decode_as_their_built_bits_do(
        sender in arb_keys(),
        kind in 0usize..AIR_TYPES.len(),
        header in (any::<u8>(), any::<bool>(), any::<bool>(), any::<bool>()),
        data in prop::collection::vec(any::<u8>(), 0..340),
        fhs in (any::<u64>(), any::<u32>(), any::<u32>()),
        heard in (0u8..8, any::<u32>(), 0u8..72),
        noise in (0u8..4, prop::collection::vec(any::<u32>(), 1..6), any::<u32>(), 1u32..80),
    ) {
        // A reception's decode through `decode_reception` — the shortcut
        // or a rebuilt image — must equal decoding the materialised,
        // flipped bits under the receiver's keys and the collision mask.
        let ptype = AIR_TYPES[kind];
        let payload = payload_for(ptype, data, fhs);
        let header = packet::Header {
            lt_addr: header.0,
            ptype,
            flow: header.1,
            arqn: header.2,
            seqn: header.3,
        };
        let packet = match ptype {
            PacketType::Id => packet::AirPacket::id(sender.lap),
            _ => packet::AirPacket::new(sender, header, &payload),
        };
        let mut codec = packet::Codec::new();
        let mut bits = btsim_coding::BitVec::new();
        codec.build(&packet, &mut bits);
        let len = bits.len() as u32;

        // The receiver's keys: the sender's (half the cases), or one
        // field changed, or a correlator threshold of 0..72.
        let mut keys = sender;
        match heard.0 {
            0..=3 => {}
            4 => keys.lap = heard.1 & 0xFF_FFFF,
            5 => keys.uap ^= heard.1 as u8 | 1,
            6 => keys.whiten = (keys.whiten + 1 + heard.1 as u8 % 63) % 64,
            _ => keys.sync_threshold = heard.2,
        }
        if heard.0 == 3 {
            keys.fhs_fec = !keys.fhs_fec;
        }
        // Noise: none, or a few ascending flip positions; a collision
        // mask over a span, or none.
        let mut flips: Vec<u32> = match noise.0 {
            0 | 1 => Vec::new(),
            _ => noise.1.iter().map(|f| f % len).collect(),
        };
        flips.sort_unstable();
        flips.dedup();
        let mask = (noise.0 % 2 == 1).then(|| {
            let lo = (noise.2 % len) as usize;
            let mut m = btsim_coding::BitVec::zeros(len as usize);
            m.fill_range(lo, (lo + noise.3 as usize).min(len as usize));
            m
        });
        for &f in &flips {
            bits.toggle(f as usize);
        }
        let want = packet::decode(&bits, mask.as_ref(), &keys);
        let got = codec.decode_reception(&packet, &flips, mask.as_ref(), &keys);
        prop_assert_eq!(got, want);
        let tally = codec.take_tally();
        prop_assert_eq!(tally.shortcuts + tally.images_built, 1);
    }
}

fn arb_acl_type() -> impl Strategy<Value = PacketType> {
    prop::sample::select(vec![
        PacketType::Dm1,
        PacketType::Dh1,
        PacketType::Dm3,
        PacketType::Dh3,
        PacketType::Dm5,
        PacketType::Dh5,
        PacketType::Aux1,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acl_packets_roundtrip(
        keys in arb_keys(),
        ptype in arb_acl_type(),
        lt_addr in 0u8..8,
        flow: bool,
        arqn: bool,
        seqn: bool,
        data in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let data = {
            let mut d = data;
            d.truncate(ptype.max_user_bytes());
            d
        };
        let header = packet::Header { lt_addr, ptype, flow, arqn, seqn };
        let payload = packet::Payload::Acl {
            llid: packet::Llid::Start,
            flow: true,
            data: data.clone(),
        };
        let air = packet::encode(&keys, &header, &payload);
        prop_assert_eq!(air.len(), packet::air_bits(ptype, data.len(), keys.fhs_fec));
        match packet::decode(&air, None, &keys) {
            Ok(packet::Decoded::Packet { header: h, payload: packet::Payload::Acl { data: got, .. } }) => {
                prop_assert_eq!(h.lt_addr, lt_addr);
                prop_assert_eq!(h.ptype, ptype);
                prop_assert_eq!(h.flow, flow);
                prop_assert_eq!(h.arqn, arqn);
                prop_assert_eq!(h.seqn, seqn);
                prop_assert_eq!(got, data);
            }
            other => prop_assert!(false, "unexpected decode: {:?}", other),
        }
    }

    #[test]
    fn fhs_packets_roundtrip(
        keys in arb_keys(),
        raw_addr: u64,
        class in 0u32..0x100_0000,
        lt_addr in 0u8..8,
        clk in 0u32..(1 << 26),
    ) {
        let fhs = packet::FhsPayload {
            addr: BdAddr::from_raw(raw_addr),
            class_of_device: class,
            lt_addr,
            clk27_2: clk,
            page_scan_mode: 0,
            sr: 1,
            sp: 0,
        };
        let header = packet::Header {
            lt_addr,
            ptype: PacketType::Fhs,
            flow: true,
            arqn: false,
            seqn: false,
        };
        let air = packet::encode(&keys, &header, &packet::Payload::Fhs(fhs));
        match packet::decode(&air, None, &keys) {
            Ok(packet::Decoded::Packet { payload: packet::Payload::Fhs(got), .. }) => {
                prop_assert_eq!(got, fhs);
            }
            other => prop_assert!(false, "unexpected decode: {:?}", other),
        }
    }

    #[test]
    fn corrupted_acl_payload_never_yields_wrong_bytes(
        keys in arb_keys(),
        data in prop::collection::vec(any::<u8>(), 1..17),
        flips in prop::collection::vec(0usize..366, 1..8),
    ) {
        // Whatever the corruption, a CRC-checked packet either fails to
        // decode or decodes to exactly the original payload (FEC repair).
        let header = packet::Header {
            lt_addr: 1,
            ptype: PacketType::Dm1,
            flow: true,
            arqn: false,
            seqn: false,
        };
        let payload = packet::Payload::Acl {
            llid: packet::Llid::Start,
            flow: true,
            data: data.clone(),
        };
        let mut air = packet::encode(&keys, &header, &payload);
        for f in flips {
            let idx = f % air.len();
            air.toggle(idx);
        }
        if let Ok(packet::Decoded::Packet {
            payload: packet::Payload::Acl { data: got, .. },
            ..
        }) = packet::decode(&air, None, &keys)
        {
            prop_assert_eq!(got, data, "CRC accepted corrupted bytes");
        }
    }

    #[test]
    fn hop_channel_always_in_band(clk: u32, addr: u32, kofs in prop::sample::select(vec![hop::KOFFSET_A, hop::KOFFSET_B])) {
        let clk = ClkVal::new(clk);
        let addr = addr & 0x0FFF_FFFF;
        for seq in [
            hop::HopSequence::Connection,
            hop::HopSequence::Page { kofs },
            hop::HopSequence::Inquiry { kofs },
            hop::HopSequence::PageScan,
            hop::HopSequence::InquiryScan,
        ] {
            prop_assert!(hop::hop_channel(seq, clk, addr) < hop::CHANNELS);
        }
    }

    #[test]
    fn page_train_always_covers_the_scan_channel(clk_hi in 0u32..(1 << 11), addr: u32) {
        // With an exact estimate, some tick within a train period pages
        // on the channel the target scans — the rendezvous guarantee the
        // whole page procedure rests on.
        let addr = addr & 0x0FFF_FFFF;
        let epoch = clk_hi << 12;
        let scan_ch = hop::hop_channel(hop::HopSequence::PageScan, ClkVal::new(epoch), addr);
        let hit = (0..32u32).any(|tick| {
            let clk = ClkVal::new(epoch | tick);
            hop::hop_channel(hop::HopSequence::Page { kofs: hop::KOFFSET_A }, clk, addr) == scan_ch
        });
        prop_assert!(hit, "A-train never covered the scan channel");
    }

    #[test]
    fn clock_offsets_compose(a: u32, b: u32, c: u32) {
        let (a, b, c) = (ClkVal::new(a), ClkVal::new(b), ClkVal::new(c));
        let ab = a.offset_to(b);
        let bc = b.offset_to(c);
        let ac = a.offset_to(c);
        prop_assert_eq!((ab + bc) % CLK_WRAP, ac);
        prop_assert_eq!(a.offset_by(ab), b);
    }

    #[test]
    fn clock_is_monotone_in_time(start: u32, t1 in 0u64..10_000_000, dt in 0u64..10_000_000) {
        let clock = Clock::new(ClkVal::new(start));
        let c1 = clock.clkn_at(SimTime::from_us(t1));
        let c2 = clock.clkn_at(SimTime::from_us(t1 + dt));
        let advanced = c1.offset_to(c2) as u64;
        // Ticks advanced equals elapsed half-slots.
        let expected = (t1 + dt) * 1000 / 312_500 - t1 * 1000 / 312_500;
        prop_assert_eq!(advanced, expected % (1 << 28));
    }

    #[test]
    fn whitening_seed_and_slot_helpers_consistent(v: u32) {
        let c = ClkVal::new(v);
        prop_assert_eq!(c.whitening_seed() as u32, (c.raw() >> 1) & 0x3F);
        prop_assert_eq!(c.slot(), c.raw() >> 1);
        prop_assert_eq!(c.is_slot_start(), c.raw() & 1 == 0);
        prop_assert_eq!(c.is_master_tx_slot(), c.raw() & 2 == 0);
    }

    #[test]
    fn fhs_clock_reconstruction_error_is_bounded(v: u32) {
        // Reconstructing a clock from CLK27-2 loses at most 3 ticks.
        let c = ClkVal::new(v);
        let rec = ClkVal::from_clk27_2(c.clk27_2());
        let err = rec.offset_to(c);
        prop_assert!(err <= 3, "error {} ticks", err);
    }
}

// The scatternet subsystem lets many piconets share the 79-channel
// medium; its inter-piconet collision experiment assumes the
// connection-state hop sequences of distinct piconets are
// de-correlated: the *ensemble* same-channel rate over random piconet
// pairs is ≈ 1/79 per slot. (Individual pairs are over-dispersed —
// the selection box is a shallow mix, not a PRF: addresses differing
// only in the final mod-79 addend E give constant-shifted, disjoint
// sequences, while pairs sharing most control words overlap several
// times chance — so the property is stated over an ensemble, exactly
// the quantity the Monte-Carlo collision experiment measures.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ensemble_hop_overlap_rate_is_one_in_79(
        addrs in prop::collection::vec(any::<u32>(), 96),
        offsets in prop::collection::vec(1u32..(1 << 28), 48),
        start in 0u32..(1 << 24),
    ) {
        let per_pair = 2_000u32;
        let mut pairs = 0u32;
        let mut same = 0u32;
        for (chunk, off) in addrs.chunks_exact(2).zip(&offsets) {
            let a1 = chunk[0] & 0x0FFF_FFFF;
            let a2 = chunk[1] & 0x0FFF_FFFF;
            if a1 == a2 {
                continue;
            }
            pairs += 1;
            same += (0..per_pair)
                .filter(|&k| {
                    let c1 = ClkVal::new(start.wrapping_add(2 * k));
                    let c2 = c1.offset_by(*off);
                    hop::hop_channel(hop::HopSequence::Connection, c1, a1)
                        == hop::hop_channel(hop::HopSequence::Connection, c2, a2)
                })
                .count() as u32;
        }
        prop_assume!(pairs >= 32);
        let rate = same as f64 / (pairs * per_pair) as f64;
        // Measured per-pair rate dispersion is σ ≈ 0.011; the mean of
        // ≥32 pairs has σ ≤ 0.002, so ±0.010 is a ≥5σ band around 1/79.
        prop_assert!(
            (rate - 1.0 / 79.0).abs() <= 0.010,
            "ensemble same-channel rate {rate:.5} not within 1/79 ± 0.010"
        );
    }

    #[test]
    fn shared_clock_ensemble_overlap_does_not_exceed_chance(
        addrs in prop::collection::vec(any::<u32>(), 96),
    ) {
        // Degenerate case: two piconets whose masters' clocks coincide
        // exactly. Pairwise anything can happen (0 to several times
        // chance); the ensemble must still not collide systematically
        // more than 1/79 or the collision experiment's analytic anchor
        // would be wrong.
        let per_pair = 2_000u32;
        let mut pairs = 0u32;
        let mut same = 0u32;
        for chunk in addrs.chunks_exact(2) {
            let a1 = chunk[0] & 0x0FFF_FFFF;
            let a2 = chunk[1] & 0x0FFF_FFFF;
            if a1 == a2 {
                continue;
            }
            pairs += 1;
            same += (0..per_pair)
                .filter(|&k| {
                    let clk = ClkVal::new(4 * k); // master TX slot starts
                    hop::hop_channel(hop::HopSequence::Connection, clk, a1)
                        == hop::hop_channel(hop::HopSequence::Connection, clk, a2)
                })
                .count() as u32;
        }
        prop_assume!(pairs >= 32);
        let rate = same as f64 / (pairs * per_pair) as f64;
        prop_assert!(
            rate <= 1.0 / 79.0 + 0.010,
            "ensemble same-channel rate {rate:.5} exceeds 1/79 + 0.010"
        );
    }
}

// The AFH channel map: every construction path enforces the spec's
// Nmin = 20 floor, the remap always lands in the used set, and the
// 10-byte LMP wire form roundtrips exactly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn channel_map_floor_remap_and_wire_roundtrip(
        raw in prop::collection::vec(0u8..hop::CHANNELS, 0..70),
        clk in 0u32..(1 << 27),
        addr in any::<u32>(),
    ) {
        let blocked: std::collections::BTreeSet<u8> = raw.into_iter().collect();
        let remaining = hop::CHANNELS as usize - blocked.len();
        match hop::ChannelMap::try_blocking(blocked.iter().copied()) {
            Ok(map) => {
                // Construction succeeds exactly when the floor holds.
                prop_assert!(remaining >= hop::MIN_AFH_CHANNELS);
                prop_assert_eq!(map.used_count(), remaining);
                // Remap of any channel lands in the used set; used
                // channels are fixed points.
                for ch in 0..hop::CHANNELS {
                    let r = map.remap(ch);
                    prop_assert!(map.is_used(r), "remap({}) = {} unused", ch, r);
                    if map.is_used(ch) {
                        prop_assert_eq!(r, ch);
                    }
                }
                // The adaptive hop selector respects the map.
                let ch = hop::hop_channel_afh(ClkVal::new(clk), addr & 0x0FFF_FFFF, &map);
                prop_assert!(map.is_used(ch));
                // Wire roundtrip is exact, with the 80th bit clear.
                let bytes = map.to_bytes();
                prop_assert_eq!(bytes[9] & 0x80, 0);
                prop_assert_eq!(hop::ChannelMap::from_bytes(&bytes), Ok(map));
            }
            Err(e) => {
                prop_assert!(remaining < hop::MIN_AFH_CHANNELS);
                prop_assert_eq!(e.used, remaining);
            }
        }
    }
}
