//! [`Snap`] implementations for the medium's state tree.
//!
//! The wire form serializes every field that affects future behaviour —
//! live transmissions, per-channel buckets, quality counters, the
//! spatial registry and all noise-stream positions. The transmission
//! *directory* is not serialized: it is an index over the buckets and is
//! rebuilt on decode exactly as [`Medium::gc`] rebuilds it, so the two
//! structures cannot disagree after a restore.

use btsim_kernel::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use super::*;

impl Snap for TxId {
    fn snap(&self, w: &mut SnapWriter) {
        let TxId(id) = self;
        id.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TxId(r.take_u64()?))
    }
}

snap_struct! { Position { x, y } }

snap_struct! {
    PathLoss { radius }
    check |p| if p.radius.is_finite() && p.radius > 0.0 {
        Ok(())
    } else {
        Err("spatial radius must be finite and positive")
    }
}

snap_struct! {
    SpatialConfig { path_loss, cell_size }
    check |c| if c.cell_size.is_finite() && c.cell_size >= c.path_loss.radius() {
        Ok(())
    } else {
        Err("spatial cell size must be >= the radius")
    }
}

snap_struct! { Interferer { first_channel, width, duty } }

snap_struct! { ChannelConfig { ber, modem_delay, interferers, spatial } }

snap_struct! { TxStats { transmissions, collided, jammed } }

snap_struct! { ChannelCounters { transmissions, collided, jammed } }

snap_struct! { ChannelQuality { counters } }

snap_struct! {
    Transmission {
        id,
        source,
        rf_channel,
        start,
        noisy_bits,
        jammed,
        counted_collided,
        delivered,
    }
    check |t| if t.rf_channel >= RF_CHANNELS {
        Err("transmission RF channel out of range")
    } else if t.noisy_bits.is_empty() {
        Err("transmission has no bits")
    } else {
        Ok(())
    }
}

snap_struct! {
    Degrade { target, from, ramp }
    check |d| if d.target.is_finite() && (0.0..=1.0).contains(&d.target) {
        Ok(())
    } else {
        Err("degrade target BER out of range")
    }
}

snap_struct! { Radio { pos, cell, noise, stream, last_end } }

/// One retained-transmission bucket per RF channel.
type Buckets = Vec<Vec<Transmission>>;

/// The directory is an index over the buckets; rebuild it the way `gc`
/// does so the pair is consistent by construction.
fn build_directory(channels: &Buckets, cell_buckets: &BTreeMap<Cell, Buckets>) -> Vec<DirEntry> {
    let cells = std::iter::once(((0, 0), channels))
        .chain(cell_buckets.iter().map(|(&cell, buckets)| (cell, buckets)));
    let mut directory: Vec<DirEntry> = cells
        .flat_map(|(cell, buckets)| {
            buckets.iter().enumerate().flat_map(move |(ch, bucket)| {
                bucket.iter().map(move |t| DirEntry {
                    id: t.id,
                    rf_channel: ch as u8,
                    cell,
                })
            })
        })
        .collect();
    directory.sort_unstable_by_key(|e| e.id);
    directory
}

fn check_medium(m: &Medium) -> Result<(), &'static str> {
    let mut bucket_arrays = std::iter::once(&m.channels).chain(m.cell_buckets.values());
    if bucket_arrays.any(|buckets| buckets.len() != RF_CHANNELS as usize) {
        return Err("channel bucket count is not 79");
    }
    let unregistered = |&s: &usize| m.radios.get(s).is_none_or(Option::is_none);
    if m.cells.values().flatten().any(unregistered) {
        return Err("cell membership references unregistered radio");
    }
    if m.cfg.spatial.is_none() && (!m.cell_buckets.is_empty() || !m.cells.is_empty()) {
        return Err("spatial state present without a spatial config");
    }
    if m.directory.windows(2).any(|w| w[0].id == w[1].id) {
        return Err("duplicate transmission id in buckets");
    }
    if m.directory.last().is_some_and(|e| e.id.0 >= m.next_id) {
        return Err("transmission id at or beyond next_id");
    }
    Ok(())
}

snap_struct! {
    Medium {
        cfg,
        rng,
        channels,
        cell_buckets,
        radios,
        cells,
        jam_base,
        next_id,
        total_flipped,
        total_bits,
        tx_stats,
        quality,
        last_end,
        capture,
        degrade,
    }
    skip { directory = build_directory(&channels, &cell_buckets) }
    check |m| check_medium(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: &Medium) -> Medium {
        let mut w = SnapWriter::new();
        m.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Medium::unsnap(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        back
    }

    fn digest(m: &mut Medium, tx: TxId) -> (u64, Option<usize>, TxStats) {
        (
            m.rng_fingerprint(),
            m.receive(tx).map(|rx| rx.bits.len()),
            m.tx_stats(),
        )
    }

    #[test]
    fn medium_roundtrips_with_live_traffic() {
        let mut m = Medium::new(
            ChannelConfig {
                ber: 0.01,
                interferers: vec![Interferer::wlan(40, 0.5)],
                ..ChannelConfig::default()
            },
            SimRng::new(77),
        );
        m.capture_mut();
        let a = m.begin_tx(0, 20, SimTime::ZERO, BitVec::ones(300));
        let _b = m.begin_tx(1, 20, SimTime::from_us(100), BitVec::ones(100));
        let mut back = roundtrip(&m);
        assert_eq!(digest(&mut back, a), digest(&mut m, a));
        // Later draws continue from the same stream position.
        let c1 = m.begin_tx(2, 5, SimTime::from_us(500), BitVec::ones(200));
        let c2 = back.begin_tx(2, 5, SimTime::from_us(500), BitVec::ones(200));
        assert_eq!(m.receive(c1).unwrap().bits, back.receive(c2).unwrap().bits);
        assert_eq!(m.rng_fingerprint(), back.rng_fingerprint());
    }

    #[test]
    fn spatial_medium_roundtrips() {
        let mut m = Medium::new(
            ChannelConfig {
                ber: 0.02,
                spatial: Some(SpatialConfig::with_radius(10.0)),
                ..ChannelConfig::default()
            },
            SimRng::new(3),
        );
        m.register_radio(0, Position::new(0.0, 0.0), 0);
        m.register_radio(1, Position::new(3.0, 0.0), 1);
        m.register_radio(2, Position::new(100.0, 100.0), 2);
        let a = m.begin_tx(0, 7, SimTime::ZERO, BitVec::ones(120));
        let _far = m.begin_tx(2, 7, SimTime::ZERO, BitVec::ones(120));
        let mut back = roundtrip(&m);
        assert_eq!(back.position_of(1), m.position_of(1));
        // `quiet_near` reads the decoded cell index: radio 0 is on air
        // at 10 µs, which an empty index would miss.
        let t = SimTime::from_us(10);
        assert!(!m.quiet_near(0, t));
        assert_eq!(back.quiet_near(0, t), m.quiet_near(0, t));
        assert_eq!(back.last_end_of(2), m.last_end_of(2));
        assert_eq!(digest(&mut back, a), digest(&mut m, a));
    }

    #[test]
    fn reseed_rederives_all_streams() {
        let mk = |seed: u64| {
            let mut m = Medium::new(
                ChannelConfig {
                    ber: 0.02,
                    spatial: Some(SpatialConfig::with_radius(10.0)),
                    ..ChannelConfig::default()
                },
                SimRng::new(seed),
            );
            m.register_radio(0, Position::ORIGIN, 4);
            m
        };
        // Reseeding a used medium to stream X makes its future draws
        // equal a fresh medium built on stream X.
        let mut used = mk(1);
        let tx = used.begin_tx(0, 0, SimTime::ZERO, BitVec::ones(500));
        used.receive(tx).unwrap();
        used.reseed(SimRng::new(2));
        let mut fresh = mk(2);
        let t1 = used.begin_tx(0, 0, SimTime::from_us(5_000), BitVec::ones(500));
        let t2 = fresh.begin_tx(0, 0, SimTime::from_us(5_000), BitVec::ones(500));
        assert_eq!(
            used.receive(t1).unwrap().bits,
            fresh.receive(t2).unwrap().bits
        );
        assert_eq!(used.rng_fingerprint(), fresh.rng_fingerprint());
        assert_eq!(
            used.interferer_active(40, SimTime::from_us(625)),
            fresh.interferer_active(40, SimTime::from_us(625))
        );
    }

    #[test]
    fn malformed_medium_bytes_are_rejected() {
        let m = Medium::new(ChannelConfig::default(), SimRng::new(1));
        let mut w = SnapWriter::new();
        m.snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Medium::unsnap(&mut r).is_err(), "cut at {cut}");
        }
    }
}
