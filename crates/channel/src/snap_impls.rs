//! [`Snap`] implementations for the medium's state tree.
//!
//! The wire form serializes every field that affects future behaviour —
//! live transmissions, per-channel buckets, quality counters, the
//! spatial registry and all noise-stream positions. The transmission
//! *directory* is not serialized: it is an index over the buckets and is
//! rebuilt on decode exactly as [`Medium::gc`] rebuilds it, so the two
//! structures cannot disagree after a restore.

use btsim_kernel::{Snap, SnapReader, SnapWriter, SnapshotError};

use super::*;

impl Snap for TxId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TxId(r.take_u64()?))
    }
}

impl Snap for Position {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.x);
        w.put_f64(self.y);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Position {
            x: r.take_f64()?,
            y: r.take_f64()?,
        })
    }
}

impl Snap for SpatialConfig {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.path_loss.radius());
        w.put_f64(self.cell_size);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let radius = r.take_f64()?;
        let cell_size = r.take_f64()?;
        if !(radius.is_finite() && radius > 0.0) {
            return Err(r.malformed("spatial radius must be finite and positive"));
        }
        if !(cell_size.is_finite() && cell_size >= radius) {
            return Err(r.malformed("spatial cell size must be >= the radius"));
        }
        Ok(SpatialConfig::new(PathLoss::range(radius), cell_size))
    }
}

impl Snap for Interferer {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(self.first_channel);
        w.put_u8(self.width);
        w.put_f64(self.duty);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Interferer {
            first_channel: r.take_u8()?,
            width: r.take_u8()?,
            duty: r.take_f64()?,
        })
    }
}

impl Snap for ChannelConfig {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.ber);
        self.modem_delay.snap(w);
        self.interferers.snap(w);
        self.spatial.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ChannelConfig {
            ber: r.take_f64()?,
            modem_delay: Snap::unsnap(r)?,
            interferers: Snap::unsnap(r)?,
            spatial: Snap::unsnap(r)?,
        })
    }
}

impl Snap for TxStats {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.transmissions);
        w.put_u64(self.collided);
        w.put_u64(self.jammed);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TxStats {
            transmissions: r.take_u64()?,
            collided: r.take_u64()?,
            jammed: r.take_u64()?,
        })
    }
}

impl Snap for ChannelCounters {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.transmissions);
        w.put_u64(self.collided);
        w.put_u64(self.jammed);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ChannelCounters {
            transmissions: r.take_u64()?,
            collided: r.take_u64()?,
            jammed: r.take_u64()?,
        })
    }
}

impl Snap for ChannelQuality {
    fn snap(&self, w: &mut SnapWriter) {
        self.counters.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ChannelQuality {
            counters: Snap::unsnap(r)?,
        })
    }
}

impl Snap for Transmission {
    fn snap(&self, w: &mut SnapWriter) {
        self.id.snap(w);
        w.put_usize(self.source);
        w.put_u8(self.rf_channel);
        self.start.snap(w);
        self.noisy_bits.snap(w);
        w.put_bool(self.jammed);
        w.put_bool(self.counted_collided);
        w.put_bool(self.delivered);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let id = TxId::unsnap(r)?;
        let source = r.take_usize()?;
        let rf_channel = r.take_u8()?;
        if rf_channel >= RF_CHANNELS {
            return Err(r.malformed("transmission RF channel out of range"));
        }
        let start = SimTime::unsnap(r)?;
        let noisy_bits = BitVec::unsnap(r)?;
        if noisy_bits.is_empty() {
            return Err(r.malformed("transmission has no bits"));
        }
        Ok(Transmission {
            id,
            source,
            rf_channel,
            start,
            noisy_bits,
            jammed: r.take_bool()?,
            counted_collided: r.take_bool()?,
            delivered: r.take_bool()?,
        })
    }
}

impl Snap for Degrade {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.target);
        self.from.snap(w);
        self.ramp.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let d = Degrade {
            target: r.take_f64()?,
            from: Snap::unsnap(r)?,
            ramp: Snap::unsnap(r)?,
        };
        if !(d.target.is_finite() && (0.0..=1.0).contains(&d.target)) {
            return Err(r.malformed("degrade target BER out of range"));
        }
        Ok(d)
    }
}

impl Snap for Radio {
    fn snap(&self, w: &mut SnapWriter) {
        self.pos.snap(w);
        (self.cell.0, self.cell.1).snap(w);
        self.noise.snap(w);
        w.put_u64(self.stream);
        self.last_end.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Radio {
            pos: Snap::unsnap(r)?,
            cell: Snap::unsnap(r)?,
            noise: Snap::unsnap(r)?,
            stream: r.take_u64()?,
            last_end: Snap::unsnap(r)?,
        })
    }
}

/// Reads a 79-bucket array (one `Vec<Transmission>` per RF channel).
fn unsnap_channel_buckets(r: &mut SnapReader<'_>) -> Result<Vec<Vec<Transmission>>, SnapshotError> {
    let buckets: Vec<Vec<Transmission>> = Snap::unsnap(r)?;
    if buckets.len() != RF_CHANNELS as usize {
        return Err(r.malformed("channel bucket count is not 79"));
    }
    Ok(buckets)
}

impl Snap for Medium {
    fn snap(&self, w: &mut SnapWriter) {
        self.cfg.snap(w);
        self.rng.snap(w);
        self.channels.snap(w);
        w.put_usize(self.cell_buckets.len());
        for (cell, buckets) in &self.cell_buckets {
            (cell.0, cell.1).snap(w);
            buckets.snap(w);
        }
        self.radios.snap(w);
        w.put_usize(self.cells.len());
        for (cell, members) in &self.cells {
            (cell.0, cell.1).snap(w);
            members.snap(w);
        }
        self.jam_base.snap(w);
        w.put_u64(self.next_id);
        w.put_u64(self.total_flipped);
        w.put_u64(self.total_bits);
        self.tx_stats.snap(w);
        self.quality.snap(w);
        self.last_end.snap(w);
        self.capture.snap(w);
        self.degrade.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = ChannelConfig::unsnap(r)?;
        let rng = SimRng::unsnap(r)?;
        let channels = unsnap_channel_buckets(r)?;
        let n_cells = r.take_len()?;
        let mut cell_buckets = BTreeMap::new();
        for _ in 0..n_cells {
            let cell: Cell = Snap::unsnap(r)?;
            cell_buckets.insert(cell, unsnap_channel_buckets(r)?);
        }
        let radios: Vec<Option<Radio>> = Snap::unsnap(r)?;
        let n_member_cells = r.take_len()?;
        let mut cells = BTreeMap::new();
        for _ in 0..n_member_cells {
            let cell: Cell = Snap::unsnap(r)?;
            let members: Vec<usize> = Snap::unsnap(r)?;
            if members
                .iter()
                .any(|&m| radios.get(m).is_none_or(Option::is_none))
            {
                return Err(r.malformed("cell membership references unregistered radio"));
            }
            cells.insert(cell, members);
        }
        if cfg.spatial.is_none() && (!cell_buckets.is_empty() || !cells.is_empty()) {
            return Err(r.malformed("spatial state present without a spatial config"));
        }
        // The directory is an index over the buckets; rebuild it the way
        // `gc` does so the pair is consistent by construction.
        let mut directory = Vec::new();
        for (ch, bucket) in channels.iter().enumerate() {
            for t in bucket {
                directory.push(DirEntry {
                    id: t.id,
                    rf_channel: ch as u8,
                    cell: (0, 0),
                });
            }
        }
        for (&cell, buckets) in &cell_buckets {
            for (ch, bucket) in buckets.iter().enumerate() {
                for t in bucket {
                    directory.push(DirEntry {
                        id: t.id,
                        rf_channel: ch as u8,
                        cell,
                    });
                }
            }
        }
        directory.sort_unstable_by_key(|e| e.id);
        if directory.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(r.malformed("duplicate transmission id in buckets"));
        }
        let medium = Medium {
            cfg,
            rng,
            channels,
            cell_buckets,
            radios,
            cells,
            directory,
            jam_base: SimRng::unsnap(r)?,
            next_id: r.take_u64()?,
            total_flipped: r.take_u64()?,
            total_bits: r.take_u64()?,
            tx_stats: Snap::unsnap(r)?,
            quality: Snap::unsnap(r)?,
            last_end: Snap::unsnap(r)?,
            capture: Snap::unsnap(r)?,
            degrade: Snap::unsnap(r)?,
        };
        if medium
            .directory
            .last()
            .is_some_and(|e| e.id.0 >= medium.next_id)
        {
            return Err(r.malformed("transmission id at or beyond next_id"));
        }
        Ok(medium)
    }
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
