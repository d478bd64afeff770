//! [`Snap`] implementations for the medium's state tree.
//!
//! The wire form serializes every field that affects future behaviour —
//! live transmissions, quality counters, the spatial registry and all
//! noise-stream positions. Retained transmissions are written grouped
//! the way an earlier bucketed store held them: 79 id-ordered per-channel
//! buckets (`channels`) without a spatial model, and per source cell in
//! ascending order (`cell_buckets`, occupied cells only) with one. Each
//! carries the sender's image and its flip positions. The id-ordered
//! queue, the flip arena, the cell table, the on-air index (with its
//! floor and the longest air time, taken over the retained set) and the
//! collector's progress are derived state, rebuilt on decode.

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

/// A retained transmission as the wire holds it: the image the sender
/// put on the air and the positions noise flipped in it.
#[derive(Debug, Clone)]
struct WireTx<I> {
    id: TxId,
    source: usize,
    rf_channel: u8,
    start: SimTime,
    image: I,
    flips: Vec<u32>,
    jammed: bool,
    counted_collided: bool,
    delivered: bool,
}

impl<I: AirImage + Snap> Snap for WireTx<I> {
    fn snap(&self, w: &mut SnapWriter) {
        let WireTx {
            id,
            source,
            rf_channel,
            start,
            image,
            flips,
            jammed,
            counted_collided,
            delivered,
        } = self;
        id.snap(w);
        source.snap(w);
        rf_channel.snap(w);
        start.snap(w);
        image.snap(w);
        flips.snap(w);
        jammed.snap(w);
        counted_collided.snap(w);
        delivered.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let t = WireTx {
            id: Snap::unsnap(r)?,
            source: Snap::unsnap(r)?,
            rf_channel: Snap::unsnap(r)?,
            start: Snap::unsnap(r)?,
            image: I::unsnap(r)?,
            flips: Snap::unsnap(r)?,
            jammed: Snap::unsnap(r)?,
            counted_collided: Snap::unsnap(r)?,
            delivered: Snap::unsnap(r)?,
        };
        let len = t.image.air_bits();
        let what = if t.rf_channel >= RF_CHANNELS {
            Some("transmission RF channel out of range")
        } else if len == 0 {
            Some("transmission has no bits")
        } else if u32::try_from(len).is_err() {
            Some("transmission longer than u32::MAX bits")
        } else if t.flips.last().is_some_and(|&f| f as usize >= len) {
            Some("flip position at or past the packet's length")
        } else if t.flips.windows(2).any(|p| p[0] >= p[1]) {
            Some("flip positions not ascending")
        } else {
            None
        };
        match what {
            Some(what) => Err(r.malformed(what)),
            None => Ok(t),
        }
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

/// One retained-transmission bucket per RF channel, as on the wire.
type Buckets<I> = Vec<Vec<WireTx<I>>>;

/// Widest id range a decoded medium may retain. The id-ordered store
/// holds one slot per id in that range, so a corrupted snapshot must not
/// be able to ask for an unbounded one; a running medium stays far below
/// it (the range covers about two retention windows of traffic).
const MAX_RETAINED_SPAN: u64 = 1 << 22;

impl<I: AirImage + Snap> Medium<I> {
    /// Retained transmissions grouped by source cell (one implicit cell
    /// without a spatial model), then by RF channel, each in id order.
    fn wire_buckets(&self) -> BTreeMap<Cell, Buckets<I>> {
        let mut out: BTreeMap<Cell, Buckets<I>> = BTreeMap::new();
        for (id, t) in self.retained() {
            let cell = match self.cfg.spatial {
                Some(_) => self.radio(t.source).cell,
                None => (0, 0),
            };
            out.entry(cell)
                .or_insert_with(|| vec![Vec::new(); RF_CHANNELS as usize])[t.rf_channel as usize]
                .push(WireTx {
                    id: TxId(id),
                    source: t.source,
                    rf_channel: t.rf_channel,
                    start: t.start,
                    image: t.image.clone(),
                    flips: self.flips_of(t).to_vec(),
                    jammed: t.jammed,
                    counted_collided: t.counted_collided,
                    delivered: t.delivered,
                });
        }
        out
    }

    /// Assembles a decoded medium, checking every invariant the store
    /// relies on.
    fn restore(
        mut m: Medium<I>,
        channels: Buckets<I>,
        cell_buckets: BTreeMap<Cell, Buckets<I>>,
    ) -> Result<Medium<I>, &'static str> {
        let spatial = m.cfg.spatial.is_some();
        let mut bucket_arrays = std::iter::once(&channels).chain(cell_buckets.values());
        if bucket_arrays.any(|buckets| buckets.len() != RF_CHANNELS as usize) {
            return Err("channel bucket count is not 79");
        }
        let unregistered = |&s: &usize| m.radios.get(s).is_none_or(Option::is_none);
        if m.cells.values().flatten().any(unregistered) {
            return Err("cell membership references unregistered radio");
        }
        let listed = |(s, r): (usize, &Option<Radio>)| {
            r.as_ref()
                .is_none_or(|r| m.cells.get(&r.cell).is_some_and(|c| c.contains(&s)))
        };
        if !m.radios.iter().enumerate().all(listed) {
            return Err("registered radio missing from its cell");
        }
        if !spatial && (!cell_buckets.is_empty() || !m.cells.is_empty()) {
            return Err("spatial state present without a spatial config");
        }
        if spatial && channels.iter().any(|b| !b.is_empty()) {
            return Err("channel buckets hold transmissions in spatial mode");
        }
        let mut txs = Vec::new();
        let cells = cell_buckets.into_iter().map(|(cell, b)| (Some(cell), b));
        for (cell, buckets) in std::iter::once((None, channels)).chain(cells) {
            if cell.is_some() && buckets.iter().all(Vec::is_empty) {
                return Err("cell bucket set holds no transmission");
            }
            for (ch, bucket) in buckets.into_iter().enumerate() {
                for t in bucket {
                    if t.rf_channel as usize != ch {
                        return Err("transmission filed under another RF channel");
                    }
                    let home = m.radios.get(t.source).and_then(Option::as_ref);
                    if cell.is_some_and(|c| home.is_none_or(|r| r.cell != c)) {
                        return Err("transmission filed outside its source's cell");
                    }
                    txs.push(t);
                }
            }
        }
        txs.sort_unstable_by_key(|t| t.id);
        if txs.windows(2).any(|w| w[0].id == w[1].id) {
            return Err("duplicate transmission id in buckets");
        }
        if txs.windows(2).any(|w| w[0].start > w[1].start) {
            return Err("transmission starts out of id order");
        }
        m.first = txs.first().map_or(m.next_id, |t| t.id.0);
        if let Some(last) = txs.last() {
            if last.id.0 >= m.next_id {
                return Err("transmission id at or beyond next_id");
            }
            if m.next_id - m.first > MAX_RETAINED_SPAN {
                return Err("retained transmission ids span too wide");
            }
            m.newest_start = last.start;
        }
        // Arena positions are kept modulo 2³², which is exact only while
        // the arena holds fewer flips than that.
        if txs.iter().map(|t| t.flips.len() as u64).sum::<u64>() >= 1 << 32 {
            return Err("retained flips exceed the flip arena's index range");
        }
        // The queue covers every id from the oldest retained one up to
        // `next_id`, collected ones as holes.
        m.txs.resize_with((m.next_id - m.first) as usize, || None);
        m.live = txs.len();
        for w in txs {
            let k = (w.id.0 - m.first) as usize;
            let t = Transmission {
                source: w.source,
                rf_channel: w.rf_channel,
                start: w.start,
                air_bits: w.image.air_bits() as u32,
                image: w.image,
                flip_at: m.flips.len() as u32,
                flip_len: w.flips.len() as u32,
                jammed: w.jammed,
                counted_collided: w.counted_collided,
                delivered: w.delivered,
            };
            m.flips.extend_from_slice(&w.flips);
            m.max_air = m.max_air.max(t.air_time());
            m.txs[k] = Some(t);
        }
        m.floor = m.newest_start - (m.max_air + m.cfg.modem_delay);
        m.sweep.next = m.first;
        Ok(m)
    }
}

impl<I: AirImage + Snap> Snap for Medium<I> {
    fn snap(&self, w: &mut SnapWriter) {
        self.cfg.snap(w);
        self.rng.snap(w);
        let mut cells = self.wire_buckets();
        let empty = || vec![Vec::new(); RF_CHANNELS as usize];
        if self.cfg.spatial.is_some() {
            empty().snap(w);
            cells.snap(w);
        } else {
            cells.remove(&(0, 0)).unwrap_or_else(empty).snap(w);
            w.put_usize(0);
        }
        self.radios.snap(w);
        self.cells.snap(w);
        self.jam_base.snap(w);
        self.next_id.snap(w);
        self.total_flipped.snap(w);
        self.total_bits.snap(w);
        self.tx_stats.snap(w);
        self.quality.snap(w);
        self.last_end.snap(w);
        self.capture.snap(w);
        self.degrade.snap(w);
        self.images_built.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = ChannelConfig::unsnap(r)?;
        let rng = SimRng::unsnap(r)?;
        let channels = Buckets::unsnap(r)?;
        let cell_buckets = BTreeMap::<Cell, Buckets<I>>::unsnap(r)?;
        let mut m = Medium::new(cfg, rng);
        m.radios = Snap::unsnap(r)?;
        m.cells = Snap::unsnap(r)?;
        m.jam_base = Snap::unsnap(r)?;
        m.next_id = Snap::unsnap(r)?;
        m.total_flipped = Snap::unsnap(r)?;
        m.total_bits = Snap::unsnap(r)?;
        m.tx_stats = Snap::unsnap(r)?;
        m.quality = Snap::unsnap(r)?;
        m.last_end = Snap::unsnap(r)?;
        m.capture = Snap::unsnap(r)?;
        m.degrade = Snap::unsnap(r)?;
        m.images_built = Snap::unsnap(r)?;
        Medium::restore(m, channels, cell_buckets).map_err(|what| r.malformed(what))
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
        // The collision scan reads the cell table rebuilt from the
        // decoded `cells`: radio 1 is in range of radio 0, which is still
        // on air, and an empty table would miss the overlap.
        let b1 = m.begin_tx(1, 7, SimTime::from_us(10), BitVec::ones(40));
        let b2 = back.begin_tx(1, 7, SimTime::from_us(10), BitVec::ones(40));
        assert_eq!(m.tx_stats().collided, 2);
        assert_eq!(back.tx_stats(), m.tx_stats());
        assert_eq!(
            back.receive(b2).unwrap().collision_mask,
            m.receive(b1).unwrap().collision_mask
        );
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

    /// The wire form of `m` with its retained transmissions replaced
    /// by `channels` and its id counter by `next_id`.
    fn forged(m: &Medium, channels: &[Vec<WireTx<BitVec>>], next_id: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.cfg.snap(&mut w);
        m.rng.snap(&mut w);
        channels.to_vec().snap(&mut w);
        w.put_usize(0);
        m.radios.snap(&mut w);
        m.cells.snap(&mut w);
        m.jam_base.snap(&mut w);
        next_id.snap(&mut w);
        m.total_flipped.snap(&mut w);
        m.total_bits.snap(&mut w);
        m.tx_stats.snap(&mut w);
        m.quality.snap(&mut w);
        m.last_end.snap(&mut w);
        m.capture.snap(&mut w);
        m.degrade.snap(&mut w);
        m.images_built.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn inconsistent_stores_are_rejected() {
        let mut m = Medium::new(
            ChannelConfig {
                ber: 0.05,
                ..ChannelConfig::default()
            },
            SimRng::new(1),
        );
        for k in 0..3u64 {
            m.begin_tx(0, 5, SimTime::from_us(k * 100), BitVec::ones(50));
        }
        let mut channels = m.wire_buckets().remove(&(0, 0)).unwrap();
        let txs = channels[5].clone();
        assert!(
            txs.iter().all(|t| !t.flips.is_empty()),
            "every packet drew flips"
        );
        let decode = |channels: &[Vec<WireTx<BitVec>>], next_id: u64| {
            let bytes = forged(&m, channels, next_id);
            match Medium::<BitVec>::unsnap(&mut SnapReader::new(&bytes)) {
                Ok(_) => "ok",
                Err(SnapshotError::Malformed { what, .. }) => what,
                Err(e) => panic!("unexpected {e:?}"),
            }
        };
        assert_eq!(decode(&channels, 3), "ok");
        let mut moved = channels.clone();
        moved[6] = moved[5].split_off(2);
        assert_eq!(
            decode(&moved, 3),
            "transmission filed under another RF channel"
        );
        let mut twice = channels.clone();
        twice[5].push(txs[2].clone());
        assert_eq!(decode(&twice, 3), "duplicate transmission id in buckets");
        let mut swapped = channels.clone();
        (swapped[5][0].start, swapped[5][2].start) = (txs[2].start, txs[0].start);
        assert_eq!(decode(&swapped, 3), "transmission starts out of id order");
        assert_eq!(decode(&channels, 2), "transmission id at or beyond next_id");
        assert_eq!(
            decode(&channels, MAX_RETAINED_SPAN + 1),
            "retained transmission ids span too wide"
        );
        let mut past_end = channels.clone();
        *past_end[5][1].flips.last_mut().unwrap() = 50;
        assert_eq!(
            decode(&past_end, 3),
            "flip position at or past the packet's length"
        );
        let mut unordered = channels.clone();
        unordered[5][0].flips.reverse();
        unordered[5][0].flips.push(49);
        assert_eq!(decode(&unordered, 3), "flip positions not ascending");
        channels[5][2].image = BitVec::new();
        assert_eq!(decode(&channels, 3), "transmission has no bits");
    }

    #[test]
    fn flips_roundtrip_and_stay_with_their_transmission() {
        // Noise leaves the image alone; the flips travel beside it and
        // come back from a decoded medium in the same places.
        let mut m = Medium::new(
            ChannelConfig {
                ber: 0.1,
                ..ChannelConfig::default()
            },
            SimRng::new(9),
        );
        let ids: Vec<TxId> = (0..4u64)
            .map(|k| m.begin_tx(0, 7, SimTime::from_us(k * 500), BitVec::zeros(300)))
            .collect();
        m.gc(SimTime::from_us(1_400), SimDuration::from_us(100));
        let back = roundtrip(&m);
        for id in ids {
            let here = m.image_of(id).map(|(i, f)| (i.clone(), f.to_vec()));
            let there = back.image_of(id).map(|(i, f)| (i.clone(), f.to_vec()));
            assert_eq!(here, there, "{id:?}");
            if let Some((image, flips)) = here {
                assert_eq!(image, BitVec::zeros(300), "the image is never rewritten");
                assert!(!flips.is_empty());
            }
        }
    }

    #[test]
    fn malformed_medium_bytes_are_rejected() {
        let m: Medium = Medium::new(ChannelConfig::default(), SimRng::new(1));
        let mut w = SnapWriter::new();
        m.snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Medium::<BitVec>::unsnap(&mut r).is_err(), "cut at {cut}");
        }
    }
}
