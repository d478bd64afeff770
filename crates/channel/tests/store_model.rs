//! Property test of the medium's retained-transmission store against a
//! brute-force model.
//!
//! Random sequences of `begin_tx`, `receive`, `gc`, late radio
//! registrations and snapshot round trips run on a [`Medium`] and on a
//! model that keeps every transmission ever sent in one list and
//! answers each query by scanning all of it. After every step the two
//! must agree on `tx_stats`, `live_count`, `delivery_time`, every
//! reception's collision mask, and which transmissions are still
//! retained — in spatial mode (clustered radios, range culling across
//! cell edges) and without a spatial model, for single- and multi-slot
//! packets, receives long after a packet left the air, retentions
//! shorter than a packet, and a copy decoded mid-run that carries on.

use btsim_channel::{ChannelConfig, Medium, Position, SpatialConfig, TxId, TxStats};
use btsim_coding::BitVec;
use btsim_kernel::{SimDuration, SimRng, SimTime, Snap, SnapReader, SnapWriter};
use proptest::prelude::*;

const RADIUS: f64 = 10.0;
const MODEM_DELAY: SimDuration = SimDuration::from_us(5);

/// One transmission as the model sees it.
struct ModelTx {
    id: TxId,
    source: usize,
    channel: u8,
    start: SimTime,
    end: SimTime,
    counted: bool,
    delivered: bool,
    retained: bool,
}

/// Every transmission ever registered, scanned in full on every query.
struct Model {
    /// Radio positions by source id (spatial mode only).
    positions: Vec<Position>,
    spatial: bool,
    txs: Vec<ModelTx>,
    stats: TxStats,
}

impl Model {
    fn interacts(&self, a: usize, b: usize) -> bool {
        !self.spatial || self.positions[a].distance(self.positions[b]) <= RADIUS
    }

    fn begin_tx(&mut self, id: TxId, source: usize, channel: u8, start: SimTime, len: usize) {
        let end = start + SimDuration::from_bits(len);
        let mut collided = false;
        let mut newly = 0;
        for i in 0..self.txs.len() {
            let o = &self.txs[i];
            if o.retained
                && o.channel == channel
                && o.start < end
                && o.end > start
                && self.interacts(source, o.source)
            {
                collided = true;
                if !self.txs[i].counted {
                    self.txs[i].counted = true;
                    newly += 1;
                }
            }
        }
        self.stats.transmissions += 1;
        self.stats.collided += newly + u64::from(collided);
        self.txs.push(ModelTx {
            id,
            source,
            channel,
            start,
            end,
            counted: collided,
            delivered: false,
            retained: true,
        });
    }

    /// The collision mask `receive(id)` must return (`None` if clean).
    fn mask(&self, id: usize) -> Option<BitVec> {
        let tx = &self.txs[id];
        let len = (tx.end.ns() - tx.start.ns()) / SimDuration::SYMBOL.ns();
        let mut mask: Option<BitVec> = None;
        for (j, o) in self.txs.iter().enumerate() {
            if j == id
                || !o.retained
                || o.channel != tx.channel
                || o.end <= tx.start
                || o.start >= tx.end
                || !self.interacts(tx.source, o.source)
            {
                continue;
            }
            let m = mask.get_or_insert_with(|| BitVec::zeros(len as usize));
            let lo = o.start.since(tx.start).ns() / SimDuration::SYMBOL.ns();
            let hi = o
                .end
                .since(tx.start)
                .ns()
                .div_ceil(SimDuration::SYMBOL.ns());
            m.fill_range(lo as usize, hi.min(len) as usize);
        }
        mask
    }

    /// The retention rule `Medium::gc` documents, applied to everything.
    fn gc(&mut self, now: SimTime, retention: SimDuration) {
        let cutoff = now - retention;
        for t in &mut self.txs {
            let kept = t.end >= cutoff || (!t.delivered && t.end + retention >= cutoff);
            t.retained &= kept;
        }
    }

    fn live(&self) -> usize {
        self.txs.iter().filter(|t| t.retained).count()
    }
}

fn roundtrip(m: &Medium) -> Medium {
    let mut w = SnapWriter::new();
    m.snap(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let back = Medium::unsnap(&mut r).expect("decode");
    r.finish().expect("fully consumed");
    let mut again = SnapWriter::new();
    back.snap(&mut again);
    assert_eq!(again.into_bytes(), bytes, "re-encoding changes the bytes");
    back
}

/// A radio of cluster `k`: clusters sit on a line 12-20 m apart, so
/// neighbouring clusters interact only partly and cells hold several
/// radios.
fn clustered(k: u64, word: u64) -> Position {
    let jitter = |bits: u64| (bits % 1000) as f64 / 1000.0 * 8.0 - 4.0;
    Position::new(
        k as f64 * 16.0 + jitter(word),
        (k % 2) as f64 * 6.0 + jitter(word >> 10),
    )
}

/// The traffic and collection pattern of a generated run.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Packet lengths: up to one slot's worth of bits only, or also
    /// whole 1-, 3- and 5-slot packets (DH1/DH3/DH5 air times).
    multi_slot: bool,
    /// The retention `gc` starts with and the range a retention change
    /// draws from, in µs.
    retention_us: (u64, u64),
    /// Instead of round-tripping the medium in place, decode a copy
    /// at this op and drive both with the rest of the ops: the copy
    /// must answer every query exactly like the medium it came from.
    fork_at: Option<usize>,
}

/// The shape the first two properties ran on: single-slot packets and
/// retentions of 0.2-3.2 ms.
const PLAIN: Shape = Shape {
    multi_slot: false,
    retention_us: (1_500, 200),
    fork_at: None,
};

/// Air lengths in bits of a DH1, DH3 and DH5 packet.
const SLOT_PACKETS: [usize; 3] = [366, 1_622, 2_870];

/// Runs `ops` (each a kind selector and a word of parameters) on a
/// medium and on the model, comparing them after every step.
fn check(spatial: bool, ops: &[(u8, u64)]) {
    check_shaped(spatial, PLAIN, ops);
}

/// [`check`] with an explicit [`Shape`].
fn check_shaped(spatial: bool, shape: Shape, ops: &[(u8, u64)]) {
    let cfg = ChannelConfig {
        ber: 0.01,
        spatial: spatial.then(|| SpatialConfig::with_radius(RADIUS)),
        ..ChannelConfig::default()
    };
    let mut m = Medium::new(cfg, SimRng::new(ops.len() as u64));
    let mut twin: Option<Medium> = None;
    let mut model = Model {
        positions: Vec::new(),
        spatial,
        txs: Vec::new(),
        stats: TxStats::default(),
    };
    let register = |m: &mut Medium, model: &mut Model, word: u64| {
        let source = model.positions.len();
        let pos = clustered(word % 6, word >> 8);
        if spatial {
            m.register_radio(source, pos, source as u64);
        }
        model.positions.push(pos);
    };
    for k in 0..5 {
        register(&mut m, &mut model, k * 0x9E37_79B9);
    }
    let mut clock = SimTime::ZERO;
    let (initial, least) = shape.retention_us;
    let mut retention = SimDuration::from_us(initial);
    for (step, &(kind, word)) in ops.iter().enumerate() {
        if shape.fork_at == Some(step) {
            twin = Some(roundtrip(&m));
        }
        match kind {
            // Transmit on one of three channels, so collisions are common.
            0..=6 => {
                clock += SimDuration::from_us(word % 400);
                let source = (word >> 12) as usize % model.positions.len();
                let channel = (word >> 20) as u8 % 3;
                let len = match (word >> 40) % 4 {
                    k @ 0..=2 if shape.multi_slot => SLOT_PACKETS[k as usize],
                    _ => 1 + (word >> 24) as usize % 366,
                };
                let id = m.begin_tx(source, channel, clock, BitVec::zeros(len));
                if let Some(twin) = &mut twin {
                    assert_eq!(
                        twin.begin_tx(source, channel, clock, BitVec::zeros(len)),
                        id
                    );
                }
                model.begin_tx(id, source, channel, clock, len);
            }
            // Deliver any transmission ever sent, retained or not.
            7..=10 if !model.txs.is_empty() => {
                let i = (word % model.txs.len() as u64) as usize;
                let t = &model.txs[i];
                let id = t.id;
                let expected = t.retained.then(|| t.end + MODEM_DELAY);
                assert_eq!(m.delivery_time(id), expected, "delivery_time of {i}");
                let rx = m.receive(id);
                if let Some(twin) = &mut twin {
                    assert_eq!(
                        twin.delivery_time(id),
                        expected,
                        "twin delivery_time of {i}"
                    );
                    let twin_rx = twin.receive(id);
                    assert_eq!(
                        twin_rx.map(|r| (r.bits, r.collision_mask)),
                        rx.as_ref()
                            .map(|r| (r.bits.clone(), r.collision_mask.clone())),
                        "twin receive of {i}"
                    );
                }
                assert_eq!(rx.is_some(), t.retained, "receive of {i}");
                if let Some(rx) = rx {
                    assert_eq!((rx.source, rx.rf_channel), (t.source, t.channel));
                    assert_eq!((rx.start, rx.end), (t.start, t.end));
                    assert_eq!(rx.collision_mask, model.mask(i), "mask of {i}");
                    model.txs[i].delivered = true;
                }
            }
            // Collect, usually at the current instant with the usual
            // retention; sometimes with a new retention or an earlier
            // instant, which the store must handle exactly too.
            11..=13 => {
                let mut now = clock + SimDuration::from_us(word % 3_000);
                match (word >> 16) % 16 {
                    0 => retention = SimDuration::from_us(least + (word >> 20) % 3_000),
                    1 => now = now - SimDuration::from_us((word >> 20) % 5_000),
                    _ => {}
                }
                m.gc(now, retention);
                if let Some(twin) = &mut twin {
                    twin.gc(now, retention);
                }
                model.gc(now, retention);
            }
            14 if shape.fork_at.is_none() => m = roundtrip(&m),
            15 if spatial && model.positions.len() < 12 => {
                register(&mut m, &mut model, word);
                if let Some(twin) = &mut twin {
                    let (source, pos) =
                        (model.positions.len() - 1, *model.positions.last().unwrap());
                    twin.register_radio(source, pos, source as u64);
                }
            }
            _ => {}
        }
        assert_eq!(m.tx_stats(), model.stats);
        assert_eq!(m.live_count(), model.live());
        if let Some(twin) = &twin {
            assert_eq!(twin.tx_stats(), model.stats);
            assert_eq!(twin.live_count(), model.live());
            assert_eq!(twin.rng_fingerprint(), m.rng_fingerprint());
        }
    }
    // Whatever is still retained survives a final round trip intact.
    let mut back = roundtrip(&m);
    for t in &model.txs {
        let id = t.id;
        assert_eq!(back.delivery_time(id), m.delivery_time(id));
        if t.retained {
            let (a, b) = (back.receive(id).unwrap(), m.receive(id).unwrap());
            assert_eq!((a.bits, a.collision_mask), (b.bits, b.collision_mask));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn non_spatial_store_matches_the_model(ops in prop::collection::vec((0u8..16, any::<u64>()), 1..400)) {
        check(false, &ops);
    }

    #[test]
    fn spatial_store_matches_the_model(ops in prop::collection::vec((0u8..16, any::<u64>()), 1..400)) {
        check(true, &ops);
    }

    /// 1-, 3- and 5-slot packets mixed with short ones: the longest air
    /// time, which sets how far the on-air index reaches back, changes
    /// mid-run.
    #[test]
    fn mixed_slot_packets_match_the_model(
        spatial in any::<bool>(),
        ops in prop::collection::vec((0u8..16, any::<u64>()), 1..400),
    ) {
        let shape = Shape { multi_slot: true, ..PLAIN };
        check_shaped(spatial, shape, &ops);
    }

    /// A long retention keeps packets receivable long after the on-air
    /// index has moved past them, so most receives take the store scan.
    #[test]
    fn late_receives_match_the_model(
        spatial in any::<bool>(),
        ops in prop::collection::vec((0u8..16, any::<u64>()), 1..400),
    ) {
        let shape = Shape { multi_slot: true, retention_us: (40_000, 20_000), fork_at: None };
        check_shaped(spatial, shape, &ops);
    }

    /// Retentions down to 20 µs, shorter than most packets' air time:
    /// `gc` collects transmissions while they are still on air.
    #[test]
    fn retention_shorter_than_air_time_matches_the_model(
        spatial in any::<bool>(),
        ops in prop::collection::vec((0u8..16, any::<u64>()), 1..400),
    ) {
        let shape = Shape { multi_slot: true, retention_us: (100, 20), fork_at: None };
        check_shaped(spatial, shape, &ops);
    }

    /// A copy decoded mid-run and then driven on with the original
    /// answers every later query exactly like it.
    #[test]
    fn decoded_medium_continues_like_the_original(
        spatial in any::<bool>(),
        fork_at in 0usize..200,
        ops in prop::collection::vec((0u8..16, any::<u64>()), 1..400),
    ) {
        let shape = Shape { multi_slot: true, fork_at: Some(fork_at), ..PLAIN };
        check_shaped(spatial, shape, &ops);
    }
}
