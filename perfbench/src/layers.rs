//! Per-layer replays for the traced run: each times one layer's public
//! functions on the workload's own packet type, BER and occupancy, so a
//! layer's cost is measured where its work happens.

use std::time::Instant;

use btsim_baseband::packet::{self, Codec, FhsPayload, Header, LinkKeys, Payload};
use btsim_baseband::{BdAddr, Llid, PacketType};
use btsim_channel::{ChannelConfig, Medium};
use btsim_coding::syncword::DEFAULT_SYNC_THRESHOLD;
use btsim_fidelity::ErrorModel;
use btsim_kernel::{SimDuration, SimRng, SimTime};

use crate::stats::median;

/// The packet a workload mostly carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// FHS (inquiry responses and page FHS).
    Fhs,
    /// DM1 carrying `bytes` user bytes.
    Dm1 {
        /// User payload length.
        bytes: usize,
    },
}

/// Median over five batches of `iters` calls of `op`, in ns per call.
fn ns_per_call(iters: u32, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                op();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// `(encode_ns, decode_ns)` of one packet of `kind` through
/// [`Codec::encode`] and [`packet::decode`] on a clean image.
///
/// # Panics
///
/// Panics if the clean image does not decode — a broken codec, which
/// the traced run must not report timings for.
pub fn coding_replay(kind: PacketKind, iters: u32) -> (f64, f64) {
    let keys = LinkKeys {
        lap: 0x2C_7F91,
        uap: 0x47,
        whiten: 0x15,
        sync_threshold: DEFAULT_SYNC_THRESHOLD,
        fhs_fec: true,
    };
    let (ptype, payload) = match kind {
        PacketKind::Fhs => (
            PacketType::Fhs,
            Payload::Fhs(FhsPayload {
                addr: BdAddr::new(0x0012, 0x47, 0x2C_7F91),
                class_of_device: 0x5A_020C,
                lt_addr: 1,
                clk27_2: 0x12_3456,
                page_scan_mode: 0,
                sr: 1,
                sp: 0,
            }),
        ),
        PacketKind::Dm1 { bytes } => (
            PacketType::Dm1,
            Payload::Acl {
                llid: Llid::Start,
                flow: true,
                data: vec![0x5A; bytes],
            },
        ),
    };
    let header = Header {
        lt_addr: 1,
        ptype,
        flow: true,
        arqn: false,
        seqn: false,
    };
    let mut codec = Codec::new();
    let encode = ns_per_call(iters, || {
        std::hint::black_box(codec.encode(&keys, &header, &payload));
    });
    let air = codec.encode(&keys, &header, &payload);
    assert!(
        packet::decode(&air, None, &keys).is_ok(),
        "a clean {kind:?} image must decode"
    );
    let decode = ns_per_call(iters, || {
        std::hint::black_box(packet::decode(&air, None, &keys).ok());
    });
    (encode, decode)
}

/// µs per `Medium::begin_tx` + `receive` + `gc` round trip at `ber`
/// with `retained` earlier transmissions kept on the same RF channel,
/// for a packet of `air_bits` bits.
///
/// # Panics
///
/// Panics if a transmission just begun cannot be received.
pub fn channel_replay(ber: f64, retained: usize, air_bits: usize, iters: u32) -> f64 {
    let cfg = ChannelConfig {
        ber,
        ..ChannelConfig::default()
    };
    let mut medium = Medium::new(cfg, SimRng::new(7));
    let bits = btsim_coding::BitVec::from_fn(air_bits, |i| i % 3 == 0);
    let spacing = SimDuration::from_us(1_250);
    let retention = SimDuration::from_us(1_250 * retained.max(1) as u64);
    let mut at = SimTime::ZERO;
    let mut step = || {
        let tx = medium.begin_tx(0, 40, at, bits.clone());
        std::hint::black_box(
            medium
                .receive(tx)
                .expect("a live transmission is receivable"),
        );
        medium.gc(at, retention);
        at += spacing;
    };
    for _ in 0..retained {
        step();
    }
    ns_per_call(iters, step) / 1_000.0
}

/// Host ms of one `ErrorModel::new`. The first call in a process also
/// builds the model's shared FEC 2/3 table, which is what a simulator
/// build pays at start-up, so the traced run calls this first.
pub fn model_build_ms(ber: f64) -> f64 {
    let started = Instant::now();
    std::hint::black_box(ErrorModel::new(ber, DEFAULT_SYNC_THRESHOLD));
    started.elapsed().as_secs_f64() * 1e3
}

/// Air bits of one `kind` packet (1 bit = 1 µs of air time).
pub fn air_bits(kind: PacketKind) -> usize {
    match kind {
        PacketKind::Fhs => packet::air_bits(PacketType::Fhs, 0, true),
        PacketKind::Dm1 { bytes } => packet::air_bits(PacketType::Dm1, bytes, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_measure_positive_costs() {
        let (enc, dec) = coding_replay(PacketKind::Dm1 { bytes: 17 }, 50);
        assert!(enc > 0.0 && dec > 0.0);
        let (enc, dec) = coding_replay(PacketKind::Fhs, 50);
        assert!(enc > 0.0 && dec > 0.0);
        assert!(channel_replay(1e-4, 4, air_bits(PacketKind::Dm1 { bytes: 17 }), 50) > 0.0);
        assert!(model_build_ms(1e-4) > 0.0);
    }
}
