//! Criterion bench of the per-packet hot path: the word-parallel coding
//! primitives (`coding_hotpath`) and the medium's scans (`medium_scaling`).
//! The `bench_hotpath` binary records the same quantities as
//! `BENCH_hotpath.json` for CI trend tracking; methodology in
//! `docs/PERF.md`.

use btsim_baseband::packet::{self, Header, LinkKeys, Payload};
use btsim_baseband::{Llid, PacketType};
use btsim_channel::{ChannelConfig, Medium};
use btsim_coding::{crc, fec, syncword, BitVec, Whitener};
use btsim_kernel::{SimDuration, SimRng, SimTime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn keys() -> LinkKeys {
    LinkKeys {
        lap: 0x2C7F91,
        uap: 0x47,
        whiten: 0x15,
        sync_threshold: syncword::DEFAULT_SYNC_THRESHOLD,
        fhs_fec: true,
    }
}

fn bench_coding_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding_hotpath");
    let dh5_body = BitVec::from_fn(2728, |i| i % 3 == 0);
    let dm5_body = BitVec::from_fn(1810, |i| i % 5 < 2);
    let dm5_coded = fec::fec23_encode(&dm5_body);
    group.bench_function("whiten_2728b", |b| {
        b.iter(|| black_box(Whitener::from_clk(0x15).whiten(&dh5_body)))
    });
    group.bench_function("fec23_encode_1810b", |b| {
        b.iter(|| black_box(fec::fec23_encode(&dm5_body)))
    });
    group.bench_function("fec23_decode_2715b", |b| {
        b.iter(|| black_box(fec::fec23_decode(&dm5_coded)))
    });
    group.bench_function("crc16_2728b", |b| {
        b.iter(|| black_box(crc::crc16_bits(0x47, &dh5_body)))
    });
    let header = Header {
        lt_addr: 1,
        ptype: PacketType::Dh5,
        flow: true,
        arqn: false,
        seqn: false,
    };
    let payload = Payload::Acl {
        llid: Llid::Start,
        flow: false,
        data: vec![0xA5; 339],
    };
    let mut codec = packet::Codec::new();
    let air = codec.encode(&keys(), &header, &payload);
    group.bench_function("encode_dh5", |b| {
        b.iter(|| black_box(codec.encode(&keys(), &header, &payload)))
    });
    group.bench_function("decode_dh5", |b| {
        b.iter(|| black_box(packet::decode(&air, None, &keys()).expect("clean")))
    });
    group.finish();
}

fn bench_medium_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("medium_scaling");
    group.sample_size(10);
    for (retained, spread) in [(1usize, false), (64, false), (512, false), (512, true)] {
        let name = format!(
            "tx_rx_gc_retain{retained}_{}",
            if spread { "spread79" } else { "cochannel" }
        );
        group.bench_function(&name, |b| {
            let mut m = Medium::new(ChannelConfig::default(), SimRng::new(7));
            let bits = BitVec::from_fn(366, |i| i % 2 == 0);
            let retention = SimDuration::from_us(retained as u64 * 1000);
            let mut at = SimTime::ZERO;
            let mut ch = 0u8;
            b.iter(|| {
                let tx = m.begin_tx(0, if spread { ch } else { 40 }, at, bits.clone());
                black_box(m.receive(tx).expect("retained"));
                m.gc(at, retention);
                at += SimDuration::from_us(1000);
                ch = (ch + 1) % 79;
            })
        });
    }
    group.finish();
}

criterion_group!(hotpath, bench_coding_hotpath, bench_medium_scaling);
criterion_main!(hotpath);
