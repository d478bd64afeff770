//! Pins the snapshot wire bytes (format version 4) across builds.
//!
//! `tests/snapshot_equivalence.rs` proves a roundtrip is lossless
//! within one build, but a codec that swapped two same-width fields on
//! both sides would still roundtrip. This test fixes the bytes
//! themselves: for a set of snapshots taken at fixed instants of fixed
//! scenarios it asserts `(name, byte length, FNV-1a-64)` under both
//! engines and all three fidelity tiers.
//!
//! Any change to a snapshotted field changes these values. Such a
//! change must bump `SimSnapshot`'s format version and re-pin the table
//! in the same commit (`docs/SNAPSHOT.md`, "Adding state"); on a
//! mismatch the test prints the full table as the current build
//! computes it.
//!
//! `metrics_every` stays off: the metrics stream stores a wall-clock
//! heartbeat in its lines, so those bytes differ from run to run.

use btsim::baseband::hop::ChannelMap;
use btsim::baseband::{LcCommand, PacketType, ScoParams, SniffParams};
use btsim::core::net::{
    DenseFloorConfig, DenseFloorScenario, ScatternetConfig, ScatternetScenario,
};
use btsim::core::scenario::{connect_pair, paper_config, Scenario};
use btsim::core::{Engine, FaultPlan, Fidelity, SimBuilder, SimConfig, Simulator};
use btsim::kernel::{SimDuration, SimTime};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_slots(sim: &mut Simulator, slots: u64) {
    sim.run_until(sim.now() + SimDuration::from_slots(slots));
}

/// One snapshot taken by a scenario script.
struct Pin {
    name: String,
    len: usize,
    fnv: u64,
}

fn pin(out: &mut Vec<Pin>, tag: &str, name: &str, sim: &Simulator) {
    let bytes = sim.snapshot().to_bytes();
    out.push(Pin {
        name: format!("{tag}/{name}"),
        len: bytes.len(),
        fnv: fnv1a64(&bytes),
    });
}

/// A connected pair through an LMP-negotiated mode sequence: mid-ACL
/// transfer, an SCO link then sniff, hold, and park. Each snapshot
/// lands with LMP transactions or mode instants still pending.
fn link_modes(cfg: &SimConfig, tag: &str, out: &mut Vec<Pin>) {
    let mut b = SimBuilder::new(3, cfg.clone());
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("pair connects");
    sim.lm_request(m, |lm, slot| lm.start_setup(lt, slot));
    sim.command(m, LcCommand::SetTpoll(4));
    sim.command(
        m,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0xA5; 4_000],
        },
    );
    sim.command(
        s,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0x3C; 1_500],
        },
    );
    run_slots(&mut sim, 240);
    pin(out, tag, "acl_mid_transfer", &sim);

    let d_sco = sim.lc(m).clkn(sim.now()).slot().wrapping_add(8) & !1;
    let sco = ScoParams::for_type(PacketType::Hv3, d_sco);
    sim.lm_request(m, |lm, slot| lm.request_sco(lt, sco, slot));
    run_slots(&mut sim, 200);
    sim.command(
        m,
        LcCommand::ScoData {
            lt_addr: lt,
            data: vec![0x11; 600],
        },
    );
    let sniff = SniffParams {
        t_sniff: 40,
        n_attempt: 2,
        d_sniff: 0,
        n_timeout: 1,
    };
    sim.lm_request(m, |lm, slot| lm.request_sniff(lt, sniff, slot));
    run_slots(&mut sim, 160);
    pin(out, tag, "sco_then_sniff", &sim);

    sim.lm_request(m, |lm, slot| lm.request_unsniff(lt, slot));
    run_slots(&mut sim, 300);
    sim.lm_request(m, |lm, slot| lm.request_hold(lt, 1_000, slot));
    run_slots(&mut sim, 200);
    pin(out, tag, "hold", &sim);

    run_slots(&mut sim, 1_200);
    sim.lm_request(m, |lm, slot| lm.request_park(lt, 50, slot));
    run_slots(&mut sim, 300);
    pin(out, tag, "park", &sim);
}

/// A pending AFH switch: one armed over LMP, one queued as a timed
/// `SetAfhAt` command on the calendar.
fn afh_pending(cfg: &SimConfig, tag: &str, out: &mut Vec<Pin>) {
    let mut b = SimBuilder::new(5, cfg.clone());
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("pair connects");
    let map = ChannelMap::blocking(20..50);
    sim.lm_request(m, |lm, slot| lm.request_set_afh(lt, map.clone(), slot));
    let at_slot = sim.now().slots() + 900;
    sim.command_at(
        s,
        LcCommand::SetAfhAt {
            map: ChannelMap::blocking(10..30),
            at_slot,
        },
        sim.now() + SimDuration::from_slots(400),
    );
    run_slots(&mut sim, 30);
    pin(out, tag, "set_afh_at_pending", &sim);
}

/// Inquiry against an inquiry scanner next to a page scanner, with
/// waveform tracing and packet capture on.
fn discovery_traced(cfg: &SimConfig, tag: &str, out: &mut Vec<Pin>) {
    let mut cfg = cfg.clone();
    cfg.trace = true;
    cfg.capture = true;
    let mut b = SimBuilder::new(7, cfg);
    let m = b.add_device("master");
    let s1 = b.add_device("inquiry_scanner");
    let s2 = b.add_device("page_scanner");
    let mut sim = b.build();
    sim.command(s1, LcCommand::InquiryScan);
    sim.command(s2, LcCommand::PageScan);
    sim.command(
        m,
        LcCommand::Inquiry {
            num_responses: 2,
            timeout_slots: 0,
        },
    );
    run_slots(&mut sim, 700);
    pin(out, tag, "inquiry_page_scan_traced", &sim);
}

/// A formed 3-piconet scatternet, then 1,500 slots into a fault plan
/// with a crashed device, a degraded link and a noise burst all active.
fn scatternet(cfg: &SimConfig, tag: &str, out: &mut Vec<Pin>) {
    let mut cfg = cfg.clone();
    cfg.faults = FaultPlan::parse(
        "crash@400:dev=2;degrade@600:dev=3,ber=0.02,ramp=300;\
         noise_on@800:lo=30,width=10,duty=0.5;revive@2400:dev=2;heal@2600:dev=3;\
         noise_off@3000:lo=30,width=10",
    )
    .expect("fault spec parses");
    cfg.lc.supervision_timeout_slots = 900;
    let scenario = ScatternetScenario::new(ScatternetConfig {
        piconets: 3,
        measure_slots: 3_000,
        sim: cfg,
        ..ScatternetConfig::default()
    });
    let mut sim = scenario.form(11).expect("scatternet forms");
    pin(out, tag, "scatternet_formed", &sim);
    run_slots(&mut sim, 1_500);
    pin(out, tag, "scatternet_faulted_1500", &sim);
}

/// A formed 2×2 dense floor, monolithic and split into worlds.
fn dense_floor(cfg: &SimConfig, tag: &str, out: &mut Vec<Pin>) {
    for shards in [1usize, 4] {
        let mut floor = DenseFloorConfig {
            grid: (2, 2),
            measure_slots: 1_500,
            ..DenseFloorConfig::default()
        };
        floor.sim.engine = cfg.engine;
        floor.sim.fidelity = cfg.fidelity;
        floor.sim.shards = shards;
        let scenario = DenseFloorScenario::new(floor);
        let mut sim = scenario.form(13).expect("floor forms");
        run_slots(&mut sim, 300);
        pin(out, tag, &format!("dense_floor_2x2_shards{shards}"), &sim);
    }
}

fn compute() -> Vec<Pin> {
    let mut out = Vec::new();
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        for fidelity in [Fidelity::Bit, Fidelity::Stat, Fidelity::Auto] {
            let tag = format!("{engine:?}-{fidelity:?}").to_lowercase();
            let mut cfg = paper_config();
            cfg.engine = engine;
            cfg.fidelity = fidelity;
            link_modes(&cfg, &tag, &mut out);
            afh_pending(&cfg, &tag, &mut out);
            discovery_traced(&cfg, &tag, &mut out);
            scatternet(&cfg, &tag, &mut out);
            dense_floor(&cfg, &tag, &mut out);
        }
    }
    out
}

/// `(name, byte length, FNV-1a-64)` of each snapshot, format version 4.
const PINNED: &[(&str, usize, u64)] = &[
    ("lockstep-bit/acl_mid_transfer", 28837, 0x06bed88fc6b94d9f),
    ("lockstep-bit/sco_then_sniff", 37106, 0x3d9a485bbf4b3cc7),
    ("lockstep-bit/hold", 45288, 0x2b5f5443aa690f6f),
    ("lockstep-bit/park", 65639, 0xbccff2df9c800b69),
    ("lockstep-bit/set_afh_at_pending", 7045, 0xb09ebfb9e4eefa02),
    (
        "lockstep-bit/inquiry_page_scan_traced",
        97798,
        0x28cc1744d8dfad97,
    ),
    ("lockstep-bit/scatternet_formed", 17780, 0xc57ac3fc558beaf9),
    (
        "lockstep-bit/scatternet_faulted_1500",
        14580,
        0x29f52c4ee0fb8175,
    ),
    (
        "lockstep-bit/dense_floor_2x2_shards1",
        28004,
        0xdd155bbdf3342d12,
    ),
    (
        "lockstep-bit/dense_floor_2x2_shards4",
        38446,
        0x1c99b47d5a779c30,
    ),
    ("lockstep-stat/acl_mid_transfer", 25099, 0x1d8115494aa0070d),
    ("lockstep-stat/sco_then_sniff", 37058, 0xb65a9b31fa963ff9),
    ("lockstep-stat/hold", 45324, 0x8c92fa47dccbad3c),
    ("lockstep-stat/park", 65675, 0x259912bc0a54d21d),
    ("lockstep-stat/set_afh_at_pending", 7045, 0xb2bbc40a764d62f0),
    (
        "lockstep-stat/inquiry_page_scan_traced",
        97798,
        0x28cc1744d8dfad97,
    ),
    ("lockstep-stat/scatternet_formed", 17780, 0xee1578c627a78e54),
    (
        "lockstep-stat/scatternet_faulted_1500",
        14580,
        0x3d29028079d62f7c,
    ),
    (
        "lockstep-stat/dense_floor_2x2_shards1",
        28004,
        0x448367b9cc20a5af,
    ),
    (
        "lockstep-stat/dense_floor_2x2_shards4",
        38446,
        0xb85c5cd576f28a10,
    ),
    ("lockstep-auto/acl_mid_transfer", 25099, 0xaa8b6c8207e18d7e),
    ("lockstep-auto/sco_then_sniff", 37058, 0x285c1030354659e6),
    ("lockstep-auto/hold", 45324, 0x6f276d238867487f),
    ("lockstep-auto/park", 65675, 0x5912405ee6a4e8ca),
    ("lockstep-auto/set_afh_at_pending", 7045, 0x6273714f0b96264f),
    (
        "lockstep-auto/inquiry_page_scan_traced",
        97798,
        0x28cc1744d8dfad97,
    ),
    ("lockstep-auto/scatternet_formed", 17780, 0xb9776bca6233d8eb),
    (
        "lockstep-auto/scatternet_faulted_1500",
        14580,
        0x6d4cb0ae1680b1b3,
    ),
    (
        "lockstep-auto/dense_floor_2x2_shards1",
        28004,
        0xc0b7e43c6a45b66c,
    ),
    (
        "lockstep-auto/dense_floor_2x2_shards4",
        38446,
        0xddd982cee07f5688,
    ),
    (
        "eventdriven-bit/acl_mid_transfer",
        28744,
        0x0e76152f762c72d2,
    ),
    ("eventdriven-bit/sco_then_sniff", 37206, 0x1faa6d3cfbb7ab72),
    ("eventdriven-bit/hold", 45111, 0xa279a86f21ef174d),
    ("eventdriven-bit/park", 65655, 0x6ed9777a9585c4b4),
    (
        "eventdriven-bit/set_afh_at_pending",
        7036,
        0x81fbc6550474a0f5,
    ),
    (
        "eventdriven-bit/inquiry_page_scan_traced",
        97797,
        0x73850acf1fb8b9c2,
    ),
    (
        "eventdriven-bit/scatternet_formed",
        17669,
        0x4691890c10c7919f,
    ),
    (
        "eventdriven-bit/scatternet_faulted_1500",
        14470,
        0x931eba326c8fe78e,
    ),
    (
        "eventdriven-bit/dense_floor_2x2_shards1",
        27757,
        0xc35edcadb4ff3b01,
    ),
    (
        "eventdriven-bit/dense_floor_2x2_shards4",
        38274,
        0xbf86bc0450af73d8,
    ),
    (
        "eventdriven-stat/acl_mid_transfer",
        25090,
        0x989e322563a5bf08,
    ),
    ("eventdriven-stat/sco_then_sniff", 37242, 0xb3a06a3c90deae2b),
    ("eventdriven-stat/hold", 45147, 0xf5d3b5faa7ea0bc1),
    ("eventdriven-stat/park", 65691, 0x1fdb403d4d662869),
    (
        "eventdriven-stat/set_afh_at_pending",
        7036,
        0xc407ef5d76b57b27,
    ),
    (
        "eventdriven-stat/inquiry_page_scan_traced",
        97797,
        0x73850acf1fb8b9c2,
    ),
    (
        "eventdriven-stat/scatternet_formed",
        17669,
        0xcaa216b5d1b6781e,
    ),
    (
        "eventdriven-stat/scatternet_faulted_1500",
        14470,
        0x566793197ebe45ff,
    ),
    (
        "eventdriven-stat/dense_floor_2x2_shards1",
        27757,
        0x626bfb3391271d4c,
    ),
    (
        "eventdriven-stat/dense_floor_2x2_shards4",
        38274,
        0xe35227ce393f5350,
    ),
    (
        "eventdriven-auto/acl_mid_transfer",
        25090,
        0x4f07b187c9e7aecf,
    ),
    ("eventdriven-auto/sco_then_sniff", 37242, 0x1ee41ac5e392ced0),
    ("eventdriven-auto/hold", 45147, 0x1126e5bfc28da37e),
    ("eventdriven-auto/park", 65691, 0x59f5fae98bbecfbe),
    (
        "eventdriven-auto/set_afh_at_pending",
        7036,
        0xaba72186422b0cac,
    ),
    (
        "eventdriven-auto/inquiry_page_scan_traced",
        97797,
        0x73850acf1fb8b9c2,
    ),
    (
        "eventdriven-auto/scatternet_formed",
        17669,
        0xbc9c6b01a54e18e9,
    ),
    (
        "eventdriven-auto/scatternet_faulted_1500",
        14470,
        0x02ce47dda0e4bd64,
    ),
    (
        "eventdriven-auto/dense_floor_2x2_shards1",
        27757,
        0xec034a11c9d9aadf,
    ),
    (
        "eventdriven-auto/dense_floor_2x2_shards4",
        38274,
        0x1d76a8d5c01dedd0,
    ),
];

#[test]
fn snapshot_wire_bytes_are_pinned() {
    let got = compute();
    let table: String = got
        .iter()
        .map(|p| format!("    (\"{}\", {}, {:#018x}),\n", p.name, p.len, p.fnv))
        .collect();
    let same = got.len() == PINNED.len()
        && got
            .iter()
            .zip(PINNED)
            .all(|(p, &(name, len, fnv))| p.name == name && p.len == len && p.fnv == fnv);
    assert!(
        same,
        "snapshot wire bytes changed; this build computes:\n{table}\
         A deliberate change must bump the format version and re-pin this table."
    );
}
