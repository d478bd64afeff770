//! Pins the snapshot wire bytes (format version 3) across builds.
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

/// `(name, byte length, FNV-1a-64)` of each snapshot, format version 3.
const PINNED: &[(&str, usize, u64)] = &[
    ("lockstep-bit/acl_mid_transfer", 42729, 0x24817bf1355f6ac6),
    ("lockstep-bit/sco_then_sniff", 74830, 0x0e230559fd9741d0),
    ("lockstep-bit/hold", 45788, 0x6ef2600a280cda4a),
    ("lockstep-bit/park", 65843, 0x8a5fdb906a5afe80),
    ("lockstep-bit/set_afh_at_pending", 7041, 0x01c1a228fa8a6e7f),
    (
        "lockstep-bit/inquiry_page_scan_traced",
        125666,
        0xd8ffd57c244a1012,
    ),
    ("lockstep-bit/scatternet_formed", 18448, 0xc22506a59e13da8d),
    (
        "lockstep-bit/scatternet_faulted_1500",
        16448,
        0xa8e482350fb5d39f,
    ),
    (
        "lockstep-bit/dense_floor_2x2_shards1",
        31224,
        0x5bee1bab4d9b43b8,
    ),
    (
        "lockstep-bit/dense_floor_2x2_shards4",
        45590,
        0xd34be5732b1b1965,
    ),
    ("lockstep-stat/acl_mid_transfer", 39075, 0x8d58d16582113a94),
    ("lockstep-stat/sco_then_sniff", 71194, 0x1a718aff8d49850f),
    ("lockstep-stat/hold", 102424, 0x0f0a82fb02989c4c),
    ("lockstep-stat/park", 65723, 0xd7d559bf61561d01),
    ("lockstep-stat/set_afh_at_pending", 7041, 0x86780ed157b27e09),
    (
        "lockstep-stat/inquiry_page_scan_traced",
        125666,
        0xd8ffd57c244a1012,
    ),
    ("lockstep-stat/scatternet_formed", 18448, 0xb9e5b1217e9d9478),
    (
        "lockstep-stat/scatternet_faulted_1500",
        16448,
        0x271d0c2def7a9436,
    ),
    (
        "lockstep-stat/dense_floor_2x2_shards1",
        31224,
        0x95f3f2b12d1bb4cd,
    ),
    (
        "lockstep-stat/dense_floor_2x2_shards4",
        45590,
        0x38bb93abf3c39851,
    ),
    ("lockstep-auto/acl_mid_transfer", 39075, 0x820bd3342a8a111f),
    ("lockstep-auto/sco_then_sniff", 71194, 0x12ec7c856d2e88d0),
    ("lockstep-auto/hold", 102424, 0x35587531f5457ccf),
    ("lockstep-auto/park", 65723, 0xfe0918fc6a07786e),
    ("lockstep-auto/set_afh_at_pending", 7041, 0x71e8747923f34dfe),
    (
        "lockstep-auto/inquiry_page_scan_traced",
        125666,
        0xd8ffd57c244a1012,
    ),
    ("lockstep-auto/scatternet_formed", 18448, 0xa383a38beda950bf),
    (
        "lockstep-auto/scatternet_faulted_1500",
        16448,
        0xf8fbabf7d82bd201,
    ),
    (
        "lockstep-auto/dense_floor_2x2_shards1",
        31224,
        0xf834db254455997e,
    ),
    (
        "lockstep-auto/dense_floor_2x2_shards4",
        45590,
        0xa949cafae82a4ce1,
    ),
    (
        "eventdriven-bit/acl_mid_transfer",
        42720,
        0x52173719636edab7,
    ),
    ("eventdriven-bit/sco_then_sniff", 74846, 0x792b17f436644535),
    ("eventdriven-bit/hold", 106051, 0x06921c3f35b0de8d),
    ("eventdriven-bit/park", 79587, 0x2f582d591edcf2fc),
    (
        "eventdriven-bit/set_afh_at_pending",
        7032,
        0x55620dfd335cd964,
    ),
    (
        "eventdriven-bit/inquiry_page_scan_traced",
        125665,
        0x532cedc0d43f2787,
    ),
    (
        "eventdriven-bit/scatternet_formed",
        18337,
        0x815f8eacc6baaf67,
    ),
    (
        "eventdriven-bit/scatternet_faulted_1500",
        14830,
        0xf3859a0160397fe5,
    ),
    (
        "eventdriven-bit/dense_floor_2x2_shards1",
        34913,
        0xa4e52d9c5af3eec3,
    ),
    (
        "eventdriven-bit/dense_floor_2x2_shards4",
        45418,
        0x9c5ab7e1f1095808,
    ),
    (
        "eventdriven-stat/acl_mid_transfer",
        39066,
        0x7407ffecd510d431,
    ),
    ("eventdriven-stat/sco_then_sniff", 71210, 0x16acbee473fa3dd6),
    ("eventdriven-stat/hold", 102415, 0x777ba3cba0671a1f),
    ("eventdriven-stat/park", 76255, 0x1706b54f0be3db69),
    (
        "eventdriven-stat/set_afh_at_pending",
        7032,
        0x5afa07ad8fd999ba,
    ),
    (
        "eventdriven-stat/inquiry_page_scan_traced",
        125665,
        0x532cedc0d43f2787,
    ),
    (
        "eventdriven-stat/scatternet_formed",
        18337,
        0x152f883e418c5d26,
    ),
    (
        "eventdriven-stat/scatternet_faulted_1500",
        14830,
        0xf15187992ce5f3e4,
    ),
    (
        "eventdriven-stat/dense_floor_2x2_shards1",
        34913,
        0xead2fd5d94dba346,
    ),
    (
        "eventdriven-stat/dense_floor_2x2_shards4",
        45418,
        0xcd28692fb6db7648,
    ),
    (
        "eventdriven-auto/acl_mid_transfer",
        39066,
        0x9427faf4f4ecf416,
    ),
    ("eventdriven-auto/sco_then_sniff", 71210, 0x048a9b3286ccccad),
    ("eventdriven-auto/hold", 102415, 0xff68847c5f1cd358),
    ("eventdriven-auto/park", 76255, 0x51216ffb4a3c82be),
    (
        "eventdriven-auto/set_afh_at_pending",
        7032,
        0xb92f53af63ab3eb1,
    ),
    (
        "eventdriven-auto/inquiry_page_scan_traced",
        125665,
        0x532cedc0d43f2787,
    ),
    (
        "eventdriven-auto/scatternet_formed",
        18337,
        0xb52077be38373e91,
    ),
    (
        "eventdriven-auto/scatternet_faulted_1500",
        14830,
        0xefe57f8311acf87f,
    ),
    (
        "eventdriven-auto/dense_floor_2x2_shards1",
        34913,
        0x1cfc19aa56d64395,
    ),
    (
        "eventdriven-auto/dense_floor_2x2_shards4",
        45418,
        0x3dc8591aea1b2344,
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
