//! Pins the snapshot wire bytes (format version 5) across builds.
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

/// `(name, byte length, FNV-1a-64)` of each snapshot, format version 5.
const PINNED: &[(&str, usize, u64)] = &[
    ("lockstep-bit/acl_mid_transfer", 28512, 0x18eeb8bc8beb18d4),
    ("lockstep-bit/sco_then_sniff", 37244, 0x345cb6cbe005fd05),
    ("lockstep-bit/hold", 45457, 0xba25493aabd5b0f5),
    ("lockstep-bit/park", 65661, 0x8f588b606ebc9c4a),
    ("lockstep-bit/set_afh_at_pending", 6878, 0x2c1228e529556813),
    (
        "lockstep-bit/inquiry_page_scan_traced",
        96018,
        0x4a1e22a2c5731aa2,
    ),
    ("lockstep-bit/scatternet_formed", 17250, 0xa88f836c244e44fc),
    (
        "lockstep-bit/scatternet_faulted_1500",
        14604,
        0xe43c111a3500f009,
    ),
    (
        "lockstep-bit/dense_floor_2x2_shards1",
        28014,
        0xa9756120d87acda6,
    ),
    (
        "lockstep-bit/dense_floor_2x2_shards4",
        38528,
        0xd0b731d8e63c8db4,
    ),
    ("lockstep-stat/acl_mid_transfer", 24969, 0xdcf5aa723105433e),
    ("lockstep-stat/sco_then_sniff", 37191, 0x21d12591db70d9b1),
    ("lockstep-stat/hold", 45493, 0xef4fb3bd68a2aea4),
    ("lockstep-stat/park", 65697, 0x6f5de8d3df8a5dcc),
    ("lockstep-stat/set_afh_at_pending", 6878, 0x002b2cbaf3a84acd),
    (
        "lockstep-stat/inquiry_page_scan_traced",
        96018,
        0x4a1e22a2c5731aa2,
    ),
    ("lockstep-stat/scatternet_formed", 17250, 0x60e9aa445a0e46e5),
    (
        "lockstep-stat/scatternet_faulted_1500",
        14604,
        0x43af854606541490,
    ),
    (
        "lockstep-stat/dense_floor_2x2_shards1",
        28014,
        0x83e73bd0cc3dc563,
    ),
    (
        "lockstep-stat/dense_floor_2x2_shards4",
        38528,
        0x6ec236163a5723b8,
    ),
    ("lockstep-auto/acl_mid_transfer", 24969, 0x302993d7628d9d99),
    ("lockstep-auto/sco_then_sniff", 37191, 0x60db0b14b06d256a),
    ("lockstep-auto/hold", 45493, 0xc29d61758cd88d73),
    ("lockstep-auto/park", 65697, 0x303d7a42ff133727),
    ("lockstep-auto/set_afh_at_pending", 6878, 0xce0d7a7a19cac862),
    (
        "lockstep-auto/inquiry_page_scan_traced",
        96018,
        0x4a1e22a2c5731aa2,
    ),
    ("lockstep-auto/scatternet_formed", 17250, 0x87192187dd3d599e),
    (
        "lockstep-auto/scatternet_faulted_1500",
        14604,
        0x4be1ded495e5dac7,
    ),
    (
        "lockstep-auto/dense_floor_2x2_shards1",
        28014,
        0xaad32d84bc4e2448,
    ),
    (
        "lockstep-auto/dense_floor_2x2_shards4",
        38528,
        0x7060c3780efcef14,
    ),
    (
        "eventdriven-bit/acl_mid_transfer",
        28425,
        0xf5538ed3084ddd25,
    ),
    ("eventdriven-bit/sco_then_sniff", 37349, 0xdf1c2b10a12dd273),
    ("eventdriven-bit/hold", 45270, 0x99759cd41e4d12ff),
    ("eventdriven-bit/park", 65677, 0x3ab774a12489f47b),
    (
        "eventdriven-bit/set_afh_at_pending",
        6869,
        0xac4e77d0cc7982be,
    ),
    (
        "eventdriven-bit/inquiry_page_scan_traced",
        96017,
        0x64e59790a13a46d9,
    ),
    (
        "eventdriven-bit/scatternet_formed",
        17139,
        0x1143697f310044fc,
    ),
    (
        "eventdriven-bit/scatternet_faulted_1500",
        14494,
        0xc99536d7cabf96ea,
    ),
    (
        "eventdriven-bit/dense_floor_2x2_shards1",
        27767,
        0x7c93f0506a5e72e3,
    ),
    (
        "eventdriven-bit/dense_floor_2x2_shards4",
        38356,
        0x5daa0b4d6f7805bc,
    ),
    (
        "eventdriven-stat/acl_mid_transfer",
        24960,
        0x2bd5c4b6c5ae7905,
    ),
    ("eventdriven-stat/sco_then_sniff", 37385, 0x5fb0c4f8e601deb7),
    ("eventdriven-stat/hold", 45306, 0x49b5cf57a388ef01),
    ("eventdriven-stat/park", 65713, 0x965ffac853ba30e8),
    (
        "eventdriven-stat/set_afh_at_pending",
        6869,
        0xd7404eb0be1c34ec,
    ),
    (
        "eventdriven-stat/inquiry_page_scan_traced",
        96017,
        0x64e59790a13a46d9,
    ),
    (
        "eventdriven-stat/scatternet_formed",
        17139,
        0x2d76e6fff3d42de9,
    ),
    (
        "eventdriven-stat/scatternet_faulted_1500",
        14494,
        0x88aa2f7952c0a21b,
    ),
    (
        "eventdriven-stat/dense_floor_2x2_shards1",
        27767,
        0xcf657ea680408fc6,
    ),
    (
        "eventdriven-stat/dense_floor_2x2_shards4",
        38356,
        0x7c38e833a39f32a4,
    ),
    (
        "eventdriven-auto/acl_mid_transfer",
        24960,
        0xff7f607521679eb6,
    ),
    ("eventdriven-auto/sco_then_sniff", 37385, 0x5ce99d58f8044f28),
    ("eventdriven-auto/hold", 45306, 0x42c286f50cb4f752),
    ("eventdriven-auto/park", 65713, 0x6e72c86a82a8bff3),
    (
        "eventdriven-auto/set_afh_at_pending",
        6869,
        0xbc1f1781d0e148b7,
    ),
    (
        "eventdriven-auto/inquiry_page_scan_traced",
        96017,
        0x64e59790a13a46d9,
    ),
    (
        "eventdriven-auto/scatternet_formed",
        17139,
        0x356bdcb6f45a3fea,
    ),
    (
        "eventdriven-auto/scatternet_faulted_1500",
        14494,
        0x6373bf75e318feb0,
    ),
    (
        "eventdriven-auto/dense_floor_2x2_shards1",
        27767,
        0x728bdad15da77c85,
    ),
    (
        "eventdriven-auto/dense_floor_2x2_shards4",
        38356,
        0x60aa0029b9742a40,
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
