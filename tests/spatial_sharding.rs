//! Differential tests for the spatial medium and intra-run sharding
//! (`docs/SPATIAL.md`).
//!
//! The sharding determinism contract: for a fixed shard layout (device
//! positions + cell size), a sharded run is **bit-identical** to the
//! unsharded run — same per-device event streams, same clocks, same TX
//! stats, same power ledgers, same RNG fingerprints — for any worker
//! cap, any campaign thread count and both engines. The one permitted
//! presentation difference is the merged log's ordering of *different
//! devices'* events at the *same instant* (the shell normalizes it to
//! device order), so full-state comparisons here project the log per
//! device.

use btsim::baseband::LcCommand;
use btsim::channel::Position;
use btsim::core::campaign::Campaign;
use btsim::core::net::{DenseFloorConfig, DenseFloorScenario};
use btsim::core::scenario::{connect_pair, Scenario};
use btsim::core::{Engine, Fidelity, SimBuilder, Simulator};
use btsim::kernel::{SimDuration, SimTime};

/// Everything deterministic about a finished simulation, with the event
/// and LM logs projected per device (cross-device same-instant ordering
/// is presentation, not state).
///
/// `with_power` includes each device's power ledger. Shard invariance
/// covers it; cross-engine comparisons leave it out, matching the
/// engine-equivalence contract (`tests/engine_equivalence.rs`), because
/// the engines account idle slave listen windows slightly differently.
fn per_device_digest(sim: &Simulator, with_power: bool) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "now={:?} tx={:?} quality={:?} ber={} rng={:#x} steps>0={}\n",
        sim.now(),
        sim.tx_stats(),
        sim.channel_quality().total(),
        sim.measured_ber(),
        sim.rng_fingerprint(),
        sim.steps_total() > 0,
    );
    for d in 0..sim.device_count() {
        let events: Vec<_> = sim.events().iter().filter(|e| e.device == d).collect();
        let lm: Vec<_> = sim.lm_events().iter().filter(|e| e.device == d).collect();
        write!(out, "dev{d}: events={events:?} lm={lm:?}").expect("string write");
        if with_power {
            write!(out, " power={:?}", sim.power_report(d)).expect("string write");
        }
        out.push('\n');
    }
    out
}

/// Two saturated master+slave clusters 100 m apart (two interference
/// components), driven through connect + saturate + run.
fn two_cluster_run(engine: Engine, fidelity: Fidelity, shards: usize, seed: u64) -> String {
    let mut cfg = DenseFloorConfig::default().sim;
    cfg.engine = engine;
    cfg.fidelity = fidelity;
    cfg.shards = shards;
    let mut b = SimBuilder::new(seed, cfg);
    let m0 = b.add_device_at("m0", Position::ORIGIN);
    let s0 = b.add_device_at("s0", Position::ORIGIN);
    let m1 = b.add_device_at("m1", Position::new(100.0, 0.0));
    let s1 = b.add_device_at("s1", Position::new(100.0, 0.0));
    let mut sim = b.build();
    let cap = SimTime::from_us(60_000_000);
    let lt0 = connect_pair(&mut sim, m0, s0, cap).expect("cluster 0 connects");
    let lt1 = connect_pair(&mut sim, m1, s1, cap).expect("cluster 1 connects");
    for (m, lt) in [(m0, lt0), (m1, lt1)] {
        sim.command(m, LcCommand::SetTpoll(2));
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; 2_000 * 9],
            },
        );
    }
    sim.run_until(sim.now() + SimDuration::from_slots(2_000));
    per_device_digest(&sim, true)
}

#[test]
fn sharded_two_cluster_run_is_bit_identical_to_mono() {
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        for fidelity in [Fidelity::Bit, Fidelity::Auto] {
            let mono = two_cluster_run(engine, fidelity, 1, 0xD1FF);
            for shards in [2, 8] {
                assert_eq!(
                    mono,
                    two_cluster_run(engine, fidelity, shards, 0xD1FF),
                    "{engine:?}/{fidelity:?}: {shards} shards diverged from mono"
                );
            }
        }
    }
}

/// The dense-floor scenario end to end (formation through the measured
/// window).
fn floor_digest(engine: Engine, shards: usize, seed: u64, with_power: bool) -> String {
    let scenario = DenseFloorScenario::new(DenseFloorConfig {
        grid: (2, 2),
        measure_slots: 1_000,
        sim: {
            let mut sim = DenseFloorConfig::default().sim;
            sim.engine = engine;
            sim.shards = shards;
            sim
        },
        ..DenseFloorConfig::default()
    });
    let mut sim = scenario.build(seed);
    let out = scenario.drive(&mut sim);
    format!("{out:?}\n{}", per_device_digest(&sim, with_power))
}

#[test]
fn dense_floor_scenario_is_shard_and_engine_invariant() {
    // Worker-cap invariance holds for the full state, power included.
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        let mono = floor_digest(engine, 1, 42, true);
        for shards in [2, 8] {
            assert_eq!(
                mono,
                floor_digest(engine, shards, 42, true),
                "{engine:?} at {shards} shards diverged"
            );
        }
    }
    // Engine agreement covers the engine-equivalence digest surface
    // (logs, clock, TX stats, BER, RNG) — see `per_device_digest`.
    assert_eq!(
        floor_digest(Engine::Lockstep, 1, 42, false),
        floor_digest(Engine::EventDriven, 1, 42, false),
        "engines diverged on the dense floor"
    );
}

/// A whole Monte-Carlo campaign over the dense floor: the rendered JSON
/// (aggregates + every per-run record) must be identical across worker
/// shard caps, campaign thread counts and engines.
fn floor_campaign_json(engine: Engine, shards: usize, threads: usize) -> String {
    let scenario = DenseFloorScenario::new(DenseFloorConfig {
        grid: (2, 1),
        measure_slots: 1_000,
        sim: {
            let mut sim = DenseFloorConfig::default().sim;
            sim.engine = engine;
            sim.shards = shards;
            sim
        },
        ..DenseFloorConfig::default()
    });
    Campaign::new(scenario)
        .runs(2)
        .threads(threads)
        .base_seed(0xF100B)
        .run()
        .to_json()
        .render()
}

#[test]
fn dense_floor_campaign_is_shard_thread_and_engine_invariant() {
    let baseline = floor_campaign_json(Engine::Lockstep, 1, 1);
    for (engine, shards, threads) in [
        (Engine::Lockstep, 2, 1),
        (Engine::Lockstep, 8, 4),
        (Engine::Lockstep, 1, 4),
        (Engine::EventDriven, 1, 1),
        (Engine::EventDriven, 8, 2),
    ] {
        assert_eq!(
            baseline,
            floor_campaign_json(engine, shards, threads),
            "{engine:?} shards={shards} threads={threads} diverged"
        );
    }
}

/// Auto-fidelity run of one cell-interior pair next to a formed far
/// out-of-range cluster that is either silent or saturated. Both runs
/// share the exact same topology and formation timeline, so the only
/// difference is the boundary cluster's traffic. Returns the interior
/// pair's per-device projection plus its promotion gauge.
fn interior_pair_run(far_cluster_busy: bool, seed: u64) -> (String, bool) {
    let mut cfg = DenseFloorConfig::default().sim;
    cfg.fidelity = Fidelity::Auto;
    let mut b = SimBuilder::new(seed, cfg);
    let m0 = b.add_device_at("m0", Position::ORIGIN);
    let s0 = b.add_device_at("s0", Position::ORIGIN);
    let m1 = b.add_device_at("m1", Position::new(200.0, 0.0));
    let s1 = b.add_device_at("s1", Position::new(200.0, 0.0));
    let mut sim = b.build();
    let cap = SimTime::from_us(60_000_000);
    let lt0 = connect_pair(&mut sim, m0, s0, cap).expect("interior pair connects");
    let lt1 = connect_pair(&mut sim, m1, s1, cap).expect("far pair connects");
    if far_cluster_busy {
        // The boundary cluster's traffic is in full swing around every
        // stat-batch decision the interior pair makes.
        sim.command(m1, LcCommand::SetTpoll(2));
        sim.command(
            m1,
            LcCommand::AclData {
                lt_addr: lt1,
                data: vec![0xA5; 4_000 * 9],
            },
        );
    }
    sim.command(m0, LcCommand::SetTpoll(2));
    sim.command(
        m0,
        LcCommand::AclData {
            lt_addr: lt0,
            data: vec![0x5A; 4_000 * 9],
        },
    );
    sim.run_until(sim.now() + SimDuration::from_slots(4_000));
    use std::fmt::Write;
    let mut digest = String::new();
    for d in [0usize, 1] {
        let events: Vec<_> = sim.events().iter().filter(|e| e.device == d).collect();
        let lm: Vec<_> = sim.lm_events().iter().filter(|e| e.device == d).collect();
        writeln!(
            digest,
            "dev{d}: events={events:?} lm={lm:?} power={:?}",
            sim.power_report(d)
        )
        .expect("string write");
    }
    let promoted = sim
        .metrics_snapshot()
        .gauges()
        .iter()
        .any(|(name, value)| name == "dev0.fidelity.promoted" && *value > 0.0);
    (digest, promoted)
}

/// Promoting a cell-interior link to the statistical tier must neither
/// be blocked by a busy out-of-range cluster nor observe it mid-batch:
/// the interior pair's entire evolution — every event, power ledger and
/// RNG draw — is identical whether the boundary cluster is silent or
/// saturated.
#[test]
fn stat_promotion_of_interior_link_ignores_out_of_range_cluster() {
    let (quiet, promoted_quiet) = interior_pair_run(false, 0x5EED);
    let (busy, promoted_busy) = interior_pair_run(true, 0x5EED);
    assert!(
        promoted_quiet,
        "saturated clean pair must promote to the stat tier"
    );
    assert!(
        promoted_busy,
        "interior link must still promote with far traffic present"
    );
    assert_eq!(
        quiet, busy,
        "an out-of-range cluster's traffic leaked into the interior pair's evolution"
    );
}

/// Scan work per unit over a dense floor's measured window: devices
/// the `TxStart` listener walk examined per transmission, and devices
/// the statistical tier's component walks examined per attempt.
fn scan_visits_per_unit(grid: (usize, usize)) -> (f64, f64) {
    let scenario = DenseFloorScenario::new(DenseFloorConfig {
        grid,
        sim: {
            let mut sim = DenseFloorConfig::default().sim;
            sim.engine = Engine::EventDriven;
            sim.fidelity = Fidelity::Auto;
            sim
        },
        ..DenseFloorConfig::default()
    });
    let mut sim = scenario.build(7);
    scenario.prepare(&mut sim).expect("floor forms");
    let before = sim.metrics_snapshot();
    sim.run_until(sim.now() + SimDuration::from_slots(200));
    let window = sim.metrics_snapshot().since(&before);
    let count = |name: &str| window.counter(name).expect("hub counter") as f64;
    assert!(count("cost.stat_attempts") > 0.0, "saturated pairs attempt");
    (
        count("cost.listener_visits") / count("medium.transmissions"),
        count("cost.stat_walk_visits") / count("cost.stat_attempts"),
    )
}

/// The scan work per transmission and per statistical-tier attempt is
/// a property of one cluster, not of the floor: a 6×6 floor (144
/// devices) examines exactly as many devices per unit as a 3×3 one
/// (36), and never more than the rest of a cluster.
#[test]
fn scan_visits_do_not_depend_on_floor_size() {
    let cluster = 2 * DenseFloorConfig::default().piconets_per_point;
    let small = scan_visits_per_unit((3, 3));
    let large = scan_visits_per_unit((6, 6));
    assert_eq!(small, large, "scan visits per unit grew with the floor");
    let bound = (cluster - 1) as f64;
    assert!(
        small.0 > 0.0 && small.0 <= bound && small.1 > 0.0 && small.1 <= bound,
        "visits per transmission and per attempt {small:?} exceed {bound}"
    );
}
