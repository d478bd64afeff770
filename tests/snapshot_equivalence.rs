//! The snapshot-equivalence differential harness: restoring a
//! [`SimSnapshot`] — directly or through its wire form — and running to
//! the horizon must be **bit-identical** to the uninterrupted run: same
//! event logs, same LM logs, same clock, same medium statistics, same
//! RNG stream positions. `docs/SNAPSHOT.md` documents the state
//! inventory and the wire format this harness gates.
//!
//! Every check round-trips through `to_bytes`/`from_bytes` (not just
//! `restore`), so the wire codec of every snapped struct is on the
//! hook, and asserts the wire form is byte-stable across a roundtrip.

use btsim::baseband::LcCommand;
use btsim::core::net::{
    DenseFloorConfig, DenseFloorScenario, MultiPiconetConfig, MultiPiconetScenario,
    ScatternetConfig, ScatternetScenario,
};
use btsim::core::scenario::{
    paper_config, AfhAdaptConfig, AfhAdaptScenario, GoodputConfig, GoodputScenario, HoldConfig,
    HoldScenario, InquiryConfig, InquiryScenario, PageConfig, PageScenario, Scenario,
    ScoLinkConfig, ScoLinkScenario, SniffConfig, SniffScenario,
};
use btsim::core::{Engine, Fidelity, SimConfig, SimSnapshot, Simulator, SnapshotError};
use btsim::kernel::SimDuration;
use proptest::prelude::*;

/// Everything observable about a finished simulation, as one string
/// (the same digest the engine-equivalence harness compares).
fn sim_digest(sim: &Simulator) -> String {
    format!(
        "now={:?} events={:?} lm={:?} tx={:?} ber={} rng={:#x}",
        sim.now(),
        sim.events(),
        sim.lm_events(),
        sim.tx_stats(),
        sim.measured_ber(),
        sim.rng_fingerprint(),
    )
}

/// Builds the scenario's simulator, advances it `warmup` slots into the
/// run, snapshots it through the wire form, and drives both the
/// original and the restored copy to completion. Returns the
/// `(outcome, digest)` pair of each.
fn split_and_continue<S: Scenario>(
    scenario: &S,
    seed: u64,
    warmup: u64,
) -> ((String, String), (String, String))
where
    S::Outcome: std::fmt::Debug,
{
    let mut sim = scenario.build(seed);
    sim.run_until(sim.now() + SimDuration::from_slots(warmup));
    let bytes = sim.snapshot().to_bytes();
    let snap = SimSnapshot::from_bytes(&bytes).expect("saved snapshot decodes");
    assert_eq!(bytes, snap.to_bytes(), "wire form must be byte-stable");
    let mut restored = snap.restore();
    let out_orig = scenario.drive(&mut sim);
    let out_rest = scenario.drive(&mut restored);
    (
        (format!("{out_orig:?}"), sim_digest(&sim)),
        (format!("{out_rest:?}"), sim_digest(&restored)),
    )
}

/// Asserts a scenario constructor continues bit-identically from a
/// mid-run snapshot under both engines and all three fidelity tiers.
fn assert_snapshot_transparent<S, F>(name: &str, seeds: &[u64], warmup: u64, make: F)
where
    S: Scenario,
    S::Outcome: std::fmt::Debug,
    F: Fn(SimConfig) -> S,
{
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        for fidelity in [Fidelity::Bit, Fidelity::Stat, Fidelity::Auto] {
            for &seed in seeds {
                let mut cfg = paper_config();
                cfg.engine = engine;
                cfg.fidelity = fidelity;
                let (orig, rest) = split_and_continue(&make(cfg), seed, warmup);
                assert_eq!(
                    orig, rest,
                    "{name}: run diverged after restore \
                     (engine {engine:?}, fidelity {fidelity:?}, seed {seed})"
                );
            }
        }
    }
}

#[test]
fn inquiry_scenario_is_snapshot_transparent() {
    assert_snapshot_transparent("inquiry", &[1], 400, |sim| {
        InquiryScenario::new(InquiryConfig {
            ber: 0.01,
            sim,
            ..InquiryConfig::default()
        })
    });
}

#[test]
fn page_scenario_is_snapshot_transparent() {
    assert_snapshot_transparent("page", &[4], 400, |sim| {
        PageScenario::new(PageConfig {
            ber: 0.005,
            cap_slots: 2048,
            sim,
            ..PageConfig::default()
        })
    });
}

#[test]
fn sniff_scenario_is_snapshot_transparent() {
    assert_snapshot_transparent("sniff", &[7], 900, |sim| {
        SniffScenario::new(SniffConfig {
            t_sniff: 100,
            measure_slots: 6_000,
            sim,
            ..SniffConfig::default()
        })
    });
}

#[test]
fn hold_scenario_is_snapshot_transparent() {
    assert_snapshot_transparent("hold", &[9], 900, |sim| {
        HoldScenario::new(HoldConfig {
            t_hold: 400,
            measure_slots: 6_000,
            sim,
        })
    });
}

#[test]
fn goodput_scenario_is_snapshot_transparent() {
    assert_snapshot_transparent("goodput", &[13], 700, |sim| {
        GoodputScenario::new(GoodputConfig {
            ptype: btsim::baseband::PacketType::Dh3,
            ber: 0.002,
            sim,
            ..GoodputConfig::default()
        })
    });
}

#[test]
fn sco_scenario_is_snapshot_transparent() {
    assert_snapshot_transparent("sco", &[14], 700, |sim| {
        ScoLinkScenario::new(ScoLinkConfig {
            ptype: btsim::baseband::PacketType::Hv3,
            ber: 0.01,
            sim,
            ..ScoLinkConfig::default()
        })
    });
}

#[test]
fn afh_adapt_scenario_is_snapshot_transparent() {
    // The snapshot instant lands inside the AFH assessment window: the
    // classification counters, the pending LMP map exchange and the
    // armed hop switch all have to survive the roundtrip.
    assert_snapshot_transparent("afh_adapt", &[17], 900, |sim| {
        AfhAdaptScenario::new(AfhAdaptConfig {
            wlan: btsim::channel::Interferer::wlan(40, 0.6),
            window_slots: 1_200,
            afh: btsim::core::AfhConfig {
                enabled: true,
                assess_slots: 1_200,
                ..btsim::core::AfhConfig::default()
            },
            sim,
            ..AfhAdaptConfig::default()
        })
    });
}

#[test]
fn scatternet_chain_is_snapshot_transparent() {
    assert_snapshot_transparent("scatternet", &[15], 1_500, |sim| {
        ScatternetScenario::new(ScatternetConfig {
            piconets: 3,
            measure_slots: 3_000,
            sim,
            ..ScatternetConfig::default()
        })
    });
}

#[test]
fn multi_piconet_mesh_is_snapshot_transparent() {
    assert_snapshot_transparent("multi_piconet", &[16], 1_500, |sim| {
        MultiPiconetScenario::new(MultiPiconetConfig {
            piconets: 3,
            measure_slots: 2_000,
            sim,
            ..MultiPiconetConfig::default()
        })
    });
}

/// The split instant lands mid-fault: a device is crashed with its
/// revival still pending, another link is degraded, and a noise burst
/// is active. The crashed/muted/degraded flags, the remaining fault
/// calendar and the interferer state must all survive the roundtrip —
/// under both engines and all three fidelity tiers.
#[test]
fn faulted_scatternet_is_snapshot_transparent() {
    assert_snapshot_transparent("faulted_scatternet", &[21], 3_200, |mut sim| {
        sim.faults = btsim::core::FaultPlan::parse(
            "degrade@2000:dev=3,ber=0.02,ramp=500;noise_on@2200:lo=30,width=10,duty=0.5;\
             crash@2600:dev=2;revive@3800:dev=2;heal@4200:dev=3;noise_off@5000:lo=30,width=10",
        )
        .expect("fault spec parses");
        sim.lc.supervision_timeout_slots = 900;
        ScatternetScenario::new(ScatternetConfig {
            piconets: 2,
            measure_slots: 3_000,
            sim,
            ..ScatternetConfig::default()
        })
    });
}

/// Sharded spatial runs: the per-shard sub-simulators, the shard maps
/// and the merge cursors must all survive the roundtrip, at both one
/// worker and four.
#[test]
fn sharded_dense_floor_is_snapshot_transparent() {
    for shards in [1usize, 4] {
        for engine in [Engine::Lockstep, Engine::EventDriven] {
            let mut cfg = DenseFloorConfig {
                grid: (2, 2),
                measure_slots: 1_500,
                ..DenseFloorConfig::default()
            };
            cfg.sim.engine = engine;
            cfg.sim.shards = shards;
            let scenario = DenseFloorScenario::new(cfg);
            let (orig, rest) = split_and_continue(&scenario, 23, 2_000);
            assert_eq!(
                orig, rest,
                "dense_floor: diverged after restore (shards {shards}, engine {engine:?})"
            );
        }
    }
}

/// [`faulted_scatternet_is_snapshot_transparent`] at scale-out: the
/// split lands mid-outage on a sharded spatial floor, at one worker
/// and four, under both engines.
#[test]
fn sharded_faulted_floor_is_snapshot_transparent() {
    for shards in [1usize, 4] {
        for engine in [Engine::Lockstep, Engine::EventDriven] {
            let mut cfg = DenseFloorConfig {
                grid: (2, 2),
                measure_slots: 1_500,
                ..DenseFloorConfig::default()
            };
            cfg.sim.engine = engine;
            cfg.sim.shards = shards;
            cfg.sim.faults = btsim::core::FaultPlan::parse(
                "noise_on@2100:lo=10,width=8,duty=0.6;crash@2300:dev=1;revive@3600:dev=1",
            )
            .expect("fault spec parses");
            let scenario = DenseFloorScenario::new(cfg);
            let (orig, rest) = split_and_continue(&scenario, 29, 2_500);
            assert_eq!(
                orig, rest,
                "faulted dense_floor: diverged after restore \
                 (shards {shards}, engine {engine:?})"
            );
        }
    }
}

/// The `metrics_every` stream continues through a wire-form restore:
/// every counter, the `cost.*` scan counters included, picks up where
/// the original left off, so the restored run emits the same lines —
/// totals and deltas — as the uninterrupted one. Only the wall-clock
/// heartbeat may differ.
#[test]
fn metrics_stream_survives_a_bytes_restore() {
    let deterministic = |lines: &str| -> Vec<String> {
        lines
            .lines()
            .map(|l| {
                l.split(",\"wall_slots_per_sec\"")
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        let mut cfg = DenseFloorConfig {
            grid: (2, 2),
            measure_slots: 1_500,
            ..DenseFloorConfig::default()
        };
        cfg.sim.engine = engine;
        cfg.sim.fidelity = Fidelity::Auto;
        cfg.sim.metrics_every = Some(250);
        let scenario = DenseFloorScenario::new(cfg);
        // Split once formed: formation's transmissions have already
        // run the counters up, and the measured phase adds to them.
        let mut sim = scenario.form(31).expect("floor forms");
        let visits = sim.metrics_snapshot().counter("cost.listener_visits");
        assert!(visits > Some(0), "formation examined no listeners");
        let bytes = sim.snapshot().to_bytes();
        let mut restored = SimSnapshot::from_bytes(&bytes).unwrap().restore();
        scenario.drive_formed(&mut sim);
        scenario.drive_formed(&mut restored);
        let lines = sim.metrics_lines();
        assert_eq!(
            deterministic(restored.metrics_lines()),
            deterministic(lines),
            "metrics lines diverged after a bytes restore ({engine:?})"
        );
    }
}

/// The formation split invariant behind campaign forking and
/// `--resume`: `form(seed)` + `drive_formed` (through a snapshot
/// roundtrip) equals the uninterrupted `run(seed)` bit-exactly.
#[test]
fn form_plus_drive_formed_matches_run() {
    let scenario = ScatternetScenario::new(ScatternetConfig {
        piconets: 3,
        measure_slots: 3_000,
        sim: paper_config(),
        ..ScatternetConfig::default()
    });
    for seed in [31u64, 32] {
        let straight = scenario.run(seed);
        let formed = scenario.form(seed).expect("formation succeeds");
        let bytes = formed.snapshot().to_bytes();
        let mut restored = SimSnapshot::from_bytes(&bytes).unwrap().restore();
        let resumed = scenario.drive_formed(&mut restored);
        assert_eq!(straight, resumed, "split invariant broken for seed {seed}");
    }
}

/// A snapshot of a spatial floor split into two worlds: two clusters
/// 100 m apart, built at `shards = 4`, scanning and paging for a while.
fn two_world_snapshot_bytes() -> Vec<u8> {
    use btsim::channel::Position;
    use btsim::core::SimBuilder;
    let mut cfg = DenseFloorConfig::default().sim;
    cfg.shards = 4;
    let mut b = SimBuilder::new(41, cfg);
    let m0 = b.add_device_at("m0", Position::ORIGIN);
    let s0 = b.add_device_at("s0", Position::ORIGIN);
    let m1 = b.add_device_at("m1", Position::new(100.0, 0.0));
    let s1 = b.add_device_at("s1", Position::new(100.0, 0.0));
    let mut sim = b.build();
    for (m, s) in [(m0, s0), (m1, s1)] {
        sim.command(s, LcCommand::InquiryScan);
        sim.command(
            m,
            LcCommand::Inquiry {
                num_responses: 1,
                timeout_slots: 0,
            },
        );
    }
    sim.run_until(sim.now() + SimDuration::from_slots(600));
    let bytes = sim.snapshot().to_bytes();
    SimSnapshot::from_bytes(&bytes).expect("intact two-world snapshot decodes");
    bytes
}

/// Corrupted and truncated wire forms are rejected with typed errors —
/// never a panic, never a silently wrong simulator — for monolithic and
/// sharded snapshots alike.
#[test]
fn malformed_wire_forms_are_rejected() {
    let scenario = PageScenario::new(PageConfig {
        sim: paper_config(),
        ..PageConfig::default()
    });
    let sim = scenario.build(40);
    let mono = sim.snapshot().to_bytes();
    assert!(matches!(
        SimSnapshot::from_bytes(&[]),
        Err(SnapshotError::Truncated { .. } | SnapshotError::BadMagic)
    ));
    for (name, bytes) in [
        ("monolithic", mono),
        ("two-world", two_world_snapshot_bytes()),
    ] {
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(
            matches!(
                SimSnapshot::from_bytes(&wrong_magic),
                Err(SnapshotError::BadMagic)
            ),
            "{name}: wrong magic"
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xEE;
        assert!(
            matches!(
                SimSnapshot::from_bytes(&wrong_version),
                Err(SnapshotError::UnsupportedVersion { .. })
            ),
            "{name}: wrong version"
        );
        let n = bytes.len();
        for cut in [5, 9, n / 4, n / 3, n / 2, 3 * n / 4, n - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "{name}: truncation at {cut} must be rejected"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(
            matches!(
                SimSnapshot::from_bytes(&trailing),
                Err(SnapshotError::TrailingBytes { .. })
            ),
            "{name}: trailing byte"
        );
    }
}

/// The intact wire forms the mutation fuzz starts from: the
/// monolithic page-scenario snapshot and the two-world snapshot of
/// [`malformed_wire_forms_are_rejected`].
fn fuzz_bases() -> &'static [Vec<u8>; 2] {
    static BASES: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
    BASES.get_or_init(|| {
        let scenario = PageScenario::new(PageConfig {
            sim: paper_config(),
            ..PageConfig::default()
        });
        [
            scenario.build(40).snapshot().to_bytes(),
            two_world_snapshot_bytes(),
        ]
    })
}

/// A radio moved so far off the spatial grid that its cell index
/// saturates at the `i32` edge: decoding used to overflow computing the
/// cell's neighbours (found by the mutation fuzz below). It must be a
/// typed error — the moved radio no longer matches the stored component
/// map.
#[test]
fn radio_off_the_grid_is_rejected_not_panicked() {
    let mut bytes = two_world_snapshot_bytes();
    // The x coordinate of the radios placed at (100, 0).
    let x = 100.0f64.to_le_bytes();
    let at = (0..bytes.len() - 8)
        .find(|&i| bytes[i..i + 8] == x)
        .expect("a radio position is in the wire form");
    bytes[at..at + 8].copy_from_slice(&1e300f64.to_le_bytes());
    assert!(matches!(
        SimSnapshot::from_bytes(&bytes),
        Err(SnapshotError::Malformed { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutation fuzz over the wire decoder: bit flips, byte and word
    /// overwrites, truncations and splices of two real snapshots. Any
    /// input must decode or yield a typed [`SnapshotError`]; a panic (or
    /// an abort from an oversized allocation) fails the test.
    #[test]
    fn mutated_wire_forms_never_panic(
        base in 0usize..2,
        other in 0usize..2,
        kind in 0u8..5,
        at: u64,
        value: u64,
    ) {
        let bases = fuzz_bases();
        let mut bytes = bases[base].clone();
        let pos = (at % bytes.len() as u64) as usize;
        match kind {
            0 => bytes[pos] ^= 1 << (value % 8),
            1 => bytes[pos] = value as u8,
            2 => {
                let pos = pos.min(bytes.len() - 8);
                bytes[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
            }
            3 => bytes.truncate(pos),
            _ => {
                let tail = &bases[other];
                bytes.truncate(pos);
                bytes.extend_from_slice(&tail[(value % tail.len() as u64) as usize..]);
            }
        }
        let _ = SimSnapshot::from_bytes(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Mid-run snapshots at randomized instants of a directly-driven
    /// ACL transfer, under randomized engine and fidelity: the
    /// continuation must be bit-identical to the uninterrupted run.
    #[test]
    fn randomized_split_instants_are_transparent(
        seed: u64,
        warmup in 0u64..2_000,
        engine in prop::sample::select(vec![Engine::Lockstep, Engine::EventDriven]),
        fidelity in prop::sample::select(vec![Fidelity::Bit, Fidelity::Stat, Fidelity::Auto]),
    ) {
        use btsim::core::SimBuilder;
        use btsim::kernel::SimTime;
        let mut cfg = paper_config();
        cfg.engine = engine;
        cfg.fidelity = fidelity;
        cfg.channel.ber = 0.004;
        let mut b = SimBuilder::new(seed, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        let mut sim = b.build();
        let cap = SimTime::from_us(60_000_000);
        let lt = btsim::core::scenario::connect_pair(&mut sim, m, s, cap).expect("connects");
        sim.command(m, LcCommand::SetTpoll(4));
        sim.command(m, LcCommand::AclData { lt_addr: lt, data: vec![0xA5; 6_000] });
        sim.run_until(sim.now() + SimDuration::from_slots(warmup));
        let bytes = sim.snapshot().to_bytes();
        let mut restored = SimSnapshot::from_bytes(&bytes).unwrap().restore();
        let horizon = sim.now() + SimDuration::from_slots(2_000);
        sim.run_until(horizon);
        restored.run_until(horizon);
        prop_assert_eq!(sim_digest(&sim), sim_digest(&restored));
    }

    /// Randomized scatternet topologies snapshotted at randomized
    /// instants (possibly mid-formation): the restored run must track
    /// the original bit-exactly through the rest of formation and the
    /// relay window.
    #[test]
    fn randomized_scatternet_splits_are_transparent(
        seed: u64,
        piconets in 2usize..4,
        warmup in 0u64..4_000,
    ) {
        let scenario = ScatternetScenario::new(ScatternetConfig {
            piconets,
            measure_slots: 2_000,
            sim: paper_config(),
            ..ScatternetConfig::default()
        });
        let (orig, rest) = split_and_continue(&scenario, seed, warmup);
        prop_assert_eq!(orig, rest);
    }
}
