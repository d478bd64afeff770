//! The engine-equivalence differential harness: the event-driven engine
//! must be **bit-identical** to the lockstep oracle — same event logs,
//! same LM logs, same clock, same RNG draws, same campaign metrics —
//! across every workload the repository knows how to run.
//!
//! This harness is the gate for any future engine change: a fast path
//! that diverges from lockstep on any registry experiment or on a
//! randomized scatternet topology fails here, not in a downstream
//! experiment. `docs/ENGINE.md` documents the wakeup-hint contract this
//! enforces.

use btsim::baseband::{LcCommand, PacketType, SniffParams};
use btsim::core::experiments::{registry, ExpOptions};
use btsim::core::net::{
    BridgePlan, MultiPiconetConfig, MultiPiconetScenario, ScatternetConfig, ScatternetScenario,
};
use btsim::core::scenario::{
    paper_config, AfhAdaptConfig, AfhAdaptScenario, GoodputConfig, GoodputScenario, HoldConfig,
    HoldScenario, InquiryConfig, InquiryScenario, PageConfig, PageScenario, ParkConfig,
    ParkScenario, Scenario, ScoLinkConfig, ScoLinkScenario, SniffConfig, SniffScenario,
};
use btsim::core::{AfhConfig, Engine, SimConfig, Simulator};
use proptest::prelude::*;

mod common;

/// Everything observable about a finished simulation, as one string:
/// the full event log, the LM log, the clock, the medium statistics and
/// the position of every random stream.
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

/// Runs `scenario` (build + drive) under one engine; returns the
/// outcome digest and the simulator digest.
fn run_under<S: Scenario>(scenario: &S, seed: u64) -> (String, String)
where
    S::Outcome: std::fmt::Debug,
{
    let mut sim = scenario.build(seed);
    let out = scenario.drive(&mut sim);
    (format!("{out:?}"), sim_digest(&sim))
}

/// Asserts a scenario constructor produces bit-identical runs under
/// both engines for each seed.
fn assert_scenario_equivalent<S, F>(name: &str, seeds: &[u64], make: F)
where
    S: Scenario,
    S::Outcome: std::fmt::Debug,
    F: Fn(SimConfig) -> S,
{
    for &seed in seeds {
        let mut lockstep_cfg = paper_config();
        lockstep_cfg.engine = Engine::Lockstep;
        let mut event_cfg = paper_config();
        event_cfg.engine = Engine::EventDriven;
        let (out_l, sim_l) = run_under(&make(lockstep_cfg), seed);
        let (out_e, sim_e) = run_under(&make(event_cfg), seed);
        assert_eq!(out_l, out_e, "{name}: outcome diverged for seed {seed}");
        assert_eq!(sim_l, sim_e, "{name}: simulation diverged for seed {seed}");
    }
}

#[test]
fn inquiry_scenario_is_engine_equivalent() {
    assert_scenario_equivalent("inquiry", &[1, 2, 3], |sim| {
        InquiryScenario::new(InquiryConfig {
            ber: 0.01,
            sim,
            ..InquiryConfig::default()
        })
    });
}

#[test]
fn page_scenario_is_engine_equivalent() {
    // The R1 page-scan window is the procedure-side fast-forward case.
    assert_scenario_equivalent("page", &[4, 5, 6], |sim| {
        PageScenario::new(PageConfig {
            ber: 0.005,
            cap_slots: 2048,
            sim,
            ..PageConfig::default()
        })
    });
}

#[test]
fn sniff_scenario_is_engine_equivalent() {
    assert_scenario_equivalent("sniff", &[7, 8], |sim| {
        SniffScenario::new(SniffConfig {
            t_sniff: 100,
            measure_slots: 12_000,
            sim,
            ..SniffConfig::default()
        })
    });
}

#[test]
fn hold_scenario_is_engine_equivalent() {
    assert_scenario_equivalent("hold", &[9, 10], |sim| {
        HoldScenario::new(HoldConfig {
            t_hold: 400,
            measure_slots: 12_000,
            sim,
        })
    });
}

#[test]
fn park_scenario_is_engine_equivalent() {
    assert_scenario_equivalent("park", &[11, 12], |sim| {
        ParkScenario::new(ParkConfig {
            beacon_interval: 200,
            measure_slots: 12_000,
            sim,
        })
    });
}

#[test]
fn goodput_scenario_is_engine_equivalent() {
    assert_scenario_equivalent("goodput", &[13], |sim| {
        GoodputScenario::new(GoodputConfig {
            ptype: PacketType::Dh3,
            ber: 0.002,
            sim,
            ..GoodputConfig::default()
        })
    });
}

#[test]
fn sco_scenario_is_engine_equivalent() {
    assert_scenario_equivalent("sco", &[14], |sim| {
        ScoLinkScenario::new(ScoLinkConfig {
            ptype: PacketType::Hv3,
            ber: 0.01,
            sim,
            ..ScoLinkConfig::default()
        })
    });
}

#[test]
fn afh_adapt_scenario_is_engine_equivalent() {
    // The full AFH loop — assessment traffic, the LMP map exchange
    // riding the prioritized control queue, and the synchronized hop
    // switch — must replay bit-identically: the switch instant and
    // every post-switch hop channel depend on both engines agreeing on
    // the exact interleaving of ticks, deliveries and LM polls.
    assert_scenario_equivalent("afh_adapt", &[17, 18], |sim| {
        AfhAdaptScenario::new(AfhAdaptConfig {
            wlan: btsim::channel::Interferer::wlan(40, 0.6),
            window_slots: 1_200,
            afh: AfhConfig {
                enabled: true,
                assess_slots: 1_200,
                ..AfhConfig::default()
            },
            sim,
            ..AfhAdaptConfig::default()
        })
    });
}

#[test]
fn scatternet_chain_is_engine_equivalent() {
    // Bridges held away from their piconets are exactly the idle time
    // the event engine skips; the relay payload must still arrive
    // bit-identically.
    assert_scenario_equivalent("scatternet", &[15, 16], |sim| {
        ScatternetScenario::new(ScatternetConfig {
            piconets: 3,
            measure_slots: 4_000,
            sim,
            ..ScatternetConfig::default()
        })
    });
}

/// Direct driving (commands + run_until interleaved) must agree too —
/// the scenario layer is not the only way the simulator is used.
#[test]
fn interleaved_driving_is_engine_equivalent() {
    use btsim::core::SimBuilder;
    use btsim::kernel::{SimDuration, SimTime};
    let run = |engine: Engine| {
        let mut cfg = paper_config();
        cfg.engine = engine;
        let mut b = SimBuilder::new(99, cfg);
        let m = b.add_device("master");
        let s1 = b.add_device("slave1");
        let s2 = b.add_device("slave2");
        let mut sim = b.build();
        let cap = SimTime::from_us(60_000_000);
        let lt1 = btsim::core::scenario::connect_pair(&mut sim, m, s1, cap).expect("s1");
        let lt2 = btsim::core::scenario::connect_pair(&mut sim, m, s2, cap).expect("s2");
        // Mix modes: one slave sniffs, the other holds, then both carry
        // data again.
        let params = SniffParams {
            t_sniff: 60,
            n_attempt: 1,
            d_sniff: 12,
            n_timeout: 2,
        };
        sim.command(
            m,
            LcCommand::Sniff {
                lt_addr: lt1,
                params,
            },
        );
        sim.command(
            s1,
            LcCommand::Sniff {
                lt_addr: lt1,
                params,
            },
        );
        sim.command(
            m,
            LcCommand::Hold {
                lt_addr: lt2,
                hold_slots: 500,
            },
        );
        sim.command(
            s2,
            LcCommand::Hold {
                lt_addr: lt2,
                hold_slots: 500,
            },
        );
        sim.run_until(sim.now() + SimDuration::from_slots(700));
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt2,
                data: (0..40u8).collect(),
            },
        );
        sim.run_until(sim.now() + SimDuration::from_slots(300));
        sim_digest(&sim)
    };
    assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
}

/// ACL-saturated traffic under a BER high enough that the channel's
/// noise stream fires several flips on *every* packet (BER 0.01 over a
/// ~2.9 kbit DH5 image ≈ 29 draws per packet, and ARQ retransmissions
/// keep the slots full). The word-parallel hot path (`docs/PERF.md`)
/// must preserve the noise-draw order of `Medium::begin_tx` exactly —
/// this pins that claim with a test instead of review: the digest
/// compares the RNG fingerprint, the full event log and the measured
/// BER across engines.
#[test]
fn acl_saturated_high_ber_is_engine_equivalent() {
    use btsim::core::SimBuilder;
    use btsim::kernel::{SimDuration, SimTime};
    let run = |engine: Engine| {
        let mut cfg = paper_config();
        cfg.engine = engine;
        cfg.channel.ber = 0.01;
        let mut b = SimBuilder::new(0x5A7_BEEF, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        let mut sim = b.build();
        let cap = SimTime::from_us(120_000_000);
        let lt = btsim::core::scenario::connect_pair(&mut sim, m, s, cap).expect("connects");
        sim.command(m, LcCommand::SetTpoll(2));
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; 40_000],
            },
        );
        sim.run_until(sim.now() + SimDuration::from_slots(4_000));
        let digest = sim_digest(&sim);
        assert!(
            sim.measured_ber() > 0.005,
            "BER {} too low: the noise stream must fire on every packet",
            sim.measured_ber()
        );
        digest
    };
    assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
}

/// Every registry experiment produces the same report under both
/// engines. The two wall-clock-timing entries (`table1_sim_speed`,
/// `scat_speed`) are excluded: their tables *measure* wall time, the
/// one quantity the engines are supposed to change.
///
/// The reports are also pinned: `(entry, byte length, FNV-1a-64)` over
/// each report's rendering and artifacts ([`common::report_pin`]) at
/// the bit tier, so a refactor of the experiment code must keep every
/// output byte. Any deliberate change to what an entry prints or writes
/// (a new column, a reworded note, a changed model) changes these
/// values and must re-pin [`REGISTRY_PINS`] in the same commit; on a
/// mismatch the test prints the full table as the current build
/// computes it.
#[test]
fn all_registry_experiments_are_engine_equivalent() {
    let wall_clock_entries = ["table1_sim_speed", "scat_speed"];
    let mut pins = Vec::new();
    for entry in registry() {
        let opts = |engine| ExpOptions {
            runs: 2,
            engine,
            ..ExpOptions::quick()
        };
        if wall_clock_entries.contains(&entry.name) {
            // Still must run under the event engine without diverging in
            // anything but timing.
            let report = entry.run(&opts(Engine::EventDriven)).unwrap();
            assert!(!report.tables.is_empty(), "{}: no output", entry.name);
            continue;
        }
        let lockstep = entry.run(&opts(Engine::Lockstep)).unwrap();
        let event = entry.run(&opts(Engine::EventDriven)).unwrap();
        assert_eq!(
            lockstep, event,
            "{}: report diverged between engines",
            entry.name
        );
        let (len, fnv) = common::report_pin(&lockstep);
        pins.push((entry.name, len, fnv));
    }
    common::assert_pinned(&pins, REGISTRY_PINS);
}

/// `(entry, byte length, FNV-1a-64)` of each registry report at
/// `--quick --runs 2`, bit tier (both engines).
const REGISTRY_PINS: &[(&str, usize, u64)] = &[
    ("fig5_waveform", 33371, 0x11639b1106dbfaa1),
    ("fig6_inquiry_vs_ber", 755, 0xa52bca78f843e3da),
    ("fig7_page_vs_ber", 688, 0x5165eed232f4835e),
    ("fig8_creation_failure", 677, 0xac6aef6d9d137aee),
    ("fig9_sniff_waveform", 5129, 0x9d6bdd8842f97ea0),
    ("fig10_master_rf", 696, 0xd199b34ab41cfb13),
    ("fig11_sniff_activity", 838, 0x7a4b635ee444432b),
    ("fig12_hold_activity", 804, 0xb58254408076c139),
    ("ext_packet_throughput", 1244, 0xe7cd924a2a33c780),
    ("ext_coexistence", 350, 0x7aa318895d59fd5e),
    ("ext_sco", 903, 0xf0e28c596b026fc6),
    ("ext_park", 582, 0x796a405c4ef9fe91),
    ("ext_inquiry_distribution", 1192, 0x3d1f710bb1042184),
    ("ext_wlan", 689, 0x9af10d7370c1d526),
    ("afh_adapt", 1055, 0x922a19619a783f58),
    ("ext_ablation", 752, 0xc774e945d526d486),
    ("scat_collisions", 810, 0x57c52a8be4f41442),
    ("scat_bridge", 705, 0x3a73537055cc8627),
    ("dense_floor", 3423, 0xef54184c21badc38),
    ("capture_scan", 343570, 0x009f80276a1bb1c0),
    ("fault_recovery", 2815, 0x330bd61f53e1460d),
    ("fault_churn", 657, 0xffc9f6fbb782987e),
    ("fault_degrade_heal", 372, 0xdfa4e0d12c7add72),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized scatternet topologies: piconet count, fan-out, bridge
    /// duty and seed are all drawn by proptest; the relayed chain must
    /// behave bit-identically under both engines.
    #[test]
    fn randomized_scatternets_are_engine_equivalent(
        seed: u64,
        piconets in 2usize..4,
        slaves in 1usize..3,
        duty in prop::sample::select(vec![0.3f64, 0.5, 0.7]),
    ) {
        let run = |engine: Engine| {
            let mut sim = paper_config();
            sim.engine = engine;
            let scenario = ScatternetScenario::new(ScatternetConfig {
                piconets,
                slaves_per_piconet: slaves,
                plan: BridgePlan { duty, ..BridgePlan::default() },
                measure_slots: 3_000,
                sim,
                ..ScatternetConfig::default()
            });
            run_under(&scenario, seed)
        };
        prop_assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
    }

    /// Randomized saturated multi-piconet meshes (no bridges): the
    /// inter-piconet collision accounting and goodput must match.
    #[test]
    fn randomized_multi_piconets_are_engine_equivalent(
        seed: u64,
        piconets in 1usize..4,
    ) {
        let run = |engine: Engine| {
            let mut sim = paper_config();
            sim.engine = engine;
            let scenario = MultiPiconetScenario::new(MultiPiconetConfig {
                piconets,
                measure_slots: 2_000,
                sim,
                ..MultiPiconetConfig::default()
            });
            run_under(&scenario, seed)
        };
        prop_assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
    }
}
