//! The fidelity differential harness: the statistical packet-outcome
//! tier (`--fidelity stat`) is only allowed to change *how fast* a
//! result is computed, never *what* the result is — exactly, wherever
//! the stability tracker cannot promote or the BER is zero (a clean
//! closed-form draw is provably identical to a clean bit-level
//! decode), and within statistical tolerance on the saturated
//! single-slot ACL workloads where packet fates really are sampled
//! from the analytic error model instead of decoded.
//!
//! This is the acceptance gate for `btsim-fidelity` (`docs/FIDELITY.md`):
//! any change to the error model, the stability tracker or the batch
//! fast-forward that skews an experiment's distribution fails here,
//! not in a downstream campaign. The demotion tests additionally pin
//! the tracker's safety contract — an AFH switch or co-channel
//! contention appearing mid-window forces the link back to bit-level
//! simulation on the next slot boundary, identically on both engines.

use btsim::baseband::hop::ChannelMap;
use btsim::baseband::{LcCommand, LcEvent};
use btsim::core::experiments::{registry, ExpOptions};
use btsim::core::scenario::{connect_pair, paper_config};
use btsim::core::{Engine, Fidelity, SimBuilder, Simulator};
use btsim::kernel::{SimDuration, SimTime};

mod common;

/// Everything deterministic about a finished simulation.
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

/// The chronological promote/demote history logged on `device`.
fn fidelity_flips(sim: &Simulator, device: usize) -> Vec<bool> {
    sim.events()
        .iter()
        .filter(|e| e.device == device)
        .filter_map(|e| match e.event {
            LcEvent::FidelityChanged { promoted } => Some(promoted),
            _ => None,
        })
        .collect()
}

/// A saturated single-slave ACL pair (the workload the statistical
/// tier exists for), run for `slots` slots after the connection.
fn saturated_pair(
    seed: u64,
    ber: f64,
    engine: Engine,
    fidelity: Fidelity,
    slots: u64,
) -> (Simulator, u8) {
    let mut cfg = paper_config();
    cfg.channel.ber = ber;
    cfg.engine = engine;
    cfg.fidelity = fidelity;
    let mut b = SimBuilder::new(seed, cfg);
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("pair connects");
    sim.command(m, LcCommand::SetTpoll(2));
    sim.command(
        m,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0x5A; slots as usize * 9],
        },
    );
    sim.run_until(sim.now() + SimDuration::from_slots(slots));
    (sim, lt)
}

/// Wall-clock-timing experiments: their tables *measure* wall time,
/// the one quantity the fidelity tier is supposed to change.
const WALL_CLOCK_ENTRIES: [&str; 2] = ["table1_sim_speed", "scat_speed"];

/// The only registry experiment whose outputs are genuinely *sampled*
/// at the statistical tier: it saturates a single-slave ACL link with
/// 1-slot packets at nonzero BER, so the tracker promotes and packet
/// fates come from the closed-form model instead of the codecs. Every
/// other entry either never satisfies the promotion conditions
/// (procedures, modes, multi-slot types, contending piconets) or runs
/// at BER 0, where a promoted link is bit-exact by construction — so
/// everything else must match *exactly*.
const STAT_SAMPLED_ENTRIES: [&str; 1] = ["ext_packet_throughput"];

/// Numeric closeness for sampled table cells: the analytic model is
/// allowed a few kbit/s of bias plus a modest relative error against
/// the bit-level codecs at the quick campaign's run count.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 6.0 + 0.15 * a.abs().max(b.abs())
}

/// Structural + tolerant-numeric comparison of two reports: identical
/// shape everywhere, identical text cells, numeric cells within
/// [`close`].
fn assert_reports_close(
    name: &str,
    bit: &btsim::core::experiments::ExpReport,
    stat: &btsim::core::experiments::ExpReport,
) {
    assert_eq!(bit.title, stat.title, "{name}: title diverged");
    assert_eq!(bit.notes, stat.notes, "{name}: notes diverged");
    assert_eq!(bit.text, stat.text, "{name}: text blocks diverged");
    assert_eq!(
        bit.tables.len(),
        stat.tables.len(),
        "{name}: table count diverged"
    );
    for (tb, ts) in bit.tables.iter().zip(&stat.tables) {
        assert_eq!(
            tb.rows().len(),
            ts.rows().len(),
            "{name}: row count diverged"
        );
        for (rb, rs) in tb.rows().iter().zip(ts.rows()) {
            for (cb, cs) in rb.iter().zip(rs) {
                match (cb.parse::<f64>(), cs.parse::<f64>()) {
                    (Ok(a), Ok(b)) => assert!(
                        close(a, b),
                        "{name}: sampled cell {a} vs bit-level {b} outside tolerance (row {rb:?} vs {rs:?})"
                    ),
                    _ => assert_eq!(cb, cs, "{name}: non-numeric cell diverged"),
                }
            }
        }
    }
}

/// Every registry experiment, bit tier vs statistical tier — exact
/// equality except where the tier genuinely samples — plus exact
/// lockstep/event-driven agreement *of the statistical tier itself*
/// on every entry, so the bit-vs-stat comparison transfers to both
/// engines.
///
/// The statistical-tier reports are also pinned: `(entry, byte length,
/// FNV-1a-64)` over each report's rendering and artifacts
/// ([`common::report_pin`]), so a refactor of the experiment code must
/// keep every output byte. Any deliberate change to what an entry
/// prints or writes, or to the statistical tier's draws, changes these
/// values and must re-pin [`STAT_REGISTRY_PINS`] in the same commit; on
/// a mismatch the test prints the full table as the current build
/// computes it.
#[test]
fn all_registry_experiments_match_across_fidelity_tiers() {
    let mut pins = Vec::new();
    for entry in registry() {
        if WALL_CLOCK_ENTRIES.contains(&entry.name) {
            continue;
        }
        let opts = |engine, fidelity| ExpOptions {
            runs: 2,
            engine,
            fidelity,
            ..ExpOptions::quick()
        };
        let bit = entry.run(&opts(Engine::Lockstep, Fidelity::Bit)).unwrap();
        let stat = entry.run(&opts(Engine::Lockstep, Fidelity::Stat)).unwrap();
        let stat_event = entry
            .run(&opts(Engine::EventDriven, Fidelity::Stat))
            .unwrap();
        assert_eq!(
            stat, stat_event,
            "{}: statistical tier diverged between engines",
            entry.name
        );
        if STAT_SAMPLED_ENTRIES.contains(&entry.name) {
            assert_reports_close(entry.name, &bit, &stat);
        } else {
            assert_eq!(
                bit, stat,
                "{}: must be bit-exact (tracker never promotes, or BER is 0)",
                entry.name
            );
        }
        let (len, fnv) = common::report_pin(&stat);
        pins.push((entry.name, len, fnv));
    }
    common::assert_pinned(&pins, STAT_REGISTRY_PINS);
}

/// `(entry, byte length, FNV-1a-64)` of each registry report at
/// `--quick --runs 2`, statistical tier (both engines).
const STAT_REGISTRY_PINS: &[(&str, usize, u64)] = &[
    ("fig5_waveform", 33371, 0x11639b1106dbfaa1),
    ("fig6_inquiry_vs_ber", 755, 0xa52bca78f843e3da),
    ("fig7_page_vs_ber", 688, 0x5165eed232f4835e),
    ("fig8_creation_failure", 677, 0xac6aef6d9d137aee),
    ("fig9_sniff_waveform", 5129, 0x9d6bdd8842f97ea0),
    ("fig10_master_rf", 696, 0xd199b34ab41cfb13),
    ("fig11_sniff_activity", 838, 0x7a4b635ee444432b),
    ("fig12_hold_activity", 804, 0xb58254408076c139),
    ("ext_packet_throughput", 1244, 0xf3f8a727f8b95268),
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

/// Where the statistical tier really samples (saturated 1-slot ACL at
/// nonzero BER), its delivered-packet mean must sit within a CI95-wide
/// band of the bit-level mean across independent seeds.
#[test]
fn stat_tier_delivery_mean_is_within_bit_tier_ci95() {
    const SEEDS: u64 = 10;
    const SLOTS: u64 = 1_500;
    let delivered = |fidelity: Fidelity| -> Vec<f64> {
        (0..SEEDS)
            .map(|seed| {
                let (sim, _) = saturated_pair(40 + seed, 0.004, Engine::Lockstep, fidelity, SLOTS);
                sim.events()
                    .iter()
                    .filter(|e| matches!(e.event, LcEvent::AclDelivered { .. }))
                    .count() as f64
            })
            .collect()
    };
    let stats = |xs: &[f64]| -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, 1.96 * (var / n).sqrt())
    };
    let (bit_mean, bit_ci) = stats(&delivered(Fidelity::Bit));
    let (stat_mean, stat_ci) = stats(&delivered(Fidelity::Stat));
    assert!(bit_mean > 0.0, "bit tier delivered nothing");
    // The model is allowed its own CI95 plus a small systematic bias
    // against the codecs (FEC/CRC interactions it approximates).
    let tolerance = bit_ci + stat_ci + 0.05 * bit_mean;
    assert!(
        (bit_mean - stat_mean).abs() <= tolerance,
        "stat mean {stat_mean:.1} vs bit mean {bit_mean:.1} \
         (CI95 {bit_ci:.1}/{stat_ci:.1}, tolerance {tolerance:.1})"
    );
}

/// A link in sniff mode never satisfies the promotion conditions, so
/// the statistical tier must be a spectator: no tier flips in the
/// event log and a digest identical to bit level even at nonzero BER
/// (any stolen promotion would shift the RNG draws and diverge).
#[test]
fn never_promoting_workload_stays_bit_exact() {
    use btsim::baseband::SniffParams;
    let run = |fidelity: Fidelity| {
        let mut cfg = paper_config();
        cfg.channel.ber = 0.005;
        cfg.fidelity = fidelity;
        let mut b = SimBuilder::new(77, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        let mut sim = b.build();
        let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("connects");
        let params = SniffParams {
            t_sniff: 80,
            n_attempt: 2,
            d_sniff: 10,
            n_timeout: 2,
        };
        sim.command(
            m,
            LcCommand::Sniff {
                lt_addr: lt,
                params,
            },
        );
        sim.command(
            s,
            LcCommand::Sniff {
                lt_addr: lt,
                params,
            },
        );
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x11; 400],
            },
        );
        sim.run_until(sim.now() + SimDuration::from_slots(2_000));
        assert!(
            fidelity_flips(&sim, m).is_empty(),
            "sniffing link must never change tier"
        );
        sim_digest(&sim)
    };
    assert_eq!(run(Fidelity::Bit), run(Fidelity::Stat));
}

/// A scheduled AFH map switch demotes a promoted link on the next
/// slot boundary (the tracker refuses to fast-forward across a hop
/// remapping), and re-promotes once both ends hop on the settled new
/// map. Both engines must log the identical promote → demote →
/// re-promote history and stay bit-identical throughout.
#[test]
fn afh_switch_demotes_promoted_link_on_both_engines() {
    let run = |engine: Engine| {
        let (mut sim, lt) = saturated_pair(91, 0.001, engine, Fidelity::Stat, 800);
        assert_eq!(
            fidelity_flips(&sim, 0),
            vec![true],
            "link should be promoted before the switch"
        );
        let map = ChannelMap::blocking(0..20);
        let at_slot = sim.now().slots() + 400;
        sim.command(
            0,
            LcCommand::SetAfhAt {
                map: map.clone(),
                at_slot,
            },
        );
        sim.command(1, LcCommand::SetAfhAt { map, at_slot });
        // Keep the link saturated across the switch so the only thing
        // standing between the tracker and re-promotion is the map.
        sim.command(
            0,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; 1_200 * 9],
            },
        );
        let demote_deadline = sim.now() + SimDuration::from_slots(2);
        sim.run_until(sim.now() + SimDuration::from_slots(1_200));
        let flips: Vec<(bool, SimTime)> = sim
            .events()
            .iter()
            .filter(|e| e.device == 0)
            .filter_map(|e| match e.event {
                LcEvent::FidelityChanged { promoted } => Some((promoted, e.at)),
                _ => None,
            })
            .collect();
        let history: Vec<bool> = flips.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            history,
            vec![true, false, true],
            "expected promote, demote at the switch, re-promote after it"
        );
        assert!(
            flips[1].1 <= demote_deadline,
            "demotion must land on the next slot after the scheduled switch appeared"
        );
        assert!(
            flips[2].1.slots() >= at_slot,
            "re-promotion cannot precede the switch instant"
        );
        sim_digest(&sim)
    };
    assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
}

/// A fault landing on a promoted link's endpoint demotes it *at the
/// fault instant*, and the link stays at bit level while the fault
/// holds — the statistical tier's closed-form assumptions are void on
/// a degraded radio. The demotion is pinned through the event log
/// ([`LcEvent::FidelityChanged`] at the fault slot) under both engines.
#[test]
fn fault_demotes_promoted_link_at_the_fault_instant_on_both_engines() {
    const FAULT_SLOT: u64 = 5_000;
    let run = |engine: Engine| {
        let mut cfg = paper_config();
        cfg.channel.ber = 0.001;
        cfg.engine = engine;
        cfg.fidelity = Fidelity::Stat;
        cfg.faults =
            btsim::core::FaultPlan::parse(&format!("degrade@{FAULT_SLOT}:dev=1,ber=0.02,ramp=0"))
                .expect("fault spec parses");
        let mut b = SimBuilder::new(58, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        let mut sim = b.build();
        let cap = SimTime::from_us(120_000_000);
        let lt = connect_pair(&mut sim, m, s, cap).expect("connects");
        sim.command(m, LcCommand::SetTpoll(2));
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; 40_000],
            },
        );
        sim.run_until(sim.now() + SimDuration::from_slots(FAULT_SLOT + 1_000));
        let flips: Vec<(bool, SimTime)> = sim
            .events()
            .iter()
            .filter(|e| e.device == m)
            .filter_map(|e| match e.event {
                LcEvent::FidelityChanged { promoted } => Some((promoted, e.at)),
                _ => None,
            })
            .collect();
        assert!(
            flips.first().is_some_and(|&(p, _)| p),
            "the saturated pair should promote before the fault: {flips:?}"
        );
        let demotion = flips
            .iter()
            .find(|&&(p, _)| !p)
            .unwrap_or_else(|| panic!("the degrade never demoted the pair: {flips:?}"));
        assert_eq!(
            demotion.1.slots(),
            FAULT_SLOT,
            "demotion must be logged at the fault instant"
        );
        assert!(
            !flips.iter().any(|&(p, at)| p && at >= demotion.1),
            "the pair must not re-promote while the degrade holds: {flips:?}"
        );
        sim_digest(&sim)
    };
    assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
}

/// Co-channel contention demotes a promoted link: a second piconet
/// sleeping through a hold window lets the first pair promote, and the
/// moment it wakes up saturated, the tracker drops the first pair back
/// to bit-level simulation. Both engines must agree on the whole run.
#[test]
fn co_channel_traffic_demotes_promoted_link_on_both_engines() {
    const HOLD_SLOTS: u64 = 1_500;
    let run = |engine: Engine| {
        let mut cfg = paper_config();
        cfg.channel.ber = 0.001;
        cfg.engine = engine;
        cfg.fidelity = Fidelity::Stat;
        let mut b = SimBuilder::new(55, cfg);
        let am = b.add_device("a-master");
        let asl = b.add_device("a-slave");
        let bm = b.add_device("b-master");
        let bsl = b.add_device("b-slave");
        let mut sim = b.build();
        let cap = SimTime::from_us(120_000_000);
        let a_lt = connect_pair(&mut sim, am, asl, cap).expect("pair A connects");
        let b_lt = connect_pair(&mut sim, bm, bsl, cap).expect("pair B connects");
        // B queues saturating traffic but immediately holds, so it is
        // silent until the hold expires — then floods the medium.
        sim.command(bm, LcCommand::SetTpoll(2));
        sim.command(
            bm,
            LcCommand::AclData {
                lt_addr: b_lt,
                data: vec![0x22; 20_000],
            },
        );
        sim.command(
            bm,
            LcCommand::Hold {
                lt_addr: b_lt,
                hold_slots: HOLD_SLOTS as u32,
            },
        );
        sim.command(
            bsl,
            LcCommand::Hold {
                lt_addr: b_lt,
                hold_slots: HOLD_SLOTS as u32,
            },
        );
        let hold_started = sim.now();
        sim.command(am, LcCommand::SetTpoll(2));
        sim.command(
            am,
            LcCommand::AclData {
                lt_addr: a_lt,
                data: vec![0x5A; 25_000],
            },
        );
        sim.run_until(sim.now() + SimDuration::from_slots(HOLD_SLOTS + 1_000));
        let flips: Vec<(bool, SimTime)> = sim
            .events()
            .iter()
            .filter(|e| e.device == am)
            .filter_map(|e| match e.event {
                LcEvent::FidelityChanged { promoted } => Some((promoted, e.at)),
                _ => None,
            })
            .collect();
        assert!(
            flips.first().is_some_and(|&(p, _)| p),
            "pair A should promote while B sleeps through its hold"
        );
        let demotion = flips
            .iter()
            .find(|&&(p, _)| !p)
            .unwrap_or_else(|| panic!("pair A never demoted after B woke up: {flips:?}"));
        assert!(
            demotion.1 >= hold_started,
            "demotion cannot precede B's wakeup"
        );
        sim_digest(&sim)
    };
    assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
}
