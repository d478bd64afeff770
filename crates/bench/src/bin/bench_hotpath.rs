//! Hot-path microbenchmarks + the saturated-traffic acceptance gate,
//! written to `BENCH_hotpath.json` so CI tracks the per-packet cost per
//! commit (methodology: `docs/PERF.md`).
//!
//! ```text
//! cargo run --release -p btsim-bench --bin bench_hotpath [--quick] [--json PATH]
//! ```
//!
//! The saturated section always measures **both** engines (that is the
//! point of the gate), so the common `--engine` flag is ignored here.
//!
//! Four sections:
//!
//! * **coding** — ns/op of the word-parallel codecs (whitening, FEC 1/3,
//!   FEC 2/3, CRC-16, packet encode/decode) over DH5/DM5-sized images;
//! * **medium** — `begin_tx` + `receive` µs/packet as co-channel and
//!   cross-channel retained traffic grows (the on-air index keeps the
//!   collision scan from degrading with total retained traffic);
//! * **calendar** — ns per event-calendar `pop` + `schedule` at 400 and
//!   1,600 pending events, on a few lattice instants and on distinct
//!   instants, next to a plain `BinaryHeap` of whole events (reported,
//!   not gated);
//! * **saturated** — slots per wall-second of an ACL-saturated link for
//!   every fidelity tier (`bit`, `stat`, `auto`) under *both* engines,
//!   with smoke assertions that every slots/sec figure is nonzero, that
//!   the two engines finished each tier bit-exactly (event log, TX
//!   stats, measured BER and RNG fingerprints all equal), and that the
//!   statistical tier actually beats bit level. Any violation exits
//!   nonzero, so CI fails on a silently diverging or regressing fast
//!   path.
//!
//! The saturated section also measures the bit-tier lockstep workload
//! with the packet-capture tap **on** vs **off**
//! (`capture_{off,on}_slots_per_sec`, `capture_overhead_frac`). The
//! overhead is reported, not gated: speed regressions are judged by the
//! `perfbench` benchmark (`perfbench/README.md`).
//!
//! Two fault rows ride the same section (`docs/FAULTS.md`): the
//! bit-tier workload under a plan that fires mid-window
//! (`faulted_{lockstep,event}_slots_per_sec`, which must stay
//! engine-bit-exact), and the same workload under a plan whose only
//! event sits beyond the horizon (`fault_idle_slots_per_sec`). An
//! installed-but-dormant FaultPlan rides the event calendar, so the
//! idle run must do exactly the plain bit-lockstep run's work: the same
//! digest, `steps_total` and every `cost.*` counter. The idle rate and
//! its overhead are reported, not gated; the mid-window plan must fail
//! the same comparison, which shows the gate can see a plan at work.
//!
//! A fifth **sharding** section times a 200-device dense spatial floor
//! (100 out-of-range clusters, `docs/SPATIAL.md`) at `--shards 1` vs
//! `4`; on a host with ≥ 4 cores the 4-shard run must be at least 2×
//! faster.
//!
//! A sixth **formation** section times formation amortization on a
//! 3-piconet scatternet campaign (`docs/SNAPSHOT.md`): forming once,
//! snapshotting and forking every run (`restore` +
//! `reseed_for_fork(base + i)` + `drive_formed`) against re-forming per
//! run with the same per-run reseeding — identical outcomes by
//! construction, so any divergence exits nonzero. The `fork_speedup`
//! row must be at least 2×.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::process::ExitCode;
use std::time::Instant;

use btsim_baseband::packet::{self, Header, LinkKeys, Payload};
use btsim_baseband::{LcCommand, LcEvent, Llid, PacketType};
use btsim_bench::connected_pair_at;
use btsim_channel::{ChannelConfig, Medium};
use btsim_coding::{crc, fec, syncword, BitVec, Whitener};
use btsim_core::net::{register_devices, ScatternetConfig, Topology};
use btsim_core::{Engine, Fidelity, SimBuilder, Simulator};
use btsim_kernel::{Calendar, SimDuration, SimRng, SimTime};
use btsim_stats::JsonValue;

/// Times `op` repeatedly and returns ns per iteration (best of 3 samples).
fn time_ns(iters: u64, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn coding_rows(iters: u64) -> Vec<JsonValue> {
    let dh5_body = BitVec::from_fn(2728, |i| i % 3 == 0); // DH5 framed payload
    let dm5_body = BitVec::from_fn(1810, |i| i % 5 < 2); // DM5 framed payload
    let dm5_coded = fec::fec23_encode(&dm5_body);
    let header = BitVec::from_fn(18, |i| i % 2 == 0);
    let header_coded = fec::fec13_encode(&header);
    let keys = LinkKeys {
        lap: 0x2C7F91,
        uap: 0x47,
        whiten: 0x15,
        sync_threshold: syncword::DEFAULT_SYNC_THRESHOLD,
        fhs_fec: true,
    };
    let dh5 = Header {
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
    let air = codec.encode(&keys, &dh5, &payload);
    let ops: Vec<(&str, f64)> = vec![
        (
            "whiten_2728b",
            time_ns(iters, || {
                std::hint::black_box(Whitener::from_clk(0x15).whiten(&dh5_body));
            }),
        ),
        (
            "fec13_encode_18b",
            time_ns(iters * 8, || {
                std::hint::black_box(fec::fec13_encode(&header));
            }),
        ),
        (
            "fec13_decode_54b",
            time_ns(iters * 8, || {
                std::hint::black_box(fec::fec13_decode(&header_coded));
            }),
        ),
        (
            "fec23_encode_1810b",
            time_ns(iters, || {
                std::hint::black_box(fec::fec23_encode(&dm5_body));
            }),
        ),
        (
            "fec23_decode_2715b",
            time_ns(iters, || {
                std::hint::black_box(fec::fec23_decode(&dm5_coded));
            }),
        ),
        (
            "crc16_2728b",
            time_ns(iters, || {
                std::hint::black_box(crc::crc16_bits(0x47, &dh5_body));
            }),
        ),
        (
            "encode_dh5",
            time_ns(iters, || {
                std::hint::black_box(codec.encode(&keys, &dh5, &payload));
            }),
        ),
        (
            "decode_dh5",
            time_ns(iters, || {
                std::hint::black_box(packet::decode(&air, None, &keys).expect("clean"));
            }),
        ),
    ];
    println!("{:<22} {:>12}", "coding op", "ns/op");
    ops.iter().for_each(|(n, v)| println!("{n:<22} {v:>12.0}"));
    ops.into_iter()
        .map(|(name, ns)| {
            JsonValue::Obj(vec![
                ("op".to_string(), JsonValue::from(name)),
                ("ns_per_op".to_string(), JsonValue::from(ns)),
            ])
        })
        .collect()
}

/// One steady-state `begin_tx` + `receive` + `gc` round trip per
/// iteration, with the retention window sized to keep `retained`
/// transmissions registered. `spread` rotates the traffic over all 79
/// RF channels; `!spread` keeps it on one channel, where every retained
/// transmission is a co-channel one.
fn medium_rows(iters: u64) -> Vec<JsonValue> {
    let mut rows = Vec::new();
    println!("{:<28} {:>14}", "medium workload", "us/packet");
    for (retained, spread) in [(1usize, false), (64, false), (512, false), (512, true)] {
        let mut m = Medium::new(ChannelConfig::default(), SimRng::new(7));
        let bits = BitVec::from_fn(366, |i| i % 2 == 0);
        let retention = SimDuration::from_us(retained as u64 * 1000);
        let mut at = SimTime::ZERO;
        let mut ch = 0u8;
        let ns = time_ns(iters.max(retained as u64 * 2), || {
            let tx = m.begin_tx(0, if spread { ch } else { 40 }, at, bits.clone());
            std::hint::black_box(m.receive(tx).expect("retained"));
            m.gc(at, retention);
            at += SimDuration::from_us(1000);
            ch = (ch + 1) % 79;
        });
        let label = format!(
            "tx_rx_gc_retain{retained}_{}",
            if spread { "spread79" } else { "cochannel" }
        );
        println!("{label:<28} {:>14.2}", ns / 1000.0);
        rows.push(JsonValue::Obj(vec![
            ("workload".to_string(), JsonValue::from(label.as_str())),
            ("retained".to_string(), JsonValue::from(retained as u64)),
            ("us_per_packet".to_string(), JsonValue::from(ns / 1000.0)),
        ]));
    }
    rows
}

/// A calendar payload the size of the simulator's event type.
type CalendarPayload = [u64; 6];

/// ns per `pop` + `schedule` in a steady state of `pending` entries:
/// each popped event is rescheduled at its instant plus the next of
/// `offsets` (cycled). Returns (calendar, reference `BinaryHeap` of
/// `(time, seq, payload)` — the layout of a heap-only calendar).
fn calendar_op_ns(iters: u64, pending: usize, offsets: &[u64]) -> (f64, f64) {
    let payload: CalendarPayload = [7; 6];
    let mut cal = Calendar::new();
    for &off in offsets.iter().cycle().take(pending) {
        cal.schedule(SimTime::from_ns(off), payload);
    }
    let mut k = 0;
    let cal_ns = time_ns(iters, || {
        let (at, p) = cal.pop().expect("steady state");
        cal.schedule(at + SimDuration::from_ns(offsets[k]), p);
        k = (k + 1) % offsets.len();
    });
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, CalendarPayload)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for &off in offsets.iter().cycle().take(pending) {
        heap.push(Reverse((SimTime::from_ns(off), seq, payload)));
        seq += 1;
    }
    let mut k = 0;
    let heap_ns = time_ns(iters, || {
        let Reverse((at, _, p)) = heap.pop().expect("steady state");
        heap.push(Reverse((at + SimDuration::from_ns(offsets[k]), seq, p)));
        seq += 1;
        k = (k + 1) % offsets.len();
    });
    (cal_ns, heap_ns)
}

/// The calendar section: pop + schedule cost at 400 and 1,600 pending
/// entries, on a `lattice` (offsets of 1-8 half slots, so at most nine
/// distinct instants, the dense floor's shape) and on `distinct`
/// instants (random nanosecond offsets up to 2 µs times the pending
/// count, so nearly every entry has an instant of its own). Reported
/// only.
fn calendar_rows(iters: u64) -> Vec<JsonValue> {
    let mut rows = Vec::new();
    println!(
        "{:<28} {:>14} {:>14}",
        "calendar pop+schedule", "ns/op", "heap ns/op"
    );
    for pending in [400usize, 1_600] {
        let mut rng = SimRng::new(pending as u64);
        let lattice: Vec<u64> = (0..4096)
            .map(|_| (1 + rng.range_u64(8)) * SimDuration::HALF_SLOT.ns())
            .collect();
        let distinct: Vec<u64> = (0..4096)
            .map(|_| 1 + rng.range_u64(2_000 * pending as u64))
            .collect();
        for (pattern, offsets) in [("lattice", &lattice), ("distinct", &distinct)] {
            let (ns, heap_ns) = calendar_op_ns(iters * 100, pending, offsets);
            println!(
                "{:<28} {ns:>14.1} {heap_ns:>14.1}",
                format!("{pattern}_{pending}")
            );
            rows.push(JsonValue::Obj(vec![
                ("pattern".to_string(), JsonValue::from(pattern)),
                ("pending".to_string(), JsonValue::from(pending as u64)),
                ("ns_per_op".to_string(), JsonValue::from(ns)),
                ("heap_ns_per_op".to_string(), JsonValue::from(heap_ns)),
            ]));
        }
    }
    rows
}

/// Digest of everything deterministic about a finished simulation.
fn digest(sim: &Simulator) -> String {
    format!(
        "now={:?} events={:?} tx={:?} ber={} rng={:#x}",
        sim.now(),
        sim.events(),
        sim.tx_stats(),
        sim.measured_ber(),
        sim.rng_fingerprint(),
    )
}

/// Runs the ACL-saturated window under `engine` at `fidelity`; returns
/// (slots/sec, digest). Best of 3 runs — the whole window is a few
/// milliseconds under the statistical tier, so a single wall-clock
/// sample is dominated by scheduler noise. Determinism means every run
/// produces the same digest, which the loop asserts.
fn saturated(engine: Engine, fidelity: Fidelity, slots: u64) -> (f64, String) {
    saturated_with(engine, fidelity, slots, false)
}

/// [`saturated`] with an explicit capture switch — the capture-on run of
/// the overhead rows records every air packet and LMP PDU while driving
/// the identical workload.
fn saturated_with(engine: Engine, fidelity: Fidelity, slots: u64, capture: bool) -> (f64, String) {
    let mut best = 0.0f64;
    let mut digest_out = String::new();
    for run in 0..3 {
        let (mut sim, lt) = if capture {
            btsim_bench::captured_pair(15, engine)
        } else {
            connected_pair_at(15, engine, fidelity)
        };
        sim.command(0, LcCommand::SetTpoll(2));
        sim.command(
            0,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; slots as usize * 9],
            },
        );
        let end = sim.now() + SimDuration::from_slots(slots);
        let started = Instant::now();
        sim.run_until(end);
        best = best.max(slots as f64 / started.elapsed().as_secs_f64().max(1e-9));
        if capture {
            assert!(
                !sim.capture().is_empty(),
                "capture-on run stored no records"
            );
        }
        let d = digest(&sim);
        if run == 0 {
            digest_out = d;
        } else {
            assert_eq!(digest_out, d, "nondeterministic saturated run");
        }
    }
    (best, digest_out)
}

/// Exact work counts of a finished run: its [`digest`], the dispatch
/// count and every `cost.*` counter of the metrics hub. Unlike a
/// wall-clock rate, two runs doing the same work match bit for bit.
fn work(sim: &Simulator) -> String {
    let hub = sim.metrics_snapshot();
    let costs: Vec<_> = hub
        .counters()
        .iter()
        .filter(|(name, _)| name.starts_with("cost."))
        .collect();
    format!(
        "{} steps_total={} {costs:?}",
        digest(sim),
        sim.steps_total()
    )
}

/// One timed run of the bit-tier saturated workload with an optional
/// fault plan installed (`None` = the plain baseline, built through the
/// identical code path so the only difference *is* the plan). Returns
/// the rate and the finished simulator.
fn saturated_fault_run(engine: Engine, slots: u64, spec: Option<&str>) -> (f64, Simulator) {
    use btsim_core::scenario::{connect_pair, paper_config};
    let mut cfg = paper_config();
    cfg.engine = engine;
    if let Some(spec) = spec {
        cfg.faults = btsim_core::FaultPlan::parse(spec).expect("fault spec parses");
    }
    let mut b = SimBuilder::new(15, cfg);
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("pair connects");
    sim.command(0, LcCommand::SetTpoll(2));
    sim.command(
        0,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0x5A; slots as usize * 9],
        },
    );
    let end = sim.now() + SimDuration::from_slots(slots);
    let started = Instant::now();
    sim.run_until(end);
    let rate = slots as f64 / started.elapsed().as_secs_f64().max(1e-9);
    (rate, sim)
}

/// [`saturated_fault_run`] best of 3 runs, asserting every run does the
/// same [`work`]. Returns (slots/sec, digest, work).
fn saturated_faulted(engine: Engine, slots: u64, spec: Option<&str>) -> (f64, String, String) {
    let mut best = 0.0f64;
    let mut work_out = String::new();
    let mut digest_out = String::new();
    for run in 0..3 {
        let (rate, sim) = saturated_fault_run(engine, slots, spec);
        best = best.max(rate);
        let w = work(&sim);
        if run == 0 {
            (work_out, digest_out) = (w, digest(&sim));
        } else {
            assert_eq!(work_out, w, "nondeterministic faulted run");
        }
    }
    (best, digest_out, work_out)
}

/// Forms the scenario's chain topology the expensive way: every link
/// starts from *discovery* — the master inquires for the member (the
/// paper's ≈1556-slot mean at zero noise, dense ID-train traffic the
/// whole time), learns its clock offset from the FHS response, and only
/// then pages. This is the realistic formation cost that a formed
/// snapshot amortizes — `ScatternetScenario::form` skips discovery and
/// pages with exact clock estimates, connecting within tens of slots.
fn cold_form_chain(cfg: &ScatternetConfig, seed: u64) -> Simulator {
    let topo = Topology::chain(cfg.piconets, cfg.slaves_per_piconet);
    let mut b = SimBuilder::new(seed, cfg.sim.clone());
    register_devices(&topo, &mut b);
    let mut sim = b.build();
    let mut cursor = sim.cursor();
    for (piconet, device) in topo.links() {
        let master = topo.master_device(piconet);
        let target = sim.lc(device).addr();
        sim.command(device, LcCommand::InquiryScan);
        sim.command(
            master,
            LcCommand::Inquiry {
                num_responses: 1,
                timeout_slots: 20_000,
            },
        );
        let cap = sim.now() + SimDuration::from_slots(41_000);
        let found = sim
            .run_until_event_from(&mut cursor, cap, |e| {
                e.device == master
                    && matches!(&e.event, LcEvent::InquiryResult { addr, .. } if *addr == target)
            })
            .expect("inquiry discovers the member on a clean channel");
        let LcEvent::InquiryResult { clk_offset, .. } = found.event else {
            unreachable!("matched above");
        };
        sim.run_until_event_from(&mut cursor, cap, |e| {
            e.device == master && matches!(e.event, LcEvent::InquiryComplete { .. })
        })
        .expect("single-response inquiry completes right after the result");
        sim.command(device, LcCommand::PageScan);
        sim.command(
            master,
            LcCommand::Page {
                target,
                clke_offset: clk_offset,
                timeout_slots: 0,
            },
        );
        let done = sim
            .run_until_event_from(
                &mut cursor,
                sim.now() + SimDuration::from_slots(8_192),
                |e| {
                    e.device == master
                        && matches!(&e.event, LcEvent::PageComplete { addr, .. } if *addr == target)
                },
            )
            .expect("page with a discovered clock estimate completes");
        sim.run_until(done.at + SimDuration::from_slots(8));
    }
    sim
}

fn main() -> ExitCode {
    let opts = btsim_bench::parse_cli();
    let quick = opts.exp.runs <= btsim_core::experiments::ExpOptions::quick().runs;
    let iters: u64 = if quick { 200 } else { 2_000 };
    let slots: u64 = if quick { 4_000 } else { 20_000 };

    let coding = coding_rows(iters);
    let medium = medium_rows(iters);
    let calendar = calendar_rows(iters);

    // Fidelity × engine matrix: every tier must be engine-bit-exact,
    // and the statistical tier must actually be faster than bit level
    // (that is the whole point of `btsim-fidelity`).
    println!("{:<28} {:>14}", "saturated workload", "slots/s");
    let mut fields = vec![("slots".to_string(), JsonValue::from(slots))];
    let mut rates = Vec::new();
    let mut diverged = false;
    for fidelity in [Fidelity::Bit, Fidelity::Stat, Fidelity::Auto] {
        let (lockstep_rate, lockstep_digest) = saturated(Engine::Lockstep, fidelity, slots);
        let (event_rate, event_digest) = saturated(Engine::EventDriven, fidelity, slots);
        let tier = fidelity.name();
        println!(
            "{:<28} {lockstep_rate:>14.0}",
            format!("acl_{tier}_lockstep")
        );
        println!("{:<28} {event_rate:>14.0}", format!("acl_{tier}_event"));
        if lockstep_digest != event_digest {
            eprintln!("error: engines diverged on the saturated {tier} workload");
            eprintln!("lockstep: {lockstep_digest}");
            eprintln!("event:    {event_digest}");
            diverged = true;
        }
        fields.push((
            format!("{tier}_lockstep_slots_per_sec"),
            JsonValue::from(lockstep_rate),
        ));
        fields.push((
            format!("{tier}_event_slots_per_sec"),
            JsonValue::from(event_rate),
        ));
        fields.push((
            format!("engines_bit_exact_{tier}"),
            JsonValue::Bool(lockstep_digest == event_digest),
        ));
        rates.push((lockstep_rate, event_rate));
    }
    let stat_speedup = rates[1].0 / rates[0].0.max(1e-9);
    println!("{:<28} {stat_speedup:>13.1}x", "stat_vs_bit_speedup");
    fields.push(("stat_speedup".to_string(), JsonValue::from(stat_speedup)));

    // Capture overhead rows: the bit-tier lockstep workload with the
    // packet-capture tap on vs off. The off figure is the bit-lockstep
    // rate already measured above (identical configuration).
    let capture_off = rates[0].0;
    let (capture_on, _) = saturated_with(Engine::Lockstep, Fidelity::Bit, slots, true);
    let capture_overhead = 1.0 - capture_on / capture_off.max(1e-9);
    println!("{:<28} {capture_off:>14.0}", "acl_bit_capture_off");
    println!("{:<28} {capture_on:>14.0}", "acl_bit_capture_on");
    println!(
        "{:<28} {:>13.1}%",
        "capture_overhead",
        capture_overhead * 100.0
    );
    fields.push((
        "capture_off_slots_per_sec".to_string(),
        JsonValue::from(capture_off),
    ));
    fields.push((
        "capture_on_slots_per_sec".to_string(),
        JsonValue::from(capture_on),
    ));
    fields.push((
        "capture_overhead_frac".to_string(),
        JsonValue::from(capture_overhead),
    ));

    // Faulted rows: the same bit-tier saturated link with a fault plan
    // that fires inside the window (degrade ramp, then a mute/unmute
    // outage, then heal) — both engines, which must stay bit-exact
    // through the calendar. The idle row installs a plan whose only
    // event sits far beyond the horizon: a scheduled-but-dormant
    // FaultPlan must ride the event calendar, not the per-slot path,
    // so it must leave the plain bit-lockstep run's exact work counts
    // unchanged. Its wall-clock overhead is reported only.
    let faulted_spec = format!(
        "degrade@{}:dev=1,ber=0.01,ramp={};mute@{}:dev=1;unmute@{}:dev=1;heal@{}:dev=1",
        slots / 4,
        slots / 8,
        slots / 2,
        5 * slots / 8,
        3 * slots / 4
    );
    let (faulted_lockstep, faulted_ld, faulted_work) =
        saturated_faulted(Engine::Lockstep, slots, Some(&faulted_spec));
    let (faulted_event, faulted_ed, _) =
        saturated_faulted(Engine::EventDriven, slots, Some(&faulted_spec));
    println!(
        "{:<28} {faulted_lockstep:>14.0}",
        "acl_bit_faulted_lockstep"
    );
    println!("{:<28} {faulted_event:>14.0}", "acl_bit_faulted_event");
    if faulted_ld != faulted_ed {
        eprintln!("error: engines diverged on the faulted saturated workload");
        eprintln!("lockstep: {faulted_ld}");
        eprintln!("event:    {faulted_ed}");
        diverged = true;
    }
    let idle_spec = "crash@100000000:dev=1";
    let (fault_plain, _, plain_work) = saturated_faulted(Engine::Lockstep, slots, None);
    let (fault_idle, _, idle_work) = saturated_faulted(Engine::Lockstep, slots, Some(idle_spec));
    let fault_idle_overhead = 1.0 - fault_idle / fault_plain.max(1e-9);
    println!("{:<28} {fault_idle:>14.0}", "acl_bit_fault_idle");
    println!(
        "{:<28} {:>13.1}%",
        "fault_idle_overhead",
        fault_idle_overhead * 100.0
    );
    fields.push((
        "faulted_lockstep_slots_per_sec".to_string(),
        JsonValue::from(faulted_lockstep),
    ));
    fields.push((
        "faulted_event_slots_per_sec".to_string(),
        JsonValue::from(faulted_event),
    ));
    fields.push((
        "engines_bit_exact_faulted".to_string(),
        JsonValue::Bool(faulted_ld == faulted_ed),
    ));
    fields.push((
        "fault_idle_slots_per_sec".to_string(),
        JsonValue::from(fault_idle),
    ));
    fields.push((
        "fault_idle_overhead_frac".to_string(),
        JsonValue::from(fault_idle_overhead),
    ));
    fields.push((
        "fault_idle_work_exact".to_string(),
        JsonValue::Bool(idle_work == plain_work),
    ));

    // Sharding rows: a 200-device dense spatial floor (100 clusters of
    // one saturated piconet each) at --shards 1 vs 4. The clusters are
    // disjoint interference components, so 4 workers should cut the
    // wall clock nearly linearly; the results are bit-identical by the
    // sharding determinism contract (docs/SPATIAL.md).
    let shard_slots: u64 = if quick { 1_000 } else { 4_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shard_rows: Vec<_> = [1usize, 4]
        .iter()
        .map(|&n| {
            btsim_core::experiments::dense_floor_speed_on(&opts.exp, (10, 10), 1, n, shard_slots)
        })
        .collect();
    println!("{:<28} {:>14}", "dense floor (200 devices)", "slots/s");
    let mut shard_fields = vec![
        (
            "devices".to_string(),
            JsonValue::from(shard_rows[0].devices as u64),
        ),
        ("slots".to_string(), JsonValue::from(shard_slots)),
        ("parallel_cores".to_string(), JsonValue::from(cores as u64)),
    ];
    for r in &shard_rows {
        println!(
            "{:<28} {:>14.0}",
            format!("dense_floor_shards{}", r.shards),
            r.slots_per_sec
        );
        shard_fields.push((
            format!("shards{}_slots_per_sec", r.shards),
            JsonValue::from(r.slots_per_sec),
        ));
    }
    let shard_speedup = shard_rows[1].slots_per_sec / shard_rows[0].slots_per_sec.max(1e-9);
    println!("{:<28} {shard_speedup:>13.1}x", "shard_speedup_4v1");
    shard_fields.push((
        "shard_speedup_4v1".to_string(),
        JsonValue::from(shard_speedup),
    ));

    // Formation-amortization rows: a 3-piconet scatternet campaign run
    // once per seed by re-forming the topology, and once by forking a
    // single formed snapshot. Formation here is discovery-first (inquiry
    // per link, then page — see `cold_form_chain`), the realistic
    // assembly cost a formed snapshot amortizes. Both paths reseed
    // identically per run (reseed_for_fork), so their outcomes must be
    // bit-identical — the snapshot only removes the formation cost.
    use btsim_core::net::ScatternetScenario;
    use btsim_core::scenario::Scenario;
    let form_runs: u64 = if quick { 4 } else { 8 };
    let form_seed = 0xF0_5EED;
    let scenario = ScatternetScenario::new(ScatternetConfig {
        piconets: 3,
        measure_slots: 1_000,
        ..ScatternetConfig::default()
    });
    let started = Instant::now();
    let snap = cold_form_chain(scenario.config(), form_seed).snapshot();
    let forked: Vec<_> = (0..form_runs)
        .map(|i| {
            let mut sim = snap.restore();
            sim.reseed_for_fork(form_seed.wrapping_add(i));
            scenario.drive_formed(&mut sim)
        })
        .collect();
    let fork_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let reformed: Vec<_> = (0..form_runs)
        .map(|i| {
            let mut sim = cold_form_chain(scenario.config(), form_seed);
            sim.reseed_for_fork(form_seed.wrapping_add(i));
            scenario.drive_formed(&mut sim)
        })
        .collect();
    let reform_secs = started.elapsed().as_secs_f64();
    let fork_speedup = reform_secs / fork_secs.max(1e-9);
    let fork_diverged = forked != reformed;
    println!("{:<28} {:>14}", "formation (3-piconet chain)", "seconds");
    println!(
        "{:<28} {reform_secs:>14.3}",
        format!("reform_{form_runs}_runs")
    );
    println!("{:<28} {fork_secs:>14.3}", format!("fork_{form_runs}_runs"));
    println!("{:<28} {fork_speedup:>13.1}x", "fork_speedup");
    let formation_fields = vec![
        ("runs".to_string(), JsonValue::from(form_runs)),
        ("reform_secs".to_string(), JsonValue::from(reform_secs)),
        ("fork_secs".to_string(), JsonValue::from(fork_secs)),
        ("fork_speedup".to_string(), JsonValue::from(fork_speedup)),
        (
            "fork_bit_exact".to_string(),
            JsonValue::Bool(!fork_diverged),
        ),
    ];

    let path = opts.json.as_deref().unwrap_or("BENCH_hotpath.json");
    let doc = JsonValue::Obj(vec![
        ("coding_hotpath".to_string(), JsonValue::Arr(coding)),
        ("medium_scaling".to_string(), JsonValue::Arr(medium)),
        ("calendar".to_string(), JsonValue::Arr(calendar)),
        ("saturated".to_string(), JsonValue::Obj(fields)),
        ("sharding".to_string(), JsonValue::Obj(shard_fields)),
        ("formation".to_string(), JsonValue::Obj(formation_fields)),
    ]);
    btsim_bench::write_artifact(path, &format!("{}\n", doc.render()));

    // Smoke assertions: the acceptance gate CI relies on.
    if rates.iter().any(|&(l, e)| l <= 0.0 || e <= 0.0) {
        eprintln!("error: saturated slots/sec is zero");
        return ExitCode::FAILURE;
    }
    if diverged {
        return ExitCode::FAILURE;
    }
    if rates[1].0 <= rates[0].0 || rates[1].1 <= rates[0].1 {
        eprintln!(
            "error: statistical tier is not faster than bit level \
             (lockstep {:.0} vs {:.0}, event {:.0} vs {:.0})",
            rates[1].0, rates[0].0, rates[1].1, rates[0].1
        );
        return ExitCode::FAILURE;
    }
    if capture_on <= 0.0 {
        eprintln!("error: capture-on slots/sec is zero");
        return ExitCode::FAILURE;
    }
    if faulted_lockstep <= 0.0 || faulted_event <= 0.0 {
        eprintln!("error: faulted saturated slots/sec is zero");
        return ExitCode::FAILURE;
    }
    if idle_work != plain_work {
        eprintln!("error: an idle FaultPlan changed the bit-lockstep run's work");
        eprintln!("plain: {plain_work}");
        eprintln!("idle:  {idle_work}");
        return ExitCode::FAILURE;
    }
    if faulted_work == plain_work {
        eprintln!(
            "error: the idle-plan gate is blind: a plan firing inside the \
             window left the exact work counts unchanged"
        );
        return ExitCode::FAILURE;
    }
    println!("idle fault-plan gate: same digest, steps_total and cost.* as the plain run, OK");
    if shard_rows
        .iter()
        .any(|r| !r.formed || r.slots_per_sec <= 0.0)
    {
        eprintln!("error: a dense-floor sharding row failed to form or measured zero");
        return ExitCode::FAILURE;
    }
    if cores >= 4 && shard_speedup < 2.0 {
        eprintln!(
            "error: 4-shard dense floor speedup is {shard_speedup:.2}x (< 2x) \
             on a {cores}-core host"
        );
        return ExitCode::FAILURE;
    }
    if fork_diverged {
        eprintln!(
            "error: forked scatternet runs diverged from the re-formed \
             straight-through runs — snapshot restore is not bit-exact"
        );
        return ExitCode::FAILURE;
    }
    if fork_speedup < 2.0 {
        eprintln!(
            "error: formed-snapshot forking is only {fork_speedup:.2}x faster \
             than re-forming per run (< 2x)"
        );
        return ExitCode::FAILURE;
    }
    println!("saturated rows nonzero, engines bit-exact, stat tier faster: OK");
    ExitCode::SUCCESS
}
