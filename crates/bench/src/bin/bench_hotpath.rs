//! The workspace's speed harness, written to `BENCH_hotpath.json`:
//! codec, hop, correlator, medium and calendar microbenchmarks; engine
//! throughput on idle workloads; fidelity-tier throughput on a saturated
//! link; sharding; and formation forking. `docs/PERF.md` lists every
//! section, field and gate.
//!
//! ```text
//! cargo run --release -p btsim-bench --bin bench_hotpath [--quick] [--json PATH]
//! ```
//!
//! Every figure is timed one way ([`Timer`]): an iteration count is
//! calibrated once so that one window lasts at least 100 ms, then N
//! windows are timed (N = 9, or 3 under `--quick`, except the campaign
//! section, which always times 9) and the figure is the `median` and
//! `iqr` of the per-window values over `windows` windows.
//! Sides that are compared run alternately, one window each per round,
//! with one shared iteration count, and a ratio is the median of the
//! per-round ratios, so a host that slows down mid-run moves both sides
//! alike. The one exception to the shared count is the engines section:
//! its idle workloads run up to ~1000× faster on the event engine, so an
//! equal count would stretch one lockstep window to minutes; each engine
//! gets its own count there, and the windows still alternate.
//!
//! A failed gate exits nonzero after the JSON is written, as does a JSON
//! file that cannot be written. Speed regressions are judged by the
//! `perfbench` benchmark.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::hash::{DefaultHasher, Hasher};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use btsim_baseband::hop::{self, HopSequence};
use btsim_baseband::packet::{self, Header, LinkKeys, Payload};
use btsim_baseband::{BdAddr, ClkVal, LcCommand, LcEvent, Llid, PacketType, SniffParams};
use btsim_channel::{ChannelConfig, Medium};
use btsim_coding::{crc, fec, syncword, BitVec, Whitener};
use btsim_core::campaign::Campaign;
use btsim_core::experiments::PAPER_BERS;
use btsim_core::net::{
    register_devices, DenseFloorConfig, DenseFloorScenario, ScatternetConfig, ScatternetScenario,
    Topology,
};
use btsim_core::scenario::{
    connect_pair, paper_config, InquiryConfig, InquiryScenario, PageConfig, PageScenario, Scenario,
};
use btsim_core::{Engine, ExpOptions, FaultPlan, Fidelity, SimBuilder, Simulator};
use btsim_kernel::{Calendar, SimDuration, SimRng, SimTime, Snap, SnapWriter};
use btsim_stats::JsonValue;

/// One side of a measurement: runs `n` iterations and returns the wall
/// time of the timed part (set-up may run untimed).
trait Side {
    fn window(&mut self, n: u64) -> Duration;
}

impl<F: FnMut(u64) -> Duration> Side for F {
    fn window(&mut self, n: u64) -> Duration {
        self(n)
    }
}

/// The one timing primitive behind every figure.
struct Timer {
    /// The shortest window worth reporting.
    target: Duration,
    /// Windows timed per side.
    windows: usize,
}

impl Timer {
    /// The first iteration count, grown geometrically, whose window
    /// lasts at least 1.25× the target, so that run-to-run noise seldom
    /// takes a timed window below the target.
    fn calibrate(&self, side: &mut dyn Side) -> u64 {
        let aim = self.target.mul_f64(1.25);
        let mut n = 1u64;
        loop {
            let took = side.window(n);
            if took >= aim {
                return n;
            }
            let grow = 1.1 * aim.as_secs_f64() / took.as_secs_f64().max(1e-9);
            n = (n as f64 * grow.min(100.0)).ceil() as u64;
        }
    }

    /// Times `sides` in rounds of one window each (A B A B …), side `i`
    /// running `counts[i]` iterations per window; returns each side's ns
    /// per iteration, one value per window. A round with a window shorter
    /// than the target (the host sped up after calibration) doubles every
    /// count and is run again, so no reported window is short and every
    /// round shares its counts.
    fn rounds(&self, mut counts: Vec<u64>, sides: &mut [&mut dyn Side]) -> Vec<Vec<f64>> {
        let mut ns = vec![Vec::with_capacity(self.windows); sides.len()];
        while ns[0].len() < self.windows {
            let round: Vec<Duration> = sides
                .iter_mut()
                .zip(&counts)
                .map(|(side, &n)| side.window(n))
                .collect();
            if round.iter().any(|&took| took < self.target) {
                counts.iter_mut().for_each(|c| *c *= 2);
                continue;
            }
            for ((out, took), &n) in ns.iter_mut().zip(round).zip(&counts) {
                out.push(took.as_nanos() as f64 / n as f64);
            }
        }
        ns
    }

    /// [`Timer::rounds`] at one shared count: the largest any side
    /// needs for a window of at least the target.
    fn paired(&self, sides: &mut [&mut dyn Side]) -> Vec<Vec<f64>> {
        let n = sides.iter_mut().map(|s| self.calibrate(*s)).max();
        self.rounds(vec![n.unwrap_or(1); sides.len()], sides)
    }

    /// [`Timer::rounds`] with each side at its own calibrated count:
    /// for sides compared but not divided, or too far apart in speed to
    /// share a count.
    fn alternated(&self, sides: &mut [&mut dyn Side]) -> Vec<Vec<f64>> {
        let counts = sides.iter_mut().map(|s| self.calibrate(*s)).collect();
        self.rounds(counts, sides)
    }

    /// One side on its own.
    fn time(&self, side: &mut dyn Side) -> Vec<f64> {
        self.paired(&mut [side]).remove(0)
    }
}

/// A side that runs `op` once per iteration, all of it timed.
fn each<T>(mut op: impl FnMut() -> T) -> impl FnMut(u64) -> Duration {
    move |n| {
        let started = Instant::now();
        for _ in 0..n {
            black_box(op());
        }
        started.elapsed()
    }
}

/// Median and interquartile range of `v` (quartiles interpolated
/// linearly between order statistics).
fn median_iqr(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (q(0.5), q(0.75) - q(0.25))
}

fn median(v: &[f64]) -> f64 {
    median_iqr(v).0
}

/// A timed figure: prints `label`, median and IQR of the per-window
/// values, and returns them as `{"median", "iqr", "windows"}`.
fn figure(label: &str, v: &[f64]) -> JsonValue {
    let (median, iqr) = median_iqr(v);
    println!("{label:<32} {median:>14.2} {iqr:>12.2}");
    obj(vec![
        ("median", JsonValue::from(median)),
        ("iqr", JsonValue::from(iqr)),
        ("windows", JsonValue::from(v.len() as u64)),
    ])
}

fn header(section: &str, unit: &str) {
    println!("{section:<32} {unit:>14} {:>12}", "iqr");
}

/// Per-window rates (things per wall second) from ns per iteration.
fn rate(ns: &[f64], per_iteration: u64) -> Vec<f64> {
    ns.iter().map(|t| per_iteration as f64 * 1e9 / t).collect()
}

/// Per-round ratios `a / b`.
fn ratio(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a / b).collect()
}

/// Per-round overheads `1 - with / without` of two rates.
fn overhead(with: &[f64], without: &[f64]) -> Vec<f64> {
    ratio(with, without).iter().map(|r| 1.0 - r).collect()
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn coding_rows(timer: &Timer) -> Vec<JsonValue> {
    let mut dh5_body = BitVec::from_fn(2728, |i| i % 3 == 0); // DH5 framed payload
    let dm5_body = BitVec::from_fn(1810, |i| i % 5 < 2); // DM5 framed payload
    let mut dm5_coded = BitVec::new();
    fec::fec23_encode_into(&dm5_body, &mut dm5_coded);
    let header_bits = BitVec::from_fn(18, |i| i % 2 == 0);
    let mut header_coded = BitVec::new();
    fec::fec13_encode_into(&header_bits, &mut header_coded);
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
    // The dense floor's packet: a full DM1.
    let dm1 = Header {
        ptype: PacketType::Dm1,
        ..dh5
    };
    let dm1_payload = Payload::Acl {
        llid: Llid::Start,
        flow: false,
        data: vec![0x5A; 17],
    };
    // One codec and one output buffer serve every row, as in the
    // simulator, where each link controller reuses its codec's scratch.
    let mut codec = packet::Codec::new();
    let air = codec.encode(&keys, &dh5, &payload);
    let dm1_air = codec.encode(&keys, &dm1, &dm1_payload);
    let mut out = BitVec::new();
    let hop_addr = BdAddr::new(0, 0x47, 0x2A96EF).hop_input();
    let inquiry = HopSequence::Inquiry {
        kofs: hop::KOFFSET_A,
    };
    let threshold = syncword::DEFAULT_SYNC_THRESHOLD;
    let mut clk = 0u32;
    let mut rows = Vec::new();
    let mut row = |name: &str, side: &mut dyn Side| {
        let ns = timer.time(side);
        rows.push(obj(vec![
            ("op", JsonValue::from(name)),
            ("ns_per_op", figure(name, &ns)),
        ]));
    };
    header("coding op", "ns/op");
    row(
        "whiten_2728b",
        &mut each(|| Whitener::from_clk(0x15).xor_into(&mut dh5_body)),
    );
    row(
        "fec13_encode_18b",
        &mut each(|| {
            out.clear();
            fec::fec13_encode_into(&header_bits, &mut out);
        }),
    );
    row(
        "fec13_decode_54b",
        &mut each(|| {
            out.clear();
            fec::fec13_decode(&header_coded, 0..header_coded.len(), &mut out)
        }),
    );
    row(
        "fec23_encode_1810b",
        &mut each(|| {
            out.clear();
            fec::fec23_encode_into(&dm5_body, &mut out);
        }),
    );
    row(
        "fec23_decode_2715b",
        &mut each(|| {
            out.clear();
            fec::fec23_decode(&dm5_coded, 0..dm5_coded.len(), &mut out)
        }),
    );
    row(
        "crc16_2728b",
        &mut each(|| crc::crc16_bits(0x47, &dh5_body)),
    );
    row(
        "encode_dh5",
        &mut each(|| codec.encode(&keys, &dh5, &payload)),
    );
    row(
        "decode_dh5",
        &mut each(|| codec.decode(&air, None, &keys).expect("clean")),
    );
    row(
        "decode_dm1_17B",
        &mut each(|| codec.decode(&dm1_air, None, &keys).expect("clean")),
    );
    row(
        "correlate_sync",
        &mut each(|| syncword::correlate(&air, 4, None, keys.lap, threshold)),
    );
    row(
        "hop_connection",
        &mut each(|| {
            clk = clk.wrapping_add(2);
            hop::hop_channel(HopSequence::Connection, ClkVal::new(clk), hop_addr)
        }),
    );
    row(
        "hop_inquiry_train",
        &mut each(|| {
            clk = clk.wrapping_add(1);
            hop::hop_channel(inquiry, ClkVal::new(clk), hop_addr)
        }),
    );
    rows
}

/// One steady-state `begin_tx` + `receive` + `gc` round trip per
/// iteration, with the retention window sized to keep `retained`
/// transmissions registered. `spread` rotates the traffic over all 79
/// RF channels; `!spread` keeps it on one channel, where every retained
/// transmission is a co-channel one. The BER 1e-2 row adds the noise
/// draws of a bad channel.
fn medium_rows(timer: &Timer) -> Vec<JsonValue> {
    let mut rows = Vec::new();
    header("medium workload", "us/packet");
    let workloads = [
        (1usize, false, 0.0),
        (64, false, 0.0),
        (512, false, 0.0),
        (512, true, 0.0),
        (8, false, 0.01),
    ];
    for (retained, spread, ber) in workloads {
        let channel = ChannelConfig {
            ber,
            ..ChannelConfig::default()
        };
        let mut m = Medium::new(channel, SimRng::new(7));
        let bits = BitVec::from_fn(366, |i| i % 2 == 0);
        let retention = SimDuration::from_us(retained as u64 * 1000);
        let mut at = SimTime::ZERO;
        let mut ch = 0u8;
        let ns = timer.time(&mut each(|| {
            let tx = m.begin_tx(0, if spread { ch } else { 40 }, at, bits.clone());
            let rx = m.receive(tx).expect("retained");
            m.gc(at, retention);
            at += SimDuration::from_us(1000);
            ch = (ch + 1) % 79;
            rx
        }));
        let us: Vec<f64> = ns.iter().map(|t| t / 1000.0).collect();
        let label = format!(
            "tx_rx_gc_retain{retained}_{}{}",
            if spread { "spread79" } else { "cochannel" },
            if ber > 0.0 { "_ber1e-2" } else { "" }
        );
        rows.push(obj(vec![
            ("workload", JsonValue::from(label.as_str())),
            ("retained", JsonValue::from(retained as u64)),
            ("us_per_packet", figure(&label, &us)),
        ]));
    }
    rows
}

/// A calendar payload the size of the simulator's event type.
type CalendarPayload = [u64; 6];

/// The calendar section: ns per `pop` + `schedule` in a steady state of
/// 400 and 1,600 pending entries, each popped event rescheduled at its
/// instant plus the next offset (cycled), next to a reference
/// `BinaryHeap` of `(time, seq, payload)` — the layout of a heap-only
/// calendar. Offsets form a `lattice` (1-8 half slots, so at most nine
/// distinct instants, the dense floor's shape) or are `distinct`
/// (random nanosecond offsets up to 2 µs times the pending count, so
/// nearly every entry has an instant of its own). Reported only.
fn calendar_rows(timer: &Timer) -> Vec<JsonValue> {
    let mut rows = Vec::new();
    header("calendar pop+schedule", "ns/op");
    for pending in [400usize, 1_600] {
        let mut rng = SimRng::new(pending as u64);
        let lattice: Vec<u64> = (0..4096)
            .map(|_| (1 + rng.range_u64(8)) * SimDuration::HALF_SLOT.ns())
            .collect();
        let distinct: Vec<u64> = (0..4096)
            .map(|_| 1 + rng.range_u64(2_000 * pending as u64))
            .collect();
        for (pattern, offsets) in [("lattice", &lattice), ("distinct", &distinct)] {
            let payload: CalendarPayload = [7; 6];
            let mut cal = Calendar::new();
            let mut heap = BinaryHeap::new();
            for (seq, &off) in offsets.iter().cycle().take(pending).enumerate() {
                cal.schedule(SimTime::from_ns(off), payload);
                heap.push(Reverse((SimTime::from_ns(off), seq as u64, payload)));
            }
            let (mut k_cal, mut k_heap, mut seq) = (0, 0, pending as u64);
            let ns = timer.alternated(&mut [
                &mut each(|| {
                    let (at, p) = cal.pop().expect("steady state");
                    cal.schedule(at + SimDuration::from_ns(offsets[k_cal]), p);
                    k_cal = (k_cal + 1) % offsets.len();
                }),
                &mut each(|| {
                    let Reverse((at, _, p)) = heap.pop().expect("steady state");
                    heap.push(Reverse((
                        at + SimDuration::from_ns(offsets[k_heap]),
                        seq,
                        p,
                    )));
                    seq += 1;
                    k_heap = (k_heap + 1) % offsets.len();
                }),
            ]);
            let label = format!("{pattern}_{pending}");
            rows.push(obj(vec![
                ("pattern", JsonValue::from(pattern)),
                ("pending", JsonValue::from(pending as u64)),
                ("ns_per_op", figure(&label, &ns[0])),
                (
                    "heap_ns_per_op",
                    figure(&format!("{label}_binary_heap"), &ns[1]),
                ),
            ]));
        }
    }
    rows
}

/// Simulated slots per iteration of the simulator workloads.
const CHUNK: u64 = 100;

/// The one builder of the two-device workloads: a master and a slave
/// connected on a clean channel under `engine` and `fidelity`, with the
/// capture tap and a fault plan as asked. Returns the simulator and the
/// slave's LT_ADDR.
fn pair(
    seed: u64,
    engine: Engine,
    fidelity: Fidelity,
    capture: bool,
    faults: Option<&str>,
) -> (Simulator, u8) {
    let mut cfg = paper_config();
    cfg.engine = engine;
    cfg.fidelity = fidelity;
    cfg.capture = capture;
    if let Some(spec) = faults {
        cfg.faults = FaultPlan::parse(spec).expect("fault spec parses");
    }
    let mut b = SimBuilder::new(seed, cfg);
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("pair connects");
    (sim, lt)
}

/// Fingerprint of everything deterministic about a finished simulation:
/// the clock, the event log (hashed through its snapshot encoding, which
/// is far cheaper than `Debug` on a long log), TX stats, measured BER
/// and RNG state.
fn digest(sim: &Simulator) -> u64 {
    let mut events = SnapWriter::new();
    sim.events().iter().for_each(|e| e.snap(&mut events));
    let mut h = DefaultHasher::new();
    h.write(&events.into_bytes());
    let rest = format!(
        "now={:?} events={} tx={:?} ber={} rng={:#x}",
        sim.now(),
        sim.events().len(),
        sim.tx_stats(),
        sim.measured_ber(),
        sim.rng_fingerprint(),
    );
    h.write(rest.as_bytes());
    h.finish()
}

/// Exact work counts of a finished run: its [`digest`], the dispatch
/// count and every `cost.*` counter of the metrics hub. Unlike a
/// wall-clock rate, two runs doing the same work match bit for bit.
fn work(sim: &Simulator, digest: u64) -> String {
    let hub = sim.metrics_snapshot();
    let costs: Vec<_> = hub
        .counters()
        .iter()
        .filter(|(name, _)| name.starts_with("cost."))
        .collect();
    format!(
        "digest={digest:#x} steps_total={} {costs:?}",
        sim.steps_total()
    )
}

/// One side of the saturated-link rows: each window builds a fresh
/// [`pair`], queues 9 bytes per slot of ACL traffic at T_poll = 2 and
/// times `run_until` over `n × CHUNK` slots. Every window at one count
/// must do identical [`work`] (asserted); the last window's digest and
/// work are kept for the cross-side gates.
struct Saturated {
    engine: Engine,
    fidelity: Fidelity,
    capture: bool,
    /// The fault plan for a window of the given length in slots.
    faults: fn(u64) -> Option<String>,
    /// Iteration count, digest and work of the last window.
    last: (u64, u64, String),
}

impl Saturated {
    fn new(engine: Engine, fidelity: Fidelity) -> Self {
        Saturated {
            engine,
            fidelity,
            capture: false,
            faults: |_| None,
            last: (0, 0, String::new()),
        }
    }
}

impl Side for Saturated {
    fn window(&mut self, n: u64) -> Duration {
        let slots = n * CHUNK;
        let spec = (self.faults)(slots);
        let (mut sim, lt) = pair(
            15,
            self.engine,
            self.fidelity,
            self.capture,
            spec.as_deref(),
        );
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
        let took = started.elapsed();
        if self.capture {
            assert!(
                !sim.capture().is_empty(),
                "capture-on run stored no records"
            );
        }
        let digest = digest(&sim);
        let done = (n, digest, work(&sim, digest));
        if self.last.0 == n {
            assert_eq!(self.last, done, "nondeterministic saturated run");
        }
        self.last = done;
        took
    }
}

/// Times `sides` paired; returns slots/sec per window for each.
fn saturated_rates(timer: &Timer, sides: &mut [Saturated]) -> Vec<Vec<f64>> {
    let mut refs: Vec<&mut dyn Side> = sides.iter_mut().map(|s| s as &mut dyn Side).collect();
    let ns = timer.paired(&mut refs);
    ns.iter().map(|ns| rate(ns, CHUNK)).collect()
}

/// The saturated section. Round one: every tier under both engines at
/// one count, so the engines' digests are comparable and the
/// statistical tier's speedup is paired. Round two: the bit-tier
/// lockstep variants (capture, fault plans) at one count, so their
/// exact work and overheads are comparable.
fn saturated_section(timer: &Timer, fails: &mut Vec<String>) -> JsonValue {
    header("saturated workload", "slots/s");
    let tiers = [Fidelity::Bit, Fidelity::Stat, Fidelity::Auto];
    let mut sides: Vec<Saturated> = tiers
        .iter()
        .flat_map(|&f| [Engine::Lockstep, Engine::EventDriven].map(|e| Saturated::new(e, f)))
        .collect();
    let rates = saturated_rates(timer, &mut sides);
    let mut fields = vec![(
        "slots".to_string(),
        JsonValue::from(sides[0].last.0 * CHUNK),
    )];
    let mut put = |key: String, v: &[f64]| fields.push((key.clone(), figure(&key, v)));
    for (k, fidelity) in tiers.iter().enumerate() {
        put(
            format!("{}_lockstep_slots_per_sec", fidelity.name()),
            &rates[2 * k],
        );
        put(
            format!("{}_event_slots_per_sec", fidelity.name()),
            &rates[2 * k + 1],
        );
    }
    let stat_speedup = ratio(&rates[2], &rates[0]);
    let stat_speedup_event = ratio(&rates[3], &rates[1]);
    put("stat_speedup".into(), &stat_speedup);
    for (k, fidelity) in tiers.iter().enumerate() {
        let (lockstep, event) = (sides[2 * k].last.1, sides[2 * k + 1].last.1);
        let tier = fidelity.name();
        if lockstep != event {
            fails.push(format!(
                "engines diverged on the saturated {tier} workload \
                 (lockstep digest {lockstep:#x}, event {event:#x})"
            ));
        }
        fields.push((
            format!("engines_bit_exact_{tier}"),
            JsonValue::Bool(lockstep == event),
        ));
    }
    if rates.iter().any(|r| median(r) <= 0.0) {
        fails.push("saturated slots/sec is zero".into());
    }
    if median(&stat_speedup) <= 1.0 || median(&stat_speedup_event) <= 1.0 {
        fails.push(format!(
            "statistical tier is not faster than bit level \
             (lockstep {:.2}x, event {:.2}x)",
            median(&stat_speedup),
            median(&stat_speedup_event)
        ));
    }

    // The variants: plain, capture on, a dormant plan (its only event
    // far beyond the horizon) and a plan firing inside the window
    // (degrade ramp, then a mute/unmute outage, then heal) under both
    // engines, which must stay bit-exact through the calendar.
    let faulted: fn(u64) -> Option<String> = |slots| {
        Some(format!(
            "degrade@{}:dev=1,ber=0.01,ramp={};mute@{}:dev=1;unmute@{}:dev=1;heal@{}:dev=1",
            slots / 4,
            slots / 8,
            slots / 2,
            5 * slots / 8,
            3 * slots / 4
        ))
    };
    let bit = |engine| Saturated::new(engine, Fidelity::Bit);
    let mut variants = [
        bit(Engine::Lockstep),
        Saturated {
            capture: true,
            ..bit(Engine::Lockstep)
        },
        Saturated {
            faults: |_| Some("crash@100000000:dev=1".into()),
            ..bit(Engine::Lockstep)
        },
        Saturated {
            faults: faulted,
            ..bit(Engine::Lockstep)
        },
        Saturated {
            faults: faulted,
            ..bit(Engine::EventDriven)
        },
    ];
    let rates = saturated_rates(timer, &mut variants);
    let [plain, _, idle, faulted_lockstep, faulted_event] = &variants;
    fields.push((
        "variant_slots".to_string(),
        JsonValue::from(plain.last.0 * CHUNK),
    ));
    let capture_overhead = overhead(&rates[1], &rates[0]);
    let fault_idle_overhead = overhead(&rates[2], &rates[0]);
    for (key, v) in [
        ("capture_off_slots_per_sec", &rates[0]),
        ("capture_on_slots_per_sec", &rates[1]),
        ("capture_overhead_frac", &capture_overhead),
        ("fault_idle_slots_per_sec", &rates[2]),
        ("fault_idle_overhead_frac", &fault_idle_overhead),
        ("faulted_lockstep_slots_per_sec", &rates[3]),
        ("faulted_event_slots_per_sec", &rates[4]),
    ] {
        fields.push((key.to_string(), figure(key, v)));
    }
    let faulted_exact = faulted_lockstep.last.1 == faulted_event.last.1;
    let idle_exact = idle.last.2 == plain.last.2;
    fields.push((
        "engines_bit_exact_faulted".to_string(),
        JsonValue::Bool(faulted_exact),
    ));
    fields.push((
        "fault_idle_work_exact".to_string(),
        JsonValue::Bool(idle_exact),
    ));
    if median(&rates[1]) <= 0.0 {
        fails.push("capture-on slots/sec is zero".into());
    }
    if median(&rates[3]) <= 0.0 || median(&rates[4]) <= 0.0 {
        fails.push("faulted saturated slots/sec is zero".into());
    }
    if !faulted_exact {
        fails.push("engines diverged on the faulted saturated workload".into());
    }
    if !idle_exact {
        fails.push(format!(
            "an idle FaultPlan changed the bit-lockstep run's work\nplain: {}\nidle:  {}",
            plain.last.2, idle.last.2
        ));
    } else if faulted_lockstep.last.2 == plain.last.2 {
        fails.push(
            "the idle-plan gate is blind: a plan firing inside the window \
             left the exact work counts unchanged"
                .into(),
        );
    } else {
        println!("idle fault-plan gate: same digest, steps_total and cost.* as the plain run, OK");
    }
    JsonValue::Obj(fields)
}

/// A side that advances one long-lived simulator by `n` steps of
/// `CHUNK` slots per window, one `run_until` per step: an idle window
/// costs the event engine O(1) whatever its length, so the step is the
/// unit of work. The simulator is rebuilt (not timed) before a window
/// would pass slot `u32::MAX`, so one `u32::MAX`-slot hold covers every
/// window.
fn run_on(build: impl Fn() -> Simulator) -> impl FnMut(u64) -> Duration {
    let mut sim = build();
    move |n| {
        if sim.now().slots() + n * CHUNK >= u64::from(u32::MAX) {
            sim = build();
        }
        let started = Instant::now();
        for _ in 0..n {
            let end = sim.now() + SimDuration::from_slots(CHUNK);
            sim.run_until(end);
        }
        started.elapsed()
    }
}

/// A connected pair with both ends put into an idle mode by `mode`.
fn idle_pair(seed: u64, engine: Engine, mode: fn(u8) -> LcCommand) -> Box<dyn Side> {
    Box::new(run_on(move || {
        let (mut sim, lt) = pair(seed, engine, Fidelity::Bit, false, None);
        sim.command(0, mode(lt));
        sim.command(1, mode(lt));
        sim
    }))
}

/// A lone connectable device with the paper's R1 window (11.25 ms every
/// 1.28 s): 99% of its lockstep ticks are no-ops.
fn r1_page_scan(engine: Engine) -> Box<dyn Side> {
    Box::new(run_on(move || {
        let mut cfg = paper_config();
        cfg.engine = engine;
        let mut b = SimBuilder::new(14, cfg);
        let s = b.add_device("scanner");
        let mut sim = b.build();
        sim.command(s, LcCommand::PageScan);
        sim
    }))
}

/// Measurement window of the bridge-chain workload, in slots.
const CHAIN_WINDOW: u64 = 10_000;

/// The `scat_bridge` steady state: a 3-piconet chain with hold-based
/// bridges and relayed traffic. Each iteration drives one measurement
/// window (plus drain) on a restored snapshot of the formed chain; the
/// restore is not timed.
fn scat_bridge_chain(engine: Engine) -> Box<dyn Side> {
    let mut sim = paper_config();
    sim.engine = engine;
    let scenario = ScatternetScenario::new(ScatternetConfig {
        piconets: 3,
        measure_slots: CHAIN_WINDOW,
        sim,
        ..ScatternetConfig::default()
    });
    let formed = scenario
        .form(0x00B1_005E)
        .expect("bridge chain forms on a clean channel")
        .snapshot();
    Box::new(move |n| {
        (0..n)
            .map(|_| {
                let mut sim = formed.restore();
                let started = Instant::now();
                black_box(scenario.drive_formed(&mut sim));
                started.elapsed()
            })
            .sum()
    })
}

/// The engines section: each workload under both engines, windows
/// alternating, each engine at its own count (see the module docs).
/// Reported only.
fn engine_rows(timer: &Timer) -> Vec<JsonValue> {
    // One long hold covering every window is the paper's Fig. 12 idle
    // case. The bridge chain's iteration is one window plus its drain.
    let chain_slots = CHAIN_WINDOW + ScatternetConfig::default().drain_slots;
    type Workload = fn(Engine) -> Box<dyn Side>;
    let workloads: [(&str, u64, Workload); 5] = [
        ("hold_idle", CHUNK, |engine| {
            idle_pair(11, engine, |lt_addr| LcCommand::Hold {
                lt_addr,
                hold_slots: u32::MAX,
            })
        }),
        ("sniff_100_idle", CHUNK, |engine| {
            idle_pair(12, engine, |lt_addr| LcCommand::Sniff {
                lt_addr,
                params: SniffParams {
                    t_sniff: 100,
                    n_attempt: 1,
                    d_sniff: 0,
                    n_timeout: 0,
                },
            })
        }),
        ("park_400_idle", CHUNK, |engine| {
            idle_pair(13, engine, |lt_addr| LcCommand::Park {
                lt_addr,
                beacon_interval: 400,
            })
        }),
        ("r1_page_scan", CHUNK, r1_page_scan),
        ("scat_bridge_chain", chain_slots, scat_bridge_chain),
    ];
    header("engines workload", "slots/s");
    workloads
        .into_iter()
        .map(|(name, slots, build)| {
            let (mut lockstep, mut event) = (build(Engine::Lockstep), build(Engine::EventDriven));
            let ns = timer.alternated(&mut [lockstep.as_mut(), event.as_mut()]);
            let (lockstep, event) = (rate(&ns[0], slots), rate(&ns[1], slots));
            let speedup = ratio(&event, &lockstep);
            let fig = |what: &str, v: &[f64]| figure(&format!("{name}_{what}"), v);
            obj(vec![
                ("workload", JsonValue::from(name)),
                ("slots_per_iteration", JsonValue::from(slots)),
                ("lockstep_slots_per_sec", fig("lockstep", &lockstep)),
                ("event_slots_per_sec", fig("event", &event)),
                ("speedup", fig("speedup", &speedup)),
            ])
        })
        .collect()
}

/// The sharding section: a 200-device dense spatial floor (100 clusters
/// of one saturated piconet each) at 1 vs 4 shards. The clusters are
/// disjoint interference components, so 4 workers should cut the wall
/// clock nearly linearly; the results are bit-identical by the sharding
/// determinism contract (docs/SPATIAL.md). Each side forms its floor
/// once; each window restores it (not timed) and drives `n × CHUNK`
/// slots of saturated traffic.
fn sharding_section(timer: &Timer, fails: &mut Vec<String>) -> JsonValue {
    let floor = |shards: usize| {
        let scenario = move |slots| {
            let mut cfg = DenseFloorConfig {
                grid: (10, 10),
                piconets_per_point: 1,
                measure_slots: slots,
                ..DenseFloorConfig::default()
            };
            cfg.sim.shards = shards;
            DenseFloorScenario::new(cfg)
        };
        let formed = scenario(0)
            .form(0x00B1_005E)
            .expect("dense floor forms")
            .snapshot();
        move |n: u64| {
            let scenario = scenario(n * CHUNK);
            let mut sim = formed.restore();
            let started = Instant::now();
            let out = scenario.drive_formed(&mut sim);
            let took = started.elapsed();
            assert!(out.connected, "the restored floor lost a link");
            took
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ns = timer.paired(&mut [&mut floor(1), &mut floor(4)]);
    let (one, four) = (rate(&ns[0], CHUNK), rate(&ns[1], CHUNK));
    let speedup = ratio(&four, &one);
    header("dense floor (200 devices)", "slots/s");
    let fields = obj(vec![
        ("devices", JsonValue::from(200u64)),
        ("parallel_cores", JsonValue::from(cores as u64)),
        (
            "shards1_slots_per_sec",
            figure("shards1_slots_per_sec", &one),
        ),
        (
            "shards4_slots_per_sec",
            figure("shards4_slots_per_sec", &four),
        ),
        ("shard_speedup_4v1", figure("shard_speedup_4v1", &speedup)),
    ]);
    if median(&one) <= 0.0 || median(&four) <= 0.0 {
        fails.push("a dense-floor sharding row measured zero".into());
    }
    if cores >= 4 && median(&speedup) < 2.0 {
        fails.push(format!(
            "4-shard dense floor speedup is {:.2}x (< 2x) on a {cores}-core host",
            median(&speedup)
        ));
    }
    fields
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

/// Runs per campaign of the formation section.
const FORM_RUNS: u64 = 4;

/// The formation section: one iteration is a campaign of [`FORM_RUNS`]
/// runs of a 3-piconet scatternet, either re-forming the topology per
/// run or forking every run from one formed snapshot. Formation here is
/// discovery-first (see [`cold_form_chain`]), the realistic assembly
/// cost a formed snapshot amortizes. Both paths reseed identically per
/// run (`reseed_for_fork`), so their outcomes must be bit-identical and
/// the forked campaign must dispatch fewer events: the snapshot only
/// removes the formation work.
fn formation_section(timer: &Timer, fails: &mut Vec<String>) -> JsonValue {
    let seed = 0xF0_5EED;
    let scenario = ScatternetScenario::new(ScatternetConfig {
        piconets: 3,
        measure_slots: 1_000,
        ..ScatternetConfig::default()
    });
    let cfg = scenario.config();
    // Outcomes and summed `steps_total` of each side's last campaign.
    let (mut forked, mut reformed) = ((Vec::new(), 0), (Vec::new(), 0));
    let mut fork = |n| {
        let started = Instant::now();
        for _ in 0..n {
            let formed = cold_form_chain(cfg, seed);
            let base = formed.steps_total();
            let snap = formed.snapshot();
            forked = (Vec::new(), base);
            for i in 0..FORM_RUNS {
                let mut sim = snap.restore();
                sim.reseed_for_fork(seed.wrapping_add(i));
                forked.0.push(scenario.drive_formed(&mut sim));
                forked.1 += sim.steps_total() - base;
            }
        }
        started.elapsed()
    };
    let mut reform = |n| {
        let started = Instant::now();
        for _ in 0..n {
            reformed = (Vec::new(), 0);
            for i in 0..FORM_RUNS {
                let mut sim = cold_form_chain(cfg, seed);
                sim.reseed_for_fork(seed.wrapping_add(i));
                reformed.0.push(scenario.drive_formed(&mut sim));
                reformed.1 += sim.steps_total();
            }
        }
        started.elapsed()
    };
    let ns = timer.paired(&mut [&mut reform, &mut fork]);
    let secs = |ns: &[f64]| ns.iter().map(|t| t / 1e9).collect::<Vec<_>>();
    let (reform_secs, fork_secs) = (secs(&ns[0]), secs(&ns[1]));
    let speedup = ratio(&reform_secs, &fork_secs);
    header("formation (3-piconet chain)", "s/campaign");
    let exact = forked.0 == reformed.0;
    let fields = obj(vec![
        ("runs", JsonValue::from(FORM_RUNS)),
        ("reform_secs", figure("reform_secs", &reform_secs)),
        ("fork_secs", figure("fork_secs", &fork_secs)),
        ("fork_speedup", figure("fork_speedup", &speedup)),
        ("reform_steps_total", JsonValue::from(reformed.1)),
        ("fork_steps_total", JsonValue::from(forked.1)),
        ("fork_bit_exact", JsonValue::Bool(exact)),
    ]);
    println!(
        "steps_total per campaign: reform {}, fork {}",
        reformed.1, forked.1
    );
    if !exact {
        fails.push(
            "forked scatternet runs diverged from the re-formed straight-through \
             runs — snapshot restore is not bit-exact"
                .into(),
        );
    }
    if forked.1 >= reformed.1 {
        fails.push(format!(
            "the forked campaign dispatched {} events, not fewer than the \
             re-formed campaign's {}",
            forked.1, reformed.1
        ));
    }
    if median(&speedup) < 2.0 {
        fails.push(format!(
            "formed-snapshot forking is only {:.2}x faster than re-forming \
             per run (< 2x)",
            median(&speedup)
        ));
    }
    fields
}

/// Runs per point of one creation campaign, as in perfbench's
/// `creation` unit.
const CAMPAIGN_RUNS: usize = 10;

/// Windows per side of the campaign section in both modes: its
/// speedup swings by more than 2× between windows on a shared 2-vCPU
/// host, and three windows cannot tell the claiming runner from a
/// chunked one.
const CAMPAIGN_WINDOWS: usize = 9;

/// The campaign section: one iteration is the Figs. 6-7 creation sweep
/// (inquiry and page at BER 0 and the paper's eight BERs,
/// [`CAMPAIGN_RUNS`] runs per point, configured as the registry's
/// `fig6_inquiry_vs_ber` and `fig7_page_vs_ber` entries) on 1 vs 2
/// campaign workers. The high-BER points cost up to ~80× the clean
/// ones, so the speedup shows whether both workers stay busy through
/// the sweep's expensive tail. Both sides run the same seeds, so their
/// campaign results (every run's outcome, unrounded) must be equal.
/// The speedup is reported, not gated: it depends on the host's free
/// cores. The section times at least [`CAMPAIGN_WINDOWS`] windows,
/// `--quick` or not.
fn campaign_section(timer: &Timer, fails: &mut Vec<String>) -> JsonValue {
    let timer = &Timer {
        target: timer.target,
        windows: timer.windows.max(CAMPAIGN_WINDOWS),
    };
    let mut bers = vec![("0", 0.0)];
    bers.extend(PAPER_BERS);
    let sweep = |threads| {
        let opts = ExpOptions {
            runs: CAMPAIGN_RUNS,
            threads,
            ..ExpOptions::default()
        };
        let inquiry = Campaign::sweep(bers.iter().map(|&(label, ber)| {
            (
                label.to_string(),
                InquiryScenario::new(InquiryConfig {
                    ber,
                    sim: opts.sim(paper_config()),
                    ..InquiryConfig::default()
                }),
            )
        }))
        .options(&opts)
        .run();
        let page = Campaign::sweep(bers.iter().map(|&(label, ber)| {
            (
                label.to_string(),
                PageScenario::new(PageConfig {
                    ber,
                    cap_slots: 2048,
                    sim: opts.sim(paper_config()),
                    ..PageConfig::default()
                }),
            )
        }))
        .options(&opts)
        .run();
        (inquiry, page)
    };
    // Each side's results from its last sweep.
    let (mut one, mut two) = (None, None);
    let ns = timer.paired(&mut [
        &mut each(|| one = Some(sweep(1))),
        &mut each(|| two = Some(sweep(2))),
    ]);
    let runs = (2 * bers.len() * CAMPAIGN_RUNS) as u64;
    let (rate1, rate2) = (rate(&ns[0], runs), rate(&ns[1], runs));
    header("campaign (Figs. 6-7 sweep)", "runs/s");
    let exact = one.is_some() && one == two;
    let fields = obj(vec![
        ("runs", JsonValue::from(runs)),
        (
            "workers1_runs_per_sec",
            figure("workers1_runs_per_sec", &rate1),
        ),
        (
            "workers2_runs_per_sec",
            figure("workers2_runs_per_sec", &rate2),
        ),
        (
            "campaign_speedup_2v1",
            figure("campaign_speedup_2v1", &ratio(&rate2, &rate1)),
        ),
        ("results_equal", JsonValue::Bool(exact)),
    ]);
    if !exact {
        fails.push("the creation sweep's results differ between 1 and 2 workers".into());
    }
    fields
}

/// The harness's command line.
#[derive(Debug)]
struct Args {
    /// Fewer windows per figure (`--quick`); the window length is the same.
    quick: bool,
    /// Where to write the JSON report (`--json PATH`).
    json: String,
}

/// Why a command line was rejected.
#[derive(Debug)]
enum ArgError {
    /// `--json` without a path after it.
    MissingPath,
    /// Anything but `--quick` and `--json PATH`.
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingPath => write!(f, "--json requires an output path"),
            ArgError::Unknown(arg) => write!(
                f,
                "unknown argument {arg:?} (bench_hotpath takes only --quick and --json PATH)"
            ),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, ArgError> {
    let mut out = Args {
        quick: false,
        json: "BENCH_hotpath.json".into(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--json" => {
                let path = args.next().filter(|p| !p.is_empty() && !p.starts_with('-'));
                out.json = path.ok_or(ArgError::MissingPath)?.clone();
            }
            _ => return Err(ArgError::Unknown(arg.clone())),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bench_hotpath [--quick] [--json PATH]");
            return ExitCode::from(2);
        }
    };
    let timer = Timer {
        target: Duration::from_millis(100),
        windows: if args.quick { 3 } else { 9 },
    };
    let mut fails = Vec::new();
    let doc = obj(vec![
        ("coding_hotpath", JsonValue::Arr(coding_rows(&timer))),
        ("medium_scaling", JsonValue::Arr(medium_rows(&timer))),
        ("calendar", JsonValue::Arr(calendar_rows(&timer))),
        ("engines", JsonValue::Arr(engine_rows(&timer))),
        ("saturated", saturated_section(&timer, &mut fails)),
        ("sharding", sharding_section(&timer, &mut fails)),
        ("formation", formation_section(&timer, &mut fails)),
        ("campaign", campaign_section(&timer, &mut fails)),
    ]);
    if let Err(e) = btsim_bench::write_artifact(&args.json, &format!("{}\n", doc.render())) {
        fails.push(e);
    }
    if !fails.is_empty() {
        fails.iter().for_each(|f| eprintln!("error: {f}"));
        return ExitCode::FAILURE;
    }
    println!("saturated rows nonzero, engines bit-exact, stat tier faster: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn median_and_iqr_of_fixed_samples() {
        assert_eq!(median_iqr(&[5.0]), (5.0, 0.0));
        assert_eq!(median_iqr(&[3.0, 1.0, 2.0]), (2.0, 1.0));
        assert_eq!(median_iqr(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.5));
        assert_eq!(median_iqr(&[100.0, 2.0, 3.0, 1.0, 4.0]), (3.0, 2.0));
    }

    #[test]
    fn paired_sides_alternate_at_one_count() {
        let timer = Timer {
            target: Duration::from_millis(10),
            windows: 4,
        };
        let log = RefCell::new(Vec::new());
        // Fake clocks: side A costs 1 µs per iteration, side B 3 µs.
        let mut a = |n| {
            log.borrow_mut().push(('A', n));
            Duration::from_micros(n)
        };
        let mut b = |n| {
            log.borrow_mut().push(('B', n));
            Duration::from_micros(3 * n)
        };
        let ns = timer.paired(&mut [&mut a, &mut b]);
        let log = log.into_inner();
        let timed = &log[log.len() - 8..];
        assert!(timed.iter().map(|&(side, _)| side).eq("ABABABAB".chars()));
        let n = timed[0].1;
        assert!(timed.iter().all(|&(_, m)| m == n), "{timed:?}");
        assert!(n >= 10_000, "the faster side sets the count: {n}");
        assert_eq!((ns[0].len(), ns[1].len()), (4, 4));
        assert!(ratio(&ns[1], &ns[0]).iter().all(|&r| r == 3.0));
    }

    #[test]
    fn no_reported_window_is_shorter_than_the_target() {
        let timer = Timer {
            target: Duration::from_millis(10),
            windows: 5,
        };
        let windows = RefCell::new(Vec::new());
        // The host "speeds up" 4x after calibration, so the calibrated
        // count alone would give short windows. Every call costs a
        // slightly different time per iteration, so each reported value
        // names the window it came from.
        let mut side = |n| {
            let mut w = windows.borrow_mut();
            let base = if w.len() < 4 { 4_000 } else { 1_000 };
            let per_iteration = base + w.len() as u64;
            w.push((
                per_iteration as f64,
                Duration::from_nanos(per_iteration * n),
            ));
            w[w.len() - 1].1
        };
        let ns = timer.time(&mut side);
        let windows = windows.into_inner();
        assert_eq!(ns.len(), 5);
        for v in ns {
            let (_, took) = windows.iter().find(|w| w.0 == v).expect("a window");
            assert!(*took >= timer.target, "{took:?}");
        }
        assert!(windows
            .iter()
            .any(|&(per, took)| per < 4_000.0 && took < timer.target));
    }

    #[test]
    fn only_quick_and_json_are_accepted() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_args(&argv(&["--quick", "--json", "out.json"])).unwrap();
        assert!(ok.quick && ok.json == "out.json");
        let default = parse_args(&[]).unwrap();
        assert!(!default.quick && default.json == "BENCH_hotpath.json");
        for missing in [
            &["--json"][..],
            &["--json", "--quick"],
            &["--quick", "--json", ""],
        ] {
            let err = parse_args(&argv(missing)).unwrap_err();
            assert!(matches!(err, ArgError::MissingPath), "{missing:?}");
        }
        for bad in [
            &["--runs", "3"][..],
            &["--engine", "event"],
            &["--fidelity", "stat"],
            &["--quick", "all"],
            &["-q"],
        ] {
            assert!(
                matches!(parse_args(&argv(bad)), Err(ArgError::Unknown(_))),
                "{bad:?}"
            );
        }
    }
}
