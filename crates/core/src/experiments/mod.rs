//! The paper's experiments, one function per table/figure.
//!
//! Each function expresses the corresponding workload as a
//! [`Campaign`] over a [`Scenario`](crate::scenario::Scenario) — the
//! campaign owns seeding, parallelism and aggregation — and returns a
//! structured result with a [`Table`] renderer printing the same series
//! the paper reports. Absolute numbers depend on the calibrated
//! behavioural model (see EXPERIMENTS.md); the shapes — break-even
//! points, bottleneck ordering, saturation — are the reproduction target.
//!
//! Every experiment is also a [`registry`] entry (name + description +
//! runner), which is what the `btsim-bench` binaries and the
//! `experiments` multiplexer execute.

use std::time::Instant;

use btsim_baseband::{LcCommand, PacketType, SniffParams};
use btsim_kernel::{SimDuration, SimTime};
use btsim_stats::{Summary, Table};
use btsim_trace::{render_ascii, to_vcd, AsciiOptions};

use crate::campaign::Campaign;
use crate::net::{
    analytic_collision_rate, BridgePlan, DenseFloorConfig, DenseFloorScenario, MultiPiconetConfig,
    MultiPiconetScenario, ScatternetConfig, ScatternetScenario, Topology,
};
use crate::scenario::{
    connect_pair, paper_config, AfhAdaptConfig, AfhAdaptScenario, CoexistenceConfig,
    CoexistenceScenario, CreationConfig, CreationScenario, GoodputConfig, GoodputScenario,
    HoldConfig, HoldScenario, InquiryConfig, InquiryScenario, PageConfig, PageScenario, ParkConfig,
    ParkScenario, Scenario, ScoLinkConfig, ScoLinkScenario, SniffConfig, SniffScenario,
    TrafficConfig, TrafficScenario,
};
use crate::{AfhConfig, Engine, LoggedEvent, SimBuilder};

mod faults;
mod registry;

pub use crate::campaign::ExpOptions;
pub use faults::*;
pub use registry::{find, registry, ExpReport, Experiment};

/// The BER sweep of the paper's Figs. 6-8.
pub const PAPER_BERS: [(&str, f64); 8] = [
    ("1/100", 1.0 / 100.0),
    ("1/90", 1.0 / 90.0),
    ("1/80", 1.0 / 80.0),
    ("1/70", 1.0 / 70.0),
    ("1/60", 1.0 / 60.0),
    ("1/50", 1.0 / 50.0),
    ("1/40", 1.0 / 40.0),
    ("1/30", 1.0 / 30.0),
];

/// One row of a BER-sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct BerRow {
    /// BER label, e.g. `1/50` (`0` for the noiseless anchor).
    pub label: String,
    /// Numeric BER.
    pub ber: f64,
    /// Mean slots to completion over completed runs.
    pub mean_slots: f64,
    /// 95% confidence half-width of the mean.
    pub ci95: f64,
    /// Fraction of runs that completed within the cap.
    pub completed: f64,
}

/// Result of the Fig. 6 / Fig. 7 experiments (phase duration vs BER).
#[derive(Debug, Clone, PartialEq)]
pub struct BerSweep {
    /// What was measured (for the table caption).
    pub phase: &'static str,
    /// One row per BER point (first row: no noise).
    pub rows: Vec<BerRow>,
}

impl BerSweep {
    /// Renders the paper-style series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["BER", "mean TS", "ci95", "completed"]);
        for r in &self.rows {
            t.row([
                r.label.clone(),
                format!("{:.1}", r.mean_slots),
                format!("{:.1}", r.ci95),
                format!("{:.1}%", r.completed * 100.0),
            ]);
        }
        t
    }
}

/// The noiseless anchor plus [`PAPER_BERS`].
fn ber_points() -> Vec<(String, f64)> {
    let mut points: Vec<(String, f64)> = vec![("0".into(), 0.0)];
    points.extend(PAPER_BERS.iter().map(|(l, b)| (l.to_string(), *b)));
    points
}

/// Sweeps a scenario whose outcome reports a `slots` metric over the
/// paper's BER points in one flattened campaign.
fn ber_sweep<S, F>(opts: &ExpOptions, phase: &'static str, make: F) -> BerSweep
where
    S: Scenario + Sync,
    F: Fn(f64) -> S,
{
    let points = ber_points();
    let result = Campaign::sweep(points.iter().map(|(l, b)| (l.clone(), make(*b))))
        .options(opts)
        .run();
    let rows = points
        .iter()
        .zip(&result.points)
        .map(|((label, ber), p)| {
            let slots = p.metric("slots");
            BerRow {
                label: label.clone(),
                ber: *ber,
                mean_slots: slots.mean(),
                ci95: slots.ci95(),
                completed: p.completion_rate(),
            }
        })
        .collect();
    BerSweep { phase, rows }
}

/// **Fig. 6** — mean number of time slots to complete the inquiry phase
/// as a function of the BER (no timeout; mean over completed runs).
pub fn fig6_inquiry_vs_ber(opts: &ExpOptions) -> BerSweep {
    ber_sweep(opts, "inquiry", |ber| {
        InquiryScenario::new(InquiryConfig {
            ber,
            sim: opts.sim(paper_config()),
            ..InquiryConfig::default()
        })
    })
}

/// **Fig. 7** — mean number of time slots to complete the page phase as
/// a function of the BER (devices already synchronised). As in the paper,
/// the 1.28 s page timeout applies; the mean is over successful runs.
pub fn fig7_page_vs_ber(opts: &ExpOptions) -> BerSweep {
    ber_sweep(opts, "page", |ber| {
        PageScenario::new(PageConfig {
            ber,
            cap_slots: 2048,
            sim: opts.sim(paper_config()),
            ..PageConfig::default()
        })
    })
}

/// One row of the Fig. 8 result.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRow {
    /// BER label.
    pub label: String,
    /// Numeric BER.
    pub ber: f64,
    /// Probability the inquiry phase missed the 1.28 s timeout.
    pub inquiry_failure: f64,
    /// Probability the page phase missed the 1.28 s timeout.
    pub page_failure: f64,
}

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// One row per BER point.
    pub rows: Vec<FailureRow>,
}

impl Fig8 {
    /// Renders the paper-style series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["BER", "inquiry failure", "page failure"]);
        for r in &self.rows {
            t.row([
                r.label.clone(),
                format!("{:.1}%", r.inquiry_failure * 100.0),
                format!("{:.1}%", r.page_failure * 100.0),
            ]);
        }
        t
    }
}

/// **Fig. 8** — probability of failure of the inquiry and page phases
/// under the paper's 1.28 s (2048-slot) timeout. The page phase is the
/// bottleneck: its success probability collapses beyond BER ≈ 1/50.
pub fn fig8_creation_failure(opts: &ExpOptions) -> Fig8 {
    const TIMEOUT: u64 = 2048;
    let inquiry = Campaign::sweep(PAPER_BERS.iter().map(|(l, ber)| {
        (
            l.to_string(),
            InquiryScenario::new(InquiryConfig {
                ber: *ber,
                cap_slots: TIMEOUT,
                sim: opts.sim(paper_config()),
                ..InquiryConfig::default()
            }),
        )
    }))
    .options(opts)
    .run();
    let page = Campaign::sweep(PAPER_BERS.iter().map(|(l, ber)| {
        (
            l.to_string(),
            PageScenario::new(PageConfig {
                ber: *ber,
                cap_slots: TIMEOUT,
                sim: opts.sim(paper_config()),
                ..PageConfig::default()
            }),
        )
    }))
    .options(opts)
    .run();
    let rows = PAPER_BERS
        .iter()
        .zip(inquiry.points.iter().zip(&page.points))
        .map(|((label, ber), (inq, pag))| FailureRow {
            label: label.to_string(),
            ber: *ber,
            inquiry_failure: 1.0 - inq.completion_rate(),
            page_failure: 1.0 - pag.completion_rate(),
        })
        .collect();
    Fig8 { rows }
}

/// Waveform outputs (Figs. 5 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct Waveforms {
    /// Terminal rendering of the RF-enable signals.
    pub ascii: String,
    /// VCD document for a waveform viewer.
    pub vcd: String,
    /// Human-readable notes on what the trace shows.
    pub notes: String,
}

/// **Fig. 5** — waveforms of the creation of a piconet with a master and
/// three slaves, all switched on simultaneously on a clean channel.
/// Scanning slaves show continuously asserted `enable_rx_RF`; once in the
/// piconet they listen only at slot starts.
pub fn fig5_creation_waveforms(seed: u64, engine: Engine) -> Waveforms {
    let mut cfg = paper_config();
    cfg.engine = engine;
    cfg.trace = true;
    // A short backoff keeps the interesting region compact, like the
    // paper's figure.
    cfg.lc.inquiry_backoff_max = 128;
    let scenario = CreationScenario::new(CreationConfig {
        n_slaves: 3,
        inquiry_timeout_slots: 16 * 2048,
        sim: cfg,
        ..CreationConfig::default()
    });
    // Build + drive separately: the simulator outlives the outcome so
    // its recorder can render the figure.
    let mut sim = scenario.build(seed);
    let out = scenario.drive(&mut sim);
    let end = sim.now();
    let ascii = render_ascii(
        sim.recorder(),
        &AsciiOptions {
            from: SimTime::ZERO,
            to: end,
            columns: 160,
        },
    );
    let vcd = to_vcd(sim.recorder());
    let notes = format!(
        "piconet formed: {} | inquiry: {} slots | pages: {:?}",
        out.piconet_complete(),
        out.inquiry_slots,
        out.pages
            .iter()
            .map(|(_, ok, s)| (*ok, *s))
            .collect::<Vec<_>>()
    );
    Waveforms { ascii, vcd, notes }
}

/// **Fig. 9** — waveforms with two slaves placed in sniff mode; their
/// `enable_rx_RF` pulses only at the sniff anchors.
pub fn fig9_sniff_waveforms(seed: u64, engine: Engine) -> Waveforms {
    let mut cfg = paper_config();
    cfg.engine = engine;
    cfg.trace = true;
    let mut b = SimBuilder::new(seed, cfg);
    let master = b.add_device("master");
    let s1 = b.add_device("slave1");
    let s2 = b.add_device("slave2");
    let s3 = b.add_device("slave3");
    let mut sim = b.build();
    let cap = SimTime::from_us(60_000_000);
    let lt1 = connect_pair(&mut sim, master, s1, cap).expect("slave1 connects");
    let lt2 = connect_pair(&mut sim, master, s2, cap).expect("slave2 connects");
    let lt3 = connect_pair(&mut sim, master, s3, cap).expect("slave3 connects");
    let _ = lt1;
    // Slaves 2 and 3 go to sniff mode with a 2-slot timeout window, as in
    // the paper's figure.
    let anchor = sim.lc(master).clkn(sim.now()).slot();
    for (lt, dev) in [(lt2, s2), (lt3, s3)] {
        let params = SniffParams {
            t_sniff: 12,
            n_attempt: 1,
            d_sniff: anchor % 12,
            n_timeout: 2,
        };
        sim.command(
            master,
            LcCommand::Sniff {
                lt_addr: lt,
                params,
            },
        );
        sim.command(
            dev,
            LcCommand::Sniff {
                lt_addr: lt,
                params,
            },
        );
    }
    let from = sim.now();
    sim.run_until(from + SimDuration::from_slots(80));
    let ascii = render_ascii(
        sim.recorder(),
        &AsciiOptions {
            from,
            to: sim.now(),
            columns: 160,
        },
    );
    let vcd = to_vcd(sim.recorder());
    Waveforms {
        ascii,
        vcd,
        notes: "slave2/slave3 sniffing (Tsniff=12, timeout 2 slots); slave1 active".into(),
    }
}

/// One row of the Fig. 10 result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyRow {
    /// Channel duty cycle (fraction of available master TX slots used).
    pub duty: f64,
    /// Master transmitter activity.
    pub tx: f64,
    /// Master receiver activity.
    pub rx: f64,
}

/// Result of the Fig. 10 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// One row per duty-cycle point.
    pub rows: Vec<DutyRow>,
}

impl Fig10 {
    /// Renders the paper-style series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["duty cycle", "TX activity", "RX activity"]);
        for r in &self.rows {
            t.row([
                format!("{:.2}%", r.duty * 100.0),
                format!("{:.4}%", r.tx * 100.0),
                format!("{:.4}%", r.rx * 100.0),
            ]);
        }
        t
    }
}

/// **Fig. 10** — RF activity of the master (TX and RX) as a function of
/// the channel duty cycle: linear growth, TX above RX.
pub fn fig10_master_activity(opts: &ExpOptions) -> Fig10 {
    let duties = [0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02];
    let measure = 150_000u64.min(40_000 * opts.runs.max(1) as u64);
    let result = Campaign::sweep(duties.iter().map(|&duty| {
        (
            format!("{duty}"),
            TrafficScenario::new(TrafficConfig {
                duty,
                measure_slots: measure,
                sim: opts.sim(paper_config()),
                ..TrafficConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(1)
    .run();
    let rows = duties
        .iter()
        .zip(&result.points)
        .map(|(&duty, p)| {
            let out = p.first();
            DutyRow {
                duty,
                tx: out.master.tx,
                rx: out.master.rx,
            }
        })
        .collect();
    Fig10 { rows }
}

/// One row of the Fig. 11 / Fig. 12 results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeRow {
    /// The swept parameter (Tsniff or Thold, in slots).
    pub interval: u32,
    /// Slave RF activity (TX+RX) in the low-power mode.
    pub mode_activity: f64,
}

/// Result of the Fig. 11 / Fig. 12 / Ext-D experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSweep {
    /// Which mode was swept (`"sniff"` / `"hold"` / `"park"`).
    pub mode: &'static str,
    /// RF activity of the active-mode baseline.
    pub active_activity: f64,
    /// One row per interval point.
    pub rows: Vec<ModeRow>,
}

impl ModeSweep {
    /// Renders the paper-style series.
    pub fn table(&self) -> Table {
        let mut t = Table::with_headers(vec![
            format!("T{}/Ts", self.mode),
            format!("{} activity", self.mode),
            "active activity".into(),
        ]);
        for r in &self.rows {
            t.row([
                r.interval.to_string(),
                format!("{:.3}%", r.mode_activity * 100.0),
                format!("{:.3}%", self.active_activity * 100.0),
            ]);
        }
        t
    }

    /// The smallest swept interval where the low-power mode beats the
    /// active baseline (the paper's break-even point).
    pub fn break_even(&self) -> Option<u32> {
        self.rows
            .iter()
            .find(|r| r.mode_activity < self.active_activity)
            .map(|r| r.interval)
    }
}

/// Runs a low-power-mode sweep: an active baseline point (interval 0)
/// plus one point per interval, all in one campaign.
fn mode_sweep<S, F>(opts: &ExpOptions, mode: &'static str, intervals: &[u32], make: F) -> ModeSweep
where
    S: Scenario<Outcome = crate::scenario::ModeActivity> + Sync,
    F: Fn(u32) -> S,
{
    let mut points = vec![("active".to_string(), make(0))];
    points.extend(intervals.iter().map(|&i| (i.to_string(), make(i))));
    let result = Campaign::sweep(points).options(opts).runs(1).run();
    let active_activity = result.points[0].first().activity;
    let rows = intervals
        .iter()
        .zip(&result.points[1..])
        .map(|(&interval, p)| ModeRow {
            interval,
            mode_activity: p.first().activity,
        })
        .collect();
    ModeSweep {
        mode,
        active_activity,
        rows,
    }
}

/// **Fig. 11** — slave RF activity vs Tsniff with data every 100 slots.
/// Sniff beats active mode only above the break-even interval (≈30
/// slots); at Tsniff = 100 the paper reports ≈30% reduction.
pub fn fig11_sniff_activity(opts: &ExpOptions) -> ModeSweep {
    let measure = 120_000u64;
    let intervals = [20u32, 30, 40, 50, 60, 70, 80, 90, 100];
    mode_sweep(opts, "sniff", &intervals, |t_sniff| {
        SniffScenario::new(SniffConfig {
            t_sniff,
            measure_slots: measure,
            sim: opts.sim(paper_config()),
            ..SniffConfig::default()
        })
    })
}

/// **Fig. 12** — slave RF activity vs Thold on an idle connection.
/// The active baseline is the paper's constant 2.6% slot-start listening
/// floor; hold wins above the break-even (paper: ≈120 slots).
pub fn fig12_hold_activity(opts: &ExpOptions) -> ModeSweep {
    let measure = 200_000u64;
    let intervals = [40u32, 80, 120, 160, 240, 400, 600, 800, 1000];
    mode_sweep(opts, "hold", &intervals, |t_hold| {
        HoldScenario::new(HoldConfig {
            t_hold,
            measure_slots: measure,
            sim: opts.sim(paper_config()),
        })
    })
}

/// **Ext-D** — park mode, the fourth low-power mode of the paper's list
/// (no park figure appears in the paper): slave RF activity vs the
/// beacon interval, against the same 2.6% active floor as Fig. 12.
pub fn ext_park_activity(opts: &ExpOptions) -> ModeSweep {
    let measure = 150_000u64;
    let intervals = [50u32, 100, 200, 400, 800, 1600];
    mode_sweep(opts, "park", &intervals, |beacon_interval| {
        ParkScenario::new(ParkConfig {
            beacon_interval,
            measure_slots: measure,
            sim: opts.sim(paper_config()),
        })
    })
}

/// Result of the simulation-speed measurement (§3.1's performance note).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpeed {
    /// Simulated seconds (paper: 0.48 s).
    pub sim_seconds: f64,
    /// Wall-clock seconds of one run: the median of runs repeated until
    /// they total at least 100 ms.
    pub wall_seconds: f64,
    /// Simulated 1 MHz clock cycles per wall second (paper: 747).
    pub clock_cycles_per_sec: f64,
    /// Speedup over the paper's reported 747 cycles/s.
    pub speedup_vs_paper: f64,
}

impl SimSpeed {
    /// Renders the comparison row.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["metric", "paper (SystemC, 2005)", "btsim (Rust)"]);
        t.row([
            "simulated time".into(),
            "0.48 s".into(),
            format!("{:.2} s", self.sim_seconds),
        ]);
        t.row([
            "clock cycles / wall second".into(),
            "747".into(),
            format!("{:.0}", self.clock_cycles_per_sec),
        ]);
        t.row([
            "speedup".into(),
            "1x".into(),
            format!("{:.0}x", self.speedup_vs_paper),
        ]);
        t
    }
}

/// Least wall time, in seconds, a speed row spends on repeated timed
/// units before it reports their median.
const SPEED_BUDGET_SECS: f64 = 0.1;

/// Runs `unit` (which returns the wall seconds of its timed part) until
/// the units total at least [`SPEED_BUDGET_SECS`], and returns the median
/// unit. A single millisecond-long window swings with every stall of a
/// shared host; the median of many moves only when the host stays slow.
fn median_unit_secs(mut unit: impl FnMut() -> f64) -> f64 {
    let mut secs: Vec<f64> = Vec::new();
    while secs.iter().sum::<f64>() < SPEED_BUDGET_SECS {
        secs.push(unit().max(1e-9));
    }
    secs.sort_by(f64::total_cmp);
    let mid = secs.len() / 2;
    if secs.len() % 2 == 1 {
        secs[mid]
    } else {
        (secs[mid - 1] + secs[mid]) / 2.0
    }
}

/// **Table 1** (the §3.1 performance paragraph) — simulation speed of the
/// piconet-creation scenario: the paper simulated 0.48 s in 10′47″
/// (747 clock cycles per second at the 1 µs symbol clock). One creation
/// run takes milliseconds, so the row is the median of repeated runs.
pub fn table1_sim_speed(seed: u64, engine: Engine) -> SimSpeed {
    let sim_seconds = 0.48;
    let mut cfg = paper_config();
    cfg.engine = engine;
    let wall = median_unit_secs(|| {
        let started = Instant::now();
        let out = CreationScenario::new(CreationConfig {
            n_slaves: 3,
            inquiry_timeout_slots: (sim_seconds * 1600.0) as u32,
            page_timeout_slots: 512,
            sim: cfg.clone(),
            ..CreationConfig::default()
        })
        .run(seed);
        let _ = out.piconet_complete();
        started.elapsed().as_secs_f64()
    });
    let cycles = sim_seconds * 1e6; // 1 MHz symbol clock
    let per_sec = cycles / wall;
    SimSpeed {
        sim_seconds,
        wall_seconds: wall,
        clock_cycles_per_sec: per_sec,
        speedup_vs_paper: per_sec / 747.0,
    }
}

/// One row of the extension experiment Ext-A.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// ACL packet type used.
    pub ptype: PacketType,
    /// BER label.
    pub ber_label: String,
    /// Numeric BER.
    pub ber: f64,
    /// Goodput in kbit/s (acknowledged user payload).
    pub kbps: f64,
}

/// Result of the Ext-A experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtThroughput {
    /// One row per (packet type, BER) combination.
    pub rows: Vec<ThroughputRow>,
}

impl ExtThroughput {
    /// Renders the packet-type × BER goodput matrix.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["type", "BER", "goodput kbit/s"]);
        for r in &self.rows {
            t.row([
                format!("{:?}", r.ptype),
                r.ber_label.clone(),
                format!("{:.1}", r.kbps),
            ]);
        }
        t
    }
}

/// **Ext-A** — the packet-type analysis announced in the paper's aims:
/// goodput of DM1/DH1/DM3/DH3/DM5/DH5 under increasing BER. FEC-protected
/// DM types overtake the larger unprotected DH types as noise grows.
pub fn ext_packet_throughput(opts: &ExpOptions) -> ExtThroughput {
    let types = [
        PacketType::Dm1,
        PacketType::Dh1,
        PacketType::Dm3,
        PacketType::Dh3,
        PacketType::Dm5,
        PacketType::Dh5,
    ];
    let bers: [(&str, f64); 4] = [
        ("0", 0.0),
        ("1/1000", 0.001),
        ("1/300", 1.0 / 300.0),
        ("1/100", 0.01),
    ];
    let mut jobs = Vec::new();
    for t in types {
        for (label, ber) in bers {
            jobs.push((t, label.to_string(), ber));
        }
    }
    let result = Campaign::sweep(jobs.iter().map(|(ptype, label, ber)| {
        (
            format!("{ptype:?}@{label}"),
            GoodputScenario::new(GoodputConfig {
                ptype: *ptype,
                ber: *ber,
                sim: opts.sim(paper_config()),
                ..GoodputConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(1)
    .run();
    let rows = jobs
        .iter()
        .zip(&result.points)
        .map(|((ptype, label, ber), p)| ThroughputRow {
            ptype: *ptype,
            ber_label: label.clone(),
            ber: *ber,
            kbps: p.first().kbps,
        })
        .collect();
    ExtThroughput { rows }
}

/// Result of the Ext-B coexistence experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtCoexistence {
    /// Mean creation slots without an interfering piconet.
    pub baseline_mean_slots: f64,
    /// Mean creation slots with a busy piconet nearby.
    pub interfered_mean_slots: f64,
    /// Creation success fraction without interference.
    pub baseline_success: f64,
    /// Creation success fraction with interference.
    pub interfered_success: f64,
}

impl ExtCoexistence {
    /// Renders the comparison.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["scenario", "mean creation TS", "success"]);
        t.row([
            "isolated".into(),
            format!("{:.0}", self.baseline_mean_slots),
            format!("{:.1}%", self.baseline_success * 100.0),
        ]);
        t.row([
            "next to busy piconet".into(),
            format!("{:.0}", self.interfered_mean_slots),
            format!("{:.1}%", self.interfered_success * 100.0),
        ]);
        t
    }
}

/// **Ext-B** — collision behaviour with two co-located piconets (the
/// situation of the paper's references [3-5]): piconet B forms while
/// piconet A saturates the channel with traffic. Hop collisions corrupt
/// some of B's exchanges, stretching its creation time.
pub fn ext_coexistence(opts: &ExpOptions) -> ExtCoexistence {
    let result = Campaign::sweep([false, true].map(|with_interferer| {
        (
            if with_interferer {
                "interfered"
            } else {
                "isolated"
            }
            .to_string(),
            CoexistenceScenario::new(CoexistenceConfig {
                with_interferer,
                sim: opts.sim(paper_config()),
                ..CoexistenceConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(opts.runs.max(4))
    .run();
    let baseline = &result.points[0];
    let interfered = &result.points[1];
    ExtCoexistence {
        baseline_mean_slots: baseline.metric("slots").mean(),
        interfered_mean_slots: interfered.metric("slots").mean(),
        baseline_success: baseline.completion_rate(),
        interfered_success: interfered.completion_rate(),
    }
}

/// One row of the Ext-C SCO experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoRow {
    /// Voice packet type (HV1/HV2/HV3).
    pub ptype: PacketType,
    /// Slave RF activity fraction while the link carries voice.
    pub activity: f64,
    /// Delivered voice frames / reserved pairs, per BER label.
    pub delivery: Vec<(String, f64)>,
    /// Residual voice byte-error fraction after FEC, per BER label —
    /// where HV1's 1/3 FEC earns its slots.
    pub residual_err: Vec<(String, f64)>,
}

/// Result of the Ext-C experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtSco {
    /// One row per HV type.
    pub rows: Vec<ScoRow>,
}

impl ExtSco {
    /// Renders the HV comparison.
    pub fn table(&self) -> Table {
        let mut headers = vec!["type".to_string(), "slave activity".to_string()];
        if let Some(first) = self.rows.first() {
            for (label, _) in &first.delivery {
                headers.push(format!("delivery @{label}"));
            }
            for (label, _) in &first.residual_err {
                headers.push(format!("byte err @{label}"));
            }
        }
        let mut t = Table::with_headers(headers);
        for r in &self.rows {
            let mut cells = vec![
                format!("{:?}", r.ptype),
                format!("{:.2}%", r.activity * 100.0),
            ];
            for (_, d) in &r.delivery {
                cells.push(format!("{:.1}%", d * 100.0));
            }
            for (_, e) in &r.residual_err {
                cells.push(format!("{:.3}%", e * 100.0));
            }
            t.row(cells);
        }
        t
    }
}

/// **Ext-C** — SCO voice links (the standard's second link type, paper
/// §1): RF cost and frame-delivery rate of HV1/HV2/HV3. HV1 reserves
/// every slot pair (maximum RF cost, maximum FEC protection); HV3 uses
/// one pair in three with no FEC.
pub fn ext_sco(opts: &ExpOptions) -> ExtSco {
    let types = [PacketType::Hv1, PacketType::Hv2, PacketType::Hv3];
    let bers: [(&str, f64); 3] = [("0", 0.0), ("1/100", 0.01), ("1/40", 1.0 / 40.0)];
    let mut jobs = Vec::new();
    for t in types {
        for (label, ber) in bers {
            jobs.push((t, label, ber));
        }
    }
    let result = Campaign::sweep(jobs.iter().map(|(ptype, label, ber)| {
        (
            format!("{ptype:?}@{label}"),
            ScoLinkScenario::new(ScoLinkConfig {
                ptype: *ptype,
                ber: *ber,
                sim: opts.sim(paper_config()),
                ..ScoLinkConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(1)
    .run();
    let rows = types
        .iter()
        .map(|&ptype| {
            let mut delivery = Vec::new();
            let mut residual_err = Vec::new();
            let mut activity = 0.0;
            for (k, (label, _)) in bers.iter().enumerate() {
                let point = result
                    .point(&format!("{ptype:?}@{label}"))
                    .expect("swept point");
                let out = point.first();
                delivery.push((label.to_string(), out.delivery));
                residual_err.push((label.to_string(), out.residual_err));
                if k == 0 {
                    activity = out.activity;
                }
            }
            ScoRow {
                ptype,
                activity,
                delivery,
                residual_err,
            }
        })
        .collect();
    ExtSco { rows }
}

/// One row of the calibration ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Whether the page-response FHS carried the spec 2/3 FEC.
    pub fhs_fec: bool,
    /// Whether the page scan ran continuously (vs the R1 window).
    pub continuous_scan: bool,
    /// Page failure probability per BER label (2048-slot timeout).
    pub page_failure: Vec<(String, f64)>,
}

/// Result of the calibration ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtAblation {
    /// One row per knob combination.
    pub rows: Vec<AblationRow>,
}

impl ExtAblation {
    /// Renders the knob × BER failure matrix.
    pub fn table(&self) -> Table {
        let mut headers = vec!["page FHS FEC".to_string(), "page scan".to_string()];
        if let Some(first) = self.rows.first() {
            for (label, _) in &first.page_failure {
                headers.push(format!("failure @{label}"));
            }
        }
        let mut t = Table::with_headers(headers);
        for r in &self.rows {
            let mut cells = vec![
                if r.fhs_fec { "2/3 FEC" } else { "raw" }.to_string(),
                if r.continuous_scan {
                    "continuous"
                } else {
                    "R1 window"
                }
                .to_string(),
            ];
            for (_, f) in &r.page_failure {
                cells.push(format!("{:.0}%", f * 100.0));
            }
            t.row(cells);
        }
        t
    }
}

/// **Ablation** — why the calibration of `paper_config()` is what it is:
/// page-failure probability under the four combinations of the two
/// fragility levers. Only "raw FHS + R1 window" reproduces the paper's
/// Fig. 8 (failure racing to ~100% at BER 1/30 while staying moderate at
/// 1/100); every other combination leaves paging too robust.
pub fn ext_calibration_ablation(opts: &ExpOptions) -> ExtAblation {
    let bers: [(&str, f64); 3] = [("1/100", 0.01), ("1/50", 0.02), ("1/30", 1.0 / 30.0)];
    let combos = [(true, true), (true, false), (false, true), (false, false)];
    let mut points = Vec::new();
    for (fhs_fec, continuous) in combos {
        for (label, ber) in bers {
            let mut sim = opts.sim(paper_config());
            sim.lc.page_fhs_fec = fhs_fec;
            sim.lc.page_scan_continuous = continuous;
            points.push((
                format!("{fhs_fec}/{continuous}@{label}"),
                PageScenario::new(PageConfig {
                    ber,
                    cap_slots: 2048,
                    sim,
                    ..PageConfig::default()
                }),
            ));
        }
    }
    let result = Campaign::sweep(points).options(opts).run();
    let rows = combos
        .iter()
        .map(|&(fhs_fec, continuous)| {
            let page_failure = bers
                .iter()
                .map(|(label, _)| {
                    let point = result
                        .point(&format!("{fhs_fec}/{continuous}@{label}"))
                        .expect("swept point");
                    (label.to_string(), 1.0 - point.completion_rate())
                })
                .collect();
            AblationRow {
                fhs_fec,
                continuous_scan: continuous,
                page_failure,
            }
        })
        .collect();
    ExtAblation { rows }
}

/// Result of the inquiry-distribution experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct InquiryDistribution {
    /// Completion-time histogram over [0, 6144) slots.
    pub histogram: btsim_stats::Histogram,
    /// Sample summary.
    pub summary: Summary,
}

/// **Ext-E** — the *distribution* behind Fig. 6's mean: inquiry duration
/// is strongly structured by the train mechanism (an early mass when the
/// scanner's channel sits in the active train, a late mass one train
/// switch later) convolved with the uniform response backoff.
pub fn ext_inquiry_distribution(opts: &ExpOptions) -> InquiryDistribution {
    let result = Campaign::new(InquiryScenario::new(InquiryConfig {
        sim: opts.sim(paper_config()),
        ..InquiryConfig::default()
    }))
    .options(opts)
    .runs(opts.runs.max(50))
    .run();
    let mut histogram = btsim_stats::Histogram::new(0.0, 6144.0, 24);
    let mut summary = Summary::new();
    for out in &result.single().outcomes {
        histogram.add(out.slots as f64);
        summary.add(out.slots as f64);
    }
    InquiryDistribution { histogram, summary }
}

/// One row of the WLAN-coexistence experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct WlanRow {
    /// Fraction of time the 22-channel WLAN band is busy.
    pub wlan_duty: f64,
    /// ACL goodput in kbit/s (DM1 bulk transfer).
    pub goodput_kbps: f64,
    /// Goodput with v1.2 adaptive frequency hopping avoiding the band.
    pub goodput_afh_kbps: f64,
    /// Page success probability (2048-slot timeout; paging cannot use
    /// AFH — the devices share no channel map yet).
    pub page_success: f64,
}

/// Result of the WLAN-coexistence experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtWlan {
    /// One row per WLAN duty point.
    pub rows: Vec<WlanRow>,
}

impl ExtWlan {
    /// Renders the duty sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "WLAN duty",
            "goodput kbit/s",
            "goodput w/ AFH",
            "page success",
        ]);
        for r in &self.rows {
            t.row([
                format!("{:.0}%", r.wlan_duty * 100.0),
                format!("{:.1}", r.goodput_kbps),
                format!("{:.1}", r.goodput_afh_kbps),
                format!("{:.0}%", r.page_success * 100.0),
            ]);
        }
        t
    }
}

/// **Ext-F** — coexistence with an 802.11 network (the interference the
/// paper's references [4-5] analyse): a WLAN occupying 22 of the 79 hop
/// channels wipes in-band Bluetooth packets with its duty probability.
/// Frequency hopping caps the damage at the band fraction (22/79 ≈ 28% of
/// packets exposed), which ARQ then recovers at reduced throughput;
/// v1.2 adaptive frequency hopping (a `ChannelMap` excluding the band)
/// restores nearly the clean-channel goodput.
pub fn ext_wlan_coexistence(opts: &ExpOptions) -> ExtWlan {
    let duties = [0.0, 0.25, 0.5, 0.75, 1.0];
    let wlan_cfg = |wlan_duty: f64| {
        let mut cfg = opts.sim(paper_config());
        cfg.channel.interferers = vec![btsim_channel::Interferer::wlan(40, wlan_duty)];
        cfg
    };
    // Goodput under interference, with and without AFH (one flattened
    // campaign over duty × {plain, afh}).
    let mut goodput_points = Vec::new();
    for &duty in &duties {
        for afh in [false, true] {
            // The AFH map excludes the WLAN band (channels 29-50).
            let map = afh.then(|| btsim_baseband::hop::ChannelMap::blocking(29..=50));
            goodput_points.push((
                format!("{duty}/{afh}"),
                GoodputScenario::new(GoodputConfig {
                    window_slots: 4_000,
                    afh: map,
                    sim: wlan_cfg(duty),
                    ..GoodputConfig::default()
                }),
            ));
        }
    }
    let goodput = Campaign::sweep(goodput_points).options(opts).runs(1).run();
    // Page success under interference.
    let pages = Campaign::sweep(duties.iter().map(|&duty| {
        (
            format!("{duty}"),
            PageScenario::new(PageConfig {
                cap_slots: 2048,
                sim: wlan_cfg(duty),
                ..PageConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(opts.runs.clamp(8, 64))
    .run();
    let rows = duties
        .iter()
        .map(|&wlan_duty| {
            let plain = goodput
                .point(&format!("{wlan_duty}/false"))
                .expect("swept point");
            let afh = goodput
                .point(&format!("{wlan_duty}/true"))
                .expect("swept point");
            let page = pages.point(&format!("{wlan_duty}")).expect("swept point");
            WlanRow {
                wlan_duty,
                goodput_kbps: plain.first().kbps,
                goodput_afh_kbps: afh.first().kbps,
                page_success: page.completion_rate(),
            }
        })
        .collect();
    ExtWlan { rows }
}

/// One row of the AFH adaptation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AfhAdaptRow {
    /// Whether the AFH policy ran.
    pub afh: bool,
    /// Goodput before adaptation (assessment window), kbit/s.
    pub kbps_before: f64,
    /// Goodput after the switch instant (or the same baseline again
    /// when the policy is off), kbit/s.
    pub kbps_after: f64,
    /// Mean goodput recovery factor (after / before).
    pub recovery: f64,
    /// Mean slots from policy start to the negotiated switch instant.
    pub converge_slots: f64,
    /// Mean fraction of the interferer band blocked by the final map.
    pub blocked_in_band: f64,
    /// Mean interferer hits on the piconet during the post window.
    pub jam_hits_after: f64,
}

/// Result of the `afh_adapt` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AfhAdapt {
    /// One row per policy setting (off, on).
    pub rows: Vec<AfhAdaptRow>,
    /// Extended-CoexistenceScenario sweep: `(label, creation success,
    /// mean creation slots, mean post-formation goodput kbit/s)` for
    /// piconet-B formation under the same WLAN with AFH off vs a static
    /// band-excluding map.
    pub coexist: Vec<(String, f64, f64, f64)>,
}

impl AfhAdapt {
    /// Renders the adaptation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "AFH",
            "kbit/s before",
            "kbit/s after",
            "recovery",
            "converge TS",
            "band blocked",
            "jam hits after",
        ]);
        for r in &self.rows {
            t.row([
                if r.afh { "on" } else { "off" }.into(),
                format!("{:.1}", r.kbps_before),
                format!("{:.1}", r.kbps_after),
                format!("{:.2}x", r.recovery),
                format!("{:.0}", r.converge_slots),
                format!("{:.0}%", r.blocked_in_band * 100.0),
                format!("{:.1}", r.jam_hits_after),
            ]);
        }
        t
    }

    /// Renders the coexistence-creation sweep.
    pub fn coexist_table(&self) -> Table {
        let mut t = Table::new(["scenario", "B formed", "creation TS", "B goodput kbit/s"]);
        for (label, success, slots, kbps) in &self.coexist {
            t.row([
                label.clone(),
                format!("{:.0}%", success * 100.0),
                format!("{slots:.0}"),
                format!("{kbps:.1}"),
            ]);
        }
        t
    }
}

/// **AFH** — the closed adaptive-frequency-hopping loop against an
/// 802.11 interferer at `wlan(40, 0.5)`: channel assessment on both
/// ends, `LMP_channel_classification` from the slave, `LMP_set_AFH`
/// from the master, and a synchronized hop-map switch. Reports goodput
/// recovery over the AFH-off baseline, map convergence time, how much
/// of the interferer band the final map blocks, and residual interferer
/// hits; plus the extended `CoexistenceScenario` sweep (piconet
/// creation under the same WLAN, post-formation goodput with AFH off
/// vs a static band-excluding map).
pub fn afh_adapt(opts: &ExpOptions) -> AfhAdapt {
    let wlan = btsim_channel::Interferer::wlan(40, 0.5);
    let result = Campaign::sweep([false, true].map(|enabled| {
        (
            if enabled { "afh" } else { "off" }.to_string(),
            AfhAdaptScenario::new(AfhAdaptConfig {
                wlan,
                afh: AfhConfig {
                    enabled,
                    ..AfhConfig::default()
                },
                sim: opts.sim(paper_config()),
                ..AfhAdaptConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(opts.runs.clamp(2, 16))
    .run();
    let rows = [false, true]
        .iter()
        .zip(&result.points)
        .map(|(&afh, p)| AfhAdaptRow {
            afh,
            kbps_before: p.metric("kbps_before").mean(),
            kbps_after: p.metric("kbps_after").mean(),
            recovery: p.metric("recovery").mean(),
            converge_slots: p.metric("converge_slots").mean(),
            blocked_in_band: p.metric("blocked_in_band").mean(),
            jam_hits_after: p.metric("jam_hits_after").mean(),
        })
        .collect();
    // The extended CoexistenceScenario: piconet B forms next to the
    // same WLAN, then transfers with and without a static AFH map
    // excluding the band (creation itself can never use AFH — the
    // devices share no channel map until they share a piconet).
    let band_map =
        btsim_baseband::hop::ChannelMap::try_blocking((0..79u8).filter(|&ch| wlan.covers(ch)))
            .expect("a 22-channel band leaves 57 channels");
    let coexist_points = [("wlan/plain", None), ("wlan/afh", Some(band_map))];
    let coexist_result = Campaign::sweep(coexist_points.iter().map(|(label, map)| {
        (
            label.to_string(),
            CoexistenceScenario::new(CoexistenceConfig {
                with_interferer: false,
                wlan: Some(wlan),
                goodput_slots: 2_000,
                afh: map.clone(),
                sim: opts.sim(paper_config()),
                ..CoexistenceConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(opts.runs.clamp(2, 8))
    .run();
    let coexist = coexist_points
        .iter()
        .zip(&coexist_result.points)
        .map(|((label, _), p)| {
            (
                label.to_string(),
                p.completion_rate(),
                p.metric("slots").mean(),
                p.metric("goodput_kbps").mean(),
            )
        })
        .collect();
    AfhAdapt { rows, coexist }
}

// ---------------------------------------------------------------------------
// Scatternet experiments (the `core::net` subsystem).

/// One row of the inter-piconet collision experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatCollisionRow {
    /// Number of saturated piconets sharing the band.
    pub piconets: usize,
    /// Measured mean collided-transmission fraction.
    pub collision_rate: f64,
    /// 95% confidence half-width of the mean.
    pub ci95: f64,
    /// Analytic anchor `1 − (78/79)^(2(n−1))` (see
    /// [`analytic_collision_rate`]).
    pub analytic: f64,
    /// Aggregate delivered goodput across all piconets, kbit/s.
    pub kbps_total: f64,
}

/// Result of the `scat_collisions` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatCollisions {
    /// One row per piconet count.
    pub rows: Vec<ScatCollisionRow>,
}

impl ScatCollisions {
    /// Renders the piconet-count sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "piconets",
            "collision rate",
            "ci95",
            "analytic",
            "aggregate kbit/s",
        ]);
        for r in &self.rows {
            t.row([
                r.piconets.to_string(),
                format!("{:.2}%", r.collision_rate * 100.0),
                format!("{:.2}%", r.ci95 * 100.0),
                format!("{:.2}%", r.analytic * 100.0),
                format!("{:.0}", r.kbps_total),
            ]);
        }
        t
    }
}

/// **Scat-A** — inter-piconet collision rate vs piconet count: N
/// independent, saturated piconets share the 79 channels; the medium
/// counts every same-slot/same-channel overlap. Hop sequences of
/// distinct piconets are de-correlated (property-tested in
/// `crates/baseband`), so the measured rate tracks the analytic
/// `1 − (78/79)^(2(n−1))` — each packet overlaps ~2 packets of every
/// other piconet in time, each matching its channel w.p. 1/79.
pub fn scat_collisions(opts: &ExpOptions) -> ScatCollisions {
    let counts: Vec<usize> = match opts.piconets {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4, 8],
    };
    let result = Campaign::sweep(counts.iter().map(|&n| {
        (
            n.to_string(),
            MultiPiconetScenario::new(MultiPiconetConfig {
                piconets: n,
                measure_slots: 4_000,
                sim: opts.sim(paper_config()),
                ..MultiPiconetConfig::default()
            }),
        )
    }))
    .options(opts)
    .run();
    let rows = counts
        .iter()
        .zip(&result.points)
        .map(|(&n, p)| {
            let rate = p.metric("collision_rate");
            ScatCollisionRow {
                piconets: n,
                collision_rate: rate.mean(),
                ci95: rate.ci95(),
                analytic: analytic_collision_rate(n),
                kbps_total: p.metric("kbps_total").mean(),
            }
        })
        .collect();
    ScatCollisions { rows }
}

/// One row of the bridge duty-cycle experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatBridgeRow {
    /// Fraction of each bridge cycle spent in the first piconet.
    pub duty: f64,
    /// Delivered fraction of injected messages.
    pub delivered: f64,
    /// Mean end-to-end latency in slots.
    pub latency_slots: f64,
    /// 95% confidence half-width of the latency mean.
    pub latency_ci95: f64,
    /// Delivered goodput in bit/s.
    pub goodput_bps: f64,
}

/// Result of the `scat_bridge` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatBridge {
    /// Piconets in the relayed chain.
    pub piconets: usize,
    /// One row per duty point.
    pub rows: Vec<ScatBridgeRow>,
}

impl ScatBridge {
    /// Renders the duty sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "bridge duty",
            "delivered",
            "latency TS",
            "ci95",
            "goodput bit/s",
        ]);
        for r in &self.rows {
            t.row([
                format!("{:.2}", r.duty),
                format!("{:.1}%", r.delivered * 100.0),
                format!("{:.0}", r.latency_slots),
                format!("{:.0}", r.latency_ci95),
                format!("{:.0}", r.goodput_bps),
            ]);
        }
        t
    }
}

/// **Scat-B** — bridge duty cycle vs end-to-end latency: a chain of
/// piconets relays framed payload across hold-multiplexed bridges. A
/// lopsided duty starves one side of every bridge, stretching the
/// latency tail; balanced duty minimises the mean at a given period.
///
/// This experiment has a formation phase, so it honours
/// [`ExpOptions::snapshot`] and [`ExpOptions::resume`]:
///
/// * `--snapshot PATH` forms the first duty point once at the base seed
///   and writes the post-formation [`crate::SimSnapshot`] wire form to
///   `PATH`; the campaign then runs exactly as without the flag.
/// * `--resume PATH` loads and validates the file, restores it and
///   drives the measurement suffix in place of the first point's
///   base-seed run. For a snapshot saved by `--snapshot` under the same
///   configuration this is bit-identical to the straight-through run
///   (the split invariant), so the report is byte-identical.
///
/// Errors (unreadable, malformed or version-mismatched snapshot files,
/// a device-count mismatch, failed formation) are returned, never
/// panicked.
pub fn scat_bridge(opts: &ExpOptions) -> Result<ScatBridge, String> {
    let piconets = opts.piconets.unwrap_or(3).max(2);
    let duties: Vec<f64> = match opts.bridge_duty {
        Some(d) => vec![d],
        None => vec![0.2, 0.35, 0.5, 0.65, 0.8],
    };
    let points: Vec<(String, ScatternetScenario)> = duties
        .iter()
        .map(|&duty| {
            (
                format!("{duty}"),
                ScatternetScenario::new(ScatternetConfig {
                    piconets,
                    plan: BridgePlan {
                        duty,
                        ..BridgePlan::default()
                    },
                    measure_slots: 10_000,
                    sim: opts.sim(paper_config()),
                    ..ScatternetConfig::default()
                }),
            )
        })
        .collect();
    if let Some(path) = &opts.snapshot {
        let sim = points[0].1.form(opts.base_seed).ok_or_else(|| {
            format!(
                "--snapshot {path}: scatternet formation failed at base seed {}",
                opts.base_seed
            )
        })?;
        std::fs::write(path, sim.snapshot().to_bytes())
            .map_err(|e| format!("--snapshot {path}: {e}"))?;
        eprintln!("scat_bridge: wrote post-formation snapshot to {path}");
    }
    let resumed = match &opts.resume {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("--resume {path}: {e}"))?;
            let snap = crate::SimSnapshot::from_bytes(&bytes)
                .map_err(|e| format!("--resume {path}: invalid snapshot: {e}"))?;
            let want = Topology::chain(piconets, 1).device_count();
            if snap.device_count() != want {
                return Err(format!(
                    "--resume {path}: snapshot has {} devices, the {piconets}-piconet chain \
                     needs {want} — was it saved by a different configuration?",
                    snap.device_count()
                ));
            }
            Some(snap)
        }
        None => None,
    };
    let mut result = Campaign::sweep(points.iter().cloned()).options(opts).run();
    if let Some(snap) = resumed {
        // Substitute restore + drive_formed for the first point's
        // base-seed run. A matching snapshot makes this bit-identical
        // to the outcome it replaces (gated by snapshot_equivalence).
        let mut sim = snap.restore();
        result.points[0].outcomes[0] = points[0].1.drive_formed(&mut sim);
    }
    let rows = duties
        .iter()
        .zip(&result.points)
        .map(|(&duty, p)| {
            let latency = p.metric("latency_slots");
            ScatBridgeRow {
                duty,
                delivered: p.metric("delivered").mean(),
                latency_slots: latency.mean(),
                latency_ci95: latency.ci95(),
                goodput_bps: p.metric("goodput_bps").mean(),
            }
        })
        .collect();
    Ok(ScatBridge { piconets, rows })
}

/// One row of the dense-floor density experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseFloorRow {
    /// Co-located piconets per grid cluster (the density knob).
    pub piconets_per_point: usize,
    /// Devices on the floor.
    pub devices: usize,
    /// Measured mean collided-transmission fraction, floor-wide.
    pub collision_rate: f64,
    /// 95% confidence half-width of the mean.
    pub ci95: f64,
    /// Analytic anchor for one cluster
    /// ([`analytic_collision_rate`] of `piconets_per_point`).
    pub analytic_cell: f64,
    /// Aggregate delivered goodput across the floor, kbit/s.
    pub kbps_total: f64,
    /// Fraction of runs where every piconet formed.
    pub completion: f64,
}

/// Result of the `dense_floor` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseFloor {
    /// Grid of clusters the floor was built on.
    pub grid: (usize, usize),
    /// One row per density point.
    pub rows: Vec<DenseFloorRow>,
    /// The campaign result as deterministic JSON (diffed by CI across
    /// `--shards` values).
    pub json: String,
}

impl DenseFloor {
    /// Renders the delivered-vs-density series.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "piconets/cluster",
            "devices",
            "collision rate",
            "ci95",
            "analytic (1 cluster)",
            "aggregate kbit/s",
            "formed",
        ]);
        for r in &self.rows {
            t.row([
                r.piconets_per_point.to_string(),
                r.devices.to_string(),
                format!("{:.2}%", r.collision_rate * 100.0),
                format!("{:.2}%", r.ci95 * 100.0),
                format!("{:.2}%", r.analytic_cell * 100.0),
                format!("{:.0}", r.kbps_total),
                format!("{:.0}%", r.completion * 100.0),
            ]);
        }
        t
    }
}

/// **Dense-floor** — delivered traffic and collision rate vs density on
/// a spatial grid: clusters of co-located saturated piconets spaced
/// beyond radio range. With range culling the floor-wide collision rate
/// anchors to the analytic rate *within one cluster* regardless of how
/// many clusters the floor has, and the disjoint clusters are the
/// workload [`crate::SimConfig::shards`] parallelises bit-identically
/// (see `docs/SPATIAL.md`).
pub fn dense_floor(opts: &ExpOptions) -> DenseFloor {
    let densities: Vec<usize> = match opts.piconets {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 3],
    };
    let grid = (3, 3);
    let mut opts = opts.clone();
    // Up to 54 devices per run: keep the campaign bounded.
    opts.runs = opts.runs.min(4);
    let result = Campaign::sweep(densities.iter().map(|&k| {
        let base = DenseFloorConfig {
            grid,
            piconets_per_point: k,
            ..DenseFloorConfig::default()
        };
        (
            k.to_string(),
            DenseFloorScenario::new(DenseFloorConfig {
                sim: opts.sim(base.sim.clone()),
                ..base
            }),
        )
    }))
    .options(&opts)
    .run();
    let points = grid.0 * grid.1;
    let rows = densities
        .iter()
        .zip(&result.points)
        .map(|(&k, p)| {
            let rate = p.metric("collision_rate");
            DenseFloorRow {
                piconets_per_point: k,
                devices: 2 * k * points,
                collision_rate: rate.mean(),
                ci95: rate.ci95(),
                analytic_cell: analytic_collision_rate(k),
                kbps_total: p.metric("kbps_total").mean(),
                completion: p.completion_rate(),
            }
        })
        .collect();
    DenseFloor {
        grid,
        rows,
        json: result.to_json().render(),
    }
}

/// One row of the multi-piconet simulation-speed experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatSpeedRow {
    /// Piconets simulated (2 devices each, saturated).
    pub piconets: usize,
    /// Whether every piconet formed (a failed formation skips the
    /// traffic window, so its timing would be meaningless).
    pub formed: bool,
    /// Simulated slots per wall-clock second (0 when not formed).
    pub slots_per_sec: f64,
    /// Simulated 1 MHz clock cycles per wall second (the paper's
    /// Table 1 metric; 625 cycles per slot).
    pub clock_cycles_per_sec: f64,
}

/// One row of the slots/sec-vs-shards sharding extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpeedRow {
    /// Worker-shard cap the dense floor ran with.
    pub shards: usize,
    /// Devices on the floor.
    pub devices: usize,
    /// Whether every piconet formed.
    pub formed: bool,
    /// Simulated slots per wall-clock second (0 when not formed).
    pub slots_per_sec: f64,
}

/// Result of the `scat_speed` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatSpeed {
    /// One row per piconet count.
    pub rows: Vec<ScatSpeedRow>,
    /// Sharding extension: the same dense spatial floor at increasing
    /// worker-shard caps (empty when the host has a single core).
    pub shard_rows: Vec<ShardSpeedRow>,
}

impl ScatSpeed {
    /// Renders the scaling table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "piconets",
            "devices",
            "slots / s",
            "clock cycles / s",
            "vs paper (747)",
        ]);
        for r in &self.rows {
            if r.formed {
                t.row([
                    r.piconets.to_string(),
                    (2 * r.piconets).to_string(),
                    format!("{:.0}", r.slots_per_sec),
                    format!("{:.0}", r.clock_cycles_per_sec),
                    format!("{:.0}x", r.clock_cycles_per_sec / 747.0),
                ]);
            } else {
                t.row([
                    r.piconets.to_string(),
                    (2 * r.piconets).to_string(),
                    "formation failed".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
        t
    }

    /// Renders the slots/sec-vs-shards table of the dense-floor run.
    pub fn shard_table(&self) -> Table {
        let mut t = Table::new(["shards", "devices", "slots / s", "vs 1 shard"]);
        let base = self
            .shard_rows
            .first()
            .filter(|r| r.formed && r.slots_per_sec > 0.0)
            .map(|r| r.slots_per_sec);
        for r in &self.shard_rows {
            if r.formed {
                t.row([
                    r.shards.to_string(),
                    r.devices.to_string(),
                    format!("{:.0}", r.slots_per_sec),
                    base.map_or("-".into(), |b| format!("{:.2}x", r.slots_per_sec / b)),
                ]);
            } else {
                t.row([
                    r.shards.to_string(),
                    r.devices.to_string(),
                    "formation failed".into(),
                    "-".into(),
                ]);
            }
        }
        t
    }
}

/// **Scat-C** (Table 1 extension) — simulation speed vs piconet count:
/// wall-clock throughput of saturated multi-piconet workloads, the
/// scaling baseline future performance PRs measure against. Wall-clock
/// timing makes this the one scatternet experiment that is not
/// bit-reproducible. Every row is the median of consecutive 2,000-slot
/// windows on one formed topology ([`median_unit_secs`]).
pub fn scat_speed(opts: &ExpOptions) -> ScatSpeed {
    let counts: Vec<usize> = match opts.piconets {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4, 8],
    };
    let measure = 2_000u64;
    let rows = counts
        .iter()
        .map(|&n| {
            // Form the topology outside the timed region so the number
            // is pure steady-state engine throughput.
            let mut topo = crate::net::Topology::new();
            for p in 0..n {
                topo.piconet(&format!("p{p}"), 1);
            }
            let Ok((mut sim, map)) =
                crate::net::build_scatternet(&topo, opts.base_seed, opts.sim(paper_config()))
            else {
                return ScatSpeedRow {
                    piconets: n,
                    formed: false,
                    slots_per_sec: 0.0,
                    clock_cycles_per_sec: 0.0,
                };
            };
            for p in 0..n {
                sim.command(topo.master_device(p), LcCommand::SetTpoll(2));
            }
            let wall = median_unit_secs(|| {
                // Every window gets a fresh window's worth of data (17
                // bytes per 2 slots, with margin) before its timer
                // starts, so each one runs saturated.
                for p in 0..n {
                    let lt = map
                        .link(p, topo.slave_device(p, 0))
                        .expect("formed link")
                        .lt_addr;
                    sim.command(
                        topo.master_device(p),
                        LcCommand::AclData {
                            lt_addr: lt,
                            data: vec![0x5A; measure as usize * 9],
                        },
                    );
                }
                let end = sim.now() + SimDuration::from_slots(measure);
                let started = Instant::now();
                sim.run_until(end);
                started.elapsed().as_secs_f64()
            });
            let slots_per_sec = measure as f64 / wall;
            ScatSpeedRow {
                piconets: n,
                formed: true,
                slots_per_sec,
                clock_cycles_per_sec: slots_per_sec * 625.0,
            }
        })
        .collect();
    let shard_rows = [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| dense_floor_speed(opts, shards, measure))
        .collect();
    ScatSpeed { rows, shard_rows }
}

/// Times saturated windows of one dense spatial floor (a 4×2 grid of
/// 2-piconet clusters, 32 devices) at the given worker-shard cap: the
/// slots/sec-vs-shards row of `scat_speed`, the median of consecutive
/// `measure`-slot windows ([`median_unit_secs`]).
pub fn dense_floor_speed(opts: &ExpOptions, shards: usize, measure: u64) -> ShardSpeedRow {
    let (grid, per_point) = ((4, 2), 2);
    let base = DenseFloorConfig {
        grid,
        piconets_per_point: per_point,
        measure_slots: measure,
        ..DenseFloorConfig::default()
    };
    let mut sim_cfg = opts.sim(base.sim.clone());
    sim_cfg.shards = shards;
    let scenario = DenseFloorScenario::new(DenseFloorConfig {
        sim: sim_cfg,
        ..base
    });
    let devices = 2 * per_point * grid.0 * grid.1;
    let mut sim = scenario.build(opts.base_seed);
    let Ok(map) = scenario.prepare(&mut sim) else {
        return ShardSpeedRow {
            shards,
            devices,
            formed: false,
            slots_per_sec: 0.0,
        };
    };
    let mut windows = 0;
    let wall = median_unit_secs(|| {
        // `prepare` queued the first window's data; each later window
        // gets its own before its timer starts.
        if windows > 0 {
            scenario.saturate(&mut sim, &map);
        }
        windows += 1;
        let end = sim.now() + SimDuration::from_slots(measure);
        let started = Instant::now();
        sim.run_until(end);
        started.elapsed().as_secs_f64()
    });
    ShardSpeedRow {
        shards,
        devices,
        formed: true,
        slots_per_sec: measure as f64 / wall,
    }
}

// ---------------------------------------------------------------------------
// Observability: representative capture runs and the capture forensics
// scan (`docs/OBSERVABILITY.md`).

/// Output of a representative observability run: the serialized btsnoop
/// capture and the streamed metrics lines of one scenario realisation.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureRun {
    /// Complete btsnoop file image (header-only when capture was off).
    pub btsnoop: Vec<u8>,
    /// Streamed metrics JSON lines (empty when streaming was off).
    pub metrics: String,
    /// Records stored by the capture sink.
    pub records: usize,
    /// Records dropped at the sink's cap (0 when unbounded).
    pub dropped: u64,
}

/// One representative `afh_adapt` realisation at the base seed with the
/// observability toggles from `opts` applied (packet capture and/or
/// metrics streaming, [`ExpOptions::observed_sim`]).
///
/// The Monte-Carlo campaign behind the experiment's tables never sees
/// these toggles — this extra run exists purely to produce the
/// artifacts, so `--capture` changes no reported number.
pub fn afh_capture_run(opts: &ExpOptions) -> CaptureRun {
    let scenario = AfhAdaptScenario::new(AfhAdaptConfig {
        wlan: btsim_channel::Interferer::wlan(40, 0.5),
        afh: AfhConfig {
            enabled: true,
            ..AfhConfig::default()
        },
        sim: opts.observed_sim(paper_config()),
        ..AfhAdaptConfig::default()
    });
    let mut sim = scenario.build(opts.base_seed);
    let _ = scenario.drive(&mut sim);
    CaptureRun {
        btsnoop: btsim_trace::btsnoop::serialize_sink(sim.capture()),
        metrics: sim.metrics_lines().to_string(),
        records: sim.capture().len(),
        dropped: sim.capture().dropped(),
    }
}

/// One per-channel row of the capture forensics scan.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureScanRow {
    /// RF channel index (0..79).
    pub channel: u8,
    /// Packets transmitted on the channel.
    pub transmissions: u64,
    /// Of those, packets a co-channel transmission overlapped.
    pub collided: u64,
    /// Of those, packets an interferer burst wiped.
    pub jammed: u64,
}

/// Result of the `capture_scan` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureScan {
    /// The serialized capture the forensics were replayed from.
    pub btsnoop: Vec<u8>,
    /// Per-channel verdicts, channels with traffic only, ascending.
    pub rows: Vec<CaptureScanRow>,
    /// Air records in the file (both directions).
    pub air_records: usize,
    /// LMP PDU records in the file.
    pub lmp_records: usize,
}

impl CaptureScan {
    /// Renders the per-channel forensics table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["RF channel", "tx", "collided", "jammed", "jam rate"]);
        for r in &self.rows {
            t.row([
                r.channel.to_string(),
                r.transmissions.to_string(),
                r.collided.to_string(),
                r.jammed.to_string(),
                format!(
                    "{:.0}%",
                    r.jammed as f64 / r.transmissions.max(1) as f64 * 100.0
                ),
            ]);
        }
        t
    }

    /// Total jammed transmissions across all channels.
    pub fn jammed_total(&self) -> u64 {
        self.rows.iter().map(|r| r.jammed).sum()
    }
}

/// **Capture** — records a jam-heavy `AfhAdaptScenario` realisation
/// (full-duty `wlan(40, 1.0)`, AFH policy off) into a btsnoop capture,
/// then *replays the serialized file through the in-repo reader* and
/// reports per-channel transmission/collision/jam forensics from the
/// parsed records alone. Exercises the whole capture path — sink, taps,
/// serializer, reader — and is deterministic for a fixed base seed.
pub fn capture_scan(opts: &ExpOptions) -> CaptureScan {
    let mut sim_cfg = opts.sim(paper_config());
    sim_cfg.capture = true;
    sim_cfg.metrics_every = opts.metrics_every;
    let scenario = AfhAdaptScenario::new(AfhAdaptConfig {
        wlan: btsim_channel::Interferer::wlan(40, 1.0),
        afh: AfhConfig {
            enabled: false,
            assess_slots: 1_500,
            ..AfhConfig::default()
        },
        window_slots: 1_500,
        sim: sim_cfg,
        ..AfhAdaptConfig::default()
    });
    let mut sim = scenario.build(opts.base_seed);
    let _ = scenario.drive(&mut sim);
    let btsnoop = btsim_trace::btsnoop::serialize_sink(sim.capture());
    let parsed =
        btsim_trace::btsnoop::parse(&btsnoop).expect("the reader accepts its own serializer");
    let mut per = std::collections::BTreeMap::<u8, (u64, u64, u64)>::new();
    let (mut air, mut lmp) = (0usize, 0usize);
    for r in &parsed.records {
        if r.payload.is_empty() {
            continue; // trailing drop marker
        }
        if r.is_lmp() {
            lmp += 1;
            continue;
        }
        air += 1;
        if r.received() {
            continue; // count each packet once, at its TX record
        }
        let e = per.entry(r.channel().unwrap_or(0)).or_default();
        e.0 += 1;
        e.1 += u64::from(r.collided());
        e.2 += u64::from(r.jammed());
    }
    CaptureScan {
        btsnoop,
        rows: per
            .into_iter()
            .map(
                |(channel, (transmissions, collided, jammed))| CaptureScanRow {
                    channel,
                    transmissions,
                    collided,
                    jammed,
                },
            )
            .collect(),
        air_records: air,
        lmp_records: lmp,
    }
}

/// Helper for binaries: filters logged events of one device.
pub fn events_of(events: &[LoggedEvent], device: usize) -> Vec<&LoggedEvent> {
    events.iter().filter(|e| e.device == device).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_quick_has_anchor_and_monotone_tail() {
        let opts = ExpOptions {
            runs: 6,
            ..ExpOptions::quick()
        };
        let f = fig6_inquiry_vs_ber(&opts);
        assert_eq!(f.rows.len(), 9);
        assert_eq!(f.rows[0].label, "0");
        assert!(f.rows[0].completed > 0.9, "noiseless inquiry completes");
        assert!(f.rows[0].mean_slots > 100.0);
        let t = f.table();
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn fig8_quick_page_is_bottleneck_at_high_ber() {
        let opts = ExpOptions {
            runs: 8,
            ..ExpOptions::quick()
        };
        let f = fig8_creation_failure(&opts);
        let last = f.rows.last().unwrap();
        assert!(
            last.page_failure >= last.inquiry_failure,
            "page must be the bottleneck at BER 1/30: page {} inquiry {}",
            last.page_failure,
            last.inquiry_failure
        );
        assert!(last.page_failure > 0.8, "page ~impossible at 1/30");
    }

    #[test]
    fn fig5_waveforms_render() {
        let w = fig5_creation_waveforms(3, Engine::Lockstep);
        assert!(w.ascii.contains("enable_rx_RF"));
        assert!(w.vcd.contains("$enddefinitions"));
    }

    #[test]
    fn table1_reports_speedup() {
        let s = table1_sim_speed(1, Engine::Lockstep);
        assert!(s.clock_cycles_per_sec > 747.0, "should beat 2005 SystemC");
        assert!(s.speedup_vs_paper > 1.0);
    }

    #[test]
    fn scat_collisions_respects_piconet_override() {
        let opts = ExpOptions {
            runs: 2,
            piconets: Some(2),
            ..ExpOptions::quick()
        };
        let f = scat_collisions(&opts);
        assert_eq!(f.rows.len(), 1, "--piconets collapses the sweep");
        let r = &f.rows[0];
        assert_eq!(r.piconets, 2);
        assert!(r.collision_rate > 0.0, "two piconets must collide");
        assert!(
            (r.analytic - 0.025).abs() < 0.005,
            "analytic anchor {}",
            r.analytic
        );
        assert_eq!(f.table().len(), 1);
    }

    #[test]
    fn scat_bridge_duty_override_delivers() {
        let opts = ExpOptions {
            runs: 1,
            piconets: Some(2),
            bridge_duty: Some(0.5),
            ..ExpOptions::quick()
        };
        let f = scat_bridge(&opts).unwrap();
        assert_eq!(f.piconets, 2);
        assert_eq!(f.rows.len(), 1, "--bridge-duty collapses the sweep");
        assert!(
            f.rows[0].delivered > 0.5,
            "balanced duty delivers: {:?}",
            f.rows[0]
        );
        assert!(f.rows[0].latency_slots > 0.0);
    }

    #[test]
    fn scat_bridge_snapshot_save_and_resume_are_identical() {
        let path = std::env::temp_dir()
            .join(format!("btsim_scat_bridge_{}.btsnap", std::process::id()))
            .to_str()
            .unwrap()
            .to_string();
        let base = ExpOptions {
            runs: 1,
            piconets: Some(2),
            bridge_duty: Some(0.5),
            ..ExpOptions::quick()
        };
        let straight = scat_bridge(&base).unwrap();
        let saved = scat_bridge(&ExpOptions {
            snapshot: Some(path.clone()),
            ..base.clone()
        })
        .unwrap();
        assert_eq!(straight, saved, "--snapshot must not change results");
        let resume = ExpOptions {
            resume: Some(path.clone()),
            ..base.clone()
        };
        let resumed = scat_bridge(&resume).unwrap();
        assert_eq!(
            straight, resumed,
            "--resume substitutes a bit-identical run"
        );
        // A snapshot from a different configuration is rejected before
        // the campaign runs.
        let mismatched = scat_bridge(&ExpOptions {
            piconets: Some(3),
            ..resume.clone()
        })
        .unwrap_err();
        assert!(mismatched.contains("devices"), "{mismatched}");
        // Malformed files are rejected with an error, never a panic.
        std::fs::write(&path, b"not a snapshot").unwrap();
        let err = scat_bridge(&resume).unwrap_err();
        assert!(err.contains("invalid snapshot"), "{err}");
        let _ = std::fs::remove_file(&path);
        let err = scat_bridge(&resume).unwrap_err();
        assert!(err.starts_with("--resume"), "{err}");
    }
}
