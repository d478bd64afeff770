//! The paper's experiments, one function per table/figure.
//!
//! Each experiment expresses its workload as a [`Campaign`] over a
//! [`Scenario`] — the campaign owns seeding, parallelism and
//! aggregation — and is one function
//! `fn(&ExpOptions) -> Result<ExpReport, String>` that builds its
//! [`Table`]s straight from the campaign's points
//! (`metric(..).mean()`/`ci95()`, `completion_rate()`, `first()`) and
//! owns its title, notes, run caps and artifacts. That function is the
//! experiment's [`registry`] entry, which is what the `experiments`
//! multiplexer in `btsim-bench` executes; `registry()` and `find()` are
//! the public surface. Absolute numbers depend on the calibrated
//! behavioural model (see [`paper_config`]'s knob list and the
//! `ext_ablation` entry); the shapes — break-even points, bottleneck
//! ordering, saturation — are the reproduction target.
//!
//! Only the low-power mode sweeps of Figs. 11-12 and Ext-D keep a typed
//! result ([`ModeSweep`], with a `table()` renderer), because the
//! benchmark in `perfbench/` imports them. The paper-anchor tests in
//! the root package's `tests/experiments_smoke.rs` read each figure's
//! registry report (its table, text block and VCD artifact); the
//! in-file tests read the private campaign functions (`duty_sweep`,
//! `collision_sweep`, …) where a check needs what the table rounds
//! away or does not print.

use std::time::Instant;

use btsim_baseband::{LcCommand, PacketType, SniffParams};
use btsim_kernel::{SimDuration, SimTime};
use btsim_stats::{Record, Summary, Table};
use btsim_trace::{render_ascii, to_vcd, AsciiOptions};

use crate::campaign::{Campaign, CampaignResult};
use crate::net::{
    analytic_collision_rate, BridgePlan, DenseFloorConfig, DenseFloorScenario, MultiPiconetConfig,
    MultiPiconetOutcome, MultiPiconetScenario, ScatternetConfig, ScatternetOutcome,
    ScatternetScenario, Topology,
};
use crate::scenario::{
    connect_pair, paper_config, AfhAdaptConfig, AfhAdaptScenario, CoexistenceConfig,
    CoexistenceScenario, CreationConfig, CreationScenario, GoodputConfig, GoodputOutcome,
    GoodputScenario, HoldConfig, HoldScenario, InquiryConfig, InquiryOutcome, InquiryScenario,
    PageConfig, PageOutcome, PageScenario, ParkConfig, ParkScenario, Scenario, ScoLinkConfig,
    ScoLinkScenario, SniffConfig, SniffScenario, TrafficConfig, TrafficOutcome, TrafficScenario,
};
use crate::{AfhConfig, SimBuilder};

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

/// The noiseless anchor plus [`PAPER_BERS`]: the points of Figs. 6-7.
fn ber_points() -> Vec<(&'static str, f64)> {
    let mut points = vec![("0", 0.0)];
    points.extend(PAPER_BERS);
    points
}

/// The inquiry phase at each of `bers` (one point per BER, labelled as
/// listed), giving up after `cap_slots`.
fn inquiry_sweep(
    opts: &ExpOptions,
    bers: &[(&str, f64)],
    cap_slots: u64,
) -> CampaignResult<InquiryOutcome> {
    Campaign::sweep(bers.iter().map(|&(label, ber)| {
        (
            label.to_string(),
            InquiryScenario::new(InquiryConfig {
                ber,
                cap_slots,
                sim: opts.sim(paper_config()),
                ..InquiryConfig::default()
            }),
        )
    }))
    .options(opts)
    .run()
}

/// The page phase (devices already synchronised) at each of `bers`,
/// under the paper's 1.28 s (2048-slot) page timeout.
fn page_sweep(opts: &ExpOptions, bers: &[(&str, f64)]) -> CampaignResult<PageOutcome> {
    Campaign::sweep(bers.iter().map(|&(label, ber)| {
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
    .options(opts)
    .run()
}

/// The series of Figs. 6-7: mean slots to completion over completed
/// runs, per BER point.
fn slots_table<R: Record>(result: &CampaignResult<R>) -> Table {
    let mut t = Table::new(["BER", "mean TS", "ci95", "completed"]);
    for p in &result.points {
        let slots = p.metric("slots");
        t.row([
            p.label.clone(),
            format!("{:.1}", slots.mean()),
            format!("{:.1}", slots.ci95()),
            format!("{:.1}%", p.completion_rate() * 100.0),
        ]);
    }
    t
}

/// **Fig. 6** — mean number of time slots to complete the inquiry phase
/// as a function of the BER (no timeout; mean over completed runs).
fn fig6_inquiry_vs_ber(opts: &ExpOptions) -> Result<ExpReport, String> {
    let result = inquiry_sweep(opts, &ber_points(), InquiryConfig::default().cap_slots);
    Ok(
        ExpReport::new("Fig. 6 — mean time slots to complete the INQUIRY phase vs BER")
            .note("(paper anchors: 1556 TS with no noise, ≈1800 TS at BER 1/30)")
            .table(slots_table(&result)),
    )
}

/// **Fig. 7** — mean number of time slots to complete the page phase as
/// a function of the BER (devices already synchronised). As in the paper,
/// the 1.28 s page timeout applies; the mean is over successful runs.
fn fig7_page_vs_ber(opts: &ExpOptions) -> Result<ExpReport, String> {
    Ok(
        ExpReport::new("Fig. 7 — mean time slots to complete the PAGE phase vs BER")
            .note("(paper anchors: ≈17 TS with no noise; impossible for BER > 1/30)")
            .table(slots_table(&page_sweep(opts, &ber_points()))),
    )
}

/// **Fig. 8** — probability of failure of the inquiry and page phases
/// under the paper's 1.28 s (2048-slot) timeout. The page phase is the
/// bottleneck: its success probability collapses beyond BER ≈ 1/50.
fn fig8_creation_failure(opts: &ExpOptions) -> Result<ExpReport, String> {
    let inquiry = inquiry_sweep(opts, &PAPER_BERS, 2048);
    let page = page_sweep(opts, &PAPER_BERS);
    let mut t = Table::new(["BER", "inquiry failure", "page failure"]);
    for (inq, pag) in inquiry.points.iter().zip(&page.points) {
        t.row([
            inq.label.clone(),
            format!("{:.1}%", (1.0 - inq.completion_rate()) * 100.0),
            format!("{:.1}%", (1.0 - pag.completion_rate()) * 100.0),
        ]);
    }
    Ok(
        ExpReport::new("Fig. 8 — failure probability of inquiry / page with the 1.28 s timeout")
            .note("(paper: page success very low for BER > 1/50; page is the bottleneck)")
            .table(t),
    )
}

/// **Fig. 5** — waveforms of the creation of a piconet with a master and
/// three slaves, all switched on simultaneously on a clean channel.
/// Scanning slaves show continuously asserted `enable_rx_RF`; once in the
/// piconet they listen only at slot starts. The report carries the
/// terminal rendering as text and the VCD as the `fig5.vcd` artifact.
fn fig5_creation_waveforms(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut cfg = paper_config();
    cfg.engine = opts.engine;
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
    let mut sim = scenario.build(opts.base_seed);
    let out = scenario.drive(&mut sim);
    let ascii = render_ascii(
        sim.recorder(),
        &AsciiOptions {
            from: SimTime::ZERO,
            to: sim.now(),
            columns: 160,
        },
    );
    Ok(
        ExpReport::new("Fig. 5 — piconet creation waveforms (enable_tx_RF / enable_rx_RF)")
            .note(format!(
                "piconet formed: {} | inquiry: {} slots | pages: {:?}",
                out.piconet_complete(),
                out.inquiry_slots,
                out.pages
                    .iter()
                    .map(|(_, ok, s)| (*ok, *s))
                    .collect::<Vec<_>>()
            ))
            .text(ascii)
            .artifact("fig5.vcd", to_vcd(sim.recorder())),
    )
}

/// **Fig. 9** — waveforms with two slaves placed in sniff mode; their
/// `enable_rx_RF` pulses only at the sniff anchors. The report carries
/// the terminal rendering as text and the VCD as the `fig9.vcd`
/// artifact.
fn fig9_sniff_waveforms(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut cfg = paper_config();
    cfg.engine = opts.engine;
    cfg.trace = true;
    let mut b = SimBuilder::new(opts.base_seed, cfg);
    let master = b.add_device("master");
    let s1 = b.add_device("slave1");
    let s2 = b.add_device("slave2");
    let s3 = b.add_device("slave3");
    let mut sim = b.build();
    let cap = SimTime::from_us(60_000_000);
    connect_pair(&mut sim, master, s1, cap).expect("slave1 connects");
    let lt2 = connect_pair(&mut sim, master, s2, cap).expect("slave2 connects");
    let lt3 = connect_pair(&mut sim, master, s3, cap).expect("slave3 connects");
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
    Ok(
        ExpReport::new("Fig. 9 — sniff-mode waveforms (slaves 2 and 3 sniffing)")
            .note("slave2/slave3 sniffing (Tsniff=12, timeout 2 slots); slave1 active")
            .text(ascii)
            .artifact("fig9.vcd", to_vcd(sim.recorder())),
    )
}

/// The channel duty cycles of Fig. 10.
const FIG10_DUTIES: [f64; 8] = [0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02];

/// Fig. 10's campaign: one run of the traffic scenario per duty cycle
/// (labelled `{duty}`), each measured over 40,000 slots per requested
/// run, capped at 150,000.
fn duty_sweep(opts: &ExpOptions) -> CampaignResult<TrafficOutcome> {
    let measure = 150_000u64.min(40_000u64.saturating_mul(opts.runs.max(1) as u64));
    Campaign::sweep(FIG10_DUTIES.iter().map(|&duty| {
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
    .run()
}

/// **Fig. 10** — RF activity of the master (TX and RX) as a function of
/// the channel duty cycle: linear growth, TX above RX.
fn fig10_master_activity(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut t = Table::new(["duty cycle", "TX activity", "RX activity"]);
    for (duty, p) in FIG10_DUTIES.iter().zip(&duty_sweep(opts).points) {
        let master = p.first().master;
        t.row([
            format!("{:.2}%", duty * 100.0),
            format!("{:.4}%", master.tx * 100.0),
            format!("{:.4}%", master.rx * 100.0),
        ]);
    }
    Ok(
        ExpReport::new("Fig. 10 — RF activity of the master vs channel duty cycle")
            .note("(paper: linear, TX above RX, ≈0.3% TX at 2% duty)")
            .table(t),
    )
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

/// Simulated seconds of Table 1's creation run (the paper's 0.48 s).
const TABLE1_SIM_SECS: f64 = 0.48;

/// Simulated 1 MHz clock cycles per wall second of Table 1's
/// piconet-creation run, timed as the median of repeated runs.
fn creation_cycles_per_sec(opts: &ExpOptions) -> f64 {
    let mut cfg = paper_config();
    cfg.engine = opts.engine;
    let wall = median_unit_secs(|| {
        let started = Instant::now();
        let out = CreationScenario::new(CreationConfig {
            n_slaves: 3,
            inquiry_timeout_slots: (TABLE1_SIM_SECS * 1600.0) as u32,
            page_timeout_slots: 512,
            sim: cfg.clone(),
            ..CreationConfig::default()
        })
        .run(opts.base_seed);
        let _ = out.piconet_complete();
        started.elapsed().as_secs_f64()
    });
    TABLE1_SIM_SECS * 1e6 / wall
}

/// **Table 1** (the §3.1 performance paragraph) — simulation speed of the
/// piconet-creation scenario: the paper simulated 0.48 s in 10′47″
/// (747 clock cycles per second at the 1 µs symbol clock). One creation
/// run takes milliseconds, so the row is the median of repeated runs.
fn table1_sim_speed(opts: &ExpOptions) -> Result<ExpReport, String> {
    let per_sec = creation_cycles_per_sec(opts);
    let mut t = Table::new(["metric", "paper (SystemC, 2005)", "btsim (Rust)"]);
    t.row([
        "simulated time".into(),
        "0.48 s".into(),
        format!("{TABLE1_SIM_SECS:.2} s"),
    ]);
    t.row([
        "clock cycles / wall second".into(),
        "747".into(),
        format!("{per_sec:.0}"),
    ]);
    t.row([
        "speedup".into(),
        "1x".into(),
        format!("{:.0}x", per_sec / 747.0),
    ]);
    Ok(
        ExpReport::new("Table 1 — simulation speed of the piconet-creation scenario")
            .note("(paper: 0.48 s simulated in 10'47'', i.e. 747 clock cycles per wall second)")
            .table(t),
    )
}

/// Ext-A's campaign: one goodput run per ACL packet type and BER,
/// labelled `{type:?}@{ber}` in type-major order.
fn goodput_sweep(opts: &ExpOptions) -> CampaignResult<GoodputOutcome> {
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
    let mut points = Vec::new();
    for ptype in types {
        for (label, ber) in bers {
            points.push((
                format!("{ptype:?}@{label}"),
                GoodputScenario::new(GoodputConfig {
                    ptype,
                    ber,
                    sim: opts.sim(paper_config()),
                    ..GoodputConfig::default()
                }),
            ));
        }
    }
    Campaign::sweep(points).options(opts).runs(1).run()
}

/// **Ext-A** — the packet-type analysis announced in the paper's aims:
/// goodput of DM1/DH1/DM3/DH3/DM5/DH5 under increasing BER. FEC-protected
/// DM types overtake the larger unprotected DH types as noise grows.
fn ext_packet_throughput(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut t = Table::new(["type", "BER", "goodput kbit/s"]);
    for p in &goodput_sweep(opts).points {
        let (ptype, ber) = p.label.split_once('@').expect("labelled type@BER");
        t.row([
            ptype.to_string(),
            ber.to_string(),
            format!("{:.1}", p.first().kbps),
        ]);
    }
    Ok(ExpReport::new("Ext-A — ACL goodput per packet type vs BER")
        .note("(FEC-protected DM types overtake larger DH types as noise grows)")
        .table(t))
}

/// **Ext-B** — collision behaviour with two co-located piconets (the
/// situation of the paper's references [3-5]): piconet B forms while
/// piconet A saturates the channel with traffic. Hop collisions corrupt
/// some of B's exchanges, stretching its creation time.
fn ext_coexistence(opts: &ExpOptions) -> Result<ExpReport, String> {
    let arms = [(false, "isolated"), (true, "next to busy piconet")];
    let result = Campaign::sweep(arms.map(|(with_interferer, label)| {
        (
            label.to_string(),
            CoexistenceScenario::new(CoexistenceConfig {
                with_interferer,
                sim: opts.sim(paper_config()),
                ..CoexistenceConfig::default()
            }),
        )
    }))
    .options(opts)
    // Four devices per run: keep the campaign bounded.
    .runs(opts.runs.clamp(4, 40))
    .run();
    let mut t = Table::new(["scenario", "mean creation TS", "success"]);
    for p in &result.points {
        t.row([
            p.label.clone(),
            format!("{:.0}", p.metric("slots").mean()),
            format!("{:.1}%", p.completion_rate() * 100.0),
        ]);
    }
    Ok(ExpReport::new("Ext-B — creation of piconet B while piconet A saturates the band").table(t))
}

/// **Ext-C** — SCO voice links (the standard's second link type, paper
/// §1): RF cost and frame-delivery rate of HV1/HV2/HV3. HV1 reserves
/// every slot pair (maximum RF cost, maximum FEC protection); HV3 uses
/// one pair in three with no FEC. The residual byte-error columns show
/// where HV1's 1/3 FEC earns its slots.
fn ext_sco(opts: &ExpOptions) -> Result<ExpReport, String> {
    let types = [PacketType::Hv1, PacketType::Hv2, PacketType::Hv3];
    let bers: [(&str, f64); 3] = [("0", 0.0), ("1/100", 0.01), ("1/40", 1.0 / 40.0)];
    let mut points = Vec::new();
    for ptype in types {
        for (label, ber) in bers {
            points.push((
                format!("{ptype:?}@{label}"),
                ScoLinkScenario::new(ScoLinkConfig {
                    ptype,
                    ber,
                    sim: opts.sim(paper_config()),
                    ..ScoLinkConfig::default()
                }),
            ));
        }
    }
    let result = Campaign::sweep(points).options(opts).runs(1).run();
    let mut headers = vec!["type".to_string(), "slave activity".to_string()];
    headers.extend(bers.iter().map(|(label, _)| format!("delivery @{label}")));
    headers.extend(bers.iter().map(|(label, _)| format!("byte err @{label}")));
    let mut t = Table::with_headers(headers);
    // One chunk of BER points per type; activity is read on the clean one.
    for (ptype, row) in types.iter().zip(result.points.chunks(bers.len())) {
        let mut cells = vec![
            format!("{ptype:?}"),
            format!("{:.2}%", row[0].first().activity * 100.0),
        ];
        cells.extend(
            row.iter()
                .map(|p| format!("{:.1}%", p.first().delivery * 100.0)),
        );
        cells.extend(
            row.iter()
                .map(|p| format!("{:.3}%", p.first().residual_err * 100.0)),
        );
        t.row(cells);
    }
    Ok(
        ExpReport::new(
            "Ext-C — SCO voice links: HV1 (max FEC, every pair) vs HV3 (no FEC, 1-in-3)",
        )
        .table(t),
    )
}

/// **Ablation** — why the calibration of `paper_config()` is what it is:
/// page-failure probability under the four combinations of the two
/// fragility levers (page-response FHS with or without the spec 2/3
/// FEC, R1 scan window or continuous page scan). Only "raw FHS + R1
/// window" reproduces the paper's Fig. 8 (failure racing to ~100% at
/// BER 1/30 while staying moderate at 1/100); every other combination
/// leaves paging too robust.
fn ext_calibration_ablation(opts: &ExpOptions) -> Result<ExpReport, String> {
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
    let result = Campaign::sweep(points)
        .options(opts)
        .runs(opts.runs.min(60))
        .run();
    let mut headers = vec!["page FHS FEC".to_string(), "page scan".to_string()];
    headers.extend(bers.iter().map(|(label, _)| format!("failure @{label}")));
    let mut t = Table::with_headers(headers);
    for ((fhs_fec, continuous), row) in combos.iter().zip(result.points.chunks(bers.len())) {
        let mut cells = vec![
            if *fhs_fec { "2/3 FEC" } else { "raw" }.to_string(),
            if *continuous {
                "continuous"
            } else {
                "R1 window"
            }
            .to_string(),
        ];
        cells.extend(
            row.iter()
                .map(|p| format!("{:.0}%", (1.0 - p.completion_rate()) * 100.0)),
        );
        t.row(cells);
    }
    Ok(ExpReport::new(
        "Ablation — page failure probability (2048-slot timeout) per knob combination",
    )
    .note("(the paper's Fig. 8 needs ~100% at 1/30 with moderate failure at 1/100)")
    .table(t))
}

/// **Ext-E** — the *distribution* behind Fig. 6's mean: inquiry duration
/// is strongly structured by the train mechanism (an early mass when the
/// scanner's channel sits in the active train, a late mass one train
/// switch later) convolved with the uniform response backoff.
fn ext_inquiry_distribution(opts: &ExpOptions) -> Result<ExpReport, String> {
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
    Ok(
        ExpReport::new("Ext-E — inquiry completion-time distribution (BER 0)")
            .note(summary.to_string())
            .text(histogram.to_string())
            .note("slots per bin: 256; the paper reports only the mean (1556)"),
    )
}

/// **Ext-F** — coexistence with an 802.11 network (the interference the
/// paper's references [4-5] analyse): a WLAN occupying 22 of the 79 hop
/// channels wipes in-band Bluetooth packets with its duty probability.
/// Frequency hopping caps the damage at the band fraction (22/79 ≈ 28% of
/// packets exposed), which ARQ then recovers at reduced throughput;
/// v1.2 adaptive frequency hopping (a `ChannelMap` excluding the band)
/// restores nearly the clean-channel goodput. Paging cannot use AFH —
/// the devices share no channel map yet.
fn ext_wlan_coexistence(opts: &ExpOptions) -> Result<ExpReport, String> {
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
    // Page success under interference (2048-slot timeout).
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
    let mut t = Table::new([
        "WLAN duty",
        "goodput kbit/s",
        "goodput w/ AFH",
        "page success",
    ]);
    for ((duty, arms), page) in duties
        .iter()
        .zip(goodput.points.chunks(2))
        .zip(&pages.points)
    {
        t.row([
            format!("{:.0}%", duty * 100.0),
            format!("{:.1}", arms[0].first().kbps),
            format!("{:.1}", arms[1].first().kbps),
            format!("{:.0}%", page.completion_rate() * 100.0),
        ]);
    }
    Ok(
        ExpReport::new("Ext-F — Bluetooth next to an 802.11 WLAN (22 of 79 channels occupied)")
            .note("(hopping caps the exposure at ≈28% of packets; ARQ recovers the rest)")
            .table(t),
    )
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
///
/// With `--capture` or `--metrics-every` it also runs one representative
/// AFH-on realisation at the base seed with those toggles applied
/// ([`ExpOptions::observed_sim`]) and attaches its btsnoop capture and
/// metrics lines. The campaign behind the tables never sees the toggles,
/// so they change no reported number.
fn afh_adapt(opts: &ExpOptions) -> Result<ExpReport, String> {
    let wlan = btsim_channel::Interferer::wlan(40, 0.5);
    let adapt_cfg = |enabled: bool, sim| AfhAdaptConfig {
        wlan,
        afh: AfhConfig {
            enabled,
            ..AfhConfig::default()
        },
        sim,
        ..AfhAdaptConfig::default()
    };
    let result = Campaign::sweep([("off", false), ("on", true)].map(|(label, enabled)| {
        (
            label.to_string(),
            AfhAdaptScenario::new(adapt_cfg(enabled, opts.sim(paper_config()))),
        )
    }))
    .options(opts)
    .runs(opts.runs.clamp(2, 16))
    .run();
    let mut adapt = Table::new([
        "AFH",
        "kbit/s before",
        "kbit/s after",
        "recovery",
        "converge TS",
        "band blocked",
        "jam hits after",
    ]);
    for p in &result.points {
        adapt.row([
            p.label.clone(),
            format!("{:.1}", p.metric("kbps_before").mean()),
            format!("{:.1}", p.metric("kbps_after").mean()),
            format!("{:.2}x", p.metric("recovery").mean()),
            format!("{:.0}", p.metric("converge_slots").mean()),
            format!("{:.0}%", p.metric("blocked_in_band").mean() * 100.0),
            format!("{:.1}", p.metric("jam_hits_after").mean()),
        ]);
    }
    // The extended CoexistenceScenario: piconet B forms next to the
    // same WLAN, then transfers with and without a static AFH map
    // excluding the band (creation itself can never use AFH — the
    // devices share no channel map until they share a piconet).
    let band_map =
        btsim_baseband::hop::ChannelMap::try_blocking((0..79u8).filter(|&ch| wlan.covers(ch)))
            .expect("a 22-channel band leaves 57 channels");
    let coexist_points = [("wlan/plain", None), ("wlan/afh", Some(band_map))];
    let coexist_result = Campaign::sweep(coexist_points.map(|(label, afh)| {
        (
            label.to_string(),
            CoexistenceScenario::new(CoexistenceConfig {
                with_interferer: false,
                wlan: Some(wlan),
                goodput_slots: 2_000,
                afh,
                sim: opts.sim(paper_config()),
                ..CoexistenceConfig::default()
            }),
        )
    }))
    .options(opts)
    .runs(opts.runs.clamp(2, 8))
    .run();
    let mut coexist = Table::new(["scenario", "B formed", "creation TS", "B goodput kbit/s"]);
    for p in &coexist_result.points {
        coexist.row([
            p.label.clone(),
            format!("{:.0}%", p.completion_rate() * 100.0),
            format!("{:.0}", p.metric("slots").mean()),
            format!("{:.1}", p.metric("goodput_kbps").mean()),
        ]);
    }
    let mut report = ExpReport::new(
        "AFH — assessment → LMP map exchange → synchronized hop remapping vs wlan(40, 0.5)",
    )
    .note(
        "(v1.2 adaptive frequency hopping: the in-use map switches at a master-announced instant)",
    )
    .table(adapt)
    .note("(extended CoexistenceScenario: piconet B forms under the WLAN, then transfers)")
    .table(coexist);
    if opts.capture || opts.metrics_every.is_some() {
        let scenario = AfhAdaptScenario::new(adapt_cfg(true, opts.observed_sim(paper_config())));
        let mut sim = scenario.build(opts.base_seed);
        let _ = scenario.drive(&mut sim);
        report = report.note(format!(
            "(representative run at seed {}: {} capture records, {} dropped)",
            opts.base_seed,
            sim.capture().len(),
            sim.capture().dropped()
        ));
        if opts.capture {
            report = report.binary_artifact(
                "afh_adapt.btsnoop",
                btsim_trace::btsnoop::serialize_sink(sim.capture()),
            );
        }
        if opts.metrics_every.is_some() {
            report = report.artifact("afh_adapt.metrics.jsonl", sim.metrics_lines());
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Scatternet experiments (the `core::net` subsystem).

/// The swept piconet counts of `scat_collisions` and `scat_speed`:
/// `--piconets` collapses the sweep to one point.
fn piconet_counts(opts: &ExpOptions) -> Vec<usize> {
    match opts.piconets {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4, 8],
    }
}

/// The `scat_collisions` campaign: one point per piconet count.
fn collision_sweep(opts: &ExpOptions) -> CampaignResult<MultiPiconetOutcome> {
    Campaign::sweep(piconet_counts(opts).into_iter().map(|n| {
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
    .run()
}

/// **Scat-A** — inter-piconet collision rate vs piconet count: N
/// independent, saturated piconets share the 79 channels; the medium
/// counts every same-slot/same-channel overlap. Hop sequences of
/// distinct piconets are de-correlated (property-tested in
/// `crates/baseband`), so the measured rate tracks the analytic
/// `1 − (78/79)^(2(n−1))` ([`analytic_collision_rate`]) — each packet
/// overlaps ~2 packets of every other piconet in time, each matching
/// its channel w.p. 1/79.
fn scat_collisions(opts: &ExpOptions) -> Result<ExpReport, String> {
    // Up to 16 saturated devices per run: keep the campaign bounded.
    let opts = &ExpOptions {
        runs: opts.runs.min(8),
        ..opts.clone()
    };
    let mut t = Table::new([
        "piconets",
        "collision rate",
        "ci95",
        "analytic",
        "aggregate kbit/s",
    ]);
    for (n, p) in piconet_counts(opts)
        .into_iter()
        .zip(&collision_sweep(opts).points)
    {
        let rate = p.metric("collision_rate");
        t.row([
            n.to_string(),
            format!("{:.2}%", rate.mean() * 100.0),
            format!("{:.2}%", rate.ci95() * 100.0),
            format!("{:.2}%", analytic_collision_rate(n) * 100.0),
            format!("{:.0}", p.metric("kbps_total").mean()),
        ]);
    }
    Ok(
        ExpReport::new("Scat-A — inter-piconet collision rate vs piconet count")
            .note("(N saturated piconets share the 79 channels; analytic: 1 − (78/79)^(2(N−1)))")
            .note(
                "(the anchor assumes full-slot air occupancy; DM1 exchanges fill ~60% of each \
             slot, so the measured rate sits at roughly half the anchor with the same shape)",
            )
            .table(t),
    )
}

/// The `scat_bridge` campaign over a chain of `piconets`: one point per
/// bridge duty, with `--snapshot`/`--resume` applied to the first
/// point's base-seed run (see [`scat_bridge`]).
fn bridge_sweep(
    opts: &ExpOptions,
    piconets: usize,
    duties: &[f64],
) -> Result<CampaignResult<ScatternetOutcome>, String> {
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
    Ok(result)
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
fn scat_bridge(opts: &ExpOptions) -> Result<ExpReport, String> {
    // Chains are the heaviest workload (8+ devices, 10k slots): cap runs.
    let opts = &ExpOptions {
        runs: opts.runs.min(4),
        ..opts.clone()
    };
    let piconets = opts.piconets.unwrap_or(3).max(2);
    let duties: Vec<f64> = match opts.bridge_duty {
        Some(d) => vec![d],
        None => vec![0.2, 0.35, 0.5, 0.65, 0.8],
    };
    let mut t = Table::new([
        "bridge duty",
        "delivered",
        "latency TS",
        "ci95",
        "goodput bit/s",
    ]);
    let result = bridge_sweep(opts, piconets, &duties)?;
    for (duty, p) in duties.iter().zip(&result.points) {
        let latency = p.metric("latency_slots");
        t.row([
            format!("{duty:.2}"),
            format!("{:.1}%", p.metric("delivered").mean() * 100.0),
            format!("{:.0}", latency.mean()),
            format!("{:.0}", latency.ci95()),
            format!("{:.0}", p.metric("goodput_bps").mean()),
        ]);
    }
    let mut report = ExpReport::new(format!(
        "Scat-B — bridge duty cycle vs end-to-end latency ({piconets}-piconet chain)"
    ))
    .note("(a slave of the first piconet streams to a slave of the last via held bridges)");
    if opts.piconets.is_some_and(|n| n < 2) {
        report = report
            .note("(note: --piconets raised to 2 — a bridged chain needs at least two piconets)");
    }
    Ok(report.table(t))
}

/// Rejects a `--cell-size` below the dense floor's interaction radius
/// before anything runs: the floor keeps its radius and only resizes
/// its cells.
fn check_floor_cell_size(opts: &ExpOptions) -> Result<(), String> {
    match opts.spatial_for(&DenseFloorConfig::default().sim) {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("invalid --cell-size value: {e}")),
    }
}

/// **Dense-floor** — delivered traffic and collision rate vs density on
/// a spatial grid: clusters of co-located saturated piconets spaced
/// beyond radio range. With range culling the floor-wide collision rate
/// anchors to the analytic rate *within one cluster* regardless of how
/// many clusters the floor has, and the disjoint clusters are the
/// workload [`crate::SimConfig::shards`] parallelises bit-identically
/// (see `docs/SPATIAL.md`). The campaign result is attached as
/// deterministic JSON, which CI diffs across `--shards` values.
fn dense_floor(opts: &ExpOptions) -> Result<ExpReport, String> {
    check_floor_cell_size(opts)?;
    let densities: Vec<usize> = match opts.piconets {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 3],
    };
    let grid = (3, 3);
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
    .options(opts)
    // Up to 54 devices per run: keep the campaign bounded.
    .runs(opts.runs.min(4))
    .run();
    let mut t = Table::new([
        "piconets/cluster",
        "devices",
        "collision rate",
        "ci95",
        "analytic (1 cluster)",
        "aggregate kbit/s",
        "formed",
    ]);
    for (&k, p) in densities.iter().zip(&result.points) {
        let rate = p.metric("collision_rate");
        t.row([
            k.to_string(),
            (2 * k * grid.0 * grid.1).to_string(),
            format!("{:.2}%", rate.mean() * 100.0),
            format!("{:.2}%", rate.ci95() * 100.0),
            format!("{:.2}%", analytic_collision_rate(k) * 100.0),
            format!("{:.0}", p.metric("kbps_total").mean()),
            format!("{:.0}%", p.completion_rate() * 100.0),
        ]);
    }
    Ok(ExpReport::new(format!(
        "Spatial — dense-floor collision rate vs density ({}x{} clusters)",
        grid.0, grid.1
    ))
    .note(
        "(clusters of co-located saturated piconets spaced beyond radio range: the \
         floor-wide rate anchors to the one-cluster analytic 1 − (78/79)^(2(k−1)))",
    )
    .note(
        "(the anchor assumes full-slot air occupancy; DM1 exchanges fill ~60% of each \
         slot, so the measured rate sits below the anchor with the same shape)",
    )
    .table(t)
    .artifact("dense_floor.json", result.to_json().render()))
}

/// **Scat-C** (Table 1 extension) — simulation speed vs piconet count:
/// wall-clock throughput of saturated multi-piconet workloads, the
/// scaling baseline future performance PRs measure against, plus the
/// same dense spatial floor (a 4×2 grid of 2-piconet clusters, 32
/// devices) at increasing worker-shard caps. Wall-clock timing makes
/// this the one scatternet experiment that is not bit-reproducible.
/// Every row is the median of consecutive 2,000-slot windows on one
/// formed topology ([`median_unit_secs`]); a topology that fails to
/// form reports no speed.
fn scat_speed(opts: &ExpOptions) -> Result<ExpReport, String> {
    check_floor_cell_size(opts)?;
    let measure = 2_000u64;
    let mut t = Table::new([
        "piconets",
        "devices",
        "slots / s",
        "clock cycles / s",
        "vs paper (747)",
    ]);
    for n in piconet_counts(opts) {
        // Form the topology outside the timed region so the number is
        // pure steady-state engine throughput.
        let mut topo = Topology::new();
        for p in 0..n {
            topo.piconet(&format!("p{p}"), 1);
        }
        let Ok((mut sim, map)) =
            crate::net::build_scatternet(&topo, opts.base_seed, opts.sim(paper_config()))
        else {
            t.row([
                n.to_string(),
                (2 * n).to_string(),
                "formation failed".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        for p in 0..n {
            sim.command(topo.master_device(p), LcCommand::SetTpoll(2));
        }
        let wall = median_unit_secs(|| {
            // Every window gets a fresh window's worth of data (17 bytes
            // per 2 slots, with margin) before its timer starts, so each
            // one runs saturated.
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
        let cycles_per_sec = measure as f64 / wall * 625.0;
        t.row([
            n.to_string(),
            (2 * n).to_string(),
            format!("{:.0}", measure as f64 / wall),
            format!("{cycles_per_sec:.0}"),
            format!("{:.0}x", cycles_per_sec / 747.0),
        ]);
    }
    // Sharding extension: slots/s of one saturated dense floor per
    // worker-shard cap (`None` when the floor failed to form).
    let (grid, per_point) = ((4, 2), 2);
    let devices = 2 * per_point * grid.0 * grid.1;
    let shard_speeds: Vec<(usize, Option<f64>)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| {
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
            let mut sim = scenario.build(opts.base_seed);
            let Ok(map) = scenario.prepare(&mut sim) else {
                return (shards, None);
            };
            let mut windows = 0;
            let wall = median_unit_secs(|| {
                // `prepare` queued the first window's data; each later
                // window gets its own before its timer starts.
                if windows > 0 {
                    scenario.saturate(&mut sim, &map);
                }
                windows += 1;
                let end = sim.now() + SimDuration::from_slots(measure);
                let started = Instant::now();
                sim.run_until(end);
                started.elapsed().as_secs_f64()
            });
            (shards, Some(measure as f64 / wall))
        })
        .collect();
    let base = shard_speeds[0].1.filter(|&s| s > 0.0);
    let mut shard_table = Table::new(["shards", "devices", "slots / s", "vs 1 shard"]);
    for (shards, speed) in shard_speeds {
        shard_table.row(match speed {
            Some(s) => [
                shards.to_string(),
                devices.to_string(),
                format!("{s:.0}"),
                base.map_or("-".into(), |b| format!("{:.2}x", s / b)),
            ],
            None => [
                shards.to_string(),
                devices.to_string(),
                "formation failed".into(),
                "-".into(),
            ],
        });
    }
    Ok(
        ExpReport::new("Scat-C — multi-piconet simulation speed (Table 1 extension)")
            .note("(paper: 747 clock cycles per wall second for one 4-device piconet)")
            .table(t)
            .note(format!(
                "(sharding: a {devices}-device dense spatial floor at increasing --shards caps; \
                 results are bit-identical across rows)"
            ))
            .table(shard_table),
    )
}

// ---------------------------------------------------------------------------
// Observability: the capture forensics scan (`docs/OBSERVABILITY.md`).

/// **Capture** — records a jam-heavy `AfhAdaptScenario` realisation
/// (full-duty `wlan(40, 1.0)`, AFH policy off) into a btsnoop capture,
/// then *replays the serialized file through the in-repo reader* and
/// reports per-channel transmission/collision/jam forensics (channels
/// with traffic only, ascending) from the parsed records alone.
/// Exercises the whole capture path — sink, taps, serializer, reader —
/// and is deterministic for a fixed base seed.
fn capture_scan(opts: &ExpOptions) -> Result<ExpReport, String> {
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
    // Per channel: (transmissions, collided, jammed).
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
    let mut t = Table::new(["RF channel", "tx", "collided", "jammed", "jam rate"]);
    for (channel, (tx, collided, jammed)) in per {
        t.row([
            channel.to_string(),
            tx.to_string(),
            collided.to_string(),
            jammed.to_string(),
            format!("{:.0}%", jammed as f64 / tx.max(1) as f64 * 100.0),
        ]);
    }
    Ok(
        ExpReport::new(
            "Capture — per-channel jam/collision forensics replayed from a btsnoop file",
        )
        .note(
            "(jam-heavy setup: full-duty wlan(40, 1.0), AFH off — the interferer band soaks hits)",
        )
        .note(format!(
            "({air} air records and {lmp} LMP records parsed back by the in-repo btsnoop reader)"
        ))
        .table(t)
        .binary_artifact("capture_scan.btsnoop", btsnoop),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_window_saturates_at_its_cap_for_any_run_count() {
        // 40,000 slots per requested run overflows u64 at this count.
        let result = duty_sweep(&ExpOptions {
            runs: usize::MAX,
            ..ExpOptions::quick()
        });
        assert!(result.points.iter().all(|p| p.outcomes.len() == 1));
    }

    #[test]
    fn scat_collisions_respects_piconet_override() {
        let opts = ExpOptions {
            runs: 2,
            piconets: Some(2),
            ..ExpOptions::quick()
        };
        let report = scat_collisions(&opts).unwrap();
        let rows = report.tables[0].rows();
        assert_eq!(rows.len(), 1, "--piconets collapses the sweep");
        assert_eq!(rows[0][0], "2");
        let result = collision_sweep(&opts);
        assert_eq!(result.points.len(), 1);
        assert!(
            result.points[0].metric("collision_rate").mean() > 0.0,
            "two piconets must collide"
        );
        let analytic = analytic_collision_rate(2);
        assert!(
            (analytic - 0.025).abs() < 0.005,
            "analytic anchor {analytic}"
        );
        assert_eq!(rows[0][3], format!("{:.2}%", analytic * 100.0));
    }

    #[test]
    fn scat_bridge_duty_override_delivers() {
        let opts = ExpOptions {
            runs: 1,
            piconets: Some(2),
            bridge_duty: Some(0.5),
            ..ExpOptions::quick()
        };
        let report = scat_bridge(&opts).unwrap();
        assert!(
            report.title.contains("(2-piconet chain)"),
            "{}",
            report.title
        );
        assert_eq!(
            report.tables[0].len(),
            1,
            "--bridge-duty collapses the sweep"
        );
        let result = bridge_sweep(&opts, 2, &[0.5]).unwrap();
        let p = &result.points[0];
        assert!(
            p.metric("delivered").mean() > 0.5,
            "balanced duty delivers: {:?}",
            p.outcomes
        );
        assert!(p.metric("latency_slots").mean() > 0.0);
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
