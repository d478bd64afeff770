//! The experiment registry: every paper figure and extension experiment
//! as a named, self-describing entry.
//!
//! A registry entry bundles a stable name, a one-line description and a
//! runner producing a uniform [`ExpReport`] (title, notes, tables, text
//! blocks, file artifacts). The `experiments` multiplexer binary in
//! `btsim-bench` runs any subset by name — adding a new experiment
//! means adding a scenario, a result struct and one entry here, not a
//! new binary.

use std::fmt;

use btsim_stats::{JsonValue, Table};

use super::*;

/// A uniform, printable experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpReport {
    /// Headline (what the experiment reproduces).
    pub title: String,
    /// Context lines printed under the title (paper anchors, caveats).
    pub notes: Vec<String>,
    /// Result tables, printed as aligned text and CSV.
    pub tables: Vec<Table>,
    /// Free-form text blocks (waveforms, histograms, summaries).
    pub text: Vec<String>,
    /// File artifacts to write next to the output: `(name, content)`.
    pub artifacts: Vec<(String, String)>,
    /// Binary file artifacts (btsnoop captures): `(name, bytes)`.
    pub binary_artifacts: Vec<(String, Vec<u8>)>,
}

impl ExpReport {
    /// Starts a report with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            ..Self::default()
        }
    }

    /// Adds a context note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Adds a result table.
    pub fn table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Adds a free-form text block.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.text.push(text.into());
        self
    }

    /// Adds a file artifact.
    pub fn artifact(mut self, name: impl Into<String>, content: impl Into<String>) -> Self {
        self.artifacts.push((name.into(), content.into()));
        self
    }

    /// Adds a binary file artifact.
    pub fn binary_artifact(mut self, name: impl Into<String>, bytes: Vec<u8>) -> Self {
        self.binary_artifacts.push((name.into(), bytes));
        self
    }

    /// The report as JSON (tables, notes and text blocks; artifact
    /// contents are omitted — only their names are listed).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("title".to_string(), JsonValue::from(self.title.clone())),
            (
                "notes".to_string(),
                JsonValue::Arr(
                    self.notes
                        .iter()
                        .map(|n| JsonValue::from(n.clone()))
                        .collect(),
                ),
            ),
            (
                "tables".to_string(),
                JsonValue::Arr(self.tables.iter().map(Table::to_json).collect()),
            ),
            (
                "text".to_string(),
                JsonValue::Arr(
                    self.text
                        .iter()
                        .map(|t| JsonValue::from(t.clone()))
                        .collect(),
                ),
            ),
            (
                "artifacts".to_string(),
                JsonValue::Arr(
                    self.artifacts
                        .iter()
                        .map(|(n, _)| JsonValue::from(n.clone()))
                        .chain(
                            self.binary_artifacts
                                .iter()
                                .map(|(n, _)| JsonValue::from(n.clone())),
                        )
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for ExpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for n in &self.notes {
            writeln!(f, "{n}")?;
        }
        for t in &self.tables {
            writeln!(f)?;
            writeln!(f, "{t}")?;
            writeln!(f, "{}", t.to_csv())?;
        }
        for block in &self.text {
            writeln!(f)?;
            writeln!(f, "{block}")?;
        }
        Ok(())
    }
}

/// A named, runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable CLI name (also the historical binary name).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    runner: fn(&ExpOptions) -> Result<ExpReport, String>,
}

impl Experiment {
    /// Runs the experiment with the given campaign options.
    ///
    /// Most experiments cannot fail; the fallible ones are those that
    /// honour [`ExpOptions::snapshot`] / [`ExpOptions::resume`], which
    /// reject unreadable, malformed or mismatched snapshot files with a
    /// descriptive message instead of panicking.
    pub fn run(&self, opts: &ExpOptions) -> Result<ExpReport, String> {
        (self.runner)(opts)
    }
}

/// All registered experiments, in the paper's presentation order.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Finds an experiment by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

static REGISTRY: [Experiment; 25] = [
    Experiment {
        name: "fig5_waveform",
        description: "Fig. 5 — piconet-creation waveforms (enable_tx_RF / enable_rx_RF)",
        runner: |o| Ok(run_fig5(o)),
    },
    Experiment {
        name: "fig6_inquiry_vs_ber",
        description: "Fig. 6 — mean slots to complete the inquiry phase vs BER",
        runner: |o| Ok(run_fig6(o)),
    },
    Experiment {
        name: "fig7_page_vs_ber",
        description: "Fig. 7 — mean slots to complete the page phase vs BER",
        runner: |o| Ok(run_fig7(o)),
    },
    Experiment {
        name: "fig8_creation_failure",
        description: "Fig. 8 — failure probability of inquiry/page with the 1.28 s timeout",
        runner: |o| Ok(run_fig8(o)),
    },
    Experiment {
        name: "fig9_sniff_waveform",
        description: "Fig. 9 — waveforms with two slaves in sniff mode",
        runner: |o| Ok(run_fig9(o)),
    },
    Experiment {
        name: "fig10_master_rf",
        description: "Fig. 10 — master RF activity vs channel duty cycle",
        runner: |o| Ok(run_fig10(o)),
    },
    Experiment {
        name: "fig11_sniff_activity",
        description: "Fig. 11 — slave RF activity vs Tsniff",
        runner: |o| Ok(run_fig11(o)),
    },
    Experiment {
        name: "fig12_hold_activity",
        description: "Fig. 12 — slave RF activity vs Thold",
        runner: |o| Ok(run_fig12(o)),
    },
    Experiment {
        name: "table1_sim_speed",
        description: "Table 1 — simulation speed vs the paper's 747 clock cycles/s",
        runner: |o| Ok(run_table1(o)),
    },
    Experiment {
        name: "ext_packet_throughput",
        description: "Ext-A — ACL goodput per packet type vs BER",
        runner: |o| Ok(run_ext_throughput(o)),
    },
    Experiment {
        name: "ext_coexistence",
        description: "Ext-B — piconet creation next to a busy piconet",
        runner: |o| Ok(run_ext_coexistence(o)),
    },
    Experiment {
        name: "ext_sco",
        description: "Ext-C — SCO voice links: HV1/HV2/HV3 cost and delivery",
        runner: |o| Ok(run_ext_sco(o)),
    },
    Experiment {
        name: "ext_park",
        description: "Ext-D — parked slave RF activity vs beacon interval",
        runner: |o| Ok(run_ext_park(o)),
    },
    Experiment {
        name: "ext_inquiry_distribution",
        description: "Ext-E — distribution of inquiry completion times",
        runner: |o| Ok(run_ext_inquiry_distribution(o)),
    },
    Experiment {
        name: "ext_wlan",
        description: "Ext-F — coexistence with an 802.11 WLAN, with and without AFH",
        runner: |o| Ok(run_ext_wlan(o)),
    },
    Experiment {
        name: "afh_adapt",
        description: "AFH — goodput recovery and map convergence against an 802.11 interferer",
        runner: |o| Ok(run_afh_adapt(o)),
    },
    Experiment {
        name: "ext_ablation",
        description: "Ablation — why paper_config() uses a raw page FHS and the R1 scan window",
        runner: |o| Ok(run_ext_ablation(o)),
    },
    Experiment {
        name: "scat_collisions",
        description: "Scat-A — inter-piconet collision rate vs piconet count (vs analytic 1/79)",
        runner: |o| Ok(run_scat_collisions(o)),
    },
    Experiment {
        name: "scat_bridge",
        description: "Scat-B — bridge duty cycle vs end-to-end relay latency across a chain",
        runner: run_scat_bridge,
    },
    Experiment {
        name: "scat_speed",
        description: "Scat-C — multi-piconet simulation speed (Table 1 extension)",
        runner: |o| {
            check_floor_cell_size(o)?;
            Ok(run_scat_speed(o))
        },
    },
    Experiment {
        name: "dense_floor",
        description: "Spatial — dense-floor collision rate vs density (vs one-cluster analytic)",
        runner: |o| {
            check_floor_cell_size(o)?;
            Ok(run_dense_floor(o))
        },
    },
    Experiment {
        name: "capture_scan",
        description: "Capture — per-channel jam/collision forensics replayed from a btsnoop file",
        runner: |o| Ok(run_capture_scan(o)),
    },
    Experiment {
        name: "fault_recovery",
        description: "Fault-R — bridge death: self-healing re-formation vs the no-recovery floor",
        runner: run_fault_recovery,
    },
    Experiment {
        name: "fault_churn",
        description: "Fault-C — delivery under seeded device churn with supervised re-paging",
        runner: run_fault_churn,
    },
    Experiment {
        name: "fault_degrade_heal",
        description: "Fault-D — goodput dip and recovery across a BER degrade/heal window",
        runner: run_fault_degrade_heal,
    },
];

fn run_fig5(opts: &ExpOptions) -> ExpReport {
    let w = fig5_creation_waveforms(opts.base_seed, opts.engine);
    ExpReport::new("Fig. 5 — piconet creation waveforms (enable_tx_RF / enable_rx_RF)")
        .note(w.notes.clone())
        .text(w.ascii)
        .artifact("fig5.vcd", w.vcd)
}

fn run_fig6(opts: &ExpOptions) -> ExpReport {
    let f = fig6_inquiry_vs_ber(opts);
    ExpReport::new("Fig. 6 — mean time slots to complete the INQUIRY phase vs BER")
        .note("(paper anchors: 1556 TS with no noise, ≈1800 TS at BER 1/30)")
        .table(f.table())
}

fn run_fig7(opts: &ExpOptions) -> ExpReport {
    let f = fig7_page_vs_ber(opts);
    ExpReport::new("Fig. 7 — mean time slots to complete the PAGE phase vs BER")
        .note("(paper anchors: ≈17 TS with no noise; impossible for BER > 1/30)")
        .table(f.table())
}

fn run_fig8(opts: &ExpOptions) -> ExpReport {
    let f = fig8_creation_failure(opts);
    ExpReport::new("Fig. 8 — failure probability of inquiry / page with the 1.28 s timeout")
        .note("(paper: page success very low for BER > 1/50; page is the bottleneck)")
        .table(f.table())
}

fn run_fig9(opts: &ExpOptions) -> ExpReport {
    let w = fig9_sniff_waveforms(opts.base_seed, opts.engine);
    ExpReport::new("Fig. 9 — sniff-mode waveforms (slaves 2 and 3 sniffing)")
        .note(w.notes.clone())
        .text(w.ascii)
        .artifact("fig9.vcd", w.vcd)
}

fn run_fig10(opts: &ExpOptions) -> ExpReport {
    let f = fig10_master_activity(opts);
    ExpReport::new("Fig. 10 — RF activity of the master vs channel duty cycle")
        .note("(paper: linear, TX above RX, ≈0.3% TX at 2% duty)")
        .table(f.table())
}

fn run_fig11(opts: &ExpOptions) -> ExpReport {
    let f = fig11_sniff_activity(opts);
    ExpReport::new("Fig. 11 — slave RF activity (TX+RX) vs Tsniff, data every 100 slots")
        .note(format!(
            "(paper: break-even ≈30 slots, ≈30% reduction at Tsniff = 100; measured break-even: {:?})",
            f.break_even()
        ))
        .table(f.table())
}

fn run_fig12(opts: &ExpOptions) -> ExpReport {
    let f = fig12_hold_activity(opts);
    ExpReport::new("Fig. 12 — slave RF activity vs Thold on an idle connection")
        .note(format!(
            "(paper: active floor 2.6%, hold wins above ≈120 slots; measured break-even: {:?})",
            f.break_even()
        ))
        .table(f.table())
}

fn run_table1(opts: &ExpOptions) -> ExpReport {
    let s = table1_sim_speed(opts.base_seed, opts.engine);
    ExpReport::new("Table 1 — simulation speed of the piconet-creation scenario")
        .note("(paper: 0.48 s simulated in 10'47'', i.e. 747 clock cycles per wall second)")
        .table(s.table())
}

fn run_ext_throughput(opts: &ExpOptions) -> ExpReport {
    let f = ext_packet_throughput(opts);
    ExpReport::new("Ext-A — ACL goodput per packet type vs BER")
        .note("(FEC-protected DM types overtake larger DH types as noise grows)")
        .table(f.table())
}

fn run_ext_coexistence(opts: &ExpOptions) -> ExpReport {
    let mut opts = opts.clone();
    if opts.runs > 40 {
        opts.runs = 40; // four devices per run: keep the campaign bounded
    }
    let f = ext_coexistence(&opts);
    ExpReport::new("Ext-B — creation of piconet B while piconet A saturates the band")
        .table(f.table())
}

fn run_ext_sco(opts: &ExpOptions) -> ExpReport {
    let f = ext_sco(opts);
    ExpReport::new("Ext-C — SCO voice links: HV1 (max FEC, every pair) vs HV3 (no FEC, 1-in-3)")
        .table(f.table())
}

fn run_ext_park(opts: &ExpOptions) -> ExpReport {
    let f = ext_park_activity(opts);
    ExpReport::new("Ext-D — parked slave RF activity vs beacon interval")
        .note(format!(
            "(park beats every other mode; active floor {:.2}%)",
            f.active_activity * 100.0
        ))
        .table(f.table())
}

fn run_ext_inquiry_distribution(opts: &ExpOptions) -> ExpReport {
    let f = ext_inquiry_distribution(opts);
    ExpReport::new("Ext-E — inquiry completion-time distribution (BER 0)")
        .note(f.summary.to_string())
        .text(f.histogram.to_string())
        .note("slots per bin: 256; the paper reports only the mean (1556)")
}

fn run_ext_wlan(opts: &ExpOptions) -> ExpReport {
    let f = ext_wlan_coexistence(opts);
    ExpReport::new("Ext-F — Bluetooth next to an 802.11 WLAN (22 of 79 channels occupied)")
        .note("(hopping caps the exposure at ≈28% of packets; ARQ recovers the rest)")
        .table(f.table())
}

fn run_afh_adapt(opts: &ExpOptions) -> ExpReport {
    let f = afh_adapt(opts);
    let mut report = ExpReport::new(
        "AFH — assessment → LMP map exchange → synchronized hop remapping vs wlan(40, 0.5)",
    )
    .note(
        "(v1.2 adaptive frequency hopping: the in-use map switches at a master-announced instant)",
    )
    .table(f.table())
    .note("(extended CoexistenceScenario: piconet B forms under the WLAN, then transfers)")
    .table(f.coexist_table());
    // Observability toggles run one extra representative realisation at
    // the base seed; the campaign numbers above never see them.
    if opts.capture || opts.metrics_every.is_some() {
        let rep = afh_capture_run(opts);
        report = report.note(format!(
            "(representative run at seed {}: {} capture records, {} dropped)",
            opts.base_seed, rep.records, rep.dropped
        ));
        if opts.capture {
            report = report.binary_artifact("afh_adapt.btsnoop", rep.btsnoop);
        }
        if opts.metrics_every.is_some() {
            report = report.artifact("afh_adapt.metrics.jsonl", rep.metrics);
        }
    }
    report
}

fn run_ext_ablation(opts: &ExpOptions) -> ExpReport {
    let mut opts = opts.clone();
    if opts.runs > 60 {
        opts.runs = 60;
    }
    let f = ext_calibration_ablation(&opts);
    ExpReport::new("Ablation — page failure probability (2048-slot timeout) per knob combination")
        .note("(the paper's Fig. 8 needs ~100% at 1/30 with moderate failure at 1/100)")
        .table(f.table())
}

fn run_scat_collisions(opts: &ExpOptions) -> ExpReport {
    let mut opts = opts.clone();
    // Up to 16 saturated devices per run: keep the campaign bounded.
    opts.runs = opts.runs.min(8);
    let f = scat_collisions(&opts);
    ExpReport::new("Scat-A — inter-piconet collision rate vs piconet count")
        .note("(N saturated piconets share the 79 channels; analytic: 1 − (78/79)^(2(N−1)))")
        .note(
            "(the anchor assumes full-slot air occupancy; DM1 exchanges fill ~60% of each \
             slot, so the measured rate sits at roughly half the anchor with the same shape)",
        )
        .table(f.table())
}

fn run_scat_bridge(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut opts = opts.clone();
    // Chains are the heaviest workload (8+ devices, 10k slots): cap runs.
    opts.runs = opts.runs.min(4);
    let f = scat_bridge(&opts)?;
    let mut report = ExpReport::new(format!(
        "Scat-B — bridge duty cycle vs end-to-end latency ({}-piconet chain)",
        f.piconets
    ))
    .note("(a slave of the first piconet streams to a slave of the last via held bridges)");
    if opts.piconets.is_some_and(|n| n < 2) {
        report = report
            .note("(note: --piconets raised to 2 — a bridged chain needs at least two piconets)");
    }
    Ok(report.table(f.table()))
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

fn run_scat_speed(opts: &ExpOptions) -> ExpReport {
    let f = scat_speed(opts);
    ExpReport::new("Scat-C — multi-piconet simulation speed (Table 1 extension)")
        .note("(paper: 747 clock cycles per wall second for one 4-device piconet)")
        .table(f.table())
        .note(format!(
            "(sharding: a {}-device dense spatial floor at increasing --shards caps; \
             results are bit-identical across rows)",
            f.shard_rows.first().map_or(0, |r| r.devices)
        ))
        .table(f.shard_table())
}

fn run_dense_floor(opts: &ExpOptions) -> ExpReport {
    let f = dense_floor(opts);
    ExpReport::new(format!(
        "Spatial — dense-floor collision rate vs density ({}x{} clusters)",
        f.grid.0, f.grid.1
    ))
    .note(
        "(clusters of co-located saturated piconets spaced beyond radio range: the \
         floor-wide rate anchors to the one-cluster analytic 1 − (78/79)^(2(k−1)))",
    )
    .note(
        "(the anchor assumes full-slot air occupancy; DM1 exchanges fill ~60% of each \
         slot, so the measured rate sits below the anchor with the same shape)",
    )
    .table(f.table())
    .artifact("dense_floor.json", f.json.clone())
}

fn run_capture_scan(opts: &ExpOptions) -> ExpReport {
    let f = capture_scan(opts);
    ExpReport::new("Capture — per-channel jam/collision forensics replayed from a btsnoop file")
        .note(
            "(jam-heavy setup: full-duty wlan(40, 1.0), AFH off — the interferer band soaks hits)",
        )
        .note(format!(
            "({} air records and {} LMP records parsed back by the in-repo btsnoop reader)",
            f.air_records, f.lmp_records
        ))
        .table(f.table())
        .binary_artifact("capture_scan.btsnoop", f.btsnoop)
}

fn run_fault_recovery(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut opts = opts.clone();
    // Two arms of a bridged chain over a ~27k-slot window: cap runs.
    opts.runs = opts.runs.min(8);
    let f = fault_recovery(&opts).map_err(|e| e.to_string())?;
    Ok(
        ExpReport::new(
            "Fault-R — bridge death: self-healing re-formation vs the no-recovery floor",
        )
        .note("(the chain's bridge crashes mid-traffic; the on arm re-forms through a slave)")
        .note(format!(
            "(analytic no-recovery delivery floor: {:.1}% — the pre-crash share of injections)",
            f.analytic_floor * 100.0
        ))
        .table(f.table())
        .artifact("fault_recovery.json", f.json),
    )
}

fn run_fault_churn(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut opts = opts.clone();
    // Three churn rates over a ~30k-slot window each: cap runs.
    opts.runs = opts.runs.min(8);
    let f = fault_churn(&opts).map_err(|e| e.to_string())?;
    Ok(
        ExpReport::new("Fault-C — delivery under seeded device churn with supervised re-paging")
            .note("(slaves crash/revive on a fixed calendar; the supervisor re-pages each revival)")
            .table(f.table()),
    )
}

fn run_fault_degrade_heal(opts: &ExpOptions) -> Result<ExpReport, String> {
    let mut opts = opts.clone();
    opts.runs = opts.runs.min(8);
    let f = fault_degrade_heal(&opts).map_err(|e| e.to_string())?;
    Ok(
        ExpReport::new("Fault-D — goodput dip and recovery across a BER degrade/heal window")
            .note(format!(
                "(overall delivery {:.1}% — ARQ keeps the link alive through the degradation)",
                f.delivered * 100.0
            ))
            .table(f.table()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 25);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        assert!(registry().iter().all(|e| !e.description.is_empty()));
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("fig6_inquiry_vs_ber").is_some());
        assert!(find("nope").is_none());
        // The scatternet, AFH and fault entries are registered.
        for name in [
            "scat_collisions",
            "scat_bridge",
            "scat_speed",
            "dense_floor",
            "afh_adapt",
            "fault_recovery",
            "fault_churn",
            "fault_degrade_heal",
        ] {
            assert!(find(name).is_some(), "{name} missing from the registry");
        }
    }

    #[test]
    fn out_of_range_fault_device_is_an_error_not_a_panic() {
        let opts = ExpOptions {
            runs: 1,
            threads: 1,
            faults: Some(crate::FaultPlan::parse("crash@100:dev=99").unwrap()),
            ..ExpOptions::quick()
        };
        for name in ["fault_recovery", "fault_churn", "fault_degrade_heal"] {
            let err = find(name).unwrap().run(&opts).unwrap_err();
            assert!(
                err.contains("fault plan targets device 99"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn unrepresentable_fault_slot_is_an_error_not_a_wrap() {
        // `--faults` rejects such a slot at parse time; a plan built in
        // code reaches the experiment, which refuses it before any run
        // (the binary then exits 1) instead of wrapping it to slot 0.
        let mut plan = crate::FaultPlan::new();
        plan.push(crate::FaultEvent {
            at_slot: crate::MAX_FAULT_SLOT + 1,
            device: Some(0),
            kind: crate::FaultKind::Crash,
        });
        let opts = ExpOptions {
            runs: 1,
            threads: 1,
            faults: Some(plan),
            ..ExpOptions::quick()
        };
        for name in ["fault_recovery", "fault_churn", "fault_degrade_heal"] {
            let err = find(name).unwrap().run(&opts).unwrap_err();
            assert!(
                err.contains("past the last representable slot"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn report_renders_tables_and_csv() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1".into(), "2".into()]);
        let r = ExpReport::new("Title").note("note").table(t).text("body");
        let s = r.to_string();
        assert!(s.contains("Title"));
        assert!(s.contains("note"));
        assert!(s.contains("a,b"), "CSV included");
        assert!(s.contains("body"));
        assert!(r.to_json().render().contains("\"title\""));
    }
}
