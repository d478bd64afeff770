//! The experiment registry: every paper figure and extension experiment
//! as a named, self-describing entry.
//!
//! A registry entry bundles a stable name, a one-line description and a
//! runner producing a uniform [`ExpReport`] (title, notes, tables, text
//! blocks, file artifacts). The `experiments` multiplexer binary in
//! `btsim-bench` runs any subset by name. Adding an experiment means a
//! scenario, one function `fn(&ExpOptions) -> Result<ExpReport, String>`
//! that runs its campaign and renders the report, and one line here
//! naming that function as the runner: no result struct, no wrapper,
//! no new binary.

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
        runner: fig5_creation_waveforms,
    },
    Experiment {
        name: "fig6_inquiry_vs_ber",
        description: "Fig. 6 — mean slots to complete the inquiry phase vs BER",
        runner: fig6_inquiry_vs_ber,
    },
    Experiment {
        name: "fig7_page_vs_ber",
        description: "Fig. 7 — mean slots to complete the page phase vs BER",
        runner: fig7_page_vs_ber,
    },
    Experiment {
        name: "fig8_creation_failure",
        description: "Fig. 8 — failure probability of inquiry/page with the 1.28 s timeout",
        runner: fig8_creation_failure,
    },
    Experiment {
        name: "fig9_sniff_waveform",
        description: "Fig. 9 — waveforms with two slaves in sniff mode",
        runner: fig9_sniff_waveforms,
    },
    Experiment {
        name: "fig10_master_rf",
        description: "Fig. 10 — master RF activity vs channel duty cycle",
        runner: fig10_master_activity,
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
        runner: table1_sim_speed,
    },
    Experiment {
        name: "ext_packet_throughput",
        description: "Ext-A — ACL goodput per packet type vs BER",
        runner: ext_packet_throughput,
    },
    Experiment {
        name: "ext_coexistence",
        description: "Ext-B — piconet creation next to a busy piconet",
        runner: ext_coexistence,
    },
    Experiment {
        name: "ext_sco",
        description: "Ext-C — SCO voice links: HV1/HV2/HV3 cost and delivery",
        runner: ext_sco,
    },
    Experiment {
        name: "ext_park",
        description: "Ext-D — parked slave RF activity vs beacon interval",
        runner: |o| Ok(run_ext_park(o)),
    },
    Experiment {
        name: "ext_inquiry_distribution",
        description: "Ext-E — distribution of inquiry completion times",
        runner: ext_inquiry_distribution,
    },
    Experiment {
        name: "ext_wlan",
        description: "Ext-F — coexistence with an 802.11 WLAN, with and without AFH",
        runner: ext_wlan_coexistence,
    },
    Experiment {
        name: "afh_adapt",
        description: "AFH — goodput recovery and map convergence against an 802.11 interferer",
        runner: afh_adapt,
    },
    Experiment {
        name: "ext_ablation",
        description: "Ablation — why paper_config() uses a raw page FHS and the R1 scan window",
        runner: ext_calibration_ablation,
    },
    Experiment {
        name: "scat_collisions",
        description: "Scat-A — inter-piconet collision rate vs piconet count (vs analytic 1/79)",
        runner: scat_collisions,
    },
    Experiment {
        name: "scat_bridge",
        description: "Scat-B — bridge duty cycle vs end-to-end relay latency across a chain",
        runner: scat_bridge,
    },
    Experiment {
        name: "scat_speed",
        description: "Scat-C — multi-piconet simulation speed (Table 1 extension)",
        runner: scat_speed,
    },
    Experiment {
        name: "dense_floor",
        description: "Spatial — dense-floor collision rate vs density (vs one-cluster analytic)",
        runner: dense_floor,
    },
    Experiment {
        name: "capture_scan",
        description: "Capture — per-channel jam/collision forensics replayed from a btsnoop file",
        runner: capture_scan,
    },
    Experiment {
        name: "fault_recovery",
        description: "Fault-R — bridge death: self-healing re-formation vs the no-recovery floor",
        runner: fault_recovery,
    },
    Experiment {
        name: "fault_churn",
        description: "Fault-C — delivery under seeded device churn with supervised re-paging",
        runner: fault_churn,
    },
    Experiment {
        name: "fault_degrade_heal",
        description: "Fault-D — goodput dip and recovery across a BER degrade/heal window",
        runner: fault_degrade_heal,
    },
];

// The mode sweeps keep a typed result because the benchmark imports it,
// so their entries render it here.

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

fn run_ext_park(opts: &ExpOptions) -> ExpReport {
    let f = ext_park_activity(opts);
    ExpReport::new("Ext-D — parked slave RF activity vs beacon interval")
        .note(format!(
            "(park beats every other mode; active floor {:.2}%)",
            f.active_activity * 100.0
        ))
        .table(f.table())
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
