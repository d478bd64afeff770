//! Smoke test of the experiment registry: every entry must run
//! end-to-end through its dynamic runner with quick options and produce
//! a non-empty report (table rows, text blocks or artifacts).

use btsim::core::experiments::{registry, ExpOptions, Experiment};

#[test]
fn every_registry_entry_runs_and_reports() {
    let entries: Vec<&Experiment> = registry().iter().collect();
    assert_eq!(entries.len(), 25, "registry should list all experiments");
    let opts = ExpOptions::quick();
    for entry in entries {
        let report = entry.run(&opts).unwrap();
        assert!(!report.title.is_empty(), "{}: empty title", entry.name);
        let rows: usize = report.tables.iter().map(|t| t.len()).sum();
        assert!(
            rows > 0 || !report.text.is_empty(),
            "{}: report has neither table rows nor text",
            entry.name
        );
        for table in &report.tables {
            assert!(!table.is_empty(), "{}: empty table in report", entry.name);
            // Every row renders to CSV with as many cells as headers
            // (Table enforces this on construction; the CSV must carry
            // header + rows).
            assert_eq!(table.to_csv().lines().count(), table.len() + 1);
        }
        // The JSON projection must render for --json consumers.
        let json = report.to_json().render();
        assert!(json.starts_with('{'), "{}: bad JSON", entry.name);
    }
}

#[test]
fn waveform_entries_emit_vcd_artifacts() {
    let opts = ExpOptions::quick();
    for name in ["fig5_waveform", "fig9_sniff_waveform"] {
        let entry = btsim::core::experiments::find(name).expect("registered");
        let report = entry.run(&opts).unwrap();
        assert!(
            report
                .artifacts
                .iter()
                .any(|(n, c)| n.ends_with(".vcd") && c.contains("$enddefinitions")),
            "{name}: missing VCD artifact"
        );
    }
}

#[test]
fn cell_size_below_the_floor_radius_is_a_typed_error() {
    // The dense floor keeps its 10 m interaction radius and only resizes
    // its cells, so a smaller cell is rejected before anything runs.
    let opts = ExpOptions {
        cell_size: Some(0.001),
        ..ExpOptions::quick()
    };
    for name in ["dense_floor", "scat_speed"] {
        let entry = btsim::core::experiments::find(name).expect("registered");
        let err = entry.run(&opts).expect_err("cell size below the radius");
        assert!(
            err.contains("cell size 0.001") && err.contains("interaction radius 10"),
            "{name}: {err}"
        );
    }
}
