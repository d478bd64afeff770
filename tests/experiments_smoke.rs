//! Smoke tests of every paper experiment at reduced sample counts: each
//! must run end-to-end and satisfy its qualitative (shape) assertions.
//! The mode sweeps are read from their typed results; every other figure
//! is read from its registry report, as the `experiments` binary prints
//! it.

use btsim::core::experiments::*;
use btsim::core::Engine;

fn quick(runs: usize) -> ExpOptions {
    ExpOptions {
        runs,
        threads: 0,
        base_seed: 0x00B1_005E,
        ..ExpOptions::default()
    }
}

/// The rows of the first table of registry entry `name` under `opts`.
fn table_rows(name: &str, opts: &ExpOptions) -> Vec<Vec<String>> {
    let report = find(name).expect("registered").run(opts).unwrap();
    report.tables[0].rows().to_vec()
}

/// A rendered number cell as a value: `"1556.0"`, `"12x"`, and a
/// percentage (`"83.3%"`) as a fraction.
fn num(cell: &str) -> f64 {
    let value = |s: &str| -> f64 { s.parse().unwrap_or_else(|_| panic!("number cell {cell:?}")) };
    match cell.strip_suffix('%') {
        Some(pct) => value(pct) / 100.0,
        None => value(cell.trim_end_matches('x')),
    }
}

#[test]
fn fig6_inquiry_sweep_shape() {
    // Columns: BER, mean TS, ci95, completed.
    let rows = table_rows("fig6_inquiry_vs_ber", &quick(10));
    assert_eq!(rows.len(), 9);
    // Noiseless anchor near the paper's 1556 slots.
    let clean = num(&rows[0][1]);
    assert!(
        (1100.0..2100.0).contains(&clean),
        "no-noise inquiry mean {clean}"
    );
    // All runs complete (no timeout in Fig. 6).
    assert!(rows.iter().all(|r| num(&r[3]) > 0.99));
    // The BER 1/30 point is the worst.
    let worst = num(&rows.last().unwrap()[1]);
    assert!(worst >= clean, "mean should not improve with noise");
}

#[test]
fn fig7_page_sweep_shape() {
    // Columns: BER, mean TS, ci95, completed.
    let rows = table_rows("fig7_page_vs_ber", &quick(12));
    // Paper: ≈17 slots with no noise, all runs complete.
    let mean = num(&rows[0][1]);
    assert!((8.0..30.0).contains(&mean), "no-noise page mean {mean}");
    assert!(num(&rows[0][3]) > 0.99);
    // Success collapses with noise; BER 1/30 is essentially impossible.
    let last = num(&rows.last().unwrap()[3]);
    assert!(
        last < 0.25,
        "page at BER 1/30 should almost never complete, got {last}"
    );
}

#[test]
fn fig8_page_is_the_bottleneck() {
    // Columns: BER, inquiry failure, page failure.
    let rows = table_rows("fig8_creation_failure", &quick(12));
    let last = rows.last().unwrap();
    let page_failure = num(&last[2]);
    assert!(page_failure > 0.8, "page failure {page_failure}");
    assert!(
        page_failure > num(&last[1]),
        "page must fail more than inquiry at BER 1/30"
    );
    // Failure grows with BER for the page phase.
    assert!(num(&rows[0][2]) < page_failure);
}

#[test]
fn fig10_linear_tx_above_rx() {
    // Columns: duty cycle, TX activity, RX activity.
    let rows = table_rows("fig10_master_rf", &quick(1));
    assert_eq!(rows.len(), 8);
    for r in &rows {
        assert!(num(&r[1]) > num(&r[2]), "TX above RX at duty {}", r[0]);
    }
    // Roughly linear: activity at 2% ≈ 4× activity at 0.5%.
    let tx = |duty: &str| num(&rows.iter().find(|r| r[0] == duty).expect("swept duty")[1]);
    let ratio = tx("2.00%") / tx("0.50%");
    assert!(
        (3.0..5.0).contains(&ratio),
        "TX should scale ≈linearly with duty, ratio {ratio}"
    );
}

#[test]
fn table1_speed_is_faster_than_2005() {
    // Columns: metric, paper (SystemC, 2005), btsim (Rust).
    let opts = ExpOptions {
        base_seed: 3,
        engine: Engine::Lockstep,
        ..quick(1)
    };
    let rows = table_rows("table1_sim_speed", &opts);
    let speedup = num(&rows
        .iter()
        .find(|r| r[0] == "speedup")
        .expect("speedup row")[2]);
    assert!(speedup > 10.0, "speedup {speedup}");
}

#[test]
fn ext_throughput_dm_beats_dh_under_noise() {
    // Columns: type, BER, goodput kbit/s.
    let rows = table_rows("ext_packet_throughput", &quick(1));
    let kbps = |ptype: &str, ber: &str| {
        num(&rows
            .iter()
            .find(|r| r[0] == ptype && r[1] == ber)
            .expect("swept point")[2])
    };
    // Clean channel: DH5 ahead (no FEC overhead).
    assert!(kbps("Dh5", "0") > kbps("Dm5", "0"));
    // Both degrade with noise.
    assert!(kbps("Dh5", "1/100") < kbps("Dh5", "0"));
}

#[test]
fn fig11_break_even_and_reduction() {
    let f = fig11_sniff_activity(&quick(1));
    // Paper: break-even ≈ 30 slots.
    let be = f.break_even().expect("sniff must win somewhere");
    assert!(
        (20..=50).contains(&be),
        "sniff break-even {be}, paper reports ≈30"
    );
    // Paper: ≈30% reduction at Tsniff = 100.
    let at100 = f.rows.iter().find(|r| r.interval == 100).unwrap();
    let reduction = 1.0 - at100.mode_activity / f.active_activity;
    assert!(
        (0.2..0.45).contains(&reduction),
        "reduction at Tsniff=100 is {reduction:.2}, paper ≈0.30"
    );
    // Monotone decreasing activity with Tsniff.
    for w in f.rows.windows(2) {
        assert!(w[0].mode_activity >= w[1].mode_activity);
    }
}

#[test]
fn fig12_break_even_and_floor() {
    let f = fig12_hold_activity(&quick(1));
    // Paper: the active floor is ≈2.6%.
    assert!(
        (0.018..0.034).contains(&f.active_activity),
        "active floor {}",
        f.active_activity
    );
    // Paper: hold wins only above ≈120 slots.
    let be = f.break_even().expect("hold must win somewhere");
    assert!(
        (80..=160).contains(&be),
        "hold break-even {be}, paper reports ≈120"
    );
    // Hold activity decays towards zero.
    let last = f.rows.last().unwrap();
    assert!(last.mode_activity < 0.01);
}

/// The waveform entry `name` at seed 1 under `engine`: its note, its
/// terminal rendering and its VCD artifact.
fn waveform(name: &str, engine: Engine) -> (String, String, String) {
    let opts = ExpOptions {
        base_seed: 1,
        engine,
        ..quick(1)
    };
    let report = find(name).expect("registered").run(&opts).unwrap();
    let vcd = report
        .artifacts
        .iter()
        .find(|(n, _)| n.ends_with(".vcd"))
        .map(|(_, c)| c.clone())
        .expect("VCD artifact");
    (report.notes.join("\n"), report.text.concat(), vcd)
}

#[test]
fn fig5_waveform_shows_every_slave_joining() {
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        let (notes, ascii, vcd) = waveform("fig5_waveform", engine);
        assert!(ascii.contains("slave3.enable_rx_RF"), "{engine:?}");
        assert!(vcd.contains("$var wire 1"), "{engine:?}");
        assert!(
            notes.contains("piconet formed: true"),
            "{engine:?}: {notes}"
        );
    }
}

#[test]
fn fig9_waveform_shows_sniffing_slaves_idle() {
    for engine in [Engine::Lockstep, Engine::EventDriven] {
        let (_, ascii, _) = waveform("fig9_sniff_waveform", engine);
        assert!(ascii.contains("slave2.enable_rx_RF"), "{engine:?}");
        // Sniffing slaves are mostly silent: their waveform rows contain
        // long low stretches.
        let sniff_row = ascii
            .lines()
            .find(|l| l.contains("slave3.enable_rx_RF"))
            .expect("slave3 row");
        let lows = sniff_row.chars().filter(|&c| c == '_').count();
        let highs = sniff_row.chars().filter(|&c| c == '#').count();
        assert!(
            lows > highs,
            "{engine:?}: a sniffing slave should be mostly RF-idle: {sniff_row}"
        );
    }
}
