//! Calibration harness for Figs. 10-12: prints the measured series so the
//! behavioural knobs of `paper_config()` can be tuned against the
//! paper's anchors (see `paper_config()`'s knob list).

use btsim_core::experiments::*;

fn main() {
    let opts = ExpOptions {
        runs: 1,
        threads: 0,
        base_seed: 0xB1005E,
        ..ExpOptions::default()
    };
    let f10 = fig10_master_activity(&opts);
    println!("FIG10 (master activity vs duty):\n{}", f10.table());
    let f11 = fig11_sniff_activity(&opts);
    println!(
        "FIG11 (sniff): active={:.3}% break_even={:?}\n{}",
        f11.active_activity * 100.0,
        f11.break_even(),
        f11.table()
    );
    let f12 = fig12_hold_activity(&opts);
    println!(
        "FIG12 (hold): active={:.3}% break_even={:?}\n{}",
        f12.active_activity * 100.0,
        f12.break_even(),
        f12.table()
    );
}
