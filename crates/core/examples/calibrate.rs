//! Calibration harness for Figs. 6-8: prints the measured series so the
//! behavioural knobs of `paper_config()` can be tuned against the
//! paper's anchors (see `paper_config()`'s knob list and the
//! `ext_ablation` experiment).

use btsim_core::experiments::*;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let opts = ExpOptions {
        runs: 60,
        threads: 0,
        base_seed: 0xB1005E,
        ..ExpOptions::default()
    };
    if arg.is_empty() || arg == "fig6" {
        let f = fig6_inquiry_vs_ber(&opts);
        println!("FIG6 (inquiry, uncapped):\n{}", f.table());
    }
    if arg.is_empty() || arg == "fig7" {
        let f = fig7_page_vs_ber(&opts);
        println!("FIG7 (page):\n{}", f.table());
    }
    if arg.is_empty() || arg == "fig8" {
        let f = fig8_creation_failure(&opts);
        println!("FIG8 (failure @2048):\n{}", f.table());
    }
}
