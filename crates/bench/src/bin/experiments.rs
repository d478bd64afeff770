//! The experiment multiplexer: runs any subset of the registry.
//!
//! ```text
//! cargo run --release -p btsim-bench --bin experiments -- --list
//! cargo run --release -p btsim-bench --bin experiments -- all --quick
//! cargo run --release -p btsim-bench --bin experiments -- fig6_inquiry_vs_ber ext_sco \
//!     --runs 100 --json results.json
//! ```
//!
//! `all` expands to every registry entry; `--list` prints the registry
//! with descriptions. New experiments appear here automatically when
//! they are added to `btsim_core::experiments::registry()`.
//!
//! An entry that fails (its experiment returns an error, or one of its
//! outputs cannot be written) is reported on stderr; the remaining
//! entries still run, and the binary then exits 1. Usage errors exit 2.

use std::process::ExitCode;

use btsim_core::experiments::{find, registry};

fn main() -> ExitCode {
    let opts = btsim_bench::parse_cli();
    if opts.list || opts.positional.is_empty() {
        println!("available experiments (run with: experiments <name…|all>):");
        for e in registry() {
            println!("  {:<26} {}", e.name, e.description);
        }
        return ExitCode::SUCCESS;
    }
    // Resolve names before running anything, so a typo fails fast.
    let mut selected = Vec::new();
    for name in &opts.positional {
        if name == "all" {
            selected.extend(registry());
        } else {
            match find(name) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("error: experiment {name:?} is not in the registry (try --list)");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let mut json_out = Vec::new();
    let mut failed = false;
    for (i, entry) in selected.iter().enumerate() {
        if i > 0 {
            println!();
            println!("{}", "=".repeat(72));
            println!();
        }
        println!("[{}/{}] {}", i + 1, selected.len(), entry.name);
        if let Err(e) = btsim_bench::run_entry(entry, &opts, &mut json_out) {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if let Err(e) = btsim_bench::finish_json(&opts, &json_out) {
        eprintln!("error: {e}");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
