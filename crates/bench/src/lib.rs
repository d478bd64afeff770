//! # btsim-bench
//!
//! Experiment binaries and performance benches for the `btsim` DATE'05
//! reproduction. Every experiment lives in the
//! [`btsim_core::experiments::registry`], and the `experiments` binary
//! multiplexes the whole registry (`experiments <name…|all>`,
//! `experiments --list`).
//!
//! Binaries accept `--quick` (reduced campaign), `--runs N`, `--seed S`,
//! `--threads T` and `--json PATH` (dump the report as JSON). Malformed
//! or unknown options are rejected with an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btsim_core::experiments::{ExpOptions, Experiment};
use btsim_stats::JsonValue;

/// Parsed command line of an experiment binary.
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// Campaign sizing.
    pub exp: ExpOptions,
    /// Where to dump the report(s) as JSON, if requested.
    pub json: Option<String>,
    /// `--capture PATH` was given: the experiment's btsnoop artifact is
    /// written to this path (and `exp.capture` is set).
    pub capture: Option<String>,
    /// `--list` was given (print the registry instead of running).
    pub list: bool,
    /// Positional arguments (experiment names for the multiplexer).
    pub positional: Vec<String>,
}

/// Parses an argument list (without the program name).
///
/// `--quick` swaps in [`ExpOptions::quick`] (it composes with later
/// `--runs`/`--seed`/`--threads` overrides); malformed or missing values
/// and unknown `--flags` are errors. Positional arguments are collected
/// for the caller.
///
/// # Examples
///
/// ```
/// let opts = btsim_bench::parse_args(&["--quick".into(), "--runs".into(), "7".into()]).unwrap();
/// assert_eq!(opts.exp.runs, 7);
/// assert!(btsim_bench::parse_args(&["--runs".into(), "many".into()]).is_err());
/// ```
pub fn parse_args(args: &[String]) -> Result<BenchOptions, String> {
    let mut opts = BenchOptions::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg {
            "--quick" => opts.exp = ExpOptions::quick(),
            "--runs" => {
                let v = value("--runs")?;
                opts.exp.runs = v
                    .parse()
                    .map_err(|_| format!("invalid --runs value: {v:?} (expected a count)"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.exp.base_seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value: {v:?} (expected a u64)"))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                opts.exp.threads = v.parse().map_err(|_| {
                    format!("invalid --threads value: {v:?} (expected a count, 0 = auto)")
                })?;
            }
            "--piconets" => {
                let v = value("--piconets")?;
                let n: usize = v.parse().map_err(|_| {
                    format!("invalid --piconets value: {v:?} (expected a count ≥ 1)")
                })?;
                if n == 0 {
                    return Err("invalid --piconets value: 0 (expected a count ≥ 1)".into());
                }
                opts.exp.piconets = Some(n);
            }
            "--bridge-duty" => {
                let v = value("--bridge-duty")?;
                let d: f64 = v.parse().map_err(|_| {
                    format!("invalid --bridge-duty value: {v:?} (expected a fraction in (0, 1))")
                })?;
                if !(d > 0.0 && d < 1.0) {
                    return Err(format!(
                        "invalid --bridge-duty value: {v:?} (expected a fraction in (0, 1))"
                    ));
                }
                opts.exp.bridge_duty = Some(d);
            }
            "--engine" => {
                let v = value("--engine")?;
                opts.exp.engine = btsim_core::Engine::from_name(&v).ok_or_else(|| {
                    format!("invalid --engine value: {v:?} (expected lockstep or event)")
                })?;
            }
            "--fidelity" => {
                let v = value("--fidelity")?;
                opts.exp.fidelity = btsim_core::Fidelity::from_name(&v).ok_or_else(|| {
                    format!("invalid --fidelity value: {v:?} (expected bit, stat or auto)")
                })?;
            }
            "--capture" => {
                let v = value("--capture")?;
                if v.is_empty() || v.starts_with('-') {
                    return Err(format!(
                        "invalid --capture value: {v:?} (expected an output path)"
                    ));
                }
                opts.exp.capture = true;
                opts.capture = Some(v);
            }
            "--metrics-every" => {
                let v = value("--metrics-every")?;
                let n: u64 = v.parse().map_err(|_| {
                    format!("invalid --metrics-every value: {v:?} (expected a slot count ≥ 1)")
                })?;
                if n == 0 {
                    return Err(
                        "invalid --metrics-every value: 0 (expected a slot count ≥ 1)".into(),
                    );
                }
                opts.exp.metrics_every = Some(n);
            }
            "--cell-size" => {
                let v = value("--cell-size")?;
                let c: f64 = v.parse().map_err(|_| {
                    format!("invalid --cell-size value: {v:?} (expected metres > 0)")
                })?;
                if !(c > 0.0 && c.is_finite()) {
                    return Err(format!(
                        "invalid --cell-size value: {v:?} (expected metres > 0)"
                    ));
                }
                opts.exp.cell_size = Some(c);
            }
            "--shards" => {
                let v = value("--shards")?;
                let n: usize = v.parse().map_err(|_| {
                    format!("invalid --shards value: {v:?} (expected a worker count ≥ 1)")
                })?;
                if n == 0 {
                    return Err("invalid --shards value: 0 (expected a worker count ≥ 1)".into());
                }
                opts.exp.shards = Some(n);
            }
            "--snapshot" => {
                let v = value("--snapshot")?;
                if v.is_empty() || v.starts_with('-') {
                    return Err(format!(
                        "invalid --snapshot value: {v:?} (expected an output path)"
                    ));
                }
                opts.exp.snapshot = Some(v);
            }
            "--resume" => {
                let v = value("--resume")?;
                if v.is_empty() || v.starts_with('-') {
                    return Err(format!(
                        "invalid --resume value: {v:?} (expected a snapshot file path)"
                    ));
                }
                opts.exp.resume = Some(v);
            }
            "--faults" => {
                let v = value("--faults")?;
                let plan = btsim_core::FaultPlan::parse(&v)
                    .map_err(|e| format!("invalid --faults value: {e}"))?;
                opts.exp.faults = Some(plan);
            }
            "--json" => opts.json = Some(value("--json")?),
            "--list" => opts.list = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option: {flag}"));
            }
            positional => opts.positional.push(positional.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

/// Parses [`std::env::args`], exiting with a usage error on bad input.
pub fn parse_cli() -> BenchOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: [--quick] [--runs N] [--seed S] [--threads T] [--piconets N] \
                 [--bridge-duty F] [--engine lockstep|event] [--fidelity bit|stat|auto] \
                 [--cell-size M] [--shards N] [--capture PATH] [--metrics-every N] \
                 [--snapshot PATH] [--resume PATH] [--faults SPEC] [--json PATH] [NAME…]"
            );
            std::process::exit(2);
        }
    }
}

/// Parses common CLI options, ignoring positionals (compatibility entry
/// point for callers that only need [`ExpOptions`]).
pub fn parse_options() -> ExpOptions {
    parse_cli().exp
}

/// Builds a connected master + slave pair on a clean channel under the
/// given engine — the shared setup of the engine perf benches
/// (`bench_engine`, the `engine_fast_forward` criterion group).
/// Returns the simulator and the slave's LT_ADDR.
pub fn connected_pair(seed: u64, engine: btsim_core::Engine) -> (btsim_core::Simulator, u8) {
    connected_pair_at(seed, engine, btsim_core::Fidelity::Bit)
}

/// [`connected_pair`] with an explicit PHY fidelity tier, for the
/// `bench_hotpath` bit-vs-stat rows.
pub fn connected_pair_at(
    seed: u64,
    engine: btsim_core::Engine,
    fidelity: btsim_core::Fidelity,
) -> (btsim_core::Simulator, u8) {
    pair_with(seed, engine, fidelity, false)
}

/// [`connected_pair_at`] with the packet-capture tap enabled — the
/// capture-on side of the `bench_hotpath` overhead rows. Capture pins
/// the PHY at bit level, so there is no fidelity parameter.
pub fn captured_pair(seed: u64, engine: btsim_core::Engine) -> (btsim_core::Simulator, u8) {
    pair_with(seed, engine, btsim_core::Fidelity::Bit, true)
}

fn pair_with(
    seed: u64,
    engine: btsim_core::Engine,
    fidelity: btsim_core::Fidelity,
    capture: bool,
) -> (btsim_core::Simulator, u8) {
    use btsim_core::scenario::{connect_pair, paper_config};
    use btsim_kernel::SimTime;
    let mut cfg = paper_config();
    cfg.engine = engine;
    cfg.fidelity = fidelity;
    cfg.capture = capture;
    let mut b = btsim_core::SimBuilder::new(seed, cfg);
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).expect("pair connects");
    (sim, lt)
}

/// Writes `content` to `name` in the working directory, reporting the
/// path on stdout (used for VCD waveforms and JSON dumps).
pub fn write_artifact(name: &str, content: &str) {
    match std::fs::write(name, content) {
        Ok(()) => println!("wrote {name}"),
        Err(e) => eprintln!("could not write {name}: {e}"),
    }
}

/// [`write_artifact`] for binary content (btsnoop captures).
pub fn write_binary_artifact(name: &str, bytes: &[u8]) {
    match std::fs::write(name, bytes) {
        Ok(()) => println!("wrote {name} ({} bytes)", bytes.len()),
        Err(e) => eprintln!("could not write {name}: {e}"),
    }
}

/// Runs one registry experiment with the given options: prints the
/// report, writes its artifacts (with `--capture PATH` redirecting
/// `.btsnoop` artifacts to that path), and appends its JSON to
/// `json_out` when requested.
///
/// Returns the experiment's error — an unreadable, malformed or
/// mismatched `--resume` snapshot file, for example — for the caller
/// to report and turn into a nonzero exit.
pub fn run_entry(
    entry: &Experiment,
    opts: &BenchOptions,
    json_out: &mut Vec<JsonValue>,
) -> Result<(), String> {
    let report = entry.run(&opts.exp)?;
    print!("{report}");
    for (name, content) in &report.artifacts {
        write_artifact(name, content);
    }
    for (name, bytes) in &report.binary_artifacts {
        let dest = match &opts.capture {
            Some(path) if name.ends_with(".btsnoop") => path.as_str(),
            _ => name.as_str(),
        };
        write_binary_artifact(dest, bytes);
    }
    if opts.json.is_some() {
        json_out.push(JsonValue::Obj(vec![
            ("name".to_string(), JsonValue::from(entry.name)),
            ("report".to_string(), report.to_json()),
        ]));
    }
    Ok(())
}

/// Writes the collected JSON reports if `--json` was given.
pub fn finish_json(opts: &BenchOptions, json_out: &[JsonValue]) {
    if let Some(path) = &opts.json {
        let doc = JsonValue::Arr(json_out.to_vec());
        write_artifact(path, &format!("{}\n", doc.render()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_options_parse() {
        let opts = parse_args(&[]).unwrap();
        assert!(opts.exp.runs > 0);
        assert!(opts.json.is_none());
        assert!(opts.positional.is_empty());
    }

    #[test]
    fn quick_composes_with_overrides() {
        let opts = parse_args(&argv(&["--quick", "--runs", "3", "--seed", "9"])).unwrap();
        assert_eq!(opts.exp.runs, 3);
        assert_eq!(opts.exp.base_seed, 9);
        assert_eq!(opts.exp.threads, ExpOptions::quick().threads);
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse_args(&argv(&["--runs", "many"])).is_err());
        assert!(parse_args(&argv(&["--runs", "-4"])).is_err());
        assert!(parse_args(&argv(&["--seed", "0x10"])).is_err());
        assert!(parse_args(&argv(&["--threads", "two"])).is_err());
        assert!(parse_args(&argv(&["--runs"])).is_err(), "missing value");
        assert!(
            parse_args(&argv(&["--frobnicate"])).is_err(),
            "unknown flag"
        );
    }

    #[test]
    fn scatternet_flags_parse_strictly() {
        let opts = parse_args(&argv(&["--piconets", "4", "--bridge-duty", "0.35"])).unwrap();
        assert_eq!(opts.exp.piconets, Some(4));
        assert_eq!(opts.exp.bridge_duty, Some(0.35));
        // Defaults leave the sweeps untouched.
        let plain = parse_args(&[]).unwrap();
        assert_eq!(plain.exp.piconets, None);
        assert_eq!(plain.exp.bridge_duty, None);
        // Malformed or out-of-range values are rejected.
        assert!(parse_args(&argv(&["--piconets", "lots"])).is_err());
        assert!(parse_args(&argv(&["--piconets", "0"])).is_err());
        assert!(parse_args(&argv(&["--piconets", "-2"])).is_err());
        assert!(parse_args(&argv(&["--piconets"])).is_err(), "missing value");
        assert!(parse_args(&argv(&["--bridge-duty", "half"])).is_err());
        assert!(parse_args(&argv(&["--bridge-duty", "0"])).is_err());
        assert!(parse_args(&argv(&["--bridge-duty", "1"])).is_err());
        assert!(parse_args(&argv(&["--bridge-duty", "1.5"])).is_err());
        assert!(parse_args(&argv(&["--bridge-duty", "NaN"])).is_err());
        assert!(
            parse_args(&argv(&["--bridge-duty"])).is_err(),
            "missing value"
        );
    }

    #[test]
    fn engine_flag_parses_strictly() {
        use btsim_core::Engine;
        assert_eq!(parse_args(&[]).unwrap().exp.engine, Engine::Lockstep);
        let opts = parse_args(&argv(&["--engine", "event"])).unwrap();
        assert_eq!(opts.exp.engine, Engine::EventDriven);
        let opts = parse_args(&argv(&["--engine", "lockstep"])).unwrap();
        assert_eq!(opts.exp.engine, Engine::Lockstep);
        assert!(parse_args(&argv(&["--engine", "warp"])).is_err());
        assert!(parse_args(&argv(&["--engine"])).is_err(), "missing value");
    }

    #[test]
    fn fidelity_flag_parses_strictly() {
        use btsim_core::Fidelity;
        assert_eq!(parse_args(&[]).unwrap().exp.fidelity, Fidelity::Bit);
        let opts = parse_args(&argv(&["--fidelity", "stat"])).unwrap();
        assert_eq!(opts.exp.fidelity, Fidelity::Stat);
        let opts = parse_args(&argv(&["--fidelity", "auto"])).unwrap();
        assert_eq!(opts.exp.fidelity, Fidelity::Auto);
        let opts = parse_args(&argv(&["--fidelity", "bit"])).unwrap();
        assert_eq!(opts.exp.fidelity, Fidelity::Bit);
        assert!(parse_args(&argv(&["--fidelity", "magic"])).is_err());
        assert!(parse_args(&argv(&["--fidelity", "Stat"])).is_err());
        assert!(parse_args(&argv(&["--fidelity"])).is_err(), "missing value");
    }

    #[test]
    fn capture_and_metrics_flags_parse_strictly() {
        let plain = parse_args(&[]).unwrap();
        assert!(!plain.exp.capture);
        assert_eq!(plain.capture, None);
        assert_eq!(plain.exp.metrics_every, None);
        let opts = parse_args(&argv(&[
            "--capture",
            "out.btsnoop",
            "--metrics-every",
            "500",
        ]))
        .unwrap();
        assert!(opts.exp.capture);
        assert_eq!(opts.capture.as_deref(), Some("out.btsnoop"));
        assert_eq!(opts.exp.metrics_every, Some(500));
        assert!(parse_args(&argv(&["--capture"])).is_err(), "missing value");
        assert!(
            parse_args(&argv(&["--capture", "--quick"])).is_err(),
            "flag eaten as path"
        );
        assert!(parse_args(&argv(&["--metrics-every", "soon"])).is_err());
        assert!(parse_args(&argv(&["--metrics-every", "0"])).is_err());
        assert!(parse_args(&argv(&["--metrics-every", "-5"])).is_err());
        assert!(
            parse_args(&argv(&["--metrics-every"])).is_err(),
            "missing value"
        );
    }

    #[test]
    fn spatial_flags_parse_strictly() {
        let plain = parse_args(&[]).unwrap();
        assert_eq!(plain.exp.cell_size, None);
        assert_eq!(plain.exp.shards, None);
        let opts = parse_args(&argv(&["--cell-size", "12.5", "--shards", "4"])).unwrap();
        assert_eq!(opts.exp.cell_size, Some(12.5));
        assert_eq!(opts.exp.shards, Some(4));
        assert!(parse_args(&argv(&["--cell-size", "big"])).is_err());
        assert!(parse_args(&argv(&["--cell-size", "0"])).is_err());
        assert!(parse_args(&argv(&["--cell-size", "-3"])).is_err());
        assert!(parse_args(&argv(&["--cell-size", "NaN"])).is_err());
        assert!(parse_args(&argv(&["--cell-size", "inf"])).is_err());
        assert!(
            parse_args(&argv(&["--cell-size"])).is_err(),
            "missing value"
        );
        assert!(parse_args(&argv(&["--shards", "lots"])).is_err());
        assert!(parse_args(&argv(&["--shards", "0"])).is_err());
        assert!(parse_args(&argv(&["--shards", "-1"])).is_err());
        assert!(parse_args(&argv(&["--shards"])).is_err(), "missing value");
    }

    #[test]
    fn snapshot_flags_parse_strictly() {
        let plain = parse_args(&[]).unwrap();
        assert_eq!(plain.exp.snapshot, None);
        assert_eq!(plain.exp.resume, None);
        let opts = parse_args(&argv(&[
            "--snapshot",
            "formed.btsnap",
            "--resume",
            "prev.btsnap",
        ]))
        .unwrap();
        assert_eq!(opts.exp.snapshot.as_deref(), Some("formed.btsnap"));
        assert_eq!(opts.exp.resume.as_deref(), Some("prev.btsnap"));
        assert!(parse_args(&argv(&["--snapshot"])).is_err(), "missing value");
        assert!(
            parse_args(&argv(&["--snapshot", "--quick"])).is_err(),
            "flag eaten as path"
        );
        assert!(parse_args(&argv(&["--snapshot", ""])).is_err());
        assert!(parse_args(&argv(&["--resume"])).is_err(), "missing value");
        assert!(
            parse_args(&argv(&["--resume", "--quick"])).is_err(),
            "flag eaten as path"
        );
        assert!(parse_args(&argv(&["--resume", ""])).is_err());
    }

    #[test]
    fn faults_flag_parses_strictly() {
        let plain = parse_args(&[]).unwrap();
        assert_eq!(plain.exp.faults, None);
        let opts = parse_args(&argv(&["--faults", "crash@4000:dev=2;revive@7000:dev=2"])).unwrap();
        let plan = opts.exp.faults.expect("plan parsed");
        assert_eq!(plan.events().len(), 2);
        assert!(parse_args(&argv(&["--faults"])).is_err(), "missing value");
        let err = parse_args(&argv(&["--faults", "crash@4000:dev=2,bogus=1"])).unwrap_err();
        assert!(err.contains("invalid --faults value"), "{err}");
        assert!(parse_args(&argv(&["--faults", ""])).is_err());
        // A slot whose start instant would wrap the nanosecond clock.
        let err = parse_args(&argv(&["--faults", "crash@29514790517936:dev=0"])).unwrap_err();
        assert!(err.contains("`slot` 29514790517936 exceeds"), "{err}");
    }

    #[test]
    fn json_and_positionals_collected() {
        let opts =
            parse_args(&argv(&["fig6_inquiry_vs_ber", "--json", "out.json", "all"])).unwrap();
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        assert_eq!(opts.positional, vec!["fig6_inquiry_vs_ber", "all"]);
    }
}
