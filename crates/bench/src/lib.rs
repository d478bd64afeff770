//! # btsim-bench
//!
//! Experiment binary support for the `btsim` DATE'05 reproduction.
//! Every experiment lives in the [`btsim_core::experiments::registry`],
//! and the `experiments` binary multiplexes the whole registry
//! (`experiments <name…|all>`, `experiments --list`). The `bench_hotpath`
//! binary is the workspace's speed harness (`docs/PERF.md`).
//!
//! `experiments` accepts `--quick` (reduced campaign), `--runs N`,
//! `--seed S`, `--threads T`, `--json PATH` (dump the report as JSON) and
//! the scenario flags listed by its usage line. Malformed or unknown
//! options are rejected with an error.

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
/// `--quick` sets the reduced run count of [`ExpOptions::quick`] and
/// nothing else: every other flag keeps its value wherever it appears,
/// and an explicit `--runs` wins in either order. Malformed or missing
/// values and unknown `--flags` are errors. Positional arguments are
/// collected for the caller.
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
    let (mut quick, mut runs) = (false, None);
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
            "--quick" => quick = true,
            "--runs" => {
                let v = value("--runs")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid --runs value: {v:?} (expected a count ≥ 1)"))?;
                if n == 0 {
                    return Err("invalid --runs value: 0 (expected a count ≥ 1)".into());
                }
                runs = Some(n);
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
                    format!("invalid --engine value: {v:?} (expected event or lockstep)")
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
    if let Some(n) = runs {
        opts.exp.runs = n;
    } else if quick {
        opts.exp.runs = ExpOptions::quick().runs;
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
                 [--bridge-duty F] [--engine event|lockstep] [--fidelity bit|stat|auto] \
                 [--cell-size M] [--shards N] [--capture PATH] [--metrics-every N] \
                 [--snapshot PATH] [--resume PATH] [--faults SPEC] [--json PATH] [NAME…]"
            );
            std::process::exit(2);
        }
    }
}

/// Writes `content` to `name` in the working directory, reporting the
/// path on stdout (used for VCD waveforms and JSON dumps).
///
/// # Errors
///
/// Why the file could not be written, naming it.
pub fn write_artifact(name: &str, content: &str) -> Result<(), String> {
    std::fs::write(name, content).map_err(|e| format!("could not write {name}: {e}"))?;
    println!("wrote {name}");
    Ok(())
}

/// [`write_artifact`] for binary content (btsnoop captures).
///
/// # Errors
///
/// Why the file could not be written, naming it.
pub fn write_binary_artifact(name: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(name, bytes).map_err(|e| format!("could not write {name}: {e}"))?;
    println!("wrote {name} ({} bytes)", bytes.len());
    Ok(())
}

/// Runs one registry experiment with the given options: prints the
/// report, writes its artifacts (with `--capture PATH` redirecting
/// `.btsnoop` artifacts to that path), and appends its JSON to
/// `json_out` when requested.
///
/// # Errors
///
/// The experiment's error — an unreadable, malformed or mismatched
/// `--resume` snapshot file, for example — or, once every artifact has
/// been tried, the artifacts that could not be written. The caller
/// reports it and turns it into a nonzero exit.
pub fn run_entry(
    entry: &Experiment,
    opts: &BenchOptions,
    json_out: &mut Vec<JsonValue>,
) -> Result<(), String> {
    let report = entry.run(&opts.exp)?;
    print!("{report}");
    let mut failed = Vec::new();
    for (name, content) in &report.artifacts {
        failed.extend(write_artifact(name, content).err());
    }
    for (name, bytes) in &report.binary_artifacts {
        let dest = match &opts.capture {
            Some(path) if name.ends_with(".btsnoop") => path.as_str(),
            _ => name.as_str(),
        };
        failed.extend(write_binary_artifact(dest, bytes).err());
    }
    if opts.json.is_some() {
        json_out.push(JsonValue::Obj(vec![
            ("name".to_string(), JsonValue::from(entry.name)),
            ("report".to_string(), report.to_json()),
        ]));
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Writes the collected JSON reports if `--json` was given.
///
/// # Errors
///
/// Why the `--json` file could not be written.
pub fn finish_json(opts: &BenchOptions, json_out: &[JsonValue]) -> Result<(), String> {
    match &opts.json {
        Some(path) => {
            let doc = JsonValue::Arr(json_out.to_vec());
            write_artifact(path, &format!("{}\n", doc.render()))
        }
        None => Ok(()),
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
        // Flags before `--quick` survive it, and `--runs` wins either way.
        let opts = parse_args(&argv(&[
            "--runs",
            "3",
            "--seed",
            "9",
            "--threads",
            "2",
            "--engine",
            "lockstep",
            "--fidelity",
            "stat",
            "--shards",
            "4",
            "--cell-size",
            "12.5",
            "--piconets",
            "2",
            "--faults",
            "crash@100:dev=99",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(opts.exp.runs, 3);
        assert_eq!(opts.exp.base_seed, 9);
        assert_eq!(opts.exp.threads, 2);
        assert_eq!(opts.exp.engine, btsim_core::Engine::Lockstep);
        assert_eq!(opts.exp.fidelity, btsim_core::Fidelity::Stat);
        assert_eq!(opts.exp.shards, Some(4));
        assert_eq!(opts.exp.cell_size, Some(12.5));
        assert_eq!(opts.exp.piconets, Some(2));
        assert!(opts.exp.faults.is_some(), "--quick dropped the fault plan");
        let opts = parse_args(&argv(&["--seed", "9", "--quick"])).unwrap();
        assert_eq!(opts.exp.runs, ExpOptions::quick().runs);
        assert_eq!(opts.exp.base_seed, 9);
    }

    #[test]
    fn zero_runs_is_a_usage_error() {
        // A campaign cannot run zero times; `--runs 0` used to print a
        // one-run table instead.
        for args in [
            &["--runs", "0"][..],
            &["--quick", "--runs", "0"],
            &["--runs", "0", "--quick"],
        ] {
            let err = parse_args(&argv(args)).unwrap_err();
            assert_eq!(err, "invalid --runs value: 0 (expected a count ≥ 1)");
        }
        assert_eq!(parse_args(&argv(&["--runs", "1"])).unwrap().exp.runs, 1);
        // The largest count parses; experiments cap what they run.
        let max = usize::MAX.to_string();
        assert_eq!(
            parse_args(&argv(&["--runs", &max])).unwrap().exp.runs,
            usize::MAX
        );
    }

    #[test]
    fn writes_under_a_missing_directory_are_errors() {
        let dir = std::env::temp_dir().join(format!("btsim_missing_{}", std::process::id()));
        let path = dir.join("x.json");
        let path = path.to_str().unwrap();
        let err = write_artifact(path, "{}").unwrap_err();
        assert!(err.starts_with(&format!("could not write {path}")), "{err}");
        assert!(write_binary_artifact(path, b"x").is_err());
        let opts = BenchOptions {
            json: Some(path.to_string()),
            ..BenchOptions::default()
        };
        assert!(finish_json(&opts, &[]).is_err());
        // An entry whose capture cannot be written fails once it ran.
        let opts = BenchOptions {
            capture: Some(path.to_string()),
            ..BenchOptions::default()
        };
        let entry = btsim_core::experiments::find("capture_scan").unwrap();
        let err = run_entry(entry, &opts, &mut Vec::new()).unwrap_err();
        assert!(err.starts_with(&format!("could not write {path}")), "{err}");
        assert!(!dir.exists());
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
    }

    #[test]
    fn engine_flag_parses_strictly() {
        use btsim_core::Engine;
        assert_eq!(parse_args(&[]).unwrap().exp.engine, Engine::EventDriven);
        let opts = parse_args(&argv(&["--engine", "event"])).unwrap();
        assert_eq!(opts.exp.engine, Engine::EventDriven);
        let opts = parse_args(&argv(&["--engine", "lockstep"])).unwrap();
        assert_eq!(opts.exp.engine, Engine::Lockstep);
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
    }

    #[test]
    fn spatial_flags_parse_strictly() {
        let plain = parse_args(&[]).unwrap();
        assert_eq!(plain.exp.cell_size, None);
        assert_eq!(plain.exp.shards, None);
        let opts = parse_args(&argv(&["--cell-size", "12.5", "--shards", "4"])).unwrap();
        assert_eq!(opts.exp.cell_size, Some(12.5));
        assert_eq!(opts.exp.shards, Some(4));
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
    }

    #[test]
    fn faults_flag_parses_strictly() {
        let plain = parse_args(&[]).unwrap();
        assert_eq!(plain.exp.faults, None);
        let opts = parse_args(&argv(&["--faults", "crash@4000:dev=2;revive@7000:dev=2"])).unwrap();
        let plan = opts.exp.faults.expect("plan parsed");
        assert_eq!(plan.events().len(), 2);
        let err = parse_args(&argv(&["--faults", "crash@4000:dev=2,bogus=1"])).unwrap_err();
        assert!(err.contains("invalid --faults value"), "{err}");
        // A slot whose start instant would wrap the nanosecond clock.
        let err = parse_args(&argv(&["--faults", "crash@29514790517936:dev=0"])).unwrap_err();
        assert!(err.contains("`slot` 29514790517936 exceeds"), "{err}");
    }

    /// Mutation fuzz: a valid argument list broken the way a user breaks
    /// one (a flag without its value, an unknown flag, a malformed,
    /// arbitrary or out-of-range value) is an `Err`, not a panic,
    /// wherever the break sits. Every break in the tables below is tried
    /// inside a random valid list.
    #[test]
    fn mutated_argument_lists_are_errors_not_panics() {
        use btsim_kernel::SimRng;
        let good: Vec<&str> = "--runs 7 --seed 9 --threads 2 --piconets 4 --bridge-duty 0.35 \
            --engine event --fidelity stat --metrics-every 500 --cell-size 12.5 --shards 4 \
            --faults crash@4000:dev=2 --capture out.btsnoop --snapshot a.btsnap \
            --resume b.btsnap --json out.json"
            .split_whitespace()
            .collect();
        let good: Vec<[&str; 2]> = good.chunks(2).map(|p| [p[0], p[1]]).collect();
        let (checked, paths) = (&good[..11], &good[11..14]);
        // Values that no flag with a parsed value accepts.
        let garbage = [
            "", "many", "lots", "two", "-1", "-4", "0x10", "NaN", "inf", "-inf", "1e999", "½",
            " 7", "7 ", "--quick", "warp", "Stat",
        ];
        let mut broken: Vec<[String; 2]> = Vec::new();
        for [flag, _] in checked {
            broken.extend(garbage.map(|g| [flag.to_string(), g.to_string()]));
        }
        for [flag, _] in paths {
            broken.extend(["", "--quick"].map(|v| [flag.to_string(), v.to_string()]));
        }
        let out_of_range: Vec<&str> = "--seed 18446744073709551616 --runs 18446744073709551616 \
            --runs 0 --piconets 0 --shards 0 --metrics-every 0 --bridge-duty 0 --bridge-duty 1 \
            --bridge-duty 1.5 --cell-size 0 --faults crash@4000:dev=2,bogus=1 \
            --faults crash@29514790517936:dev=0"
            .split_whitespace()
            .collect();
        for pair in out_of_range.chunks(2) {
            broken.push([pair[0].to_string(), pair[1].to_string()]);
        }
        let mut rng = SimRng::new(0xF022);
        let mut pick = |n: usize| rng.range_u64(n as u64) as usize;
        // Arbitrary strings: never a number, name or plan (no `@`).
        let chars: Vec<char> = "ab-_.:=;,0123456789 é".chars().collect();
        for _ in 0..500 {
            let mut s: Vec<char> = (0..pick(12)).map(|_| chars[pick(chars.len())]).collect();
            s.insert(pick(s.len() + 1), 'x');
            let flag = checked[pick(checked.len())][0];
            broken.push([flag.to_string(), s.into_iter().collect()]);
        }
        for unknown in ["--frobnicate", "--run", "--quick2", "---", "-q"] {
            broken.push([unknown.to_string(), "7".to_string()]);
        }
        let mut valid = || {
            let mut args: Vec<String> = Vec::new();
            for [flag, value] in &good {
                if pick(3) == 0 {
                    args.extend([flag.to_string(), value.to_string()]);
                }
            }
            assert!(parse_args(&args).is_ok(), "base {args:?}");
            let at = 2 * pick(args.len() / 2 + 1);
            (args, at)
        };
        for pair in broken {
            let (mut args, at) = valid();
            args.splice(at..at, pair);
            assert!(parse_args(&args).is_err(), "{args:?}");
        }
        for [flag, _] in &good {
            let (mut args, _) = valid();
            args.push(flag.to_string());
            assert!(parse_args(&args).is_err(), "missing value: {args:?}");
        }
    }

    #[test]
    fn json_and_positionals_collected() {
        let opts =
            parse_args(&argv(&["fig6_inquiry_vs_ber", "--json", "out.json", "all"])).unwrap();
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        assert_eq!(opts.positional, vec!["fig6_inquiry_vs_ber", "all"]);
    }
}
