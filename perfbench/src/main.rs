//! End-to-end and per-layer benchmark of the btsim workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The launcher measures set-up in fresh probe processes, runs the
//! workload in its own measuring process, and prints one JSON result
//! line last: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). See
//! README.md for the workloads, the metrics and how to read a traced
//! run.

mod layers;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use btsim_stats::JsonValue;

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{Ctx, Layer, WORKLOADS};

/// End-to-end metrics and units, as listed in BENCHMARK.json.
const END_TO_END: [(&str, &str); 4] = [
    ("sim_slots_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, as listed in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 26] = [
    ("kernel.dispatches_per_slot", "1/slot"),
    ("kernel.ns_per_dispatch", "ns"),
    ("coding.encode_ns", "ns"),
    ("coding.decode_ns", "ns"),
    ("coding.packets_per_slot", "1/slot"),
    ("channel.tx_rx_gc_us", "us"),
    ("channel.transmissions", "count"),
    ("baseband.events_per_slot", "1/slot"),
    ("baseband.delivered_frac", "frac"),
    ("fidelity.model_build_ms", "ms"),
    ("fidelity.promotions", "count"),
    ("fidelity.demotions", "count"),
    ("fidelity.auto_overhead_frac", "frac"),
    ("power.report_us", "us"),
    ("core.build_ms", "ms"),
    ("core.formation_s", "s"),
    ("core.run_until_share", "frac"),
    ("core.log_events", "count"),
    ("campaign.run_ms_p50", "ms"),
    ("campaign.run_ms_p90", "ms"),
    ("campaign.run_ms_tail", "ms"),
    ("campaign.tail_pct", "%"),
    ("campaign.samples", "count"),
    ("campaign.parallel_eff", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.sim_slots_per_s", "1/s"),
];

/// Fresh processes that only set up, besides the measuring process:
/// set-up is the median of all of them, and each must reach the same
/// set-up digest. Half run before the measuring process, half after.
const SETUP_PROBES: usize = 8;

const USAGE: &str =
    "usage: perfbench --workload <creation|acl_bit|acl_stat|power_modes|dense_floor> \
     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Launch,
    Setup,
    Measure,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut role = Role::Launch;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("invalid --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                match v.parse::<u64>() {
                    Ok(s) if s >= 1 => seconds = Some(s),
                    _ => return Err(format!("invalid --seconds {v:?} (a whole number >= 1)")),
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace {v:?} (0 or 1)")),
                });
            }
            "--role" => {
                role = match value()?.as_str() {
                    "setup" => Role::Setup,
                    "measure" => Role::Measure,
                    v => return Err(format!("invalid --role {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        role,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.role {
        Role::Launch => launch(&args),
        Role::Setup | Role::Measure => measure(&args, t0),
    }
}

/// A workload process: sets up, and unless it is a set-up probe, runs
/// the timed loop and prints its result as a `RESULT` line.
fn measure(args: &Args, t0: Instant) -> ExitCode {
    let setup_only = args.role == Role::Setup;
    // First thing in the process, so the model's shared table is built
    // here and not by the first simulator.
    let model_build_ms = if args.trace && !setup_only {
        layers::model_build_ms(1e-4)
    } else {
        0.0
    };
    let mut ctx = Ctx {
        seed: args.seed,
        // The traced run spends half its time in the traced loop and the
        // rest on the per-layer replays.
        seconds: if args.trace {
            args.seconds as f64 / 2.0
        } else {
            args.seconds as f64
        },
        setup_only,
        t0,
        tracer: Tracer::new(args.trace && !setup_only),
    };
    let mut report = workloads::run(&args.workload, &mut ctx);
    report.layer.model_build_ms = model_build_ms;
    if setup_only {
        if !report.failures.is_empty() {
            report.failures.iter().for_each(|f| eprintln!("error: {f}"));
            return ExitCode::FAILURE;
        }
        println!("SETUP {} {:016x}", report.setup_s, report.setup_digest);
        return ExitCode::SUCCESS;
    }
    for line in &report.lines {
        println!("{line}");
    }
    for f in &report.failures {
        println!("check failed: {f}");
    }
    println!(
        "digest {:016x} setup-digest {:016x}",
        report.digest, report.setup_digest
    );
    let metrics = if args.trace {
        let dir = ".bench_trace";
        let path = format!("{dir}/{}-{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_json_lines()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        for (name, count, total, own) in ctx.tracer.summary() {
            println!(
                "span {name:<22} {count:>8} calls {:>12.3} ms total {:>12.3} ms self",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        layer_metrics(&report.layer, ctx.tracer.spans().len())
    } else {
        vec![
            ("sim_slots_per_s", report.sim_slots_per_s),
            ("runs_per_s", report.runs_per_s),
            ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN)),
        ]
    };
    let result = JsonValue::Obj(vec![
        (
            "correct".into(),
            JsonValue::Bool(report.failures.is_empty()),
        ),
        ("attempted".into(), JsonValue::UInt(report.ops.attempted)),
        ("failed".into(), JsonValue::UInt(report.ops.failed)),
        ("setup_s".into(), JsonValue::Num(report.setup_s)),
        (
            "setup_digest".into(),
            JsonValue::from(format!("{:016x}", report.setup_digest)),
        ),
        (
            "metrics".into(),
            JsonValue::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("RESULT {}", result.render());
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run.
fn layer_metrics(l: &Layer, spans: usize) -> Vec<(&'static str, f64)> {
    let r = &l.reference;
    let slots = r.slots.max(1) as f64;
    let tail = tail_percentile(l.op_ms.len()).unwrap_or(50.0);
    let span_cost = Tracer::span_cost_ns();
    vec![
        ("kernel.dispatches_per_slot", r.steps as f64 / slots),
        (
            "kernel.ns_per_dispatch",
            l.engine_ns as f64 / l.engine_steps.max(1) as f64,
        ),
        ("coding.encode_ns", l.encode_ns),
        ("coding.decode_ns", l.decode_ns),
        ("coding.packets_per_slot", r.transmissions as f64 / slots),
        ("channel.tx_rx_gc_us", l.tx_rx_gc_us),
        ("channel.transmissions", r.transmissions as f64),
        ("baseband.events_per_slot", r.lc_events as f64 / slots),
        (
            "baseband.delivered_frac",
            if l.data_sent > 0.0 {
                l.acked as f64 / l.data_sent
            } else {
                0.0
            },
        ),
        ("fidelity.model_build_ms", l.model_build_ms),
        ("fidelity.promotions", r.promotions as f64),
        ("fidelity.demotions", r.demotions as f64),
        ("fidelity.auto_overhead_frac", l.auto_overhead_frac),
        ("power.report_us", l.power_report_us),
        ("core.build_ms", l.build_ms),
        ("core.formation_s", l.formation_s),
        ("core.run_until_share", l.run_until_share),
        ("core.log_events", l.log_events as f64),
        ("campaign.run_ms_p50", percentile(&l.op_ms, 50.0)),
        ("campaign.run_ms_p90", percentile(&l.op_ms, 90.0)),
        ("campaign.run_ms_tail", percentile(&l.op_ms, tail)),
        ("campaign.tail_pct", tail),
        ("campaign.samples", l.op_ms.len() as f64),
        ("campaign.parallel_eff", l.parallel_eff),
        (
            "trace.overhead_frac",
            spans as f64 * span_cost / l.loop_ns.max(1) as f64,
        ),
        ("trace.sim_slots_per_s", l.traced_slots_per_s),
    ]
}

/// Runs the set-up probes and the measuring process, and prints the
/// result line.
fn launch(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let common = [
        "--workload".to_string(),
        args.workload.clone(),
        "--seed".to_string(),
        args.seed.to_string(),
    ];
    // Half the set-up probes run before the measuring process and half
    // after it, so one phase of host contention cannot skew them all.
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut probes = |n: usize| -> Result<(), String> {
        for _ in 0..n {
            let (s, d) = setup_probe(&exe, &common)?;
            setups.push(s);
            digests.push(d);
        }
        Ok(())
    };
    let half = if args.trace { 0 } else { SETUP_PROBES / 2 };
    if let Err(e) = probes(half) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let child = Command::new(&exe)
        .args(&common)
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--role", "measure"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output();
    let out = match child {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: cannot start the measuring process: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = probes(half) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut result = None;
    let mut stdout = std::io::stdout().lock();
    for line in text.lines() {
        match line.strip_prefix("RESULT ") {
            Some(json) => result = Some(json.to_string()),
            None => {
                let _ = writeln!(stdout, "{line}");
            }
        }
    }
    let parsed = result.as_deref().map(JsonValue::parse);
    let Some(Ok(doc)) = parsed.filter(|_| out.status.success()) else {
        eprintln!(
            "error: the measuring process exited with {} and no result",
            out.status
        );
        return ExitCode::FAILURE;
    };
    let num = |k: &str| doc.get(k).and_then(JsonValue::as_f64);
    let mut correct = doc.get("correct") == Some(&JsonValue::Bool(true));
    let attempted = num("attempted").unwrap_or(0.0) as u64;
    let mut failed = num("failed").unwrap_or(0.0) as u64;
    let mut metrics: Vec<(String, f64)> = match doc.get("metrics") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => Vec::new(),
    };
    if !args.trace {
        setups.push(num("setup_s").unwrap_or(f64::NAN));
        if let Some(JsonValue::Str(d)) = doc.get("setup_digest") {
            digests.push(d.clone());
        }
        if digests.iter().any(|d| *d != digests[0]) || digests.len() != setups.len() {
            let _ = writeln!(stdout, "check failed: set-up digests differ: {digests:?}");
            correct = false;
            failed += 1;
        }
        let at = metrics
            .iter()
            .position(|(k, _)| k == "peak_rss_mb")
            .unwrap_or(0);
        metrics.insert(at, ("setup_s".to_string(), median(&setups)));
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let Some(&(_, value)) = metrics.iter().find(|(k, _)| k == name) else {
            eprintln!("error: metric {name} missing from the measuring process");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("error: metric {name} is not a finite number");
            return ExitCode::FAILURE;
        }
        let _ = writeln!(stdout, "{name:<28} {value:>16.6} {unit}");
        fields.push((
            name.to_string(),
            JsonValue::Obj(vec![
                ("value".into(), JsonValue::Num(value)),
                ("unit".into(), JsonValue::from(*unit)),
            ]),
        ));
    }
    let ops = stats::Ops {
        attempted: attempted.max(failed).max(1),
        failed,
    };
    let _ = writeln!(
        stdout,
        "{:<28} {:>16.6} frac ({failed} of {} ops)",
        "failed_frac",
        ops.failed_frac(),
        ops.attempted
    );
    let line = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct && failed == 0)),
        ("attempted".into(), JsonValue::UInt(ops.attempted)),
        ("failed".into(), JsonValue::UInt(ops.failed)),
        ("metrics".into(), JsonValue::Obj(fields)),
    ]);
    let _ = writeln!(stdout, "{}", line.render());
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one set-up-only process; returns its set-up seconds and digest.
fn setup_probe(exe: &std::path::Path, common: &[String]) -> Result<(f64, String), String> {
    let out = Command::new(exe)
        .args(common)
        .args(["--role", "setup"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    let line = String::from_utf8_lossy(&out.stdout);
    let mut fields = line.trim().strip_prefix("SETUP ").unwrap_or("").split(' ');
    match (fields.next().map(str::parse::<f64>), fields.next()) {
        (Some(Ok(s)), Some(d)) => Ok((s, d.to_string())),
        _ => Err(format!("malformed set-up probe output {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse_args(&argv("--workload acl_bit --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.role),
            ("acl_bit", 3, 10, true, Role::Launch)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload acl_bit",
            "--workload acl_bit --seed x",
            "--workload acl_bit --seed 1 --seconds 0",
            "--workload acl_bit --seed 1 --trace 2",
            "--workload acl_bit --seed 1 --frobnicate",
            "--workload acl_bit --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// BENCHMARK.json names exactly the metrics and units printed here.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(JsonValue::Str(n)), Some(JsonValue::Str(u))) => {
                            (n.clone(), u.clone())
                        }
                        _ => panic!("{key} entry without name/unit"),
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(JsonValue::Str(n)) => Some(n.clone()),
                    _ => None,
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no workloads list"),
        };
        // BENCHMARK.json lists the workloads steady enough for its bounds;
        // the others stay runnable by name (README.md says why).
        let ours: Vec<String> = WORKLOADS
            .iter()
            .filter(|w| workloads.iter().any(|l| l == *w))
            .map(|w| w.to_string())
            .collect();
        assert!(!workloads.is_empty());
        assert_eq!(workloads, ours);
    }

    #[test]
    fn layer_metrics_cover_the_table() {
        let names: Vec<&str> = layer_metrics(&Layer::default(), 0)
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, table);
    }
}
