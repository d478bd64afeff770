//! Golden-trace regression tests: the fig. 5 and fig. 9 waveforms are
//! pinned at VCD level against checked-in baselines, so *waveform-level*
//! behaviour — every RF enable edge, not just aggregate metrics — is
//! frozen. Any engine or baseband change that moves an edge fails here
//! with a first-difference report.
//!
//! Baselines live in `tests/golden/` (deliberately exempted from the
//! `*.vcd` gitignore). To regenerate after an *intentional* behaviour
//! change, run with `BLESS_GOLDEN=1`:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! Comparison is over normalized documents (metadata header blocks
//! stripped, line endings unified); timestamps and value changes are
//! compared exactly — they are the behaviour being pinned.

use btsim::core::experiments::{find, ExpOptions};
use btsim::core::Engine;

/// The registry's default base seed — the same realisation the
/// `experiments -- fig5_waveform` artifact is generated from.
const GOLDEN_SEED: u64 = 0x00B1_005E;

/// The VCD artifact `name` (`fig5.vcd` / `fig9.vcd`) of the registry
/// entry `entry`, run at [`GOLDEN_SEED`] under `engine`.
fn registry_vcd(entry: &str, name: &str, engine: Engine) -> String {
    let opts = ExpOptions {
        base_seed: GOLDEN_SEED,
        engine,
        ..ExpOptions::quick()
    };
    let report = find(entry).expect("registered").run(&opts).unwrap();
    report
        .artifacts
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, vcd)| vcd)
        .unwrap_or_else(|| panic!("{entry} has no {name} artifact"))
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Strips tool metadata (`$date`/`$version`/`$comment` blocks) and
/// normalizes line endings; keeps declarations, timestamps and value
/// changes verbatim. Our renderer emits no metadata today, but external
/// regenerations (GTKWave round-trips, future header stamps) must not
/// break the pin.
fn normalize_vcd(vcd: &str) -> String {
    let mut out = Vec::new();
    let mut skipping = false;
    for line in vcd.lines() {
        let trimmed = line.trim_end();
        let starts_meta = ["$date", "$version", "$comment"]
            .iter()
            .any(|m| trimmed.starts_with(m));
        if starts_meta {
            // Single-line form: `$date ... $end`.
            skipping = !trimmed.ends_with("$end");
            continue;
        }
        if skipping {
            skipping = !trimmed.ends_with("$end");
            continue;
        }
        out.push(trimmed.to_string());
    }
    out.join("\n")
}

/// First differing line, for a readable failure message.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first difference at line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!(
        "one document is a prefix of the other ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    )
}

/// Whether a test may rewrite the baseline under `BLESS_GOLDEN=1`.
/// Only the lockstep tests may: lockstep is the behavioural oracle, and
/// tests run concurrently — were the event-engine test allowed to
/// write too, a divergent engine could nondeterministically *become*
/// the blessed baseline (last writer wins).
#[derive(Clone, Copy, PartialEq)]
enum Bless {
    FromOracle,
    Never,
}

fn assert_matches_golden(name: &str, vcd: &str, bless: Bless) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        if bless == Bless::FromOracle {
            std::fs::write(&path, vcd).expect("write blessed golden");
        }
        // Never compare mid-bless: the oracle tests may not have
        // rewritten the files yet on their own threads.
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden baseline {}: {e}", path.display()));
    let (got, want) = (normalize_vcd(vcd), normalize_vcd(&golden));
    assert_eq!(
        got,
        want,
        "{name} drifted from its golden baseline — {}\n\
         (intentional change? regenerate with BLESS_GOLDEN=1)",
        first_diff(&got, &want)
    );
}

#[test]
fn fig5_waveform_matches_golden_vcd() {
    let vcd = registry_vcd("fig5_waveform", "fig5.vcd", Engine::Lockstep);
    assert_matches_golden("fig5.vcd", &vcd, Bless::FromOracle);
}

#[test]
fn fig9_waveform_matches_golden_vcd() {
    let vcd = registry_vcd("fig9_sniff_waveform", "fig9.vcd", Engine::Lockstep);
    assert_matches_golden("fig9.vcd", &vcd, Bless::FromOracle);
}

/// The event-driven engine must reproduce the *same golden waveforms*:
/// trace pinning composes with engine equivalence, so an engine bug
/// that moves an RF edge is caught at the waveform level too.
#[test]
fn event_engine_matches_the_same_goldens() {
    let vcd5 = registry_vcd("fig5_waveform", "fig5.vcd", Engine::EventDriven);
    assert_matches_golden("fig5.vcd", &vcd5, Bless::Never);
    let vcd9 = registry_vcd("fig9_sniff_waveform", "fig9.vcd", Engine::EventDriven);
    assert_matches_golden("fig9.vcd", &vcd9, Bless::Never);
}

#[test]
fn normalizer_strips_metadata_but_keeps_behaviour() {
    let doc = "$date today $end\n$version tool 1.0 $end\n$comment\nmulti\nline\n$end\n\
               $timescale 1ns $end\n#100\n1!\n";
    let n = normalize_vcd(doc);
    assert!(!n.contains("today"));
    assert!(!n.contains("tool 1.0"));
    assert!(!n.contains("multi"));
    assert!(n.contains("$timescale 1ns $end"));
    assert!(n.contains("#100"));
    assert!(n.contains("1!"));
}
