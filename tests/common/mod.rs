//! Registry byte pins shared by the engine and fidelity harnesses.
//!
//! A pin is `(entry, byte length, FNV-1a-64)` over everything a
//! registry entry emits: the rendered report (`report.to_string()`)
//! followed by each text artifact and each binary artifact, name then
//! content. The harnesses hash reports they already compute for their
//! equivalence checks, so pinning costs no extra run.

use btsim::core::experiments::ExpReport;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(byte length, FNV-1a-64)` of everything `report` emits.
pub fn report_pin(report: &ExpReport) -> (usize, u64) {
    let mut bytes = report.to_string().into_bytes();
    for (name, content) in &report.artifacts {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(content.as_bytes());
    }
    for (name, content) in &report.binary_artifacts {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(content);
    }
    (bytes.len(), fnv1a64(&bytes))
}

/// Asserts that `got` matches `pinned` entry for entry; on a mismatch
/// prints the whole table as this build computes it.
pub fn assert_pinned(got: &[(&str, usize, u64)], pinned: &[(&str, usize, u64)]) {
    let table: String = got
        .iter()
        .map(|(name, len, fnv)| format!("    (\"{name}\", {len}, {fnv:#018x}),\n"))
        .collect();
    assert!(
        got == pinned,
        "registry report bytes changed; this build computes:\n{table}\
         A deliberate change to an experiment's output must re-pin this table."
    );
}
