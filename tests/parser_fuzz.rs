//! Mutation fuzz over the parsers that read outside input: btsnoop
//! capture files (`btsnoop::parse`), `--faults` specs
//! (`FaultPlan::parse`) and JSON reports (`JsonValue::parse`).
//!
//! Each case starts from a valid input and applies one mutation — a bit
//! flip, a byte overwrite, an 8-byte word overwrite, a truncation or a
//! splice with the tail of another valid input — in the style of the
//! snapshot decoder's fuzz (`tests/snapshot_equivalence.rs`). `Ok` and
//! `Err` both pass; a panic fails. Text mutations that break UTF-8 are
//! repaired with replacement characters, so the text parsers also see
//! multi-byte input.

use btsim::core::fault::FaultPlan;
use btsim::kernel::{CaptureDir, CaptureKind, CaptureRecord, SimTime};
use btsim::stats::JsonValue;
use btsim::trace::btsnoop;
use proptest::prelude::*;

/// `base` with mutation `kind` applied at `at`; `value` supplies the
/// new bits, and splices append the tail of `other` from `value`.
fn mutate(base: &[u8], other: &[u8], kind: u8, at: u64, value: u64) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let pos = (at % bytes.len() as u64) as usize;
    match kind {
        0 => bytes[pos] ^= 1 << (value % 8),
        1 => bytes[pos] = value as u8,
        2 => {
            let n = (bytes.len() - pos).min(8);
            bytes[pos..pos + n].copy_from_slice(&value.to_le_bytes()[..n]);
        }
        3 => bytes.truncate(pos),
        _ => {
            bytes.truncate(pos);
            bytes.extend_from_slice(&other[(value % other.len() as u64) as usize..]);
        }
    }
    bytes
}

fn btsnoop_bases() -> [Vec<u8>; 2] {
    let record = |at_us, dir, kind, device, channel, data: Vec<u8>| CaptureRecord {
        at: SimTime::from_us(at_us),
        dir,
        kind,
        device,
        channel,
        collided: device % 2 == 1,
        jammed: channel == 40,
        orig_bits: data.len() * 8 + 3,
        data,
    };
    let air = record(
        625,
        CaptureDir::Sent,
        CaptureKind::Air,
        0,
        40,
        vec![0x5A; 64],
    );
    let lmp = record(
        1250,
        CaptureDir::Received,
        CaptureKind::Lmp,
        3,
        1,
        vec![0x33, 0x01],
    );
    let ack = record(
        1875,
        CaptureDir::Received,
        CaptureKind::Air,
        1,
        7,
        vec![0xC3; 18],
    );
    [
        btsnoop::serialize(&[air.clone(), lmp.clone()], 0),
        btsnoop::serialize(&[lmp, ack, air], 5),
    ]
}

const FAULT_BASES: [&str; 3] = [
    "crash@4000:dev=2;revive@12000:dev=2;noise_on@100:lo=40,width=20,duty=1.0",
    "mute@10:dev=0;unmute@20:dev=0;degrade@30:dev=1,ber=0.01,ramp=500;heal@900:dev=1",
    "drift@64:dev=3,ticks=17;noise_on@5:lo=0,width=79,duty=0.25;noise_off@6000:lo=0,width=79",
];

fn json_bases() -> [String; 2] {
    let report = JsonValue::Obj(vec![
        ("name".into(), JsonValue::from("fig6_inquiry_vs_ber")),
        ("seed".into(), JsonValue::UInt(18_446_744_073_709_551_615)),
        (
            "rows".into(),
            JsonValue::Arr(vec![
                JsonValue::Num(-1.5e-3),
                JsonValue::Num(1487.25),
                JsonValue::Bool(true),
                JsonValue::Null,
            ]),
        ),
        (
            "note".into(),
            JsonValue::Str("tab\t quote\" slash\\ µs \u{1F4E1}".into()),
        ),
    ]);
    [
        report.render(),
        r#" {"a": [1, 2.5e10, -0, {"b": "é\n"}], "c": {}} "#.to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_btsnoop_files_never_panic(
        base in 0usize..2,
        other in 0usize..2,
        kind in 0u8..5,
        at: u64,
        value: u64,
    ) {
        let bases = btsnoop_bases();
        prop_assert!(btsnoop::parse(&bases[base]).is_ok());
        let bytes = mutate(&bases[base], &bases[other], kind, at, value);
        let _ = btsnoop::parse(&bytes);
    }

    #[test]
    fn mutated_fault_specs_never_panic(
        base in 0usize..3,
        other in 0usize..3,
        kind in 0u8..5,
        at: u64,
        value: u64,
    ) {
        prop_assert!(FaultPlan::parse(FAULT_BASES[base]).is_ok());
        let bytes = mutate(
            FAULT_BASES[base].as_bytes(),
            FAULT_BASES[other].as_bytes(),
            kind,
            at,
            value,
        );
        let _ = FaultPlan::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_json_documents_never_panic(
        base in 0usize..2,
        other in 0usize..2,
        kind in 0u8..5,
        at: u64,
        value: u64,
    ) {
        let bases = json_bases();
        prop_assert!(JsonValue::parse(&bases[base]).is_ok());
        let bytes = mutate(bases[base].as_bytes(), bases[other].as_bytes(), kind, at, value);
        let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
    }
}
