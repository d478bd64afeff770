//! Deterministic fault plans: seeded, calendar-scheduled failure scripts.
//!
//! A [`FaultPlan`] is a sorted list of [`FaultEvent`]s — device crashes
//! and revivals, radio mutes, BER-ramped degrades, clock jumps and
//! channel-band noise bursts — that the simulator schedules as ordinary
//! calendar entries at build time. Both engines therefore dispatch every
//! fault at exactly the same instant and in the same order relative to
//! ticks and wakeups, which keeps faulted runs bit-identical across
//! engines, fidelity tiers and shard counts. Faults emit no events of
//! their own: a crash is silent, and the *peers'* supervision timeouts
//! are what surface it, so the gap between the plan's instant and the
//! first `SupervisionTimeout` event is the measured detection latency.
//!
//! Plans come from three places: built programmatically ([`FaultPlan::push`]),
//! parsed from the strict `--faults` CLI grammar ([`FaultPlan::parse`]),
//! or generated as seeded churn ([`FaultPlan::churn`]). All three forms
//! snapshot/restore with the simulator (`docs/FAULTS.md`).
//!
//! # Grammar
//!
//! `EVENT(';' EVENT)*` where `EVENT = kind '@' slot [':' key '=' val (',' key '=' val)*]`:
//!
//! ```text
//! crash@4000:dev=2;revive@12000:dev=2;noise_on@100:lo=40,width=20,duty=1.0
//! ```
//!
//! | kind        | keys                                  | effect                                   |
//! |-------------|---------------------------------------|------------------------------------------|
//! | `crash`     | `dev`                                 | power-off: links flushed, LM reset, inert |
//! | `revive`    | `dev`                                 | device accepts commands again (standby)   |
//! | `mute`      | `dev`                                 | radio silent: no TX, hears nothing        |
//! | `unmute`    | `dev`                                 | radio restored                            |
//! | `degrade`   | `dev`, `ber`, `[ramp]`                | extra TX BER, linear ramp over `ramp` slots |
//! | `heal`      | `dev`                                 | degrade cleared                           |
//! | `drift`     | `dev`, `ticks`                        | native clock jumps by `ticks` half-slots  |
//! | `noise_on`  | `lo`, `width`, `[duty]`               | interferer over channels `lo..lo+width`   |
//! | `noise_off` | `lo`, `width`                         | removes that interferer                   |
//!
//! Bracketed keys are optional. The parser is strict: unknown kinds or
//! keys, duplicate or missing keys, malformed numbers and out-of-range
//! values are all errors.

use btsim_kernel::{snap_enum, snap_struct, SimDuration, SimRng};

/// Number of RF channels (mirrors the channel crate's constant).
const RF_CHANNELS: u8 = 79;

/// What a single fault event does (see the module grammar table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Device powers off silently: links flushed into the dropped-byte
    /// counter, LM reset, all subsequent commands to it discarded.
    Crash,
    /// Device accepts commands again (it revives in standby; rejoining
    /// a piconet is the recovery layer's job).
    Revive,
    /// Radio muted: the device transmits nothing and hears nothing,
    /// but its controller logic keeps running.
    Mute,
    /// Radio restored.
    Unmute,
    /// Extra bit-error rate on everything this device transmits,
    /// ramping linearly from zero to `ber` over `ramp_slots`.
    Degrade {
        /// Target additional BER (combined independently with the
        /// channel's base BER).
        ber: f64,
        /// Slots over which the extra BER ramps from 0 to `ber`
        /// (0 = immediate).
        ramp_slots: u64,
    },
    /// Clears a degrade.
    Heal,
    /// The device's native clock jumps forward by this many half-slot
    /// ticks, desynchronising every link it participates in.
    Drift {
        /// CLKN ticks (half slots) to jump by, mod 2²⁸.
        ticks: u32,
    },
    /// A noise burst: an interferer with the given duty cycle appears
    /// over RF channels `lo .. lo + width`.
    NoiseOn {
        /// First RF channel covered.
        lo: u8,
        /// Number of channels covered.
        width: u8,
        /// Duty cycle in (0, 1].
        duty: f64,
    },
    /// Removes the interferer(s) previously injected over exactly
    /// `lo .. lo + width`.
    NoiseOff {
        /// First RF channel covered.
        lo: u8,
        /// Number of channels covered.
        width: u8,
    },
}

impl FaultKind {
    /// Whether this kind targets a single device (`dev=` key).
    pub fn is_device_fault(&self) -> bool {
        !matches!(self, FaultKind::NoiseOn { .. } | FaultKind::NoiseOff { .. })
    }
}

/// One scheduled fault: a kind, an instant, and (for device faults)
/// the target device index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Slot at which the fault applies (the simulator dispatches it at
    /// the slot-start instant, before any tick at the same time).
    pub at_slot: u64,
    /// Target device index for device faults, `None` for noise faults.
    pub device: Option<usize>,
    /// What happens.
    pub kind: FaultKind,
}

/// The last slot a fault may be scheduled at: the slot-start instant
/// of any later slot overflows [`btsim_kernel::SimTime`]'s nanosecond counter.
pub const MAX_FAULT_SLOT: u64 = u64::MAX / SimDuration::SLOT.ns();

/// A fault plan the simulated topology cannot run
/// ([`FaultPlan::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A device fault targets a device the topology does not have.
    UnknownDevice {
        /// The largest device index the plan targets.
        device: usize,
        /// How many devices the topology has.
        devices: usize,
    },
    /// An event is scheduled past [`MAX_FAULT_SLOT`].
    SlotOutOfRange {
        /// The offending slot.
        slot: u64,
    },
}

impl FaultPlanError {
    /// A fixed one-line description (for snapshot decode errors).
    pub fn what(&self) -> &'static str {
        match self {
            FaultPlanError::UnknownDevice { .. } => "fault plan targets unknown device",
            FaultPlanError::SlotOutOfRange { .. } => "fault plan slot is not representable",
        }
    }
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownDevice { device, devices } => write!(
                f,
                "fault plan targets device {device}, but only {devices} devices exist"
            ),
            FaultPlanError::SlotOutOfRange { slot } => write!(
                f,
                "fault plan schedules slot {slot}, past the last representable slot {MAX_FAULT_SLOT}"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Why [`FaultPlan::parse`] rejected a `--faults` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseError {
    /// A fragment does not follow the grammar.
    Malformed {
        /// The offending `kind@slot[:…]` fragment.
        frag: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A well-formed integer is too large for what it sets: a slot past
    /// [`MAX_FAULT_SLOT`], a degrade ramp longer than that, or drift
    /// ticks beyond 32 bits.
    OutOfRange {
        /// The offending fragment.
        frag: String,
        /// `slot`, `ramp` or `ticks`.
        key: &'static str,
        /// The value given.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultParseError::Malformed { frag, reason } => write!(f, "fault `{frag}`: {reason}"),
            FaultParseError::OutOfRange {
                frag,
                key,
                value,
                max,
            } => write!(
                f,
                "fault `{frag}`: `{key}` {value} exceeds the maximum {max}"
            ),
        }
    }
}

impl std::error::Error for FaultParseError {}

/// A seeded, calendar-scheduled script of fault events, kept sorted by
/// slot (stable: equal-slot events keep insertion order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the default: no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by slot.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds an event, keeping the plan sorted by slot (events at the
    /// same slot apply in insertion order).
    pub fn push(&mut self, ev: FaultEvent) -> &mut Self {
        let pos = self.events.partition_point(|e| e.at_slot <= ev.at_slot);
        self.events.insert(pos, ev);
        self
    }

    /// Convenience: `crash@slot:dev=` + `revive@slot+outage:dev=`.
    pub fn crash_window(&mut self, dev: usize, at_slot: u64, outage_slots: u64) -> &mut Self {
        self.push(FaultEvent {
            at_slot,
            device: Some(dev),
            kind: FaultKind::Crash,
        });
        self.push(FaultEvent {
            at_slot: at_slot.saturating_add(outage_slots),
            device: Some(dev),
            kind: FaultKind::Revive,
        })
    }

    /// The largest device index any event targets.
    pub fn max_device(&self) -> Option<usize> {
        self.events.iter().filter_map(|e| e.device).max()
    }

    /// Checks that every device fault targets one of `devices` devices
    /// and every event is scheduled at a representable slot.
    pub fn check(&self, devices: usize) -> Result<(), FaultPlanError> {
        if let Some(slot) = self.events.last().map(|e| e.at_slot) {
            if slot > MAX_FAULT_SLOT {
                return Err(FaultPlanError::SlotOutOfRange { slot });
            }
        }
        match self.max_device() {
            Some(device) if device >= devices => {
                Err(FaultPlanError::UnknownDevice { device, devices })
            }
            _ => Ok(()),
        }
    }

    /// Restricts the plan to one shard: noise faults are kept verbatim
    /// (every shard models the shared spectrum), device faults are kept
    /// only for devices in `globals` and remapped to their local index.
    pub fn restricted_to(&self, globals: &[usize]) -> FaultPlan {
        let events = self
            .events
            .iter()
            .filter_map(|e| match e.device {
                None => Some(*e),
                Some(d) => globals
                    .iter()
                    .position(|&g| g == d)
                    .map(|local| FaultEvent {
                        device: Some(local),
                        ..*e
                    }),
            })
            .collect();
        FaultPlan { events }
    }

    /// Generates seeded device churn: each device in `devices` crashes
    /// after an up-time drawn uniformly from `[1, 2·mean_up_slots]`
    /// (mean ≈ `mean_up_slots`), stays dead for `outage_slots`, revives,
    /// and repeats until `horizon_slots`. Fully deterministic in `seed`.
    pub fn churn(
        seed: u64,
        devices: &[usize],
        mean_up_slots: u64,
        outage_slots: u64,
        horizon_slots: u64,
    ) -> FaultPlan {
        let root = SimRng::new(seed);
        let mut plan = FaultPlan::new();
        for &dev in devices {
            let mut rng = root.fork(dev as u64);
            let mut t = 0u64;
            loop {
                t += 1 + rng.range_u64(2 * mean_up_slots.max(1));
                if t >= horizon_slots {
                    break;
                }
                plan.crash_window(dev, t, outage_slots);
                t += outage_slots;
            }
        }
        plan
    }

    /// Parses the strict `--faults` grammar (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use btsim_core::fault::{FaultKind, FaultPlan};
    ///
    /// let plan = FaultPlan::parse("crash@4000:dev=2;noise_on@100:lo=40,width=20").unwrap();
    /// assert_eq!(plan.events().len(), 2);
    /// assert_eq!(plan.events()[0].at_slot, 100); // sorted by slot
    /// assert!(matches!(plan.events()[1].kind, FaultKind::Crash));
    /// assert!(FaultPlan::parse("crash@4000:dev=2,bogus=1").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::new();
        for frag in spec.split(';') {
            let frag = frag.trim();
            if frag.is_empty() {
                return Err(FaultParseError::Malformed {
                    frag: frag.into(),
                    reason: "empty fault fragment (stray ';'?)".into(),
                });
            }
            plan.push(parse_event(frag)?);
        }
        Ok(plan)
    }
}

/// A [`FaultParseError::Malformed`] for `frag`.
fn malformed(frag: &str, reason: impl Into<String>) -> FaultParseError {
    FaultParseError::Malformed {
        frag: frag.into(),
        reason: reason.into(),
    }
}

/// `value` if it is at most `max`, else a [`FaultParseError::OutOfRange`].
fn at_most(frag: &str, key: &'static str, value: u64, max: u64) -> Result<u64, FaultParseError> {
    if value <= max {
        Ok(value)
    } else {
        Err(FaultParseError::OutOfRange {
            frag: frag.into(),
            key,
            value,
            max,
        })
    }
}

/// Parses `kind@slot[:key=val,...]`.
fn parse_event(frag: &str) -> Result<FaultEvent, FaultParseError> {
    let err = |msg: &str| malformed(frag, msg);
    let (head, args) = match frag.split_once(':') {
        Some((h, a)) => (h, a),
        None => (frag, ""),
    };
    let (kind_s, slot_s) = head
        .split_once('@')
        .ok_or_else(|| err("expected `kind@slot`"))?;
    let at_slot: u64 = slot_s
        .parse()
        .map_err(|_| err("slot is not a non-negative integer"))?;
    let at_slot = at_most(frag, "slot", at_slot, MAX_FAULT_SLOT)?;
    let mut kv = KvArgs::parse(args, frag)?;
    let (device, kind) = match kind_s {
        "crash" => (Some(kv.usize("dev")?), FaultKind::Crash),
        "revive" => (Some(kv.usize("dev")?), FaultKind::Revive),
        "mute" => (Some(kv.usize("dev")?), FaultKind::Mute),
        "unmute" => (Some(kv.usize("dev")?), FaultKind::Unmute),
        "heal" => (Some(kv.usize("dev")?), FaultKind::Heal),
        "degrade" => {
            let dev = kv.usize("dev")?;
            let ber = kv.f64("ber")?;
            if !(0.0..=1.0).contains(&ber) {
                return Err(err("ber must be in [0, 1]"));
            }
            let ramp_slots = at_most(frag, "ramp", kv.u64_or("ramp", 0)?, MAX_FAULT_SLOT)?;
            (Some(dev), FaultKind::Degrade { ber, ramp_slots })
        }
        "drift" => {
            let dev = kv.usize("dev")?;
            let ticks = at_most(frag, "ticks", kv.u64("ticks")?, u32::MAX.into())?;
            (
                Some(dev),
                FaultKind::Drift {
                    ticks: ticks as u32,
                },
            )
        }
        "noise_on" => {
            let (lo, width) = kv.band()?;
            let duty = kv.f64_or("duty", 1.0)?;
            if !(duty > 0.0 && duty <= 1.0) {
                return Err(err("duty must be in (0, 1]"));
            }
            (None, FaultKind::NoiseOn { lo, width, duty })
        }
        "noise_off" => {
            let (lo, width) = kv.band()?;
            (None, FaultKind::NoiseOff { lo, width })
        }
        other => return Err(err(&format!("unknown fault kind `{other}`"))),
    };
    kv.finish()?;
    Ok(FaultEvent {
        at_slot,
        device,
        kind,
    })
}

/// Strict key=value argument list: every key consumed exactly once,
/// leftovers are errors.
struct KvArgs<'a> {
    frag: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> KvArgs<'a> {
    fn parse(args: &'a str, frag: &'a str) -> Result<Self, FaultParseError> {
        let mut pairs = Vec::new();
        if !args.is_empty() {
            for pair in args.split(',') {
                let (k, v) = pair.split_once('=').ok_or_else(|| {
                    malformed(frag, format!("expected `key=value`, got `{pair}`"))
                })?;
                if pairs.iter().any(|&(pk, _)| pk == k) {
                    return Err(malformed(frag, format!("duplicate key `{k}`")));
                }
                pairs.push((k, v));
            }
        }
        Ok(Self { frag, pairs })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let i = self.pairs.iter().position(|&(k, _)| k == key)?;
        Some(self.pairs.remove(i).1)
    }

    fn required(&mut self, key: &str) -> Result<&'a str, FaultParseError> {
        self.take(key)
            .ok_or_else(|| malformed(self.frag, format!("missing key `{key}`")))
    }

    /// Parses `v` (the value of `key`) as `T`, naming `what` it should be.
    fn value<T: std::str::FromStr>(
        &self,
        key: &str,
        v: &str,
        what: &str,
    ) -> Result<T, FaultParseError> {
        v.parse()
            .map_err(|_| malformed(self.frag, format!("`{key}` is not {what}")))
    }

    fn usize(&mut self, key: &str) -> Result<usize, FaultParseError> {
        let v = self.required(key)?;
        self.value(key, v, "an integer")
    }

    fn u64(&mut self, key: &str) -> Result<u64, FaultParseError> {
        let v = self.required(key)?;
        self.value(key, v, "an integer")
    }

    fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, FaultParseError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => self.value(key, v, "an integer"),
        }
    }

    fn f64(&mut self, key: &str) -> Result<f64, FaultParseError> {
        let v = self.required(key)?;
        self.value(key, v, "a number")
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, FaultParseError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => self.value(key, v, "a number"),
        }
    }

    /// `lo` + `width` with range validation against the 79 RF channels.
    fn band(&mut self) -> Result<(u8, u8), FaultParseError> {
        let lo = self.u64("lo")?;
        let width = self.u64("width")?;
        if width == 0 || lo.saturating_add(width) > RF_CHANNELS as u64 {
            return Err(malformed(
                self.frag,
                format!("band must satisfy 0 < width and lo+width <= {RF_CHANNELS}"),
            ));
        }
        Ok((lo as u8, width as u8))
    }

    fn finish(self) -> Result<(), FaultParseError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(malformed(self.frag, format!("unknown key `{k}`"))),
        }
    }
}

snap_enum! {
    FaultKind {
        0 => Crash,
        1 => Revive,
        2 => Mute,
        3 => Unmute,
        4 => Degrade { ber, ramp_slots },
        5 => Heal,
        6 => Drift { ticks },
        7 => NoiseOn { lo, width, duty },
        8 => NoiseOff { lo, width },
    } else "unknown fault kind tag"
}

snap_struct! {
    FaultEvent { at_slot, device, kind }
    check |ev| if ev.device.is_some() == ev.kind.is_device_fault() {
        Ok(())
    } else {
        Err("fault device/kind mismatch")
    }
}

snap_struct! {
    FaultPlan { events }
    check |plan| if plan.events.windows(2).any(|w| w[0].at_slot > w[1].at_slot) {
        Err("fault plan not sorted by slot")
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btsim_kernel::{Snap, SnapReader, SnapWriter};

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse(
            "crash@4000:dev=2;revive@9000:dev=2;mute@10:dev=0;unmute@20:dev=0;\
             degrade@30:dev=1,ber=0.01,ramp=500;heal@40:dev=1;drift@50:dev=3,ticks=7;\
             noise_on@100:lo=40,width=20,duty=0.5;noise_off@200:lo=40,width=20",
        )
        .unwrap();
        assert_eq!(plan.events().len(), 9);
        // Sorted by slot regardless of spec order.
        assert!(plan
            .events()
            .windows(2)
            .all(|w| w[0].at_slot <= w[1].at_slot));
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at_slot: 10,
                device: Some(0),
                kind: FaultKind::Mute
            }
        );
        let degrade = plan.events().iter().find(|e| e.at_slot == 30).unwrap();
        assert_eq!(
            degrade.kind,
            FaultKind::Degrade {
                ber: 0.01,
                ramp_slots: 500
            }
        );
    }

    #[test]
    fn optional_keys_default() {
        let plan = FaultPlan::parse("noise_on@0:lo=0,width=79;degrade@5:dev=0,ber=0.1").unwrap();
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::NoiseOn {
                lo: 0,
                width: 79,
                duty: 1.0
            }
        );
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::Degrade {
                ber: 0.1,
                ramp_slots: 0
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            ";",
            "crash@4000",                     // missing dev
            "crash@x:dev=1",                  // bad slot
            "crash:dev=1",                    // no @slot
            "explode@1:dev=0",                // unknown kind
            "crash@1:dev=0,bogus=2",          // unknown key
            "crash@1:dev=0,dev=1",            // duplicate key
            "degrade@1:dev=0,ber=2.0",        // ber out of range
            "noise_on@1:lo=70,width=20",      // band off the end
            "noise_on@1:lo=5,width=0",        // empty band
            "noise_on@1:lo=5,width=9,duty=0", // zero duty
            "drift@1:dev=0",                  // missing ticks
            "crash@1:dev",                    // not key=value
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn rejects_values_the_simulator_cannot_represent() {
        // The last slot whose start instant fits in SimTime is accepted;
        // the next one would wrap to a slot near zero.
        let last = format!("crash@{MAX_FAULT_SLOT}:dev=0");
        assert_eq!(
            FaultPlan::parse(&last).unwrap().events()[0].at_slot,
            MAX_FAULT_SLOT
        );
        let cases = [
            (
                format!("crash@{}:dev=0", MAX_FAULT_SLOT + 1),
                "slot",
                MAX_FAULT_SLOT + 1,
                MAX_FAULT_SLOT,
            ),
            (
                format!("degrade@5:dev=0,ber=0.1,ramp={}", u64::MAX),
                "ramp",
                u64::MAX,
                MAX_FAULT_SLOT,
            ),
            (
                "drift@5:dev=0,ticks=4294967296".to_string(),
                "ticks",
                1 << 32,
                u32::MAX.into(),
            ),
        ];
        for (spec, key, value, max) in cases {
            assert_eq!(
                FaultPlan::parse(&spec),
                Err(FaultParseError::OutOfRange {
                    frag: spec.clone(),
                    key,
                    value,
                    max
                })
            );
        }
        let drift = FaultPlan::parse("drift@5:dev=0,ticks=4294967295").unwrap();
        assert_eq!(drift.events()[0].kind, FaultKind::Drift { ticks: u32::MAX });
        // Slots beyond u64 are a grammar error, not a silent wrap.
        assert!(matches!(
            FaultPlan::parse("crash@18446744073709551616:dev=0"),
            Err(FaultParseError::Malformed { .. })
        ));
    }

    #[test]
    fn check_rejects_unrepresentable_slots_and_unknown_devices() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at_slot: MAX_FAULT_SLOT,
            device: Some(1),
            kind: FaultKind::Crash,
        });
        assert_eq!(plan.check(2), Ok(()));
        assert_eq!(
            plan.check(1),
            Err(FaultPlanError::UnknownDevice {
                device: 1,
                devices: 1
            })
        );
        // A programmatic window past the end saturates instead of
        // wrapping, and the check catches it.
        plan.crash_window(0, MAX_FAULT_SLOT, u64::MAX);
        assert_eq!(
            plan.check(2),
            Err(FaultPlanError::SlotOutOfRange { slot: u64::MAX })
        );
    }

    #[test]
    fn churn_is_deterministic_and_bounded() {
        let a = FaultPlan::churn(9, &[0, 1, 2], 5_000, 1_000, 40_000);
        let b = FaultPlan::churn(9, &[0, 1, 2], 5_000, 1_000, 40_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.events().iter().all(|e| e.at_slot < 41_000));
        // Per-device streams are independent: crash/revive pairs alternate.
        for dev in 0..3usize {
            let kinds: Vec<_> = a
                .events()
                .iter()
                .filter(|e| e.device == Some(dev))
                .map(|e| e.kind)
                .collect();
            assert!(!kinds.is_empty(), "device {dev} never churns");
            for (i, k) in kinds.iter().enumerate() {
                let want = if i % 2 == 0 {
                    FaultKind::Crash
                } else {
                    FaultKind::Revive
                };
                assert_eq!(*k, want);
            }
        }
        assert_ne!(a, FaultPlan::churn(10, &[0, 1, 2], 5_000, 1_000, 40_000));
    }

    #[test]
    fn shard_restriction_remaps_devices_and_keeps_noise() {
        let plan =
            FaultPlan::parse("crash@10:dev=5;crash@20:dev=3;noise_on@30:lo=0,width=10").unwrap();
        let local = plan.restricted_to(&[3, 5]);
        assert_eq!(local.events().len(), 3);
        assert_eq!(local.events()[0].device, Some(1)); // dev 5 -> local 1
        assert_eq!(local.events()[1].device, Some(0)); // dev 3 -> local 0
        assert_eq!(local.events()[2].device, None);
        let other = plan.restricted_to(&[7]);
        assert_eq!(other.events().len(), 1); // only the noise burst
    }

    #[test]
    fn snap_roundtrip() {
        let plan = FaultPlan::parse(
            "crash@4000:dev=2;degrade@30:dev=1,ber=0.01,ramp=500;noise_on@100:lo=40,width=20",
        )
        .unwrap();
        let mut w = SnapWriter::new();
        plan.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = FaultPlan::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, plan);
    }
}
