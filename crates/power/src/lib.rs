//! # btsim-power
//!
//! RF activity and energy accounting for the DATE'05 model. The paper
//! measures "RF activity" — the fraction of time `enable_tx_RF` /
//! `enable_rx_RF` are asserted — per device and per life phase (inquiry,
//! page, active, sniff, hold, park; Figs. 10-12). [`PowerMonitor`]
//! integrates the RF-enable intervals the simulator reports and
//! [`PowerProfile`] converts on-times into energy.
//!
//! The monitor is generic over the phase tag `P` so this crate stays
//! independent of the baseband layer (the simulator instantiates it with
//! its `LifePhase` enum).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Debug;

use btsim_kernel::{SimDuration, SimTime};

/// Radio power draw in milliwatts per state.
///
/// Defaults model a class-2 (2.5 mW output) Bluetooth radio of the
/// paper's era (≈ the 0.18 µm CMOS radio of the paper's reference [2]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Transmitter chain active.
    pub tx_mw: f64,
    /// Receiver chain active.
    pub rx_mw: f64,
    /// Baseband awake, RF off.
    pub idle_mw: f64,
}

impl Default for PowerProfile {
    fn default() -> Self {
        Self {
            tx_mw: 45.0,
            rx_mw: 40.0,
            idle_mw: 1.0,
        }
    }
}

/// Per-phase accumulated on-times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Nanoseconds the transmitter was on in this phase.
    pub tx_ns: u64,
    /// Nanoseconds the receiver was on in this phase.
    pub rx_ns: u64,
    /// Nanoseconds spent in this phase overall.
    pub phase_ns: u64,
}

impl PhaseTotals {
    /// RF activity (TX+RX on-time over phase duration), as a fraction.
    pub fn activity(&self) -> f64 {
        if self.phase_ns == 0 {
            0.0
        } else {
            (self.tx_ns + self.rx_ns) as f64 / self.phase_ns as f64
        }
    }
}

/// Activity report for one device.
///
/// `phases` is an ordered map so that reports of identical runs render
/// identically — differential tests compare their `Debug` output.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport<P: Copy + Ord> {
    /// Total transmitter on-time.
    pub tx: SimDuration,
    /// Total receiver on-time.
    pub rx: SimDuration,
    /// Observation window (simulation end time).
    pub total: SimDuration,
    /// Per-phase breakdown.
    pub phases: BTreeMap<P, PhaseTotals>,
}

impl<P: Copy + Ord> DeviceReport<P> {
    /// Overall RF activity: (TX + RX on-time) / observation window.
    pub fn rf_activity(&self) -> f64 {
        if self.total.ns() == 0 {
            0.0
        } else {
            (self.tx.ns() + self.rx.ns()) as f64 / self.total.ns() as f64
        }
    }

    /// Transmitter-only activity fraction.
    pub fn tx_activity(&self) -> f64 {
        if self.total.ns() == 0 {
            0.0
        } else {
            self.tx.ns() as f64 / self.total.ns() as f64
        }
    }

    /// Receiver-only activity fraction.
    pub fn rx_activity(&self) -> f64 {
        if self.total.ns() == 0 {
            0.0
        } else {
            self.rx.ns() as f64 / self.total.ns() as f64
        }
    }

    /// Mean power over the window under `profile`, in milliwatts.
    pub fn mean_power_mw(&self, profile: &PowerProfile) -> f64 {
        if self.total.ns() == 0 {
            return 0.0;
        }
        let idle_ns = self.total.ns().saturating_sub(self.tx.ns() + self.rx.ns());
        (self.tx.ns() as f64 * profile.tx_mw
            + self.rx.ns() as f64 * profile.rx_mw
            + idle_ns as f64 * profile.idle_mw)
            / self.total.ns() as f64
    }

    /// Energy consumed over the window, in microjoules.
    pub fn energy_uj(&self, profile: &PowerProfile) -> f64 {
        self.mean_power_mw(profile) * self.total.ns() as f64 / 1e6
    }

    /// Totals for one phase.
    pub fn phase(&self, phase: P) -> PhaseTotals {
        self.phases.get(&phase).copied().unwrap_or_default()
    }
}

#[derive(Debug, Clone)]
struct DeviceAccount<P> {
    tx_ns: u64,
    rx_ns: u64,
    /// Phase timeline: (start, phase), sorted by construction.
    timeline: Vec<(SimTime, P)>,
    per_phase: BTreeMap<P, PhaseTotals>,
}

/// Integrates RF-enable intervals per device and phase.
///
/// Intervals may be reported out of order (the simulator learns the exact
/// end of a receive window retroactively), but each interval is
/// attributed to phases by its own timestamps, so ordering does not
/// matter. Phase *changes*, however, must be reported in order.
///
/// # Examples
///
/// ```
/// use btsim_kernel::SimTime;
/// use btsim_power::PowerMonitor;
///
/// let mut mon: PowerMonitor<&'static str> = PowerMonitor::new(1, "idle");
/// mon.set_phase(0, "active", SimTime::ZERO);
/// mon.add_rx(0, SimTime::from_us(0), SimTime::from_us(32));
/// let report = mon.report(0, SimTime::from_us(1250));
/// assert!((report.rf_activity() - 32.0 / 1250.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PowerMonitor<P: Copy + Ord + Debug> {
    devices: Vec<DeviceAccount<P>>,
}

impl<P: Copy + Ord + Debug> PowerMonitor<P> {
    /// Creates a monitor for `n` devices starting in `initial_phase`.
    pub fn new(n: usize, initial_phase: P) -> Self {
        Self {
            devices: (0..n)
                .map(|_| DeviceAccount {
                    tx_ns: 0,
                    rx_ns: 0,
                    timeline: vec![(SimTime::ZERO, initial_phase)],
                    per_phase: BTreeMap::new(),
                })
                .collect(),
        }
    }

    /// Number of monitored devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Records a phase change of `device` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or `at` precedes the last
    /// recorded phase change (phase changes must be chronological).
    pub fn set_phase(&mut self, device: usize, phase: P, at: SimTime) {
        let acc = &mut self.devices[device];
        let last = acc.timeline.last().expect("timeline is never empty");
        assert!(
            at >= last.0,
            "phase changes must be chronological ({at} < {})",
            last.0
        );
        if last.1 != phase {
            if last.0 == at {
                // Replace a zero-length phase entry.
                acc.timeline.pop();
                if acc
                    .timeline
                    .last()
                    .map(|(_, p)| *p != phase)
                    .unwrap_or(true)
                {
                    acc.timeline.push((at, phase));
                }
            } else {
                acc.timeline.push((at, phase));
            }
        }
    }

    /// Records a transmitter-on interval `[from, to)`.
    pub fn add_tx(&mut self, device: usize, from: SimTime, to: SimTime) {
        self.add_interval(device, from, to, true);
    }

    /// Bulk-accounts `tx_ns`/`rx_ns` nanoseconds of radio time entirely
    /// within the phase active at `at`.
    ///
    /// Equivalent to many [`PowerMonitor::add_tx`]/[`PowerMonitor::add_rx`]
    /// calls whose intervals all start at or after `at`, **provided** the
    /// caller guarantees no phase change occurs over the accounted span —
    /// the single timeline lookup here is what makes batched accounting
    /// (thousands of intervals in one known-quiet stretch) cheap.
    pub fn add_bulk(&mut self, device: usize, at: SimTime, tx_ns: u64, rx_ns: u64) {
        if tx_ns == 0 && rx_ns == 0 {
            return;
        }
        let acc = &mut self.devices[device];
        acc.tx_ns += tx_ns;
        acc.rx_ns += rx_ns;
        let idx = match acc.timeline.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let entry = acc.per_phase.entry(acc.timeline[idx].1).or_default();
        entry.tx_ns += tx_ns;
        entry.rx_ns += rx_ns;
    }

    /// Records a receiver-on interval `[from, to)`.
    pub fn add_rx(&mut self, device: usize, from: SimTime, to: SimTime) {
        self.add_interval(device, from, to, false);
    }

    fn add_interval(&mut self, device: usize, from: SimTime, to: SimTime, is_tx: bool) {
        if to <= from {
            return;
        }
        let acc = &mut self.devices[device];
        let total = to.since(from).ns();
        if is_tx {
            acc.tx_ns += total;
        } else {
            acc.rx_ns += total;
        }
        split_over_phases(&acc.timeline, &mut acc.per_phase, from, to, is_tx);
    }

    /// Produces the report of `device` for the window `[0, end)`.
    pub fn report(&self, device: usize, end: SimTime) -> DeviceReport<P> {
        self.report_with_rx(device, end, None)
    }

    /// [`PowerMonitor::report`] as if the receiver-on interval `open`
    /// had been recorded first — how a caller folds in a window that is
    /// still open, without touching (or cloning) the monitor.
    pub fn report_with_rx(
        &self,
        device: usize,
        end: SimTime,
        open: Option<(SimTime, SimTime)>,
    ) -> DeviceReport<P> {
        let acc = &self.devices[device];
        let mut phases = acc.per_phase.clone();
        let mut rx_ns = acc.rx_ns;
        if let Some((from, to)) = open.filter(|(from, to)| to > from) {
            rx_ns += to.since(from).ns();
            split_over_phases(&acc.timeline, &mut phases, from, to, false);
        }
        // Fill in phase durations from the timeline.
        for (i, (start, phase)) in acc.timeline.iter().enumerate() {
            let stop = acc
                .timeline
                .get(i + 1)
                .map(|(t, _)| *t)
                .unwrap_or(end)
                .min(end);
            if stop > *start {
                phases.entry(*phase).or_default().phase_ns += stop.since(*start).ns();
            }
        }
        DeviceReport {
            tx: SimDuration::from_ns(acc.tx_ns),
            rx: SimDuration::from_ns(rx_ns),
            total: end.since(SimTime::ZERO),
            phases,
        }
    }
}

/// Attributes the RF-on interval `[from, to)` (non-empty) to the phases
/// of `timeline` it overlaps.
fn split_over_phases<P: Copy + Ord>(
    timeline: &[(SimTime, P)],
    per_phase: &mut BTreeMap<P, PhaseTotals>,
    from: SimTime,
    to: SimTime,
    is_tx: bool,
) {
    let mut cursor = from;
    while cursor < to {
        // Find the phase active at `cursor` and its end.
        let idx = match timeline.binary_search_by(|(t, _)| t.cmp(&cursor)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let phase = timeline[idx].1;
        let seg_end = timeline.get(idx + 1).map(|(t, _)| *t).unwrap_or(to).min(to);
        let seg_end = seg_end.max(cursor);
        let len = seg_end.since(cursor).ns();
        let entry = per_phase.entry(phase).or_default();
        if is_tx {
            entry.tx_ns += len;
        } else {
            entry.rx_ns += len;
        }
        if seg_end == cursor {
            break;
        }
        cursor = seg_end;
    }
}

use btsim_kernel::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

snap_struct! { PhaseTotals { tx_ns, rx_ns, phase_ns } }

impl<P: Snap + Copy + Ord> Snap for DeviceAccount<P> {
    fn snap(&self, w: &mut SnapWriter) {
        let DeviceAccount {
            tx_ns,
            rx_ns,
            timeline,
            per_phase,
        } = self;
        tx_ns.snap(w);
        rx_ns.snap(w);
        timeline.snap(w);
        per_phase.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let tx_ns = r.take_u64()?;
        let rx_ns = r.take_u64()?;
        let timeline = Vec::<(SimTime, P)>::unsnap(r)?;
        if timeline.is_empty() {
            return Err(r.malformed("empty phase timeline"));
        }
        if timeline.windows(2).any(|w| w[1].0 < w[0].0) {
            return Err(r.malformed("phase timeline out of order"));
        }
        Ok(Self {
            tx_ns,
            rx_ns,
            timeline,
            per_phase: BTreeMap::unsnap(r)?,
        })
    }
}

impl<P: Snap + Copy + Ord + Debug> Snap for PowerMonitor<P> {
    fn snap(&self, w: &mut SnapWriter) {
        let PowerMonitor { devices } = self;
        devices.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            devices: Vec::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_us(v)
    }

    #[test]
    fn monitor_snapshot_roundtrips() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(2, 0);
        mon.set_phase(0, 1, us(100));
        mon.add_tx(0, us(0), us(150));
        mon.add_rx(1, us(20), us(60));
        let mut w = SnapWriter::new();
        mon.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = PowerMonitor::<u8>::unsnap(&mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        assert_eq!(back.report(0, us(1000)), mon.report(0, us(1000)));
        assert_eq!(back.report(1, us(1000)), mon.report(1, us(1000)));
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let out = PowerMonitor::<u8>::unsnap(&mut r).and_then(|_| r.finish());
            assert!(out.is_err(), "cut at {cut} must be rejected");
        }
    }

    #[test]
    fn integrates_tx_and_rx() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(2, 0);
        mon.add_tx(0, us(0), us(100));
        mon.add_rx(0, us(200), us(250));
        mon.add_rx(1, us(0), us(1000));
        let r0 = mon.report(0, us(1000));
        assert_eq!(r0.tx.us(), 100);
        assert_eq!(r0.rx.us(), 50);
        assert!((r0.rf_activity() - 0.15).abs() < 1e-12);
        assert!((r0.tx_activity() - 0.10).abs() < 1e-12);
        assert!((r0.rx_activity() - 0.05).abs() < 1e-12);
        let r1 = mon.report(1, us(1000));
        assert!((r1.rf_activity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_is_ignored() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.add_tx(0, us(10), us(10));
        mon.add_rx(0, us(20), us(10));
        let r = mon.report(0, us(100));
        assert_eq!(r.rf_activity(), 0.0);
    }

    #[test]
    fn attributes_intervals_to_phases() {
        let mut mon: PowerMonitor<&str> = PowerMonitor::new(1, "inquiry");
        mon.set_phase(0, "page", us(1000));
        mon.set_phase(0, "active", us(2000));
        // Interval spanning all three phases.
        mon.add_rx(0, us(500), us(2500));
        let r = mon.report(0, us(3000));
        assert_eq!(r.phase("inquiry").rx_ns, 500_000);
        assert_eq!(r.phase("page").rx_ns, 1_000_000);
        assert_eq!(r.phase("active").rx_ns, 500_000);
        assert_eq!(r.phase("inquiry").phase_ns, 1_000_000);
        assert_eq!(r.phase("page").phase_ns, 1_000_000);
        assert_eq!(r.phase("active").phase_ns, 1_000_000);
        assert!((r.phase("page").activity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_intervals_are_fine() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.set_phase(0, 1, us(100));
        mon.add_rx(0, us(150), us(200));
        mon.add_rx(0, us(0), us(50)); // earlier interval reported later
        let r = mon.report(0, us(200));
        assert_eq!(r.phase(0).rx_ns, 50_000);
        assert_eq!(r.phase(1).rx_ns, 50_000);
    }

    #[test]
    fn zero_length_phase_is_replaced() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.set_phase(0, 1, us(100));
        mon.set_phase(0, 2, us(100)); // replaces phase 1 entirely
        mon.add_rx(0, us(100), us(200));
        let r = mon.report(0, us(200));
        assert_eq!(r.phase(1).rx_ns, 0);
        assert_eq!(r.phase(2).rx_ns, 100_000);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn rejects_backwards_phase_changes() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.set_phase(0, 1, us(100));
        mon.set_phase(0, 2, us(50));
    }

    #[test]
    fn power_and_energy() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.add_tx(0, us(0), us(500));
        mon.add_rx(0, us(500), us(1000));
        let r = mon.report(0, us(1000));
        let profile = PowerProfile {
            tx_mw: 100.0,
            rx_mw: 50.0,
            idle_mw: 0.0,
        };
        assert!((r.mean_power_mw(&profile) - 75.0).abs() < 1e-9);
        // 75 mW over 1 ms = 75 µJ.
        assert!((r.energy_uj(&profile) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn default_profile_is_ordered_sanely() {
        let p = PowerProfile::default();
        assert!(p.tx_mw > p.rx_mw);
        assert!(p.rx_mw > p.idle_mw);
    }

    #[test]
    fn open_rx_window_folds_in_like_a_recorded_one() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.set_phase(0, 1, us(100));
        mon.add_rx(0, us(10), us(20));
        for open in [(us(50), us(300)), (us(150), us(150)), (us(0), us(100))] {
            let mut recorded = mon.clone();
            recorded.add_rx(0, open.0, open.1);
            assert_eq!(
                mon.report_with_rx(0, us(300), Some(open)),
                recorded.report(0, us(300)),
                "open window {open:?}"
            );
        }
        assert_eq!(mon.report_with_rx(0, us(300), None), mon.report(0, us(300)));
    }

    #[test]
    fn report_truncates_timeline_at_end() {
        let mut mon: PowerMonitor<u8> = PowerMonitor::new(1, 0);
        mon.set_phase(0, 1, us(500));
        let r = mon.report(0, us(300));
        assert_eq!(r.phase(0).phase_ns, 300_000);
        assert_eq!(r.phase(1).phase_ns, 0);
    }
}
