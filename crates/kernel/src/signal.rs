//! Traced signals: named waveforms recorded during simulation.
//!
//! The paper inspects its model through SystemC signal waveforms
//! (`enable_rx_RF`, `enable_tx_RF`, packet data — Figs. 5 and 9). The
//! [`TraceRecorder`] plays that role here: simulation components declare
//! named signals and record value changes; the `btsim-trace` crate
//! renders the records as VCD files or ASCII art.
//!
//! Records may be inserted out of chronological order (the simulator
//! sometimes learns the exact end of an RF window retroactively); readers
//! must call [`TraceRecorder::sorted_records`].

use std::fmt;

use crate::time::SimTime;
use crate::wire::Wire;

/// Identifies a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalRef(usize);

/// A recorded signal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceValue {
    /// A single-bit level (RF enables, flags).
    Bit(bool),
    /// A four-valued bus level (the channel).
    Wire(Wire),
    /// A small integer (state numbers, channel indices).
    Int(u64),
}

impl fmt::Display for TraceValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValue::Bit(b) => write!(f, "{}", *b as u8),
            TraceValue::Wire(w) => write!(f, "{w}"),
            TraceValue::Int(v) => write!(f, "{v}"),
        }
    }
}

/// Declaration metadata of a signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// Hierarchical scope, e.g. a device name.
    pub scope: String,
    /// Signal name within the scope, e.g. `enable_rx_RF`.
    pub name: String,
    /// Bit width hint for renderers (1 for Bit/Wire).
    pub width: u32,
}

/// One recorded value change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Time of the change.
    pub at: SimTime,
    /// Which signal changed.
    pub signal: SignalRef,
    /// The new value.
    pub value: TraceValue,
}

/// Collects signal declarations and value changes during a run.
///
/// A disabled recorder (the default for Monte-Carlo batches) ignores all
/// records, so instrumentation can stay unconditionally in the hot path.
///
/// # Memory behaviour
///
/// An enabled recorder stores every record (~32 bytes each) for the
/// whole run — fine for the paper's millisecond waveform windows, a
/// hazard for hour-long captures. [`TraceRecorder::set_record_cap`]
/// bounds growth: once the cap is reached further records are counted
/// in [`TraceRecorder::dropped`] instead of stored, so a long campaign
/// keeps its waveform head instead of dying of memory. Renderers that
/// emit repeatedly should prefer `btsim_trace::to_vcd_into`, which
/// appends into a caller-owned buffer instead of rebuilding the whole
/// VCD string per call.
///
/// # Examples
///
/// ```
/// use btsim_kernel::{SimTime, TraceRecorder, TraceValue};
///
/// let mut tr = TraceRecorder::enabled();
/// let rx = tr.declare("slave1", "enable_rx_RF", 1);
/// tr.record(SimTime::from_us(10), rx, TraceValue::Bit(true));
/// tr.record(SimTime::from_us(42), rx, TraceValue::Bit(false));
/// assert_eq!(tr.sorted_records().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    signals: Vec<SignalInfo>,
    records: Vec<TraceRecord>,
    enabled: bool,
    /// `0` means unbounded.
    record_cap: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// Creates a recorder that stores records.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Creates a recorder that drops all records (zero memory growth).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether records are being stored.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Declares a signal and returns its handle.
    ///
    /// Declarations are kept even when disabled, so handles stay valid
    /// across enable states.
    pub fn declare(&mut self, scope: &str, name: &str, width: u32) -> SignalRef {
        self.signals.push(SignalInfo {
            scope: scope.to_owned(),
            name: name.to_owned(),
            width,
        });
        SignalRef(self.signals.len() - 1)
    }

    /// Caps stored records at `cap` (`0` = unbounded, the default).
    /// Records past the cap are counted in [`TraceRecorder::dropped`]
    /// instead of stored — the guard that keeps long captures from
    /// growing without bound (see *Memory behaviour* above).
    pub fn set_record_cap(&mut self, cap: usize) {
        self.record_cap = cap;
    }

    /// Records dropped at the cap (never nonzero without a cap).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records a value change (no-op when disabled; counted as dropped
    /// once the record cap is reached).
    pub fn record(&mut self, at: SimTime, signal: SignalRef, value: TraceValue) {
        if !self.enabled {
            return;
        }
        if self.record_cap != 0 && self.records.len() >= self.record_cap {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord { at, signal, value });
    }

    /// Declared signals, indexable by [`SignalRef`].
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }

    /// Looks up a signal's metadata.
    pub fn info(&self, signal: SignalRef) -> &SignalInfo {
        &self.signals[signal.0]
    }

    /// Index form of a [`SignalRef`] for table-building renderers.
    pub fn index_of(&self, signal: SignalRef) -> usize {
        signal.0
    }

    /// All records in canonical order: by time, then by signal
    /// declaration index (stable for repeated changes of one signal at
    /// one instant, so level sequences survive).
    ///
    /// The signal tiebreak makes the rendering independent of which
    /// *order* devices were processed within a simultaneous instant —
    /// engines that schedule the same work differently (see
    /// `Engine::EventDriven`) still produce byte-identical waveforms,
    /// which is what lets golden-trace tests pin VCD output.
    pub fn sorted_records(&self) -> Vec<TraceRecord> {
        let mut out = self.records.clone();
        out.sort_by_key(|r| (r.at, r.signal.0));
        out
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl crate::snap::Snap for SignalRef {
    fn snap(&self, w: &mut crate::snap::SnapWriter) {
        let SignalRef(index) = self;
        crate::snap::Snap::snap(index, w);
    }
    fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        Ok(SignalRef(crate::snap::Snap::unsnap(r)?))
    }
}

crate::snap_enum! {
    TraceValue {
        0 => Bit(level),
        1 => Wire(level),
        2 => Int(value),
    } else "trace value tag out of range"
}

crate::snap_struct! { SignalInfo { scope, name, width } }

crate::snap_struct! { TraceRecord { at, signal, value } }

crate::snap_struct! {
    TraceRecorder { signals, records, enabled, record_cap, dropped }
    check |t| if t.records.iter().any(|rec| rec.signal.0 >= t.signals.len()) {
        Err("trace record references undeclared signal")
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_record() {
        let mut tr = TraceRecorder::enabled();
        let a = tr.declare("master", "enable_tx_RF", 1);
        let b = tr.declare("master", "channel", 7);
        assert_ne!(a, b);
        tr.record(SimTime::from_us(1), a, TraceValue::Bit(true));
        tr.record(SimTime::from_us(2), b, TraceValue::Int(42));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.info(a).name, "enable_tx_RF");
        assert_eq!(tr.info(b).width, 7);
        assert_eq!(tr.signals().len(), 2);
    }

    #[test]
    fn disabled_recorder_drops_records_but_keeps_declarations() {
        let mut tr = TraceRecorder::disabled();
        let a = tr.declare("s", "sig", 1);
        tr.record(SimTime::from_us(1), a, TraceValue::Bit(true));
        assert!(tr.is_empty());
        assert_eq!(tr.signals().len(), 1);
        assert!(!tr.is_enabled());
    }

    #[test]
    fn sorted_records_orders_out_of_order_inserts() {
        let mut tr = TraceRecorder::enabled();
        let a = tr.declare("s", "sig", 1);
        tr.record(SimTime::from_us(30), a, TraceValue::Bit(false));
        tr.record(SimTime::from_us(10), a, TraceValue::Bit(true));
        tr.record(SimTime::from_us(20), a, TraceValue::Bit(false));
        let times: Vec<u64> = tr.sorted_records().iter().map(|r| r.at.us()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn record_cap_counts_drops() {
        let mut tr = TraceRecorder::enabled();
        let a = tr.declare("s", "sig", 1);
        tr.set_record_cap(2);
        for i in 0..5 {
            tr.record(SimTime::from_us(i), a, TraceValue::Bit(i % 2 == 0));
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        // An uncapped recorder never reports drops.
        let mut free = TraceRecorder::enabled();
        let b = free.declare("s", "sig", 1);
        for i in 0..5 {
            free.record(SimTime::from_us(i), b, TraceValue::Bit(true));
        }
        assert_eq!(free.dropped(), 0);
    }

    #[test]
    fn trace_value_display() {
        assert_eq!(TraceValue::Bit(true).to_string(), "1");
        assert_eq!(TraceValue::Wire(Wire::X).to_string(), "X");
        assert_eq!(TraceValue::Int(79).to_string(), "79");
    }
}
