//! The metrics hub: one named-counter/gauge surface over every
//! subsystem, with snapshot/`since` semantics matching
//! [`btsim_channel::TxStats`] and periodic streaming emission for long
//! campaigns (`docs/OBSERVABILITY.md`).
//!
//! A [`MetricsSnapshot`] is built on demand by
//! [`crate::Simulator::metrics_snapshot`] from state every subsystem
//! already maintains — the medium's transmission/collision/jam counters
//! and per-channel quality, per-device power totals and transmit-buffer
//! occupancy, fidelity-tier residency, engine step counts and the event
//! logs — so the hub costs nothing when nobody asks. Counters are
//! monotone and diff with [`MetricsSnapshot::since`]; gauges are
//! instantaneous levels and pass through a diff unchanged.
//!
//! Streaming ([`crate::SimConfig::metrics_every`]) emits one JSON line
//! per period into an in-memory buffer the caller drains at the end
//! ([`crate::Simulator::metrics_lines`]). Each line carries the full
//! snapshot, the counter deltas since the previous line, and a
//! wall-clock `slots_per_sec` heartbeat — the only non-deterministic
//! field, and the only one excluded from cross-run comparisons.
//! `engine.steps` is deterministic per engine but intentionally differs
//! *between* engines (fewer dispatches is the event engine's point), so
//! cross-engine byte-identity is a property of capture files and event
//! logs, not of metrics lines.

use btsim_kernel::{snap_struct, SimDuration, SimTime, Snap, SnapReader, SnapshotError};
use btsim_stats::JsonValue;

/// Named counters and gauges sampled at one instant.
///
/// # Examples
///
/// ```
/// use btsim_core::{SimBuilder, SimConfig};
///
/// let mut b = SimBuilder::new(7, SimConfig::default());
/// b.add_device("master");
/// let sim = b.build();
/// let snap = sim.metrics_snapshot();
/// assert_eq!(snap.counter("medium.transmissions"), Some(0));
/// assert_eq!(snap.gauge("dev0.buffer.queued_bytes"), Some(0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Simulation time the snapshot was taken at.
    pub at: SimTime,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    pub(crate) fn new(at: SimTime) -> Self {
        Self {
            at,
            counters: Vec::new(),
            gauges: Vec::new(),
        }
    }

    pub(crate) fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    pub(crate) fn push_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.push((name.into(), value));
    }

    /// All counters, in stable emission order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges, in stable emission order.
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The window between `prev` and this snapshot: counters are
    /// diffed (saturating, by name; a counter absent from `prev`
    /// contributes its full value), gauges keep this snapshot's level —
    /// the same windowing idiom as [`btsim_channel::TxStats::since`].
    pub fn since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            at: self.at,
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(prev.counter(n).unwrap_or(0))))
                .collect(),
            gauges: self.gauges.clone(),
        }
    }

    /// The snapshot as one JSON object:
    /// `{"at_us": …, "counters": {…}, "gauges": {…}}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("at_us".to_string(), JsonValue::UInt(self.at.us())),
            (
                "counters".to_string(),
                JsonValue::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                JsonValue::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), JsonValue::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

snap_struct! { MetricsSnapshot { at, counters, gauges } }

/// The streaming side of the hub: owned by the simulator when
/// [`crate::SimConfig::metrics_every`] is set, emitting one JSON line
/// per period into an in-memory buffer.
#[derive(Debug, Clone)]
pub(crate) struct MetricsStream {
    every: SimDuration,
    /// Next emission instant; the simulator checks this against the
    /// clock once per dispatched event (one comparison when streaming,
    /// one `Option` test when not).
    pub(crate) next_at: SimTime,
    prev: Option<MetricsSnapshot>,
    lines: String,
    last_wall: std::time::Instant,
    last_slots: u64,
}

impl MetricsStream {
    pub(crate) fn new(every_slots: u64) -> Self {
        let every = SimDuration::from_slots(every_slots.max(1));
        Self {
            every,
            next_at: SimTime::ZERO + every,
            prev: None,
            lines: String::new(),
            last_wall: std::time::Instant::now(),
            last_slots: 0,
        }
    }

    /// Appends one JSON line for `snap`, advancing the schedule past
    /// `snap.at`. The `wall_slots_per_sec` heartbeat is the only
    /// non-deterministic field (see module docs).
    pub(crate) fn emit(&mut self, snap: MetricsSnapshot) {
        while self.next_at <= snap.at {
            self.next_at += self.every;
        }
        let wall = std::time::Instant::now();
        let secs = wall.duration_since(self.last_wall).as_secs_f64().max(1e-9);
        let slots = snap.at.slots();
        let heartbeat = (slots.saturating_sub(self.last_slots)) as f64 / secs;
        self.last_wall = wall;
        self.last_slots = slots;
        let delta = match &self.prev {
            Some(prev) => snap.since(prev),
            None => snap.clone(),
        };
        let line = JsonValue::Obj(vec![
            ("metrics".to_string(), snap.to_json()),
            (
                "delta_counters".to_string(),
                JsonValue::Obj(
                    delta
                        .counters()
                        .iter()
                        .map(|(n, v)| (n.clone(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ),
            ("wall_slots_per_sec".to_string(), JsonValue::from(heartbeat)),
        ]);
        self.lines.push_str(&line.render());
        self.lines.push('\n');
        self.prev = Some(snap);
    }

    pub(crate) fn lines(&self) -> &str {
        &self.lines
    }
}

fn stream_period(r: &mut SnapReader<'_>) -> Result<SimDuration, SnapshotError> {
    let every = SimDuration::unsnap(r)?;
    if every <= SimDuration::ZERO {
        return Err(r.malformed("metrics stream period must be positive"));
    }
    Ok(every)
}

// The wall-clock anchor (`last_wall`) is deliberately not part of the
// snapshot: it only feeds the non-deterministic `wall_slots_per_sec`
// heartbeat, which is excluded from cross-run comparisons. A restored
// stream re-anchors at restore time.
snap_struct! {
    MetricsStream { every via stream_period, next_at, prev, lines, last_slots }
    skip { last_wall = std::time::Instant::now() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_counters_and_keeps_gauges() {
        let mut a = MetricsSnapshot::new(SimTime::from_us(10));
        a.push_counter("medium.transmissions", 5);
        a.push_gauge("dev0.buffer.queued_bytes", 100.0);
        let mut b = MetricsSnapshot::new(SimTime::from_us(20));
        b.push_counter("medium.transmissions", 12);
        b.push_counter("medium.jammed", 3);
        b.push_gauge("dev0.buffer.queued_bytes", 40.0);
        let w = b.since(&a);
        assert_eq!(w.counter("medium.transmissions"), Some(7));
        assert_eq!(w.counter("medium.jammed"), Some(3), "absent in prev = full");
        assert_eq!(w.gauge("dev0.buffer.queued_bytes"), Some(40.0));
        assert_eq!(w.at, SimTime::from_us(20));
    }

    #[test]
    fn snapshot_json_shape() {
        let mut s = MetricsSnapshot::new(SimTime::from_us(625));
        s.push_counter("engine.steps", 4);
        s.push_gauge("medium.ber", 0.001);
        let json = s.to_json().render();
        assert!(json.contains("\"at_us\":625"));
        assert!(json.contains("\"engine.steps\":4"));
        assert!(json.contains("\"medium.ber\":0.001"));
    }

    #[test]
    fn stream_emits_one_line_per_period() {
        let mut ms = MetricsStream::new(100);
        assert_eq!(ms.next_at, SimTime::ZERO + SimDuration::from_slots(100));
        let mut s = MetricsSnapshot::new(ms.next_at);
        s.push_counter("engine.steps", 1);
        ms.emit(s);
        assert!(ms.next_at > SimTime::ZERO + SimDuration::from_slots(100));
        assert_eq!(ms.lines().lines().count(), 1);
        assert!(ms.lines().contains("wall_slots_per_sec"));
        assert!(ms.lines().contains("delta_counters"));
    }
}
