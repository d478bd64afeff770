//! The event calendar: a time-ordered queue driving the simulation.
//!
//! Events scheduled for the same instant are dispatched in insertion
//! order (FIFO), which mirrors the determinism of a SystemC delta-cycle
//! evaluation queue and makes every simulation bit-reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key(SimTime, u64);

#[derive(Debug, Clone)]
struct Entry<E> {
    key: Key,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic discrete-event calendar.
///
/// # Examples
///
/// ```
/// use btsim_kernel::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_us(20), "late");
/// cal.schedule(SimTime::from_us(10), "early");
/// cal.schedule(SimTime::from_us(10), "early-second");
/// assert_eq!(cal.pop(), Some((SimTime::from_us(10), "early")));
/// assert_eq!(cal.pop(), Some((SimTime::from_us(10), "early-second")));
/// assert_eq!(cal.pop(), Some((SimTime::from_us(20), "late")));
/// assert_eq!(cal.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event): the
    /// causality of a discrete-event simulation would be violated.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {now})",
            now = self.now
        );
        self.heap.push(Reverse(Entry {
            key: Key(at, self.seq),
            event,
        }));
        self.seq += 1;
    }

    /// Removes and returns the earliest event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.key.0;
        Some((entry.key.0, entry.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.key.0)
    }

    /// Advances `now` to `to` without dispatching anything, clamped so it
    /// never passes a pending event. Returns the new `now`.
    ///
    /// An event-driven engine leaves gaps in the calendar: when every
    /// process sleeps past a run horizon, nothing is popped at the
    /// horizon itself, yet observers (power reports, activity fractions)
    /// need the clock to sit exactly at the horizon — the same instant a
    /// lockstep engine reaches by ticking through the gap. Idempotent;
    /// `to` in the past is a no-op.
    pub fn advance_to(&mut self, to: SimTime) -> SimTime {
        let limit = self.peek_time().map_or(to, |p| p.min(to));
        if limit > self.now {
            self.now = limit;
        }
        self.now
    }

    /// Iterates over all pending events in arbitrary (heap) order.
    ///
    /// Useful for horizon scans that need the earliest event of a given
    /// kind without disturbing the queue; callers must not rely on any
    /// particular ordering.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap.iter().map(|Reverse(e)| (e.key.0, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot export: every pending entry as `(time, insertion seq,
    /// event)` sorted by `(time, seq)`, i.e. exact dispatch order.
    ///
    /// Together with [`Calendar::now`] and [`Calendar::next_seq`] this is
    /// the calendar's complete state; [`Calendar::from_parts`] rebuilds
    /// an identical queue from it.
    pub fn entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .map(|Reverse(e)| (e.key.0, e.key.1, &e.event))
            .collect();
        out.sort_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// The sequence number the next [`Calendar::schedule`] will use.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Snapshot import: rebuilds a calendar from [`Calendar::entries`]
    /// output (entry `seq`s are preserved verbatim, so FIFO dispatch
    /// within an instant is bit-identical to the snapshotted queue).
    pub fn from_parts(now: SimTime, next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self {
        let heap = entries
            .into_iter()
            .map(|(at, seq, event)| {
                Reverse(Entry {
                    key: Key(at, seq),
                    event,
                })
            })
            .collect();
        Self {
            heap,
            seq: next_seq,
            now,
        }
    }
}

impl<E: crate::snap::Snap> crate::snap::Snap for Calendar<E> {
    fn snap(&self, w: &mut crate::snap::SnapWriter) {
        // The heap is written through `entries`, in dispatch order.
        let Calendar { heap: _, seq, now } = self;
        now.snap(w);
        seq.snap(w);
        let entries = self.entries();
        w.put_usize(entries.len());
        for (at, seq, event) in entries {
            at.snap(w);
            seq.snap(w);
            event.snap(w);
        }
    }
    fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapshotError> {
        let now = SimTime::unsnap(r)?;
        let seq = r.take_u64()?;
        let n = r.take_len()?;
        let mut entries = r.vec_for(n);
        for _ in 0..n {
            let at = SimTime::unsnap(r)?;
            if at < now {
                return Err(r.malformed("calendar entry scheduled before now"));
            }
            let entry_seq = r.take_u64()?;
            entries.push((at, entry_seq, E::unsnap(r)?));
        }
        Ok(Calendar::from_parts(now, seq, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(5), 1);
        cal.schedule(SimTime::from_us(1), 2);
        cal.schedule(SimTime::from_us(5), 3);
        cal.schedule(SimTime::from_us(3), 4);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn now_tracks_pops() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(7), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_us(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn rejects_past_events() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(10), ());
        cal.pop();
        cal.schedule(SimTime::from_us(5), ());
    }

    #[test]
    fn same_instant_scheduling_is_allowed() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(10), 1);
        cal.pop();
        // Scheduling *at* now models a SystemC delta cycle.
        cal.schedule(cal.now(), 2);
        assert_eq!(cal.pop(), Some((SimTime::from_us(10), 2)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(1), "a");
        cal.schedule(SimTime::from_us(10), "d");
        assert_eq!(cal.pop().unwrap().1, "a");
        cal.schedule(cal.now() + SimDuration::from_us(2), "b");
        cal.schedule(cal.now() + SimDuration::from_us(4), "c");
        let rest: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["b", "c", "d"]);
    }

    #[test]
    fn advance_to_clamps_at_pending_events() {
        let mut cal: Calendar<()> = Calendar::new();
        // Empty calendar: advance freely, never backwards.
        assert_eq!(cal.advance_to(SimTime::from_us(50)), SimTime::from_us(50));
        assert_eq!(cal.advance_to(SimTime::from_us(10)), SimTime::from_us(50));
        assert_eq!(cal.now(), SimTime::from_us(50));
        // A pending event bounds the advance.
        cal.schedule(SimTime::from_us(70), ());
        assert_eq!(cal.advance_to(SimTime::from_us(100)), SimTime::from_us(70));
        cal.pop();
        assert_eq!(cal.advance_to(SimTime::from_us(100)), SimTime::from_us(100));
    }

    #[test]
    fn entries_and_from_parts_preserve_dispatch_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(5), "b");
        cal.schedule(SimTime::from_us(1), "a");
        cal.schedule(SimTime::from_us(5), "c");
        cal.pop(); // consume "a" so `now` is nonzero
        let parts: Vec<_> = cal
            .entries()
            .into_iter()
            .map(|(at, seq, e)| (at, seq, *e))
            .collect();
        let mut rebuilt = Calendar::from_parts(cal.now(), cal.next_seq(), parts);
        let orig: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        let back: Vec<_> = std::iter::from_fn(|| rebuilt.pop()).collect();
        assert_eq!(orig, back);
        // The seq counter carried over: same-instant inserts after the
        // rebuild still dispatch after the restored entries.
        assert_eq!(cal.next_seq(), rebuilt.next_seq());
    }

    #[test]
    fn snap_roundtrip_is_exact() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(9), 4u32);
        cal.schedule(SimTime::from_us(2), 7u32);
        cal.pop();
        let mut w = SnapWriter::new();
        cal.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = Calendar::<u32>::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.now(), cal.now());
        assert_eq!(back.next_seq(), cal.next_seq());
        assert_eq!(back.pop(), cal.pop());
    }

    #[test]
    fn snap_rejects_entry_before_now() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(10), 1u32);
        cal.pop();
        cal.schedule(SimTime::from_us(20), 2u32);
        let mut w = SnapWriter::new();
        cal.snap(&mut w);
        let mut bytes = w.into_bytes();
        // Rewrite the entry time (after now=10us + seq u64 + len u64) to zero.
        let entry_at = 8 + 8 + 8;
        bytes[entry_at..entry_at + 8].fill(0);
        let mut r = SnapReader::new(&bytes);
        assert!(Calendar::<u32>::unsnap(&mut r).is_err());
    }

    #[test]
    fn len_and_is_empty() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule(SimTime::from_us(1), ());
        cal.schedule(SimTime::from_us(2), ());
        assert_eq!(cal.len(), 2);
        cal.pop();
        cal.pop();
        assert!(cal.is_empty());
    }
}
