//! The event calendar: a time-ordered queue driving the simulation.
//!
//! Events scheduled for the same instant are dispatched in insertion
//! order (FIFO), which mirrors the determinism of a SystemC delta-cycle
//! evaluation queue and makes every simulation bit-reproducible.
//!
//! Like the SystemC kernel, the calendar keeps a runnable FIFO per
//! pending instant and orders only the FIFOs, in a min-heap of small
//! keys. A simulation's events cluster on a few instants (every device
//! ticks on the shared half-slot grid), so most dispatches pop the front
//! of the earliest FIFO without touching the heap, and most schedules
//! append to a FIFO that already exists.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Heap key of one FIFO: its instant, the seq of its first event and
/// its index in `Calendar::fifos`. `(instant, seq)` is unique.
type Key = (SimTime, u64, u32);

/// Initial size of [`Calendar`]'s instant lookup table.
const MIN_RECENT: usize = 16;

/// Slot of `at` in a lookup table of `len` (a power of two) entries:
/// the top bits of a multiplicative hash.
fn recent_slot(at: SimTime, len: usize) -> usize {
    (at.ns().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

#[derive(Debug, Clone)]
struct Fifo<E> {
    at: SimTime,
    queue: VecDeque<(u64, E)>,
}

/// A binary min-heap of FIFO keys with an in-place root replacement.
#[derive(Debug, Clone, Default)]
struct KeyHeap(Vec<Key>);

/// Heap order: `(at, seq)`, which is unique per key.
fn before(a: &Key, b: &Key) -> bool {
    (a.0, a.1) < (b.0, b.1)
}

impl KeyHeap {
    fn push(&mut self, key: Key) {
        let h = &mut self.0;
        h.push(key);
        let mut i = h.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if !before(&key, &h[parent]) {
                break;
            }
            h[i] = h[parent];
            i = parent;
        }
        h[i] = key;
    }

    /// Replaces the root with `key` and restores the heap order.
    fn replace_root(&mut self, key: Key) {
        let h = self.0.as_mut_slice();
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= h.len() {
                break;
            }
            if child + 1 < h.len() {
                // Branch-free pick of the earlier child: on random keys
                // a branch here mispredicts half the time.
                child += usize::from(before(&h[child + 1], &h[child]));
            }
            if !before(&h[child], &key) {
                break;
            }
            h[i] = h[child];
            i = child;
        }
        h[i] = key;
    }

    fn pop_root(&mut self) -> Option<Key> {
        let last = self.0.pop()?;
        match self.0.first() {
            Some(&root) => {
                self.replace_root(last);
                Some(root)
            }
            None => Some(last),
        }
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
    /// The keys of the pending FIFOs, earliest first.
    heap: KeyHeap,
    /// The root's FIFO has just run empty. It stays in place until the
    /// next `pop`, so that a new instant scheduled meanwhile can take
    /// over its FIFO and heap slot: one sift instead of a pop and a push.
    spent_root: bool,
    /// Per-instant FIFOs of `(seq, event)`. A FIFO is non-empty exactly
    /// while it is pending; empty ones are listed in `free` (or are the
    /// spent root) and keep their capacity for the next instant.
    fifos: Vec<Fifo<E>>,
    free: Vec<u32>,
    /// Direct-mapped instant → FIFO lookup, indexed by a hash of the
    /// instant. An entry is current while its FIFO is non-empty and at
    /// that instant; stale and evicted entries just miss.
    recent: Vec<(SimTime, u32)>,
    len: usize,
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
            heap: KeyHeap::default(),
            spent_root: false,
            fifos: Vec::new(),
            free: Vec::new(),
            recent: vec![(SimTime::ZERO, u32::MAX); MIN_RECENT],
            len: 0,
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
        self.insert(at, self.seq, event);
        self.seq += 1;
    }

    /// Appends `(seq, event)` to the FIFO of `at`.
    ///
    /// The FIFO comes from `recent`, or is opened on a miss. A miss may
    /// open a second FIFO for an instant that is still pending (its
    /// entry was evicted). That keeps the order: `recent` then names the
    /// new FIFO, so nothing is appended to the older one again, and the
    /// older one's key sorts first on its first seq. Callers insert in
    /// ascending `seq` order, so dispatch stays in `(at, seq)` order.
    fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        let slot = recent_slot(at, self.recent.len());
        let (t, fifo) = self.recent[slot];
        let fifo = match self.fifos.get(fifo as usize) {
            Some(f) if t == at && f.at == at && !f.queue.is_empty() => fifo,
            _ => self.open(at, seq),
        };
        self.fifos[fifo as usize].queue.push_back((seq, event));
        self.len += 1;
    }

    /// Opens an empty FIFO for `at` whose first event will carry `seq`.
    fn open(&mut self, at: SimTime, seq: u64) -> u32 {
        let fifo = if self.spent_root {
            self.spent_root = false;
            let fifo = self.heap.0[0].2;
            self.heap.replace_root((at, seq, fifo));
            fifo
        } else {
            let fifo = self.free.pop().unwrap_or_else(|| {
                self.fifos.push(Fifo {
                    at,
                    queue: VecDeque::new(),
                });
                u32::try_from(self.fifos.len() - 1).expect("fewer than 2^32 pending instants")
            });
            self.heap.push((at, seq, fifo));
            fifo
        };
        self.fifos[fifo as usize].at = at;
        if self.heap.0.len() * 2 > self.recent.len() {
            // Keep the table at most half full. Forgetting every entry
            // keeps the order (see `insert`) and happens only
            // O(log instants) times.
            self.recent = vec![(SimTime::ZERO, u32::MAX); self.recent.len() * 2];
        }
        let slot = recent_slot(at, self.recent.len());
        self.recent[slot] = (at, fifo);
        fifo
    }

    /// Removes and returns the earliest event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.spent_root {
            self.spent_root = false;
            let (_, _, fifo) = self.heap.pop_root()?;
            self.free.push(fifo);
        }
        let &(at, _, fifo) = self.heap.0.first()?;
        let queue = &mut self.fifos[fifo as usize].queue;
        let (_, event) = queue.pop_front()?;
        self.spent_root = queue.is_empty();
        self.len -= 1;
        self.now = at;
        Some((at, event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let h = &self.heap.0;
        let next = if self.spent_root {
            // The spent root's children hold the earliest pending key.
            h[1..h.len().min(3)].iter().min()
        } else {
            h.first()
        };
        next.map(|&(at, _, _)| at)
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

    /// Iterates over all pending events in arbitrary order.
    ///
    /// Useful for horizon scans that need the earliest event of a given
    /// kind without disturbing the queue; callers must not rely on any
    /// particular ordering.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap.0.iter().flat_map(move |&(at, _, fifo)| {
            self.fifos[fifo as usize]
                .queue
                .iter()
                .map(move |(_, e)| (at, e))
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshot export: every pending entry as `(time, insertion seq,
    /// event)` sorted by `(time, seq)`, i.e. exact dispatch order.
    ///
    /// Together with [`Calendar::now`] and [`Calendar::next_seq`] this is
    /// the calendar's complete state; [`Calendar::from_parts`] rebuilds
    /// an identical queue from it.
    pub fn entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut keys = self.heap.0.clone();
        keys.sort_unstable();
        keys.into_iter()
            .flat_map(|(at, _, fifo)| {
                self.fifos[fifo as usize]
                    .queue
                    .iter()
                    .map(move |(seq, e)| (at, *seq, e))
            })
            .collect()
    }

    /// The sequence number the next [`Calendar::schedule`] will use.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Snapshot import: rebuilds a calendar from [`Calendar::entries`]
    /// output (entry `seq`s are preserved verbatim, so FIFO dispatch
    /// within an instant is bit-identical to the snapshotted queue).
    /// `next_seq` must exceed every entry's seq, as it does in a
    /// calendar's own export.
    pub fn from_parts(now: SimTime, next_seq: u64, mut entries: Vec<(SimTime, u64, E)>) -> Self {
        entries.sort_by_key(|&(at, seq, _)| (at, seq));
        let mut cal = Self {
            seq: next_seq,
            now,
            ..Self::new()
        };
        for (at, seq, event) in entries {
            cal.insert(at, seq, event);
        }
        cal
    }
}

impl<E: crate::snap::Snap> crate::snap::Snap for Calendar<E> {
    fn snap(&self, w: &mut crate::snap::SnapWriter) {
        // The queue is written through `entries`, in dispatch order.
        let Calendar { seq, now, .. } = self;
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
        let mut prev: Option<(SimTime, u64)> = None;
        for _ in 0..n {
            let at = SimTime::unsnap(r)?;
            if at < now {
                return Err(r.malformed("calendar entry scheduled before now"));
            }
            let entry_seq = r.take_u64()?;
            if entry_seq >= seq {
                return Err(r.malformed("calendar entry seq not below the next seq"));
            }
            // `entries` writes dispatch order; any other order would
            // dispatch differently depending on how the queue is built.
            if prev.is_some_and(|p| p >= (at, entry_seq)) {
                return Err(r.malformed("calendar entries not in (time, seq) order"));
            }
            prev = Some((at, entry_seq));
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
    fn snap_rejects_entries_that_could_dispatch_differently() {
        use crate::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
        // A calendar image at now = 0 with next seq 10 and these
        // `(time µs, seq)` entries.
        let decode = |entries: &[(u64, u64)]| {
            let mut w = SnapWriter::new();
            SimTime::ZERO.snap(&mut w);
            10u64.snap(&mut w);
            w.put_usize(entries.len());
            for &(us, seq) in entries {
                SimTime::from_us(us).snap(&mut w);
                seq.snap(&mut w);
                7u32.snap(&mut w);
            }
            let bytes = w.into_bytes();
            Calendar::<u32>::unsnap(&mut SnapReader::new(&bytes))
        };
        let malformed = |r: Result<Calendar<u32>, SnapshotError>| {
            matches!(r, Err(SnapshotError::Malformed { .. }))
        };
        assert!(decode(&[(1, 3), (1, 4), (2, 0)]).is_ok());
        // Same instant, seqs descending or repeated.
        assert!(malformed(decode(&[(1, 4), (1, 3)])));
        assert!(malformed(decode(&[(1, 4), (1, 4)])));
        // Times descending.
        assert!(malformed(decode(&[(2, 0), (1, 1)])));
        // A seq the next schedule would reuse, or beyond it.
        assert!(malformed(decode(&[(1, 10)])));
        assert!(malformed(decode(&[(1, 3), (2, 11)])));
    }

    #[test]
    fn spent_root_is_reused_or_dropped_in_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_us(1), 'a');
        cal.schedule(SimTime::from_us(3), 'c');
        cal.schedule(SimTime::from_us(4), 'd');
        assert_eq!(cal.pop(), Some((SimTime::from_us(1), 'a')));
        // The earliest FIFO ran empty: the next instant shows through it.
        assert_eq!(cal.peek_time(), Some(SimTime::from_us(3)));
        // A new instant takes over the spent FIFO and sorts correctly.
        cal.schedule(SimTime::from_us(2), 'b');
        assert_eq!(cal.peek_time(), Some(SimTime::from_us(2)));
        // So does a delta-cycle event at the spent instant itself.
        assert_eq!(cal.pop(), Some((SimTime::from_us(2), 'b')));
        cal.schedule(SimTime::from_us(2), 'B');
        cal.schedule(SimTime::from_us(5), 'e');
        let rest: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!['B', 'c', 'd', 'e']);
        assert_eq!(cal.peek_time(), None);
        assert!(cal.is_empty());
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
