//! Property-based tests of the simulation kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use btsim_kernel::{Calendar, FlipRate, SimDuration, SimRng, SimTime, Wire};
use proptest::prelude::*;

/// The calendar's pending entries as sorted `(time, seq)` pairs, read
/// through `iter` (events carry their own seq).
fn iter_multiset(cal: &Calendar<u64>) -> Vec<(SimTime, u64)> {
    let mut v: Vec<_> = cal.iter().map(|(at, &seq)| (at, seq)).collect();
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn calendar_pops_in_time_then_fifo_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(x) = cal.pop() {
            popped.push(x);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO order violated at equal times");
            }
        }
    }

    #[test]
    fn calendar_interleaved_schedule_respects_causality(
        steps in prop::collection::vec((0u64..1000, any::<bool>()), 1..100)
    ) {
        let mut cal = Calendar::new();
        let mut last = SimTime::ZERO;
        for (delay, pop_first) in steps {
            if pop_first {
                if let Some((t, _)) = cal.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }
            cal.schedule(cal.now() + SimDuration::from_ns(delay), 0u8);
        }
    }

    /// The calendar against a reference `BinaryHeap` of `(time, seq)`:
    /// random interleavings of `schedule`, `pop`, `advance_to` and an
    /// `entries`/`from_parts` round trip must pop the same sequence.
    /// `distinct` of 4 schedules pick a random nanosecond offset (an
    /// instant of their own); the rest reuse the half-slot lattice,
    /// `now` included, so many events share few instants.
    #[test]
    fn calendar_matches_a_reference_heap(
        distinct in 0u64..=4,
        ops in prop::collection::vec((0u8..16, any::<u64>()), 1..600)
    ) {
        let mut cal: Calendar<u64> = Calendar::new();
        let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for (kind, v) in ops {
            match kind {
                0..=8 => {
                    let offset = if v % 4 < distinct {
                        SimDuration::from_ns(v % 1_000_000)
                    } else {
                        SimDuration::from_ns(SimDuration::HALF_SLOT.ns() * (v % 5))
                    };
                    cal.schedule(now + offset, seq);
                    model.push(Reverse((now + offset, seq)));
                    seq += 1;
                }
                9..=12 => {
                    let want = model.pop().map(|Reverse(e)| e);
                    if let Some((at, _)) = want {
                        now = at;
                    }
                    prop_assert_eq!(cal.pop(), want);
                }
                13 => {
                    let to = now + SimDuration::from_ns(v % 2_000_000);
                    let limit = model.peek().map_or(to, |Reverse((at, _))| (*at).min(to));
                    now = now.max(limit);
                    prop_assert_eq!(cal.advance_to(to), now);
                }
                _ => {
                    let mut want: Vec<_> = model.iter().map(|Reverse(e)| *e).collect();
                    want.sort_unstable();
                    prop_assert_eq!(iter_multiset(&cal), want.clone());
                    let entries: Vec<_> =
                        cal.entries().into_iter().map(|(at, s, &e)| (at, s, e)).collect();
                    let in_order: Vec<_> = entries.iter().map(|&(at, s, _)| (at, s)).collect();
                    prop_assert_eq!(in_order, want);
                    prop_assert!(entries.iter().all(|&(_, s, e)| s == e));
                    // Rebuild from the entries in reverse: `from_parts` sorts.
                    let mut reversed = entries;
                    reversed.reverse();
                    cal = Calendar::from_parts(cal.now(), cal.next_seq(), reversed);
                }
            }
            prop_assert_eq!(cal.now(), now);
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(cal.peek_time(), model.peek().map(|Reverse((at, _))| *at));
            prop_assert_eq!(cal.next_seq(), seq);
        }
        prop_assert_eq!(iter_multiset(&cal).len(), model.len());
        while let Some(Reverse(want)) = model.pop() {
            prop_assert_eq!(cal.pop(), Some(want));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    #[test]
    fn rng_streams_are_reproducible(seed: u64, stream: u64, draws in 1usize..50) {
        let mut a = SimRng::new(seed).fork(stream);
        let mut b = SimRng::new(seed).fork(stream);
        for _ in 0..draws {
            prop_assert_eq!(a.range_u64(u64::MAX), b.range_u64(u64::MAX));
        }
    }

    #[test]
    fn flip_gap_handles_all_bers(seed: u64, ber in 0.0f64..1.0) {
        let mut r = SimRng::new(seed);
        let gap = r.next_flip_gap(ber);
        if ber <= 0.0 {
            prop_assert_eq!(gap, u64::MAX);
        }
        let _ = gap;
    }

    #[test]
    fn flip_gaps_at_a_prepared_rate_equal_the_per_draw_form(seed: u64, draws in 1usize..200) {
        for ber in [1e-9, 1e-4, 1.0 / 30.0, 0.5] {
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            let rate = FlipRate::new(ber);
            for _ in 0..draws {
                prop_assert_eq!(a.next_flip_gap(ber), b.next_flip_gap_at(rate));
            }
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn wire_resolution_is_order_independent(
        drivers in prop::collection::vec(prop::sample::select(vec![Wire::L0, Wire::L1, Wire::Z, Wire::X]), 0..6)
    ) {
        let forward = Wire::resolve(drivers.iter().copied());
        let mut reversed = drivers.clone();
        reversed.reverse();
        prop_assert_eq!(forward, Wire::resolve(reversed));
        // Any split point folds to the same result.
        for split in 0..=drivers.len() {
            let left = Wire::resolve(drivers[..split].iter().copied());
            let right = Wire::resolve(drivers[split..].iter().copied());
            prop_assert_eq!(left.resolve_with(right), forward);
        }
    }

    #[test]
    fn time_arithmetic_is_consistent(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let t = SimTime::from_ns(a);
        let d = SimDuration::from_ns(b);
        prop_assert_eq!((t + d).since(t), d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(SimDuration::from_slots(3).ns(), 3 * 625_000);
    }
}
