//! Observation helpers: exact simulator facts read from public
//! accessors, a digest of them, and [`Probe`], a scenario wrapper that
//! lets a `Campaign` report each run's simulated slots, work counts and
//! host time without changing what the run does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use btsim_baseband::LcEvent;
use btsim_core::scenario::Scenario;
use btsim_core::{LoggedEvent, Simulator};
use btsim_stats::Record;

/// Exact, deterministic counts of one simulator (or a sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimFacts {
    /// Simulated 625 µs slots.
    pub slots: u64,
    /// Calendar events dispatched.
    pub steps: u64,
    /// Medium transmissions.
    pub transmissions: u64,
    /// Transmissions that collided.
    pub collided: u64,
    /// LC events logged.
    pub lc_events: u64,
    /// LM events logged.
    pub lm_events: u64,
    /// Links promoted to the statistical tier.
    pub promotions: u64,
    /// Links demoted back to bit level.
    pub demotions: u64,
    /// Fold of the random streams' positions.
    pub rng: u64,
}

impl SimFacts {
    /// Counts of a simulator since time zero.
    pub fn of(sim: &Simulator) -> Self {
        let tx = sim.tx_stats();
        let (promotions, demotions) = fidelity_changes(sim.events());
        SimFacts {
            slots: sim.now().slots(),
            steps: sim.steps_total(),
            transmissions: tx.transmissions,
            collided: tx.collided,
            lc_events: sim.events().len() as u64,
            lm_events: sim.lm_events().len() as u64,
            promotions,
            demotions,
            rng: sim.rng_fingerprint(),
        }
    }

    /// Field-wise difference of two snapshots of one simulator; the
    /// random-stream fold is the later one's.
    pub fn since(&self, earlier: &SimFacts) -> SimFacts {
        SimFacts {
            slots: self.slots - earlier.slots,
            steps: self.steps - earlier.steps,
            transmissions: self.transmissions - earlier.transmissions,
            collided: self.collided - earlier.collided,
            lc_events: self.lc_events - earlier.lc_events,
            lm_events: self.lm_events - earlier.lm_events,
            promotions: self.promotions - earlier.promotions,
            demotions: self.demotions - earlier.demotions,
            rng: self.rng,
        }
    }

    /// Accumulates `other` (counts add, random folds combine in order).
    pub fn add(&mut self, other: &SimFacts) {
        self.slots += other.slots;
        self.steps += other.steps;
        self.transmissions += other.transmissions;
        self.collided += other.collided;
        self.lc_events += other.lc_events;
        self.lm_events += other.lm_events;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.rng = self.rng.rotate_left(5) ^ other.rng;
    }
}

/// `(promotions, demotions)` logged in `events`.
pub fn fidelity_changes(events: &[LoggedEvent]) -> (u64, u64) {
    events.iter().fold((0, 0), |(p, d), e| match e.event {
        LcEvent::FidelityChanged { promoted: true, .. } => (p + 1, d),
        LcEvent::FidelityChanged {
            promoted: false, ..
        } => (p, d + 1),
        _ => (p, d),
    })
}

/// FNV-1a digest over the `Debug` rendering of what is folded in: the
/// same seed must give the same digest on every run and host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds the `Debug` rendering of `value`.
    pub fn add(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A scenario wrapper: runs the inner scenario unchanged and returns
/// its outcome with the run's [`SimFacts`] and host times. A panic in
/// the run becomes an outcome with `outcome: None` instead of tearing
/// down the campaign's worker threads.
#[derive(Debug, Clone)]
pub struct Probe<S> {
    inner: S,
    epoch: Instant,
}

impl<S> Probe<S> {
    /// Wraps `inner`; host times are measured from `epoch`.
    pub fn new(inner: S, epoch: Instant) -> Self {
        Self { inner, epoch }
    }

    /// The wrapped scenario.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Outcome of one probed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Probed<O> {
    /// The inner scenario's outcome; `None` when the run panicked.
    pub outcome: Option<O>,
    /// Exact counts of the finished simulator.
    pub facts: SimFacts,
    /// Host ns (since the probe's epoch) when the run started.
    pub start: u64,
    /// Host ns when the simulator was built and driving began.
    pub built: u64,
    /// Host ns when the run ended.
    pub end: u64,
}

impl<O: Record> Record for Probed<O> {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.outcome.as_ref().map_or_else(Vec::new, Record::metrics)
    }

    fn completed(&self) -> bool {
        self.outcome.as_ref().is_some_and(Record::completed)
    }
}

impl<S: Scenario> Scenario for Probe<S> {
    type Config = S::Config;
    type Outcome = Probed<S::Outcome>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &S::Config {
        self.inner.config()
    }

    fn build(&self, seed: u64) -> Simulator {
        self.inner.build(seed)
    }

    fn drive(&self, sim: &mut Simulator) -> Self::Outcome {
        let start = self.ns();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.inner.drive(sim))).ok();
        Probed {
            outcome,
            facts: SimFacts::of(sim),
            start,
            built: start,
            end: self.ns(),
        }
    }

    fn run(&self, seed: u64) -> Self::Outcome {
        let start = self.ns();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = self.inner.build(seed);
            let built = self.ns();
            let outcome = self.inner.drive(&mut sim);
            (outcome, SimFacts::of(&sim), built)
        }));
        let end = self.ns();
        match ran {
            Ok((outcome, facts, built)) => Probed {
                outcome: Some(outcome),
                facts,
                start,
                built,
                end,
            },
            Err(_) => Probed {
                outcome: None,
                facts: SimFacts::default(),
                start,
                built: end,
                end,
            },
        }
    }
}
