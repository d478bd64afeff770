//! Scenario layer: the "application layer" test benches of the paper.
//!
//! Each scenario builds a simulator, drives the devices through a
//! procedure (piconet creation, traffic with a low-power mode, …) and
//! distils an outcome. Scenarios are deterministic functions of a seed,
//! which makes whole Monte-Carlo campaigns reproducible.
//!
//! All workloads implement the [`Scenario`] trait, which splits a run
//! into [`Scenario::build`] (compose the seeded simulator) and
//! [`Scenario::drive`] (issue commands, advance time, distil the
//! outcome). Campaign engines only need [`Scenario::run`]; waveform and
//! debugging code calls the two halves separately to keep the
//! [`Simulator`] — and its traces, power report and event log — after
//! the outcome is extracted.

mod afh;
mod creation;
mod link;
mod traffic;

pub use afh::{AfhAdaptConfig, AfhAdaptOutcome, AfhAdaptScenario};
pub use creation::{
    CoexistenceConfig, CoexistenceScenario, CreationConfig, CreationOutcome, CreationScenario,
    InquiryConfig, InquiryOutcome, InquiryScenario, PageConfig, PageOutcome, PageScenario,
};
pub use link::{
    GoodputConfig, GoodputOutcome, GoodputScenario, ScoLinkConfig, ScoLinkOutcome, ScoLinkScenario,
};
pub use traffic::{
    connect_pair, HoldConfig, HoldScenario, ModeActivity, ParkConfig, ParkScenario, SniffConfig,
    SniffScenario, TrafficConfig, TrafficOutcome, TrafficScenario,
};

use btsim_kernel::SimTime;
use btsim_stats::Record;

use crate::{SimConfig, Simulator};

/// Sums the ACL payload bytes `device` received strictly after `start`
/// — the goodput numerator shared by the transfer-measuring scenarios.
pub(crate) fn acl_bytes_since(sim: &Simulator, device: usize, start: SimTime) -> usize {
    use btsim_baseband::LcEvent;
    sim.events()
        .iter()
        .filter(|e| e.device == device && e.at > start)
        .filter_map(|e| match &e.event {
            LcEvent::AclReceived { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum()
}

/// A reproducible system-level workload.
///
/// A scenario is a deterministic function of a seed: [`Scenario::build`]
/// composes the simulator (devices, channel, configuration) and
/// [`Scenario::drive`] runs the procedure and distils a structured
/// [`Record`] outcome. [`Scenario::run`] chains the two for callers that
/// don't need the simulator afterwards — Monte-Carlo campaigns use it as
/// their unit of work (see [`crate::campaign::Campaign`]).
///
/// # Examples
///
/// ```
/// use btsim_core::scenario::{InquiryConfig, InquiryScenario, Scenario};
///
/// let scenario = InquiryScenario::new(InquiryConfig::default());
/// let outcome = scenario.run(42);
/// assert!(outcome.completed);
///
/// // The two-phase form keeps the simulator for inspection.
/// let mut sim = scenario.build(42);
/// let again = scenario.drive(&mut sim);
/// assert_eq!(outcome, again);
/// assert!(sim.now().slots() >= again.slots);
/// ```
pub trait Scenario {
    /// The scenario's configuration type.
    type Config;

    /// The structured per-run outcome.
    type Outcome: Record + Send;

    /// A short stable name (used for labels and the registry).
    fn name(&self) -> &'static str;

    /// The configuration this scenario was created with.
    fn config(&self) -> &Self::Config;

    /// Composes the seeded simulator for one run.
    fn build(&self, seed: u64) -> Simulator;

    /// Drives the procedure on a simulator made by [`Scenario::build`]
    /// and distils the outcome.
    fn drive(&self, sim: &mut Simulator) -> Self::Outcome;

    /// Runs one seeded realisation (build + drive).
    fn run(&self, seed: u64) -> Self::Outcome {
        let mut sim = self.build(seed);
        self.drive(&mut sim)
    }

    /// Optional formation phase for snapshot-forking campaigns.
    ///
    /// A scenario whose procedure splits into an expensive *formation*
    /// prefix (topology creation: paging, scatternet assembly) and a
    /// measurement suffix can return the simulator as of the end of
    /// formation; [`crate::campaign::Campaign`] then forms **once** per
    /// sweep point, snapshots, and forks every run from the snapshot
    /// ([`crate::SimSnapshot`] + [`Simulator::reseed_for_fork`]) instead
    /// of re-forming per run.
    ///
    /// Implementors must uphold the split invariant: for every seed,
    /// `form(seed)` followed by [`Scenario::drive_formed`] produces the
    /// same outcome as [`Scenario::run`]`(seed)` (gated by
    /// `tests/snapshot_equivalence.rs` for the scatternet scenarios).
    /// The default returns `None`: the scenario has no separable
    /// formation phase and campaigns fall back to per-run builds.
    fn form(&self, _seed: u64) -> Option<Simulator> {
        None
    }

    /// Drives the measurement suffix on a simulator positioned at the
    /// end of the formation phase (one produced by [`Scenario::form`],
    /// or a restored snapshot of one). The default assumes no split and
    /// delegates to [`Scenario::drive`].
    fn drive_formed(&self, sim: &mut Simulator) -> Self::Outcome {
        self.drive(sim)
    }
}

/// The calibrated configuration reproducing the paper's behavioural
/// model. Each knob and the paper anchor it is calibrated against (the
/// `ext_ablation` experiment shows why the two page-phase knobs are
/// needed):
///
/// * page-response FHS without payload FEC plus the spec's R1 page-scan
///   windowing (11.25 ms window / 1.28 s interval) — the fragile elements
///   that make the page phase collapse for BER > 1/30 while inquiry,
///   whose FHS keeps the spec 2/3 FEC and whose scan is continuous
///   ("RF receiver always active", paper Fig. 5), survives;
/// * inquiry first-ID backoff up to 2350 slots, cheap post-response
///   re-arming (≤128 slots) and 0.32 s train switching, which put the
///   zero-noise mean inquiry duration at the paper's ≈1556 slots rising
///   to ≈1800 at BER 1/30;
/// * 27 µs slot-start carrier-detect windows and T_poll = 100, which land
///   the active-mode slave RF floor at the paper's 2.6%.
///
/// To retune a knob, print the series it is calibrated against with the
/// `experiments` binary of `btsim-bench` (seed 11599966 = `0xB1005E`,
/// the registry's default base seed):
///
/// ```text
/// experiments fig6_inquiry_vs_ber fig7_page_vs_ber fig8_creation_failure --runs 60 --seed 11599966
/// experiments fig10_master_rf fig11_sniff_activity fig12_hold_activity --runs 1 --seed 11599966
/// ```
pub fn paper_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.lc.page_fhs_fec = false;
    cfg.lc.inquiry_scan_continuous = true;
    cfg.lc.page_scan_continuous = false;
    cfg.lc.page_scan_interval_slots = 2048;
    cfg.lc.page_scan_window_slots = 18;
    cfg.lc.inquiry_backoff_max = 2350;
    cfg.lc.inquiry_rearm_backoff_max = 128;
    cfg.lc.train_switch_slots = 512;
    cfg.lc.peek_us = 27;
    cfg.lc.t_poll_slots = 100;
    cfg.lc.page_resp_timeout_slots = 16;
    cfg
}
