//! Fault-injection experiments: the robustness counterpart of the
//! paper's throughput figures.
//!
//! Three workloads exercise the fault subsystem end to end (plan →
//! simulator → supervision → recovery → router):
//!
//! * [`fault_recovery`] — a bridged chain loses its bridge to a crash;
//!   the recovery-on arm re-forms the scatternet and returns to full
//!   delivery, the recovery-off control collapses to the analytic
//!   pre-crash floor.
//! * [`fault_churn`] — slaves of one piconet crash and revive on a
//!   seeded calendar ([`FaultPlan::churn`]); delivery degrades
//!   gracefully with the churn rate while the supervisor re-pages
//!   revived members.
//! * [`fault_degrade_heal`] — one link's BER ramps up and later heals;
//!   goodput dips during the degradation window and recovers after.
//!
//! All three anchor their fault calendars at *absolute* slots (the plan
//! is fixed at build time, formation length varies per seed), so the
//! measurement phase starts at a fixed slot and a run whose formation
//! overruns that anchor is reported as not completed rather than
//! silently shifting the windows. A user-supplied [`ExpOptions::faults`]
//! plan (the `--faults` flag) replaces the scenario's default calendar.

use btsim_baseband::LcCommand;
use btsim_kernel::{SimDuration, SimTime};
use btsim_stats::{Record, Table};

use crate::campaign::{Campaign, ExpOptions};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
use crate::net::{
    form_scatternet, register_devices, schedule_bridge, BridgeLink, BridgePlan, FormationStatus,
    Recovery, RecoveryConfig, Router, ScatternetMap, Topology, MAX_RELAY_PAYLOAD,
};
use crate::scenario::{paper_config, Scenario};
use crate::{SimBuilder, SimConfig, Simulator};

/// Absolute slot of a plan anchor as a [`SimTime`].
fn at_slot(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_slots(n)
}

// ---------------------------------------------------------------------------
// Bridge-death chain.

/// Configuration of the bridge-death recovery scenario.
#[derive(Debug, Clone)]
pub struct FaultRecoveryConfig {
    /// Piconets in the chain (≥ 2; the single bridge of a 2-piconet
    /// chain is the default victim).
    pub piconets: usize,
    /// Plain slaves per piconet (≥ 1; endpoints are plain slaves).
    pub slaves_per_piconet: usize,
    /// Bridge time-multiplexing plan (also applied to re-formed
    /// bridges).
    pub plan: BridgePlan,
    /// Slots between injected messages. Keep this a multiple of
    /// `pump_every_slots` so injection stays slot-aligned.
    pub msg_period_slots: u64,
    /// Payload bytes per message (clamped to [`MAX_RELAY_PAYLOAD`]).
    pub payload_bytes: usize,
    /// T_poll configured on every master.
    pub t_poll: u32,
    /// Absolute slot at which traffic starts. Formation must finish
    /// before this anchor or the run reports as not completed.
    pub traffic_start_slot: u64,
    /// Absolute slot of the default bridge crash.
    pub crash_slot: u64,
    /// Slots after the crash excluded from the post window (detection
    /// plus re-formation headroom).
    pub post_grace_slots: u64,
    /// Length of the post-recovery measurement window, in slots.
    pub post_window_slots: u64,
    /// Extra slots after the injection window for in-flight messages.
    pub drain_slots: u64,
    /// Cap for each join page during formation.
    pub join_cap_slots: u64,
    /// Recovery policy; `enabled: false` is the control arm.
    pub recovery: RecoveryConfig,
    /// Router/recovery pump cadence, in slots.
    pub pump_every_slots: u64,
    /// Simulator configuration. When its fault plan is empty the
    /// scenario installs the default bridge crash at `crash_slot`.
    pub sim: SimConfig,
}

impl Default for FaultRecoveryConfig {
    fn default() -> Self {
        Self {
            piconets: 2,
            slaves_per_piconet: 1,
            plan: BridgePlan::default(),
            msg_period_slots: 192,
            payload_bytes: MAX_RELAY_PAYLOAD,
            t_poll: 16,
            traffic_start_slot: 6_144,
            crash_slot: 12_288,
            post_grace_slots: 6_144,
            post_window_slots: 6_144,
            drain_slots: 2_048,
            join_cap_slots: 4_096,
            // Two retries keep the give-up + re-formation path inside
            // `post_grace_slots`; the library default of six would
            // still be backing off when the post window opens.
            recovery: RecoveryConfig {
                max_retries: 2,
                ..RecoveryConfig::default()
            },
            pump_every_slots: 64,
            sim: paper_config(),
        }
    }
}

/// Outcome of one bridge-death run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecoveryOutcome {
    /// Formation finished before the traffic anchor.
    pub connected: bool,
    /// Which join failed when formation did not complete.
    pub formation: FormationStatus,
    /// Messages injected at the source.
    pub sent: u64,
    /// Messages delivered end to end.
    pub delivered: u64,
    /// Messages injected before the crash slot.
    pub pre_sent: u64,
    /// Pre-crash injections that were delivered.
    pub pre_delivered: u64,
    /// Messages injected at or after `crash + post_grace`.
    pub post_sent: u64,
    /// Post-window injections that were delivered.
    pub post_delivered: u64,
    /// Link losses the supervisor detected.
    pub losses: u64,
    /// Mean fault→supervision-verdict latency, in slots (0 if none).
    pub detection_latency_slots: f64,
    /// Mean detection→link-back time, in slots (0 if none).
    pub reformation_slots: f64,
    /// Links brought back by re-paging the original member.
    pub recovered: u64,
    /// New bridge links formed around an unrecoverable device.
    pub reformed: u64,
    /// Lost links abandoned after the retry budget.
    pub gave_up: u64,
    /// Frames still in flight at the end (orphaned by dead routes).
    pub orphaned: u64,
}

impl FaultRecoveryOutcome {
    fn ratio(den: u64, num: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }
}

impl Record for FaultRecoveryOutcome {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("delivered", Self::ratio(self.sent, self.delivered)),
            (
                "pre_delivered",
                Self::ratio(self.pre_sent, self.pre_delivered),
            ),
            (
                "post_delivered",
                Self::ratio(self.post_sent, self.post_delivered),
            ),
            ("losses", self.losses as f64),
            ("detect_slots", self.detection_latency_slots),
            ("reform_slots", self.reformation_slots),
            ("recovered", self.recovered as f64),
            ("reformed", self.reformed as f64),
            ("gave_up", self.gave_up as f64),
            ("orphaned", self.orphaned as f64),
        ]
    }

    fn completed(&self) -> bool {
        self.connected && self.sent > 0
    }
}

/// A bridged chain whose bridge crashes mid-traffic: the self-healing
/// arm detects the death, exhausts re-pages against the corpse and
/// re-forms the scatternet through a surviving slave; the control arm
/// only records the loss. See the module docs for the window protocol.
#[derive(Debug, Clone)]
pub struct FaultRecoveryScenario {
    cfg: FaultRecoveryConfig,
}

impl FaultRecoveryScenario {
    /// Creates the scenario; installs the default bridge crash into the
    /// simulator's fault plan when no plan was supplied.
    ///
    /// # Panics
    ///
    /// Panics if the chain topology is invalid or the window anchors
    /// are not ordered `traffic_start < crash`.
    pub fn new(mut cfg: FaultRecoveryConfig) -> Self {
        assert!(cfg.slaves_per_piconet >= 1, "endpoints are plain slaves");
        assert!(
            cfg.traffic_start_slot < cfg.crash_slot,
            "the crash must land inside the traffic window"
        );
        let topo = Self::topology(&cfg);
        topo.validate().expect("chain topology must be valid");
        if cfg.sim.faults.is_empty() {
            cfg.sim.faults = FaultPlan::new()
                .push(FaultEvent {
                    at_slot: cfg.crash_slot,
                    device: Some(topo.bridge_device(0)),
                    kind: FaultKind::Crash,
                })
                .clone();
        }
        Self { cfg }
    }

    fn topology(cfg: &FaultRecoveryConfig) -> Topology {
        Topology::chain(cfg.piconets.max(2), cfg.slaves_per_piconet)
    }

    fn failed(formation: FormationStatus) -> FaultRecoveryOutcome {
        FaultRecoveryOutcome {
            connected: false,
            formation,
            sent: 0,
            delivered: 0,
            pre_sent: 0,
            pre_delivered: 0,
            post_sent: 0,
            post_delivered: 0,
            losses: 0,
            detection_latency_slots: 0.0,
            reformation_slots: 0.0,
            recovered: 0,
            reformed: 0,
            gave_up: 0,
            orphaned: 0,
        }
    }

    fn measure(&self, sim: &mut Simulator) -> FaultRecoveryOutcome {
        let cfg = &self.cfg;
        let topo = Self::topology(cfg);
        let mut map = match ScatternetMap::recover(&topo, sim) {
            Ok(map) => map,
            Err(e) => return Self::failed((&e).into()),
        };
        let traffic_start = at_slot(cfg.traffic_start_slot);
        if sim.now() > traffic_start {
            // Formation overran the anchor: the crash calendar no
            // longer lines up with the windows, so the run does not
            // count rather than skewing the sweep.
            return Self::failed(FormationStatus::Formed);
        }
        for p in 0..topo.piconets.len() {
            sim.command(topo.master_device(p), LcCommand::SetTpoll(cfg.t_poll));
        }
        let mut router = Router::new(&topo, &map);
        let mut recovery = Recovery::new(cfg.recovery);

        sim.run_until(traffic_start);
        let t0 = sim.now();
        let end = at_slot(cfg.crash_slot + cfg.post_grace_slots + cfg.post_window_slots);
        let drain_end = end + SimDuration::from_slots(cfg.drain_slots);
        let post_start_slot = cfg.crash_slot + cfg.post_grace_slots;

        // Original bridges hold-multiplex for the whole run; re-formed
        // bridges are scheduled as recovery promotes them.
        for k in 0..topo.bridges.len() {
            let (first, second) =
                BridgeLink::resolve(&topo, &map, k).expect("formed scatternet resolves");
            let plan = BridgePlan {
                offset_slots: (k as u32 % 2) * cfg.plan.period_slots / 2,
                ..cfg.plan
            };
            schedule_bridge(sim, &first, &second, &plan, t0, drain_end);
        }
        let mut scheduled: Vec<usize> = (0..topo.bridges.len())
            .map(|k| topo.bridge_device(k))
            .collect();

        let src = topo.slave_device(0, 0);
        let dst = topo.slave_device(topo.piconets.len() - 1, 0);
        let payload = cfg.payload_bytes.clamp(1, MAX_RELAY_PAYLOAD);
        let pump = SimDuration::from_slots(cfg.pump_every_slots.max(1));
        let (mut pre_sent, mut post_sent) = (0u64, 0u64);
        let mut next_send = t0;
        while sim.now() < drain_end {
            if sim.now() < end && sim.now() >= next_send {
                let s = sim.now().slots();
                if s < cfg.crash_slot {
                    pre_sent += 1;
                } else if s >= post_start_slot {
                    post_sent += 1;
                }
                router.send(sim, src, dst, vec![0xC3; payload]);
                next_send += SimDuration::from_slots(cfg.msg_period_slots.max(1));
            }
            let step_until = (sim.now() + pump).min(drain_end);
            sim.run_until(step_until);
            router.pump(sim);
            recovery.pump(sim, &mut map, &mut router);
            self.schedule_new_bridges(sim, &topo, &map, &mut scheduled, drain_end);
        }

        let (mut pre_delivered, mut post_delivered) = (0u64, 0u64);
        for d in &router.deliveries {
            let s = d.sent_at.slots();
            if s < cfg.crash_slot {
                pre_delivered += 1;
            } else if s >= post_start_slot {
                post_delivered += 1;
            }
        }
        FaultRecoveryOutcome {
            connected: true,
            formation: FormationStatus::Formed,
            sent: router.sent_count(),
            delivered: router.deliveries.len() as u64,
            pre_sent,
            pre_delivered,
            post_sent,
            post_delivered,
            losses: recovery.losses.len() as u64,
            detection_latency_slots: recovery.mean_detection_latency_slots().unwrap_or(0.0),
            reformation_slots: recovery.mean_reformation_slots().unwrap_or(0.0),
            recovered: recovery.recovered,
            reformed: recovery.reformed,
            gave_up: recovery.gave_up,
            orphaned: router.in_flight() as u64,
        }
    }

    /// Hold-schedules any device the recovery layer promoted to a
    /// bridge (a member of two piconets that is not one of the
    /// topology's original bridges). Without a hold calendar a promoted
    /// bridge would camp on one piconet and starve the other.
    fn schedule_new_bridges(
        &self,
        sim: &mut Simulator,
        topo: &Topology,
        map: &ScatternetMap,
        scheduled: &mut Vec<usize>,
        until: SimTime,
    ) {
        let mut k = 0;
        while let Some((dev, a, b)) = map
            .links
            .iter()
            .filter(|l| !scheduled.contains(&l.device))
            .find_map(|l| {
                map.links
                    .iter()
                    .find(|m| m.device == l.device && m.piconet != l.piconet)
                    .map(|m| (l.device, *l, *m))
            })
        {
            let first = BridgeLink {
                master_dev: topo.master_device(a.piconet),
                master_addr: map.master_addr(a.piconet),
                bridge_dev: dev,
                lt_addr: a.lt_addr,
            };
            let second = BridgeLink {
                master_dev: topo.master_device(b.piconet),
                master_addr: map.master_addr(b.piconet),
                bridge_dev: dev,
                lt_addr: b.lt_addr,
            };
            schedule_bridge(sim, &first, &second, &self.cfg.plan, sim.now(), until);
            scheduled.push(dev);
            k += 1;
            debug_assert!(k <= map.links.len(), "promotion scan must terminate");
        }
    }
}

impl Scenario for FaultRecoveryScenario {
    type Config = FaultRecoveryConfig;
    type Outcome = FaultRecoveryOutcome;

    fn name(&self) -> &'static str {
        "fault_recovery"
    }

    fn config(&self) -> &FaultRecoveryConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut b = SimBuilder::new(seed, self.cfg.sim.clone());
        register_devices(&Self::topology(&self.cfg), &mut b);
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> FaultRecoveryOutcome {
        if let Err(e) = form_scatternet(&Self::topology(&self.cfg), sim, self.cfg.join_cap_slots) {
            return Self::failed((&e).into());
        }
        self.measure(sim)
    }

    fn form(&self, seed: u64) -> Option<Simulator> {
        let mut sim = self.build(seed);
        form_scatternet(
            &Self::topology(&self.cfg),
            &mut sim,
            self.cfg.join_cap_slots,
        )
        .ok()?;
        Some(sim)
    }

    fn drive_formed(&self, sim: &mut Simulator) -> FaultRecoveryOutcome {
        self.measure(sim)
    }
}

// ---------------------------------------------------------------------------
// Device churn.

/// Configuration of the churn scenario.
#[derive(Debug, Clone)]
pub struct FaultChurnConfig {
    /// Plain slaves in the single piconet (≥ 2: slave 0 is the stable
    /// traffic source, slave 1 the churning destination).
    pub slaves: usize,
    /// How many slaves churn, counted from slave 1 upward.
    pub churn_devices: usize,
    /// Mean up-time between crash windows, in slots (the churn knob).
    pub mean_up_slots: u64,
    /// Length of each outage, in slots.
    pub outage_slots: u64,
    /// Seed of the churn calendar (fixed across Monte-Carlo runs so
    /// every run replays the same outages).
    pub churn_seed: u64,
    /// Absolute slot at which traffic starts; the churn calendar is
    /// shifted past it so no outage lands during formation.
    pub traffic_start_slot: u64,
    /// Message-injection window, in slots.
    pub measure_slots: u64,
    /// Extra slots after the window for in-flight messages.
    pub drain_slots: u64,
    /// Slots between injected messages.
    pub msg_period_slots: u64,
    /// Payload bytes per message.
    pub payload_bytes: usize,
    /// T_poll configured on the master.
    pub t_poll: u32,
    /// Cap for each join page during formation.
    pub join_cap_slots: u64,
    /// Recovery policy.
    pub recovery: RecoveryConfig,
    /// Router/recovery pump cadence, in slots.
    pub pump_every_slots: u64,
    /// Simulator configuration; an empty fault plan is replaced by the
    /// seeded churn calendar.
    pub sim: SimConfig,
}

impl Default for FaultChurnConfig {
    fn default() -> Self {
        Self {
            slaves: 3,
            churn_devices: 2,
            mean_up_slots: 6_000,
            outage_slots: 2_000,
            churn_seed: 0x0C0B_0517,
            traffic_start_slot: 4_096,
            measure_slots: 24_576,
            drain_slots: 2_048,
            msg_period_slots: 192,
            payload_bytes: MAX_RELAY_PAYLOAD,
            t_poll: 16,
            join_cap_slots: 4_096,
            recovery: RecoveryConfig {
                max_retries: 2,
                ..RecoveryConfig::default()
            },
            pump_every_slots: 64,
            sim: paper_config(),
        }
    }
}

/// Outcome of one churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultChurnOutcome {
    /// Formation finished before the traffic anchor.
    pub connected: bool,
    /// Which join failed when formation did not complete.
    pub formation: FormationStatus,
    /// Messages injected at the source.
    pub sent: u64,
    /// Messages delivered to the (churning) destination.
    pub delivered: u64,
    /// Link losses the supervisor detected.
    pub losses: u64,
    /// Links brought back by re-paging the revived member.
    pub recovered: u64,
    /// Lost links abandoned after the retry budget.
    pub gave_up: u64,
    /// Mean fault→supervision-verdict latency, in slots (0 if none).
    pub detection_latency_slots: f64,
}

impl Record for FaultChurnOutcome {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "delivered",
                if self.sent == 0 {
                    0.0
                } else {
                    self.delivered as f64 / self.sent as f64
                },
            ),
            ("losses", self.losses as f64),
            ("recovered", self.recovered as f64),
            ("gave_up", self.gave_up as f64),
            ("detect_slots", self.detection_latency_slots),
        ]
    }

    fn completed(&self) -> bool {
        self.connected && self.sent > 0
    }
}

/// One piconet whose slaves crash and revive on a seeded calendar while
/// a stable slave streams messages to a churning one; the supervisor
/// re-pages each revived member. Delivery degrades gracefully as the
/// mean up-time shrinks.
#[derive(Debug, Clone)]
pub struct FaultChurnScenario {
    cfg: FaultChurnConfig,
    topo: Topology,
}

impl FaultChurnScenario {
    /// Creates the scenario; installs the shifted churn calendar when
    /// no fault plan was supplied.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two slaves are configured or more devices
    /// churn than exist.
    pub fn new(mut cfg: FaultChurnConfig) -> Self {
        assert!(cfg.slaves >= 2, "need a stable source and a churning sink");
        assert!(
            cfg.churn_devices < cfg.slaves,
            "slave 0 is the stable source and must not churn"
        );
        let mut topo = Topology::new();
        topo.piconet("p0", cfg.slaves);
        topo.validate().expect("single piconet must be valid");
        if cfg.sim.faults.is_empty() {
            let devices: Vec<usize> = (1..=cfg.churn_devices)
                .map(|j| topo.slave_device(0, j))
                .collect();
            let base = FaultPlan::churn(
                cfg.churn_seed,
                &devices,
                cfg.mean_up_slots,
                cfg.outage_slots,
                cfg.measure_slots,
            );
            // Shift past formation: churn is generated over the
            // traffic window and re-anchored at the traffic start.
            let mut plan = FaultPlan::new();
            for e in base.events() {
                plan.push(FaultEvent {
                    // Saturating: a slot past the representable range
                    // is then rejected by `FaultPlan::check`.
                    at_slot: e.at_slot.saturating_add(cfg.traffic_start_slot),
                    ..*e
                });
            }
            cfg.sim.faults = plan;
        }
        Self { cfg, topo }
    }

    fn failed(formation: FormationStatus) -> FaultChurnOutcome {
        FaultChurnOutcome {
            connected: false,
            formation,
            sent: 0,
            delivered: 0,
            losses: 0,
            recovered: 0,
            gave_up: 0,
            detection_latency_slots: 0.0,
        }
    }

    fn measure(&self, sim: &mut Simulator) -> FaultChurnOutcome {
        let cfg = &self.cfg;
        let mut map = match ScatternetMap::recover(&self.topo, sim) {
            Ok(map) => map,
            Err(e) => return Self::failed((&e).into()),
        };
        let traffic_start = at_slot(cfg.traffic_start_slot);
        if sim.now() > traffic_start {
            return Self::failed(FormationStatus::Formed);
        }
        sim.command(self.topo.master_device(0), LcCommand::SetTpoll(cfg.t_poll));
        let mut router = Router::new(&self.topo, &map);
        let mut recovery = Recovery::new(cfg.recovery);

        sim.run_until(traffic_start);
        let t0 = sim.now();
        let end = t0 + SimDuration::from_slots(cfg.measure_slots);
        let drain_end = end + SimDuration::from_slots(cfg.drain_slots);
        let src = self.topo.slave_device(0, 0);
        let dst = self.topo.slave_device(0, 1);
        let payload = cfg.payload_bytes.clamp(1, MAX_RELAY_PAYLOAD);
        let pump = SimDuration::from_slots(cfg.pump_every_slots.max(1));
        let mut next_send = t0;
        while sim.now() < drain_end {
            if sim.now() < end && sim.now() >= next_send {
                router.send(sim, src, dst, vec![0xA5; payload]);
                next_send += SimDuration::from_slots(cfg.msg_period_slots.max(1));
            }
            let step_until = (sim.now() + pump).min(drain_end);
            sim.run_until(step_until);
            router.pump(sim);
            recovery.pump(sim, &mut map, &mut router);
        }
        FaultChurnOutcome {
            connected: true,
            formation: FormationStatus::Formed,
            sent: router.sent_count(),
            delivered: router.deliveries.len() as u64,
            losses: recovery.losses.len() as u64,
            recovered: recovery.recovered,
            gave_up: recovery.gave_up,
            detection_latency_slots: recovery.mean_detection_latency_slots().unwrap_or(0.0),
        }
    }
}

impl Scenario for FaultChurnScenario {
    type Config = FaultChurnConfig;
    type Outcome = FaultChurnOutcome;

    fn name(&self) -> &'static str {
        "fault_churn"
    }

    fn config(&self) -> &FaultChurnConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut b = SimBuilder::new(seed, self.cfg.sim.clone());
        register_devices(&self.topo, &mut b);
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> FaultChurnOutcome {
        if let Err(e) = form_scatternet(&self.topo, sim, self.cfg.join_cap_slots) {
            return Self::failed((&e).into());
        }
        self.measure(sim)
    }

    fn form(&self, seed: u64) -> Option<Simulator> {
        let mut sim = self.build(seed);
        form_scatternet(&self.topo, &mut sim, self.cfg.join_cap_slots).ok()?;
        Some(sim)
    }

    fn drive_formed(&self, sim: &mut Simulator) -> FaultChurnOutcome {
        self.measure(sim)
    }
}

// ---------------------------------------------------------------------------
// Degrade then heal.

/// Configuration of the degrade-then-heal scenario.
#[derive(Debug, Clone)]
pub struct FaultDegradeHealConfig {
    /// Absolute slot at which traffic starts.
    pub traffic_start_slot: u64,
    /// Absolute slot at which the slave's BER starts ramping.
    pub degrade_slot: u64,
    /// Slots over which the extra BER ramps from 0 to `ber`.
    pub ramp_slots: u64,
    /// Target extra BER on everything the slave transmits.
    pub ber: f64,
    /// Absolute slot at which the degrade heals.
    pub heal_slot: u64,
    /// Slots after the heal excluded from the post window (backlog
    /// drain headroom).
    pub heal_grace_slots: u64,
    /// Absolute slot at which injection ends.
    pub end_slot: u64,
    /// Extra slots after the window for in-flight messages.
    pub drain_slots: u64,
    /// Slots between injected messages.
    pub msg_period_slots: u64,
    /// Payload bytes per message.
    pub payload_bytes: usize,
    /// T_poll configured on the master.
    pub t_poll: u32,
    /// Cap for the join page during formation.
    pub join_cap_slots: u64,
    /// Simulator configuration; an empty fault plan is replaced by the
    /// degrade/heal pair.
    pub sim: SimConfig,
}

impl Default for FaultDegradeHealConfig {
    fn default() -> Self {
        Self {
            traffic_start_slot: 4_096,
            degrade_slot: 10_240,
            ramp_slots: 1_024,
            // High enough that FEC-coded packets still mostly fail:
            // the goodput dip must dominate coding gain.
            ber: 0.05,
            heal_slot: 18_432,
            heal_grace_slots: 1_024,
            end_slot: 24_576,
            drain_slots: 1_024,
            msg_period_slots: 96,
            payload_bytes: MAX_RELAY_PAYLOAD,
            t_poll: 16,
            join_cap_slots: 4_096,
            sim: paper_config(),
        }
    }
}

/// Outcome of one degrade-then-heal run: delivered goodput in the
/// three windows (before the ramp, fully degraded, after the heal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDegradeHealOutcome {
    /// Formation finished before the traffic anchor.
    pub connected: bool,
    /// Which join failed when formation did not complete.
    pub formation: FormationStatus,
    /// Messages injected at the source.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Goodput before the degrade, in bit/s.
    pub pre_bps: f64,
    /// Goodput between ramp end and heal, in bit/s.
    pub during_bps: f64,
    /// Goodput after the heal grace, in bit/s.
    pub post_bps: f64,
}

impl Record for FaultDegradeHealOutcome {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "delivered",
                if self.sent == 0 {
                    0.0
                } else {
                    self.delivered as f64 / self.sent as f64
                },
            ),
            ("pre_bps", self.pre_bps),
            ("during_bps", self.during_bps),
            ("post_bps", self.post_bps),
        ]
    }

    fn completed(&self) -> bool {
        self.connected && self.sent > 0
    }
}

/// One master–slave pair; the slave's transmit BER ramps up mid-run and
/// later heals, and the uplink goodput is measured in the three windows
/// the plan defines. ARQ keeps the link alive (supervision sees the
/// occasional success) but goodput collapses while degraded.
#[derive(Debug, Clone)]
pub struct FaultDegradeHealScenario {
    cfg: FaultDegradeHealConfig,
    topo: Topology,
}

impl FaultDegradeHealScenario {
    /// Creates the scenario; installs the degrade/heal pair when no
    /// fault plan was supplied.
    ///
    /// # Panics
    ///
    /// Panics unless `traffic_start < degrade`, `degrade + ramp <
    /// heal` and `heal + grace < end`.
    pub fn new(mut cfg: FaultDegradeHealConfig) -> Self {
        assert!(cfg.traffic_start_slot < cfg.degrade_slot);
        assert!(cfg.degrade_slot + cfg.ramp_slots < cfg.heal_slot);
        assert!(cfg.heal_slot + cfg.heal_grace_slots < cfg.end_slot);
        let mut topo = Topology::new();
        topo.piconet("p0", 1);
        topo.validate().expect("single pair must be valid");
        let victim = topo.slave_device(0, 0);
        if cfg.sim.faults.is_empty() {
            cfg.sim.faults = FaultPlan::new()
                .push(FaultEvent {
                    at_slot: cfg.degrade_slot,
                    device: Some(victim),
                    kind: FaultKind::Degrade {
                        ber: cfg.ber,
                        ramp_slots: cfg.ramp_slots,
                    },
                })
                .push(FaultEvent {
                    at_slot: cfg.heal_slot,
                    device: Some(victim),
                    kind: FaultKind::Heal,
                })
                .clone();
        }
        Self { cfg, topo }
    }

    fn failed(formation: FormationStatus) -> FaultDegradeHealOutcome {
        FaultDegradeHealOutcome {
            connected: false,
            formation,
            sent: 0,
            delivered: 0,
            pre_bps: 0.0,
            during_bps: 0.0,
            post_bps: 0.0,
        }
    }

    fn measure(&self, sim: &mut Simulator) -> FaultDegradeHealOutcome {
        let cfg = &self.cfg;
        let map = match ScatternetMap::recover(&self.topo, sim) {
            Ok(map) => map,
            Err(e) => return Self::failed((&e).into()),
        };
        let traffic_start = at_slot(cfg.traffic_start_slot);
        if sim.now() > traffic_start {
            return Self::failed(FormationStatus::Formed);
        }
        sim.command(self.topo.master_device(0), LcCommand::SetTpoll(cfg.t_poll));
        let mut router = Router::new(&self.topo, &map);

        sim.run_until(traffic_start);
        let t0 = sim.now();
        let end = at_slot(cfg.end_slot);
        let drain_end = end + SimDuration::from_slots(cfg.drain_slots);
        let src = self.topo.slave_device(0, 0);
        let dst = self.topo.master_device(0);
        let payload = cfg.payload_bytes.clamp(1, MAX_RELAY_PAYLOAD);
        let pump = SimDuration::from_slots(8);
        let mut next_send = t0;
        while sim.now() < drain_end {
            if sim.now() < end && sim.now() >= next_send {
                router.send(sim, src, dst, vec![0x3C; payload]);
                next_send += SimDuration::from_slots(cfg.msg_period_slots.max(1));
            }
            let step_until = (sim.now() + pump).min(drain_end);
            sim.run_until(step_until);
            router.pump(sim);
        }

        // Goodput per arrival window: the dip and the recovery are
        // visible in when payload lands, not when it was injected.
        let windows = [
            (cfg.traffic_start_slot, cfg.degrade_slot),
            (cfg.degrade_slot + cfg.ramp_slots, cfg.heal_slot),
            (cfg.heal_slot + cfg.heal_grace_slots, cfg.end_slot),
        ];
        let mut bps = [0.0f64; 3];
        for (i, &(lo, hi)) in windows.iter().enumerate() {
            let bytes: usize = router
                .deliveries
                .iter()
                .filter(|d| {
                    let s = d.at.slots();
                    s >= lo && s < hi
                })
                .map(|d| d.payload_bytes)
                .sum();
            bps[i] = bytes as f64 * 8.0 / SimDuration::from_slots(hi - lo).secs_f64();
        }
        FaultDegradeHealOutcome {
            connected: true,
            formation: FormationStatus::Formed,
            sent: router.sent_count(),
            delivered: router.deliveries.len() as u64,
            pre_bps: bps[0],
            during_bps: bps[1],
            post_bps: bps[2],
        }
    }
}

impl Scenario for FaultDegradeHealScenario {
    type Config = FaultDegradeHealConfig;
    type Outcome = FaultDegradeHealOutcome;

    fn name(&self) -> &'static str {
        "fault_degrade_heal"
    }

    fn config(&self) -> &FaultDegradeHealConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut b = SimBuilder::new(seed, self.cfg.sim.clone());
        register_devices(&self.topo, &mut b);
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> FaultDegradeHealOutcome {
        if let Err(e) = form_scatternet(&self.topo, sim, self.cfg.join_cap_slots) {
            return Self::failed((&e).into());
        }
        self.measure(sim)
    }

    fn form(&self, seed: u64) -> Option<Simulator> {
        let mut sim = self.build(seed);
        form_scatternet(&self.topo, &mut sim, self.cfg.join_cap_slots).ok()?;
        Some(sim)
    }

    fn drive_formed(&self, sim: &mut Simulator) -> FaultDegradeHealOutcome {
        self.measure(sim)
    }
}

// ---------------------------------------------------------------------------
// Experiment functions.

/// One arm of the `fault_recovery` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecoveryRow {
    /// `"recovery on"` or `"recovery off"`.
    pub arm: String,
    /// Mean overall delivery ratio.
    pub delivered: f64,
    /// Mean delivery ratio of pre-crash injections.
    pub pre_delivered: f64,
    /// Mean delivery ratio of post-window injections.
    pub post_delivered: f64,
    /// 95% confidence half-width of the post-window ratio.
    pub post_ci95: f64,
    /// Mean supervision detection latency, in slots.
    pub detect_slots: f64,
    /// Mean detection→link-back time, in slots (0 for the off arm).
    pub reform_slots: f64,
    /// Mean abandoned links per run.
    pub gave_up: f64,
    /// Mean orphaned in-flight frames per run.
    pub orphaned: f64,
}

/// Result of the `fault_recovery` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecovery {
    /// The recovery-on and recovery-off arms.
    pub rows: Vec<FaultRecoveryRow>,
    /// Share of injections that pre-date the crash — the delivery floor
    /// the recovery-off arm collapses to (its post-crash traffic is
    /// orphaned at the dead bridge).
    pub analytic_floor: f64,
    /// The campaign result as deterministic JSON (byte-diffed by CI
    /// across engines and `--shards` values).
    pub json: String,
}

impl FaultRecovery {
    /// Renders the two arms.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "arm",
            "delivered",
            "post delivered",
            "ci95",
            "detect TS",
            "reform TS",
            "gave up",
            "orphaned",
        ]);
        for r in &self.rows {
            t.row([
                r.arm.clone(),
                format!("{:.1}%", r.delivered * 100.0),
                format!("{:.1}%", r.post_delivered * 100.0),
                format!("{:.3}", r.post_ci95),
                format!("{:.0}", r.detect_slots),
                format!("{:.0}", r.reform_slots),
                format!("{:.2}", r.gave_up),
                format!("{:.1}", r.orphaned),
            ]);
        }
        t
    }
}

/// **Fault-R** — bridge death and self-healing: the chain's bridge
/// crashes mid-traffic. With recovery on, the supervisor detects the
/// death at the supervision timeout, exhausts re-pages against the
/// corpse and re-forms the scatternet through a surviving slave; the
/// post-window delivery ratio returns to ≈1. With recovery off the
/// same crash strands every post-crash frame and overall delivery
/// collapses to the analytic pre-crash floor.
///
/// Fails before any run starts when the fault plan targets a device
/// the chain does not have or a slot past [`crate::MAX_FAULT_SLOT`].
pub fn fault_recovery(opts: &ExpOptions) -> Result<FaultRecovery, FaultPlanError> {
    let mut sim = opts.sim(paper_config());
    // The default supervisionTO (32 000 slots) would outlast the whole
    // measurement window; detection must fit inside the post grace.
    sim.lc.supervision_timeout_slots = 800;
    let base = FaultRecoveryConfig {
        sim,
        ..FaultRecoveryConfig::default()
    };
    let arms = [("recovery on", true), ("recovery off", false)];
    let points: Vec<(String, FaultRecoveryScenario)> = arms
        .iter()
        .map(|&(label, enabled)| {
            (
                label.to_owned(),
                FaultRecoveryScenario::new(FaultRecoveryConfig {
                    recovery: RecoveryConfig {
                        enabled,
                        ..base.recovery
                    },
                    ..base.clone()
                }),
            )
        })
        .collect();
    for (_, s) in &points {
        s.cfg
            .sim
            .faults
            .check(FaultRecoveryScenario::topology(&s.cfg).device_count())?;
    }
    let result = Campaign::sweep(points.iter().cloned()).options(opts).run();
    let rows = arms
        .iter()
        .zip(&result.points)
        .map(|(&(label, _), p)| {
            let post = p.metric("post_delivered");
            FaultRecoveryRow {
                arm: label.to_owned(),
                delivered: p.metric("delivered").mean(),
                pre_delivered: p.metric("pre_delivered").mean(),
                post_delivered: post.mean(),
                post_ci95: post.ci95(),
                detect_slots: p.metric("detect_slots").mean(),
                reform_slots: p.metric("reform_slots").mean(),
                gave_up: p.metric("gave_up").mean(),
                orphaned: p.metric("orphaned").mean(),
            }
        })
        .collect();
    // Injections are periodic from the traffic anchor, so the floor is
    // the pre-crash share of the injection window.
    let window =
        base.crash_slot + base.post_grace_slots + base.post_window_slots - base.traffic_start_slot;
    let analytic_floor = (base.crash_slot - base.traffic_start_slot) as f64 / window as f64;
    Ok(FaultRecovery {
        rows,
        analytic_floor,
        json: result.to_json().render(),
    })
}

/// One churn-rate point of the `fault_churn` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultChurnRow {
    /// Mean up-time between outages, in slots.
    pub mean_up_slots: u64,
    /// Mean delivery ratio.
    pub delivered: f64,
    /// 95% confidence half-width of the delivery ratio.
    pub ci95: f64,
    /// Mean detected losses per run.
    pub losses: f64,
    /// Mean links re-paged back per run.
    pub recovered: f64,
    /// Mean losses abandoned per run.
    pub gave_up: f64,
    /// Mean supervision detection latency, in slots.
    pub detect_slots: f64,
}

/// Result of the `fault_churn` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultChurn {
    /// One row per churn rate, fastest churn first.
    pub rows: Vec<FaultChurnRow>,
}

impl FaultChurn {
    /// Renders the churn sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "mean up TS",
            "delivered",
            "ci95",
            "losses",
            "recovered",
            "gave up",
            "detect TS",
        ]);
        for r in &self.rows {
            t.row([
                format!("{}", r.mean_up_slots),
                format!("{:.1}%", r.delivered * 100.0),
                format!("{:.3}", r.ci95),
                format!("{:.1}", r.losses),
                format!("{:.1}", r.recovered),
                format!("{:.1}", r.gave_up),
                format!("{:.0}", r.detect_slots),
            ]);
        }
        t
    }
}

/// **Fault-C** — device churn: slaves crash and revive on a seeded
/// calendar while the supervisor re-pages each revived member.
/// Delivery degrades gracefully as the mean up-time shrinks; every
/// detected loss is either recovered or accounted as abandoned.
///
/// Fails before any run starts when the fault plan targets a device
/// the piconet does not have or a slot past [`crate::MAX_FAULT_SLOT`].
pub fn fault_churn(opts: &ExpOptions) -> Result<FaultChurn, FaultPlanError> {
    let rates: [u64; 3] = [3_000, 6_000, 12_000];
    let points: Vec<(String, FaultChurnScenario)> = rates
        .iter()
        .map(|&mean_up| {
            let mut sim = opts.sim(paper_config());
            sim.lc.supervision_timeout_slots = 800;
            (
                format!("{mean_up}"),
                FaultChurnScenario::new(FaultChurnConfig {
                    mean_up_slots: mean_up,
                    churn_seed: opts.base_seed ^ 0x0C0B_0517,
                    sim,
                    ..FaultChurnConfig::default()
                }),
            )
        })
        .collect();
    for (_, s) in &points {
        s.cfg.sim.faults.check(s.topo.device_count())?;
    }
    let result = Campaign::sweep(points.iter().cloned()).options(opts).run();
    let rows = rates
        .iter()
        .zip(&result.points)
        .map(|(&mean_up, p)| {
            let delivered = p.metric("delivered");
            FaultChurnRow {
                mean_up_slots: mean_up,
                delivered: delivered.mean(),
                ci95: delivered.ci95(),
                losses: p.metric("losses").mean(),
                recovered: p.metric("recovered").mean(),
                gave_up: p.metric("gave_up").mean(),
                detect_slots: p.metric("detect_slots").mean(),
            }
        })
        .collect();
    Ok(FaultChurn { rows })
}

/// Result of the `fault_degrade_heal` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDegradeHeal {
    /// Mean goodput before the ramp, in bit/s.
    pub pre_bps: f64,
    /// Mean goodput while fully degraded, in bit/s.
    pub during_bps: f64,
    /// Mean goodput after the heal grace, in bit/s.
    pub post_bps: f64,
    /// Mean overall delivery ratio.
    pub delivered: f64,
}

impl FaultDegradeHeal {
    /// Renders the three windows.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["window", "goodput bit/s"]);
        t.row(["before degrade".into(), format!("{:.0}", self.pre_bps)]);
        t.row(["degraded".into(), format!("{:.0}", self.during_bps)]);
        t.row(["after heal".into(), format!("{:.0}", self.post_bps)]);
        t
    }
}

/// **Fault-D** — degrade then heal: one slave's transmit BER ramps up
/// mid-run and heals later. ARQ keeps the link alive through the
/// degradation, so the signature is a goodput dip bracketed by two
/// healthy windows rather than a supervision death.
///
/// Fails before any run starts when the fault plan targets a device
/// the link does not have or a slot past [`crate::MAX_FAULT_SLOT`].
pub fn fault_degrade_heal(opts: &ExpOptions) -> Result<FaultDegradeHeal, FaultPlanError> {
    let scenario = FaultDegradeHealScenario::new(FaultDegradeHealConfig {
        sim: opts.sim(paper_config()),
        ..FaultDegradeHealConfig::default()
    });
    scenario
        .cfg
        .sim
        .faults
        .check(scenario.topo.device_count())?;
    let result = Campaign::new(scenario).options(opts).run();
    let p = &result.points[0];
    Ok(FaultDegradeHeal {
        pre_bps: p.metric("pre_bps").mean(),
        during_bps: p.metric("during_bps").mean(),
        post_bps: p.metric("post_bps").mean(),
        delivered: p.metric("delivered").mean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(runs: usize) -> ExpOptions {
        ExpOptions {
            runs,
            threads: 1,
            ..ExpOptions::default()
        }
    }

    #[test]
    fn fault_recovery_on_beats_the_floor_and_off_collapses_to_it() {
        let f = fault_recovery(&opts(2)).unwrap();
        let on = &f.rows[0];
        let off = &f.rows[1];
        assert!(
            on.post_delivered >= 0.95,
            "recovery-on post-window delivery {:.3} < 0.95",
            on.post_delivered
        );
        assert!(
            off.post_delivered <= 0.05,
            "recovery-off post-window delivery {:.3} should be ~0",
            off.post_delivered
        );
        assert!(
            (off.delivered - f.analytic_floor).abs() < 0.15,
            "recovery-off overall delivery {:.3} should sit near the floor {:.3}",
            off.delivered,
            f.analytic_floor
        );
        assert!(on.reform_slots > 0.0, "the on arm must re-form the bridge");
        assert!(off.orphaned > 0.0, "the off arm must strand frames");
    }

    #[test]
    fn fault_churn_recovers_revived_members() {
        let f = fault_churn(&opts(1)).unwrap();
        // Fastest churn loses the most but still delivers something.
        let fast = &f.rows[0];
        let slow = &f.rows[2];
        assert!(fast.losses >= 1.0, "churn must cause supervision losses");
        assert!(
            fast.recovered >= 1.0,
            "the supervisor must re-page at least one revived member"
        );
        assert!(
            fast.delivered > 0.2,
            "delivery {:.3} too low",
            fast.delivered
        );
        assert!(
            slow.delivered >= fast.delivered,
            "slower churn ({:.3}) must not deliver less than faster churn ({:.3})",
            slow.delivered,
            fast.delivered
        );
    }

    #[test]
    fn fault_degrade_heal_dips_then_recovers() {
        let f = fault_degrade_heal(&opts(1)).unwrap();
        assert!(f.pre_bps > 0.0);
        assert!(
            f.during_bps < f.pre_bps * 0.8,
            "degraded goodput {:.0} should dip well below healthy {:.0}",
            f.during_bps,
            f.pre_bps
        );
        assert!(
            f.post_bps > f.during_bps,
            "post-heal goodput {:.0} must recover above degraded {:.0}",
            f.post_bps,
            f.during_bps
        );
    }

    #[test]
    fn user_fault_plan_overrides_the_default_calendar() {
        // A crash far beyond the measurement window: nothing dies, both
        // arms deliver fully, no losses are recorded.
        let mut o = opts(1);
        o.faults = Some(FaultPlan::parse("crash@900000:dev=0").unwrap());
        let f = fault_recovery(&o).unwrap();
        for r in &f.rows {
            assert!(
                r.post_delivered >= 0.95,
                "{}: post delivery {:.3} with no crash in window",
                r.arm,
                r.post_delivered
            );
            assert_eq!(r.detect_slots, 0.0, "{}: no loss should be detected", r.arm);
        }
    }
}
