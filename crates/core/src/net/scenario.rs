//! Scatternet workloads as [`Scenario`] implementations.
//!
//! * [`ScatternetScenario`] — a bridged chain of piconets relaying
//!   payload end to end: delivery rate, end-to-end latency, goodput and
//!   the medium's inter-piconet collision rate per run.
//! * [`MultiPiconetScenario`] — N independent, saturated piconets on
//!   the shared medium: the pure collision experiment (no bridges), to
//!   compare against the analytic ≈1/79 per-slot hop-overlap rate.
//! * [`DenseFloorScenario`] — clusters of saturated piconets spread on
//!   a spatial grid beyond radio range of each other: the sharded
//!   scale-out workload (see `docs/SPATIAL.md`), anchored to the
//!   analytic collision rate *within one cluster*.

use btsim_baseband::{LcCommand, LcEvent};
use btsim_channel::{Position, SpatialConfig};
use btsim_kernel::SimDuration;
use btsim_stats::Record;

use crate::net::{
    form_scatternet, register_devices, register_devices_at, schedule_bridge, BridgeLink,
    BridgePlan, FormationStatus, Router, ScatternetError, ScatternetMap, Topology,
    MAX_RELAY_PAYLOAD,
};
use crate::scenario::{paper_config, Scenario};
use crate::{SimBuilder, SimConfig, Simulator};

/// Configuration of the bridged-chain scatternet scenario.
#[derive(Debug, Clone)]
pub struct ScatternetConfig {
    /// Piconets in the chain (≥ 2 for cross-piconet delivery).
    pub piconets: usize,
    /// Plain slaves per piconet (≥ 1; the endpoints are plain slaves).
    pub slaves_per_piconet: usize,
    /// Bridge time-multiplexing plan; consecutive bridges are staggered
    /// by half a period so relayed payload progresses every cycle.
    pub plan: BridgePlan,
    /// Slots between injected messages.
    pub msg_period_slots: u64,
    /// Payload bytes per message (clamped to [`MAX_RELAY_PAYLOAD`]).
    pub payload_bytes: usize,
    /// T_poll configured on every master (relay traffic is uplink-bound
    /// by the polling interval).
    pub t_poll: u32,
    /// Message-injection window in slots.
    pub measure_slots: u64,
    /// Extra slots after the window for in-flight messages to land.
    pub drain_slots: u64,
    /// Cap for each join page during formation.
    pub join_cap_slots: u64,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl Default for ScatternetConfig {
    fn default() -> Self {
        Self {
            piconets: 2,
            slaves_per_piconet: 1,
            plan: BridgePlan::default(),
            msg_period_slots: 192,
            payload_bytes: MAX_RELAY_PAYLOAD,
            t_poll: 16,
            measure_slots: 12_000,
            drain_slots: 1_536,
            join_cap_slots: 4_096,
            sim: paper_config(),
        }
    }
}

/// Outcome of one scatternet relay run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatternetOutcome {
    /// Every link of the topology formed.
    pub connected: bool,
    /// Which join (or topology check) failed, when formation did not
    /// complete; [`FormationStatus::Formed`] otherwise.
    pub formation: FormationStatus,
    /// Messages injected at the source.
    pub sent: u64,
    /// Messages that reached the destination.
    pub delivered: u64,
    /// Mean end-to-end latency of delivered messages, in slots.
    pub mean_latency_slots: f64,
    /// Worst delivered latency, in slots.
    pub max_latency_slots: f64,
    /// Delivered payload rate over the whole window, in bit/s.
    pub goodput_bps: f64,
    /// Fraction of medium transmissions that collided during the
    /// traffic window (intra- plus inter-piconet).
    pub collision_rate: f64,
}

impl Record for ScatternetOutcome {
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
            ("latency_slots", self.mean_latency_slots),
            ("max_latency_slots", self.max_latency_slots),
            ("goodput_bps", self.goodput_bps),
            ("collision_rate", self.collision_rate),
        ]
    }

    fn completed(&self) -> bool {
        self.connected && self.delivered > 0
    }
}

/// A chain of piconets with a bridge between each consecutive pair; a
/// plain slave of the first piconet streams framed messages to a plain
/// slave of the last through the store-and-forward relay, while every
/// bridge hold-multiplexes between its two masters.
#[derive(Debug, Clone)]
pub struct ScatternetScenario {
    cfg: ScatternetConfig,
}

impl ScatternetScenario {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid (no piconets, more than 7
    /// members in one piconet) or has no plain slaves for endpoints.
    pub fn new(cfg: ScatternetConfig) -> Self {
        assert!(cfg.slaves_per_piconet >= 1, "endpoints are plain slaves");
        Self::topology(&cfg)
            .validate()
            .expect("chain topology must be valid");
        Self { cfg }
    }

    fn topology(cfg: &ScatternetConfig) -> Topology {
        Topology::chain(cfg.piconets.max(1), cfg.slaves_per_piconet)
    }
}

impl Scenario for ScatternetScenario {
    type Config = ScatternetConfig;
    type Outcome = ScatternetOutcome;

    fn name(&self) -> &'static str {
        "scatternet"
    }

    fn config(&self) -> &ScatternetConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut b = SimBuilder::new(seed, self.cfg.sim.clone());
        register_devices(&Self::topology(&self.cfg), &mut b);
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> ScatternetOutcome {
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

    fn drive_formed(&self, sim: &mut Simulator) -> ScatternetOutcome {
        self.measure(sim)
    }
}

impl ScatternetScenario {
    fn failed(formation: FormationStatus) -> ScatternetOutcome {
        ScatternetOutcome {
            connected: false,
            formation,
            sent: 0,
            delivered: 0,
            mean_latency_slots: 0.0,
            max_latency_slots: 0.0,
            goodput_bps: 0.0,
            collision_rate: 0.0,
        }
    }

    /// The measurement suffix, on a simulator positioned right after
    /// formation. The link map is recovered from baseband state so a
    /// restored snapshot drives identically to a fresh formation.
    fn measure(&self, sim: &mut Simulator) -> ScatternetOutcome {
        let topo = Self::topology(&self.cfg);
        let map = match ScatternetMap::recover(&topo, sim) {
            Ok(map) => map,
            Err(e) => return Self::failed((&e).into()),
        };
        for p in 0..topo.piconets.len() {
            sim.command(topo.master_device(p), LcCommand::SetTpoll(self.cfg.t_poll));
        }
        let mut router = Router::new(&topo, &map);

        // Bridge schedules for the whole run, staggered by half a
        // period per chain position.
        let t0 = sim.now();
        let end = t0 + SimDuration::from_slots(self.cfg.measure_slots);
        let drain_end = end + SimDuration::from_slots(self.cfg.drain_slots);
        for k in 0..topo.bridges.len() {
            let (first, second) =
                BridgeLink::resolve(&topo, &map, k).expect("formed scatternet resolves");
            let plan = BridgePlan {
                offset_slots: (k as u32 % 2) * self.cfg.plan.period_slots / 2,
                ..self.cfg.plan
            };
            schedule_bridge(sim, &first, &second, &plan, t0, drain_end);
        }

        // Endpoints: first plain slave of the first and last piconets.
        let src = topo.slave_device(0, 0);
        let dst = if topo.piconets.len() > 1 {
            topo.slave_device(topo.piconets.len() - 1, 0)
        } else if self.cfg.slaves_per_piconet > 1 {
            topo.slave_device(0, 1)
        } else {
            topo.master_device(0)
        };
        let payload = self.cfg.payload_bytes.clamp(1, MAX_RELAY_PAYLOAD);
        let stats0 = sim.tx_stats();

        // Inject + pump until the window ends, then drain.
        let pump_step = SimDuration::from_slots(8);
        let mut next_send = t0;
        while sim.now() < end {
            if sim.now() >= next_send {
                router.send(sim, src, dst, vec![0xC3; payload]);
                next_send += SimDuration::from_slots(self.cfg.msg_period_slots.max(1));
            }
            let step_until = (sim.now() + pump_step).min(end);
            sim.run_until(step_until);
            router.pump(sim);
        }
        while sim.now() < drain_end {
            let step_until = (sim.now() + pump_step).min(drain_end);
            sim.run_until(step_until);
            router.pump(sim);
        }

        let stats = sim.tx_stats().since(stats0);
        let delivered = router.deliveries.len() as u64;
        let latencies: Vec<f64> = router
            .deliveries
            .iter()
            .map(|d| d.latency_slots() as f64)
            .collect();
        let bytes: usize = router.deliveries.iter().map(|d| d.payload_bytes).sum();
        let window = drain_end.since(t0).secs_f64();
        ScatternetOutcome {
            connected: true,
            formation: FormationStatus::Formed,
            sent: router.sent_count(),
            delivered,
            mean_latency_slots: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            max_latency_slots: latencies.iter().cloned().fold(0.0, f64::max),
            goodput_bps: bytes as f64 * 8.0 / window,
            collision_rate: stats.collision_rate(),
        }
    }
}

// ---------------------------------------------------------------------------

/// Configuration of the N-independent-piconets collision scenario.
#[derive(Debug, Clone)]
pub struct MultiPiconetConfig {
    /// Number of independent master+slave piconets sharing the medium.
    pub piconets: usize,
    /// Whether each master saturates its piconet (T_poll = 2 plus a
    /// bulk transfer); unsaturated piconets idle at keep-alive rate.
    pub saturate: bool,
    /// Measurement window in slots.
    pub measure_slots: u64,
    /// Cap for each join page during formation.
    pub join_cap_slots: u64,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl Default for MultiPiconetConfig {
    fn default() -> Self {
        Self {
            piconets: 2,
            saturate: true,
            measure_slots: 6_000,
            join_cap_slots: 4_096,
            sim: paper_config(),
        }
    }
}

/// Outcome of one multi-piconet collision run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiPiconetOutcome {
    /// Every piconet formed.
    pub connected: bool,
    /// Which join (or topology check) failed, when formation did not
    /// complete; [`FormationStatus::Formed`] otherwise.
    pub formation: FormationStatus,
    /// Fraction of transmissions that collided during the window.
    pub collision_rate: f64,
    /// Transmissions observed during the window.
    pub transmissions: u64,
    /// Aggregate delivered user-payload rate across all piconets,
    /// in kbit/s.
    pub kbps_total: f64,
}

impl Record for MultiPiconetOutcome {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("collision_rate", self.collision_rate),
            ("transmissions", self.transmissions as f64),
            ("kbps_total", self.kbps_total),
        ]
    }

    fn completed(&self) -> bool {
        self.connected
    }
}

/// N independent master+slave piconets, all saturated, sharing the 79
/// channels: measures the medium's collision rate as piconets are
/// added — the system-level cost of uncoordinated frequency hopping,
/// to be compared with the analytic per-slot overlap of ≈1/79 per
/// co-channel neighbour.
#[derive(Debug, Clone)]
pub struct MultiPiconetScenario {
    cfg: MultiPiconetConfig,
}

impl MultiPiconetScenario {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `piconets` is 0.
    pub fn new(cfg: MultiPiconetConfig) -> Self {
        assert!(cfg.piconets >= 1, "at least one piconet");
        Self { cfg }
    }

    fn topology(cfg: &MultiPiconetConfig) -> Topology {
        let mut topo = Topology::new();
        for p in 0..cfg.piconets {
            topo.piconet(&format!("p{p}"), 1);
        }
        topo
    }
}

impl Scenario for MultiPiconetScenario {
    type Config = MultiPiconetConfig;
    type Outcome = MultiPiconetOutcome;

    fn name(&self) -> &'static str {
        "multi_piconet"
    }

    fn config(&self) -> &MultiPiconetConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut b = SimBuilder::new(seed, self.cfg.sim.clone());
        register_devices(&Self::topology(&self.cfg), &mut b);
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> MultiPiconetOutcome {
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

    fn drive_formed(&self, sim: &mut Simulator) -> MultiPiconetOutcome {
        self.measure(sim)
    }
}

impl MultiPiconetScenario {
    fn failed(formation: FormationStatus) -> MultiPiconetOutcome {
        MultiPiconetOutcome {
            connected: false,
            formation,
            collision_rate: 0.0,
            transmissions: 0,
            kbps_total: 0.0,
        }
    }

    /// The measurement suffix, on a simulator positioned right after
    /// formation (fresh or restored from a snapshot).
    fn measure(&self, sim: &mut Simulator) -> MultiPiconetOutcome {
        let topo = Self::topology(&self.cfg);
        let map = match ScatternetMap::recover(&topo, sim) {
            Ok(map) => map,
            Err(e) => return Self::failed((&e).into()),
        };
        // Saturate every piconet: continuous polling plus a bulk
        // transfer that outlasts the window (DM1 moves ≤ 8.5 B/slot).
        let payload = (self.cfg.measure_slots as usize) * 9;
        for p in 0..self.cfg.piconets {
            let master = topo.master_device(p);
            if self.cfg.saturate {
                let lt = map
                    .link(p, topo.slave_device(p, 0))
                    .expect("formed link")
                    .lt_addr;
                sim.command(master, LcCommand::SetTpoll(2));
                sim.command(
                    master,
                    LcCommand::AclData {
                        lt_addr: lt,
                        data: vec![0x5A; payload],
                    },
                );
            }
        }
        let start = sim.now();
        let stats0 = sim.tx_stats();
        let end = start + SimDuration::from_slots(self.cfg.measure_slots);
        sim.run_until(end);
        let stats = sim.tx_stats().since(stats0);
        let received: usize = sim
            .events()
            .iter()
            .filter(|e| e.at > start && e.device >= self.cfg.piconets)
            .filter_map(|e| match &e.event {
                LcEvent::AclReceived { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        let window = end.since(start).secs_f64();
        MultiPiconetOutcome {
            connected: true,
            formation: FormationStatus::Formed,
            collision_rate: stats.collision_rate(),
            transmissions: stats.transmissions,
            kbps_total: received as f64 * 8.0 / window / 1000.0,
        }
    }
}

// ---------------------------------------------------------------------------

/// Configuration of the dense-floor density scenario.
#[derive(Debug, Clone)]
pub struct DenseFloorConfig {
    /// Grid of clusters: `(columns, rows)` of floor positions.
    pub grid: (usize, usize),
    /// Co-located master+slave piconets per cluster — the density knob.
    /// Piconets of one cluster all interfere; different clusters are
    /// out of range of each other.
    pub piconets_per_point: usize,
    /// Distance between neighbouring clusters in metres. Must exceed
    /// the interaction radius or the clusters merge into one
    /// interference domain (and one shard component).
    pub spacing: f64,
    /// Measurement window in slots.
    pub measure_slots: u64,
    /// Cap for each join page during formation.
    pub join_cap_slots: u64,
    /// Simulator configuration; [`Self::default`] enables the spatial
    /// model with a 10 m radius so clusters decompose into independent
    /// shard components.
    pub sim: SimConfig,
}

impl Default for DenseFloorConfig {
    fn default() -> Self {
        let mut sim = paper_config();
        sim.channel.spatial = Some(SpatialConfig::with_radius(10.0));
        Self {
            grid: (3, 3),
            piconets_per_point: 2,
            spacing: 40.0,
            measure_slots: 3_000,
            join_cap_slots: 4_096,
            sim,
        }
    }
}

/// Outcome of one dense-floor run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseFloorOutcome {
    /// Every piconet formed.
    pub connected: bool,
    /// Which join (or topology check) failed, when formation did not
    /// complete; [`FormationStatus::Formed`] otherwise.
    pub formation: FormationStatus,
    /// Devices on the floor (two per piconet).
    pub devices: u64,
    /// Fraction of transmissions that collided during the window.
    pub collision_rate: f64,
    /// Transmissions observed during the window.
    pub transmissions: u64,
    /// Aggregate delivered user-payload rate, in kbit/s.
    pub kbps_total: f64,
    /// The analytic collision anchor for the piconets *within one
    /// cluster* ([`analytic_collision_rate`] of `piconets_per_point`):
    /// with range culling the floor-wide rate should track the
    /// single-cluster rate, not the all-piconets one.
    pub analytic_cell_rate: f64,
}

impl Record for DenseFloorOutcome {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("density", self.devices as f64 / 2.0),
            ("collision_rate", self.collision_rate),
            ("analytic_cell_rate", self.analytic_cell_rate),
            ("transmissions", self.transmissions as f64),
            ("kbps_total", self.kbps_total),
        ]
    }

    fn completed(&self) -> bool {
        self.connected
    }
}

/// A floor of saturated master+slave piconets clustered on a coarse
/// grid: every cluster holds `piconets_per_point` co-located piconets,
/// and clusters are spaced beyond radio range so only same-cluster
/// piconets interfere. This is the headline workload for the spatial
/// medium — collision rates anchor to the *cluster-local* analytic
/// value regardless of floor size, and the disjoint clusters let
/// [`SimConfig::shards`] run the floor on parallel workers with
/// bit-identical results (see `docs/SPATIAL.md`).
#[derive(Debug, Clone)]
pub struct DenseFloorScenario {
    cfg: DenseFloorConfig,
}

impl DenseFloorScenario {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, `piconets_per_point` is 0, or the
    /// spacing does not clear the configured interaction radius.
    pub fn new(cfg: DenseFloorConfig) -> Self {
        assert!(cfg.grid.0 >= 1 && cfg.grid.1 >= 1, "at least one cluster");
        assert!(cfg.piconets_per_point >= 1, "at least one piconet");
        if let Some(spatial) = cfg.sim.channel.spatial {
            assert!(
                cfg.spacing > spatial.path_loss().radius(),
                "cluster spacing {} must exceed the interaction radius {}",
                cfg.spacing,
                spatial.path_loss().radius()
            );
        }
        Self { cfg }
    }

    fn points(&self) -> usize {
        self.cfg.grid.0 * self.cfg.grid.1
    }

    fn piconets(&self) -> usize {
        self.points() * self.cfg.piconets_per_point
    }

    fn topology(&self) -> Topology {
        let mut topo = Topology::new();
        for p in 0..self.piconets() {
            topo.piconet(&format!("p{p}"), 1);
        }
        topo
    }

    /// Floor position of canonical device `dev`: masters come first,
    /// then the plain slaves in piconet order, and piconet `p` sits at
    /// cluster `p / piconets_per_point` on the grid.
    fn place(&self, dev: usize) -> Position {
        let piconets = self.piconets();
        let p = if dev < piconets { dev } else { dev - piconets };
        let point = p / self.cfg.piconets_per_point;
        let (cols, _) = self.cfg.grid;
        Position::new(
            (point % cols) as f64 * self.cfg.spacing,
            (point / cols) as f64 * self.cfg.spacing,
        )
    }

    /// Forms every piconet and issues the saturating transfers (T_poll
    /// = 2 plus a bulk ACL payload outlasting the window); a failed
    /// join surfaces as the typed [`ScatternetError`] instead of a
    /// silent partial floor. [`Scenario::drive`] measures the window
    /// that follows — the speed benchmarks call this directly so their
    /// timed region is pure steady-state traffic.
    pub fn prepare(&self, sim: &mut Simulator) -> Result<ScatternetMap, ScatternetError> {
        let map = form_scatternet(&self.topology(), sim, self.cfg.join_cap_slots)?;
        self.saturate(sim, &map);
        Ok(map)
    }

    /// Issues the saturating transfers on a formed floor: T_poll = 2 and
    /// `measure_slots × 9` bytes per piconet, enough for one window.
    pub(crate) fn saturate(&self, sim: &mut Simulator, map: &ScatternetMap) {
        let topo = &map.topology;
        let payload = (self.cfg.measure_slots as usize) * 9;
        for p in 0..self.piconets() {
            let master = topo.master_device(p);
            let lt = map
                .link(p, topo.slave_device(p, 0))
                .expect("formed link")
                .lt_addr;
            sim.command(master, LcCommand::SetTpoll(2));
            sim.command(
                master,
                LcCommand::AclData {
                    lt_addr: lt,
                    data: vec![0x5A; payload],
                },
            );
        }
    }

    fn failed(&self, formation: FormationStatus) -> DenseFloorOutcome {
        DenseFloorOutcome {
            connected: false,
            formation,
            devices: (2 * self.piconets()) as u64,
            collision_rate: 0.0,
            transmissions: 0,
            kbps_total: 0.0,
            analytic_cell_rate: analytic_collision_rate(self.cfg.piconets_per_point),
        }
    }

    /// The measurement suffix: saturate the formed floor (with a map
    /// recovered from baseband state) and measure the traffic window.
    fn measure(&self, sim: &mut Simulator) -> DenseFloorOutcome {
        let map = match ScatternetMap::recover(&self.topology(), sim) {
            Ok(map) => map,
            Err(e) => return self.failed((&e).into()),
        };
        self.saturate(sim, &map);
        self.measure_window(sim)
    }

    fn measure_window(&self, sim: &mut Simulator) -> DenseFloorOutcome {
        let piconets = self.piconets();
        let start = sim.now();
        let stats0 = sim.tx_stats();
        let end = start + SimDuration::from_slots(self.cfg.measure_slots);
        sim.run_until(end);
        let stats = sim.tx_stats().since(stats0);
        let received: usize = sim
            .events()
            .iter()
            .filter(|e| e.at > start && e.device >= piconets)
            .filter_map(|e| match &e.event {
                LcEvent::AclReceived { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        let window = end.since(start).secs_f64();
        DenseFloorOutcome {
            connected: true,
            formation: FormationStatus::Formed,
            devices: (2 * piconets) as u64,
            collision_rate: stats.collision_rate(),
            transmissions: stats.transmissions,
            kbps_total: received as f64 * 8.0 / window / 1000.0,
            analytic_cell_rate: analytic_collision_rate(self.cfg.piconets_per_point),
        }
    }
}

impl Scenario for DenseFloorScenario {
    type Config = DenseFloorConfig;
    type Outcome = DenseFloorOutcome;

    fn name(&self) -> &'static str {
        "dense_floor"
    }

    fn config(&self) -> &DenseFloorConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut b = SimBuilder::new(seed, self.cfg.sim.clone());
        register_devices_at(&self.topology(), &mut b, |dev| self.place(dev));
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> DenseFloorOutcome {
        if let Err(e) = form_scatternet(&self.topology(), sim, self.cfg.join_cap_slots) {
            return self.failed((&e).into());
        }
        self.measure(sim)
    }

    fn form(&self, seed: u64) -> Option<Simulator> {
        let mut sim = self.build(seed);
        form_scatternet(&self.topology(), &mut sim, self.cfg.join_cap_slots).ok()?;
        Some(sim)
    }

    fn drive_formed(&self, sim: &mut Simulator) -> DenseFloorOutcome {
        self.measure(sim)
    }
}

/// The analytic inter-piconet collision anchor: a saturated piconet
/// transmits essentially every slot on a hop drawn uniformly from the
/// 79 channels; a packet therefore overlaps (in time) with roughly two
/// packets of every other piconet (clock phases are independent), each
/// matching its channel with probability 1/79. With `n` piconets the
/// expected collided fraction is `1 − (78/79)^(2(n−1))`.
pub fn analytic_collision_rate(piconets: usize) -> f64 {
    if piconets <= 1 {
        return 0.0;
    }
    1.0 - (78.0f64 / 79.0).powi(2 * (piconets as i32 - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn single_piconet_never_collides() {
        let out = MultiPiconetScenario::new(MultiPiconetConfig {
            piconets: 1,
            measure_slots: 2_000,
            ..MultiPiconetConfig::default()
        })
        .run(3);
        assert!(out.connected);
        assert!(out.transmissions > 500, "saturated: {}", out.transmissions);
        assert_eq!(out.collision_rate, 0.0);
        assert!(out.kbps_total > 50.0, "goodput {}", out.kbps_total);
    }

    #[test]
    fn collision_rate_grows_with_piconet_count() {
        let run = |n| {
            MultiPiconetScenario::new(MultiPiconetConfig {
                piconets: n,
                measure_slots: 4_000,
                ..MultiPiconetConfig::default()
            })
            .run(7)
        };
        let two = run(2);
        let four = run(4);
        assert!(two.collision_rate > 0.003, "two: {}", two.collision_rate);
        assert!(
            four.collision_rate > two.collision_rate,
            "four {} vs two {}",
            four.collision_rate,
            two.collision_rate
        );
        // Within a factor of ~2.5 of the analytic anchor.
        let anchor = analytic_collision_rate(2);
        assert!(
            two.collision_rate < anchor * 2.5 && two.collision_rate > anchor / 2.5,
            "two-piconet rate {} vs analytic {}",
            two.collision_rate,
            anchor
        );
    }

    #[test]
    fn dense_floor_collisions_track_cluster_density_not_floor_size() {
        let run = |grid| {
            DenseFloorScenario::new(DenseFloorConfig {
                grid,
                ..DenseFloorConfig::default()
            })
            .run(7)
        };
        let small = run((1, 1)); // one cluster of 2 piconets
        let large = run((2, 2)); // four clusters, 8 piconets total
        assert!(small.connected && large.connected);
        assert!(large.transmissions > small.transmissions);
        // Range culling keeps the floor-wide rate at the *cluster*
        // anchor no matter how many out-of-range clusters are added.
        let anchor = analytic_collision_rate(2);
        for out in [&small, &large] {
            assert!(
                out.collision_rate < anchor * 2.5 && out.collision_rate > anchor / 2.5,
                "rate {} vs cluster anchor {anchor}",
                out.collision_rate
            );
        }
        assert!(
            large.collision_rate < analytic_collision_rate(8) / 2.0,
            "floor rate {} must not approach the all-piconets anchor {}",
            large.collision_rate,
            analytic_collision_rate(8)
        );
    }

    #[test]
    fn scatternet_relays_end_to_end_across_two_piconets() {
        let out = ScatternetScenario::new(ScatternetConfig {
            measure_slots: 8_000,
            ..ScatternetConfig::default()
        })
        .run(5);
        assert!(out.connected, "topology must form");
        assert!(out.sent >= 40, "sent {}", out.sent);
        assert!(
            out.delivered as f64 >= out.sent as f64 * 0.8,
            "delivered {}/{}",
            out.delivered,
            out.sent
        );
        assert!(
            out.mean_latency_slots > 0.0 && out.mean_latency_slots < 2_000.0,
            "latency {}",
            out.mean_latency_slots
        );
        assert!(out.goodput_bps > 0.0);
    }

    #[test]
    fn three_piconet_chain_delivers_and_is_deterministic() {
        let cfg = || ScatternetConfig {
            piconets: 3,
            measure_slots: 8_000,
            ..ScatternetConfig::default()
        };
        let started = Instant::now();
        let a = ScatternetScenario::new(cfg()).run(11);
        let b = ScatternetScenario::new(cfg()).run(11);
        assert_eq!(a, b, "same seed, same outcome");
        assert!(a.connected);
        assert!(a.delivered > 0, "cross-chain delivery: {a:?}");
        // Keep an eye on cost: this is the determinism-test workload.
        assert!(
            started.elapsed().as_secs() < 120,
            "3-piconet run too slow: {:?}",
            started.elapsed()
        );
    }
}
