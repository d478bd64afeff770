//! The system simulator: devices, channel and kernel wired together.
//!
//! [`Simulator`] owns the discrete-event calendar, the shared [`Medium`],
//! one [`LinkController`] + [`LinkManager`] per device, the RF power
//! monitor and the waveform recorder. It plays the role of the SystemC
//! netlist + kernel in the paper: half-slot ticks drive the baseband
//! state machines, their RF actions become channel transmissions and
//! receive windows, and `enable_tx_RF` / `enable_rx_RF` transitions are
//! recorded for the power analysis and waveform figures.
//!
//! Two [`Engine`]s drive the ticks. [`Engine::Lockstep`] is the paper's
//! scheme — every device is polled every half slot — and serves as the
//! behavioural oracle. [`Engine::EventDriven`] fast-forwards the clock
//! across guaranteed-no-op gaps using each controller's
//! [`LinkController::next_wakeup`] hint plus the link manager's pending
//! mode-change slots; `docs/ENGINE.md` describes the wakeup-hint
//! contract and the differential harness that gates both engines to
//! bit-identical behaviour.

use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::{MetricsSnapshot, MetricsStream};
use crate::observe::{merge_since, ObsCursor, SimEvent};
use btsim_baseband::{
    stat_slot_pair, BdAddr, ClkVal, Clock, LcAction, LcCommand, LcConfig, LcEvent, LifePhase,
    LinkController, Llid, RxDelivery, StatSide,
};
use btsim_channel::{
    ChannelConfig, ChannelQuality, DutyClass, Interferer, Medium, Position, TxId, TxStats,
};
use btsim_coding::BitVec;
use btsim_fidelity::{ErrorModel, Fidelity};
use btsim_kernel::{
    Calendar, CaptureDir, CaptureKind, CaptureRecord, CaptureSink, SignalRef, SimDuration, SimRng,
    SimTime, TraceRecorder, TraceValue,
};
use btsim_lmp::{LinkManager, LmEvent, LmOutput, LmRole};
use btsim_power::{DeviceReport, PowerMonitor};

mod index;
mod snapshot;
use index::{Indexes, WakeTree};
pub use snapshot::SimSnapshot;

/// Tolerance for a transmission starting marginally before a window
/// opens (receiver timing uncertainty).
const RX_UNCERTAINTY: SimDuration = SimDuration::from_us(10);

/// How long the medium retains finished transmissions for delivery.
const MEDIUM_RETENTION: SimDuration = SimDuration::from_us(50_000);

/// A position in the simulator's event log.
///
/// Cursors let independent observers scan the log without aliasing each
/// other's progress: each holds its own cursor and advances it through
/// [`Simulator::events_since`] or [`Simulator::run_until_event_from`].
/// A fresh cursor ([`EventCursor::default`]) starts at the beginning of
/// the log; [`Simulator::cursor`] starts at its current end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventCursor(usize);

/// An [`LcEvent`] with its time and originating device.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which device reported it.
    pub device: usize,
    /// The event itself.
    pub event: LcEvent,
}

/// An [`LmEvent`] with its time and originating device.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedLmEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which device reported it.
    pub device: usize,
    /// The event itself.
    pub event: LmEvent,
}

/// How the simulator drives the baseband state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tick every device every half slot, as the paper's SystemC model
    /// does. Simple, and the behavioural oracle for the fast engine.
    #[default]
    Lockstep,
    /// Fast-forward the clock to the earliest wakeup across all devices
    /// ([`LinkController::next_wakeup`] + pending LMP mode changes),
    /// skipping ticks that are provably no-ops. Bit-identical to
    /// lockstep (enforced by `tests/engine_equivalence.rs`), and much
    /// faster whenever devices idle in hold/sniff/park or an R1 page
    /// scan.
    EventDriven,
}

impl Engine {
    /// Parses a CLI name (`lockstep` / `event`).
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "lockstep" => Some(Engine::Lockstep),
            "event" | "event-driven" => Some(Engine::EventDriven),
            _ => None,
        }
    }

    /// The CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Lockstep => "lockstep",
            Engine::EventDriven => "event",
        }
    }
}

/// Adaptive-frequency-hopping policy knobs (spec v1.2 AFH), consumed
/// by the host layer — scenarios such as
/// [`crate::scenario::AfhAdaptScenario`] — that closes the
/// assessment → `LMP_channel_classification` → `LMP_set_AFH` loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfhConfig {
    /// Run the AFH policy at all (off reproduces pre-v1.2 behaviour).
    pub enabled: bool,
    /// Minimum receptions observed on a channel before it is
    /// classified (fewer = "unknown", kept in use).
    pub min_samples: u32,
    /// Bad-reception fraction at or above which a channel is
    /// classified unusable.
    pub bad_threshold: f64,
    /// Traffic window (slots) observed before each classification
    /// round.
    pub assess_slots: u64,
}

impl Default for AfhConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            min_samples: 4,
            bad_threshold: 0.3,
            assess_slots: 2_500,
        }
    }
}

/// Simulator-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Channel noise and modem delay.
    pub channel: ChannelConfig,
    /// Link-controller configuration shared by all devices.
    pub lc: LcConfig,
    /// Adaptive-frequency-hopping policy (host layer).
    pub afh: AfhConfig,
    /// Record waveforms (off for Monte-Carlo batches).
    pub trace: bool,
    /// Record every air packet and LMP PDU into the capture sink
    /// ([`Simulator::capture`]); serialize with
    /// `btsim_trace::btsnoop::serialize_sink`. Like tracing, capture
    /// pins the PHY to the bit tier (the statistical tier produces no
    /// bit images to record). Off by default: the hot path then costs
    /// one branch per packet.
    pub capture: bool,
    /// Emit a metrics-hub snapshot as a JSON line every this many slots
    /// ([`Simulator::metrics_lines`]); `None` (the default) disables
    /// streaming entirely.
    pub metrics_every: Option<u64>,
    /// Randomise each device's initial CLKN (on by default; scenarios
    /// that model pre-synchronised devices may turn it off).
    pub random_clkn: bool,
    /// Which engine drives the ticks.
    pub engine: Engine,
    /// PHY fidelity tier: bit-accurate always, statistical always (when
    /// the stability tracker allows), or automatic promotion once the
    /// per-link BER estimate converges. See `docs/FIDELITY.md`.
    pub fidelity: Fidelity,
    /// Worker threads for an intra-run sharded simulation (see
    /// `docs/SPATIAL.md`). With a spatial channel model
    /// ([`ChannelConfig::spatial`]) and `shards >= 2`, the device set
    /// is decomposed into connected components of the in-range graph;
    /// each component runs as an independent inner simulator, and
    /// `run_until` advances them on up to `shards` scoped worker
    /// threads. Results are bit-identical to the unsharded (`shards ==
    /// 1`) run regardless of the worker count. Without a spatial model
    /// — or when tracing, packet capture or metrics streaming pin the
    /// run to a single timeline — the knob is ignored and the run is
    /// monolithic.
    pub shards: usize,
    /// Deterministic fault script (`docs/FAULTS.md`): device crashes,
    /// radio mutes/degrades, clock jumps and noise bursts, scheduled as
    /// ordinary calendar events so both engines apply each fault at the
    /// same instant. Empty by default. Parse a `--faults` CLI spec with
    /// [`FaultPlan::parse`], or generate churn with [`FaultPlan::churn`].
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            channel: ChannelConfig::default(),
            lc: LcConfig::default(),
            afh: AfhConfig::default(),
            trace: false,
            capture: false,
            metrics_every: None,
            random_clkn: true,
            engine: Engine::default(),
            fidelity: Fidelity::default(),
            shards: 1,
            faults: FaultPlan::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActiveWindow {
    id: u64,
    channel: u8,
    opened_at: SimTime,
    until: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingWindow {
    id: u64,
    channel: u8,
    from: SimTime,
    until: Option<SimTime>,
}

/// Deterministic scan-work counters: how many devices the per-event
/// walks examined. They depend only on the simulated work, never on the
/// host, so tests gate them exactly (`tests/spatial_sharding.rs`).
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    /// Devices the `TxStart` listener walk examined.
    listener_visits: u64,
    /// Statistical-tier attempts: ticks that found a same-component
    /// pair whose master sends data at that instant.
    stat_attempts: u64,
    /// Devices the attempts' component walks examined.
    stat_walk_visits: u64,
}

impl Cost {
    fn plus(self, o: Cost) -> Cost {
        Cost {
            listener_visits: self.listener_visits + o.listener_visits,
            stat_attempts: self.stat_attempts + o.stat_attempts,
            stat_walk_visits: self.stat_walk_visits + o.stat_walk_visits,
        }
    }
}

#[derive(Clone)]
struct DeviceCell {
    lc: LinkController,
    lm: LinkManager,
    active: Option<ActiveWindow>,
    pending: Vec<PendingWindow>,
    rx_busy_until: SimTime,
    sig_tx: SignalRef,
    sig_rx: SignalRef,
}

#[derive(Debug, Clone)]
enum Ev {
    /// Lockstep: one per device, self-rescheduling every half slot.
    Tick(usize),
    /// Event-driven: the single dispatch event sitting at the earliest
    /// pending wakeup. `seq` invalidates superseded instances.
    Wake {
        seq: u64,
    },
    Command {
        dev: usize,
        cmd: LcCommand,
        /// When the command was scheduled — decides whether the target
        /// device's lockstep tick at the dispatch instant runs before or
        /// after it, which the event-driven engine must reproduce.
        inserted: SimTime,
    },
    TxStart {
        dev: usize,
        channel: u8,
        bits: BitVec,
    },
    Deliver {
        tx: TxId,
        listeners: Vec<usize>,
    },
    WindowOpen {
        dev: usize,
        id: u64,
    },
    WindowClose {
        dev: usize,
        id: u64,
    },
    /// A scheduled fault from the simulator's [`FaultPlan`], by index.
    /// Scheduled at build time, so its insertion sequence precedes every
    /// re-scheduled tick/wake at the same instant — faults apply before
    /// any device acts at their instant, under both engines.
    Fault {
        idx: usize,
    },
}

/// A [`BdAddr`] was registered twice with a [`SimBuilder`].
///
/// Duplicate addresses would give two devices the same sync words and
/// hop sequences, silently corrupting every exchange — an easy mistake
/// for multi-piconet builders composing address sets from several
/// sources, so registration reports it as a typed error instead of
/// letting the simulation misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateAddr {
    /// The address registered twice.
    pub addr: BdAddr,
    /// Index of the device that already owns it.
    pub existing: usize,
}

impl std::fmt::Display for DuplicateAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device address {:?} is already registered (device {})",
            self.addr, self.existing
        )
    }
}

impl std::error::Error for DuplicateAddr {}

/// Builds a [`Simulator`] device by device.
pub struct SimBuilder {
    cfg: SimConfig,
    seed: u64,
    specs: Vec<(String, BdAddr, LmRole)>,
    /// One position per spec; [`Position::ORIGIN`] unless placed with
    /// an `add_device_at*` method. Ignored without a spatial channel
    /// model.
    positions: Vec<Position>,
}

impl SimBuilder {
    /// Starts a builder with the given seed and configuration.
    pub fn new(seed: u64, cfg: SimConfig) -> Self {
        Self {
            cfg,
            seed,
            specs: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Overrides the engine (equivalent to setting it on the config).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Overrides the PHY fidelity tier (equivalent to setting it on the
    /// config).
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.cfg.fidelity = fidelity;
        self
    }

    /// Overrides the AFH policy (equivalent to setting it on the config).
    pub fn afh(mut self, afh: AfhConfig) -> Self {
        self.cfg.afh = afh;
        self
    }

    /// The link-manager role the legacy single-piconet helpers assign:
    /// first device masters, the rest are slaves.
    fn default_role(&self) -> LmRole {
        if self.specs.is_empty() {
            LmRole::Master
        } else {
            LmRole::Slave
        }
    }

    /// A deterministic, well-spread address from a counter.
    fn auto_addr(i: u32) -> BdAddr {
        let lap = 0x2A_1000u32.wrapping_add(i.wrapping_mul(0x01_3579)) & 0xFF_FFFF;
        BdAddr::new(0x0B00 + i as u16, 0x40 + i as u8, lap)
    }

    /// Adds a device with an auto-generated address; returns its index.
    pub fn add_device(&mut self, name: &str) -> usize {
        let role = self.default_role();
        self.add_device_with_role(name, role)
    }

    /// Adds a device with an auto-generated address and an explicit
    /// link-manager role; returns its index. Scatternet builders use
    /// this for the masters of piconets beyond the first.
    pub fn add_device_with_role(&mut self, name: &str, role: LmRole) -> usize {
        // Auto addresses skip over any explicitly registered ones.
        let mut i = self.specs.len() as u32;
        let addr = loop {
            let candidate = Self::auto_addr(i);
            if !self.specs.iter().any(|(_, a, _)| *a == candidate) {
                break candidate;
            }
            i = i.wrapping_add(1);
        };
        self.specs.push((name.to_owned(), addr, role));
        self.positions.push(Position::ORIGIN);
        self.specs.len() - 1
    }

    /// Adds a device at a position on the floor (auto-generated
    /// address); returns its index. The position only matters with a
    /// spatial channel model ([`ChannelConfig::spatial`]).
    pub fn add_device_at(&mut self, name: &str, pos: Position) -> usize {
        let i = self.add_device(name);
        self.positions[i] = pos;
        i
    }

    /// Adds a device at a position with an explicit link-manager role;
    /// returns its index.
    pub fn add_device_at_with_role(&mut self, name: &str, pos: Position, role: LmRole) -> usize {
        let i = self.add_device_with_role(name, role);
        self.positions[i] = pos;
        i
    }

    /// Adds a device with an explicit address; returns its index, or a
    /// [`DuplicateAddr`] error when the address is already registered.
    pub fn add_device_with_addr(
        &mut self,
        name: &str,
        addr: BdAddr,
    ) -> Result<usize, DuplicateAddr> {
        if let Some(existing) = self.specs.iter().position(|(_, a, _)| *a == addr) {
            return Err(DuplicateAddr { addr, existing });
        }
        let role = self.default_role();
        self.specs.push((name.to_owned(), addr, role));
        self.positions.push(Position::ORIGIN);
        Ok(self.specs.len() - 1)
    }

    /// Finalises the simulator.
    ///
    /// With a spatial channel model and [`SimConfig::shards`] ≥ 2, the
    /// device set is decomposed into connected components of the
    /// in-range graph and each component becomes an independent inner
    /// simulator (see `docs/SPATIAL.md`). Tracing, packet capture and
    /// metrics streaming need a single merged timeline, so any of them
    /// pins the build to the monolithic path.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan targets a device that was never added
    /// (check user-supplied plans with [`FaultPlan::check_devices`]).
    pub fn build(self) -> Simulator {
        if let Err(e) = self.cfg.faults.check_devices(self.specs.len()) {
            panic!("{e}");
        }
        let pinned_mono = self.cfg.trace || self.cfg.capture || self.cfg.metrics_every.is_some();
        let workers = if pinned_mono {
            1
        } else {
            self.cfg.shards.max(1)
        };
        if workers > 1 && self.cfg.channel.spatial.is_some() && self.specs.len() > 1 {
            self.build_sharded(workers)
        } else {
            self.build_mono(None)
        }
    }

    /// The component-per-shard build: one inner simulator per connected
    /// component, each constructed with the *global* device ids so its
    /// RNG streams (CLKN draw, controller seed, medium noise stream)
    /// are exactly the ones the monolithic build would have used.
    fn build_sharded(self, workers: usize) -> Simulator {
        let spatial = self.cfg.channel.spatial.expect("checked by build");
        let (_, comp_of) = index::in_range_graph(Some(&spatial), &self.positions);
        // A single component still goes through the delegation layer:
        // no parallelism to win, but `--shards` must not change
        // behaviour, and the differential tests lean on that.
        let ncomp = comp_of.iter().copied().max().unwrap_or(0) + 1;
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
        for (d, &c) in comp_of.iter().enumerate() {
            members[c].push(d);
        }
        let mut shard_of = vec![(0, 0); self.specs.len()];
        let mut shards = Vec::with_capacity(ncomp);
        for (ci, globals) in members.iter().enumerate() {
            let mut child = SimBuilder::new(self.seed, self.cfg.clone());
            child.cfg.shards = 1;
            child.specs = globals.iter().map(|&d| self.specs[d].clone()).collect();
            child.positions = globals.iter().map(|&d| self.positions[d]).collect();
            for (l, &d) in globals.iter().enumerate() {
                shard_of[d] = (ci, l);
            }
            shards.push(child.build_mono(Some(globals)));
        }
        let root = SimRng::new(self.seed);
        Simulator {
            cal: Calendar::new(),
            medium: Medium::new(self.cfg.channel.clone(), root.fork(0xC4A7)),
            devices: Vec::new(),
            monitor: PowerMonitor::new(0, LifePhase::Standby),
            recorder: TraceRecorder::disabled(),
            events: Vec::new(),
            lm_events: Vec::new(),
            next_window_id: 0,
            steps_since_gc: 0,
            inspect_cursor: 0,
            engine: self.cfg.engine,
            fidelity: self.cfg.fidelity,
            error_model: ErrorModel::new(self.cfg.channel.ber, self.cfg.lc.sync_threshold),
            modem_delay: self.cfg.channel.modem_delay,
            peek: SimDuration::from_us(self.cfg.lc.peek_us),
            run_cap: SimTime::ZERO,
            wake: WakeTree::new(&[]),
            wake_seq: 0,
            steps_total: 0,
            cost: Cost::default(),
            fidelity_promotions: 0,
            fidelity_demotions: 0,
            metrics: None,
            shards,
            shard_of,
            shard_globals: members,
            merge_done: vec![(0, 0); ncomp],
            workers,
            comp_of,
            index: Indexes::default(),
            // The shell keeps the full (un-remapped) plan for
            // introspection; each shard holds — and schedules — its own
            // restriction.
            faults: self.cfg.faults,
            crashed: Vec::new(),
            muted: Vec::new(),
            drifted: Vec::new(),
            faults_applied: 0,
        }
    }

    /// The single-timeline build. `globals`, when given, maps each
    /// local device index to its global id in an enclosing sharded
    /// simulator: every per-device RNG stream is keyed by the global
    /// id, so a component simulated alone draws exactly what it would
    /// have drawn on the full floor.
    fn build_mono(self, globals: Option<&[usize]>) -> Simulator {
        let root = SimRng::new(self.seed);
        let mut medium = Medium::new(self.cfg.channel.clone(), root.fork(0xC4A7));
        if self.cfg.capture {
            medium.set_capture(CaptureSink::enabled());
        }
        let mut recorder = if self.cfg.trace {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        };
        let monitor = PowerMonitor::new(self.specs.len(), LifePhase::Standby);
        let mut devices = Vec::with_capacity(self.specs.len());
        let mut cal = Calendar::new();
        // Schedule the fault script first: build-time insertion gives
        // every fault a lower sequence number than any re-scheduled
        // tick or wake, so a fault at instant T dispatches before any
        // device acts at T — identically under both engines. An inner
        // shard sees only its own devices' faults (remapped to local
        // indices) plus every noise fault, which is exactly what keeps
        // sharded runs bit-identical to monolithic ones.
        let faults = match globals {
            Some(g) => self.cfg.faults.restricted_to(g),
            None => self.cfg.faults.clone(),
        };
        for (idx, ev) in faults.events().iter().enumerate() {
            let at = SimTime::from_ns(ev.at_slot * SimDuration::SLOT.ns());
            cal.schedule(at, Ev::Fault { idx });
        }
        for (i, (name, addr, role)) in self.specs.iter().enumerate() {
            let g = globals.map_or(i, |g| g[i]) as u64;
            if self.cfg.channel.spatial.is_some() {
                medium.register_radio(i, self.positions[i], g);
            }
            let mut clk_rng = root.fork(0x10_0000 + g);
            let clkn0 = if self.cfg.random_clkn {
                ClkVal::new(clk_rng.range_u64(1 << 28) as u32)
            } else {
                ClkVal::new(0)
            };
            let lc = LinkController::new(
                *addr,
                Clock::new(clkn0),
                self.cfg.lc.clone(),
                root.fork(0x20_0000 + g).seed(),
            );
            let sig_tx = recorder.declare(name, "enable_tx_RF", 1);
            let sig_rx = recorder.declare(name, "enable_rx_RF", 1);
            devices.push(DeviceCell {
                lc,
                lm: LinkManager::new(*role),
                active: None,
                pending: Vec::new(),
                rx_busy_until: SimTime::ZERO,
                sig_tx,
                sig_rx,
            });
            if self.cfg.engine == Engine::Lockstep {
                cal.schedule(SimTime::ZERO, Ev::Tick(i));
            }
        }
        // Components scope the statistical tier's stability gate in
        // spatial mode: a link pair only demotes for contention within
        // its own connected component, which is what keeps a monolithic
        // spatial run bit-identical to the sharded one.
        let (near, comp_of) = index::in_range_graph(medium.spatial(), &self.positions);
        let index = Indexes::new(devices.iter().map(|c| c.lc.addr()), near, &comp_of);
        let n = devices.len();
        Simulator {
            cal,
            medium,
            devices,
            monitor,
            recorder,
            events: Vec::new(),
            lm_events: Vec::new(),
            next_window_id: 0,
            steps_since_gc: 0,
            inspect_cursor: 0,
            engine: self.cfg.engine,
            // Waveform tracing needs the bit-level RF signal edges and
            // packet capture needs the bit images, so either pins the
            // PHY to the bit tier.
            fidelity: if self.cfg.trace || self.cfg.capture {
                Fidelity::Bit
            } else {
                self.cfg.fidelity
            },
            error_model: ErrorModel::new(self.cfg.channel.ber, self.cfg.lc.sync_threshold),
            modem_delay: self.cfg.channel.modem_delay,
            peek: SimDuration::from_us(self.cfg.lc.peek_us),
            run_cap: SimTime::ZERO,
            // All devices start in standby: nothing to wake for until a
            // command arrives (commands re-arm their device's wakeup).
            wake: WakeTree::new(&vec![None; n]),
            wake_seq: 0,
            steps_total: 0,
            cost: Cost::default(),
            fidelity_promotions: 0,
            fidelity_demotions: 0,
            metrics: self.cfg.metrics_every.map(MetricsStream::new),
            shards: Vec::new(),
            shard_of: Vec::new(),
            shard_globals: Vec::new(),
            merge_done: Vec::new(),
            workers: 1,
            comp_of,
            index,
            faults,
            crashed: vec![false; n],
            muted: vec![false; n],
            drifted: vec![false; n],
            faults_applied: 0,
        }
    }
}

/// The complete system simulation.
///
/// # Examples
///
/// ```
/// use btsim_core::{SimBuilder, SimConfig};
/// use btsim_baseband::LcCommand;
/// use btsim_kernel::SimTime;
///
/// let mut b = SimBuilder::new(7, SimConfig::default());
/// let master = b.add_device("master");
/// let slave = b.add_device("slave1");
/// let mut sim = b.build();
/// sim.command(slave, LcCommand::InquiryScan);
/// sim.command(master, LcCommand::Inquiry { num_responses: 1, timeout_slots: 0 });
/// sim.run_until(SimTime::from_us(5_000_000));
/// // The scanner is usually discovered within 5 simulated seconds.
/// ```
#[derive(Clone)]
pub struct Simulator {
    cal: Calendar<Ev>,
    medium: Medium,
    devices: Vec<DeviceCell>,
    monitor: PowerMonitor<LifePhase>,
    recorder: TraceRecorder,
    events: Vec<LoggedEvent>,
    lm_events: Vec<LoggedLmEvent>,
    next_window_id: u64,
    steps_since_gc: u32,
    inspect_cursor: usize,
    engine: Engine,
    /// Effective PHY fidelity tier ([`Fidelity::Bit`] whenever tracing
    /// is on, regardless of the configured tier).
    fidelity: Fidelity,
    /// Closed-form per-section packet-error model at the configured BER.
    error_model: ErrorModel,
    /// Cached from the channel config for the statistical path.
    modem_delay: SimDuration,
    /// Cached carrier-detect window from the LC config.
    peek: SimDuration,
    /// Horizon of the current `run_*` call: the statistical tier never
    /// batches past it, because the caller may mutate state (commands,
    /// new traffic) as soon as control returns.
    run_cap: SimTime,
    /// Event-driven only: each device's next pending tick instant, in
    /// a min-tree so the earliest is O(1) to read.
    wake: WakeTree,
    /// Invalidates superseded [`Ev::Wake`] instances.
    wake_seq: u64,
    /// Calendar events dispatched so far (engine-cost diagnostic).
    steps_total: u64,
    /// Scan-work counters (metrics hub `cost.*`).
    cost: Cost,
    /// Statistical-tier promotions observed so far (metrics hub).
    fidelity_promotions: u64,
    /// Statistical-tier demotions observed so far (metrics hub).
    fidelity_demotions: u64,
    /// Streaming metrics emission, when [`SimConfig::metrics_every`] is
    /// set.
    metrics: Option<MetricsStream>,
    /// Sharded mode: one inner simulator per connected component of
    /// the in-range graph, ordered by lowest global device id. Empty in
    /// a monolithic simulator — and in the inner simulators themselves,
    /// which are always monolithic (nesting is one level deep).
    shards: Vec<Simulator>,
    /// Sharded mode: global device id → (shard index, local index).
    shard_of: Vec<(usize, usize)>,
    /// Sharded mode: shard index → local index → global device id.
    shard_globals: Vec<Vec<usize>>,
    /// Sharded mode: per shard, how many (lc, lm) events have been
    /// merged into the shell's logs so far.
    merge_done: Vec<(usize, usize)>,
    /// Sharded mode: worker-thread cap for `run_until`
    /// ([`SimConfig::shards`]). Never affects results, only wall-clock.
    workers: usize,
    /// Spatial mode (monolithic or inner): dense component id per
    /// device; empty without a spatial model (everything is one
    /// implicit component).
    comp_of: Vec<usize>,
    /// Neighbour lists, component members, the address map (derived
    /// from the fixed topology; rebuilt on restore, never snapshotted).
    index: Indexes,
    /// The fault script driving [`Ev::Fault`] dispatches. In an inner
    /// shard this is already restricted to the shard's devices (local
    /// indices); the sharded shell keeps the full plan for
    /// introspection but schedules nothing itself.
    faults: FaultPlan,
    /// Per-device crashed flag: commands, transmissions and receptions
    /// of a crashed device are discarded until its revive fault.
    crashed: Vec<bool>,
    /// Per-device radio mute: the device transmits nothing and hears
    /// nothing, but its controller logic keeps running.
    muted: Vec<bool>,
    /// Devices whose native clock has jumped ([`FaultKind::Drift`]).
    /// Permanently blocks the statistical tier for their links: the
    /// tier's closed forms assume the pair's clocks agree, which only a
    /// bit-level re-page can re-establish.
    drifted: Vec<bool>,
    /// Fault events dispatched so far (metrics hub).
    faults_applied: u64,
}

/// `run_until_event`-style search hit its time horizon with no matching
/// event; the clock was clamped to the horizon.
///
/// Under the event-driven engine the calendar can be *empty* (or hold
/// only far-future wakeups) long before a caller's cap: without the
/// clamp the simulation clock would sit at the last processed event and
/// callers that loop on "no match yet" would spin without ever
/// advancing. The typed error makes the terminal state explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonReached {
    /// The cap the search was bounded by; `Simulator::now()` equals this
    /// (unless an already-scheduled event beyond the cap pins it lower).
    pub horizon: SimTime,
}

impl std::fmt::Display for HorizonReached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no matching event up to {}", self.horizon)
    }
}

impl std::error::Error for HorizonReached {}

impl Simulator {
    /// Whether this simulator delegates to per-component shards.
    fn sharded(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        if self.sharded() {
            self.shard_of.len()
        } else {
            self.devices.len()
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
    }

    /// Immutable access to a device's link controller (for assertions).
    pub fn lc(&self, dev: usize) -> &LinkController {
        if self.sharded() {
            let (s, l) = self.shard_of[dev];
            &self.shards[s].devices[l].lc
        } else {
            &self.devices[dev].lc
        }
    }

    /// The waveform recorder.
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// All logged link-controller events so far.
    pub fn events(&self) -> &[LoggedEvent] {
        &self.events
    }

    /// A cursor at the current end of the event log (events logged
    /// after this call are "since" it).
    pub fn cursor(&self) -> EventCursor {
        EventCursor(self.events.len())
    }

    /// The events logged at or after `cursor`, advancing the cursor to
    /// the end of the log.
    pub fn events_since(&self, cursor: &mut EventCursor) -> &[LoggedEvent] {
        let from = cursor.0.min(self.events.len());
        cursor.0 = self.events.len();
        &self.events[from..]
    }

    /// All logged link-manager events so far.
    pub fn lm_events(&self) -> &[LoggedLmEvent] {
        &self.lm_events
    }

    /// The packet-capture sink (air packets and LMP PDUs, in dispatch
    /// order). Disabled — and empty — unless [`SimConfig::capture`] was
    /// set; serialize with `btsim_trace::btsnoop::serialize_sink`.
    pub fn capture(&self) -> &CaptureSink {
        self.medium.capture()
    }

    /// A cursor at the current end of the merged event stream (events
    /// logged after this call are "since" it). A fresh
    /// [`ObsCursor::default`] starts at the beginning instead.
    pub fn observe(&self) -> ObsCursor {
        ObsCursor {
            lc: self.events.len(),
            lm: self.lm_events.len(),
        }
    }

    /// The unified event stream since `cursor`: both logs merged stably
    /// by instant (link-controller events ahead of link-manager events
    /// at a shared instant), advancing the cursor to their ends. Render
    /// with [`crate::observe::to_json_lines`].
    pub fn events_merged_since(&self, cursor: &mut ObsCursor) -> Vec<SimEvent> {
        merge_since(&self.events, &self.lm_events, cursor)
    }

    /// A metrics-hub snapshot of every subsystem at the current instant:
    /// medium counters, per-device power/buffer/fidelity state, engine
    /// progress and event-log sizes. Built on demand from state the
    /// subsystems already maintain — the hub costs nothing between
    /// calls. Diff two snapshots with [`MetricsSnapshot::since`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(self.cal.now());
        let tx = self.tx_stats();
        s.push_counter("medium.transmissions", tx.transmissions);
        s.push_counter("medium.collided", tx.collided);
        s.push_counter("medium.jammed", tx.jammed);
        let (fp, fd) = self.shards.iter().fold(
            (self.fidelity_promotions, self.fidelity_demotions),
            |(p, d), sh| (p + sh.fidelity_promotions, d + sh.fidelity_demotions),
        );
        s.push_counter("fidelity.promotions", fp);
        s.push_counter("fidelity.demotions", fd);
        s.push_counter("engine.steps", self.steps_total());
        let fa = self
            .shards
            .iter()
            .fold(self.faults_applied, |a, sh| a + sh.faults_applied);
        s.push_counter("faults.applied", fa);
        s.push_counter("events.lc", self.events.len() as u64);
        s.push_counter("events.lm", self.lm_events.len() as u64);
        s.push_counter("capture.records", self.medium.capture().len() as u64);
        let cost = self.shards.iter().fold(self.cost, |c, sh| c.plus(sh.cost));
        s.push_counter("cost.listener_visits", cost.listener_visits);
        s.push_counter("cost.stat_attempts", cost.stat_attempts);
        s.push_counter("cost.stat_walk_visits", cost.stat_walk_visits);
        for d in 0..self.device_count() {
            let rep = self.power_report(d);
            let lc = self.lc(d);
            s.push_counter(format!("dev{d}.power.tx_us"), rep.tx.us());
            s.push_counter(format!("dev{d}.power.rx_us"), rep.rx.us());
            s.push_counter(
                format!("dev{d}.buffer.dropped_bytes"),
                lc.dropped_tx_bytes(),
            );
            s.push_gauge(
                format!("dev{d}.buffer.queued_bytes"),
                lc.queued_tx_bytes() as f64,
            );
            s.push_gauge(
                format!("dev{d}.fidelity.promoted"),
                if lc.stat_promoted() { 1.0 } else { 0.0 },
            );
        }
        s.push_gauge("medium.ber", self.measured_ber());
        s.push_gauge(
            "medium.bad_rate",
            self.medium.channel_quality().total().bad_rate(),
        );
        s
    }

    /// The JSON lines streamed so far (one snapshot per
    /// [`SimConfig::metrics_every`] period); empty when streaming is
    /// off. See `docs/OBSERVABILITY.md` for the line schema.
    pub fn metrics_lines(&self) -> &str {
        self.metrics.as_ref().map_or("", |m| m.lines())
    }

    /// Observed channel bit-error fraction (diagnostics). Sharded runs
    /// combine the per-shard raw counters, so the fraction is exactly
    /// the monolithic one.
    pub fn measured_ber(&self) -> f64 {
        if self.sharded() {
            let (mut flipped, mut bits) = (0u64, 0u64);
            for sh in &self.shards {
                let (f, b) = sh.medium.bit_error_totals();
                flipped += f;
                bits += b;
            }
            if bits == 0 {
                0.0
            } else {
                flipped as f64 / bits as f64
            }
        } else {
            self.medium.measured_ber()
        }
    }

    /// Cumulative medium transmission/collision statistics. Scatternet
    /// experiments take a snapshot after topology formation and measure
    /// the delta over the traffic window ([`TxStats::since`]). Sharded
    /// runs report the field-wise sum over all shards.
    pub fn tx_stats(&self) -> TxStats {
        if self.sharded() {
            let mut acc = TxStats::default();
            for sh in &self.shards {
                let t = sh.medium.tx_stats();
                acc.transmissions += t.transmissions;
                acc.collided += t.collided;
                acc.jammed += t.jammed;
            }
            acc
        } else {
            self.medium.tx_stats()
        }
    }

    /// The medium's per-RF-channel quality counters (snapshot and diff
    /// with [`ChannelQuality::since`]); the AFH experiments use it to
    /// verify an adapted hop sequence stops landing in an interferer's
    /// band.
    pub fn channel_quality(&self) -> &ChannelQuality {
        self.medium.channel_quality()
    }

    /// The engine driving this simulator.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The fault plan this simulator was built with. A sharded shell
    /// reports the full plan; each shard holds (and schedules) only the
    /// restriction to its own devices plus all noise faults.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether `dev` is currently crashed (powered off by a
    /// [`FaultKind::Crash`] and not yet revived).
    pub fn device_crashed(&self, dev: usize) -> bool {
        if self.sharded() {
            let (s, l) = self.shard_of[dev];
            return self.shards[s].crashed[l];
        }
        self.crashed[dev]
    }

    /// Fault events applied so far, across all shards.
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied + self.shards.iter().map(|s| s.faults_applied).sum::<u64>()
    }

    /// Calendar events dispatched so far — the engine's unit of work.
    /// The event-driven engine's speedup is, to first order, the ratio
    /// of this count between engines for the same workload. Sharded
    /// runs sum over the shards.
    pub fn steps_total(&self) -> u64 {
        self.steps_total + self.shards.iter().map(Simulator::steps_total).sum::<u64>()
    }

    /// Digest of every random stream's position (device controllers and
    /// the medium). Two runs that made bit-identical random draws — the
    /// engine-equivalence requirement — have equal fingerprints.
    ///
    /// A sharded run reconstructs the exact monolithic fold: the
    /// medium's base stream is never drawn from in spatial mode (every
    /// sibling shard medium reports the same base fingerprint), and the
    /// per-radio noise streams and controller streams are folded in
    /// global device order across the shards.
    pub fn rng_fingerprint(&self) -> u64 {
        if self.sharded() {
            let mut acc = self.shards[0].medium.base_rng_fingerprint();
            for d in 0..self.shard_of.len() {
                let (s, l) = self.shard_of[d];
                acc = acc.rotate_left(9) ^ self.shards[s].medium.noise_fingerprint_of(l);
            }
            for d in 0..self.shard_of.len() {
                let (s, l) = self.shard_of[d];
                acc = acc.rotate_left(7) ^ self.shards[s].devices[l].lc.rng_fingerprint();
            }
            return acc;
        }
        let mut acc = self.medium.rng_fingerprint();
        for cell in &self.devices {
            acc = acc.rotate_left(7) ^ cell.lc.rng_fingerprint();
        }
        acc
    }

    /// Issues a command to a device at the current time.
    pub fn command(&mut self, dev: usize, cmd: LcCommand) {
        if self.sharded() {
            // The shell keeps every shard's clock synced to its own, so
            // "the current time" is the same instant down in the shard.
            let (s, l) = self.shard_of[dev];
            self.shards[s].command(l, cmd);
            return;
        }
        let now = self.cal.now();
        self.cal.schedule(
            now,
            Ev::Command {
                dev,
                cmd,
                inserted: now,
            },
        );
    }

    /// Schedules a command at an absolute time.
    pub fn command_at(&mut self, dev: usize, cmd: LcCommand, at: SimTime) {
        if self.sharded() {
            let (s, l) = self.shard_of[dev];
            self.shards[s].command_at(l, cmd, at);
            return;
        }
        let inserted = self.cal.now();
        self.cal.schedule(at, Ev::Command { dev, cmd, inserted });
    }

    /// Runs a link-manager request on a device, applying its outputs.
    pub fn lm_request<F>(&mut self, dev: usize, f: F)
    where
        F: FnOnce(&mut LinkManager, u64) -> Vec<LmOutput>,
    {
        if self.sharded() {
            let (s, l) = self.shard_of[dev];
            self.shards[s].lm_request(l, f);
            self.merge_shard_logs();
            return;
        }
        if self.crashed[dev] {
            return; // powered off: the host stack is down too
        }
        let now = self.cal.now();
        let now_slot = now.slots();
        let outs = f(&mut self.devices[dev].lm, now_slot);
        self.apply_lm_outputs(dev, outs, now);
        // Called between steps: the lockstep tick at `now` has already
        // run, so the wakeup floor is the next tick.
        self.rearm_wakeup(dev, now + SimDuration::from_ns(1));
    }

    /// Runs until the calendar passes `until` (or drains), then clamps
    /// the clock to `until` so idle gaps at the horizon don't leave the
    /// simulation time short (the event-driven engine leaves such gaps;
    /// lockstep reaches the same instant by ticking through them).
    ///
    /// A sharded simulator advances each component shard to `until` on
    /// up to [`SimConfig::shards`] scoped worker threads — components
    /// never interact, so this is the embarrassingly parallel phase —
    /// then merges the shard event logs. The worker count never changes
    /// results, only wall-clock time.
    pub fn run_until(&mut self, until: SimTime) {
        if self.sharded() {
            let workers = self.workers.min(self.shards.len()).max(1);
            if workers == 1 {
                for sh in &mut self.shards {
                    sh.run_until(until);
                }
            } else {
                let mut groups: Vec<Vec<&mut Simulator>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (i, sh) in self.shards.iter_mut().enumerate() {
                    groups[i % workers].push(sh);
                }
                std::thread::scope(|scope| {
                    for group in groups {
                        scope.spawn(move || {
                            for sh in group {
                                sh.run_until(until);
                            }
                        });
                    }
                });
            }
            self.merge_shard_logs();
            self.cal.advance_to(until);
            return;
        }
        self.run_cap = until;
        while let Some(t) = self.cal.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.cal.advance_to(until);
    }

    /// Runs until an event matching `pred` is logged, or `cap` passes.
    ///
    /// Scanning resumes where the previous `run_until_event` call left
    /// off, so an event logged in the same batch as a previous match is
    /// still seen by the next call. The resume point is the simulator's
    /// *shared* cursor; observers that must not perturb (or be perturbed
    /// by) other scans should hold their own [`EventCursor`] and use
    /// [`Simulator::run_until_event_from`] instead.
    pub fn run_until_event<F>(&mut self, cap: SimTime, pred: F) -> Option<LoggedEvent>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        let mut cursor = EventCursor(self.inspect_cursor);
        let found = self.run_until_event_from(&mut cursor, cap, pred);
        self.inspect_cursor = cursor.0;
        found
    }

    /// Runs until an event at or after `cursor` matches `pred`, or `cap`
    /// passes; `cursor` advances past the scanned events.
    ///
    /// Unlike [`Simulator::run_until_event`] the scan position belongs to
    /// the caller, so independent scenarios or probes can each watch the
    /// log without resetting or skipping each other's progress.
    pub fn run_until_event_from<F>(
        &mut self,
        cursor: &mut EventCursor,
        cap: SimTime,
        pred: F,
    ) -> Option<LoggedEvent>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        self.try_run_until_event_from(cursor, cap, pred).ok()
    }

    /// Like [`Simulator::run_until_event_from`], but reports the
    /// no-match terminal state as a typed [`HorizonReached`] after
    /// clamping the clock to `cap`.
    ///
    /// The clamp matters under the event-driven engine: with every
    /// device asleep past `cap` there is nothing left to step, and
    /// without it the clock would stall short of the horizon while
    /// callers that retry on "no event yet" spin forever at the same
    /// instant.
    pub fn try_run_until_event_from<F>(
        &mut self,
        cursor: &mut EventCursor,
        cap: SimTime,
        pred: F,
    ) -> Result<LoggedEvent, HorizonReached>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        if self.sharded() {
            return self.sharded_run_until_event_from(cursor, cap, pred);
        }
        self.run_cap = cap;
        loop {
            while cursor.0 < self.events.len() {
                let i = cursor.0;
                cursor.0 += 1;
                if pred(&self.events[i]) {
                    return Ok(self.events[i].clone());
                }
            }
            match self.cal.peek_time() {
                Some(t) if t <= cap => self.step(),
                _ => {
                    self.cal.advance_to(cap);
                    return Err(HorizonReached { horizon: cap });
                }
            }
        }
    }

    /// The sharded event search: steps whichever shard holds the
    /// globally earliest pending calendar event (ties to the lowest
    /// shard index), merging new events into the shell log after every
    /// step, until one matches. Because stepping is globally
    /// time-ordered, every cross-shard observable — log contents, the
    /// matched event, the stop instant — is independent of the shard
    /// layout and worker count.
    fn sharded_run_until_event_from<F>(
        &mut self,
        cursor: &mut EventCursor,
        cap: SimTime,
        pred: F,
    ) -> Result<LoggedEvent, HorizonReached>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        let mut frontier = self.cal.now();
        loop {
            while cursor.0 < self.events.len() {
                let i = cursor.0;
                cursor.0 += 1;
                if pred(&self.events[i]) {
                    let found = self.events[i].clone();
                    // Sync every shard's clock to the stepping frontier
                    // without dispatching anything further: pending
                    // same-instant events stay pending, exactly as the
                    // monolithic search leaves them.
                    for sh in &mut self.shards {
                        sh.cal.advance_to(frontier);
                    }
                    self.cal.advance_to(frontier);
                    return Ok(found);
                }
            }
            let next = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, sh)| sh.cal.peek_time().map(|t| (t, i)))
                .min();
            match next {
                Some((t, i)) if t <= cap => {
                    frontier = t;
                    self.shards[i].step_with_cap(cap);
                    self.merge_shard_logs();
                }
                _ => {
                    for sh in &mut self.shards {
                        sh.run_until(cap);
                    }
                    self.merge_shard_logs();
                    self.cal.advance_to(cap);
                    return Err(HorizonReached { horizon: cap });
                }
            }
        }
    }

    /// Power/activity report of `dev` over `[0, now]`, with any open RF
    /// window committed up to now.
    pub fn power_report(&self, dev: usize) -> DeviceReport<LifePhase> {
        if self.sharded() {
            let (s, l) = self.shard_of[dev];
            return self.shards[s].power_report(l);
        }
        let now = self.cal.now();
        let open = self.devices[dev]
            .active
            .as_ref()
            .map(|w| (w.opened_at, now.max(w.opened_at)));
        self.monitor.report_with_rx(dev, now, open)
    }

    // ----- sharding --------------------------------------------------------

    /// One calendar step with the stat-tier batch horizon pinned to
    /// `cap` — how the sharded event search drives an inner simulator
    /// so its batches match what the monolithic search would produce
    /// under the same cap.
    fn step_with_cap(&mut self, cap: SimTime) {
        self.run_cap = cap;
        self.step();
    }

    /// Pulls every not-yet-merged event out of the shard logs, remaps
    /// local device ids to global ones, and merges them into the shell
    /// logs. The shell logs are kept sorted by `(at, device)` — a
    /// canonical order independent of shard layout and worker count
    /// (each device's own stream stays in chronological log order;
    /// cross-device ordering at a shared instant is normalised to
    /// device order, whereas a monolithic log interleaves by dispatch
    /// order there).
    fn merge_shard_logs(&mut self) {
        for s in 0..self.shards.len() {
            let (lc_done, lm_done) = self.merge_done[s];
            let globals = &self.shard_globals[s];
            let child = &self.shards[s];
            if child.events.len() > lc_done {
                let incoming: Vec<LoggedEvent> = child.events[lc_done..]
                    .iter()
                    .map(|e| LoggedEvent {
                        at: e.at,
                        device: globals[e.device],
                        event: e.event.clone(),
                    })
                    .collect();
                merge_sorted(&mut self.events, incoming, |e| (e.at, e.device));
            }
            if child.lm_events.len() > lm_done {
                let incoming: Vec<LoggedLmEvent> = child.lm_events[lm_done..]
                    .iter()
                    .map(|e| LoggedLmEvent {
                        at: e.at,
                        device: globals[e.device],
                        event: e.event.clone(),
                    })
                    .collect();
                merge_sorted(&mut self.lm_events, incoming, |e| (e.at, e.device));
            }
            self.merge_done[s] = (child.events.len(), child.lm_events.len());
        }
    }

    // ----- engine ----------------------------------------------------------

    fn step(&mut self) {
        let Some((t, ev)) = self.cal.pop() else {
            return;
        };
        self.steps_total += 1;
        self.steps_since_gc += 1;
        if self.steps_since_gc >= 8192 {
            self.steps_since_gc = 0;
            self.medium.gc(t, MEDIUM_RETENTION);
        }
        // Streaming metrics: one comparison per dispatched event when
        // enabled, one `Option` discriminant test when not.
        if self.metrics.as_ref().is_some_and(|m| t >= m.next_at) {
            let snap = self.metrics_snapshot();
            if let Some(m) = self.metrics.as_mut() {
                m.emit(snap);
            }
        }
        match ev {
            Ev::Tick(dev) => {
                let ff = self.devices[dev].lc.ff_until();
                if ff > t {
                    // The statistical tier already simulated this
                    // controller through `[t, ff)`: resume ticking at
                    // the first half-slot boundary at or past `ff`
                    // instead of dispatching provable no-ops.
                    let hs = SimDuration::HALF_SLOT.ns();
                    let at = SimTime::from_ns(ff.ns().div_ceil(hs) * hs);
                    self.cal.schedule(at, Ev::Tick(dev));
                    return;
                }
                self.cal.schedule(t + SimDuration::HALF_SLOT, Ev::Tick(dev));
                self.tick_device(dev, t);
            }
            Ev::Wake { seq } => {
                if seq != self.wake_seq {
                    return; // superseded by a later re-arm
                }
                // Devices sharing a wake instant tick in index order —
                // the same relative order the lockstep tick cascade
                // establishes at every instant.
                for dev in 0..self.devices.len() {
                    if self.wake.get(dev) == Some(t) {
                        self.wake.set(dev, None);
                        self.tick_device(dev, t);
                        self.recompute_wakeup(dev, t + SimDuration::from_ns(1));
                    }
                }
                self.arm_wake();
            }
            Ev::Command { dev, cmd, inserted } => {
                if self.crashed[dev] {
                    return; // powered off: queued host commands are lost
                }
                self.capture_lmp_out(dev, &cmd, t);
                let actions = self.devices[dev].lc.command(cmd, t);
                self.apply_actions(dev, actions, t);
                // A command scheduled *before* this instant runs ahead of
                // the device's lockstep tick at this instant (FIFO by
                // insertion), so that tick sees post-command state and
                // may act: the wakeup floor includes the instant itself.
                // A command issued *at* this instant lands after the tick
                // cascade; the floor is the next tick.
                let floor = if inserted < t {
                    t
                } else {
                    t + SimDuration::from_ns(1)
                };
                self.rearm_wakeup(dev, floor);
            }
            Ev::TxStart { dev, channel, bits } => {
                if self.crashed[dev] || self.muted[dev] {
                    return; // the packet never reaches the antenna
                }
                let dur = SimDuration::from_bits(bits.len());
                let end = t + dur;
                self.monitor.add_tx(dev, t, end);
                self.recorder
                    .record(t, self.devices[dev].sig_tx, TraceValue::Bit(true));
                self.recorder
                    .record(end, self.devices[dev].sig_tx, TraceValue::Bit(false));
                let tx = self.medium.begin_tx(dev, channel, t, bits);
                // Determine listeners now: open windows on this channel
                // — in spatial mode, only on radios within interaction
                // range of the transmitter (a far window stays open and
                // never hears the packet). The neighbour list is
                // ascending, so listeners are in device order.
                let mut listeners = Vec::new();
                let mut visits = 0;
                for &i in self.index.neighbours(dev) {
                    if i == dev {
                        continue;
                    }
                    visits += 1;
                    let cell = &mut self.devices[i];
                    if cell.rx_busy_until > t || self.crashed[i] || self.muted[i] {
                        continue; // busy, or a faulted radio that hears nothing
                    }
                    let Some(w) = &cell.active else { continue };
                    if w.channel != channel {
                        continue;
                    }
                    let opens_in_time = w.opened_at <= t + RX_UNCERTAINTY;
                    let still_open = w.until.is_none_or(|u| u >= t);
                    if opens_in_time && still_open {
                        cell.rx_busy_until = end;
                        listeners.push(i);
                    }
                }
                self.cost.listener_visits += visits;
                if !listeners.is_empty() {
                    let at = self
                        .medium
                        .delivery_time(tx)
                        .expect("fresh transmission is retained");
                    self.cal.schedule(at, Ev::Deliver { tx, listeners });
                }
            }
            Ev::Deliver { tx, listeners } => {
                let Some(rec) = self.medium.receive(tx) else {
                    return;
                };
                let rxd = RxDelivery {
                    bits: rec.bits,
                    collision_mask: rec.collision_mask,
                    rf_channel: rec.rf_channel,
                    start: rec.start,
                    end: rec.end,
                };
                for dev in listeners {
                    if self.crashed[dev] || self.muted[dev] {
                        continue; // faulted after the window latched on
                    }
                    let actions = self.devices[dev].lc.on_rx(&rxd, t);
                    self.apply_actions(dev, actions, t);
                    // Receptions land off the half-slot grid (packet end
                    // + modem delay): the next tick that can act is
                    // strictly after this instant.
                    self.recompute_wakeup(dev, t + SimDuration::from_ns(1));
                }
                if self.engine == Engine::EventDriven {
                    self.arm_wake();
                }
            }
            Ev::WindowOpen { dev, id } => {
                let cell = &mut self.devices[dev];
                let Some(pos) = cell.pending.iter().position(|p| p.id == id) else {
                    return; // cancelled by RxOff
                };
                let p = cell.pending.remove(pos);
                if cell.rx_busy_until > t {
                    return; // receiver occupied by an ongoing packet
                }
                self.open_window(dev, p.channel, p.until, t, id);
            }
            Ev::WindowClose { dev, id } => {
                let cell = &mut self.devices[dev];
                let Some(w) = &cell.active else { return };
                if w.id != id {
                    return;
                }
                if cell.rx_busy_until > t {
                    // Reception in progress: stay on until it ends.
                    self.cal
                        .schedule(cell.rx_busy_until, Ev::WindowClose { dev, id });
                    return;
                }
                let w = cell.active.take().expect("checked above");
                self.commit_rx(dev, w.opened_at, t);
            }
            Ev::Fault { idx } => self.apply_fault(idx, t),
        }
    }

    /// One device tick: baseband half-slot work plus, at whole-slot
    /// boundaries, the link manager's scheduled mode changes. Shared by
    /// both engines so a woken tick is byte-for-byte a lockstep tick.
    ///
    /// The statistical tier hooks in first: when this device belongs to
    /// a promotable link pair whose master would transmit at `t`, the
    /// whole quiet span ahead is batched analytically and the ordinary
    /// tick below sees a fast-forwarded controller (its `on_tick` is a
    /// no-op and the manager has nothing pending — both are promotion
    /// preconditions).
    fn tick_device(&mut self, dev: usize, t: SimTime) {
        self.try_stat_batch(dev, t);
        let actions = self.devices[dev].lc.on_tick(t);
        self.apply_actions(dev, actions, t);
        if t.ns().is_multiple_of(SimDuration::SLOT.ns()) {
            let outs = self.devices[dev].lm.poll(t.slots());
            self.apply_lm_outputs(dev, outs, t);
        }
    }

    /// Logs an event produced by the statistical tier, mirroring the
    /// `LcAction::Event` arm of `apply_actions`. The tier never batches
    /// LMP traffic or phase changes, so the manager provably ignores
    /// everything routed through here.
    /// Bumps the metrics hub's fidelity-tier residency counters; called
    /// at every event-log push site so the counts never miss a
    /// transition regardless of which path logged it.
    fn note_fidelity(&mut self, event: &LcEvent) {
        if let LcEvent::FidelityChanged { promoted } = event {
            if *promoted {
                self.fidelity_promotions += 1;
            } else {
                self.fidelity_demotions += 1;
            }
        }
    }

    /// Captures an outbound LMP PDU (the host-layer side of the packet
    /// capture); no-op for other commands or when capture is off.
    fn capture_lmp_out(&mut self, dev: usize, cmd: &LcCommand, now: SimTime) {
        if !self.medium.capture().is_enabled() {
            return;
        }
        if let LcCommand::Lmp { lt_addr, data } = cmd {
            let rec = CaptureRecord {
                at: now,
                dir: CaptureDir::Sent,
                kind: CaptureKind::Lmp,
                device: dev,
                channel: *lt_addr,
                collided: false,
                jammed: false,
                orig_bits: data.len() * 8,
                data: data.clone(),
            };
            self.medium.capture_mut().push(rec);
        }
    }

    fn log_stat_event(&mut self, dev: usize, at: SimTime, event: LcEvent) {
        // The manager only ever reacts to LMP-carrying `AclReceived`
        // events, which the stability gate keeps out of batches — so
        // release builds skip the call and debug builds prove the claim.
        #[cfg(debug_assertions)]
        {
            let outs = self.devices[dev].lm.on_lc_event(&event, at.slots());
            debug_assert!(
                outs.is_empty(),
                "statistical tier batched an LM-visible event"
            );
        }
        self.note_fidelity(&event);
        self.events.push(LoggedEvent {
            at,
            device: dev,
            event,
        });
    }

    /// The statistical receive path: when `dev` is one end of a link
    /// eligible for the statistical tier and its master transmits at
    /// `t`, advances the pair analytically through as many slot pairs
    /// as provably stay undisturbed, then fast-forwards both
    /// controllers past the batched span.
    ///
    /// Eligibility is split in two (see `docs/FIDELITY.md`): *attempt*
    /// conditions (is this a lone-slave piconet whose master sends data
    /// at `t`?) fail silently, while *stability* conditions — pending
    /// AFH switch, LMP traffic, co-channel occupancy, an interferer on
    /// a used channel, any other device touching the radio — demote a
    /// promoted link back to bit level on the spot, logging
    /// [`LcEvent::FidelityChanged`] so scenarios can watch the tracker.
    fn try_stat_batch(&mut self, dev: usize, t: SimTime) {
        if self.fidelity == Fidelity::Bit {
            return;
        }
        // Identify the pair from whichever end ticked first this
        // instant (device order is arbitrary relative to roles).
        let (m_dev, s_dev) = {
            let lc = &self.devices[dev].lc;
            if let Some(slave_addr) = lc.stat_master_attempt(t) {
                let Some(s) = self.index.device_by_addr(slave_addr) else {
                    return;
                };
                (dev, s)
            } else if let [link] = lc.slave_masters().as_slice() {
                let Some(m) = self.index.device_by_addr(link.1) else {
                    return;
                };
                if self.devices[m].lc.stat_master_attempt(t) != Some(lc.addr()) {
                    return;
                }
                (m, dev)
            } else {
                return;
            }
        };
        if !self.same_comp(m_dev, s_dev) {
            // Out-of-range "pair": a shard would not even see the peer.
            return;
        }
        self.cost.stat_attempts += 1;
        let m_addr = self.devices[m_dev].lc.addr();
        let now_slot = t.slots();

        // Stability gate: any failure here is contention; a promoted
        // link demotes to bit level on this very slot. Every condition
        // is side-effect free, so the order only decides how soon a
        // failing attempt stops: the third-device walk goes first, as
        // on a dense floor a co-located piconet fails it at the first
        // device it examines.
        let stable = self.third_devices_idle(m_dev, s_dev, t)
            && self.devices[m_dev].lc.stat_master_stable(now_slot)
            && self.devices[s_dev].lc.stat_slave_ready(m_addr, t)
            && self.devices[m_dev].lc.afh_map_at(now_slot)
                == self.devices[s_dev].lc.afh_map_at(now_slot)
            && self.devices[m_dev].lm.next_pending_slot().is_none()
            && self.devices[s_dev].lm.next_pending_slot().is_none()
            && !self.fault_touched(m_dev)
            && !self.fault_touched(s_dev)
            && self.comp_quiet(m_dev, t)
            && self.pair_channels_clear(m_dev, now_slot)
            && [m_dev, s_dev].iter().all(|&d| {
                let c = &self.devices[d];
                // A listen window the pair itself opened at this very
                // instant is not contention: the medium is quiet (gated
                // above), and whichever member ticks first at a shared
                // instant legitimately opens one when the batch below
                // comes up empty. Treating it as busy would make the
                // demotion decision depend on same-instant tick order,
                // which differs between the engines.
                c.active.as_ref().is_none_or(|w| w.opened_at >= t)
                    && c.pending.is_empty()
                    && c.rx_busy_until <= t
            });
        if !stable {
            if self.devices[m_dev].lc.stat_promoted() {
                self.devices[m_dev].lc.set_stat_promoted(false);
                self.log_stat_event(m_dev, t, LcEvent::FidelityChanged { promoted: false });
            }
            return;
        }
        // Auto tier: hold off until the master's channel assessment has
        // enough receptions for a converged per-channel BER picture.
        if self.fidelity == Fidelity::Auto
            && !self.devices[m_dev].lc.stat_promoted()
            && self.devices[m_dev].lc.channel_assessment().samples() < 64
        {
            return;
        }

        // Batch horizon: the run cap, any pending calendar event other
        // than the engines' own tick/wake dispatches (commands, RF
        // activity), and the instant any third device would wake. Both
        // engines compute the same value, so their batches — and hence
        // their RNG streams — stay bit-identical. In spatial mode the
        // scan is scoped to the pair's connected component: devices and
        // traffic beyond radio reach can neither disturb the pair nor
        // shorten its batches, which keeps a monolithic floor-wide run
        // bit-identical to the sharded one where the component is alone
        // in its own calendar.
        let mut horizon = self.run_cap;
        for (at, ev) in self.cal.iter() {
            let relevant = match ev {
                Ev::Tick(_) | Ev::Wake { .. } => false,
                Ev::Command { dev, .. }
                | Ev::TxStart { dev, .. }
                | Ev::WindowOpen { dev, .. }
                | Ev::WindowClose { dev, .. } => self.same_comp(*dev, m_dev),
                Ev::Deliver { listeners, .. } => {
                    listeners.iter().any(|&d| self.same_comp(d, m_dev))
                }
                // A pending fault bounds the batch like any other
                // outside disturbance. Noise faults are global (they
                // retune the whole band); device faults matter iff the
                // target shares the pair's component — exactly the set
                // of faults a sharded run's own calendar would contain.
                Ev::Fault { idx } => match self.faults.events()[*idx].device {
                    None => true,
                    Some(d) => self.same_comp(d, m_dev),
                },
            };
            if relevant {
                horizon = horizon.min(at);
            }
        }
        let mut visits = 0;
        for &d in self.members_of(m_dev) {
            if d == m_dev || d == s_dev {
                continue;
            }
            visits += 1;
            // Third devices are idle (gated above): each may still
            // wake — or have its manager act — inside the batch.
            let cell = &self.devices[d];
            if let Some(w) = cell.lc.next_wakeup(t + SimDuration::from_ns(1)) {
                horizon = horizon.min(w);
            }
            if let Some(slot) = cell.lm.next_pending_slot() {
                horizon = horizon.min(SimTime::from_ns(slot * SimDuration::SLOT.ns()));
            }
        }
        self.cost.stat_walk_visits += visits;

        // Run the batch, applying each slot pair as it is produced.
        // The controllers are borrowed per pair (a split_at_mut is
        // O(1)) so the bookkeeping below can use `&mut self`; the
        // events scratch buffer is reused across the whole batch.
        let mut events_buf = Vec::new();
        let mut cursor = t;
        let (mut m_tx_ns, mut m_rx_ns, mut s_tx_ns, mut s_rx_ns) = (0u64, 0u64, 0u64, 0u64);
        loop {
            let rep = {
                let (lo, hi) = self.devices.split_at_mut(m_dev.max(s_dev));
                let (m_lc, s_lc) = if m_dev < s_dev {
                    (&mut lo[m_dev].lc, &mut hi[0].lc)
                } else {
                    (&mut hi[0].lc, &mut lo[s_dev].lc)
                };
                stat_slot_pair(
                    m_lc,
                    s_lc,
                    &self.error_model,
                    cursor,
                    self.modem_delay,
                    horizon,
                    &mut events_buf,
                )
            };
            let Some(rep) = rep else { break };
            if cursor == t {
                // First pair of the batch: promotion bookkeeping.
                if !self.devices[m_dev].lc.stat_promoted() {
                    self.devices[m_dev].lc.set_stat_promoted(true);
                    self.log_stat_event(m_dev, t, LcEvent::FidelityChanged { promoted: true });
                }
            }
            // Mirror the bit-level path's bookkeeping: per-packet
            // medium counters, power-monitor RF time (accumulated here,
            // flushed in one bulk call per batch — the whole span sits
            // in one phase segment because promotion quiesces both
            // devices' phase sources) and the delivery events with
            // their bit-accurate timestamps.
            self.medium.record_stat_tx(rep.fwd_rf_channel);
            let fwd_ns = SimDuration::from_bits(rep.fwd_air_bits).ns();
            m_tx_ns += fwd_ns;
            s_rx_ns += fwd_ns;
            match rep.resp {
                Some(r) => {
                    self.medium.record_stat_tx(r.rf_channel);
                    let resp_ns = SimDuration::from_bits(r.air_bits).ns();
                    s_tx_ns += resp_ns;
                    m_rx_ns += resp_ns;
                }
                // Silent slave: the master still listens for its
                // carrier-detect window at the response slot.
                None => m_rx_ns += self.peek.ns(),
            }
            for (at, side, event) in events_buf.drain(..) {
                let d = match side {
                    StatSide::Master => m_dev,
                    StatSide::Slave => s_dev,
                };
                self.log_stat_event(d, at, event);
            }
            cursor = rep.end;
        }
        if cursor == t {
            // Horizon too close for even one pair: not contention, just
            // no batch — the bit-level path covers this slot.
            return;
        }
        self.monitor.add_bulk(m_dev, t, m_tx_ns, m_rx_ns);
        self.monitor.add_bulk(s_dev, t, s_tx_ns, s_rx_ns);
        self.devices[m_dev].lc.set_ff_until(cursor);
        self.devices[s_dev].lc.set_ff_until(cursor);
    }

    /// Whether `a` and `b` belong to the same connected component of
    /// the in-range graph. Always true without a spatial model.
    fn same_comp(&self, a: usize, b: usize) -> bool {
        self.comp_of.is_empty() || self.comp_of[a] == self.comp_of[b]
    }

    /// The members of `dev`'s connected component, ascending (every
    /// device without a spatial model).
    fn members_of(&self, dev: usize) -> &[usize] {
        self.index.members(self.comp_of.get(dev).copied())
    }

    /// Whether every device of the pair's component other than the
    /// pair itself is idle: no radio activity right now and no
    /// active-mode link of its own. Such a link exchanges traffic (at
    /// least Tpoll keepalives) every few slots, and once its pair is
    /// promoted too that traffic no longer shows up as bit-level air
    /// time, so two mutually promoted pairs would batch straight past
    /// each other's collisions. A piconet member sleeping through a
    /// hold / sniff / park window is idle — its wakeup caps the batch
    /// horizon, and waking demotes the pair on the next attempt.
    fn third_devices_idle(&mut self, m_dev: usize, s_dev: usize, t: SimTime) -> bool {
        let mut visits = 0;
        let idle = self
            .members_of(m_dev)
            .iter()
            .filter(|&&d| d != m_dev && d != s_dev)
            .all(|&d| {
                visits += 1;
                let cell = &self.devices[d];
                cell.active.is_none()
                    && cell.pending.is_empty()
                    && cell.rx_busy_until <= t
                    && !cell.lc.has_active_link()
            });
        self.cost.stat_walk_visits += visits;
        idle
    }

    // ----- faults ----------------------------------------------------------

    /// Whether a fault currently touches `d` — crashed, muted, drifted,
    /// or with a BER degrade on its radio. Any of these breaks the
    /// statistical tier's closed-form assumptions for links involving
    /// `d`, so the stability gate refuses batches over it.
    fn fault_touched(&self, d: usize) -> bool {
        self.crashed[d] || self.muted[d] || self.drifted[d] || self.medium.degraded(d)
    }

    /// Demotes every promoted master affected by a fault landing now:
    /// all promoted links in `around`'s connected component for device
    /// faults, or globally (`None`) for band-wide noise faults. Logged
    /// as [`LcEvent::FidelityChanged`] at the fault instant, so the
    /// event log pins the demotion to the fault under both engines.
    fn demote_promoted(&mut self, around: Option<usize>, t: SimTime) {
        let scope = match around {
            Some(a) => self.members_of(a),
            None => self.index.members(None),
        };
        let hit: Vec<usize> = scope
            .iter()
            .copied()
            .filter(|&d| self.devices[d].lc.stat_promoted())
            .collect();
        for d in hit {
            self.devices[d].lc.set_stat_promoted(false);
            self.log_stat_event(d, t, LcEvent::FidelityChanged { promoted: false });
        }
    }

    /// Applies fault `idx` of the plan at its scheduled instant. Faults
    /// are scheduled at build time, so they dispatch ahead of every
    /// tick/wake sharing their instant — state below is what the
    /// devices' own processing at `t` observes, under both engines.
    fn apply_fault(&mut self, idx: usize, t: SimTime) {
        let ev = self.faults.events()[idx];
        match ev.kind {
            FaultKind::Crash => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.crashed[dev] = true;
                // Power off the controller (kills links, flushes
                // buffers, logs the dropped user bytes) and reset the
                // manager: a revived device restarts from standby with
                // its role intact but no link state — peers only learn
                // of the death through their supervision timers.
                let actions = self.devices[dev].lc.command(LcCommand::PowerOff, t);
                self.apply_actions(dev, actions, t);
                let role = self.devices[dev].lm.role();
                self.devices[dev].lm = LinkManager::new(role);
                self.rearm_wakeup(dev, t);
            }
            FaultKind::Revive => {
                let dev = ev.device.expect("device fault");
                self.crashed[dev] = false;
                self.rearm_wakeup(dev, t);
            }
            FaultKind::Mute => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.muted[dev] = true;
            }
            FaultKind::Unmute => {
                let dev = ev.device.expect("device fault");
                self.muted[dev] = false;
            }
            FaultKind::Degrade { ber, ramp_slots } => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.medium
                    .set_degrade(dev, ber, t, SimDuration::from_slots(ramp_slots));
            }
            FaultKind::Heal => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.medium.clear_degrade(dev);
            }
            FaultKind::Drift { ticks } => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.drifted[dev] = true;
                self.devices[dev].lc.clock_jump(ticks);
                self.rearm_wakeup(dev, t);
            }
            FaultKind::NoiseOn { lo, width, duty } => {
                self.demote_promoted(None, t);
                self.medium.add_interferer(Interferer {
                    first_channel: lo,
                    width,
                    duty,
                });
            }
            FaultKind::NoiseOff { lo, width } => {
                self.demote_promoted(None, t);
                self.medium.remove_interferer(lo, width);
            }
        }
        self.faults_applied += 1;
    }

    /// Component-scoped medium quiescence: whether every device in
    /// `dev`'s connected component has finished its bit-level
    /// transmissions by `at`. Falls back to the global
    /// [`Medium::quiet_at`] without a spatial model. Scoping by
    /// component (not just the 3×3 cell neighbourhood) matches exactly
    /// what a sharded run's per-component medium observes.
    fn comp_quiet(&mut self, dev: usize, at: SimTime) -> bool {
        if self.comp_of.is_empty() {
            return self.medium.quiet_at(at);
        }
        let mut visits = 0;
        let quiet = self.members_of(dev).iter().all(|&d| {
            visits += 1;
            self.medium.last_end_of(d) <= at
        });
        self.cost.stat_walk_visits += visits;
        quiet
    }

    /// Whether every RF channel the pair can hop to is free of
    /// configured interferers (any duty at all counts as contention).
    fn pair_channels_clear(&self, m_dev: usize, now_slot: u64) -> bool {
        let map = self.devices[m_dev].lc.afh_map_at(now_slot);
        (0..btsim_channel::RF_CHANNELS).all(|ch| {
            !map.is_none_or(|m| m.is_used(ch)) || self.medium.duty_class(ch) == DutyClass::Clear
        })
    }

    /// Event-driven: refreshes `dev`'s pending wake from its controller
    /// hint and its link manager's pending mode-change slots. `floor` is
    /// the earliest instant the wake may land on.
    fn recompute_wakeup(&mut self, dev: usize, floor: SimTime) {
        if self.engine != Engine::EventDriven {
            return;
        }
        let cell = &self.devices[dev];
        let mut wake = cell.lc.next_wakeup(floor);
        if let Some(slot) = cell.lm.next_pending_slot() {
            // The manager is polled at whole-slot ticks once the slot
            // counter reaches the pending instant.
            let slot_ns = SimDuration::SLOT.ns();
            let at = SimTime::from_ns((slot * slot_ns).max(floor.ns().div_ceil(slot_ns) * slot_ns));
            wake = Some(wake.map_or(at, |w| w.min(at)));
        }
        self.wake.set(dev, wake);
    }

    /// [`Simulator::recompute_wakeup`] + [`Simulator::arm_wake`].
    fn rearm_wakeup(&mut self, dev: usize, floor: SimTime) {
        if self.engine != Engine::EventDriven {
            return;
        }
        self.recompute_wakeup(dev, floor);
        self.arm_wake();
    }

    /// Schedules the dispatch event at the earliest pending wake. Always
    /// re-issued (with a fresh sequence number) after anything that can
    /// move a wake, so the live instance is the last insertion of the
    /// current instant — mirroring where the lockstep tick cascade sits
    /// relative to events scheduled from earlier instants.
    fn arm_wake(&mut self) {
        let Some(at) = self.wake.earliest() else {
            return;
        };
        self.wake_seq += 1;
        let at = at.max(self.cal.now());
        self.cal.schedule(at, Ev::Wake { seq: self.wake_seq });
    }

    fn open_window(
        &mut self,
        dev: usize,
        channel: u8,
        until: Option<SimTime>,
        now: SimTime,
        id: u64,
    ) {
        // Close any previous window first.
        if let Some(w) = self.devices[dev].active.take() {
            self.commit_rx(dev, w.opened_at, now);
        }
        self.devices[dev].active = Some(ActiveWindow {
            id,
            channel,
            opened_at: now,
            until,
        });
        self.recorder
            .record(now, self.devices[dev].sig_rx, TraceValue::Bit(true));
        if let Some(u) = until {
            self.cal.schedule(u.max(now), Ev::WindowClose { dev, id });
        }
    }

    fn commit_rx(&mut self, dev: usize, from: SimTime, to: SimTime) {
        self.monitor.add_rx(dev, from, to);
        self.recorder
            .record(to, self.devices[dev].sig_rx, TraceValue::Bit(false));
    }

    fn apply_actions(&mut self, dev: usize, actions: Vec<LcAction>, now: SimTime) {
        for a in actions {
            match a {
                LcAction::Tx {
                    at,
                    rf_channel,
                    bits,
                } => {
                    self.cal.schedule(
                        at.max(now),
                        Ev::TxStart {
                            dev,
                            channel: rf_channel,
                            bits,
                        },
                    );
                }
                LcAction::RxWindow {
                    from,
                    until,
                    rf_channel,
                } => {
                    let id = self.next_window_id;
                    self.next_window_id += 1;
                    if from <= now {
                        if self.devices[dev].rx_busy_until <= now {
                            self.open_window(dev, rf_channel, until, now, id);
                        }
                    } else {
                        self.devices[dev].pending.push(PendingWindow {
                            id,
                            channel: rf_channel,
                            from,
                            until,
                        });
                        self.cal.schedule(from, Ev::WindowOpen { dev, id });
                    }
                }
                LcAction::RxOff => {
                    self.devices[dev].pending.clear();
                    if let Some(w) = self.devices[dev].active.take() {
                        self.commit_rx(dev, w.opened_at, now);
                    }
                }
                LcAction::Event(event) => {
                    // Phase changes feed the power monitor.
                    if let LcEvent::PhaseChanged { phase } = &event {
                        self.monitor.set_phase(dev, *phase, now);
                    }
                    self.note_fidelity(&event);
                    // Inbound LMP PDUs join the capture alongside the
                    // air packets that carried them.
                    if self.medium.capture().is_enabled() {
                        if let LcEvent::AclReceived {
                            lt_addr,
                            llid: Llid::Lmp,
                            data,
                        } = &event
                        {
                            let rec = CaptureRecord {
                                at: now,
                                dir: CaptureDir::Received,
                                kind: CaptureKind::Lmp,
                                device: dev,
                                channel: *lt_addr,
                                collided: false,
                                jammed: false,
                                orig_bits: data.len() * 8,
                                data: data.clone(),
                            };
                            self.medium.capture_mut().push(rec);
                        }
                    }
                    self.events.push(LoggedEvent {
                        at: now,
                        device: dev,
                        event: event.clone(),
                    });
                    // LMP PDUs drive the device's link manager.
                    let outs = self.devices[dev].lm.on_lc_event(&event, now.slots());
                    self.apply_lm_outputs(dev, outs, now);
                }
            }
        }
    }

    fn apply_lm_outputs(&mut self, dev: usize, outs: Vec<LmOutput>, now: SimTime) {
        for o in outs {
            match o {
                LmOutput::Command(cmd) => {
                    self.capture_lmp_out(dev, &cmd, now);
                    let actions = self.devices[dev].lc.command(cmd, now);
                    self.apply_actions(dev, actions, now);
                }
                LmOutput::Event(event) => {
                    self.lm_events.push(LoggedLmEvent {
                        at: now,
                        device: dev,
                        event,
                    });
                }
            }
        }
    }
}

/// Merges `incoming` (any order) into `dst`, which is and stays sorted
/// by `key`; on equal keys existing entries come first and incoming
/// entries keep their relative order, so each device's event stream
/// stays chronological across merges.
fn merge_sorted<T, K: Ord + Copy>(dst: &mut Vec<T>, mut incoming: Vec<T>, key: impl Fn(&T) -> K) {
    incoming.sort_by_key(&key); // stable
    let Some(first) = incoming.first() else {
        return;
    };
    let start = dst.partition_point(|e| key(e) <= key(first));
    let tail = dst.split_off(start);
    let mut ti = tail.into_iter().peekable();
    let mut ii = incoming.into_iter().peekable();
    loop {
        let take_tail = match (ti.peek(), ii.peek()) {
            (Some(t), Some(i)) => key(t) <= key(i),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let next = if take_tail { ti.next() } else { ii.next() };
        dst.push(next.expect("peeked non-empty side"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_device_sim(seed: u64, ber: f64) -> (Simulator, usize, usize) {
        let mut cfg = SimConfig::default();
        cfg.channel.ber = ber;
        let mut b = SimBuilder::new(seed, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        (b.build(), m, s)
    }

    #[test]
    fn duplicate_address_is_a_typed_error() {
        let mut b = SimBuilder::new(1, SimConfig::default());
        let addr = BdAddr::new(1, 2, 0x123456);
        let first = b.add_device_with_addr("a", addr).expect("fresh address");
        let err = b.add_device_with_addr("b", addr).expect_err("duplicate");
        assert_eq!(
            err,
            DuplicateAddr {
                addr,
                existing: first
            }
        );
        assert!(err.to_string().contains("already registered"));
        // Auto-generated addresses skip explicitly registered ones.
        let mut b2 = SimBuilder::new(1, SimConfig::default());
        let auto0 = {
            let mut probe = SimBuilder::new(1, SimConfig::default());
            let d = probe.add_device("probe");
            probe.build().lc(d).addr()
        };
        b2.add_device_with_addr("explicit", auto0).unwrap();
        let auto = b2.add_device("auto");
        let sim = b2.build();
        assert_ne!(sim.lc(auto).addr(), auto0);
    }

    #[test]
    fn inquiry_discovers_scanner_on_clean_channel() {
        let (mut sim, m, s) = two_device_sim(11, 0.0);
        sim.command(s, LcCommand::InquiryScan);
        sim.command(
            m,
            LcCommand::Inquiry {
                num_responses: 1,
                timeout_slots: 0,
            },
        );
        let found = sim.run_until_event(SimTime::from_us(10_000_000), |e| {
            matches!(e.event, LcEvent::InquiryResult { .. })
        });
        assert!(found.is_some(), "scanner not discovered within 10 s");
        let done = sim.run_until_event(SimTime::from_us(10_000_000), |e| {
            matches!(e.event, LcEvent::InquiryComplete { responses: 1 })
        });
        assert!(done.is_some());
    }

    #[test]
    fn page_with_exact_estimate_connects_quickly() {
        let (mut sim, m, s) = two_device_sim(5, 0.0);
        // Exact clock estimate: offset between the two CLKNs.
        let offset = sim
            .lc(m)
            .clkn(SimTime::ZERO)
            .offset_to(sim.lc(s).clkn(SimTime::ZERO));
        sim.command(s, LcCommand::PageScan);
        sim.command(
            m,
            LcCommand::Page {
                target: sim.lc(s).addr(),
                clke_offset: offset,
                timeout_slots: 0,
            },
        );
        let connected = sim.run_until_event(SimTime::from_us(200_000), |e| {
            matches!(e.event, LcEvent::Connected { .. })
        });
        let connected = connected.expect("slave must connect");
        let slots = connected.at.slots();
        assert!(
            slots <= 60,
            "page with exact estimate should connect within ~a train pass, took {slots} slots"
        );
        assert!(sim.lc(m).is_master());
        assert!(sim.lc(s).is_slave());
    }

    #[test]
    fn page_times_out_without_scanner() {
        let (mut sim, m, s) = two_device_sim(6, 0.0);
        sim.command(
            m,
            LcCommand::Page {
                target: sim.lc(s).addr(),
                clke_offset: 0,
                timeout_slots: 256,
            },
        );
        let failed = sim.run_until_event(SimTime::from_us(2_000_000), |e| {
            matches!(e.event, LcEvent::PageFailed { .. })
        });
        assert!(failed.is_some());
    }

    #[test]
    fn independent_cursors_do_not_alias() {
        let (mut sim, m, s) = two_device_sim(21, 0.0);
        sim.command(s, LcCommand::InquiryScan);
        sim.command(
            m,
            LcCommand::Inquiry {
                num_responses: 1,
                timeout_slots: 0,
            },
        );
        let cap = SimTime::from_us(10_000_000);
        // One observer consumes the log up to the inquiry result…
        let mut a = EventCursor::default();
        let found = sim.run_until_event_from(&mut a, cap, |e| {
            matches!(e.event, LcEvent::InquiryResult { .. })
        });
        assert!(found.is_some());
        // …a second, independent observer still sees it from the start.
        let mut b = EventCursor::default();
        let again = sim.run_until_event_from(&mut b, cap, |e| {
            matches!(e.event, LcEvent::InquiryResult { .. })
        });
        assert_eq!(found, again);
        // And the shared-cursor path is unaffected by either.
        let complete =
            sim.run_until_event(cap, |e| matches!(e.event, LcEvent::InquiryComplete { .. }));
        assert!(complete.is_some());
        // events_since drains exactly the unseen suffix.
        let mut c = sim.cursor();
        assert!(sim.events_since(&mut c).is_empty());
        let mut all = EventCursor::default();
        assert_eq!(sim.events_since(&mut all).len(), sim.events().len());
        assert!(sim.events_since(&mut all).is_empty());
    }

    #[test]
    fn deterministic_event_log() {
        let run = |seed| {
            let (mut sim, m, s) = two_device_sim(seed, 0.01);
            sim.command(s, LcCommand::InquiryScan);
            sim.command(
                m,
                LcCommand::Inquiry {
                    num_responses: 1,
                    timeout_slots: 4096,
                },
            );
            sim.run_until(SimTime::from_us(4_000_000));
            format!("{:?}", sim.events())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    /// Runs `drive` under both engines and asserts bit-identical event
    /// logs, LM logs, clock, power phases and RNG positions.
    fn assert_engines_agree(seed: u64, ber: f64, drive: impl Fn(&mut Simulator, usize, usize)) {
        let build = |engine: Engine| {
            let mut cfg = SimConfig::default();
            cfg.channel.ber = ber;
            cfg.engine = engine;
            let mut b = SimBuilder::new(seed, cfg);
            let m = b.add_device("master");
            let s = b.add_device("slave1");
            let mut sim = b.build();
            drive(&mut sim, m, s);
            sim
        };
        let lockstep = build(Engine::Lockstep);
        let event = build(Engine::EventDriven);
        assert_eq!(lockstep.now(), event.now(), "clocks diverged");
        assert_eq!(
            format!("{:?}", lockstep.events()),
            format!("{:?}", event.events()),
            "event logs diverged"
        );
        assert_eq!(
            format!("{:?}", lockstep.lm_events()),
            format!("{:?}", event.lm_events()),
            "LM logs diverged"
        );
        assert_eq!(
            lockstep.rng_fingerprint(),
            event.rng_fingerprint(),
            "RNG draws diverged"
        );
        for dev in 0..lockstep.device_count() {
            let (a, b) = (lockstep.power_report(dev), event.power_report(dev));
            // Compare phase by phase: the report's phase map has no
            // stable iteration order.
            for phase in [
                LifePhase::Standby,
                LifePhase::Inquiry,
                LifePhase::InquiryScan,
                LifePhase::Page,
                LifePhase::PageScan,
                LifePhase::Active,
                LifePhase::Sniff,
                LifePhase::Hold,
                LifePhase::Park,
            ] {
                assert_eq!(
                    format!("{:?}", a.phase(phase)),
                    format!("{:?}", b.phase(phase)),
                    "power diverged for device {dev} phase {phase:?}"
                );
            }
        }
    }

    /// A connected, ACL-saturated master/slave pair at the given
    /// fidelity tier, run for `slots` slots of traffic.
    fn saturated_pair(
        seed: u64,
        ber: f64,
        engine: Engine,
        fidelity: Fidelity,
        slots: u64,
    ) -> Simulator {
        let mut cfg = crate::scenario::paper_config();
        cfg.channel.ber = ber;
        cfg.engine = engine;
        cfg.fidelity = fidelity;
        let mut b = SimBuilder::new(seed, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        let mut sim = b.build();
        let lt = crate::scenario::connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000))
            .expect("pair connects");
        sim.command(m, LcCommand::SetTpoll(2));
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; slots as usize * 9],
            },
        );
        let end = sim.now() + SimDuration::from_slots(slots);
        sim.run_until(end);
        sim
    }

    #[test]
    fn stat_tier_promotes_on_saturated_acl() {
        let sim = saturated_pair(15, 0.0, Engine::Lockstep, Fidelity::Stat, 2_000);
        let promoted = sim
            .events()
            .iter()
            .any(|e| matches!(e.event, LcEvent::FidelityChanged { promoted: true }));
        assert!(promoted, "saturated clean link never promoted");
        let delivered = sim
            .events()
            .iter()
            .filter(|e| matches!(e.event, LcEvent::AclDelivered { .. }))
            .count();
        assert!(delivered > 500, "only {delivered} fragments delivered");
    }

    #[test]
    fn stat_tier_at_zero_ber_matches_bit_tier_event_log_exactly() {
        // On a clean channel every statistical outcome is Clean, so the
        // batched ARQ timeline — packets, ACKs, timestamps — must be
        // *identical* to the bit-level one, not merely close.
        let strip = |sim: &Simulator| {
            let evs: Vec<String> = sim
                .events()
                .iter()
                .filter(|e| !matches!(e.event, LcEvent::FidelityChanged { .. }))
                .map(|e| format!("{e:?}"))
                .collect();
            (evs, format!("{:?}", sim.tx_stats()))
        };
        let bit = saturated_pair(21, 0.0, Engine::Lockstep, Fidelity::Bit, 1_000);
        let stat = saturated_pair(21, 0.0, Engine::Lockstep, Fidelity::Stat, 1_000);
        assert!(stat
            .events()
            .iter()
            .any(|e| matches!(e.event, LcEvent::FidelityChanged { promoted: true })));
        assert_eq!(strip(&bit), strip(&stat));
    }

    #[test]
    fn stat_tier_engines_agree_on_saturated_acl() {
        for ber in [0.0, 0.001] {
            let lockstep = saturated_pair(33, ber, Engine::Lockstep, Fidelity::Stat, 2_000);
            let event = saturated_pair(33, ber, Engine::EventDriven, Fidelity::Stat, 2_000);
            assert_eq!(lockstep.now(), event.now(), "clocks diverged at ber {ber}");
            assert_eq!(
                format!("{:?}", lockstep.events()),
                format!("{:?}", event.events()),
                "event logs diverged at ber {ber}"
            );
            assert_eq!(
                lockstep.rng_fingerprint(),
                event.rng_fingerprint(),
                "RNG draws diverged at ber {ber}"
            );
            assert_eq!(
                format!("{:?}", lockstep.tx_stats()),
                format!("{:?}", event.tx_stats()),
                "medium stats diverged at ber {ber}"
            );
            for dev in 0..lockstep.device_count() {
                assert_eq!(
                    format!("{:?}", lockstep.power_report(dev).phase(LifePhase::Active)),
                    format!("{:?}", event.power_report(dev).phase(LifePhase::Active)),
                    "active-phase power diverged for device {dev} at ber {ber}"
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_inquiry() {
        assert_engines_agree(31, 0.005, |sim, m, s| {
            sim.command(s, LcCommand::InquiryScan);
            sim.command(
                m,
                LcCommand::Inquiry {
                    num_responses: 1,
                    timeout_slots: 4096,
                },
            );
            sim.run_until(SimTime::from_us(4_000_000));
        });
    }

    #[test]
    fn engines_agree_on_connection_and_data() {
        assert_engines_agree(9, 0.0, |sim, m, s| {
            let offset = sim
                .lc(m)
                .clkn(SimTime::ZERO)
                .offset_to(sim.lc(s).clkn(SimTime::ZERO));
            sim.command(s, LcCommand::PageScan);
            sim.command(
                m,
                LcCommand::Page {
                    target: sim.lc(s).addr(),
                    clke_offset: offset,
                    timeout_slots: 0,
                },
            );
            sim.run_until_event(SimTime::from_us(500_000), |e| {
                matches!(e.event, LcEvent::Connected { .. })
            })
            .expect("connects");
            let lt = sim.lc(m).connected_slaves()[0].0;
            sim.command(
                m,
                LcCommand::AclData {
                    lt_addr: lt,
                    data: (0..60u8).collect(),
                },
            );
            sim.run_until(sim.now() + SimDuration::from_slots(500));
        });
    }

    #[test]
    fn engines_agree_on_hold() {
        assert_engines_agree(12, 0.0, |sim, m, s| {
            let offset = sim
                .lc(m)
                .clkn(SimTime::ZERO)
                .offset_to(sim.lc(s).clkn(SimTime::ZERO));
            sim.command(s, LcCommand::PageScan);
            sim.command(
                m,
                LcCommand::Page {
                    target: sim.lc(s).addr(),
                    clke_offset: offset,
                    timeout_slots: 0,
                },
            );
            sim.run_until_event(SimTime::from_us(500_000), |e| {
                matches!(e.event, LcEvent::Connected { .. })
            })
            .expect("connects");
            let lt = sim.lc(m).connected_slaves()[0].0;
            for _ in 0..3 {
                sim.command(
                    m,
                    LcCommand::Hold {
                        lt_addr: lt,
                        hold_slots: 300,
                    },
                );
                sim.command(
                    s,
                    LcCommand::Hold {
                        lt_addr: lt,
                        hold_slots: 300,
                    },
                );
                sim.run_until(sim.now() + SimDuration::from_slots(400));
            }
        });
    }

    #[test]
    fn event_engine_pops_far_fewer_calendar_events_on_hold() {
        let run = |engine: Engine| {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            let mut b = SimBuilder::new(5, cfg);
            let m = b.add_device("master");
            let s = b.add_device("slave1");
            let mut sim = b.build();
            let offset = sim
                .lc(m)
                .clkn(SimTime::ZERO)
                .offset_to(sim.lc(s).clkn(SimTime::ZERO));
            sim.command(s, LcCommand::PageScan);
            sim.command(
                m,
                LcCommand::Page {
                    target: sim.lc(s).addr(),
                    clke_offset: offset,
                    timeout_slots: 0,
                },
            );
            sim.run_until_event(SimTime::from_us(500_000), |e| {
                matches!(e.event, LcEvent::Connected { .. })
            })
            .expect("connects");
            let lt = sim.lc(m).connected_slaves()[0].0;
            sim.command(
                m,
                LcCommand::Hold {
                    lt_addr: lt,
                    hold_slots: 4_000,
                },
            );
            sim.command(
                s,
                LcCommand::Hold {
                    lt_addr: lt,
                    hold_slots: 4_000,
                },
            );
            let before = sim.steps_total();
            sim.run_until(sim.now() + SimDuration::from_slots(4_100));
            sim.steps_total() - before
        };
        let lockstep = run(Engine::Lockstep);
        let event = run(Engine::EventDriven);
        assert!(
            event * 20 < lockstep,
            "hold window should collapse: lockstep {lockstep} vs event {event} steps"
        );
    }

    #[test]
    fn horizon_reached_clamps_the_clock() {
        let cfg = SimConfig {
            engine: Engine::EventDriven,
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(3, cfg);
        let _ = b.add_device("master");
        let _ = b.add_device("slave1");
        let mut sim = b.build();
        // Standby devices: nothing will ever match; the typed error
        // reports the horizon and the clock lands exactly on it.
        let cap = SimTime::from_us(2_000_000);
        let mut cursor = EventCursor::default();
        let err = sim
            .try_run_until_event_from(&mut cursor, cap, |_| true)
            .expect_err("no events in standby");
        assert_eq!(err, HorizonReached { horizon: cap });
        assert_eq!(sim.now(), cap, "clock clamped to the horizon");
        assert!(err.to_string().contains("2000000"));
    }

    #[test]
    fn power_report_sees_scanner_rx_always_on() {
        let (mut sim, _m, s) = two_device_sim(3, 0.0);
        sim.command(s, LcCommand::InquiryScan);
        sim.run_until(SimTime::from_us(1_000_000));
        let rep = sim.power_report(s);
        // Scanning receivers are continuously active (paper Fig. 5).
        assert!(
            rep.rx_activity() > 0.95,
            "scanner rx activity {}",
            rep.rx_activity()
        );
    }

    #[test]
    fn data_transfer_end_to_end() {
        let (mut sim, m, s) = two_device_sim(9, 0.0);
        let offset = sim
            .lc(m)
            .clkn(SimTime::ZERO)
            .offset_to(sim.lc(s).clkn(SimTime::ZERO));
        sim.command(s, LcCommand::PageScan);
        sim.command(
            m,
            LcCommand::Page {
                target: sim.lc(s).addr(),
                clke_offset: offset,
                timeout_slots: 0,
            },
        );
        sim.run_until_event(SimTime::from_us(500_000), |e| {
            matches!(e.event, LcEvent::Connected { .. })
        })
        .expect("connection");
        let lt = sim.lc(m).connected_slaves()[0].0;
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: (0..100u8).collect(),
            },
        );
        // Run long enough for several fragments and ACKs.
        sim.run_until(sim.now() + SimDuration::from_slots(600));
        let received: Vec<u8> = sim
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                LcEvent::AclReceived { data, .. } if e.device == s => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(received, (0..100u8).collect::<Vec<u8>>());
    }
}
