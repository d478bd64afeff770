//! The system simulator: devices, channel and kernel wired together.
//!
//! The paper's model is one SystemC kernel driving the link-manager and
//! baseband modules over one channel. Here that single timeline is a
//! private `World` (`simulator/world.rs`): it owns the discrete-event
//! calendar, the shared [`Medium`](btsim_channel::Medium), one [`LinkController`] +
//! [`LinkManager`] per device, the RF power monitor and the waveform
//! recorder. Half-slot ticks drive the baseband state machines, their
//! RF actions become channel transmissions and receive windows, and
//! `enable_tx_RF` / `enable_rx_RF` transitions are recorded for the
//! power analysis and waveform figures.
//!
//! [`Simulator`] is a thin shell over one or more worlds: one holding
//! every device, or — for a sharded spatial run — one per connected
//! component of the in-range graph (`docs/SPATIAL.md`). Every public
//! call goes through one path whatever the count: per-device calls
//! resolve the device to its world, aggregates fold over the worlds,
//! and the event search steps whichever world holds the earliest event.
//! The one difference is where the event log comes from (see
//! [`Simulator::events`]).
//!
//! Two [`Engine`]s drive the ticks. [`Engine::Lockstep`] is the paper's
//! scheme — every device is polled every half slot — and serves as the
//! behavioural oracle. [`Engine::EventDriven`], the default,
//! fast-forwards the clock across guaranteed-no-op gaps using each
//! controller's [`LinkController::next_wakeup`] hint plus the link
//! manager's pending mode-change slots; `docs/ENGINE.md` describes the
//! wakeup-hint contract and the differential harness that gates both
//! engines to bit-identical behaviour.

use crate::fault::FaultPlan;
use crate::metrics::MetricsSnapshot;
use crate::observe::{merge_since, ObsCursor, SimEvent};
use btsim_baseband::{BdAddr, LcCommand, LcConfig, LcEvent, LifePhase, LinkController};
use btsim_channel::{ChannelConfig, ChannelQuality, Position, TxStats};
use btsim_fidelity::Fidelity;
use btsim_kernel::{CaptureSink, SimRng, SimTime, TraceRecorder};
use btsim_lmp::{LinkManager, LmEvent, LmOutput, LmRole};
use btsim_power::DeviceReport;

mod index;
mod snapshot;
mod world;
pub use snapshot::SimSnapshot;
use world::World;

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
    Lockstep,
    /// Fast-forward the clock to the earliest wakeup across all devices
    /// ([`LinkController::next_wakeup`] + pending LMP mode changes),
    /// skipping ticks that are provably no-ops. Bit-identical to
    /// lockstep (enforced by `tests/engine_equivalence.rs`), and much
    /// faster whenever devices idle in hold/sniff/park or an R1 page
    /// scan. The default.
    #[default]
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
    /// each component gets its own timeline (world), and `run_until`
    /// advances them on up to `shards` scoped worker threads. Results
    /// are bit-identical to the unsharded (`shards == 1`) run
    /// regardless of the worker count. Without a spatial model — or
    /// when tracing, packet capture or metrics streaming pin the run to
    /// a single timeline — the knob is ignored and one world holds
    /// every device.
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
    /// With a spatial channel model and [`SimConfig::shards`] ≥ 2, every
    /// connected component of the in-range graph gets its own world
    /// (see `docs/SPATIAL.md`); otherwise one world holds every device.
    /// Tracing, packet capture and metrics streaming need a single
    /// timeline, so any of them pins the build to one world.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan targets a device that was never added or
    /// a slot past [`crate::MAX_FAULT_SLOT`] (check user-supplied plans
    /// with [`FaultPlan::check`]).
    pub fn build(self) -> Simulator {
        if let Err(e) = self.cfg.faults.check(self.specs.len()) {
            panic!("{e}");
        }
        let pinned = self.cfg.trace || self.cfg.capture || self.cfg.metrics_every.is_some();
        let workers = if pinned { 1 } else { self.cfg.shards.max(1) };
        let n = self.specs.len();
        // Components are numbered in order of their lowest device, so
        // each member list is ascending and world order follows it.
        let comp_of = match &self.cfg.channel.spatial {
            Some(spatial) if workers > 1 => index::in_range_graph(Some(spatial), &self.positions).1,
            _ => vec![0; n],
        };
        let mut globals: Vec<Vec<usize>> =
            vec![Vec::new(); comp_of.iter().max().map_or(1, |c| c + 1)];
        let mut locs = Vec::with_capacity(n);
        for (d, &c) in comp_of.iter().enumerate() {
            locs.push((c, globals[c].len()));
            globals[c].push(d);
        }
        let worlds = globals
            .iter()
            .map(|g| World::new(&self.cfg, self.seed, &self.specs, &self.positions, g))
            .collect();
        Simulator {
            merged: vec![(0, 0); globals.len()],
            worlds,
            locs,
            globals,
            faults: self.cfg.faults,
            workers,
            events: Vec::new(),
            lm_events: Vec::new(),
            inspect_cursor: 0,
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
    /// The timelines, at least one: a single world holding every device,
    /// or one per connected component of a sharded spatial run, ordered
    /// by lowest global device id.
    worlds: Vec<World>,
    /// Global device id → (world, local index in that world).
    locs: Vec<(usize, usize)>,
    /// World → local index → global device id (ascending).
    globals: Vec<Vec<usize>>,
    /// The full fault plan; each world schedules its own restriction.
    faults: FaultPlan,
    /// Worker-thread cap for `run_until` ([`SimConfig::shards`]). Never
    /// affects results, only wall-clock.
    workers: usize,
    /// Several worlds: their link-controller logs merged in `(at,
    /// device)` order. Unused with one world, whose own log is public.
    events: Vec<LoggedEvent>,
    /// Several worlds: their link-manager logs merged likewise.
    lm_events: Vec<LoggedLmEvent>,
    /// Per world, how many (lc, lm) events the merged logs hold.
    merged: Vec<(usize, usize)>,
    /// Resume point of [`Simulator::run_until_event`]'s shared scan.
    inspect_cursor: usize,
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
    /// The world holding device `dev`, and the device's index there.
    fn locate(&self, dev: usize) -> (usize, usize) {
        self.locs[dev]
    }

    /// Folds over every world.
    fn all(&self) -> Worlds<'_> {
        Worlds(&self.worlds)
    }

    /// The public (link-controller, link-manager) logs: one world's own
    /// logs as they stand, in dispatch order; else the merged ones.
    fn logs(&self) -> (&[LoggedEvent], &[LoggedLmEvent]) {
        match self.worlds.as_slice() {
            [w] => (&w.events, &w.lm_events),
            _ => (&self.events, &self.lm_events),
        }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.locs.len()
    }

    /// Current simulation time. Every world's clock is synced to it
    /// whenever control is back with the caller.
    pub fn now(&self) -> SimTime {
        self.worlds[0].cal.now()
    }

    /// Immutable access to a device's link controller (for assertions).
    pub fn lc(&self, dev: usize) -> &LinkController {
        let (w, l) = self.locate(dev);
        &self.worlds[w].devices[l].lc
    }

    /// The waveform recorder. Tracing pins a run to one world; a
    /// sharded run's recorder is disabled and empty.
    pub fn recorder(&self) -> &TraceRecorder {
        &self.worlds[0].recorder
    }

    /// All logged link-controller events so far.
    ///
    /// With one world this is its log in dispatch order. A sharded run
    /// merges its worlds' logs into `(at, device)` order — a canonical
    /// order independent of the shard layout and worker count, which
    /// differs from dispatch order only among different devices' events
    /// at a shared instant.
    pub fn events(&self) -> &[LoggedEvent] {
        self.logs().0
    }

    /// A cursor at the current end of the event log (events logged
    /// after this call are "since" it).
    pub fn cursor(&self) -> EventCursor {
        EventCursor(self.events().len())
    }

    /// The events logged at or after `cursor`, advancing the cursor to
    /// the end of the log.
    pub fn events_since(&self, cursor: &mut EventCursor) -> &[LoggedEvent] {
        let log = self.events();
        let from = cursor.0.min(log.len());
        cursor.0 = log.len();
        &log[from..]
    }

    /// All logged link-manager events so far, ordered as
    /// [`Simulator::events`].
    pub fn lm_events(&self) -> &[LoggedLmEvent] {
        self.logs().1
    }

    /// The packet-capture sink (air packets and LMP PDUs, in dispatch
    /// order). Disabled — and empty — unless [`SimConfig::capture`] was
    /// set, which pins the run to one world; serialize with
    /// `btsim_trace::btsnoop::serialize_sink`.
    pub fn capture(&self) -> &CaptureSink {
        self.worlds[0].medium.capture()
    }

    /// A cursor at the current end of the merged event stream (events
    /// logged after this call are "since" it). A fresh
    /// [`ObsCursor::default`] starts at the beginning instead.
    pub fn observe(&self) -> ObsCursor {
        let (lc, lm) = self.logs();
        ObsCursor {
            lc: lc.len(),
            lm: lm.len(),
        }
    }

    /// The unified event stream since `cursor`: both logs merged stably
    /// by instant (link-controller events ahead of link-manager events
    /// at a shared instant), advancing the cursor to their ends. Render
    /// with [`crate::observe::to_json_lines`].
    pub fn events_merged_since(&self, cursor: &mut ObsCursor) -> Vec<SimEvent> {
        let (lc, lm) = self.logs();
        merge_since(lc, lm, cursor)
    }

    /// A metrics-hub snapshot of every subsystem at the current instant:
    /// medium counters, per-device power/buffer/fidelity state, engine
    /// progress and event-log sizes. Built on demand from state the
    /// subsystems already maintain — the hub costs nothing between
    /// calls. Diff two snapshots with [`MetricsSnapshot::since`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.all().hub(self.locs.iter().copied())
    }

    /// The JSON lines streamed so far (one snapshot per
    /// [`SimConfig::metrics_every`] period); empty when streaming is
    /// off. Streaming pins a run to one world. See
    /// `docs/OBSERVABILITY.md` for the line schema.
    pub fn metrics_lines(&self) -> &str {
        self.worlds[0].metrics.as_ref().map_or("", |m| m.lines())
    }

    /// Observed channel bit-error fraction (diagnostics), pooled over
    /// the worlds' raw counters.
    pub fn measured_ber(&self) -> f64 {
        self.all().measured_ber()
    }

    /// Cumulative medium transmission/collision statistics, summed over
    /// the worlds. Scatternet experiments take a snapshot after topology
    /// formation and measure the delta over the traffic window
    /// ([`TxStats::since`]).
    pub fn tx_stats(&self) -> TxStats {
        self.all().tx_stats()
    }

    /// The per-RF-channel quality counters, summed over the worlds
    /// (snapshot and diff with [`ChannelQuality::since`]); the AFH
    /// experiments use it to verify an adapted hop sequence stops
    /// landing in an interferer's band.
    pub fn channel_quality(&self) -> ChannelQuality {
        self.all().channel_quality()
    }

    /// The engine driving this simulator.
    pub fn engine(&self) -> Engine {
        self.worlds[0].engine
    }

    /// The fault plan this simulator was built with. Each world holds
    /// (and schedules) only the restriction to its own devices plus all
    /// noise faults.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether `dev` is currently crashed (powered off by a
    /// [`crate::FaultKind::Crash`] and not yet revived).
    pub fn device_crashed(&self, dev: usize) -> bool {
        let (w, l) = self.locate(dev);
        self.worlds[w].crashed[l]
    }

    /// Fault events applied so far, across all worlds.
    pub fn faults_applied(&self) -> u64 {
        self.all().total(|w| w.faults_applied)
    }

    /// Calendar events dispatched so far — the engine's unit of work.
    /// The event-driven engine's speedup is, to first order, the ratio
    /// of this count between engines for the same workload.
    pub fn steps_total(&self) -> u64 {
        self.all().total(|w| w.steps_total)
    }

    /// Digest of every random stream's position (device controllers and
    /// the media). Two runs that made bit-identical random draws — the
    /// engine-equivalence requirement — have equal fingerprints.
    ///
    /// The fold is the same whatever the world count: every world's
    /// medium keys its base stream alike (and never draws from it in
    /// spatial mode, where the per-radio noise streams are folded in
    /// global device order), then the controller streams follow in
    /// global device order.
    pub fn rng_fingerprint(&self) -> u64 {
        let mut acc = self.worlds[0].medium.base_rng_fingerprint();
        for &(w, l) in &self.locs {
            let medium = &self.worlds[w].medium;
            if medium.spatial().is_some() {
                acc = acc.rotate_left(9) ^ medium.noise_fingerprint_of(l);
            }
        }
        for &(w, l) in &self.locs {
            acc = acc.rotate_left(7) ^ self.worlds[w].devices[l].lc.rng_fingerprint();
        }
        acc
    }

    /// Issues a command to a device at the current time.
    pub fn command(&mut self, dev: usize, cmd: LcCommand) {
        let now = self.now();
        self.command_at(dev, cmd, now);
    }

    /// Schedules a command at an absolute time.
    pub fn command_at(&mut self, dev: usize, cmd: LcCommand, at: SimTime) {
        let (w, l) = self.locate(dev);
        self.worlds[w].command_at(l, cmd, at);
    }

    /// Runs a link-manager request on a device, applying its outputs.
    pub fn lm_request<F>(&mut self, dev: usize, f: F)
    where
        F: FnOnce(&mut LinkManager, u64) -> Vec<LmOutput>,
    {
        let (w, l) = self.locate(dev);
        self.worlds[w].lm_request(l, f);
        self.merge_logs();
    }

    /// Runs until the calendar passes `until` (or drains), then clamps
    /// the clock to `until` so idle gaps at the horizon don't leave the
    /// simulation time short (the event-driven engine leaves such gaps;
    /// lockstep reaches the same instant by ticking through them).
    ///
    /// Worlds never interact, so they advance independently: dealt
    /// round-robin to up to [`SimConfig::shards`] scoped worker threads,
    /// or in place when there is one worker or one world. The worker
    /// count never changes results, only wall-clock time.
    pub fn run_until(&mut self, until: SimTime) {
        let workers = self.workers.min(self.worlds.len());
        if workers == 1 {
            for w in &mut self.worlds {
                w.run_until(until);
            }
        } else {
            let mut groups: Vec<Vec<&mut World>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, w) in self.worlds.iter_mut().enumerate() {
                groups[i % workers].push(w);
            }
            std::thread::scope(|scope| {
                for group in groups {
                    scope.spawn(move || {
                        for w in group {
                            w.run_until(until);
                        }
                    });
                }
            });
        }
        self.merge_logs();
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
    ///
    /// Each step dispatches the earliest pending event of all worlds
    /// (ties to the lowest world), so stepping is globally time-ordered
    /// and every observable — log contents, the matched event, the stop
    /// instant — is independent of the shard layout and worker count.
    pub fn try_run_until_event_from<F>(
        &mut self,
        cursor: &mut EventCursor,
        cap: SimTime,
        pred: F,
    ) -> Result<LoggedEvent, HorizonReached>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        for w in &mut self.worlds {
            w.run_cap = cap;
        }
        let mut frontier = self.now();
        loop {
            let log = self.events();
            while cursor.0 < log.len() {
                let i = cursor.0;
                cursor.0 += 1;
                if pred(&log[i]) {
                    let found = log[i].clone();
                    // Sync every clock to the stepping frontier without
                    // dispatching anything further: pending same-instant
                    // events stay pending.
                    for w in &mut self.worlds {
                        w.cal.advance_to(frontier);
                    }
                    return Ok(found);
                }
            }
            let next = self
                .worlds
                .iter()
                .enumerate()
                .filter_map(|(i, w)| w.cal.peek_time().map(|t| (t, i)))
                .min();
            match next {
                Some((t, i)) if t <= cap => {
                    frontier = t;
                    self.worlds[i].step();
                    self.merge_logs();
                }
                _ => {
                    for w in &mut self.worlds {
                        w.cal.advance_to(cap);
                    }
                    return Err(HorizonReached { horizon: cap });
                }
            }
        }
    }

    /// Power/activity report of `dev` over `[0, now]`, with any open RF
    /// window committed up to now.
    pub fn power_report(&self, dev: usize) -> DeviceReport<LifePhase> {
        let (w, l) = self.locate(dev);
        self.worlds[w].power_report(l)
    }

    /// Pulls every not-yet-merged event out of the world logs, remaps
    /// local device ids to global ones, and merges them into the public
    /// logs, kept sorted by `(at, device)`. Each device's own stream
    /// stays in chronological log order. With one world there is
    /// nothing to merge: its own logs are the public ones.
    ///
    /// All worlds' suffixes are merged in one pass: equal keys can only
    /// come from one device, hence one world, so sorting the
    /// concatenation once orders it exactly as merging world by world
    /// would, without re-merging the window once per world.
    fn merge_logs(&mut self) {
        if self.worlds.len() == 1 {
            return;
        }
        let (mut lc, mut lm) = (Vec::new(), Vec::new());
        for (w, world) in self.worlds.iter().enumerate() {
            let (lc_done, lm_done) = self.merged[w];
            let g = &self.globals[w];
            lc.extend(world.events[lc_done..].iter().map(|e| LoggedEvent {
                device: g[e.device],
                ..e.clone()
            }));
            lm.extend(world.lm_events[lm_done..].iter().map(|e| LoggedLmEvent {
                device: g[e.device],
                ..e.clone()
            }));
            self.merged[w] = (world.events.len(), world.lm_events.len());
        }
        merge_sorted(&mut self.events, lc, |e| (e.at, e.device));
        merge_sorted(&mut self.lm_events, lm, |e| (e.at, e.device));
    }
}

/// Folds over a set of worlds: the aggregates the simulator reports,
/// shared by its accessors and the metrics hub.
#[derive(Clone, Copy)]
struct Worlds<'a>(&'a [World]);

impl Worlds<'_> {
    /// Sums a per-world counter.
    fn total(self, f: impl Fn(&World) -> u64) -> u64 {
        self.0.iter().map(f).sum()
    }

    fn tx_stats(self) -> TxStats {
        self.0
            .iter()
            .fold(TxStats::default(), |acc, w| acc.plus(w.medium.tx_stats()))
    }

    fn channel_quality(self) -> ChannelQuality {
        self.0.iter().fold(ChannelQuality::default(), |acc, w| {
            acc.plus(w.medium.channel_quality())
        })
    }

    /// The pooled bit-error fraction: exactly one medium's
    /// [`Medium::measured_ber`](btsim_channel::Medium::measured_ber) over all the worlds' bits.
    fn measured_ber(self) -> f64 {
        let (flipped, bits) = self.0.iter().fold((0u64, 0u64), |(f, b), w| {
            let (wf, wb) = w.medium.bit_error_totals();
            (f + wf, b + wb)
        });
        if bits == 0 {
            0.0
        } else {
            flipped as f64 / bits as f64
        }
    }

    /// The metrics hub at the first world's clock, with per-device
    /// entries for the `(world, local index)` pairs `locs` lists in
    /// global device order.
    fn hub(self, locs: impl Iterator<Item = (usize, usize)>) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(self.0[0].cal.now());
        let tx = self.tx_stats();
        s.push_counter("medium.transmissions", tx.transmissions);
        s.push_counter("medium.collided", tx.collided);
        s.push_counter("medium.jammed", tx.jammed);
        s.push_counter("fidelity.promotions", self.total(|w| w.fidelity_promotions));
        s.push_counter("fidelity.demotions", self.total(|w| w.fidelity_demotions));
        s.push_counter("engine.steps", self.total(|w| w.steps_total));
        s.push_counter("faults.applied", self.total(|w| w.faults_applied));
        s.push_counter("events.lc", self.total(|w| w.events.len() as u64));
        s.push_counter("events.lm", self.total(|w| w.lm_events.len() as u64));
        s.push_counter(
            "capture.records",
            self.total(|w| w.medium.capture().len() as u64),
        );
        s.push_counter(
            "cost.listener_visits",
            self.total(|w| w.cost.listener_visits),
        );
        s.push_counter("cost.stat_attempts", self.total(|w| w.cost.stat_attempts));
        s.push_counter(
            "cost.stat_walk_visits",
            self.total(|w| w.cost.stat_walk_visits),
        );
        for (d, (w, l)) in locs.enumerate() {
            let world = &self.0[w];
            let rep = world.power_report(l);
            let lc = &world.devices[l].lc;
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
        s.push_gauge("medium.bad_rate", self.channel_quality().total().bad_rate());
        s
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
    use btsim_kernel::SimDuration;

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

    /// Runs `sim` for `slots` slots, one at a time, calling `before_slot`
    /// with the slot's index first. After each slot it asserts that the
    /// medium retains no more transmissions than started within some
    /// window of two retention periods plus one gc period ending at or
    /// before now (with a few slots' slack for sampling, dispatch
    /// granularity and multi-slot packets). Returns the largest such
    /// window count: it depends only on the traffic, so it is the same
    /// under both engines.
    fn assert_retention_bounded(
        sim: &mut Simulator,
        slots: u64,
        mut before_slot: impl FnMut(&mut Simulator, u64),
    ) -> u64 {
        use world::{GC_PERIOD, MEDIUM_RETENTION};
        let window = (MEDIUM_RETENTION + MEDIUM_RETENTION + GC_PERIOD).slots() as usize + 8;
        let mut started = vec![sim.tx_stats().transmissions];
        let mut bound = 0;
        for i in 0..slots {
            before_slot(sim, i);
            sim.run_until(sim.now() + SimDuration::SLOT);
            let total = sim.tx_stats().transmissions;
            bound = bound.max(total - started[started.len().saturating_sub(window)]);
            started.push(total);
            let live = sim.worlds[0].medium.live_count() as u64;
            assert!(
                live <= bound,
                "{live} transmissions retained at {:?}, bound {bound}",
                sim.now()
            );
        }
        bound
    }

    #[test]
    fn medium_retention_is_bounded_by_simulated_time() {
        let pair = |engine: Engine, ber: f64, seed: u64| {
            let mut cfg = crate::scenario::paper_config();
            cfg.engine = engine;
            cfg.channel.ber = ber;
            let mut b = SimBuilder::new(seed, cfg);
            let m = b.add_device("master");
            let s = b.add_device("slave1");
            (b.build(), m, s)
        };
        // A long inquiry at high BER that never completes: most IDs land
        // where nobody listens, stay undelivered and get the 2× grace
        // window.
        let inquiry = |engine: Engine| {
            let (mut sim, m, s) = pair(engine, 1.0 / 30.0, 41);
            sim.command(s, LcCommand::InquiryScan);
            sim.command(
                m,
                LcCommand::Inquiry {
                    num_responses: 2,
                    timeout_slots: 0,
                },
            );
            let bound = assert_retention_bounded(&mut sim, 12_000, |_, _| {});
            let total = sim.tx_stats().transmissions;
            assert!(
                total > 20 * bound,
                "collector idle: {total} transmissions, bound {bound}"
            );
            bound
        };
        assert_eq!(inquiry(Engine::Lockstep), inquiry(Engine::EventDriven));

        // A pair that pages, connects and then sits in hold, idle for
        // 2,000 slots at a time.
        let held = |engine: Engine| {
            let (mut sim, m, s) = pair(engine, 0.0, 43);
            let (mut connected, mut next_hold, mut holds) = (None, 0, 0);
            let bound = assert_retention_bounded(&mut sim, 6_600, |sim, i| {
                if i == 0 {
                    let offset = sim
                        .lc(m)
                        .clkn(SimTime::ZERO)
                        .offset_to(sim.lc(s).clkn(SimTime::ZERO));
                    let target = sim.lc(s).addr();
                    sim.command(s, LcCommand::PageScan);
                    sim.command(
                        m,
                        LcCommand::Page {
                            target,
                            clke_offset: offset,
                            timeout_slots: 0,
                        },
                    );
                }
                let Some(&(lt_addr, _)) = sim.lc(m).connected_slaves().first() else {
                    return;
                };
                let since = *connected.get_or_insert(i);
                if holds < 3 && i >= since + 4 && i >= next_hold {
                    for dev in [m, s] {
                        sim.command(
                            dev,
                            LcCommand::Hold {
                                lt_addr,
                                hold_slots: 2_000,
                            },
                        );
                    }
                    next_hold = i + 2_100;
                    holds += 1;
                }
            });
            let total = sim.tx_stats().transmissions;
            assert_eq!(holds, 3);
            assert!(total < 2_000, "pair not idle: {total} transmissions");
            bound
        };
        assert_eq!(held(Engine::Lockstep), held(Engine::EventDriven));
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
