//! One timeline: a calendar, the medium its devices share, and
//! everything dispatching an event touches.
//!
//! A [`World`] is what the paper's SystemC kernel is — one clock driving
//! the link controllers and link managers of its devices over one
//! channel. It knows nothing about sharding: the public
//! [`super::Simulator`] holds one world with every device, or one world
//! per connected component of a sharded spatial run, and maps global
//! device ids onto each world's local indices.

use super::index::{self, Indexes, WakeTree};
use super::{Engine, LoggedEvent, LoggedLmEvent, SimConfig, Worlds};
use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::MetricsStream;
use btsim_baseband::{
    stat_slot_pair, AirPacket, BdAddr, ClkVal, Clock, LcAction, LcCommand, LcEvent, LifePhase,
    LinkController, Llid, RxDelivery, StatSide,
};
use btsim_channel::{AirImage, Delivery, DutyClass, Interferer, Medium, Position, TxId};
use btsim_fidelity::{ErrorModel, Fidelity};
use btsim_kernel::{
    Calendar, CaptureDir, CaptureKind, CaptureRecord, CaptureSink, SignalRef, SimDuration, SimRng,
    SimTime, TraceRecorder, TraceValue,
};
use btsim_lmp::{LinkManager, LmOutput, LmRole};
use btsim_power::{DeviceReport, PowerMonitor};

/// Tolerance for a transmission starting marginally before a window
/// opens (receiver timing uncertainty).
const RX_UNCERTAINTY: SimDuration = SimDuration::from_us(10);

/// How long the medium retains finished transmissions for delivery.
pub(super) const MEDIUM_RETENTION: SimDuration = SimDuration::from_us(50_000);

/// Simulated time between medium collections (8 slots). A cadence in
/// simulated time keeps the retained set the same whatever the engine,
/// shard count or dispatch rate.
pub(super) const GC_PERIOD: SimDuration = SimDuration::from_us(5_000);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ActiveWindow {
    pub(super) id: u64,
    pub(super) channel: u8,
    pub(super) opened_at: SimTime,
    pub(super) until: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PendingWindow {
    pub(super) id: u64,
    pub(super) channel: u8,
    pub(super) from: SimTime,
    pub(super) until: Option<SimTime>,
}

/// Deterministic scan-work counters: how many devices the per-event
/// walks examined. They depend only on the simulated work, never on the
/// host, so tests gate them exactly (`tests/spatial_sharding.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Cost {
    /// Devices the `TxStart` listener walk examined.
    pub(super) listener_visits: u64,
    /// Statistical-tier attempts: ticks that found a same-component
    /// pair whose master sends data at that instant.
    pub(super) stat_attempts: u64,
    /// Devices the attempts' component walks examined.
    pub(super) stat_walk_visits: u64,
    /// Air images the receivers' codecs built to decode a disturbed
    /// reception bit by bit (the medium counts its captures apart).
    pub(super) air_images_built: u64,
    /// Receptions decoded by taking the sender's packet.
    pub(super) rx_shortcuts: u64,
}

/// Buffers the dispatch loop reuses, so the steady-state packet path
/// does not allocate for them. Derived state: empty between dispatches
/// (apart from retained capacity), never snapshotted.
#[derive(Clone, Default)]
pub(super) struct Scratch {
    /// The action buffer every link-controller call appends to and
    /// [`World::apply_actions`] drains.
    actions: Vec<LcAction>,
    /// Emptied listener lists of delivered transmissions, handed to the
    /// next `TxStart`.
    listeners: Vec<Vec<usize>>,
}

#[derive(Clone)]
pub(super) struct DeviceCell {
    pub(super) lc: LinkController,
    pub(super) lm: LinkManager,
    pub(super) active: Option<ActiveWindow>,
    pub(super) pending: Vec<PendingWindow>,
    pub(super) rx_busy_until: SimTime,
    pub(super) sig_tx: SignalRef,
    pub(super) sig_rx: SignalRef,
}

#[derive(Debug, Clone)]
pub(super) enum Ev {
    /// Lockstep: one per device, self-rescheduling every half slot.
    Tick(usize),
    /// Event-driven: the single dispatch event sitting at the earliest
    /// pending wakeup. `seq` invalidates superseded instances.
    Wake {
        seq: u64,
    },
    Command {
        dev: usize,
        /// Boxed: commands are rare, and an inline `LcCommand` would
        /// make every calendar entry the heap sifts several times larger.
        cmd: Box<LcCommand>,
        /// When the command was scheduled — decides whether the target
        /// device's lockstep tick at the dispatch instant runs before or
        /// after it, which the event-driven engine must reproduce.
        inserted: SimTime,
    },
    TxStart {
        dev: usize,
        channel: u8,
        packet: AirPacket,
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
    /// A scheduled fault from the world's [`FaultPlan`], by index.
    /// Scheduled at build time, so its insertion sequence precedes every
    /// re-scheduled tick/wake at the same instant — faults apply before
    /// any device acts at their instant, under both engines.
    Fault {
        idx: usize,
    },
}

// Every heap sift moves whole calendar entries: the rare command payload
// is boxed, and a transmission's packet stays within 32 bytes, so
// neither sets the size of all of them.
const _: () = assert!(std::mem::size_of::<Ev>() == 48);

/// One timeline and the devices it drives. Device indices are local
/// to the world; the enclosing simulator owns the global numbering.
#[derive(Clone)]
pub(super) struct World {
    pub(super) cal: Calendar<Ev>,
    pub(super) medium: Medium<AirPacket>,
    pub(super) devices: Vec<DeviceCell>,
    pub(super) monitor: PowerMonitor<LifePhase>,
    pub(super) recorder: TraceRecorder,
    /// Link-controller events, in dispatch order.
    pub(super) events: Vec<LoggedEvent>,
    /// Link-manager events, in dispatch order.
    pub(super) lm_events: Vec<LoggedLmEvent>,
    pub(super) next_window_id: u64,
    /// The first dispatch at or after this instant collects the medium.
    pub(super) gc_at: SimTime,
    pub(super) engine: Engine,
    /// Effective PHY fidelity tier ([`Fidelity::Bit`] whenever tracing
    /// is on, regardless of the configured tier).
    pub(super) fidelity: Fidelity,
    /// Closed-form per-section packet-error model at the configured BER.
    pub(super) error_model: ErrorModel,
    /// Cached from the channel config for the statistical path.
    pub(super) modem_delay: SimDuration,
    /// Cached carrier-detect window from the LC config.
    pub(super) peek: SimDuration,
    /// Horizon of the current `run_*` call: the statistical tier never
    /// batches past it, because the caller may mutate state (commands,
    /// new traffic) as soon as control returns.
    pub(super) run_cap: SimTime,
    /// Event-driven only: each device's next pending tick instant, in
    /// a min-tree so the earliest is O(1) to read.
    pub(super) wake: WakeTree,
    /// Invalidates superseded [`Ev::Wake`] instances.
    pub(super) wake_seq: u64,
    /// Calendar events dispatched so far (engine-cost diagnostic).
    pub(super) steps_total: u64,
    /// Scan-work counters (metrics hub `cost.*`).
    pub(super) cost: Cost,
    /// Statistical-tier promotions observed so far (metrics hub).
    pub(super) fidelity_promotions: u64,
    /// Statistical-tier demotions observed so far (metrics hub).
    pub(super) fidelity_demotions: u64,
    /// Streaming metrics emission, when [`SimConfig::metrics_every`] is
    /// set.
    pub(super) metrics: Option<MetricsStream>,
    /// Spatial mode: dense component id per device; empty without a
    /// spatial model (everything is one implicit component).
    pub(super) comp_of: Vec<usize>,
    /// Neighbour lists, component members, the address map (derived
    /// from the fixed topology; rebuilt on restore, never snapshotted).
    pub(super) index: Indexes,
    /// The fault script driving [`Ev::Fault`] dispatches, restricted to
    /// this world's devices (local indices) plus every noise fault.
    pub(super) faults: FaultPlan,
    /// Per-device crashed flag: commands, transmissions and receptions
    /// of a crashed device are discarded until its revive fault.
    pub(super) crashed: Vec<bool>,
    /// Per-device radio mute: the device transmits nothing and hears
    /// nothing, but its controller logic keeps running.
    pub(super) muted: Vec<bool>,
    /// Devices whose native clock has jumped ([`FaultKind::Drift`]).
    /// Permanently blocks the statistical tier for their links: the
    /// tier's closed forms assume the pair's clocks agree, which only a
    /// bit-level re-page can re-establish.
    pub(super) drifted: Vec<bool>,
    /// Fault events dispatched so far (metrics hub).
    pub(super) faults_applied: u64,
    /// Reused dispatch buffers.
    pub(super) scratch: Scratch,
}

impl World {
    /// Builds the world holding devices `globals` (ascending global
    /// ids) of the full device list `specs`/`positions`. Every
    /// per-device RNG stream is keyed by the global id, so a component
    /// simulated alone draws exactly what it would have drawn on the
    /// full floor.
    pub(super) fn new(
        cfg: &SimConfig,
        seed: u64,
        specs: &[(String, BdAddr, LmRole)],
        positions: &[Position],
        globals: &[usize],
    ) -> World {
        let root = SimRng::new(seed);
        let mut medium = Medium::new(cfg.channel.clone(), root.fork(0xC4A7));
        if cfg.capture {
            medium.set_capture(CaptureSink::enabled());
        }
        let mut recorder = if cfg.trace {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        };
        let n = globals.len();
        let monitor = PowerMonitor::new(n, LifePhase::Standby);
        let mut devices = Vec::with_capacity(n);
        let mut cal = Calendar::new();
        // Schedule the fault script first: build-time insertion gives
        // every fault a lower sequence number than any re-scheduled
        // tick or wake, so a fault at instant T dispatches before any
        // device acts at T — identically under both engines. A world
        // sees only its own devices' faults (remapped to local indices)
        // plus every noise fault, which is exactly what keeps sharded
        // runs bit-identical to monolithic ones.
        let faults = cfg.faults.restricted_to(globals);
        for (idx, ev) in faults.events().iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_slots(ev.at_slot);
            cal.schedule(at, Ev::Fault { idx });
        }
        let positions: Vec<Position> = globals.iter().map(|&g| positions[g]).collect();
        for (i, &g) in globals.iter().enumerate() {
            let (name, addr, role) = &specs[g];
            let g = g as u64;
            if cfg.channel.spatial.is_some() {
                medium.register_radio(i, positions[i], g);
            }
            let mut clk_rng = root.fork(0x10_0000 + g);
            let clkn0 = if cfg.random_clkn {
                ClkVal::new(clk_rng.range_u64(1 << 28) as u32)
            } else {
                ClkVal::new(0)
            };
            let lc = LinkController::new(
                *addr,
                Clock::new(clkn0),
                cfg.lc.clone(),
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
            if cfg.engine == Engine::Lockstep {
                cal.schedule(SimTime::ZERO, Ev::Tick(i));
            }
        }
        // Components scope the statistical tier's stability gate in
        // spatial mode: a link pair only demotes for contention within
        // its own connected component, which is what keeps a world
        // holding the whole floor bit-identical to one per component.
        let (near, comp_of) = index::in_range_graph(medium.spatial(), &positions);
        let index = Indexes::new(devices.iter().map(|c| c.lc.addr()), near, &comp_of);
        World {
            cal,
            medium,
            devices,
            monitor,
            recorder,
            events: Vec::new(),
            lm_events: Vec::new(),
            next_window_id: 0,
            gc_at: SimTime::ZERO + GC_PERIOD,
            engine: cfg.engine,
            // Waveform tracing needs the bit-level RF signal edges and
            // packet capture needs the bit images, so either pins the
            // PHY to the bit tier.
            fidelity: if cfg.trace || cfg.capture {
                Fidelity::Bit
            } else {
                cfg.fidelity
            },
            error_model: ErrorModel::new(cfg.channel.ber, cfg.lc.sync_threshold),
            modem_delay: cfg.channel.modem_delay,
            peek: SimDuration::from_us(cfg.lc.peek_us),
            run_cap: SimTime::ZERO,
            // All devices start in standby: nothing to wake for until a
            // command arrives (commands re-arm their device's wakeup).
            wake: WakeTree::new(&vec![None; n]),
            wake_seq: 0,
            steps_total: 0,
            cost: Cost::default(),
            fidelity_promotions: 0,
            fidelity_demotions: 0,
            metrics: cfg.metrics_every.map(MetricsStream::new),
            comp_of,
            index,
            faults,
            crashed: vec![false; n],
            muted: vec![false; n],
            drifted: vec![false; n],
            faults_applied: 0,
            scratch: Scratch::default(),
        }
    }

    /// Schedules a command for local device `dev` at `at`.
    pub(super) fn command_at(&mut self, dev: usize, cmd: LcCommand, at: SimTime) {
        let inserted = self.cal.now();
        let cmd = Box::new(cmd);
        self.cal.schedule(at, Ev::Command { dev, cmd, inserted });
    }

    /// Runs a link-manager request on local device `dev` between
    /// steps, applying its outputs.
    pub(super) fn lm_request<F>(&mut self, dev: usize, f: F)
    where
        F: FnOnce(&mut LinkManager, u64) -> Vec<LmOutput>,
    {
        if self.crashed[dev] {
            return; // powered off: the host stack is down too
        }
        let now = self.cal.now();
        let outs = f(&mut self.devices[dev].lm, now.slots());
        self.apply_lm_outputs(dev, outs, now);
        // Called between steps: the lockstep tick at `now` has already
        // run, so the wakeup floor is the next tick.
        self.rearm_wakeup(dev, now + SimDuration::from_ns(1));
    }

    /// Steps every event up to `until`, then clamps the clock to it.
    pub(super) fn run_until(&mut self, until: SimTime) {
        self.run_cap = until;
        while let Some(t) = self.cal.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.cal.advance_to(until);
    }

    /// Power/activity report of local device `dev` over `[0, now]`,
    /// with any open RF window committed up to now.
    pub(super) fn power_report(&self, dev: usize) -> DeviceReport<LifePhase> {
        let now = self.cal.now();
        let open = self.devices[dev]
            .active
            .as_ref()
            .map(|w| (w.opened_at, now.max(w.opened_at)));
        self.monitor.report_with_rx(dev, now, open)
    }

    // ----- engine ----------------------------------------------------------

    /// Dispatches the earliest pending event (the event search's unit
    /// of work; `run_cap` bounds stat-tier batches).
    pub(super) fn step(&mut self) {
        let Some((t, ev)) = self.cal.pop() else {
            return;
        };
        self.steps_total += 1;
        if t >= self.gc_at {
            self.gc_at = t + GC_PERIOD;
            self.medium.gc(t, MEDIUM_RETENTION);
        }
        // Streaming metrics: one comparison per dispatched event when
        // enabled, one `Option` discriminant test when not. Streaming
        // pins a run to one world, so local device ids are global.
        if self.metrics.as_ref().is_some_and(|m| t >= m.next_at) {
            let snap =
                Worlds(std::slice::from_ref(self)).hub((0..self.devices.len()).map(|d| (0, d)));
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
                self.drive_lc(dev, t, |lc, out| lc.command(*cmd, t, out));
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
            Ev::TxStart {
                dev,
                channel,
                packet,
            } => {
                if self.crashed[dev] || self.muted[dev] {
                    return; // the packet never reaches the antenna
                }
                let dur = SimDuration::from_bits(packet.air_bits());
                let end = t + dur;
                self.monitor.add_tx(dev, t, end);
                self.recorder
                    .record(t, self.devices[dev].sig_tx, TraceValue::Bit(true));
                self.recorder
                    .record(end, self.devices[dev].sig_tx, TraceValue::Bit(false));
                let tx = self.medium.begin_tx(dev, channel, t, packet);
                // Determine listeners now: open windows on this channel
                // — in spatial mode, only on radios within interaction
                // range of the transmitter (a far window stays open and
                // never hears the packet). The neighbour list is
                // ascending, so listeners are in device order.
                let mut listeners = self.scratch.listeners.pop().unwrap_or_default();
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
                if listeners.is_empty() {
                    self.scratch.listeners.push(listeners);
                } else {
                    let at = self
                        .medium
                        .delivery_time(tx)
                        .expect("fresh transmission is retained");
                    self.cal.schedule(at, Ev::Deliver { tx, listeners });
                }
            }
            Ev::Deliver { tx, mut listeners } => {
                if let Some(delivery) = self.medium.deliver(tx) {
                    for &dev in &listeners {
                        if self.crashed[dev] || self.muted[dev] {
                            continue; // faulted after the window latched on
                        }
                        self.deliver_to(dev, &delivery, t);
                        // Receptions land off the half-slot grid (packet
                        // end + modem delay): the next tick that can act
                        // is strictly after this instant.
                        self.recompute_wakeup(dev, t + SimDuration::from_ns(1));
                    }
                    if self.engine == Engine::EventDriven {
                        self.arm_wake();
                    }
                }
                listeners.clear();
                self.scratch.listeners.push(listeners);
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
        self.drive_lc(dev, t, |lc, out| lc.on_tick(t, out));
        if t.ns().is_multiple_of(SimDuration::SLOT.ns()) {
            let outs = self.devices[dev].lm.poll(t.slots());
            self.apply_lm_outputs(dev, outs, t);
        }
    }

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

    /// Logs an event produced by the statistical tier, mirroring the
    /// `LcAction::Event` arm of `apply_actions`. The tier never batches
    /// LMP traffic or phase changes, so the manager provably ignores
    /// everything routed through here.
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
            } else if let Some(master) = lc.sole_slave_master() {
                let Some(m) = self.index.device_by_addr(master) else {
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
            // Out-of-range "pair": a world per component would not
            // even hold the peer.
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
                self.drive_lc(dev, t, |lc, out| lc.command(LcCommand::PowerOff, t, out));
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

    /// [`World::recompute_wakeup`] + [`World::arm_wake`].
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

    /// Runs one link-controller entry point of `dev` on the world's
    /// action buffer and applies what it appended. Applying may re-enter
    /// (an LMP PDU makes the link manager issue a command); the nested
    /// call then finds the buffer taken and grows a fresh one, which
    /// only such rare commands pay for.
    /// Hands `delivery` to device `dev`'s link controller and carries
    /// out what it asks for, as [`World::drive_lc`] does. The delivery
    /// borrows the sender's packet and flips from the medium while the
    /// controller decodes, so no reception copies them.
    fn deliver_to(&mut self, dev: usize, delivery: &Delivery, now: SimTime) {
        let mut actions = std::mem::take(&mut self.scratch.actions);
        let (packet, flips) = self
            .medium
            .image_of(delivery.tx_id)
            .expect("a delivered transmission stays retained through its delivery");
        let rx = RxDelivery {
            packet,
            flips,
            collision_mask: delivery.collision_mask.as_ref(),
            rf_channel: delivery.rf_channel,
            start: delivery.start,
            end: delivery.end,
        };
        let lc = &mut self.devices[dev].lc;
        lc.on_rx(&rx, now, &mut actions);
        let tally = lc.take_rx_tally();
        self.cost.air_images_built += tally.images_built;
        self.cost.rx_shortcuts += tally.shortcuts;
        self.apply_actions(dev, &mut actions, now);
        self.scratch.actions = actions;
    }

    fn drive_lc(
        &mut self,
        dev: usize,
        now: SimTime,
        call: impl FnOnce(&mut LinkController, &mut Vec<LcAction>),
    ) {
        let mut actions = std::mem::take(&mut self.scratch.actions);
        call(&mut self.devices[dev].lc, &mut actions);
        self.apply_actions(dev, &mut actions, now);
        self.scratch.actions = actions;
    }

    /// Carries out (and drains) the actions a link controller asked for.
    fn apply_actions(&mut self, dev: usize, actions: &mut Vec<LcAction>, now: SimTime) {
        for a in actions.drain(..) {
            match a {
                LcAction::Tx {
                    at,
                    rf_channel,
                    packet,
                } => {
                    self.cal.schedule(
                        at.max(now),
                        Ev::TxStart {
                            dev,
                            channel: rf_channel,
                            packet,
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
                        event,
                    });
                    // LMP PDUs drive the device's link manager, which
                    // reads the logged copy.
                    let logged = &self.events[self.events.len() - 1].event;
                    let outs = self.devices[dev].lm.on_lc_event(logged, now.slots());
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
                    self.drive_lc(dev, now, |lc, out| lc.command(cmd, now, out));
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
