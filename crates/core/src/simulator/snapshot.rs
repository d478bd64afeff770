//! Checkpoint/restore of the full simulator state (`docs/SNAPSHOT.md`).
//!
//! [`SimSnapshot`] captures every stateful layer — calendar, medium,
//! per-device controllers and managers, power ledgers, trace/capture
//! sinks, event logs, fidelity counters and metrics stream of every
//! world, plus the shell's device maps and merged logs — deeply enough
//! that `restore(snapshot(sim))` followed by `run_until(h)` is
//! bit-identical to running the original simulator to `h`
//! uninterrupted (gated by `tests/snapshot_equivalence.rs`).
//!
//! The wire form ([`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`])
//! is the kernel [`Snap`] codec under a magic/version header. Decoding is
//! total: malformed or truncated input yields a typed
//! [`SnapshotError`], never a panic, and structural invariants the
//! simulator relies on (device maps, merge cursors, wakeup arrays,
//! calendar device indices) are re-validated on the way in.

use super::world::{ActiveWindow, Cost, DeviceCell, Ev, PendingWindow, Scratch, World};
use super::*;
use btsim_kernel::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};
use index::Indexes;

/// First four bytes of every serialized snapshot (`"BTSN"`).
const MAGIC: u32 = u32::from_le_bytes(*b"BTSN");

/// Highest wire-format version this build reads and the one it writes.
const VERSION: u32 = 5;

snap_enum! {
    Engine {
        0 => Lockstep,
        1 => EventDriven,
    } else "unknown engine tag"
}

snap_struct! { ActiveWindow { id, channel, opened_at, until } }

snap_struct! { PendingWindow { id, channel, from, until } }

snap_enum! {
    Ev {
        0 => Tick(dev),
        1 => Wake { seq },
        2 => Command { dev, cmd, inserted },
        3 => TxStart { dev, channel, packet },
        4 => Deliver { tx, listeners },
        5 => WindowOpen { dev, id },
        6 => WindowClose { dev, id },
        7 => Fault { idx },
    } else "unknown calendar event tag"
}

snap_struct! { LoggedEvent { at, device, event } }

snap_struct! { LoggedLmEvent { at, device, event } }

snap_struct! {
    DeviceCell { lc, lm, active, pending, rx_busy_until, sig_tx, sig_rx }
}

snap_struct! {
    Cost {
        listener_visits,
        stat_attempts,
        stat_walk_visits,
        air_images_built,
        rx_shortcuts,
    }
}

impl Snap for World {
    fn snap(&self, w: &mut SnapWriter) {
        // `index` is derived state: decode rebuilds it from the devices
        // and radio positions.
        let World {
            cal,
            medium,
            devices,
            monitor,
            recorder,
            events,
            lm_events,
            next_window_id,
            gc_at,
            engine,
            fidelity,
            error_model,
            modem_delay,
            peek,
            run_cap,
            wake,
            wake_seq,
            steps_total,
            cost,
            fidelity_promotions,
            fidelity_demotions,
            metrics,
            comp_of,
            index: _,
            faults,
            crashed,
            muted,
            drifted,
            faults_applied,
            scratch: _,
        } = self;
        cal.snap(w);
        medium.snap(w);
        devices.snap(w);
        monitor.snap(w);
        recorder.snap(w);
        events.snap(w);
        lm_events.snap(w);
        next_window_id.snap(w);
        gc_at.snap(w);
        engine.snap(w);
        fidelity.snap(w);
        error_model.snap(w);
        modem_delay.snap(w);
        peek.snap(w);
        run_cap.snap(w);
        wake.snap(w);
        wake_seq.snap(w);
        steps_total.snap(w);
        cost.snap(w);
        fidelity_promotions.snap(w);
        fidelity_demotions.snap(w);
        metrics.snap(w);
        comp_of.snap(w);
        faults.snap(w);
        crashed.snap(w);
        muted.snap(w);
        drifted.snap(w);
        faults_applied.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut world = World {
            cal: Snap::unsnap(r)?,
            medium: Snap::unsnap(r)?,
            devices: Snap::unsnap(r)?,
            monitor: Snap::unsnap(r)?,
            recorder: Snap::unsnap(r)?,
            events: Snap::unsnap(r)?,
            lm_events: Snap::unsnap(r)?,
            next_window_id: Snap::unsnap(r)?,
            gc_at: Snap::unsnap(r)?,
            engine: Snap::unsnap(r)?,
            fidelity: Snap::unsnap(r)?,
            error_model: Snap::unsnap(r)?,
            modem_delay: Snap::unsnap(r)?,
            peek: Snap::unsnap(r)?,
            run_cap: Snap::unsnap(r)?,
            wake: Snap::unsnap(r)?,
            wake_seq: Snap::unsnap(r)?,
            steps_total: Snap::unsnap(r)?,
            cost: Snap::unsnap(r)?,
            fidelity_promotions: Snap::unsnap(r)?,
            fidelity_demotions: Snap::unsnap(r)?,
            metrics: Snap::unsnap(r)?,
            comp_of: Snap::unsnap(r)?,
            index: Indexes::default(),
            faults: Snap::unsnap(r)?,
            crashed: Snap::unsnap(r)?,
            muted: Snap::unsnap(r)?,
            drifted: Snap::unsnap(r)?,
            faults_applied: Snap::unsnap(r)?,
            scratch: Scratch::default(),
        };
        validate_world(&world).map_err(|what| r.malformed(what))?;
        world.index = derive_index(&world).map_err(|what| r.malformed(what))?;
        Ok(world)
    }
}

snap_struct! {
    Simulator {
        worlds,
        locs,
        globals,
        faults,
        workers,
        events,
        lm_events,
        merged,
        inspect_cursor,
    }
    check |sim| validate_shell(sim)
}

/// Structural invariants every decoded world must satisfy before it
/// can run: any index a dispatch path uses unchecked is range-checked
/// here, so a corrupted stream is rejected instead of panicking later.
fn validate_world(world: &World) -> Result<(), &'static str> {
    let n = world.devices.len();
    if world.wake.len() != n {
        return Err("wakeup array length mismatches device count");
    }
    if !world.comp_of.is_empty() && world.comp_of.len() != n {
        return Err("component map length mismatches device count");
    }
    if world.crashed.len() != n || world.muted.len() != n || world.drifted.len() != n {
        return Err("fault flag array length mismatches device count");
    }
    if let Err(e) = world.faults.check(n) {
        return Err(e.what());
    }
    for (_, _, ev) in world.cal.entries() {
        let ok = match ev {
            Ev::Tick(d)
            | Ev::Command { dev: d, .. }
            | Ev::TxStart { dev: d, .. }
            | Ev::WindowOpen { dev: d, .. }
            | Ev::WindowClose { dev: d, .. } => *d < n,
            Ev::Deliver { listeners, .. } => listeners.iter().all(|&l| l < n),
            Ev::Wake { .. } => true,
            Ev::Fault { idx } => *idx < world.faults.events().len(),
        };
        if !ok {
            return Err("calendar event references unknown device");
        }
    }
    Ok(())
}

/// The shell's invariants: at least one world, the global↔local device
/// maps a bijection onto the worlds' devices, merge cursors within the
/// world logs.
fn validate_shell(sim: &Simulator) -> Result<(), &'static str> {
    if sim.worlds.is_empty() {
        return Err("simulator without a world");
    }
    if sim.workers == 0 {
        return Err("worker count must be at least 1");
    }
    if sim.globals.len() != sim.worlds.len() || sim.merged.len() != sim.worlds.len() {
        return Err("world tables mismatch world count");
    }
    // Every device maps to a (world, local) slot that maps back to it,
    // and the slots are exactly as many as the devices: a bijection.
    let mut slots = 0;
    for (world, globals) in sim.worlds.iter().zip(&sim.globals) {
        if globals.len() != world.devices.len() {
            return Err("world globals table mismatches device count");
        }
        slots += globals.len();
    }
    if slots != sim.locs.len() {
        return Err("device map mismatches world device count");
    }
    for (d, &(w, l)) in sim.locs.iter().enumerate() {
        if sim.globals.get(w).and_then(|g| g.get(l)) != Some(&d) {
            return Err("device map references unknown device");
        }
    }
    for (world, &(done_lc, done_lm)) in sim.worlds.iter().zip(&sim.merged) {
        if done_lc > world.events.len() || done_lm > world.lm_events.len() {
            return Err("merge cursor beyond world event log");
        }
    }
    if let Err(e) = sim.faults.check(sim.locs.len()) {
        return Err(e.what());
    }
    Ok(())
}

/// Rebuilds a world's derived indexes, which the wire form leaves out,
/// from the restored devices and radio positions — and rejects a
/// component map those positions do not produce.
fn derive_index(world: &World) -> Result<Indexes, &'static str> {
    let positions = match world.medium.spatial() {
        Some(_) => (0..world.devices.len())
            .map(|d| world.medium.position_of(d))
            .collect::<Option<Vec<_>>>()
            .ok_or("device without a registered radio")?,
        None => Vec::new(),
    };
    let (near, comp_of) = index::in_range_graph(world.medium.spatial(), &positions);
    if comp_of != world.comp_of {
        return Err("component map mismatches radio positions");
    }
    Ok(Indexes::new(
        world.devices.iter().map(|c| c.lc.addr()),
        near,
        &comp_of,
    ))
}

/// A point-in-time checkpoint of a [`Simulator`].
///
/// Produced by [`Simulator::snapshot`]; restored with
/// [`SimSnapshot::restore`] (any number of times — restoring is how a
/// campaign forks one formed topology into many runs) or shipped across
/// processes via [`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`].
///
/// # Examples
///
/// ```
/// use btsim_core::{SimBuilder, SimConfig, SimSnapshot};
/// use btsim_kernel::SimTime;
///
/// let mut b = SimBuilder::new(7, SimConfig::default());
/// b.add_device("master");
/// b.add_device("slave1");
/// let mut sim = b.build();
/// sim.run_until(SimTime::from_us(10_000));
///
/// let snap = sim.snapshot();
/// let bytes = snap.to_bytes();
/// let mut fork = SimSnapshot::from_bytes(&bytes).unwrap().restore();
/// fork.run_until(SimTime::from_us(20_000));
/// sim.run_until(SimTime::from_us(20_000));
/// // An unreseeded fork replays the original run bit-for-bit.
/// assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
/// assert_eq!(fork.events(), sim.events());
/// ```
#[derive(Clone)]
pub struct SimSnapshot {
    sim: Simulator,
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("at", &self.at())
            .field("devices", &self.device_count())
            .finish_non_exhaustive()
    }
}

impl SimSnapshot {
    /// The simulation instant the snapshot was taken at.
    pub fn at(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of devices in the captured simulator.
    pub fn device_count(&self) -> usize {
        self.sim.device_count()
    }

    /// A fresh, independent simulator continuing from the checkpoint.
    ///
    /// Every restore is equivalent: the snapshot is immutable, so forks
    /// never alias each other. Without a subsequent
    /// [`Simulator::reseed_for_fork`] the restored run replays the
    /// original bit-for-bit.
    pub fn restore(&self) -> Simulator {
        self.sim.clone()
    }

    /// Consumes the snapshot into its simulator without a final clone.
    pub fn into_simulator(self) -> Simulator {
        self.sim
    }

    /// Serializes the snapshot: magic, format version, then the kernel
    /// [`Snap`] image of the whole simulator tree. Deterministic — two
    /// bit-identical states produce byte-identical snapshots.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(MAGIC);
        w.put_u32(VERSION);
        self.sim.snap(&mut w);
        w.into_bytes()
    }

    /// Decodes a serialized snapshot, rejecting — with a typed error,
    /// never a panic — anything that is not a well-formed snapshot of a
    /// supported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        match r.take_u32() {
            Ok(m) if m == MAGIC => {}
            _ => return Err(SnapshotError::BadMagic),
        }
        let found = r.take_u32().map_err(|_| SnapshotError::BadMagic)?;
        if found != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found,
                supported: VERSION,
            });
        }
        let sim = Simulator::unsnap(&mut r)?;
        r.finish()?;
        Ok(SimSnapshot { sim })
    }
}

impl Simulator {
    /// Checkpoints the complete simulator state (see [`SimSnapshot`]).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot { sim: self.clone() }
    }

    /// [`SimSnapshot::restore`] as an associated constructor, mirroring
    /// `Simulator::restore(snapshot)` call sites.
    pub fn restore(snapshot: &SimSnapshot) -> Simulator {
        snapshot.restore()
    }

    /// Re-keys every open random stream from `fork_seed`, exactly as a
    /// fresh build with that seed would have keyed them: the medium's
    /// base stream (`fork 0xC4A7`, which internally re-derives the jam
    /// stream and each radio's private noise stream from its registered
    /// global stream id) and each device controller's stream
    /// (`fork 0x20_0000 + global_id`). The CLKN draw stream
    /// (`0x10_0000 + global_id`) is deliberately *not* re-drawn: clock
    /// phase is part of the formed state a fork is meant to keep.
    ///
    /// This is the campaign fork contract: restore a formed snapshot,
    /// reseed with the run's seed, drive — statistically independent
    /// runs over an identical formed topology.
    pub fn reseed_for_fork(&mut self, fork_seed: u64) {
        let root = SimRng::new(fork_seed);
        for (world, globals) in self.worlds.iter_mut().zip(&self.globals) {
            world.medium.reseed(root.fork(0xC4A7));
            for (cell, &g) in world.devices.iter_mut().zip(globals) {
                cell.lc.reseed(root.fork(0x20_0000 + g as u64).seed());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use btsim_baseband::LcCommand;

    fn connected_sim(seed: u64) -> Simulator {
        let mut b = crate::SimBuilder::new(seed, SimConfig::default());
        let master = b.add_device("m");
        let slave = b.add_device("s");
        let mut sim = b.build();
        let offset = sim
            .lc(master)
            .clkn(SimTime::ZERO)
            .offset_to(sim.lc(slave).clkn(SimTime::ZERO));
        sim.command(slave, LcCommand::PageScan);
        sim.command(
            master,
            LcCommand::Page {
                target: sim.lc(slave).addr(),
                clke_offset: offset,
                timeout_slots: 0,
            },
        );
        sim.run_until(SimTime::from_us(500_000));
        assert!(sim.lc(master).is_master(), "pair must form");
        sim
    }

    #[test]
    fn wire_roundtrip_is_field_exact_and_byte_stable() {
        let sim = connected_sim(11);
        let snap = sim.snapshot();
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.at(), snap.at());
        assert_eq!(back.device_count(), 2);
        // Re-encoding the decoded snapshot reproduces the bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restored_run_is_bit_identical() {
        let mut sim = connected_sim(12);
        let mut fork = sim.snapshot().restore();
        let horizon = SimTime::from_us(1_500_000);
        sim.run_until(horizon);
        fork.run_until(horizon);
        assert_eq!(sim.events(), fork.events());
        assert_eq!(sim.lm_events(), fork.lm_events());
        assert_eq!(sim.rng_fingerprint(), fork.rng_fingerprint());
        assert_eq!(sim.tx_stats(), fork.tx_stats());
    }

    #[test]
    fn reseeded_forks_diverge_but_keep_topology() {
        let sim = connected_sim(13);
        let snap = sim.snapshot();
        let mut a = snap.restore();
        let mut b = snap.restore();
        a.reseed_for_fork(1001);
        b.reseed_for_fork(1002);
        assert_ne!(a.rng_fingerprint(), b.rng_fingerprint());
        let horizon = SimTime::from_us(1_000_000);
        a.run_until(horizon);
        b.run_until(horizon);
        // Both forks keep the formed link alive.
        assert!(a.lc(0).is_master() && a.lc(1).is_slave());
        assert!(b.lc(0).is_master() && b.lc(1).is_slave());
        assert_ne!(a.rng_fingerprint(), b.rng_fingerprint());
    }

    #[test]
    fn reseeding_with_build_seed_matches_build_streams() {
        // A never-run simulator reseeded with its own build seed is at
        // the exact stream positions the build created.
        let mut b = crate::SimBuilder::new(21, SimConfig::default());
        b.add_device("m");
        b.add_device("s");
        let sim = b.build();
        let mut reseeded = sim.clone();
        reseeded.reseed_for_fork(21);
        assert_eq!(sim.rng_fingerprint(), reseeded.rng_fingerprint());
    }

    #[test]
    fn malformed_bytes_are_rejected_not_panicked() {
        let sim = connected_sim(14);
        let bytes = sim.snapshot().to_bytes();
        assert_eq!(
            SimSnapshot::from_bytes(&[]).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SimSnapshot::from_bytes(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SimSnapshot::from_bytes(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            }
        );
        // Every truncation either decodes-short (Truncated) or trips a
        // validity check (Malformed) — never a panic.
        for cut in [8, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(SimSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SimSnapshot::from_bytes(&trailing).unwrap_err(),
            SnapshotError::TrailingBytes { .. }
        ));
    }
}
