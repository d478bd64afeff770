//! The scatternet subsystem: multi-piconet topologies over one medium.
//!
//! The DATE'05 model simulates a single piconet; this module grows it
//! into *scatternets* — several piconets sharing the 79-channel ISM
//! band, joined by bridge devices that are a slave in two piconets at
//! once. The pieces, bottom-up:
//!
//! * [`Topology`] — a pure description: piconets, plain slaves,
//!   bridges, and the canonical device-index layout;
//! * [`build_scatternet`] / [`form_scatternet`] — wire a topology into
//!   one [`Simulator`] sharing the existing medium. Inter-piconet
//!   collisions then fall out of the channel model for free: each
//!   piconet hops on its own master's `addr28`-derived sequence, and
//!   same-slot/same-channel overlaps collide in
//!   [`btsim_channel::Medium`] exactly like intra-piconet ones;
//! * [`bridge`] — a deterministic hold-based scheduler that
//!   time-multiplexes a bridge between its two piconets using the
//!   baseband hold machinery (both ends switched symmetrically, like
//!   the PR-1 traffic scenarios drive sniff/hold);
//! * [`relay`] — a minimal store-and-forward relay: framed payloads
//!   routed hop by hop (slave → master → bridge → master → slave)
//!   with end-to-end latency accounting;
//! * [`scenario`] — [`ScatternetScenario`] and
//!   [`MultiPiconetScenario`], the [`crate::Scenario`] impls behind
//!   the `scat_*` registry experiments.
//!
//! See `docs/SCATTERNET.md` for the model, its calibration anchors and
//! its limitations.

pub mod bridge;
pub mod recovery;
pub mod relay;
pub mod scenario;
mod topology;

pub use bridge::{schedule_bridge, BridgeLink, BridgePlan};
pub use recovery::{run_supervised, LinkLoss, Recovery, RecoveryConfig};
pub use relay::{NextHop, RelayFrame, Router, MAX_RELAY_PAYLOAD};
pub use scenario::{
    analytic_collision_rate, DenseFloorConfig, DenseFloorOutcome, DenseFloorScenario,
    MultiPiconetConfig, MultiPiconetOutcome, MultiPiconetScenario, ScatternetConfig,
    ScatternetOutcome, ScatternetScenario,
};
pub use topology::{Bridge, Piconet, Topology, TopologyError};

use std::fmt;

use btsim_baseband::{BdAddr, LcCommand, LcEvent};
use btsim_kernel::SimDuration;

use crate::{EventCursor, SimBuilder, SimConfig, Simulator};

/// One formed master↔member link of a scatternet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatternetLink {
    /// Piconet the link belongs to.
    pub piconet: usize,
    /// Member device (plain slave or bridge).
    pub device: usize,
    /// LT_ADDR the master assigned to the member.
    pub lt_addr: u8,
}

/// The formed scatternet: address and link tables over a [`Simulator`]
/// whose devices follow a [`Topology`]'s canonical layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatternetMap {
    /// The topology the simulator was formed from.
    pub topology: Topology,
    /// Per-piconet master addresses.
    pub masters: Vec<BdAddr>,
    /// Every formed link, in join order.
    pub links: Vec<ScatternetLink>,
}

impl ScatternetMap {
    /// The link of `device` into `piconet`, if formed.
    pub fn link(&self, piconet: usize, device: usize) -> Option<&ScatternetLink> {
        self.links
            .iter()
            .find(|l| l.piconet == piconet && l.device == device)
    }

    /// The master address of `piconet`.
    pub fn master_addr(&self, piconet: usize) -> BdAddr {
        self.masters[piconet]
    }

    /// Reconstructs the link map from a simulator on which `topo` has
    /// already been formed — the restore path of a snapshot-forked
    /// campaign, where the formed state arrives without the
    /// [`ScatternetMap`] that [`form_scatternet`] originally returned.
    ///
    /// Every link is read back from baseband state (each member's
    /// [`btsim_baseband::LinkController::slave_masters`] table), so on a
    /// formed simulator this returns exactly the map formation produced;
    /// a missing link reports [`ScatternetError::JoinFailed`].
    pub fn recover(topo: &Topology, sim: &Simulator) -> Result<ScatternetMap, ScatternetError> {
        topo.validate()?;
        let masters: Vec<BdAddr> = (0..topo.piconets.len())
            .map(|p| sim.lc(topo.master_device(p)).addr())
            .collect();
        let mut links = Vec::new();
        for (piconet, device) in topo.links() {
            let master_addr = masters[piconet];
            let lt_addr = sim
                .lc(device)
                .slave_masters()
                .into_iter()
                .find(|(_, m)| *m == master_addr)
                .map(|(lt, _)| lt)
                .ok_or(ScatternetError::JoinFailed { piconet, device })?;
            links.push(ScatternetLink {
                piconet,
                device,
                lt_addr,
            });
        }
        Ok(ScatternetMap {
            topology: topo.clone(),
            masters,
            links,
        })
    }
}

/// Typed formation result carried by scatternet scenario outcomes: a
/// formation failure is reported as *which* join (or topology check)
/// failed instead of being collapsed into a bare `connected: false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormationStatus {
    /// Every link of the topology formed.
    #[default]
    Formed,
    /// A page did not complete within the join cap.
    JoinFailed {
        /// Piconet whose master was paging.
        piconet: usize,
        /// Member device that did not join.
        device: usize,
    },
    /// The topology description itself was invalid.
    InvalidTopology,
}

impl FormationStatus {
    /// Whether formation completed.
    pub fn formed(self) -> bool {
        self == FormationStatus::Formed
    }
}

impl From<&ScatternetError> for FormationStatus {
    fn from(e: &ScatternetError) -> Self {
        match e {
            ScatternetError::Topology(_) => FormationStatus::InvalidTopology,
            ScatternetError::JoinFailed { piconet, device } => FormationStatus::JoinFailed {
                piconet: *piconet,
                device: *device,
            },
        }
    }
}

/// Why a scatternet could not be formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScatternetError {
    /// The topology description is invalid.
    Topology(TopologyError),
    /// A page did not complete within the join cap (possible only with
    /// a noisy or saturated channel).
    JoinFailed {
        /// Piconet whose master was paging.
        piconet: usize,
        /// Member device that did not join.
        device: usize,
    },
}

impl fmt::Display for ScatternetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScatternetError::Topology(e) => write!(f, "invalid topology: {e}"),
            ScatternetError::JoinFailed { piconet, device } => {
                write!(f, "device {device} failed to join piconet {piconet}")
            }
        }
    }
}

impl std::error::Error for ScatternetError {}

impl From<TopologyError> for ScatternetError {
    fn from(e: TopologyError) -> Self {
        ScatternetError::Topology(e)
    }
}

/// Registers every device of `topo` with a [`SimBuilder`] in the
/// canonical layout order (masters, plain slaves, bridges). Masters get
/// the link-manager master role; everyone else is a slave.
///
/// # Panics
///
/// Panics if the builder already holds devices: the topology's device
/// indices (`master_device`, `bridge_device`, …) address the simulator
/// directly, so a non-empty builder would silently shift every index.
pub fn register_devices(topo: &Topology, b: &mut SimBuilder) {
    register_devices_at(topo, b, |_| btsim_channel::Position::ORIGIN)
}

/// [`register_devices`] with a placement function: `place(dev)` gives
/// each canonical device index its floor position. Positions only
/// matter with a spatial channel model
/// ([`btsim_channel::ChannelConfig::spatial`]); see `docs/SPATIAL.md`.
///
/// # Panics
///
/// Panics if the builder already holds devices (same invariant as
/// [`register_devices`]).
pub fn register_devices_at(
    topo: &Topology,
    b: &mut SimBuilder,
    place: impl Fn(usize) -> btsim_channel::Position,
) {
    use btsim_lmp::LmRole;
    for dev in 0..topo.device_count() {
        let role = if dev < topo.piconets.len() {
            LmRole::Master
        } else {
            LmRole::Slave
        };
        let got = b.add_device_at_with_role(&topo.device_name(dev), place(dev), role);
        assert_eq!(
            got, dev,
            "register_devices needs an empty SimBuilder: topology device \
             indices address the simulator directly"
        );
    }
}

/// Pages `member` from `master_dev` with an exact clock estimate;
/// returns the assigned LT_ADDR.
fn join(
    sim: &mut Simulator,
    cursor: &mut EventCursor,
    master_dev: usize,
    member: usize,
    cap: SimDuration,
) -> Option<u8> {
    let now = sim.now();
    let offset = sim
        .lc(master_dev)
        .clkn(now)
        .offset_to(sim.lc(member).clkn(now));
    let target = sim.lc(member).addr();
    sim.command(member, LcCommand::PageScan);
    sim.command(
        master_dev,
        LcCommand::Page {
            target,
            clke_offset: offset,
            timeout_slots: 0,
        },
    );
    let done = sim.run_until_event_from(cursor, now + cap, |e| {
        e.device == master_dev
            && matches!(&e.event, LcEvent::PageComplete { addr, .. } if *addr == target)
    })?;
    let LcEvent::PageComplete { lt_addr, .. } = done.event else {
        unreachable!("matched above");
    };
    // Let the first POLL/NULL exchange settle before the next page.
    sim.run_until(done.at + SimDuration::from_slots(8));
    Some(lt_addr)
}

/// Forms `topo` on an already-built simulator whose devices follow the
/// canonical layout (see [`register_devices`]): pages every member into
/// its piconet(s), bridges last per piconet, and returns the link map.
///
/// `join_cap_slots` bounds each individual page (exact clock estimates
/// connect within tens of slots on a clean channel).
pub fn form_scatternet(
    topo: &Topology,
    sim: &mut Simulator,
    join_cap_slots: u64,
) -> Result<ScatternetMap, ScatternetError> {
    topo.validate()?;
    let cap = SimDuration::from_slots(join_cap_slots);
    let mut cursor = sim.cursor();
    let mut links = Vec::new();
    for (piconet, device) in topo.links() {
        let master_dev = topo.master_device(piconet);
        let lt_addr = join(sim, &mut cursor, master_dev, device, cap)
            .ok_or(ScatternetError::JoinFailed { piconet, device })?;
        links.push(ScatternetLink {
            piconet,
            device,
            lt_addr,
        });
    }
    let masters = (0..topo.piconets.len())
        .map(|p| sim.lc(topo.master_device(p)).addr())
        .collect();
    Ok(ScatternetMap {
        topology: topo.clone(),
        masters,
        links,
    })
}

/// Builds a simulator for `topo` and forms every link: the one-call
/// entry point of the scatternet subsystem.
///
/// # Examples
///
/// ```
/// use btsim_core::net::{build_scatternet, Topology};
/// use btsim_core::scenario::paper_config;
///
/// let topo = Topology::chain(2, 1);
/// let (sim, map) = build_scatternet(&topo, 7, paper_config()).unwrap();
/// // The bridge (last device) is a slave in both piconets.
/// let bridge = topo.bridge_device(0);
/// assert_eq!(sim.lc(bridge).slave_masters().len(), 2);
/// assert_eq!(map.links.len(), 4); // 2 plain slaves + the bridge twice
/// ```
pub fn build_scatternet(
    topo: &Topology,
    seed: u64,
    cfg: SimConfig,
) -> Result<(Simulator, ScatternetMap), ScatternetError> {
    topo.validate()?;
    let mut b = SimBuilder::new(seed, cfg);
    register_devices(topo, &mut b);
    let mut sim = b.build();
    let map = form_scatternet(topo, &mut sim, 4096)?;
    Ok((sim, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::paper_config;

    #[test]
    fn two_piconet_bridge_forms() {
        let topo = Topology::chain(2, 1);
        let (sim, map) = build_scatternet(&topo, 11, paper_config()).unwrap();
        assert!(sim.lc(topo.master_device(0)).is_master());
        assert!(sim.lc(topo.master_device(1)).is_master());
        let bridge = topo.bridge_device(0);
        let masters = sim.lc(bridge).slave_masters();
        assert_eq!(masters.len(), 2, "bridge is a slave twice: {masters:?}");
        assert_eq!(sim.lc(bridge).sole_slave_master(), None);
        let slave = sim.lc(topo.slave_device(0, 0));
        let master = sim.lc(topo.master_device(0)).addr();
        assert_eq!(slave.sole_slave_master(), Some(master));
        assert_eq!(map.masters.len(), 2);
        assert_ne!(map.masters[0], map.masters[1]);
        assert!(map.link(0, bridge).is_some());
        assert!(map.link(1, bridge).is_some());
    }

    #[test]
    fn three_piconet_chain_forms_deterministically() {
        let run = |seed| {
            let topo = Topology::chain(3, 1);
            let (sim, map) = build_scatternet(&topo, seed, paper_config()).unwrap();
            (format!("{:?}", map.links), sim.now())
        };
        assert_eq!(run(5), run(5));
        let topo = Topology::chain(3, 1);
        let (sim, _) = build_scatternet(&topo, 5, paper_config()).unwrap();
        for k in 0..2 {
            assert_eq!(sim.lc(topo.bridge_device(k)).slave_masters().len(), 2);
        }
    }
}
