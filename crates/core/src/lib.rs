//! # btsim-core
//!
//! The top level of the `btsim` Bluetooth system model (reproduction of
//! Conti & Moretti, *System Level Analysis of the Bluetooth Standard*,
//! DATE 2005): device composition, the [`Simulator`], the [`scenario`]
//! layer (every workload implements [`scenario::Scenario`]), the
//! scatternet subsystem ([`net`] — multi-piconet topologies, bridge
//! scheduling, store-and-forward relaying), the generic Monte-Carlo
//! [`campaign`] engine, and the paper's experiments ([`experiments`] —
//! one function per figure, all runnable through the
//! [`experiments::registry`]).
//!
//! The observability layer (`docs/OBSERVABILITY.md`) lives here too:
//! [`SimConfig::capture`] records every air packet and LMP PDU for
//! btsnoop export, [`observe`] merges the event logs into one
//! instant-ordered stream, and [`metrics`] aggregates named counters
//! and gauges from every subsystem with snapshot/`since` semantics.
//!
//! Any simulator can be checkpointed mid-run and restored bit-exactly —
//! or forked into statistically independent runs that share its formed
//! state (`docs/SNAPSHOT.md`):
//!
//! ```
//! use btsim_core::{SimBuilder, SimConfig, SimSnapshot};
//! use btsim_kernel::SimTime;
//!
//! let mut b = SimBuilder::new(7, SimConfig::default());
//! b.add_device("master");
//! b.add_device("slave1");
//! let mut sim = b.build();
//! sim.run_until(SimTime::from_us(10_000));
//!
//! // Checkpoint through the validated wire form and continue: an
//! // unreseeded restore replays the original run bit-for-bit.
//! let bytes = sim.snapshot().to_bytes();
//! let mut fork = SimSnapshot::from_bytes(&bytes).unwrap().restore();
//! fork.run_until(SimTime::from_us(20_000));
//! sim.run_until(SimTime::from_us(20_000));
//! assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
//!
//! // A campaign fork keeps the formed state but re-keys the RNG:
//! let mut run2 = SimSnapshot::from_bytes(&bytes).unwrap().restore();
//! run2.reseed_for_fork(42);
//! run2.run_until(SimTime::from_us(20_000));
//! assert_ne!(run2.rng_fingerprint(), sim.rng_fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod observe;
pub mod scenario;
mod simulator;

pub use btsim_fidelity::Fidelity;
pub use btsim_kernel::SnapshotError;
pub use campaign::{Campaign, CampaignResult, ExpOptions, PointResult};
pub use fault::{
    FaultEvent, FaultKind, FaultParseError, FaultPlan, FaultPlanError, MAX_FAULT_SLOT,
};
pub use metrics::MetricsSnapshot;
pub use observe::{ObsCursor, SimEvent};
pub use scenario::Scenario;
pub use simulator::{
    AfhConfig, DuplicateAddr, Engine, EventCursor, HorizonReached, LoggedEvent, LoggedLmEvent,
    SimBuilder, SimConfig, SimSnapshot, Simulator,
};
