//! # btsim — System-Level Simulation of the Bluetooth Standard
//!
//! Facade crate for the `btsim` workspace, a Rust reproduction of
//! Conti & Moretti, *System Level Analysis of the Bluetooth Standard*
//! (DATE 2005). The paper models the Bluetooth Link Manager and Baseband
//! layers in SystemC to study piconet-creation behaviour under channel
//! noise and the RF-power savings of the sniff/hold/park low-power modes;
//! this workspace rebuilds that model — including its SystemC-like
//! discrete-event substrate — as a set of Rust crates.
//!
//! Each sub-crate is re-exported as a module:
//!
//! * [`kernel`] — discrete-event simulation kernel (ns time base, event
//!   calendar, 4-valued wires, traced signals, seeded RNG);
//! * [`coding`] — bit-level codes: access-code sync words, HEC, CRC-16,
//!   FEC 1/3 and 2/3, whitening;
//! * [`channel`] — the noisy RF medium with collisions and modem delay;
//! * [`baseband`] — packets, hop selection, Bluetooth clock and the
//!   link-controller state machine;
//! * [`lmp`] — the Link Manager Protocol subset (mode negotiation);
//! * [`power`] — RF-activity and energy accounting;
//! * [`stats`] — Monte-Carlo campaign statistics, the `Record` trait and
//!   table/CSV/JSON output;
//! * [`trace`] — VCD/ASCII waveform output;
//! * [`core`] — device composition, simulator, the `Scenario` layer, the
//!   generic `Campaign` engine, the scatternet subsystem (`core::net`)
//!   and the paper's experiment registry.
//!
//! # Quickstart
//!
//! Every workload is a [`core::scenario::Scenario`]: a deterministic
//! function of a seed that builds a simulator and drives it to a
//! structured outcome. Run one directly, or hand it to a
//! [`core::campaign::Campaign`] for a seeded, parallel Monte-Carlo
//! sweep with summary statistics:
//!
//! ```
//! use btsim::core::campaign::Campaign;
//! use btsim::core::scenario::{CreationConfig, CreationScenario, Scenario};
//!
//! // One seeded run: a master discovers and connects one slave (a
//! // generous inquiry timeout keeps every seed comfortably inside it).
//! let scenario = CreationScenario::new(CreationConfig {
//!     n_slaves: 1,
//!     inquiry_timeout_slots: 16 * 2048,
//!     ..CreationConfig::default()
//! });
//! let outcome = scenario.run(42);
//! assert!(outcome.piconet_complete());
//!
//! // A campaign over many seeds: statistics come out, not loops.
//! let result = Campaign::new(scenario).runs(8).base_seed(42).run();
//! let point = result.single();
//! assert!(point.completion_rate() > 0.9);
//! assert!(point.metric("inquiry_slots").mean() > 0.0);
//! ```
//!
//! Beyond a single piconet, the scatternet subsystem wires several
//! piconets into one simulator sharing the medium — bridges are slaves
//! in two piconets and time-multiplex between them via hold (see
//! `docs/SCATTERNET.md`):
//!
//! ```
//! use btsim::core::net::{build_scatternet, Topology};
//! use btsim::core::scenario::paper_config;
//!
//! // Two piconets with one plain slave each, joined by one bridge.
//! let topo = Topology::chain(2, 1);
//! let (sim, map) = build_scatternet(&topo, 7, paper_config()).unwrap();
//! assert_eq!(map.links.len(), 4); // 2 plain slaves + the bridge twice
//! let bridge = topo.bridge_device(0);
//! assert_eq!(sim.lc(bridge).slave_masters().len(), 2);
//! ```
//!
//! The v1.2 adaptive-frequency-hopping loop is closed end to end (see
//! `docs/AFH.md`): both ends of a link assess their reception outcomes
//! per RF channel, the slave reports its classification over
//! `LMP_channel_classification`, the master announces the combined map
//! with `LMP_set_AFH`, and both basebands remap their hop sequences at
//! the same announced instant — restoring goodput against a fixed-band
//! 802.11 interferer:
//!
//! ```
//! use btsim::channel::Interferer;
//! use btsim::core::scenario::{AfhAdaptConfig, AfhAdaptScenario, Scenario};
//! use btsim::core::AfhConfig;
//!
//! let out = AfhAdaptScenario::new(AfhAdaptConfig {
//!     wlan: Interferer::wlan(40, 1.0), // 22 channels, always busy
//!     afh: AfhConfig { enabled: true, assess_slots: 1_200, ..AfhConfig::default() },
//!     window_slots: 1_200,
//!     ..AfhAdaptConfig::default()
//! })
//! .run(11);
//! assert!(out.switched, "map exchange completed");
//! assert!(out.kbps_after > out.kbps_before, "goodput recovered");
//! assert_eq!(out.jam_hits_after, 0.0, "adapted hops avoid the band");
//! ```
//!
//! The paper's figures (and the extension experiments, including the
//! `scat_*` scatternet ones and the `afh_adapt` coexistence-mitigation
//! one) are registry entries — list them, run them by name, or add
//! your own (see `docs/SCENARIOS.md`):
//!
//! ```
//! use btsim::core::experiments::{registry, ExpOptions};
//!
//! let fig6 = registry().iter().find(|e| e.name == "fig6_inquiry_vs_ber").unwrap();
//! let report = fig6.run(&ExpOptions { runs: 2, ..ExpOptions::quick() }).unwrap();
//! assert!(!report.tables[0].is_empty());
//! ```
//!
//! Two interchangeable engines drive every simulation (see
//! `docs/ENGINE.md`): the paper's lockstep half-slot loop (the
//! behavioural oracle) and the default event-driven fast-forward engine
//! that skips provably idle ticks — bit-identical by construction (the
//! differential harness in `tests/engine_equivalence.rs` enforces it)
//! and far faster on hold/sniff/park-heavy workloads:
//!
//! ```
//! use btsim::core::{Engine, SimConfig};
//!
//! let mut cfg = SimConfig::default();
//! assert_eq!(cfg.engine, Engine::EventDriven);
//! cfg.engine = Engine::Lockstep; // or `--engine lockstep` on any binary
//! assert_eq!(cfg.engine.name(), "lockstep");
//! ```
//!
//! Saturated traffic — where the event engine has nothing to skip — runs
//! on a word-parallel coding hot path and a per-RF-channel-indexed
//! medium (see `docs/PERF.md` for the hot-path inventory, the
//! `bench_hotpath` benchmark methodology and the bit-exactness gate
//! every hot-path change must pass).
//!
//! Devices can be placed on a floor plan (see `docs/SPATIAL.md`): a
//! hard interaction radius culls interference to the 3×3-cell
//! neighbourhood around each radio, and `--shards N` splits a single
//! run over the connected components of the in-range graph on scoped
//! worker threads — bit-identical to the unsharded run (enforced by
//! `tests/spatial_sharding.rs`), so sharding is pure wall-clock:
//!
//! ```
//! use btsim::channel::{Position, SpatialConfig};
//! use btsim::core::scenario::paper_config;
//! use btsim::core::SimBuilder;
//!
//! let mut cfg = paper_config();
//! cfg.channel.spatial = Some(SpatialConfig::with_radius(10.0));
//! cfg.shards = 4; // or `--shards 4` on any binary
//! let mut b = SimBuilder::new(7, cfg);
//! let m = b.add_device_at("master", Position::ORIGIN);
//! let s = b.add_device_at("slave", Position::new(3.0, 4.0)); // 5 m apart
//! let sim = b.build();
//! assert!(sim.device_count() == 2);
//! ```
//!
//! On top of both engines sit three PHY **fidelity tiers** (see
//! `docs/FIDELITY.md`): `bit` simulates every packet through the full
//! coding pipeline; `stat` promotes settled single-slave ACL links to a
//! statistical tier that draws each packet's four-way outcome from a
//! closed-form error model — 20×+ faster on saturated traffic, demoting
//! back to bit level the instant an AFH switch, LMP exchange or
//! co-channel contention appears; `auto` is `stat` gated on a converged
//! channel estimate. At BER 0 a promoted link is provably bit-exact;
//! elsewhere `tests/fidelity_equivalence.rs` pins the distributions:
//!
//! ```
//! use btsim::core::scenario::{GoodputConfig, GoodputScenario, Scenario};
//! use btsim::core::Fidelity;
//!
//! let mut cfg = GoodputConfig::default();
//! cfg.ptype = btsim::baseband::PacketType::Dh1; // 1-slot frames batch
//! cfg.window_slots = 2_000;
//! cfg.sim.fidelity = Fidelity::Stat; // or `--fidelity stat` on any binary
//! let out = GoodputScenario::new(cfg).run(9);
//! assert!(out.kbps > 0.0);
//! ```
//!
//! Failures are scripted, not sampled (see `docs/FAULTS.md`): a
//! `FaultPlan` — crashes, radio mutes, BER-ramped degrades, clock
//! drift, band noise — rides the event calendar, so faulted runs stay
//! bit-identical across engines, fidelity tiers, shard counts and
//! snapshot splits (`--faults SPEC` on any binary). Baseband link
//! supervision detects the death; the `core::net::Recovery` supervisor
//! re-pages lost members with bounded backoff and re-forms scatternets
//! around dead bridges:
//!
//! ```
//! use btsim::core::net::{build_scatternet, Recovery, RecoveryConfig, Router, Topology};
//! use btsim::core::scenario::paper_config;
//! use btsim::core::FaultPlan;
//! use btsim::kernel::{SimDuration, SimTime};
//!
//! let topo = Topology::chain(2, 1);
//! let mut cfg = paper_config();
//! cfg.lc.supervision_timeout_slots = 800; // detect fast (spec default: 20 s)
//! cfg.faults = FaultPlan::parse("crash@12000:dev=2;revive@14000:dev=2").unwrap();
//!
//! let (mut sim, mut map) = build_scatternet(&topo, 7, cfg).unwrap();
//! let mut router = Router::new(&topo, &map);
//! let mut recovery = Recovery::new(RecoveryConfig::default());
//!
//! let end = SimTime::ZERO + SimDuration::from_slots(20_000);
//! while sim.now() < end {
//!     sim.run_until(sim.now() + SimDuration::from_slots(64));
//!     router.pump(&mut sim);
//!     recovery.pump(&mut sim, &mut map, &mut router);
//! }
//! assert_eq!(recovery.losses.len(), 1); // supervision saw the crash...
//! assert!(recovery.recovered >= 1);     // ...and the re-page brought it back
//! ```
//!
//! Any run can be watched without perturbing it (see
//! `docs/OBSERVABILITY.md`): packet capture records every air packet
//! and LMP PDU for btsnoop export, the merged event stream delivers
//! both layers' logs in one instant-ordered feed, and the metrics hub
//! aggregates named counters and gauges from every subsystem — all
//! read-only taps that cost nothing until switched on, and leave every
//! output bit-identical when off:
//!
//! ```
//! use btsim::core::scenario::{connect_pair, paper_config};
//! use btsim::core::{ObsCursor, SimBuilder};
//! use btsim::kernel::{SimDuration, SimTime};
//! use btsim::trace::btsnoop;
//!
//! let mut cfg = paper_config();
//! cfg.capture = true;            // tap every air packet and LMP PDU
//! cfg.metrics_every = Some(500); // stream a snapshot every 500 slots
//! let mut b = SimBuilder::new(7, cfg);
//! let m = b.add_device("master");
//! let s = b.add_device("slave1");
//! let mut sim = b.build();
//! connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000)).unwrap();
//! sim.run_until(sim.now() + SimDuration::from_slots(1_000));
//!
//! // The capture roundtrips through the in-repo btsnoop reader (the
//! // same bytes `--capture PATH` writes, byte-identical across engines).
//! let file = btsnoop::parse(&btsnoop::serialize_sink(sim.capture())).unwrap();
//! assert!(!file.records.is_empty());
//!
//! // The merged event stream, and metrics as snapshot + JSON lines.
//! let mut cursor = ObsCursor::default();
//! assert!(!sim.events_merged_since(&mut cursor).is_empty());
//! let snap = sim.metrics_snapshot();
//! assert!(snap.counter("medium.transmissions").unwrap() > 0);
//! assert!(!sim.metrics_lines().is_empty());
//! ```

#![forbid(unsafe_code)]

pub use btsim_baseband as baseband;
pub use btsim_channel as channel;
pub use btsim_coding as coding;
pub use btsim_core as core;
pub use btsim_kernel as kernel;
pub use btsim_lmp as lmp;
pub use btsim_power as power;
pub use btsim_stats as stats;
pub use btsim_trace as trace;
