//! Heap allocations per transmission on the steady-state packet path.
//!
//! A counting global allocator sees every allocation the process makes,
//! so this file holds exactly one test: no other test's work can land in
//! the count. The workload is a formed 3×3 dense floor (two saturated
//! piconets per point, `auto` fidelity, one shard) under each engine;
//! after a 200-slot warm-up the next 1,000 slots may allocate at most
//! [`BUDGET`] times per transmission on the air.
//!
//! What still allocates per packet: the copy of an ACL or SCO packet's
//! user bytes that the transmission carries, the fragment popped from
//! the transmit queue, the user bytes a reception decodes (which the
//! event log keeps), and the occasional collision mask. A header-only
//! packet (POLL, NULL, ID) allocates nothing: no air image is built for
//! a reception that takes the sender's packet, and a disturbed one is
//! rebuilt into its codec's reused buffer. The link controller's
//! actions and the listener lists reuse buffers too.
//!
//! Release builds read 1.5 per transmission. Debug builds read 2.0:
//! they also decode every shortcut reception from its rebuilt bits to
//! check it, and that decode allocates its own copy of the user bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use btsim::core::net::{DenseFloorConfig, DenseFloorScenario};
use btsim::core::scenario::Scenario;
use btsim::core::{Engine, Fidelity};
use btsim::kernel::SimDuration;

/// Counts allocations and reallocations, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations allowed per transmission: the release figure
/// (1.5) with the same 2.5× margin the bound of 5.0 gave the earlier
/// figure of 2.0.
const BUDGET: f64 = 3.75;

/// Allocations and transmissions over 1,000 steady-state slots of a
/// formed, saturated 3×3 floor under `engine`.
fn steady_state(engine: Engine) -> (u64, u64) {
    let mut cfg = DenseFloorConfig {
        grid: (3, 3),
        piconets_per_point: 2,
        ..DenseFloorConfig::default()
    };
    cfg.sim.engine = engine;
    cfg.sim.fidelity = Fidelity::Auto;
    cfg.sim.shards = 1;
    let scenario = DenseFloorScenario::new(cfg);
    let mut sim = scenario.build(19);
    scenario.prepare(&mut sim).expect("the floor forms");
    sim.run_until(sim.now() + SimDuration::from_slots(200));

    let tx0 = sim.tx_stats();
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(sim.now() + SimDuration::from_slots(1_000));
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    let transmissions = sim.tx_stats().since(tx0).transmissions;
    (allocs, transmissions)
}

#[test]
fn steady_dense_floor_allocates_within_budget_per_transmission() {
    let rates: Vec<(Engine, f64)> = [Engine::Lockstep, Engine::EventDriven]
        .into_iter()
        .map(|engine| {
            let (allocs, transmissions) = steady_state(engine);
            assert!(transmissions > 5_000, "{engine:?}: floor not saturated");
            let per_tx = allocs as f64 / transmissions as f64;
            println!(
                "{engine:?}: {allocs} allocations / {transmissions} transmissions = {per_tx:.2}"
            );
            (engine, per_tx)
        })
        .collect();
    for (engine, per_tx) in rates {
        assert!(
            per_tx <= BUDGET,
            "{engine:?}: {per_tx:.2} allocations per transmission (budget {BUDGET})"
        );
    }
}
