//! # btsim-kernel
//!
//! A small discrete-event simulation kernel with SystemC-like semantics,
//! the substrate on which the `btsim` Bluetooth model runs (the DATE'05
//! paper used the SystemC kernel; this crate replaces it):
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond time base with Bluetooth
//!   slot constants;
//! * [`Calendar`] — deterministic time-ordered event queue (FIFO within
//!   an instant, like a delta-cycle evaluation queue);
//! * [`Wire`] — four-valued logic (`0/1/Z/X`) with the paper's channel
//!   resolver semantics;
//! * [`TraceRecorder`] — named signal waveforms (`enable_rx_RF`, …) for
//!   VCD/ASCII rendering;
//! * [`CaptureSink`] — packet-capture records (air traffic + LMP PDUs)
//!   for btsnoop export (`btsim-trace::btsnoop`, `docs/OBSERVABILITY.md`);
//! * [`SimRng`] — seedable, forkable random streams for reproducible
//!   Monte-Carlo campaigns;
//! * [`Snap`] — the validated, versioned binary codec every stateful
//!   layer implements for checkpoint/restore (`docs/SNAPSHOT.md`).
//!
//! # Examples
//!
//! A two-event simulation loop:
//!
//! ```
//! use btsim_kernel::{Calendar, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut cal = Calendar::new();
//! cal.schedule(SimTime::from_us(625), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some((t, ev)) = cal.pop() {
//!     log.push((t.us(), format!("{ev:?}")));
//!     if ev == Ev::Ping && t.us() < 2000 {
//!         cal.schedule(t + SimDuration::SLOT, Ev::Pong);
//!     }
//! }
//! assert_eq!(log.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod capture;
mod rng;
mod signal;
pub mod snap;
mod time;
mod wire;

pub use calendar::Calendar;
pub use capture::{CaptureDir, CaptureKind, CaptureRecord, CaptureSink, MAX_AIR_PAYLOAD};
pub use rng::{FlipRate, SimRng};
pub use signal::{SignalInfo, SignalRef, TraceRecord, TraceRecorder, TraceValue};
pub use snap::{Snap, SnapReader, SnapWriter, SnapshotError};
pub use time::{SimDuration, SimTime};
pub use wire::Wire;
