//! # btsim-stats
//!
//! Statistics for Monte-Carlo simulation campaigns: streaming summaries
//! ([`Summary`]), histograms ([`Histogram`]), a deterministic parallel
//! campaign runner ([`run_campaign`], over the job-claiming
//! [`for_each_claimed`]), the [`Record`] trait describing
//! structured per-run outcomes, and table/CSV/JSON formatting
//! ([`Table`], [`JsonValue`]) used by the experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod json;
mod record;
mod runner;
mod summary;
mod table;

pub use histogram::Histogram;
pub use json::{JsonParseError, JsonValue};
pub use record::{format_metric, Record};
pub use runner::{for_each_claimed, run_campaign};
pub use summary::Summary;
pub use table::Table;
