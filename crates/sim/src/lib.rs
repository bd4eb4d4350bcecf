//! Trace-driven simulation engine and experiment harnesses.
//!
//! This crate drives traces through translation layers
//! ([`smrseek_stl`]) and the seek model ([`smrseek_disk`]), producing
//! [`RunReport`]s; computes the paper's **seek amplification factor**
//! ([`Saf`]); and regenerates every table and figure of the evaluation via
//! [`experiments`].
//!
//! # Example
//!
//! ```
//! use smrseek_sim::{SimConfig, Simulation};
//! use smrseek_workloads::profiles;
//!
//! let trace = profiles::by_name("mds_0").unwrap().generate_scaled(1, 4000);
//! let nols = Simulation::new(&SimConfig::no_ls()).run_trace(&trace);
//! let ls = Simulation::new(&SimConfig::log_structured()).run_trace(&trace);
//! // mds_0 is write-intensive: log-structuring removes most seeks.
//! assert!(ls.seeks.total() < nols.seeks.total());
//! ```

#![warn(missing_docs)]
pub mod engine;
pub mod experiments;
pub mod plotdata;
pub mod report;
pub mod runner;
pub mod saf;
mod split;
pub mod tracecache;

pub use engine::{ConfigError, LayerChoice, RunReport, SimConfig, Simulation};
pub use report::TextTable;
pub use runner::{RunMatrix, RunMetrics, RunOutcome, ShardPolicy, TraceSource};
pub use saf::Saf;
