//! # smrseek
//!
//! A trace-driven simulator of log-structured translation layers for
//! Shingled Magnetic Recording (SMR) disks, reproducing
//! *"Minimizing Read Seeks for SMR Disk"* (Hajkazemi, Abdi, Desnoyers —
//! IISWC 2018).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`trace`] — block-trace model, parsers, writers, characterization.
//! * [`extent`] — the LBA→PBA interval map substrate.
//! * [`disk`] — seek detection, classification, distances and long-seek
//!   series.
//! * [`cache`] — the fragment cache, prefetch buffer and flash-tier
//!   substrates.
//! * [`stl`] — the translation layers (identity and log-structured) and the
//!   paper's three seek-reduction mechanisms.
//! * [`workloads`] — deterministic synthetic workload generators with named
//!   profiles for every Table-I trace.
//! * [`sim`] — the simulation engine, seek-amplification metrics, reporting
//!   and per-figure experiment harnesses.
//!
//! # Quickstart
//!
//! ```
//! use smrseek::sim::{SimConfig, Simulation};
//! use smrseek::workloads::profiles;
//!
//! let trace = profiles::by_name("w91").expect("known profile").generate(42);
//! let report = Simulation::new(&SimConfig::log_structured()).run_trace(&trace);
//! let baseline = Simulation::new(&SimConfig::no_ls()).run_trace(&trace);
//! let saf = report.seeks.total() as f64 / baseline.seeks.total().max(1) as f64;
//! assert!(saf > 1.0, "w91 is the paper's most log-sensitive workload");
//! ```

#![warn(missing_docs)]
pub use smrseek_cache as cache;
pub use smrseek_disk as disk;
pub use smrseek_extent as extent;
pub use smrseek_sim as sim;
pub use smrseek_stl as stl;
pub use smrseek_trace as trace;
pub use smrseek_workloads as workloads;

/// The README's Rust examples, compiled and run as doctests so they
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
