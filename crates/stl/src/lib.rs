//! Shingle translation layers (STLs) — the primary contribution of
//! *"Minimizing Read Seeks for SMR Disk"* (IISWC 2018).
//!
//! A translation layer turns each logical block operation into the physical
//! operations actually performed by the medium. The paper's disk model
//! (Section II) has two:
//!
//! * NoLS — conventional update-in-place translation (PBA = LBA); the
//!   baseline whose seek counts define a seek amplification factor of 1.
//!   It keeps no state, so it has no type here: the replay engine emits
//!   each record's one identity operation itself.
//! * [`LogStructured`] — full-extent-map log-structured translation on an
//!   infinite disk: every write goes to an advancing write frontier; reads
//!   of never-written data fall through to their identity location. A
//!   record is translated by [`apply_into`](LogStructured::apply_into), or
//!   by [`apply_lanes_into`](LogStructured::apply_lanes_into) for several
//!   configurations over one translation; both hand each physical
//!   operation to a sink, so a record allocates nothing.
//!
//! Three seek-reduction mechanisms (Section IV) compose onto the
//! log-structured layer via [`LsConfig`]:
//!
//! * **opportunistic defragmentation** ([`DefragConfig`], Alg. 1) —
//!   rewrite just-read fragmented ranges contiguously at the frontier;
//! * **translation-aware look-ahead-behind prefetching**
//!   ([`PrefetchConfig`], Alg. 2) — read physically around each fragment
//!   into a drive buffer to absorb mis-ordered-write patterns;
//! * **translation-aware selective caching** ([`CacheConfig`], Alg. 3) —
//!   LRU-cache only the fragments of fragmented reads (64 MB in the
//!   paper's evaluation).
//!
//! Supporting analyses: [`fragstats`] (dynamic-fragmentation CDFs, Fig 5;
//! fragment popularity and cumulative cache size, Fig 10) and [`misorder`]
//! (mis-ordered writes within a 256 KB window, Fig 8).
//!
//! # Example
//!
//! ```
//! use smrseek_stl::{LogStructured, LsConfig};
//! use smrseek_trace::{Lba, TraceRecord};
//!
//! let trace = [
//!     TraceRecord::write(0, Lba::new(0), 8),     // file written...
//!     TraceRecord::write(1, Lba::new(2), 2),     // ...then partially updated
//!     TraceRecord::read(2, Lba::new(0), 8),      // ...then read back
//! ];
//! let mut ls = LogStructured::new(LsConfig::new(Lba::new(1 << 20)));
//! let mut phys = Vec::new();
//! for rec in &trace {
//!     ls.apply_into(rec, &mut |io| phys.push(io));
//! }
//! // The read is split into three physical pieces by the update.
//! assert_eq!(phys.len(), 2 + 3);
//! ```

#![warn(missing_docs)]
pub mod config;
pub mod fragstats;
pub mod log;
pub mod misorder;
pub mod stats;

pub use config::{CacheConfig, DefragConfig, DefragTiming, LsConfig, PrefetchConfig};
pub use fragstats::FragmentAccessTracker;
pub use log::{LogStructured, ReadLane};
pub use misorder::{count_misordered_writes, MISORDER_WINDOW_BYTES};
pub use stats::LsStats;
