//! Block I/O trace model and tooling for the `smrseek` workspace.
//!
//! This crate is the foundation of the seek-amplification study from
//! *"Minimizing Read Seeks for SMR Disk"* (IISWC 2018): every other crate
//! consumes the [`TraceRecord`] stream defined here.
//!
//! It provides:
//!
//! * strongly-typed addressing ([`Lba`], [`Pba`], [`SECTOR_SIZE`]) in
//!   512-byte sectors,
//! * the trace record model ([`TraceRecord`], [`OpKind`]),
//! * parsers for the on-disk formats the paper's workloads come in
//!   ([`parse::msr`] for the SNIA MSR Cambridge CSV format and
//!   [`parse::cloudphysics`] for a CloudPhysics-style CSV), plus a compact
//!   [`binary`] format that skips text parsing — read whole via
//!   [`binary::read_binary`] or streamed via [`binary::BinaryRecordIter`],
//!   and sniffed and loaded like any other format by
//!   [`parse::sniff_path`]/[`parse::parse_path`],
//! * [`stream::max_lba`], the highest LBA a trace touches (where the log
//!   model starts its write frontier),
//! * and workload characterization ([`stats`]) reproducing the columns of
//!   Table I in the paper.
//!
//! # Example
//!
//! ```
//! use smrseek_trace::{Lba, OpKind, TraceRecord};
//!
//! let rec = TraceRecord::new(42, OpKind::Read, Lba::new(1024), 8);
//! assert_eq!(rec.end(), Lba::new(1032));
//! assert_eq!(rec.len_bytes(), 4096);
//! ```

#![warn(missing_docs)]
pub mod analysis;
pub mod binary;
pub mod digest;
pub mod error;
pub mod parse;
pub mod record;
pub mod stats;
pub mod stream;
pub mod types;
pub mod writer;

pub use analysis::{summarize, AnalysisSummary};
pub use digest::{TraceDigest, TraceDigester};
pub use error::{Error, Result};
pub use record::{OpKind, TraceRecord};
pub use stats::{characterize, TraceStats};
pub use types::{
    bytes_to_sectors_ceil, sectors_to_bytes, Lba, Pba, GIB, KIB, MAX_END_SECTOR, MIB, SECTOR_SIZE,
};
