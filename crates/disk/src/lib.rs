//! Disk seek model for the `smrseek` workspace.
//!
//! Implements the paper's disk model (Section II of *Minimizing Read Seeks
//! for SMR Disk*): *"We consider a seek to occur if an I/O operation starts
//! at a sector other than that immediately following the previous I/O
//! operation, and term it a read or write seek according to whether the
//! second of the two operations is a read or write."*
//!
//! Like the paper, the model counts seeks: it does not time them, and it
//! sees I/Os in the order they are issued (no device queue re-orders
//! them).
//!
//! Modules:
//!
//! * [`physio`] — the physical I/O operation fed to the seek model.
//! * [`position`] — the head-position tracker that detects seeks.
//! * [`seek`] — seek events, signed distances, the >500 KB "long seek"
//!   threshold used by Fig 3.
//! * [`counter`] — accumulating read/write seek statistics ([`SeekCounter`],
//!   [`SeekStats`]).
//! * [`histogram`] — distance CDFs (Fig 4).
//! * [`series`] — per-operation-bucket long-seek time series (Fig 3).
//!
//! # Example
//!
//! ```
//! use smrseek_disk::{PhysIo, SeekCounter};
//! use smrseek_trace::{OpKind, Pba};
//!
//! let mut counter = SeekCounter::new();
//! counter.observe(&PhysIo::new(OpKind::Write, Pba::new(0), 8));
//! counter.observe(&PhysIo::new(OpKind::Write, Pba::new(8), 8));   // contiguous
//! counter.observe(&PhysIo::new(OpKind::Read, Pba::new(100), 8));  // read seek
//! counter.observe(&PhysIo::new(OpKind::Write, Pba::new(8), 8));   // write seek
//! assert_eq!(counter.stats().write_seeks, 1);
//! assert_eq!(counter.stats().read_seeks, 1);
//! ```

#![warn(missing_docs)]
pub mod counter;
pub mod histogram;
pub mod physio;
pub mod position;
pub mod seek;
pub mod series;

pub use counter::{SeekCounter, SeekStats};
pub use histogram::Cdf;
pub use physio::PhysIo;
pub use position::HeadTracker;
pub use seek::{Seek, LONG_SEEK_SECTORS};
pub use series::LongSeekSeries;
