//! The LBA→PBA **extent map**: the interval-map substrate beneath a
//! log-structured translation layer.
//!
//! A log-structured system writes arbitrary LBAs to an advancing physical
//! write frontier, so the logical address space ends up represented by many
//! non-contiguous physical extents (§IV-A of *Minimizing Read Seeks for SMR
//! Disk*). This crate provides:
//!
//! * [`ExtentMap`] — a coalescing interval map from logical sector ranges
//!   to physical sector ranges, with split-on-overwrite semantics,
//! * [`Extent`] and [`Segment`] — the mapping records returned by lookups,
//! * [`SortedIndex`] — the two-level sorted array beneath the map, shared
//!   with `smrseek-cache`'s range caches,
//! * fragmentation measurement: [`ExtentMap::static_fragmentation`] (the
//!   paper's *static fragmentation*: seeks needed to sequentially read the
//!   entire LBA space) and [`ExtentMap::fragments_in`] (*dynamic
//!   fragmentation*: non-contiguous physical pieces of one read).
//!
//! # Example
//!
//! ```
//! use smrseek_extent::ExtentMap;
//! use smrseek_trace::{Lba, Pba};
//!
//! let mut map = ExtentMap::new();
//! map.insert(Lba::new(0), 6, Pba::new(1000));   // LBA 0..6 -> PBA 1000..1006
//! map.insert(Lba::new(2), 1, Pba::new(2000));   // overwrite LBA 2
//! // The range is now three physical pieces: [1000..1002), [2000..2001), [1003..1006)
//! assert_eq!(map.fragments_in(Lba::new(0), 6), 3);
//! ```

#![warn(missing_docs)]
pub mod index;
pub mod map;
pub mod segment;

pub use index::{Pos, SortedIndex, CHUNK_CAP};
pub use map::ExtentMap;
pub use segment::{Extent, Segment};
