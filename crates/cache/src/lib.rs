//! Caching substrates for the seek-reduction mechanisms.
//!
//! Two of the paper's three mechanisms are caches over *physical* address
//! ranges:
//!
//! * **translation-aware selective caching** (§IV-C) keeps the fragments of
//!   fragmented reads in a small (64 MB in the paper) LRU-evicted cache;
//! * **translation-aware look-ahead-behind prefetching** (§IV-B) fills a
//!   drive-sized buffer with the sectors physically before and after each
//!   fragment it reads.
//!
//! Both are built on [`RangeCache`], an LRU-evicted set of sector ranges in
//! PBA space with a byte budget. [`TieredCache`] stacks a simulated flash
//! tier behind the RAM tier (demotion on RAM eviction, promotion on flash
//! hit) for the adaptive policy subsystem.
//!
//! # Example
//!
//! ```
//! use smrseek_cache::RangeCache;
//! use smrseek_trace::{Pba, MIB};
//!
//! let mut cache = RangeCache::with_capacity_bytes(64 * MIB);
//! cache.insert(Pba::new(1000), 16);
//! assert!(cache.covers(Pba::new(1004), 8));
//! assert!(!cache.covers(Pba::new(1004), 16));
//! ```

#![warn(missing_docs)]
pub mod range;
pub mod tier;

pub use range::RangeCache;
pub use tier::{TierLookup, TierStats, TieredCache};
