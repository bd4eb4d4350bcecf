//! Instrumentation counters of the log-structured layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Counters accumulated by a [`crate::LogStructured`] layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LsStats {
    /// Logical read operations applied.
    pub logical_reads: u64,
    /// Logical write operations applied.
    pub logical_writes: u64,
    /// Logical reads that required more than one physical fragment.
    pub fragmented_reads: u64,
    /// Total physical read operations issued to the medium.
    pub phys_reads: u64,
    /// Total physical write operations issued to the medium.
    pub phys_writes: u64,
    /// Opportunistic-defragmentation rewrites performed.
    pub defrag_rewrites: u64,
    /// Sectors rewritten by defragmentation (its space/bandwidth cost).
    pub defrag_sectors: u64,
    /// Fragments served from the selective cache.
    pub cache_hit_fragments: u64,
    /// Fragments that missed the selective cache and were read from disk.
    pub cache_miss_fragments: u64,
    /// Fragments served from the prefetch buffer.
    pub prefetch_hit_fragments: u64,
    /// Sectors speculatively fetched by look-ahead/look-behind.
    pub prefetched_sectors: u64,
}

impl LsStats {
    /// Fraction of logical reads that were fragmented, in `[0, 1]`.
    pub fn fragmented_read_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.fragmented_reads as f64 / self.logical_reads as f64
        }
    }

    /// Folds another run's counters into this one. Every field is a pure
    /// event count, so stats of separate runs merge by fieldwise
    /// addition.
    pub fn merge(&mut self, other: &LsStats) {
        self.logical_reads += other.logical_reads;
        self.logical_writes += other.logical_writes;
        self.fragmented_reads += other.fragmented_reads;
        self.phys_reads += other.phys_reads;
        self.phys_writes += other.phys_writes;
        self.defrag_rewrites += other.defrag_rewrites;
        self.defrag_sectors += other.defrag_sectors;
        self.cache_hit_fragments += other.cache_hit_fragments;
        self.cache_miss_fragments += other.cache_miss_fragments;
        self.prefetch_hit_fragments += other.prefetch_hit_fragments;
        self.prefetched_sectors += other.prefetched_sectors;
    }

    /// Selective-cache hit rate over fragment lookups, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hit_fragments + self.cache_miss_fragments;
        if total == 0 {
            0.0
        } else {
            self.cache_hit_fragments as f64 / total as f64
        }
    }
}

impl fmt::Display for LsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads ({} fragmented) / {} writes; {} defrag rewrites; cache {}/{} hits; {} prefetch hits",
            self.logical_reads,
            self.fragmented_reads,
            self.logical_writes,
            self.defrag_rewrites,
            self.cache_hit_fragments,
            self.cache_hit_fragments + self.cache_miss_fragments,
            self.prefetch_hit_fragments,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero() {
        let s = LsStats::default();
        assert_eq!(s.fragmented_read_rate(), 0.0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = LsStats {
            logical_reads: 1,
            logical_writes: 2,
            fragmented_reads: 3,
            phys_reads: 4,
            phys_writes: 5,
            defrag_rewrites: 6,
            defrag_sectors: 7,
            cache_hit_fragments: 8,
            cache_miss_fragments: 9,
            prefetch_hit_fragments: 10,
            prefetched_sectors: 11,
        };
        let b = LsStats {
            logical_reads: 100,
            ..a
        };
        a.merge(&b);
        assert_eq!(a.logical_reads, 101);
        assert_eq!(a.logical_writes, 4);
        assert_eq!(a.prefetched_sectors, 22);
        assert_eq!(a.cache_miss_fragments, 18);
    }

    #[test]
    fn rates_compute() {
        let s = LsStats {
            logical_reads: 10,
            fragmented_reads: 4,
            cache_hit_fragments: 3,
            cache_miss_fragments: 1,
            ..LsStats::default()
        };
        assert!((s.fragmented_read_rate() - 0.4).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.to_string().contains("4 fragmented"));
    }
}
