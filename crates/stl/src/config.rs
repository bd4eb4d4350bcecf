//! Configuration of the log-structured layer and its mechanisms.

use serde::{Deserialize, Serialize};
use smrseek_trace::{stream, Lba, Pba, TraceRecord, KIB, MIB};

/// When opportunistic defragmentation performs its rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefragTiming {
    /// Rewrite immediately after the fragmented read (Alg. 1 as printed).
    Immediate,
    /// Queue candidates and rewrite them as one batch when the workload
    /// goes idle for at least `min_gap_us` microseconds — §IV-A's
    /// "restricting the times when defragmentation is performed" taken
    /// further: a batch pays the seek to the frontier once instead of
    /// once per range.
    Idle {
        /// Minimum inter-arrival gap treated as idle.
        min_gap_us: u64,
    },
}

/// Configuration of **opportunistic defragmentation** (§IV-A, Alg. 1).
///
/// After serving a fragmented read the layer may rewrite the just-read
/// range contiguously at the write frontier. The paper notes the overheads
/// "can be reduced by restricting the times when defragmentation is
/// performed, specifically by defragmenting only regions with N or more
/// fragments, or waiting until a fragmented range has been accessed k or
/// more times" — these are `min_fragments` and `min_accesses`;
/// [`DefragTiming::Idle`] additionally defers the rewrites themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefragConfig {
    /// Rewrite only reads split into at least this many fragments
    /// (`N`; 2 = any fragmented read, matching Alg. 1).
    pub min_fragments: usize,
    /// Rewrite only ranges whose fragmented reads have been seen at least
    /// this many times (`k`; 1 = defragment on first fragmented read).
    pub min_accesses: u64,
    /// When the rewrites happen.
    pub timing: DefragTiming,
}

impl Default for DefragConfig {
    fn default() -> Self {
        DefragConfig {
            min_fragments: 2,
            min_accesses: 1,
            timing: DefragTiming::Immediate,
        }
    }
}

impl DefragConfig {
    /// Alg. 1 defaults with idle-batched rewrites.
    pub fn idle(min_gap_us: u64) -> Self {
        DefragConfig {
            timing: DefragTiming::Idle { min_gap_us },
            ..DefragConfig::default()
        }
    }
}

/// Configuration of **translation-aware look-ahead-behind prefetching**
/// (§IV-B, Alg. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Sectors fetched physically *before* each fragment (look-behind).
    pub behind_sectors: u64,
    /// Sectors fetched physically *after* each fragment (look-ahead).
    pub ahead_sectors: u64,
    /// Capacity of the drive prefetch buffer, in bytes.
    pub buffer_bytes: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        // 256 KB each way matches the window the paper uses to define
        // mis-ordered writes (Fig 8). The buffer is deliberately small —
        // look-ahead-behind data lives in the drive's transient track
        // buffer, not a managed cache; a large value here would turn
        // prefetching into a second selective cache and mask the
        // distinction the paper draws between the two mechanisms.
        PrefetchConfig {
            behind_sectors: 256 * KIB / 512,
            ahead_sectors: 256 * KIB / 512,
            buffer_bytes: 4 * MIB,
        }
    }
}

/// Configuration of **translation-aware selective caching** (§IV-C,
/// Alg. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity of the fragment cache, in bytes. The paper's evaluation
    /// fixes this at 64 MB.
    pub capacity_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 * MIB,
        }
    }
}

/// Full configuration of a [`crate::LogStructured`] layer.
///
/// # Example
///
/// ```
/// use smrseek_stl::{CacheConfig, LsConfig};
/// use smrseek_trace::{Lba, TraceRecord};
///
/// let trace = [TraceRecord::write(0, Lba::new(10_000), 8)];
/// let config = LsConfig::for_trace(&trace).with_cache(CacheConfig::default());
/// assert!(config.frontier_start.sector() > 10_000);
/// assert!(config.cache.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsConfig {
    /// First sector of the log: the write frontier's initial position.
    /// Must lie above every LBA in the trace so identity-placed pre-trace
    /// data is never overwritten (§III).
    pub frontier_start: Pba,
    /// Opportunistic defragmentation, if enabled.
    pub defrag: Option<DefragConfig>,
    /// Look-ahead-behind prefetching, if enabled.
    pub prefetch: Option<PrefetchConfig>,
    /// Selective caching, if enabled.
    pub cache: Option<CacheConfig>,
    /// Capacity of a simulated flash tier behind the selective cache, in
    /// bytes. RAM evictions demote their victims here instead of dropping
    /// them; flash hits promote back (see `smrseek_cache::TieredCache`).
    /// Meaningless without `cache`.
    pub flash_cache_bytes: Option<u64>,
    /// Record per-read fragment counts and per-fragment access statistics
    /// (needed by the Fig 5 / Fig 10 experiments; off by default to keep
    /// memory flat on huge traces).
    pub track_fragments: bool,
}

impl LsConfig {
    /// Plain log-structured translation with the frontier at
    /// `frontier_start` (sector number taken from an [`Lba`] bound since
    /// it is derived from the trace's logical space).
    pub fn new(frontier_start: Lba) -> Self {
        LsConfig {
            frontier_start: Pba::new(frontier_start.sector()),
            defrag: None,
            prefetch: None,
            cache: None,
            flash_cache_bytes: None,
            track_fragments: false,
        }
    }

    /// Derives a configuration from a trace: the frontier starts at the
    /// first 1 MiB boundary above the highest LBA in the trace.
    pub fn for_trace(records: &[TraceRecord]) -> Self {
        Self::above_sector(stream::max_lba(records).map_or(0, |l| l.sector() + 1))
    }

    /// Derives a configuration from a known logical-space bound: the
    /// frontier starts at the first 1 MiB boundary at or above `top`
    /// sectors (`top` = one past the highest sector the workload touches).
    ///
    /// This is the streaming-friendly alternative to [`LsConfig::for_trace`]:
    /// when the trace arrives as an iterator the bound comes from a header,
    /// a prior characterization pass, or the generator — not from scanning
    /// a materialized slice.
    pub fn above_sector(top: u64) -> Self {
        let align = MIB / 512;
        let frontier = top.div_ceil(align) * align;
        Self::new(Lba::new(frontier))
    }

    /// Enables opportunistic defragmentation.
    pub fn with_defrag(mut self, defrag: DefragConfig) -> Self {
        self.defrag = Some(defrag);
        self
    }

    /// Enables look-ahead-behind prefetching.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = Some(prefetch);
        self
    }

    /// Enables selective caching.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Backs the selective cache with a simulated flash tier of `bytes`
    /// bytes (no effect unless [`with_cache`](Self::with_cache) is also
    /// set).
    pub fn with_flash_cache(mut self, bytes: u64) -> Self {
        self.flash_cache_bytes = Some(bytes);
        self
    }

    /// Enables fragment statistics tracking.
    pub fn with_fragment_tracking(mut self) -> Self {
        self.track_fragments = true;
        self
    }

    /// Whether `self` and `other` build the same extent map from the same
    /// records: equal frontier, defragmentation and fragment tracking. They may differ only in the read-side mechanisms
    /// (prefetch, selective cache, flash tier), which decide which reads
    /// reach the disk but never write the map — so one
    /// [`LogStructured`](crate::LogStructured) can serve both as read
    /// lanes.
    pub fn shares_translation(&self, other: &LsConfig) -> bool {
        self.frontier_start == other.frontier_start
            && self.defrag == other.defrag
            && self.track_fragments == other.track_fragments
    }
}

impl Default for LsConfig {
    fn default() -> Self {
        // A 1 TiB logical space below the log by default.
        LsConfig::new(Lba::new(2 * 1024 * 1024 * 1024))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let d = DefragConfig::default();
        assert_eq!(d.min_fragments, 2);
        assert_eq!(d.min_accesses, 1);
        let p = PrefetchConfig::default();
        assert_eq!(p.behind_sectors, 512);
        assert_eq!(p.ahead_sectors, 512);
        let c = CacheConfig::default();
        assert_eq!(c.capacity_bytes, 64 * MIB);
    }

    #[test]
    fn for_trace_aligns_above_max_lba() {
        let trace = [
            TraceRecord::write(0, Lba::new(5000), 8),
            TraceRecord::read(1, Lba::new(10_000), 16),
        ];
        let cfg = LsConfig::for_trace(&trace);
        assert!(cfg.frontier_start.sector() >= 10_016);
        assert_eq!(cfg.frontier_start.sector() % 2048, 0);
    }

    #[test]
    fn for_trace_empty() {
        let cfg = LsConfig::for_trace(&[]);
        assert_eq!(cfg.frontier_start, Pba::new(0));
    }

    #[test]
    fn above_sector_matches_for_trace() {
        let trace = [
            TraceRecord::write(0, Lba::new(5000), 8),
            TraceRecord::read(1, Lba::new(10_000), 16),
        ];
        let top = stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        assert_eq!(
            LsConfig::above_sector(top).frontier_start,
            LsConfig::for_trace(&trace).frontier_start
        );
        assert_eq!(LsConfig::above_sector(0).frontier_start, Pba::new(0));
        assert_eq!(LsConfig::above_sector(1).frontier_start, Pba::new(2048));
        assert_eq!(LsConfig::above_sector(2048).frontier_start, Pba::new(2048));
    }

    #[test]
    fn builder_chains() {
        let cfg = LsConfig::default()
            .with_defrag(DefragConfig::default())
            .with_prefetch(PrefetchConfig::default())
            .with_cache(CacheConfig::default())
            .with_fragment_tracking();
        assert!(cfg.defrag.is_some());
        assert!(cfg.prefetch.is_some());
        assert!(cfg.cache.is_some());
        assert!(cfg.track_fragments);
    }
}
