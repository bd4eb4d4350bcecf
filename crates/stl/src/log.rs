//! The log-structured translation layer with composable seek-reduction
//! mechanisms.

use crate::config::{DefragTiming, LsConfig};
use crate::fragstats::FragmentAccessTracker;
use crate::layer::TranslationLayer;
use crate::stats::LsStats;
use serde::{Deserialize, Serialize};
use smrseek_cache::{RangeCache, TierLookup, TierStats, TieredCache};
use smrseek_disk::PhysIo;
use smrseek_extent::{ExtentMap, Segment};
use smrseek_policy::GateSet;
use smrseek_trace::{Lba, OpKind, Pba, TraceRecord};
use std::collections::HashMap;

/// The complete serializable state of a [`LogStructured`] layer.
///
/// Captures every field that influences future behaviour — extent map,
/// frontier, counters, cache/prefetch contents (including LRU order),
/// defragmentation bookkeeping — so that a layer restored via
/// [`LogStructured::from_snapshot`] replays the remainder of a trace
/// exactly as the original would have.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LsSnapshot {
    /// The configuration the layer was built from.
    pub config: LsConfig,
    /// The LBA→PBA extent map.
    pub map: ExtentMap,
    /// Current write-frontier position.
    pub frontier: Pba,
    /// Instrumentation counters.
    pub stats: LsStats,
    /// Fragment statistics, when tracking was enabled.
    pub tracker: Option<FragmentAccessTracker>,
    /// Selective-cache contents (RAM tier plus optional flash tier),
    /// when enabled.
    pub cache: Option<TieredCache>,
    /// Prefetch-buffer contents, when enabled.
    pub prefetch_buffer: Option<RangeCache>,
    /// Defragmentation access gate: `(lba, sectors, count)` triples, sorted
    /// by range for a canonical encoding (the in-memory form is a hash map).
    pub range_accesses: Vec<(u64, u32, u64)>,
    /// Ranges queued for idle-time defragmentation, in queue order.
    pub pending_defrag: Vec<(Lba, u64)>,
    /// Timestamp of the last applied operation.
    pub last_timestamp_us: u64,
}

/// Full-extent-map log-structured translation on an infinite disk
/// (Section II's disk model).
///
/// * Every write is appended at the **write frontier**, which starts above
///   the highest LBA of the workload and only ever advances — cleaning is
///   never needed (infinite disk, §II).
/// * Reads translate through the extent map; never-written (pre-trace)
///   data falls through to its identity location (PBA = LBA, §III).
/// * The three seek-reduction mechanisms of Section IV hook the read path
///   when enabled in [`LsConfig`].
///
/// # Example
///
/// ```
/// use smrseek_stl::{LogStructured, LsConfig, TranslationLayer};
/// use smrseek_trace::{Lba, Pba, TraceRecord};
///
/// let mut ls = LogStructured::new(LsConfig::new(Lba::new(1000)));
/// let w = ls.apply(&TraceRecord::write(0, Lba::new(7), 2));
/// assert_eq!(w[0].pba, Pba::new(1000)); // appended at the frontier
/// let r = ls.apply(&TraceRecord::read(1, Lba::new(7), 2));
/// assert_eq!(r[0].pba, Pba::new(1000)); // translated back
/// ```
#[derive(Debug, Clone)]
pub struct LogStructured {
    config: LsConfig,
    map: ExtentMap,
    frontier: Pba,
    stats: LsStats,
    tracker: Option<FragmentAccessTracker>,
    cache: Option<TieredCache>,
    prefetch_buffer: Option<RangeCache>,
    /// Per-region mechanism gates for the *next* record, set by an
    /// adaptive policy engine via [`set_gates`](Self::set_gates). Purely
    /// transient (the engine re-derives them every record), so they are
    /// neither snapshotted nor compared; the default is fully permissive —
    /// exactly the fixed-mechanism behaviour of a policy-free run.
    gates: GateSet,
    /// Fragmented-read access counts per exact logical range, for the
    /// defragmentation `min_accesses` gate.
    range_accesses: HashMap<(u64, u32), u64>,
    /// Ranges queued for idle-time defragmentation.
    pending_defrag: Vec<(Lba, u64)>,
    /// Timestamp of the last applied operation (idle-gap detection).
    last_timestamp_us: u64,
}

impl LogStructured {
    /// Creates a layer from a configuration.
    pub fn new(config: LsConfig) -> Self {
        LogStructured {
            frontier: config.frontier_start,
            map: ExtentMap::new(),
            stats: LsStats::default(),
            tracker: config.track_fragments.then(FragmentAccessTracker::new),
            cache: config.cache.map(|c| match config.flash_cache_bytes {
                Some(flash) => TieredCache::with_flash_bytes(c.capacity_bytes, flash),
                None => TieredCache::single_bytes(c.capacity_bytes),
            }),
            prefetch_buffer: config
                .prefetch
                .map(|p| RangeCache::with_capacity_bytes(p.buffer_bytes)),
            gates: GateSet::default(),
            range_accesses: HashMap::new(),
            pending_defrag: Vec::new(),
            last_timestamp_us: 0,
            config,
        }
    }

    /// Convenience constructor: plain log-structured translation with the
    /// frontier derived from the trace (see [`LsConfig::for_trace`]).
    pub fn for_trace(records: &[TraceRecord]) -> Self {
        Self::new(LsConfig::for_trace(records))
    }

    /// Current write-frontier position.
    pub fn frontier(&self) -> Pba {
        self.frontier
    }

    /// The extent map (for fragmentation analyses).
    pub fn map(&self) -> &ExtentMap {
        &self.map
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> LsStats {
        self.stats
    }

    /// The configuration this layer was built from.
    pub fn config(&self) -> &LsConfig {
        &self.config
    }

    /// Fragment statistics, when tracking was enabled.
    pub fn fragment_tracker(&self) -> Option<&FragmentAccessTracker> {
        self.tracker.as_ref()
    }

    /// The selective cache (RAM tier plus optional flash), when enabled.
    pub fn cache(&self) -> Option<&TieredCache> {
        self.cache.as_ref()
    }

    /// Tier-level event counters of the selective cache, when it is
    /// configured with a flash tier (a single-tier cache has nothing
    /// tier-level to report).
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.cache
            .as_ref()
            .filter(|c| c.has_flash())
            .map(|c| c.stats())
    }

    /// Sets the per-region mechanism gates the *next* record is served
    /// under. An adaptive policy engine calls this before every
    /// [`apply`](TranslationLayer::apply); without a policy the gates stay
    /// at their permissive default and behaviour is identical to the fixed
    /// mechanisms.
    pub fn set_gates(&mut self, gates: GateSet) {
        self.gates = gates;
    }

    /// The prefetch buffer, when enabled.
    pub fn prefetch_buffer(&self) -> Option<&RangeCache> {
        self.prefetch_buffer.as_ref()
    }

    /// Ranges currently queued for idle-time defragmentation.
    pub fn pending_defrag(&self) -> &[(Lba, u64)] {
        &self.pending_defrag
    }

    /// Captures the layer's complete state for a checkpoint.
    pub fn to_snapshot(&self) -> LsSnapshot {
        let mut range_accesses: Vec<(u64, u32, u64)> = self
            .range_accesses
            .iter()
            .map(|(&(lba, sectors), &count)| (lba, sectors, count))
            .collect();
        range_accesses.sort_unstable();
        LsSnapshot {
            config: self.config,
            map: self.map.clone(),
            frontier: self.frontier,
            stats: self.stats,
            tracker: self.tracker.clone(),
            cache: self.cache.clone(),
            prefetch_buffer: self.prefetch_buffer.clone(),
            range_accesses,
            pending_defrag: self.pending_defrag.clone(),
            last_timestamp_us: self.last_timestamp_us,
        }
    }

    /// Reconstructs a layer from captured state; applying the remaining
    /// records yields exactly what the uninterrupted layer would have.
    pub fn from_snapshot(snap: LsSnapshot) -> Self {
        LogStructured {
            map: snap.map,
            frontier: snap.frontier,
            stats: snap.stats,
            tracker: snap.tracker,
            cache: snap.cache,
            prefetch_buffer: snap.prefetch_buffer,
            gates: GateSet::default(),
            range_accesses: snap
                .range_accesses
                .into_iter()
                .map(|(lba, sectors, count)| ((lba, sectors), count))
                .collect(),
            pending_defrag: snap.pending_defrag,
            last_timestamp_us: snap.last_timestamp_us,
            config: snap.config,
        }
    }

    /// Rewrites every queued range as one batch at the frontier (a single
    /// seek for the whole batch) and returns the physical writes. Called
    /// automatically when an idle gap is detected; callable directly to
    /// model an explicit flush (e.g. at shutdown).
    pub fn flush_defrag_queue(&mut self) -> Vec<PhysIo> {
        let mut out = Vec::new();
        self.flush_defrag_queue_into(&mut |io| out.push(io));
        out
    }

    /// Sink form of [`flush_defrag_queue`](Self::flush_defrag_queue): emits
    /// the same writes in the same order without materializing a `Vec`.
    fn flush_defrag_queue_into(&mut self, sink: &mut dyn FnMut(PhysIo)) {
        let pending = std::mem::take(&mut self.pending_defrag);
        for (lba, sectors) in pending {
            // Skip ranges that became contiguous in the meantime (e.g. a
            // host overwrite re-wrote the whole range).
            if self.physical_runs(lba, sectors).len() < 2 {
                continue;
            }
            self.append_into(lba, sectors, sink);
            self.stats.defrag_rewrites += 1;
            self.stats.defrag_sectors += sectors;
        }
    }

    /// Appends `sectors` at the frontier for logical range starting `lba`,
    /// emitting the physical writes (one, unless zoned backing splits the
    /// append at guard bands).
    fn append_into(&mut self, lba: Lba, sectors: u64, sink: &mut dyn FnMut(PhysIo)) {
        match self.config.zone_sectors {
            None => {
                let at = self.frontier;
                self.map.insert(lba, sectors, at);
                self.frontier += sectors;
                self.stats.phys_writes += 1;
                sink(PhysIo::write(at, sectors));
            }
            Some(z) => self.append_zoned_into(lba, sectors, z, sink),
        }
    }

    /// Zoned append: the last sector of each zone is a guard band; the
    /// frontier skips it and the write splits into per-zone pieces. Pieces
    /// are physically non-adjacent (the guard separates them), so later
    /// reads see the discontinuity.
    fn append_zoned_into(&mut self, lba: Lba, sectors: u64, z: u64, sink: &mut dyn FnMut(PhysIo)) {
        let mut cur_lba = lba;
        let mut left = sectors;
        while left > 0 {
            let offset = self.frontier.sector() % z;
            if offset == z - 1 {
                // Skip the guard sector.
                self.frontier += 1;
                continue;
            }
            let room = (z - 1) - offset;
            let take = left.min(room);
            self.map.insert(cur_lba, take, self.frontier);
            sink(PhysIo::write(self.frontier, take));
            self.stats.phys_writes += 1;
            self.frontier += take;
            cur_lba += take;
            left -= take;
        }
    }

    /// The physically-contiguous runs a read of `[lba, lba+sectors)` must
    /// fetch, holes resolved to identity placement, adjacent pieces merged.
    pub fn physical_runs(&self, lba: Lba, sectors: u64) -> Vec<(Pba, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        // lookup_each folds the tiles without materializing a segment Vec —
        // this runs once per translated read, the hottest map operation.
        self.map.lookup_each(lba, sectors, |seg| {
            let (start, len) = match seg {
                Segment::Mapped(e) => (e.pba.sector(), e.sectors),
                Segment::Hole { lba, sectors } => (lba.sector(), sectors),
            };
            match runs.last_mut() {
                Some(last) if last.0 + last.1 == start => last.1 += len,
                _ => runs.push((start, len)),
            }
        });
        runs.into_iter().map(|(s, l)| (Pba::new(s), l)).collect()
    }

    fn handle_read_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        let sectors = u64::from(rec.sectors);
        let runs = self.physical_runs(rec.lba, sectors);
        let fragmented = runs.len() > 1;
        if fragmented {
            self.stats.fragmented_reads += 1;
            if let Some(tracker) = &mut self.tracker {
                tracker.record_read(&runs);
            }
        }

        for &(pba, len) in &runs {
            // Alg. 3: only fragments of fragmented reads consult the cache.
            if fragmented {
                if let Some(cache) = &mut self.cache {
                    match cache.lookup(pba, len) {
                        // A flash hit pays the flash latency but, like a
                        // RAM hit, avoids the disk entirely (and the range
                        // was promoted back into RAM).
                        TierLookup::Ram | TierLookup::Flash => {
                            self.stats.cache_hit_fragments += 1;
                            continue; // served from cache: no physical I/O
                        }
                        // Alg. 3: ReadDisk(fragment); WriteCache(fragment)
                        // — unless the policy denies this region the fill.
                        TierLookup::Miss if self.gates.cache_admit => {
                            cache.admit(pba, len);
                            self.stats.cache_miss_fragments += 1;
                        }
                        TierLookup::Miss => {}
                    }
                }
                // Alg. 2: look-ahead-behind around fragments; the policy
                // gate widens or narrows the window per region.
                if let (Some(buffer), Some(p)) = (&mut self.prefetch_buffer, self.config.prefetch) {
                    if buffer.covers(pba, len) {
                        self.stats.prefetch_hit_fragments += 1;
                        continue; // already in the drive buffer
                    }
                    let behind = self.gates.prefetch.apply(p.behind_sectors);
                    let ahead = self.gates.prefetch.apply(p.ahead_sectors);
                    let pre_start = Pba::new(pba.sector().saturating_sub(behind));
                    let total = (pba.sector() - pre_start.sector()) + len + ahead;
                    buffer.insert(pre_start, total);
                    self.stats.prefetched_sectors += total - len;
                    self.stats.phys_reads += 1;
                    sink(PhysIo::read(pre_start, total));
                    continue;
                }
            }
            self.stats.phys_reads += 1;
            sink(PhysIo::read(pba, len));
        }

        // Alg. 1: opportunistic defragmentation — the fragmented data was
        // just reordered in RAM to serve the read; write it back
        // contiguously at the frontier.
        if fragmented {
            if let Some(d) = self.config.defrag {
                let key = (rec.lba.sector(), rec.sectors);
                let count = self.range_accesses.entry(key).or_insert(0);
                *count += 1;
                // The policy gate can veto the rewrite for cold regions;
                // the access count keeps accumulating so the range rewrites
                // promptly once its region earns the gate.
                if self.gates.defrag && runs.len() >= d.min_fragments && *count >= d.min_accesses {
                    match d.timing {
                        DefragTiming::Immediate => {
                            self.append_into(rec.lba, sectors, sink);
                            self.stats.defrag_rewrites += 1;
                            self.stats.defrag_sectors += sectors;
                        }
                        DefragTiming::Idle { .. } => {
                            let entry = (rec.lba, sectors);
                            if !self.pending_defrag.contains(&entry) {
                                self.pending_defrag.push(entry);
                            }
                        }
                    }
                    self.range_accesses.remove(&key);
                }
            }
        }
    }

    /// Sink form of [`TranslationLayer::apply`]: applies one record, calling
    /// `sink` with each physical operation in the exact order `apply` would
    /// have returned them, without materializing a `Vec`.
    pub fn apply_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        // Idle-time defragmentation: if the gap since the previous
        // operation was long enough, the queued rewrites happened during
        // it — emit them before this operation's I/O.
        if let Some(d) = self.config.defrag {
            if let DefragTiming::Idle { min_gap_us } = d.timing {
                if !self.pending_defrag.is_empty()
                    && rec.timestamp_us.saturating_sub(self.last_timestamp_us) >= min_gap_us
                {
                    self.flush_defrag_queue_into(sink);
                }
            }
        }
        self.last_timestamp_us = rec.timestamp_us;
        match rec.op {
            OpKind::Write => {
                self.stats.logical_writes += 1;
                self.append_into(rec.lba, u64::from(rec.sectors), sink);
            }
            OpKind::Read => {
                self.stats.logical_reads += 1;
                self.handle_read_into(rec, sink);
            }
        }
    }
}

impl TranslationLayer for LogStructured {
    fn apply(&mut self, rec: &TraceRecord) -> Vec<PhysIo> {
        let mut out = Vec::new();
        self.apply_into(rec, &mut |io| out.push(io));
        out
    }

    fn name(&self) -> &str {
        match (
            self.config.defrag.is_some(),
            self.config.prefetch.is_some(),
            self.config.cache.is_some(),
        ) {
            (false, false, false) => "LS",
            (true, false, false) => "LS+defrag",
            (false, true, false) => "LS+prefetch",
            (false, false, true) if self.config.flash_cache_bytes.is_some() => "LS+cache2",
            (false, false, true) => "LS+cache",
            _ => "LS+combined",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, DefragConfig, PrefetchConfig};

    fn lba(s: u64) -> Lba {
        Lba::new(s)
    }
    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    fn plain(frontier: u64) -> LogStructured {
        LogStructured::new(LsConfig::new(lba(frontier)))
    }

    #[test]
    fn writes_append_sequentially() {
        let mut ls = plain(1000);
        let a = ls.apply(&TraceRecord::write(0, lba(500), 8));
        let b = ls.apply(&TraceRecord::write(1, lba(0), 4));
        assert_eq!(a, vec![PhysIo::write(pba(1000), 8)]);
        assert_eq!(b, vec![PhysIo::write(pba(1008), 4)]);
        assert_eq!(ls.frontier(), pba(1012));
        assert_eq!(ls.stats().logical_writes, 2);
    }

    #[test]
    fn read_of_unwritten_data_is_identity() {
        let mut ls = plain(1000);
        let r = ls.apply(&TraceRecord::read(0, lba(10), 8));
        assert_eq!(r, vec![PhysIo::read(pba(10), 8)]);
        assert_eq!(ls.stats().fragmented_reads, 0);
    }

    #[test]
    fn read_after_write_translates() {
        let mut ls = plain(1000);
        ls.apply(&TraceRecord::write(0, lba(50), 8));
        let r = ls.apply(&TraceRecord::read(1, lba(50), 8));
        assert_eq!(r, vec![PhysIo::read(pba(1000), 8)]);
    }

    #[test]
    fn update_fragments_subsequent_read() {
        // The paper's Fig 6 scenario: contiguous data fragmented by updates.
        let mut ls = plain(1000);
        ls.apply(&TraceRecord::write(0, lba(0), 6)); // LBA 0..6 at 1000..1006
        ls.apply(&TraceRecord::write(1, lba(2), 1)); // update LBA 2 -> 1006
        ls.apply(&TraceRecord::write(2, lba(4), 1)); // update LBA 4 -> 1007
        let r = ls.apply(&TraceRecord::read(3, lba(1), 4)); // read LBA 1..5
                                                            // pieces: LBA1 @1001, LBA2 @1006, LBA3 @1003, LBA4 @1007
        assert_eq!(
            r,
            vec![
                PhysIo::read(pba(1001), 1),
                PhysIo::read(pba(1006), 1),
                PhysIo::read(pba(1003), 1),
                PhysIo::read(pba(1007), 1),
            ]
        );
        assert_eq!(ls.stats().fragmented_reads, 1);
    }

    #[test]
    fn straddling_read_merges_identity_and_log() {
        let mut ls = plain(1000);
        ls.apply(&TraceRecord::write(0, lba(10), 2)); // 10..12 -> 1000..1002
                                                      // Read 8..14: hole [8,10) @8, mapped [10,12) @1000, hole [12,14) @12.
        let r = ls.apply(&TraceRecord::read(1, lba(8), 6));
        assert_eq!(
            r,
            vec![
                PhysIo::read(pba(8), 2),
                PhysIo::read(pba(1000), 2),
                PhysIo::read(pba(12), 2),
            ]
        );
    }

    #[test]
    fn sequential_log_writes_coalesce_for_reads() {
        let mut ls = plain(1000);
        // Logically-sequential writes land physically sequential: the
        // "small file creation" log-friendly case.
        ls.apply(&TraceRecord::write(0, lba(0), 4));
        ls.apply(&TraceRecord::write(1, lba(4), 4));
        ls.apply(&TraceRecord::write(2, lba(8), 4));
        let r = ls.apply(&TraceRecord::read(3, lba(0), 12));
        assert_eq!(r, vec![PhysIo::read(pba(1000), 12)]);
    }

    #[test]
    fn defrag_rewrites_fragmented_read() {
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::default());
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        let r1 = ls.apply(&TraceRecord::read(2, lba(0), 6));
        // 3 fragment reads + 1 defrag write at the frontier.
        assert_eq!(r1.len(), 4);
        let w = r1.last().unwrap();
        assert_eq!(w.op, OpKind::Write);
        assert_eq!(w.sectors, 6);
        assert_eq!(ls.stats().defrag_rewrites, 1);
        assert_eq!(ls.stats().defrag_sectors, 6);
        // Re-read: now contiguous, single physical read, no more rewrites.
        let r2 = ls.apply(&TraceRecord::read(3, lba(0), 6));
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].pba, w.pba);
        assert_eq!(ls.stats().defrag_rewrites, 1);
    }

    #[test]
    fn defrag_min_fragments_gate() {
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig {
            min_fragments: 3,
            min_accesses: 1,
            ..DefragConfig::default()
        });
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        // 3 fragments -> meets N=3.
        let r = ls.apply(&TraceRecord::read(2, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 1);
        assert_eq!(r.len(), 4);
        // A 2-fragment read elsewhere does not trigger.
        ls.apply(&TraceRecord::write(3, lba(100), 2));
        let r = ls.apply(&TraceRecord::read(4, lba(100), 3)); // mapped + hole
        assert_eq!(r.len(), 2);
        assert_eq!(ls.stats().defrag_rewrites, 1);
    }

    #[test]
    fn defrag_min_accesses_gate() {
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig {
            min_fragments: 2,
            min_accesses: 2,
            ..DefragConfig::default()
        });
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.apply(&TraceRecord::read(2, lba(0), 6)); // 1st access: no rewrite
        assert_eq!(ls.stats().defrag_rewrites, 0);
        ls.apply(&TraceRecord::read(3, lba(0), 6)); // 2nd access: rewrite
        assert_eq!(ls.stats().defrag_rewrites, 1);
        ls.apply(&TraceRecord::read(4, lba(0), 6)); // now defragmented
        assert_eq!(ls.stats().defrag_rewrites, 1);
    }

    #[test]
    fn selective_cache_absorbs_repeat_fragmented_reads() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        let r1 = ls.apply(&TraceRecord::read(2, lba(0), 6));
        assert_eq!(r1.len(), 3); // all misses -> all disk reads
        assert_eq!(ls.stats().cache_miss_fragments, 3);
        let r2 = ls.apply(&TraceRecord::read(3, lba(0), 6));
        assert!(r2.is_empty(), "fully cached: no physical I/O");
        assert_eq!(ls.stats().cache_hit_fragments, 3);
    }

    #[test]
    fn unfragmented_reads_bypass_cache() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        let r1 = ls.apply(&TraceRecord::read(1, lba(0), 6));
        let r2 = ls.apply(&TraceRecord::read(2, lba(0), 6));
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1); // not cached: Alg. 3 gates on fragmentation
        assert_eq!(ls.stats().cache_hit_fragments, 0);
        assert_eq!(ls.stats().cache_miss_fragments, 0);
    }

    #[test]
    fn prefetch_covers_nearby_fragments() {
        // The paper's Fig 9 scenario: mis-ordered updates land physically
        // near each other; fetching around one fragment captures the rest.
        let cfg = LsConfig::new(lba(10_000)).with_prefetch(PrefetchConfig {
            behind_sectors: 8,
            ahead_sectors: 8,
            buffer_bytes: 1 << 20,
        });
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6)); // 0..6 @10000
        ls.apply(&TraceRecord::write(1, lba(3), 1)); // @10006
        ls.apply(&TraceRecord::write(2, lba(2), 1)); // @10007
        ls.apply(&TraceRecord::write(3, lba(4), 1)); // @10008
                                                     // Read 0..6: fragments @10000(len2), @10007(1), @10006(1), @10008(1), @10005(1)
        let r = ls.apply(&TraceRecord::read(4, lba(0), 6));
        // First fragment read enlarges to cover 8 ahead: 10000-8..10000+2+8,
        // which covers 10006..10009 -> remaining fragments all hit buffer
        // except @10005? 10005 < 10010 so covered too.
        assert_eq!(r.len(), 1, "one enlarged read serves all fragments: {r:?}");
        assert_eq!(ls.stats().prefetch_hit_fragments, 4);
        assert!(ls.stats().prefetched_sectors >= 8);
    }

    #[test]
    fn prefetch_far_fragments_still_seek() {
        let cfg = LsConfig::new(lba(100_000)).with_prefetch(PrefetchConfig {
            behind_sectors: 4,
            ahead_sectors: 4,
            buffer_bytes: 1 << 20,
        });
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 4)); // @100000
                                                     // Push the frontier far away.
        ls.apply(&TraceRecord::write(1, lba(1000), 5000)); // @100004..105004
        ls.apply(&TraceRecord::write(2, lba(2), 1)); // @105004
        let r = ls.apply(&TraceRecord::read(3, lba(0), 4));
        // Fragments: @100000(2), @105004(1), @100003(1). The second is far
        // beyond the first's look-ahead, so it needs its own read; the third
        // was covered by the first read's look-behind+data... check len.
        assert_eq!(r.len(), 2, "{r:?}");
        assert_eq!(ls.stats().prefetch_hit_fragments, 1);
    }

    #[test]
    fn fragment_tracking_records_reads() {
        let cfg = LsConfig::new(lba(1000)).with_fragment_tracking();
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.apply(&TraceRecord::read(2, lba(0), 6));
        ls.apply(&TraceRecord::read(3, lba(0), 6));
        ls.apply(&TraceRecord::read(4, lba(100), 1)); // unfragmented: ignored
        let t = ls.fragment_tracker().unwrap();
        assert_eq!(t.fragmented_read_count(), 2);
        assert_eq!(t.per_read_fragment_counts(), &[3, 3]);
        assert_eq!(t.popularity()[0].access_count, 2);
    }

    #[test]
    fn flash_tier_serves_fragments_evicted_from_ram() {
        // RAM holds only 4 sectors; the flash tier holds the rest. A
        // single-tier cache this small would thrash and re-read from disk.
        let cfg = LsConfig::new(lba(100_000))
            .with_cache(CacheConfig {
                capacity_bytes: 4 * 512,
            })
            .with_flash_cache(1 << 20);
        let mut ls = LogStructured::new(cfg);
        // Two separate fragmented ranges, each with 4-sector fragments.
        for (t, base) in [(0u64, 0u64), (10, 100)] {
            ls.apply(&TraceRecord::write(t, lba(base), 8));
            ls.apply(&TraceRecord::write(t + 1, lba(base + 2), 2));
        }
        ls.apply(&TraceRecord::read(20, lba(0), 8)); // fills RAM, misses
        ls.apply(&TraceRecord::read(21, lba(100), 8)); // evicts range 0 to flash
        let r = ls.apply(&TraceRecord::read(22, lba(0), 8));
        assert!(r.is_empty(), "flash absorbed the re-read: {r:?}");
        let tiers = ls.tier_stats().unwrap();
        assert!(tiers.flash_hits > 0, "{tiers:?}");
        assert!(tiers.demoted_sectors > 0, "{tiers:?}");
    }

    #[test]
    fn cache_admit_gate_denies_fills() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.set_gates(GateSet {
            cache_admit: false,
            ..GateSet::default()
        });
        let r1 = ls.apply(&TraceRecord::read(2, lba(0), 6));
        let r2 = ls.apply(&TraceRecord::read(3, lba(0), 6));
        assert_eq!(r1.len(), 3);
        assert_eq!(r2.len(), 3, "denied fills: second read still hits disk");
        assert_eq!(ls.stats().cache_hit_fragments, 0);
        assert_eq!(ls.stats().cache_miss_fragments, 0, "denied fills uncounted");
        // Re-admitting restores Alg. 3 behaviour.
        ls.set_gates(GateSet::default());
        ls.apply(&TraceRecord::read(4, lba(0), 6));
        let r = ls.apply(&TraceRecord::read(5, lba(0), 6));
        assert!(r.is_empty());
        assert_eq!(ls.stats().cache_hit_fragments, 3);
    }

    #[test]
    fn defrag_gate_denies_rewrites_but_accumulates_evidence() {
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig {
            min_accesses: 2,
            ..DefragConfig::default()
        });
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.set_gates(GateSet {
            defrag: false,
            ..GateSet::default()
        });
        ls.apply(&TraceRecord::read(2, lba(0), 6));
        ls.apply(&TraceRecord::read(3, lba(0), 6));
        ls.apply(&TraceRecord::read(4, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 0, "gate vetoed every rewrite");
        // The access count kept accumulating, so the first gated-open
        // fragmented read rewrites immediately.
        ls.set_gates(GateSet::default());
        ls.apply(&TraceRecord::read(5, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 1);
    }

    #[test]
    fn prefetch_gate_scales_the_window() {
        use smrseek_policy::PrefetchWindow;
        let p = PrefetchConfig {
            behind_sectors: 8,
            ahead_sectors: 8,
            buffer_bytes: 1 << 20,
        };
        let mut prefetched = Vec::new();
        for window in [
            PrefetchWindow::Narrow,
            PrefetchWindow::Normal,
            PrefetchWindow::Wide,
        ] {
            let mut ls = LogStructured::new(LsConfig::new(lba(100_000)).with_prefetch(p));
            // Fragments far enough apart that every window misses on the
            // same two fragments and hits the third — only the prefetched
            // volume varies with the gate.
            ls.apply(&TraceRecord::write(0, lba(0), 4)); // @100000
            ls.apply(&TraceRecord::write(1, lba(1000), 5000)); // push frontier
            ls.apply(&TraceRecord::write(2, lba(2), 1)); // @105004
            ls.set_gates(GateSet {
                prefetch: window,
                ..GateSet::default()
            });
            ls.apply(&TraceRecord::read(3, lba(0), 4));
            assert_eq!(ls.stats().prefetch_hit_fragments, 1);
            prefetched.push(ls.stats().prefetched_sectors);
        }
        assert!(prefetched[0] < prefetched[1], "{prefetched:?}");
        assert!(prefetched[1] < prefetched[2], "{prefetched:?}");
    }

    #[test]
    fn name_reflects_mechanisms() {
        assert_eq!(plain(0).name(), "LS");
        let d = LogStructured::new(LsConfig::default().with_defrag(DefragConfig::default()));
        assert_eq!(d.name(), "LS+defrag");
        let p = LogStructured::new(LsConfig::default().with_prefetch(PrefetchConfig::default()));
        assert_eq!(p.name(), "LS+prefetch");
        let c = LogStructured::new(LsConfig::default().with_cache(CacheConfig::default()));
        assert_eq!(c.name(), "LS+cache");
        let c2 = LogStructured::new(
            LsConfig::default()
                .with_cache(CacheConfig::default())
                .with_flash_cache(1 << 20),
        );
        assert_eq!(c2.name(), "LS+cache2");
        let all = LogStructured::new(
            LsConfig::default()
                .with_defrag(DefragConfig::default())
                .with_cache(CacheConfig::default()),
        );
        assert_eq!(all.name(), "LS+combined");
    }

    #[test]
    fn idle_defrag_queues_until_gap() {
        use crate::config::DefragConfig;
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::idle(10_000));
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(100, lba(2), 1));
        // Fragmented read: queues, does not rewrite inline.
        let r = ls.apply(&TraceRecord::read(200, lba(0), 6));
        assert_eq!(r.len(), 3, "no inline rewrite: {r:?}");
        assert_eq!(ls.pending_defrag(), &[(lba(0), 6)]);
        assert_eq!(ls.stats().defrag_rewrites, 0);
        // Next op arrives within the gap: still queued.
        let r = ls.apply(&TraceRecord::read(5_000, lba(0), 6));
        assert_eq!(r.len(), 3);
        assert_eq!(ls.pending_defrag().len(), 1); // dedup via access gate reset
                                                  // An op after a >=10ms gap flushes the queue first.
        let r = ls.apply(&TraceRecord::read(50_000, lba(0), 6));
        let writes: Vec<_> = r.iter().filter(|io| io.op == OpKind::Write).collect();
        assert_eq!(writes.len(), 1, "batched rewrite: {r:?}");
        assert_eq!(ls.stats().defrag_rewrites, 1);
        assert!(ls.pending_defrag().is_empty());
        // The read that triggered the flush now sees defragmented data.
        let r = ls.apply(&TraceRecord::read(50_100, lba(0), 6));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn idle_defrag_batch_is_sequential_at_frontier() {
        use crate::config::DefragConfig;
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::idle(1_000));
        let mut ls = LogStructured::new(cfg);
        // Create two separate fragmented ranges.
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.apply(&TraceRecord::write(2, lba(100), 6));
        ls.apply(&TraceRecord::write(3, lba(102), 1));
        ls.apply(&TraceRecord::read(4, lba(0), 6));
        ls.apply(&TraceRecord::read(5, lba(100), 6));
        assert_eq!(ls.pending_defrag().len(), 2);
        // Idle gap: the next op is preceded by BOTH rewrites,
        // back-to-back at the frontier (physically contiguous).
        let r = ls.apply(&TraceRecord::read(1_000_000, lba(500), 1));
        let writes: Vec<&PhysIo> = r.iter().filter(|io| io.op == OpKind::Write).collect();
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0].end(), writes[1].pba, "batch is contiguous");
        assert_eq!(ls.stats().defrag_rewrites, 2);
    }

    #[test]
    fn idle_defrag_skips_ranges_fixed_meanwhile() {
        use crate::config::DefragConfig;
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::idle(1_000));
        let mut ls = LogStructured::new(cfg);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.apply(&TraceRecord::read(2, lba(0), 6)); // queued
                                                    // The host overwrites the whole range: now contiguous by itself.
        ls.apply(&TraceRecord::write(3, lba(0), 6));
        let flushed = ls.flush_defrag_queue();
        assert!(
            flushed.is_empty(),
            "nothing left to defragment: {flushed:?}"
        );
        assert_eq!(ls.stats().defrag_rewrites, 0);
    }

    #[test]
    fn zoned_append_splits_at_guard_bands() {
        let cfg = LsConfig::new(lba(1000)).with_zones(8); // 7 data + 1 guard
        let mut ls = LogStructured::new(cfg);
        // Frontier starts at 1000 (offset 0 in its zone of [1000..1008)?
        // zones are absolute: zone of 1000 is [1000/8*8=1000? 1000%8=0].
        let w = ls.apply(&TraceRecord::write(0, lba(0), 10));
        // Zone layout: sectors ..1006 data, 1007 guard, 1008.. next zone.
        assert_eq!(
            w,
            vec![PhysIo::write(pba(1000), 7), PhysIo::write(pba(1008), 3)]
        );
        assert_eq!(ls.frontier(), pba(1011));
        // A read of the whole range splits at the guard.
        let r = ls.apply(&TraceRecord::read(1, lba(0), 10));
        assert_eq!(
            r,
            vec![PhysIo::read(pba(1000), 7), PhysIo::read(pba(1008), 3)]
        );
    }

    #[test]
    fn zoned_append_skips_guard_exactly() {
        let cfg = LsConfig::new(lba(0)).with_zones(4); // 3 data + 1 guard
        let mut ls = LogStructured::new(cfg);
        // Writes of 3 sectors fill exactly one zone's data each.
        for t in 0..3u64 {
            let w = ls.apply(&TraceRecord::write(t, lba(t * 3), 3));
            assert_eq!(w.len(), 1, "no split needed: {w:?}");
            assert_eq!(w[0].pba, pba(t * 4));
        }
        assert_eq!(ls.frontier(), pba(11)); // 8 + 3, guard at 11 pending
                                            // Map translations stay correct across guards.
        assert_eq!(ls.map().translate(lba(4)), Some(pba(5)));
        assert_eq!(ls.map().translate(lba(8)), Some(pba(10)));
    }

    #[test]
    fn zoned_log_increases_fragmentation_realistically() {
        // Same workload, with and without zones: the zoned log can only
        // have equal or more physical reads (guard-band splits).
        let mk = |zones: Option<u64>| {
            let mut cfg = LsConfig::new(lba(100_000));
            cfg.zone_sectors = zones;
            let mut ls = LogStructured::new(cfg);
            let mut phys_reads = 0usize;
            for i in 0..200u64 {
                ls.apply(&TraceRecord::write(i, lba(i * 64), 48));
            }
            for i in 0..200u64 {
                phys_reads += ls
                    .apply(&TraceRecord::read(1000 + i, lba(i * 64), 48))
                    .len();
            }
            phys_reads
        };
        let flat = mk(None);
        let zoned = mk(Some(256));
        assert!(zoned >= flat, "zoned {zoned} < flat {flat}");
        assert!(zoned > flat, "expected some guard-band splits");
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        use crate::config::{CacheConfig, DefragConfig, PrefetchConfig};
        // Exercise every mechanism whose state must survive a snapshot:
        // idle defrag (pending queue + access gates + last timestamp),
        // selective cache, prefetch buffer, fragment tracking.
        let configs = [
            LsConfig::new(lba(100_000)),
            LsConfig::new(lba(100_000)).with_defrag(DefragConfig::idle(5_000)),
            LsConfig::new(lba(100_000)).with_prefetch(PrefetchConfig::default()),
            LsConfig::new(lba(100_000)).with_cache(CacheConfig {
                capacity_bytes: 4 * 512,
            }),
            LsConfig::new(lba(100_000))
                .with_cache(CacheConfig {
                    capacity_bytes: 4 * 512,
                })
                .with_flash_cache(16 * 512),
            LsConfig::new(lba(100_000))
                .with_fragment_tracking()
                .with_zones(64),
        ];
        let trace: Vec<TraceRecord> = (0..120u64)
            .map(|i| {
                let l = lba((i * 37) % 512);
                if i % 3 == 0 {
                    TraceRecord::write(i * 2_000, l, 8)
                } else {
                    TraceRecord::read(i * 2_000, l, 16)
                }
            })
            .collect();
        for config in configs {
            for split in [0, 1, 40, 119, 120] {
                let mut whole = LogStructured::new(config);
                let whole_ios: Vec<PhysIo> = trace.iter().flat_map(|r| whole.apply(r)).collect();

                let mut first = LogStructured::new(config);
                let mut resumed_ios: Vec<PhysIo> =
                    trace[..split].iter().flat_map(|r| first.apply(r)).collect();
                let snap = first.to_snapshot();
                let mut resumed = LogStructured::from_snapshot(snap.clone());
                assert_eq!(resumed.to_snapshot(), snap, "snapshot is stable");
                resumed_ios.extend(trace[split..].iter().flat_map(|r| resumed.apply(r)));

                assert_eq!(resumed_ios, whole_ios, "split {split}");
                assert_eq!(resumed.stats(), whole.stats());
                assert_eq!(resumed.map(), whole.map());
                assert_eq!(resumed.frontier(), whole.frontier());
                assert_eq!(resumed.fragment_tracker(), whole.fragment_tracker());
            }
        }
    }

    #[test]
    fn stats_count_physical_ops() {
        let mut ls = plain(1000);
        ls.apply(&TraceRecord::write(0, lba(0), 6));
        ls.apply(&TraceRecord::write(1, lba(2), 1));
        ls.apply(&TraceRecord::read(2, lba(0), 6));
        let s = ls.stats();
        assert_eq!(s.phys_writes, 2);
        assert_eq!(s.phys_reads, 3);
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.logical_writes, 2);
        assert!((s.fragmented_read_rate() - 1.0).abs() < 1e-12);
    }
}
