//! The log-structured translation layer with composable seek-reduction
//! mechanisms.

use crate::config::{DefragTiming, LsConfig, PrefetchConfig};
use crate::fragstats::FragmentAccessTracker;
use crate::stats::LsStats;
use smrseek_cache::range::Probe;
use smrseek_cache::{RangeCache, TierLookup, TierStats, TieredCache};
use smrseek_disk::PhysIo;
use smrseek_extent::{ExtentMap, Segment};
use smrseek_policy::GateSet;
use smrseek_trace::{Lba, OpKind, Pba, TraceRecord};
use std::collections::HashMap;

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
/// One layer can serve several configurations at once
/// ([`with_lanes`](Self::with_lanes)): the extent map, frontier,
/// defragmentation and fragment tracking are kept once, and each
/// configuration gets a *read lane* holding only what its read-side
/// mechanisms (prefetch buffer, selective cache, flash tier) need. Those
/// mechanisms decide which physical reads reach the disk but never write
/// the map, so every lane sees exactly the I/O a layer of its own
/// configuration would emit.
///
/// # Example
///
/// ```
/// use smrseek_stl::{LogStructured, LsConfig};
/// use smrseek_trace::{Lba, Pba, TraceRecord};
///
/// let mut ls = LogStructured::new(LsConfig::new(Lba::new(1000)));
/// let mut ios = Vec::new();
/// ls.apply_into(&TraceRecord::write(0, Lba::new(7), 2), &mut |io| ios.push(io));
/// assert_eq!(ios[0].pba, Pba::new(1000)); // appended at the frontier
/// ls.apply_into(&TraceRecord::read(1, Lba::new(7), 2), &mut |io| ios.push(io));
/// assert_eq!(ios[1].pba, Pba::new(1000)); // translated back
/// ```
#[derive(Debug, Clone)]
pub struct LogStructured {
    /// Lane 0's configuration; every lane shares its translation fields.
    config: LsConfig,
    map: ExtentMap,
    frontier: Pba,
    /// The counters of the shared translation; the read-side ones stay
    /// zero here and live in each lane.
    stats: LsStats,
    tracker: Option<FragmentAccessTracker>,
    /// One read lane per configuration, in construction order. Lane 0's
    /// gates also decide defragmentation rewrites.
    lanes: Vec<ReadLane>,
    /// Whether the most recent read record was fragmented: the outcome an
    /// adaptive policy engine reads back after each record.
    last_read_fragmented: bool,
    /// Fragmented-read access counts per exact logical range, for the
    /// defragmentation `min_accesses` gate.
    range_accesses: HashMap<(u64, u32), u64>,
    /// Ranges queued for idle-time defragmentation.
    pending_defrag: Vec<(Lba, u64)>,
    /// Timestamp of the last applied operation (idle-gap detection).
    last_timestamp_us: u64,
    /// The physical runs of the range being read: one buffer reused
    /// across records, so a read allocates nothing.
    runs: Vec<(Pba, u64)>,
}

/// The read side of one configuration over a shared translation: the
/// prefetch buffer (Alg. 2), the selective cache with its optional flash
/// tier (Alg. 3), the policy gates they run under, and the counters only
/// they move.
///
/// A lane reads nothing but each read's merged physical runs, so it can
/// also be served away from its [`LogStructured`]: fed the runs a plain
/// lane (no prefetch, no cache) emits as reads, in order,
/// [`read_runs`](Self::read_runs) emits exactly the reads the lane would
/// have emitted inside the layer.
#[derive(Debug, Clone)]
pub struct ReadLane {
    name: &'static str,
    prefetch: Option<PrefetchConfig>,
    prefetch_buffer: Option<RangeCache>,
    cache: Option<TieredCache>,
    /// Per-region mechanism gates for the *next* read, set by an adaptive
    /// policy engine via [`LogStructured::set_lane_gates`]. Purely
    /// transient (the engine re-derives them every record); the default is
    /// fully permissive — exactly the fixed-mechanism behaviour of a
    /// policy-free run.
    gates: GateSet,
    /// Only `phys_reads` and the cache and prefetch counters move here.
    stats: LsStats,
}

impl ReadLane {
    /// The read lane of `config`; only its read-side mechanisms matter.
    pub fn new(config: &LsConfig) -> Self {
        let name = match (
            config.defrag.is_some(),
            config.prefetch.is_some(),
            config.cache.is_some(),
        ) {
            (false, false, false) => "LS",
            (true, false, false) => "LS+defrag",
            (false, true, false) => "LS+prefetch",
            (false, false, true) if config.flash_cache_bytes.is_some() => "LS+cache2",
            (false, false, true) => "LS+cache",
            _ => "LS+combined",
        };
        ReadLane {
            name,
            prefetch: config.prefetch,
            prefetch_buffer: config
                .prefetch
                .map(|p| RangeCache::with_capacity_bytes(p.buffer_bytes)),
            cache: config.cache.map(|c| match config.flash_cache_bytes {
                Some(flash) => TieredCache::with_flash_bytes(c.capacity_bytes, flash),
                None => TieredCache::single_bytes(c.capacity_bytes),
            }),
            gates: GateSet::default(),
            stats: LsStats::default(),
        }
    }

    /// The report name of the lane's configuration ("LS", "LS+cache", ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lane's own counters: `phys_reads` and the cache and prefetch
    /// counters; everything else stays zero.
    pub fn stats(&self) -> LsStats {
        self.stats
    }

    /// Tier-level event counters of the lane's selective cache, when it
    /// has a flash tier.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.cache
            .as_ref()
            .filter(|c| c.has_flash())
            .map(|c| c.stats())
    }

    /// Serves the merged physical `runs` of one read under the lane's
    /// gates, emitting the reads that reach the disk.
    pub fn read_runs(&mut self, runs: &[(Pba, u64)], sink: &mut impl FnMut(PhysIo)) {
        let gates = self.gates;
        // Alg. 2 and 3 act only on the fragments of fragmented reads.
        let fragmented = runs.len() > 1;
        for &(pba, len) in runs {
            if fragmented {
                if let Some(cache) = &mut self.cache {
                    // Alg. 3: on a miss, ReadDisk(fragment);
                    // WriteCache(fragment) — unless the policy denies this
                    // region the fill.
                    match cache.lookup_admitting(pba, len, gates.cache_admit) {
                        // A flash hit pays the flash latency but, like a
                        // RAM hit, avoids the disk entirely (and the range
                        // was promoted back into RAM).
                        TierLookup::Ram | TierLookup::Flash => {
                            self.stats.cache_hit_fragments += 1;
                            continue; // served from cache: no physical I/O
                        }
                        TierLookup::Miss if gates.cache_admit => {
                            self.stats.cache_miss_fragments += 1;
                        }
                        TierLookup::Miss => {}
                    }
                }
                // Alg. 2: look-ahead-behind around fragments; the policy
                // gate widens or narrows the window per region.
                if let (Some(buffer), Some(p)) = (&mut self.prefetch_buffer, self.prefetch) {
                    let Probe::Uncovered(miss) = buffer.probe(pba, len) else {
                        self.stats.prefetch_hit_fragments += 1;
                        continue; // already in the drive buffer
                    };
                    let behind = gates.prefetch.apply(p.behind_sectors);
                    let ahead = gates.prefetch.apply(p.ahead_sectors);
                    let pre_start = Pba::new(pba.sector().saturating_sub(behind));
                    let total = (pba.sector() - pre_start.sector()) + len + ahead;
                    miss.insert_around(pre_start, total, &mut |_, _| {});
                    self.stats.prefetched_sectors += total - len;
                    self.stats.phys_reads += 1;
                    sink(PhysIo::read(pre_start, total));
                    continue;
                }
            }
            self.stats.phys_reads += 1;
            sink(PhysIo::read(pba, len));
        }
    }
}

impl LogStructured {
    /// Creates a layer from a configuration.
    pub fn new(config: LsConfig) -> Self {
        Self::with_lanes(&[config])
    }

    /// Creates one layer serving every configuration in `configs`, one
    /// read lane each, in order; lane 0's configuration decides the shared
    /// translation. [`apply_lanes_into`](Self::apply_lanes_into)
    /// emits each lane's I/O, identical to what a single-lane layer of
    /// that configuration would emit.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or if some configuration does not
    /// [share its translation](LsConfig::shares_translation) with the
    /// first.
    pub fn with_lanes(configs: &[LsConfig]) -> Self {
        let config = *configs.first().expect("a layer needs at least one lane");
        assert!(
            configs.iter().all(|c| c.shares_translation(&config)),
            "read lanes must share one translation (frontier, defrag, fragment tracking)"
        );
        LogStructured {
            frontier: config.frontier_start,
            map: ExtentMap::new(),
            stats: LsStats::default(),
            tracker: config.track_fragments.then(FragmentAccessTracker::new),
            lanes: configs.iter().map(ReadLane::new).collect(),
            last_read_fragmented: false,
            range_accesses: HashMap::new(),
            pending_defrag: Vec::new(),
            last_timestamp_us: 0,
            runs: Vec::new(),
            config,
        }
    }

    /// Current write-frontier position.
    pub fn frontier(&self) -> Pba {
        self.frontier
    }

    /// The extent map (for fragmentation analyses).
    pub fn map(&self) -> &ExtentMap {
        &self.map
    }

    /// Instrumentation counters of lane 0.
    pub fn stats(&self) -> LsStats {
        self.lane_stats(0)
    }

    /// Instrumentation counters of lane `k`: the shared translation's
    /// plus the lane's own read-side counters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a lane.
    pub fn lane_stats(&self, k: usize) -> LsStats {
        let mut stats = self.stats;
        stats.merge(&self.lanes[k].stats);
        stats
    }

    /// The counters of the shared translation alone: what a lane served
    /// away from the layer merges its own [`ReadLane::stats`] into.
    pub fn shared_stats(&self) -> LsStats {
        self.stats
    }

    /// The report name of lane `k`'s configuration ("LS", "LS+cache", ...).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a lane.
    pub fn lane_name(&self, k: usize) -> &'static str {
        self.lanes[k].name
    }

    /// Fragment statistics, when tracking was enabled.
    pub fn fragment_tracker(&self) -> Option<&FragmentAccessTracker> {
        self.tracker.as_ref()
    }

    /// Moves the fragment statistics out, leaving the layer tracking
    /// nothing from here on: for a caller that is done replaying.
    pub fn take_fragment_tracker(&mut self) -> Option<FragmentAccessTracker> {
        self.tracker.take()
    }

    /// Tier-level event counters of lane 0's selective cache, when it is
    /// configured with a flash tier (a single-tier cache has nothing
    /// tier-level to report).
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.lane_tier_stats(0)
    }

    /// [`tier_stats`](Self::tier_stats) of lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a lane.
    pub fn lane_tier_stats(&self, k: usize) -> Option<TierStats> {
        self.lanes[k].tier_stats()
    }

    /// Sets the per-region mechanism gates the *next* record is served
    /// under, in every lane. An adaptive policy engine calls this before
    /// every [`apply_lanes_into`](Self::apply_lanes_into); without a policy the
    /// gates stay at their permissive default and behaviour is identical
    /// to the fixed mechanisms.
    pub fn set_gates(&mut self, gates: GateSet) {
        for lane in &mut self.lanes {
            lane.gates = gates;
        }
    }

    /// [`set_gates`](Self::set_gates) for lane `k` alone: the prefetch
    /// window and cache admission of its next read, and, for lane 0, the
    /// defragmentation rewrite.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a lane.
    pub fn set_lane_gates(&mut self, k: usize, gates: GateSet) {
        self.lanes[k].gates = gates;
    }

    /// Whether the most recent read record was fragmented (translated to
    /// more than one physical run), whatever its lanes then served from a
    /// cache or buffer. False before the first read.
    pub fn last_read_fragmented(&self) -> bool {
        self.last_read_fragmented
    }

    /// Rewrites every range queued for idle-time defragmentation as one
    /// batch at the frontier (a single seek for the whole batch), emitting
    /// the physical writes to every lane. Runs when an idle gap is
    /// detected.
    fn flush_defrag_queue_into(&mut self, sink: &mut dyn FnMut(usize, PhysIo)) {
        let pending = std::mem::take(&mut self.pending_defrag);
        let mut runs = std::mem::take(&mut self.runs);
        for (lba, sectors) in pending {
            // Skip ranges that became contiguous in the meantime (e.g. a
            // host overwrite re-wrote the whole range).
            self.physical_runs_into(lba, sectors, &mut runs);
            if runs.len() < 2 {
                continue;
            }
            self.append_into(lba, sectors, sink);
            self.stats.defrag_rewrites += 1;
            self.stats.defrag_sectors += sectors;
        }
        self.runs = runs;
    }

    /// Appends `sectors` at the frontier for logical range starting `lba`
    /// and emits the physical write to every lane: writes go to the
    /// shared log, so every configuration pays them.
    fn append_into(&mut self, lba: Lba, sectors: u64, sink: &mut dyn FnMut(usize, PhysIo)) {
        let io = PhysIo::write(self.frontier, sectors);
        self.map.insert(lba, sectors, io.pba);
        self.frontier += sectors;
        self.stats.phys_writes += 1;
        for k in 0..self.lanes.len() {
            sink(k, io);
        }
    }

    /// The physically-contiguous runs a read of `[lba, lba+sectors)` must
    /// fetch, holes resolved to identity placement, adjacent pieces merged,
    /// into `runs`, which is cleared first.
    fn physical_runs_into(&self, lba: Lba, sectors: u64, runs: &mut Vec<(Pba, u64)>) {
        runs.clear();
        // lookup_each folds the tiles without materializing a segment Vec —
        // this runs once per translated read, the hottest map operation.
        self.map.lookup_each(lba, sectors, |seg| {
            let (start, len) = match seg {
                Segment::Mapped(e) => (e.pba, e.sectors),
                Segment::Hole { lba, sectors } => (Pba::new(lba.sector()), sectors),
            };
            match runs.last_mut() {
                Some(last) if last.0 + last.1 == start => last.1 += len,
                _ => runs.push((start, len)),
            }
        });
    }

    fn handle_read_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(usize, PhysIo)) {
        let sectors = u64::from(rec.sectors);
        // Taken for the read and put back at the end, keeping its capacity.
        let mut runs = std::mem::take(&mut self.runs);
        self.physical_runs_into(rec.lba, sectors, &mut runs);
        let fragmented = runs.len() > 1;
        self.last_read_fragmented = fragmented;
        if fragmented {
            self.stats.fragmented_reads += 1;
            if let Some(tracker) = &mut self.tracker {
                tracker.record_read(&runs);
            }
        }

        for (k, lane) in self.lanes.iter_mut().enumerate() {
            lane.read_runs(&runs, &mut |io| sink(k, io));
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
                if self.lanes[0].gates.defrag
                    && runs.len() >= d.min_fragments
                    && *count >= d.min_accesses
                {
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
        self.runs = runs;
    }

    /// Applies one record, calling `sink` with each of lane 0's physical
    /// operations in the order the medium performs them:
    /// [`apply_lanes_into`](Self::apply_lanes_into) for a single-lane
    /// layer.
    pub fn apply_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        self.apply_lanes_into(rec, &mut |k, io| {
            if k == 0 {
                sink(io);
            }
        });
    }

    /// Applies one record to the shared translation and every lane,
    /// calling `sink(k, io)` with each of lane `k`'s physical operations.
    /// Per lane the order is the one a single-lane layer of that lane's
    /// configuration would emit; writes (host and defragmentation) go to
    /// every lane.
    pub fn apply_lanes_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(usize, PhysIo)) {
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

    /// Lane 0's physical operations for `rec`.
    fn apply(ls: &mut LogStructured, rec: &TraceRecord) -> Vec<PhysIo> {
        let mut ios = Vec::new();
        ls.apply_into(rec, &mut |io| ios.push(io));
        ios
    }

    fn plain(frontier: u64) -> LogStructured {
        LogStructured::new(LsConfig::new(lba(frontier)))
    }

    #[test]
    fn writes_append_sequentially() {
        let mut ls = plain(1000);
        let a = apply(&mut ls, &TraceRecord::write(0, lba(500), 8));
        let b = apply(&mut ls, &TraceRecord::write(1, lba(0), 4));
        assert_eq!(a, vec![PhysIo::write(pba(1000), 8)]);
        assert_eq!(b, vec![PhysIo::write(pba(1008), 4)]);
        assert_eq!(ls.frontier(), pba(1012));
        assert_eq!(ls.stats().logical_writes, 2);
    }

    #[test]
    fn read_of_unwritten_data_is_identity() {
        let mut ls = plain(1000);
        let r = apply(&mut ls, &TraceRecord::read(0, lba(10), 8));
        assert_eq!(r, vec![PhysIo::read(pba(10), 8)]);
        assert_eq!(ls.stats().fragmented_reads, 0);
    }

    #[test]
    fn read_after_write_translates() {
        let mut ls = plain(1000);
        apply(&mut ls, &TraceRecord::write(0, lba(50), 8));
        let r = apply(&mut ls, &TraceRecord::read(1, lba(50), 8));
        assert_eq!(r, vec![PhysIo::read(pba(1000), 8)]);
    }

    #[test]
    fn update_fragments_subsequent_read() {
        // The paper's Fig 6 scenario: contiguous data fragmented by updates.
        let mut ls = plain(1000);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6)); // LBA 0..6 at 1000..1006
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1)); // update LBA 2 -> 1006
        apply(&mut ls, &TraceRecord::write(2, lba(4), 1)); // update LBA 4 -> 1007
        let r = apply(&mut ls, &TraceRecord::read(3, lba(1), 4)); // read LBA 1..5
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
        apply(&mut ls, &TraceRecord::write(0, lba(10), 2)); // 10..12 -> 1000..1002
                                                            // Read 8..14: hole [8,10) @8, mapped [10,12) @1000, hole [12,14) @12.
        let r = apply(&mut ls, &TraceRecord::read(1, lba(8), 6));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 4));
        apply(&mut ls, &TraceRecord::write(1, lba(4), 4));
        apply(&mut ls, &TraceRecord::write(2, lba(8), 4));
        let r = apply(&mut ls, &TraceRecord::read(3, lba(0), 12));
        assert_eq!(r, vec![PhysIo::read(pba(1000), 12)]);
    }

    #[test]
    fn defrag_rewrites_fragmented_read() {
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::default());
        let mut ls = LogStructured::new(cfg);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        let r1 = apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        // 3 fragment reads + 1 defrag write at the frontier.
        assert_eq!(r1.len(), 4);
        let w = r1.last().unwrap();
        assert_eq!(w.op, OpKind::Write);
        assert_eq!(w.sectors, 6);
        assert_eq!(ls.stats().defrag_rewrites, 1);
        assert_eq!(ls.stats().defrag_sectors, 6);
        // Re-read: now contiguous, single physical read, no more rewrites.
        let r2 = apply(&mut ls, &TraceRecord::read(3, lba(0), 6));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        // 3 fragments -> meets N=3.
        let r = apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 1);
        assert_eq!(r.len(), 4);
        // A 2-fragment read elsewhere does not trigger.
        apply(&mut ls, &TraceRecord::write(3, lba(100), 2));
        let r = apply(&mut ls, &TraceRecord::read(4, lba(100), 3)); // mapped + hole
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        apply(&mut ls, &TraceRecord::read(2, lba(0), 6)); // 1st access: no rewrite
        assert_eq!(ls.stats().defrag_rewrites, 0);
        apply(&mut ls, &TraceRecord::read(3, lba(0), 6)); // 2nd access: rewrite
        assert_eq!(ls.stats().defrag_rewrites, 1);
        apply(&mut ls, &TraceRecord::read(4, lba(0), 6)); // now defragmented
        assert_eq!(ls.stats().defrag_rewrites, 1);
    }

    #[test]
    fn selective_cache_absorbs_repeat_fragmented_reads() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::new(cfg);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        let r1 = apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        assert_eq!(r1.len(), 3); // all misses -> all disk reads
        assert_eq!(ls.stats().cache_miss_fragments, 3);
        let r2 = apply(&mut ls, &TraceRecord::read(3, lba(0), 6));
        assert!(r2.is_empty(), "fully cached: no physical I/O");
        assert_eq!(ls.stats().cache_hit_fragments, 3);
    }

    #[test]
    fn unfragmented_reads_bypass_cache() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::new(cfg);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        let r1 = apply(&mut ls, &TraceRecord::read(1, lba(0), 6));
        let r2 = apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6)); // 0..6 @10000
        apply(&mut ls, &TraceRecord::write(1, lba(3), 1)); // @10006
        apply(&mut ls, &TraceRecord::write(2, lba(2), 1)); // @10007
        apply(&mut ls, &TraceRecord::write(3, lba(4), 1)); // @10008
                                                           // Read 0..6: fragments @10000(len2), @10007(1), @10006(1), @10008(1), @10005(1)
        let r = apply(&mut ls, &TraceRecord::read(4, lba(0), 6));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 4)); // @100000
                                                           // Push the frontier far away.
        apply(&mut ls, &TraceRecord::write(1, lba(1000), 5000)); // @100004..105004
        apply(&mut ls, &TraceRecord::write(2, lba(2), 1)); // @105004
        let r = apply(&mut ls, &TraceRecord::read(3, lba(0), 4));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        apply(&mut ls, &TraceRecord::read(3, lba(0), 6));
        apply(&mut ls, &TraceRecord::read(4, lba(100), 1)); // unfragmented: ignored
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
            apply(&mut ls, &TraceRecord::write(t, lba(base), 8));
            apply(&mut ls, &TraceRecord::write(t + 1, lba(base + 2), 2));
        }
        apply(&mut ls, &TraceRecord::read(20, lba(0), 8)); // fills RAM, misses
        apply(&mut ls, &TraceRecord::read(21, lba(100), 8)); // evicts range 0 to flash
        let r = apply(&mut ls, &TraceRecord::read(22, lba(0), 8));
        assert!(r.is_empty(), "flash absorbed the re-read: {r:?}");
        let tiers = ls.tier_stats().unwrap();
        assert!(tiers.flash_hits > 0, "{tiers:?}");
        assert!(tiers.demoted_sectors > 0, "{tiers:?}");
    }

    #[test]
    fn cache_admit_gate_denies_fills() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::new(cfg);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        ls.set_gates(GateSet {
            cache_admit: false,
            ..GateSet::default()
        });
        let r1 = apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        let r2 = apply(&mut ls, &TraceRecord::read(3, lba(0), 6));
        assert_eq!(r1.len(), 3);
        assert_eq!(r2.len(), 3, "denied fills: second read still hits disk");
        assert_eq!(ls.stats().cache_hit_fragments, 0);
        assert_eq!(ls.stats().cache_miss_fragments, 0, "denied fills uncounted");
        // Re-admitting restores Alg. 3 behaviour.
        ls.set_gates(GateSet::default());
        apply(&mut ls, &TraceRecord::read(4, lba(0), 6));
        let r = apply(&mut ls, &TraceRecord::read(5, lba(0), 6));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        ls.set_gates(GateSet {
            defrag: false,
            ..GateSet::default()
        });
        apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        apply(&mut ls, &TraceRecord::read(3, lba(0), 6));
        apply(&mut ls, &TraceRecord::read(4, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 0, "gate vetoed every rewrite");
        // The access count kept accumulating, so the first gated-open
        // fragmented read rewrites immediately.
        ls.set_gates(GateSet::default());
        apply(&mut ls, &TraceRecord::read(5, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 1);
    }

    #[test]
    fn lane_gates_apply_to_their_own_lane() {
        let cfg = LsConfig::new(lba(1000)).with_cache(CacheConfig::default());
        let mut ls = LogStructured::with_lanes(&[cfg, cfg]);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        ls.set_lane_gates(
            1,
            GateSet {
                cache_admit: false,
                ..GateSet::default()
            },
        );
        let mut read = |t: u64| {
            let mut ios = [0usize; 2];
            ls.apply_lanes_into(&TraceRecord::read(t, lba(0), 6), &mut |k, _| ios[k] += 1);
            ios
        };
        assert_eq!(read(2), [3, 3]);
        // Lane 0 admitted the fragments; lane 1 was denied the fills.
        assert_eq!(read(3), [0, 3]);
        assert!(ls.last_read_fragmented());
        assert_eq!(ls.lane_stats(0).cache_hit_fragments, 3);
        assert_eq!(ls.lane_stats(1).cache_hit_fragments, 0);
        apply(&mut ls, &TraceRecord::read(4, lba(100), 4));
        assert!(!ls.last_read_fragmented(), "an unfragmented read clears it");
    }

    #[test]
    fn lane_zero_gates_decide_defrag() {
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::default());
        let deny = GateSet {
            defrag: false,
            ..GateSet::default()
        };
        let mut ls = LogStructured::with_lanes(&[cfg, cfg]);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        ls.set_lane_gates(1, deny);
        apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        assert_eq!(
            ls.stats().defrag_rewrites,
            1,
            "lane 1's gate is not consulted"
        );
        apply(&mut ls, &TraceRecord::write(3, lba(2), 1));
        ls.set_lane_gates(0, deny);
        apply(&mut ls, &TraceRecord::read(4, lba(0), 6));
        assert_eq!(ls.stats().defrag_rewrites, 1, "lane 0's gate vetoed it");
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
            apply(&mut ls, &TraceRecord::write(0, lba(0), 4)); // @100000
            apply(&mut ls, &TraceRecord::write(1, lba(1000), 5000)); // push frontier
            apply(&mut ls, &TraceRecord::write(2, lba(2), 1)); // @105004
            ls.set_gates(GateSet {
                prefetch: window,
                ..GateSet::default()
            });
            apply(&mut ls, &TraceRecord::read(3, lba(0), 4));
            assert_eq!(ls.stats().prefetch_hit_fragments, 1);
            prefetched.push(ls.stats().prefetched_sectors);
        }
        assert!(prefetched[0] < prefetched[1], "{prefetched:?}");
        assert!(prefetched[1] < prefetched[2], "{prefetched:?}");
    }

    #[test]
    fn name_reflects_mechanisms() {
        assert_eq!(plain(0).lane_name(0), "LS");
        let d = LogStructured::new(LsConfig::default().with_defrag(DefragConfig::default()));
        assert_eq!(d.lane_name(0), "LS+defrag");
        let p = LogStructured::new(LsConfig::default().with_prefetch(PrefetchConfig::default()));
        assert_eq!(p.lane_name(0), "LS+prefetch");
        let c = LogStructured::new(LsConfig::default().with_cache(CacheConfig::default()));
        assert_eq!(c.lane_name(0), "LS+cache");
        let c2 = LogStructured::new(
            LsConfig::default()
                .with_cache(CacheConfig::default())
                .with_flash_cache(1 << 20),
        );
        assert_eq!(c2.lane_name(0), "LS+cache2");
        let all = LogStructured::new(
            LsConfig::default()
                .with_defrag(DefragConfig::default())
                .with_cache(CacheConfig::default()),
        );
        assert_eq!(all.lane_name(0), "LS+combined");
    }

    #[test]
    fn idle_defrag_queues_until_gap() {
        use crate::config::DefragConfig;
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::idle(10_000));
        let mut ls = LogStructured::new(cfg);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(100, lba(2), 1));
        // Fragmented read: queues, does not rewrite inline.
        let r = apply(&mut ls, &TraceRecord::read(200, lba(0), 6));
        assert_eq!(r.len(), 3, "no inline rewrite: {r:?}");
        assert_eq!(ls.pending_defrag, &[(lba(0), 6)]);
        assert_eq!(ls.stats().defrag_rewrites, 0);
        // Next op arrives within the gap: still queued.
        let r = apply(&mut ls, &TraceRecord::read(5_000, lba(0), 6));
        assert_eq!(r.len(), 3);
        assert_eq!(ls.pending_defrag.len(), 1); // dedup via access gate reset
                                                // An op after a >=10ms gap flushes the queue first.
        let r = apply(&mut ls, &TraceRecord::read(50_000, lba(0), 6));
        let writes: Vec<_> = r.iter().filter(|io| io.op == OpKind::Write).collect();
        assert_eq!(writes.len(), 1, "batched rewrite: {r:?}");
        assert_eq!(ls.stats().defrag_rewrites, 1);
        assert!(ls.pending_defrag.is_empty());
        // The read that triggered the flush now sees defragmented data.
        let r = apply(&mut ls, &TraceRecord::read(50_100, lba(0), 6));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn idle_defrag_batch_is_sequential_at_frontier() {
        use crate::config::DefragConfig;
        let cfg = LsConfig::new(lba(1000)).with_defrag(DefragConfig::idle(1_000));
        let mut ls = LogStructured::new(cfg);
        // Create two separate fragmented ranges.
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        apply(&mut ls, &TraceRecord::write(2, lba(100), 6));
        apply(&mut ls, &TraceRecord::write(3, lba(102), 1));
        apply(&mut ls, &TraceRecord::read(4, lba(0), 6));
        apply(&mut ls, &TraceRecord::read(5, lba(100), 6));
        assert_eq!(ls.pending_defrag.len(), 2);
        // Idle gap: the next op is preceded by BOTH rewrites,
        // back-to-back at the frontier (physically contiguous).
        let r = apply(&mut ls, &TraceRecord::read(1_000_000, lba(500), 1));
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
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        apply(&mut ls, &TraceRecord::read(2, lba(0), 6)); // queued
                                                          // The host overwrites the whole range: now contiguous by itself.
        apply(&mut ls, &TraceRecord::write(3, lba(0), 6));
        let mut flushed = Vec::new();
        ls.flush_defrag_queue_into(&mut |_, io| flushed.push(io));
        assert!(
            flushed.is_empty(),
            "nothing left to defragment: {flushed:?}"
        );
        assert_eq!(ls.stats().defrag_rewrites, 0);
    }

    #[test]
    fn stats_count_physical_ops() {
        let mut ls = plain(1000);
        apply(&mut ls, &TraceRecord::write(0, lba(0), 6));
        apply(&mut ls, &TraceRecord::write(1, lba(2), 1));
        apply(&mut ls, &TraceRecord::read(2, lba(0), 6));
        let s = ls.stats();
        assert_eq!(s.phys_writes, 2);
        assert_eq!(s.phys_reads, 3);
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.logical_writes, 2);
        assert!((s.fragmented_read_rate() - 1.0).abs() < 1e-12);
    }
}
