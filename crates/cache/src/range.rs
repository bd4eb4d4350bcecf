//! An LRU-evicted cache of sector ranges in physical (PBA) space.

use smrseek_extent::{Pos, SortedIndex};
use smrseek_trace::{Pba, SECTOR_SIZE};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    start: u64,
    sectors: u64,
    prev: usize,
    next: usize,
}

/// Aggregate hit/miss statistics of a [`RangeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeCacheStats {
    /// `covers` queries answered `true`.
    pub hits: u64,
    /// `covers` queries answered `false`.
    pub misses: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
}

impl RangeCacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no queries were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU-evicted set of disjoint sector ranges over PBA space with a byte
/// budget.
///
/// This models a data cache indexed by physical location (the paper's
/// selective-caching fragments and prefetch buffers are both such caches):
/// only presence and recency are tracked, not payloads. In a log-structured
/// system physical sectors are written once and never re-used (infinite
/// disk), so entries never become incoherent — superseded data simply stops
/// being referenced and ages out.
///
/// Ranges are stored at insert granularity (entries are not merged), so LRU
/// eviction keeps the granularity of the original insertions. A
/// [`SortedIndex`] maps each range's start to its slab node, so `covers`
/// and `insert` each do one search and no allocation.
///
/// # Example
///
/// ```
/// use smrseek_cache::RangeCache;
/// use smrseek_trace::Pba;
///
/// let mut c = RangeCache::with_capacity_sectors(64);
/// c.insert(Pba::new(100), 16);
/// c.insert(Pba::new(116), 16); // adjacent but separately evictable
/// assert!(c.covers(Pba::new(100), 32));
/// assert!(!c.covers(Pba::new(96), 8)); // partially outside
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCache {
    by_start: SortedIndex<usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    sectors_used: u64,
    capacity_sectors: u64,
    stats: RangeCacheStats,
}

impl RangeCache {
    /// Creates a cache with a budget of `capacity_sectors` sectors.
    pub fn with_capacity_sectors(capacity_sectors: u64) -> Self {
        RangeCache {
            by_start: SortedIndex::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            sectors_used: 0,
            capacity_sectors,
            stats: RangeCacheStats::default(),
        }
    }

    /// Creates a cache with a budget of `capacity_bytes` bytes (rounded
    /// down to whole sectors).
    pub fn with_capacity_bytes(capacity_bytes: u64) -> Self {
        Self::with_capacity_sectors(capacity_bytes / SECTOR_SIZE)
    }

    /// Budget in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// Cached sectors.
    pub fn sectors_used(&self) -> u64 {
        self.sectors_used
    }

    /// Cached bytes.
    pub fn bytes_used(&self) -> u64 {
        self.sectors_used * SECTOR_SIZE
    }

    /// Number of cached ranges.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> RangeCacheStats {
        self.stats
    }

    /// Returns `true` — and refreshes the recency of every involved entry —
    /// if `[pba, pba + sectors)` is entirely covered by cached ranges.
    ///
    /// Zero-length queries are vacuously covered and counted as hits.
    pub fn covers(&mut self, pba: Pba, sectors: u64) -> bool {
        matches!(self.probe(pba, sectors), Probe::Covered)
    }

    /// [`covers`](Self::covers) that, on a miss, keeps the position its
    /// search found, so the range can then be inserted with
    /// [`Uncovered::insert_evicting`] without a second search.
    pub fn probe(&mut self, pba: Pba, sectors: u64) -> Probe<'_> {
        let start = pba.sector();
        let first = self.by_start.lower_bound(start);
        match self.covering_run(first, start, sectors) {
            Some((mut pos, count)) => {
                for _ in 0..count {
                    let (_, idx) = self.by_start.get(pos).expect("run entry");
                    self.unlink(idx);
                    self.push_front(idx);
                    pos = self.by_start.next(pos);
                }
                self.stats.hits += 1;
                Probe::Covered
            }
            None => {
                self.stats.misses += 1;
                Probe::Uncovered(Uncovered {
                    cache: self,
                    first,
                    start,
                    sectors,
                })
            }
        }
    }

    /// Like [`covers`](Self::covers) but without touching recency or
    /// counting toward statistics.
    pub fn peek_covers(&self, pba: Pba, sectors: u64) -> bool {
        let start = pba.sector();
        let first = self.by_start.lower_bound(start);
        self.covering_run(first, start, sectors).is_some()
    }

    /// Inserts `[pba, pba + sectors)`, creating entries only for the
    /// currently-uncovered gaps (existing overlapping entries are touched),
    /// then evicts least-recently-used ranges to fit the budget. Returns
    /// the number of sectors evicted.
    pub fn insert(&mut self, pba: Pba, sectors: u64) -> u64 {
        self.insert_evicting(pba, sectors, &mut |_, _| {})
    }

    /// Like [`insert`](Self::insert), but reports each evicted range to
    /// `on_evict` as `(start, sectors)` in eviction (LRU-first) order.
    /// Multi-level caches use this to demote RAM victims to a lower tier
    /// instead of dropping them.
    pub fn insert_evicting(
        &mut self,
        pba: Pba,
        sectors: u64,
        on_evict: &mut dyn FnMut(Pba, u64),
    ) -> u64 {
        if sectors == 0 {
            return 0;
        }
        let start = pba.sector();
        let first = self.by_start.lower_bound(start);
        self.insert_at(first, start, sectors, on_evict)
    }

    /// The body of [`insert_evicting`](Self::insert_evicting) for a
    /// non-empty range, given `first`, the index's lower bound of `start`.
    fn insert_at(
        &mut self,
        first: Pos,
        start: u64,
        sectors: u64,
        on_evict: &mut dyn FnMut(Pba, u64),
    ) -> u64 {
        let end = start + sectors;

        // Touch the overlapping entries in PBA order first, then add the
        // gaps in PBA order, so the gaps end up most recently used.
        let mut cursor = start;
        if let Some(p) = self.by_start.prev(first) {
            let (_, idx) = self.by_start.get(p).expect("prev is an entry");
            let n_end = self.nodes[idx].start + self.nodes[idx].sectors;
            if n_end > start {
                self.unlink(idx);
                self.push_front(idx);
                cursor = n_end.min(end);
            }
        }
        let mut pos = first;
        while let Some((es, idx)) = self.by_start.get(pos).filter(|&(es, _)| es < end) {
            debug_assert_eq!(es, self.nodes[idx].start);
            self.unlink(idx);
            self.push_front(idx);
            pos = self.by_start.next(pos);
        }

        let mut pos = first;
        while cursor < end {
            let (gap_end, covered) = match self.by_start.get(pos) {
                Some((es, idx)) if es < end => (es, Some(idx)),
                _ => (end, None),
            };
            if gap_end > cursor {
                let idx = self.alloc_node(cursor, gap_end - cursor);
                pos = self.by_start.insert_at(pos, cursor, idx);
                pos = self.by_start.next(pos);
                self.sectors_used += gap_end - cursor;
                self.push_front(idx);
            }
            cursor = match covered {
                Some(idx) => {
                    pos = self.by_start.next(pos);
                    (self.nodes[idx].start + self.nodes[idx].sectors).min(end)
                }
                None => end,
            };
        }
        self.evict_to_budget(on_evict)
    }

    /// Drops every cached range.
    pub fn clear(&mut self) {
        self.by_start.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.sectors_used = 0;
    }

    /// Cached ranges in PBA order as `(start, sectors)` pairs.
    pub fn ranges(&self) -> Vec<(Pba, u64)> {
        self.by_start
            .iter()
            .map(|(_, i)| (Pba::new(self.nodes[i].start), self.nodes[i].sectors))
            .collect()
    }

    /// The run of consecutive entries covering `[start, start + sectors)`
    /// in full, as the position of its first entry and its length, or
    /// `None` if any sector is uncovered. A zero-length query is covered;
    /// its run is the entry holding `start`, if any. `pos` is the index's
    /// lower bound of `start`. Never mutates.
    fn covering_run(&self, pos: Pos, start: u64, sectors: u64) -> Option<(Pos, usize)> {
        let end = start + sectors;
        let vacuous = (sectors == 0).then_some((self.by_start.end(), 0));
        let first = match self.by_start.get(pos) {
            Some((s, _)) if s == start => pos,
            _ => match self.by_start.prev(pos) {
                Some(p) => p,
                None => return vacuous,
            },
        };
        let (_, idx) = self.by_start.get(first)?;
        let mut cursor = self.nodes[idx].start + self.nodes[idx].sectors;
        if cursor <= start {
            return vacuous;
        }
        let (mut pos, mut count) = (first, 1);
        while cursor < end {
            pos = self.by_start.next(pos);
            match self.by_start.get(pos) {
                Some((s, idx)) if s == cursor => {
                    cursor += self.nodes[idx].sectors;
                    count += 1;
                }
                _ => return None, // gap
            }
        }
        Some((first, count))
    }

    fn alloc_node(&mut self, start: u64, sectors: u64) -> usize {
        let node = Node {
            start,
            sectors,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn evict_to_budget(&mut self, on_evict: &mut dyn FnMut(Pba, u64)) -> u64 {
        let mut evicted = 0;
        while self.sectors_used > self.capacity_sectors && self.by_start.len() > 1 {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let (start, len) = (self.nodes[victim].start, self.nodes[victim].sectors);
            let pos = self.by_start.lower_bound(start);
            debug_assert_eq!(self.by_start.get(pos), Some((start, victim)));
            self.by_start.remove_at(pos);
            self.unlink(victim);
            self.sectors_used -= len;
            self.free.push(victim);
            evicted += len;
            self.stats.evictions += 1;
            on_evict(Pba::new(start), len);
        }
        evicted
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// What [`RangeCache::probe`] found.
#[derive(Debug)]
pub enum Probe<'a> {
    /// The range is cached in full; its entries' recency was refreshed and
    /// a hit counted.
    Covered,
    /// Some sector is missing; a miss was counted.
    Uncovered(Uncovered<'a>),
}

/// A range [`RangeCache::probe`] found uncovered, holding the position of
/// that search. The cache stays borrowed until it is inserted or dropped,
/// so the position cannot go stale.
#[derive(Debug)]
pub struct Uncovered<'a> {
    cache: &'a mut RangeCache,
    first: Pos,
    start: u64,
    sectors: u64,
}

impl Uncovered<'_> {
    /// Inserts the probed range exactly as
    /// [`RangeCache::insert_evicting`] would, reusing the probe's search.
    pub fn insert_evicting(self, on_evict: &mut dyn FnMut(Pba, u64)) -> u64 {
        // A zero-length probe is always covered, so `sectors > 0` here.
        self.cache
            .insert_at(self.first, self.start, self.sectors, on_evict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn empty_cache_covers_nothing() {
        let mut c = RangeCache::with_capacity_sectors(100);
        assert!(c.is_empty());
        assert!(!c.covers(pba(0), 1));
        assert!(c.covers(pba(0), 0)); // vacuous
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn exact_and_partial_coverage() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(10), 10);
        assert!(c.covers(pba(10), 10));
        assert!(c.covers(pba(12), 4));
        assert!(!c.covers(pba(5), 10));
        assert!(!c.covers(pba(15), 10));
        assert!(!c.covers(pba(30), 1));
    }

    #[test]
    fn coverage_across_multiple_entries() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(0), 10);
        c.insert(pba(10), 10);
        c.insert(pba(20), 10);
        assert!(c.covers(pba(5), 20)); // spans three entries
        c.insert(pba(40), 5);
        assert!(!c.covers(pba(25), 20)); // gap [30,40)
    }

    #[test]
    fn insert_fills_only_gaps() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(10), 10);
        c.insert(pba(5), 20); // covers [5,10) and [20,25) as new entries
        assert_eq!(c.sectors_used(), 20);
        assert_eq!(c.len(), 3);
        assert!(c.covers(pba(5), 20));
    }

    #[test]
    fn eviction_is_lru_over_ranges() {
        let mut c = RangeCache::with_capacity_sectors(30);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        c.insert(pba(200), 10);
        assert!(c.covers(pba(0), 10)); // refresh the oldest
        c.insert(pba(300), 10); // must evict [100,110)
        assert!(c.peek_covers(pba(0), 10));
        assert!(!c.peek_covers(pba(100), 10));
        assert!(c.peek_covers(pba(200), 10));
        assert!(c.peek_covers(pba(300), 10));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.sectors_used(), 30);
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = RangeCache::with_capacity_sectors(20);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        assert!(c.peek_covers(pba(0), 10)); // would refresh if it touched
        c.insert(pba(200), 10); // evicts true LRU: [0,10)
        assert!(!c.peek_covers(pba(0), 10));
        assert!(c.peek_covers(pba(100), 10));
    }

    #[test]
    fn covering_query_protects_from_eviction() {
        let mut c = RangeCache::with_capacity_sectors(20);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        assert!(c.covers(pba(0), 10)); // touch
        c.insert(pba(200), 10); // evicts [100,110)
        assert!(c.peek_covers(pba(0), 10));
        assert!(!c.peek_covers(pba(100), 10));
    }

    #[test]
    fn byte_capacity_constructor() {
        let c = RangeCache::with_capacity_bytes(64 * 1024 * 1024);
        assert_eq!(c.capacity_sectors(), 131_072);
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(0), 50);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.sectors_used(), 0);
        assert!(!c.covers(pba(0), 1));
        c.insert(pba(0), 10);
        assert!(c.covers(pba(0), 10));
    }

    #[test]
    fn ranges_listing_sorted() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(50), 5);
        c.insert(pba(0), 5);
        assert_eq!(c.ranges(), vec![(pba(0), 5), (pba(50), 5)]);
    }

    #[test]
    fn overlapping_insert_touches_existing() {
        let mut c = RangeCache::with_capacity_sectors(25);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        // Overlapping insert refreshes [0,10) and adds [10,15).
        c.insert(pba(0), 15);
        c.insert(pba(200), 10); // evicts LRU = [100,110)
        assert!(c.peek_covers(pba(0), 15));
        assert!(!c.peek_covers(pba(100), 10));
    }

    #[test]
    fn insert_evicting_reports_victims_lru_first() {
        let mut c = RangeCache::with_capacity_sectors(30);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        c.insert(pba(200), 10);
        let mut victims = Vec::new();
        let n = c.insert_evicting(pba(300), 20, &mut |p, len| victims.push((p, len)));
        assert_eq!(n, 20);
        assert_eq!(victims, vec![(pba(0), 10), (pba(100), 10)]);
        assert!(!c.peek_covers(pba(0), 1));
        assert!(c.peek_covers(pba(200), 10));
        assert!(c.peek_covers(pba(300), 20));
    }

    #[test]
    fn heavy_churn_reuses_slab() {
        let mut c = RangeCache::with_capacity_sectors(64);
        for i in 0..10_000u64 {
            c.insert(pba(i * 1000), 32);
        }
        assert!(c.nodes.len() <= 64, "slab grew to {}", c.nodes.len());
        assert!(c.sectors_used() <= 64);
    }
}
