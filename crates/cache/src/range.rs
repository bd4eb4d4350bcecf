//! An LRU-evicted cache of sector ranges in physical (PBA) space.

use smrseek_trace::{Pba, SECTOR_SIZE};
use std::fmt;

/// The null link of the LRU list, and the node of an empty table slot.
const NIL: u32 = u32::MAX;

/// The fewest slots the bucket table is allocated with.
const MIN_SLOTS: usize = 16;

/// The bucket table keeps at least this many slots per occupied one:
/// probe runs stay short, and so does every scan and backward shift.
const SPREAD: usize = 4;

/// Fibonacci hashing's multiplier (2^64 / φ, odd): consecutive start
/// buckets land on unrelated slots.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Node {
    start: u64,
    sectors: u64,
    prev: u32,
    next: u32,
}

impl Node {
    fn end(&self) -> u64 {
        self.start + self.sectors
    }
}

/// One slot of the bucket table: a piece `[start, start + len)` of a
/// live range and the range's node, or `node == NIL` when free. A range
/// has one piece in each bucket it touches (one, or two when it crosses a
/// boundary): the whole range in the bucket it starts in, and its tail
/// from the boundary on in the next. A piece is homed at the hash of the
/// bucket holding its `start`. `len` saturates at `u32::MAX`, past which
/// the piece ends where its range does.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u64,
    len: u32,
    node: u32,
}

const FREE: Slot = Slot {
    start: 0,
    len: 0,
    node: NIL,
};

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
/// eviction keeps the granularity of the original insertions. Entries
/// live in a slab threaded by an LRU list, so eviction drops the tail in
/// O(1). A hash table files each range under every fixed-width bucket of
/// PBA space it touches. The bucket width is a power of two at least as
/// wide as the widest range ever stored, so a range touches at most two
/// buckets, the range holding a sector is filed under that sector's
/// bucket, and no lookup searches an order.
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
#[derive(Clone)]
pub struct RangeCache {
    /// The slab; `prev`/`next` link live nodes most recent first.
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Linear-probing table of every live range's pieces (see [`Slot`]);
    /// its length is a power of two, at least `SPREAD` times `slots`.
    table: Vec<Slot>,
    /// Occupied slots of `table`.
    slots: usize,
    /// `log2` of the bucket width, which is never narrower than a stored
    /// range.
    shift: u32,
    len: usize,
    sectors_used: u64,
    capacity_sectors: u64,
    stats: RangeCacheStats,
    /// Reused per insert: the overlapped entries as `(start, node)`.
    overlaps: Vec<(u64, u32)>,
}

/// Where [`RangeCache::find_run`] found a range's first uncovered sector.
#[derive(Debug)]
enum Gap {
    /// Nothing overlaps the range, it lies inside one bucket, and this
    /// free slot ends that bucket's probe run: the range can be filed
    /// there without another lookup.
    Vacant(usize),
    /// Anything else.
    Other,
}

impl RangeCache {
    /// Creates a cache with a budget of `capacity_sectors` sectors.
    pub fn with_capacity_sectors(capacity_sectors: u64) -> Self {
        RangeCache {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            table: vec![FREE; MIN_SLOTS],
            slots: 0,
            shift: 0,
            len: 0,
            sectors_used: 0,
            capacity_sectors,
            stats: RangeCacheStats::default(),
            overlaps: Vec::new(),
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
        self.len
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// [`covers`](Self::covers) that, on a miss, hands the cache back
    /// with what its lookup found, so the range — or a wider one around
    /// it — can then be inserted through [`Uncovered`].
    pub fn probe(&mut self, pba: Pba, sectors: u64) -> Probe<'_> {
        let start = pba.sector();
        match self.find_run(start, sectors) {
            Ok((first, count)) => {
                let mut idx = first;
                for i in 0..count {
                    self.unlink(idx);
                    self.push_front(idx);
                    if i + 1 < count {
                        idx = self
                            .holding(self.nodes[idx as usize].end())
                            .expect("run entry");
                    }
                }
                self.stats.hits += 1;
                Probe::Covered
            }
            Err(gap) => {
                self.stats.misses += 1;
                Probe::Uncovered(Uncovered {
                    cache: self,
                    start,
                    sectors,
                    gap,
                })
            }
        }
    }

    /// Like [`covers`](Self::covers) but without touching recency or
    /// counting toward statistics.
    pub fn peek_covers(&self, pba: Pba, sectors: u64) -> bool {
        self.find_run(pba.sector(), sectors).is_ok()
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
        let end = start + sectors;
        if sectors > 1 << self.shift {
            self.widen(sectors);
        }

        // Every entry overlapping the range is filed under one of the
        // buckets the range touches: at most two, since no range is wider
        // than a bucket.
        let mut overlaps = std::mem::take(&mut self.overlaps);
        overlaps.clear();
        let (mut bucket, last) = (start >> self.shift, (end - 1) >> self.shift);
        loop {
            let mut i = self.home(bucket);
            while let Some(slot) = self.occupied(i) {
                if slot.start < end && self.piece_end(slot) > start {
                    overlaps.push((self.nodes[slot.node as usize].start, slot.node));
                }
                i = (i + 1) & (self.table.len() - 1);
            }
            if bucket == last {
                break;
            }
            bucket = last;
        }
        if overlaps.len() > 1 {
            // A range filed under both buckets was seen twice.
            overlaps.sort_unstable();
            overlaps.dedup();
        }

        // Touch the overlapping entries in PBA order first, then add the
        // gaps in PBA order, so the gaps end up most recently used.
        for &(_, idx) in &overlaps {
            self.unlink(idx);
            self.push_front(idx);
        }
        let mut cursor = start;
        for i in 0..=overlaps.len() {
            let (gap_end, next) = match overlaps.get(i) {
                Some(&(es, idx)) => (es, self.nodes[idx as usize].end()),
                None => (end, end),
            };
            if gap_end > cursor {
                let idx = self.alloc_node(cursor, gap_end - cursor);
                self.reserve_slots(2);
                self.file(idx);
                self.len += 1;
                self.push_front(idx);
                self.sectors_used += gap_end - cursor;
            }
            cursor = cursor.max(next.min(end));
        }
        self.overlaps = overlaps;
        self.evict_to_budget(on_evict)
    }

    /// [`insert_evicting`](Self::insert_evicting) of a non-empty range a
    /// lookup found [`Gap::Vacant`] at slot `at`: a new entry goes
    /// straight into that slot.
    fn insert_vacant(
        &mut self,
        at: usize,
        start: u64,
        sectors: u64,
        on_evict: &mut dyn FnMut(Pba, u64),
    ) -> u64 {
        if (self.slots + 1) * SPREAD > self.table.len() {
            return self.insert_evicting(Pba::new(start), sectors, on_evict);
        }
        let idx = self.alloc_node(start, sectors);
        self.place(at, start, sectors, idx);
        self.len += 1;
        self.push_front(idx);
        self.sectors_used += sectors;
        self.evict_to_budget(on_evict)
    }

    /// Drops every cached range.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.table.clear();
        self.table.resize(MIN_SLOTS, FREE);
        self.slots = 0;
        self.shift = 0;
        self.len = 0;
        self.sectors_used = 0;
    }

    /// Cached ranges in PBA order as `(start, sectors)` pairs.
    pub fn ranges(&self) -> Vec<(Pba, u64)> {
        let mut out: Vec<(Pba, u64)> = self.lru().map(|n| (Pba::new(n.start), n.sectors)).collect();
        out.sort_unstable();
        out
    }

    /// Live nodes, most recently used first.
    fn lru(&self) -> impl Iterator<Item = &Node> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(idx as usize)?;
            idx = node.next;
            Some(node)
        })
    }

    /// The run of consecutive entries covering `[start, start + sectors)`
    /// in full, as its first entry's node and its length, or where the
    /// first uncovered sector was found. A zero-length query is covered;
    /// its run is the entry holding `start`, if any. Never mutates.
    fn find_run(&self, start: u64, sectors: u64) -> Result<(u32, usize), Gap> {
        let end = start + sectors;
        // One pass over `start`'s bucket finds its holder or, failing
        // that, whether anything else overlaps the range.
        let mut i = self.home(start >> self.shift);
        let mut overlapped = false;
        let first = loop {
            let Some(slot) = self.occupied(i) else {
                if sectors == 0 {
                    return Ok((NIL, 0));
                }
                let inside = (end - 1) >> self.shift == start >> self.shift;
                return Err(if inside && !overlapped {
                    Gap::Vacant(i)
                } else {
                    Gap::Other
                });
            };
            if slot.start <= start {
                if start < self.piece_end(slot) {
                    break slot.node;
                }
            } else {
                overlapped |= slot.start < end;
            }
            i = (i + 1) & (self.table.len() - 1);
        };
        // The entry holding the sector right after an entry starts there.
        let mut cursor = self.nodes[first as usize].end();
        let mut count = 1;
        while cursor < end {
            let next = self.holding(cursor).ok_or(Gap::Other)?;
            cursor = self.nodes[next as usize].end();
            count += 1;
        }
        Ok((first, count))
    }

    /// The node of the entry holding sector `s`.
    fn holding(&self, s: u64) -> Option<u32> {
        let mut i = self.home(s >> self.shift);
        while let Some(slot) = self.occupied(i) {
            if slot.start <= s && s < self.piece_end(slot) {
                return Some(slot.node);
            }
            i = (i + 1) & (self.table.len() - 1);
        }
        None
    }

    /// The table slot `bucket` is homed at.
    fn home(&self, bucket: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (bucket.wrapping_mul(HASH_MUL) >> (64 - bits)) as usize
    }

    /// Slot `i`, unless it is free.
    fn occupied(&self, i: usize) -> Option<Slot> {
        let slot = self.table[i];
        (slot.node != NIL).then_some(slot)
    }

    /// One past the last sector of the piece in `slot`.
    fn piece_end(&self, slot: Slot) -> u64 {
        if slot.len < u32::MAX {
            slot.start + u64::from(slot.len)
        } else {
            self.nodes[slot.node as usize].end()
        }
    }

    /// Makes room for `more` slots, doubling the table while it would be
    /// fuller than `1 / SPREAD`.
    fn reserve_slots(&mut self, more: usize) {
        let mut len = self.table.len();
        while (self.slots + more) * SPREAD > len {
            len *= 2;
        }
        if len != self.table.len() {
            self.rebuild(len, self.shift);
        }
    }

    /// Files node `idx`'s pieces: one per bucket its range touches.
    fn file(&mut self, idx: u32) {
        let Node { start, sectors, .. } = self.nodes[idx as usize];
        let end = start + sectors;
        let last = (end - 1) >> self.shift;
        let mut piece = start;
        loop {
            let mut i = self.home(piece >> self.shift);
            while self.table[i].node != NIL {
                i = (i + 1) & (self.table.len() - 1);
            }
            self.place(i, piece, end - piece, idx);
            if piece >> self.shift == last {
                break;
            }
            piece = last << self.shift;
        }
    }

    fn place(&mut self, i: usize, start: u64, len: u64, node: u32) {
        let len = u32::try_from(len).unwrap_or(u32::MAX);
        self.table[i] = Slot { start, len, node };
        self.slots += 1;
    }

    /// Removes node `idx`'s pieces from the table.
    fn unfile(&mut self, idx: u32) {
        let Node { start, sectors, .. } = self.nodes[idx as usize];
        let last = (start + sectors - 1) >> self.shift;
        let mut piece = start;
        loop {
            self.remove_piece(piece, idx);
            if piece >> self.shift == last {
                break;
            }
            piece = last << self.shift;
        }
    }

    /// Removes node `idx`'s piece starting at `start`, then shifts later
    /// slots of its probe run back so no lookup stops early.
    fn remove_piece(&mut self, start: u64, idx: u32) {
        let mask = self.table.len() - 1;
        let mut hole = self.home(start >> self.shift);
        while self.table[hole].node != idx {
            debug_assert_ne!(self.table[hole].node, NIL, "a live piece is filed");
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some(slot) = self.occupied(i) else {
                break;
            };
            // The slot may move back only if the hole lies cyclically in
            // [home, i), where a lookup from its home passes.
            let home = self.home(slot.start >> self.shift);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.table[hole] = slot;
                hole = i;
            }
        }
        self.table[hole] = FREE;
        self.slots -= 1;
    }

    /// Widens the buckets to hold a range of `sectors`; at 2^63 sectors
    /// wide, the space's two buckets hold any range.
    fn widen(&mut self, sectors: u64) {
        let shift = (64 - (sectors - 1).leading_zeros()).min(63);
        if shift != self.shift {
            self.rebuild(self.table.len(), shift);
        }
    }

    /// Refiles every live range in a table of `len` slots with bucket
    /// width `1 << shift`, growing the table if the pieces need it.
    fn rebuild(&mut self, len: usize, shift: u32) {
        self.table.clear();
        self.table.resize(len, FREE);
        self.shift = shift;
        self.slots = 0;
        let mut idx = self.head;
        while idx != NIL {
            self.file(idx);
            idx = self.nodes[idx as usize].next;
        }
        if self.slots * SPREAD > len {
            self.rebuild(len * 2, shift);
        }
    }

    fn alloc_node(&mut self, start: u64, sectors: u64) -> u32 {
        let node = Node {
            start,
            sectors,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                let i = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than 2^32 - 1 cached ranges");
                self.nodes.push(node);
                i
            }
        }
    }

    fn evict_to_budget(&mut self, on_evict: &mut dyn FnMut(Pba, u64)) -> u64 {
        let mut evicted = 0;
        while self.sectors_used > self.capacity_sectors && self.len > 1 {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let Node { start, sectors, .. } = self.nodes[victim as usize];
            self.unfile(victim);
            self.unlink(victim);
            self.len -= 1;
            self.sectors_used -= sectors;
            self.free.push(victim);
            evicted += sectors;
            self.stats.evictions += 1;
            on_evict(Pba::new(start), sectors);
        }
        evicted
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl PartialEq for RangeCache {
    /// Content equality: the same budget, counters and ranges in the same
    /// recency order, whatever the slab and table layout.
    fn eq(&self, other: &Self) -> bool {
        self.capacity_sectors == other.capacity_sectors
            && self.sectors_used == other.sectors_used
            && self.stats == other.stats
            && self.len == other.len
            && self
                .lru()
                .map(|n| (n.start, n.sectors))
                .eq(other.lru().map(|n| (n.start, n.sectors)))
    }
}

impl Eq for RangeCache {}

impl fmt::Debug for RangeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeCache")
            .field("capacity_sectors", &self.capacity_sectors)
            .field("sectors_used", &self.sectors_used)
            .field("stats", &self.stats)
            .field(
                "most_recent_first",
                &self.lru().map(|n| (n.start, n.sectors)).collect::<Vec<_>>(),
            )
            .finish()
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

/// A range [`RangeCache::probe`] found uncovered. The cache stays
/// borrowed until the range is inserted or the handle dropped.
#[derive(Debug)]
pub struct Uncovered<'a> {
    cache: &'a mut RangeCache,
    start: u64,
    sectors: u64,
    gap: Gap,
}

impl Uncovered<'_> {
    /// Inserts the probed range exactly as
    /// [`RangeCache::insert_evicting`] would.
    pub fn insert_evicting(self, on_evict: &mut dyn FnMut(Pba, u64)) -> u64 {
        match self.gap {
            Gap::Vacant(at) => self
                .cache
                .insert_vacant(at, self.start, self.sectors, on_evict),
            Gap::Other => self
                .cache
                .insert_evicting(Pba::new(self.start), self.sectors, on_evict),
        }
    }

    /// Inserts `[pba, pba + sectors)` in place of the probed range, which
    /// it contains — a prefetch window around a missed fragment — exactly
    /// as [`RangeCache::insert_evicting`] would.
    pub fn insert_around(self, pba: Pba, sectors: u64, on_evict: &mut dyn FnMut(Pba, u64)) -> u64 {
        debug_assert!(
            pba.sector() <= self.start && self.start + self.sectors <= pba.sector() + sectors,
            "the window contains the probed range"
        );
        self.cache.insert_evicting(pba, sectors, on_evict)
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
    fn widening_the_buckets_keeps_every_entry() {
        let mut c = RangeCache::with_capacity_sectors(1 << 20);
        for i in 0..500u64 {
            c.insert(pba(i * 40), 8);
        }
        let narrow = c.shift;
        c.insert(pba(1 << 30), 4096);
        assert!(c.shift > narrow, "a 4096-sector range widens the buckets");
        for i in 0..500u64 {
            assert!(c.peek_covers(pba(i * 40 + 3), 5), "entry {i}");
            assert!(!c.peek_covers(pba(i * 40 + 8), 1), "gap after entry {i}");
        }
        assert!(c.peek_covers(pba((1 << 30) + 4000), 96));
    }

    #[test]
    fn a_range_crossing_a_bucket_boundary_is_found_from_both_sides() {
        let mut c = RangeCache::with_capacity_sectors(1 << 20);
        c.insert(pba(0), 16); // buckets are 16 sectors wide
        c.insert(pba(40), 16); // crosses the boundary at 48
        assert!(c.peek_covers(pba(42), 4));
        assert!(c.peek_covers(pba(50), 6)); // held from the next bucket
        assert!(!c.peek_covers(pba(50), 7));
        let mut victims = Vec::new();
        c.capacity_sectors = 16;
        c.insert_evicting(pba(100), 8, &mut |p, n| victims.push((p, n)));
        assert_eq!(victims, vec![(pba(0), 16), (pba(40), 16)]);
        assert!(
            !c.peek_covers(pba(50), 1),
            "both pieces went with the range"
        );
    }

    #[test]
    fn insert_around_fills_a_window_around_the_miss() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(40), 4);
        let Probe::Uncovered(miss) = c.probe(pba(30), 4) else {
            panic!("nothing holds 30");
        };
        miss.insert_around(pba(20), 30, &mut |_, _| {});
        // [40, 44) was touched, the gaps [20, 40) and [44, 50) were added.
        assert_eq!(c.ranges(), vec![(pba(20), 20), (pba(40), 4), (pba(44), 6)]);
        assert!(c.covers(pba(30), 4));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn heavy_churn_reuses_slab() {
        let mut c = RangeCache::with_capacity_sectors(64);
        for i in 0..10_000u64 {
            c.insert(pba(i * 1000), 32);
        }
        assert!(c.nodes.len() <= 64, "slab grew to {}", c.nodes.len());
        assert!(c.table.len() <= 2 * SPREAD * MIN_SLOTS.max(c.nodes.len().next_power_of_two()));
        assert!(c.sectors_used() <= 64);
    }
}
