//! The coalescing LBA→PBA interval map.

use crate::index::{Pos, SortedIndex};
use crate::segment::{Extent, Segment};
use smrseek_trace::{Lba, Pba};
use std::fmt;

/// A map from logical sector ranges to physical sector ranges with
/// split-on-overwrite and coalesce-on-insert semantics.
///
/// Invariants (checked by the property tests in `tests/`):
///
/// 1. stored extents never overlap logically,
/// 2. adjacent stored extents are never coalescible (maximal extents),
/// 3. a lookup over any range tiles the range exactly, in order, with no
///    gaps or overlaps between returned segments.
///
/// The extents live in a [`SortedIndex`]: an insert does one search and
/// then trims, splits, drops and coalesces the neighbours in place.
///
/// # Example
///
/// ```
/// use smrseek_extent::{ExtentMap, Segment};
/// use smrseek_trace::{Lba, Pba};
///
/// let mut map = ExtentMap::new();
/// map.insert(Lba::new(10), 10, Pba::new(500));
/// map.insert(Lba::new(15), 2, Pba::new(900)); // split the middle
/// let segs = map.lookup(Lba::new(10), 10);
/// assert_eq!(segs.len(), 3);
/// assert_eq!(segs[1].as_mapped().unwrap().pba, Pba::new(900));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtentMap {
    /// start LBA sector -> (length in sectors, start PBA sector)
    extents: SortedIndex<(u64, u64)>,
    mapped_sectors: u64,
}

impl ExtentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// Number of stored extents.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Returns `true` if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Total mapped sectors.
    pub fn mapped_sectors(&self) -> u64 {
        self.mapped_sectors
    }

    /// Maps the logical range `[lba, lba + sectors)` to the physical range
    /// `[pba, pba + sectors)`, overwriting any previous mappings of those
    /// logical sectors (splitting partially-covered extents), then
    /// coalescing with neighbours that abut both logically and physically.
    ///
    /// Inserting zero sectors is a no-op.
    pub fn insert(&mut self, lba: Lba, sectors: u64, pba: Pba) {
        if sectors == 0 {
            return;
        }
        let start = lba.sector();
        let end = start + sectors;
        let pba = pba.sector();
        let pos = self.unmap_range(start, end);
        self.mapped_sectors += sectors;
        // After the unmap, `pos` holds the first extent at or past `end` and
        // its predecessor ends at or before `start`: join either that abuts
        // both logically and physically.
        let next_len = self
            .extents
            .get(pos)
            .filter(|&(ns, (_, npba))| ns == end && npba == pba + sectors)
            .map(|(_, (nlen, _))| nlen);
        let prev = self
            .extents
            .prev(pos)
            .and_then(|p| Some((p, self.extents.get(p)?)))
            .filter(|&(_, (ps, (plen, ppba)))| ps + plen == start && ppba + plen == pba);
        match (prev, next_len) {
            (Some((p, (ps, (plen, ppba)))), next_len) => {
                let len = plen + sectors + next_len.unwrap_or(0);
                self.extents.set(p, ps, (len, ppba));
                if next_len.is_some() {
                    self.extents.remove_at(pos);
                }
            }
            (None, Some(nlen)) => self.extents.set(pos, start, (sectors + nlen, pba)),
            (None, None) => {
                self.extents.insert_at(pos, start, (sectors, pba));
            }
        }
    }

    /// Removes any mapping of the logical range `[lba, lba + sectors)`.
    pub fn remove(&mut self, lba: Lba, sectors: u64) {
        if sectors == 0 {
            return;
        }
        let start = lba.sector();
        self.unmap_range(start, start + sectors);
    }

    /// Translates one logical sector, or `None` if unmapped.
    ///
    /// # Example
    ///
    /// ```
    /// use smrseek_extent::ExtentMap;
    /// use smrseek_trace::{Lba, Pba};
    ///
    /// let mut map = ExtentMap::new();
    /// map.insert(Lba::new(4), 4, Pba::new(100));
    /// assert_eq!(map.translate(Lba::new(5)), Some(Pba::new(101)));
    /// assert_eq!(map.translate(Lba::new(3)), None);
    /// ```
    pub fn translate(&self, lba: Lba) -> Option<Pba> {
        let sector = lba.sector();
        let pos = self.extents.lower_bound(sector);
        let (start, (len, pba)) = match self.extents.get(pos) {
            Some(entry) if entry.0 == sector => entry,
            _ => self.extents.get(self.extents.prev(pos)?)?,
        };
        (sector < start + len).then(|| Pba::new(pba + (sector - start)))
    }

    /// Tiles the logical range `[lba, lba + sectors)` with mapped and hole
    /// segments, in logical order.
    pub fn lookup(&self, lba: Lba, sectors: u64) -> Vec<Segment> {
        let mut out = Vec::new();
        self.lookup_each(lba, sectors, |seg| out.push(seg));
        out
    }

    /// Non-allocating form of [`lookup`](Self::lookup): visits the same
    /// segments in the same order, calling `f` for each instead of
    /// collecting a `Vec`. This is the hot read path — every translated
    /// read walks the map — so callers that only fold over the tiles
    /// (fragment counting, run merging) should use this.
    pub fn lookup_each(&self, lba: Lba, sectors: u64, mut f: impl FnMut(Segment)) {
        if sectors == 0 {
            return;
        }
        let start = lba.sector();
        let end = start + sectors;
        let mut cursor = start;
        let pos = self.extents.lower_bound(start);

        // An extent beginning before `start` may cover the front.
        if let Some((es, (elen, epba))) = self.extents.prev(pos).and_then(|p| self.extents.get(p)) {
            if es + elen > start {
                let avail = es + elen - start;
                let take = avail.min(sectors);
                f(Segment::Mapped(Extent::new(
                    Lba::new(start),
                    take,
                    Pba::new(epba + (start - es)),
                )));
                cursor = start + take;
            }
        }
        for (es, (elen, epba)) in self.extents.iter_from(pos) {
            if es >= end {
                break;
            }
            if es > cursor {
                f(Segment::Hole {
                    lba: Lba::new(cursor),
                    sectors: es - cursor,
                });
                cursor = es;
            }
            let take = (es + elen).min(end) - cursor;
            debug_assert_eq!(cursor, es);
            f(Segment::Mapped(Extent::new(
                Lba::new(cursor),
                take,
                Pba::new(epba),
            )));
            cursor += take;
        }
        if cursor < end {
            f(Segment::Hole {
                lba: Lba::new(cursor),
                sectors: end - cursor,
            });
        }
    }

    /// **Dynamic fragmentation** of one read (§IV-A): the number of
    /// physically non-contiguous pieces required to fetch the logical range.
    ///
    /// Holes count using identity placement (PBA = LBA sector), matching the
    /// disk model's treatment of never-written data; two consecutive pieces
    /// merge when the second starts at the physical sector immediately
    /// following the first.
    pub fn fragments_in(&self, lba: Lba, sectors: u64) -> usize {
        let mut count = 0usize;
        let mut prev_phys_end: Option<u64> = None;
        self.lookup_each(lba, sectors, |seg| {
            let (phys_start, len) = match seg {
                Segment::Mapped(e) => (e.pba.sector(), e.sectors),
                Segment::Hole { lba, sectors } => (lba.sector(), sectors),
            };
            if prev_phys_end != Some(phys_start) {
                count += 1;
            }
            prev_phys_end = Some(phys_start + len);
        });
        count
    }

    /// **Static fragmentation** (§IV-A): the number of physically
    /// discontiguous runs across the entire mapped LBA space — equivalently,
    /// the seeks incurred by one sequential read of the whole LBA space
    /// (holes again reading from their identity location).
    pub fn static_fragmentation(&self) -> usize {
        let Some((first, _)) = self.extents.iter().next() else {
            return 0;
        };
        let (last_start, (last_len, _)) = self
            .extents
            .prev(self.extents.end())
            .and_then(|p| self.extents.get(p))
            .expect("map is non-empty");
        self.fragments_in(Lba::new(first), last_start + last_len - first)
    }

    /// Iterates the stored extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = Extent> + '_ {
        self.extents
            .iter()
            .map(|(s, (len, pba))| Extent::new(Lba::new(s), len, Pba::new(pba)))
    }

    /// Removes mappings in `[start, end)` (raw sector numbers), splitting
    /// boundary extents. Returns the position of the first extent at or
    /// past `end`: where an extent starting at `start` now belongs.
    fn unmap_range(&mut self, start: u64, end: u64) -> Pos {
        let mut pos = self.extents.lower_bound(start);
        // A predecessor overlapping the front keeps [es, start), plus its
        // tail past `end` when it spans the whole range.
        if let Some(p) = self.extents.prev(pos) {
            let (es, (elen, epba)) = self.extents.get(p).expect("prev is an entry");
            let ee = es + elen;
            if ee > start {
                self.extents.set(p, es, (start - es, epba));
                self.mapped_sectors -= ee - start;
                if ee > end {
                    self.mapped_sectors += ee - end;
                    return self
                        .extents
                        .insert_at(pos, end, (ee - end, epba + (end - es)));
                }
            }
        }
        // Extents starting inside [start, end): dropped, except the tail of
        // one that runs past `end`.
        while let Some((es, (elen, epba))) = self.extents.get(pos) {
            if es >= end {
                break;
            }
            let ee = es + elen;
            if ee > end {
                self.mapped_sectors -= end - es;
                self.extents.set(pos, end, (ee - end, epba + (end - es)));
                break;
            }
            self.mapped_sectors -= elen;
            pos = self.extents.remove_at(pos);
        }
        pos
    }
}

impl fmt::Display for ExtentMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExtentMap({} extents, {} sectors)",
            self.len(),
            self.mapped_sectors
        )
    }
}

impl FromIterator<Extent> for ExtentMap {
    fn from_iter<I: IntoIterator<Item = Extent>>(iter: I) -> Self {
        let mut map = ExtentMap::new();
        for e in iter {
            map.insert(e.lba, e.sectors, e.pba);
        }
        map
    }
}

impl Extend<Extent> for ExtentMap {
    fn extend<I: IntoIterator<Item = Extent>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e.lba, e.sectors, e.pba);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lba(s: u64) -> Lba {
        Lba::new(s)
    }
    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn empty_map() {
        let map = ExtentMap::new();
        assert!(map.is_empty());
        assert_eq!(map.translate(lba(0)), None);
        assert_eq!(map.static_fragmentation(), 0);
        assert!(map.lookup(lba(0), 0).is_empty());
        let segs = map.lookup(lba(5), 3);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].is_hole());
    }

    #[test]
    fn insert_and_translate() {
        let mut map = ExtentMap::new();
        map.insert(lba(10), 5, pba(100));
        assert_eq!(map.translate(lba(10)), Some(pba(100)));
        assert_eq!(map.translate(lba(14)), Some(pba(104)));
        assert_eq!(map.translate(lba(15)), None);
        assert_eq!(map.translate(lba(9)), None);
        assert_eq!(map.mapped_sectors(), 5);
    }

    #[test]
    fn overwrite_middle_splits() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 10, pba(100));
        map.insert(lba(4), 2, pba(500));
        assert_eq!(map.len(), 3);
        assert_eq!(map.translate(lba(3)), Some(pba(103)));
        assert_eq!(map.translate(lba(4)), Some(pba(500)));
        assert_eq!(map.translate(lba(5)), Some(pba(501)));
        assert_eq!(map.translate(lba(6)), Some(pba(106)));
        assert_eq!(map.mapped_sectors(), 10);
    }

    #[test]
    fn overwrite_head_and_tail() {
        let mut map = ExtentMap::new();
        map.insert(lba(10), 10, pba(100));
        map.insert(lba(5), 8, pba(300)); // covers head 10..13
        assert_eq!(map.translate(lba(12)), Some(pba(307)));
        assert_eq!(map.translate(lba(13)), Some(pba(103)));
        map.insert(lba(18), 5, pba(400)); // covers tail 18..20
        assert_eq!(map.translate(lba(17)), Some(pba(107)));
        assert_eq!(map.translate(lba(19)), Some(pba(401)));
        assert_eq!(map.mapped_sectors(), 10 + 8 + 5 - 3 - 2); // = 18
    }

    #[test]
    fn overwrite_exact_and_superset() {
        let mut map = ExtentMap::new();
        map.insert(lba(10), 4, pba(100));
        map.insert(lba(10), 4, pba(200)); // exact replacement
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(11)), Some(pba(201)));
        map.insert(lba(8), 8, pba(300)); // superset swallows it
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(11)), Some(pba(303)));
        assert_eq!(map.mapped_sectors(), 8);
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(100));
        map.insert(lba(8), 4, pba(200));
        map.insert(lba(16), 4, pba(300));
        map.insert(lba(2), 16, pba(1000)); // spans all three
        assert_eq!(map.translate(lba(1)), Some(pba(101)));
        assert_eq!(map.translate(lba(2)), Some(pba(1000)));
        assert_eq!(map.translate(lba(17)), Some(pba(1015)));
        assert_eq!(map.translate(lba(18)), Some(pba(302)));
        assert_eq!(map.mapped_sectors(), 2 + 16 + 2);
    }

    #[test]
    fn coalesce_log_append() {
        let mut map = ExtentMap::new();
        // Sequential log writes of logically-consecutive data coalesce.
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(4), 4, pba(1004));
        map.insert(lba(8), 4, pba(1008));
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(11)), Some(pba(1011)));
    }

    #[test]
    fn no_coalesce_when_physically_apart() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(4), 4, pba(2000));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn coalesce_bridges_predecessor_and_successor() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(8), 4, pba(1008));
        map.insert(lba(4), 4, pba(1004)); // bridges both sides
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(9)), Some(pba(1009)));
    }

    #[test]
    fn lookup_tiles_range() {
        let mut map = ExtentMap::new();
        map.insert(lba(2), 3, pba(100));
        map.insert(lba(8), 2, pba(200));
        let segs = map.lookup(lba(0), 12);
        // hole [0,2), mapped [2,5), hole [5,8), mapped [8,10), hole [10,12)
        assert_eq!(segs.len(), 5);
        let mut cursor = lba(0);
        for seg in &segs {
            assert_eq!(seg.lba(), cursor);
            cursor = seg.lba_end();
        }
        assert_eq!(cursor, lba(12));
        assert!(segs[0].is_hole());
        assert_eq!(segs[1].as_mapped().unwrap().pba, pba(100));
        assert_eq!(segs[3].as_mapped().unwrap().sectors, 2);
    }

    #[test]
    fn lookup_each_matches_lookup() {
        let mut map = ExtentMap::new();
        map.insert(lba(2), 3, pba(100));
        map.insert(lba(8), 2, pba(200));
        map.insert(lba(20), 10, pba(500));
        for (start, len) in [(0, 12), (0, 0), (5, 1), (2, 3), (19, 12), (30, 4)] {
            let mut visited = Vec::new();
            map.lookup_each(lba(start), len, |seg| visited.push(seg));
            assert_eq!(visited, map.lookup(lba(start), len), "range {start}+{len}");
        }
    }

    #[test]
    fn lookup_partial_front_extent() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 10, pba(100));
        let segs = map.lookup(lba(5), 3);
        assert_eq!(segs.len(), 1);
        let e = segs[0].as_mapped().unwrap();
        assert_eq!(e.lba, lba(5));
        assert_eq!(e.sectors, 3);
        assert_eq!(e.pba, pba(105));
    }

    #[test]
    fn dynamic_fragmentation_counts_identity_holes() {
        let mut map = ExtentMap::new();
        // Hole-only range: one identity fragment.
        assert_eq!(map.fragments_in(lba(0), 10), 1);
        map.insert(lba(4), 2, pba(1000));
        // [0,4) identity @0, [4,6) @1000, [6,10) identity @6 -> 3 pieces
        assert_eq!(map.fragments_in(lba(0), 10), 3);
        // Mapped piece physically continuous with identity hole merges.
        let mut map2 = ExtentMap::new();
        map2.insert(lba(4), 2, pba(4)); // identity-placed mapping
        assert_eq!(map2.fragments_in(lba(0), 10), 1);
    }

    #[test]
    fn fragmentation_of_fragmented_log() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 6, pba(1000)); // contiguous original
        map.insert(lba(2), 1, pba(2000)); // update
        map.insert(lba(4), 1, pba(2001)); // update
                                          // pieces: [0,2)@1000, [2,3)@2000, [3,4)@1003, [4,5)@2001, [5,6)@1005
        assert_eq!(map.fragments_in(lba(0), 6), 5);
        assert_eq!(map.fragments_in(lba(0), 2), 1);
        assert_eq!(map.fragments_in(lba(2), 1), 1);
    }

    #[test]
    fn adjacent_updates_merge_physically() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 6, pba(1000));
        map.insert(lba(2), 1, pba(2000));
        map.insert(lba(3), 1, pba(2001)); // physically continues previous update
                                          // pieces: [0,2)@1000, [2,4)@2000, [4,6)@1004
        assert_eq!(map.fragments_in(lba(0), 6), 3);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn static_fragmentation_spans_whole_map() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(100), 4, pba(1004));
        // [0,4)@1000, [4,100) identity hole @4, [100,104)@1004 -> 3 runs
        assert_eq!(map.static_fragmentation(), 3);
    }

    #[test]
    fn remove_unmaps() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 10, pba(100));
        map.remove(lba(3), 4);
        assert_eq!(map.translate(lba(2)), Some(pba(102)));
        assert_eq!(map.translate(lba(3)), None);
        assert_eq!(map.translate(lba(6)), None);
        assert_eq!(map.translate(lba(7)), Some(pba(107)));
        assert_eq!(map.mapped_sectors(), 6);
        map.remove(lba(0), 100);
        assert!(map.is_empty());
        assert_eq!(map.mapped_sectors(), 0);
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut map = ExtentMap::new();
        map.insert(lba(5), 0, pba(0));
        map.remove(lba(5), 0);
        assert!(map.is_empty());
        assert_eq!(map.fragments_in(lba(0), 0), 0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let map: ExtentMap = vec![
            Extent::new(lba(0), 4, pba(100)),
            Extent::new(lba(4), 4, pba(104)),
        ]
        .into_iter()
        .collect();
        assert_eq!(map.len(), 1); // coalesced
        let mut map2 = ExtentMap::new();
        map2.extend(map.iter());
        assert_eq!(map2, map);
    }

    #[test]
    fn display_mentions_size() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(9));
        assert_eq!(map.to_string(), "ExtentMap(1 extents, 4 sectors)");
    }
}
