//! Differential property test for `ExtentMap` at scale: long operation
//! sequences over a 2^14-sector space grow maps to many hundreds of
//! extents, so the index beneath the map splits, empties and merges its
//! chunks. After every operation the map must agree exactly with a
//! straightforward `BTreeMap` implementation of the same semantics.

use proptest::prelude::*;
use smrseek_extent::{Extent, ExtentMap, Segment, CHUNK_CAP};
use smrseek_trace::{Lba, Pba};
use std::collections::BTreeMap;

const SPACE: u64 = 1 << 14;

/// The map's semantics written against a `BTreeMap`, one tree walk per
/// step: unmap the range (trimming and splitting boundary extents), insert,
/// then coalesce with both neighbours.
#[derive(Default)]
struct ReferenceMap {
    /// start LBA sector -> (length in sectors, start PBA sector)
    extents: BTreeMap<u64, (u64, u64)>,
    mapped_sectors: u64,
}

impl ReferenceMap {
    fn insert(&mut self, start: u64, sectors: u64, pba: u64) {
        self.unmap_range(start, start + sectors);
        self.extents.insert(start, (sectors, pba));
        self.mapped_sectors += sectors;
        self.coalesce_around(start);
    }

    fn remove(&mut self, start: u64, sectors: u64) {
        self.unmap_range(start, start + sectors);
    }

    fn unmap_range(&mut self, start: u64, end: u64) {
        if let Some((&es, &(elen, epba))) = self.extents.range(..start).next_back() {
            let ee = es + elen;
            if ee > start {
                self.extents.insert(es, (start - es, epba));
                self.mapped_sectors -= elen - (start - es);
                if ee > end {
                    self.extents.insert(end, (ee - end, epba + (end - es)));
                    self.mapped_sectors += ee - end;
                }
            }
        }
        let starts: Vec<u64> = self.extents.range(start..end).map(|(&s, _)| s).collect();
        for es in starts {
            let (elen, epba) = self.extents.remove(&es).expect("key just observed");
            self.mapped_sectors -= elen;
            let ee = es + elen;
            if ee > end {
                self.extents.insert(end, (ee - end, epba + (end - es)));
                self.mapped_sectors += ee - end;
            }
        }
    }

    fn coalesce_around(&mut self, start: u64) {
        let (mut s, (mut len, mut pba)) = (start, self.extents[&start]);
        if let Some((&ps, &(plen, ppba))) = self.extents.range(..s).next_back() {
            if ps + plen == s && ppba + plen == pba {
                self.extents.remove(&s);
                s = ps;
                pba = ppba;
                len += plen;
                self.extents.insert(s, (len, pba));
            }
        }
        let next = self.extents.range(s + 1..).next().map(|(&ns, &v)| (ns, v));
        if let Some((ns, (nlen, npba))) = next {
            if s + len == ns && pba + len == npba {
                self.extents.remove(&ns);
                len += nlen;
                self.extents.insert(s, (len, pba));
            }
        }
    }

    fn lookup(&self, start: u64, sectors: u64) -> Vec<Segment> {
        let end = start + sectors;
        let mut out = Vec::new();
        let mut cursor = start;
        if let Some((&es, &(elen, epba))) = self.extents.range(..start).next_back() {
            if es + elen > start {
                let take = (es + elen - start).min(sectors);
                out.push(Segment::Mapped(Extent::new(
                    Lba::new(start),
                    take,
                    Pba::new(epba + (start - es)),
                )));
                cursor = start + take;
            }
        }
        for (&es, &(elen, epba)) in self.extents.range(start..end) {
            if es > cursor {
                out.push(Segment::Hole {
                    lba: Lba::new(cursor),
                    sectors: es - cursor,
                });
                cursor = es;
            }
            let take = (es + elen).min(end) - cursor;
            out.push(Segment::Mapped(Extent::new(
                Lba::new(cursor),
                take,
                Pba::new(epba),
            )));
            cursor += take;
        }
        if cursor < end {
            out.push(Segment::Hole {
                lba: Lba::new(cursor),
                sectors: end - cursor,
            });
        }
        out
    }

    /// The extent holding `sector`, as `(start, len, pba)`.
    fn holding(&self, sector: u64) -> Option<(u64, u64, u64)> {
        let (&s, &(len, pba)) = self.extents.range(..=sector).next_back()?;
        (sector < s + len).then_some((s, len, pba))
    }

    /// The first extent starting at or after `sector`.
    fn from(&self, sector: u64) -> Option<(u64, u64, u64)> {
        let (&s, &(len, pba)) = self.extents.range(sector..).next()?;
        Some((s, len, pba))
    }

    fn extents(&self) -> Vec<Extent> {
        self.extents
            .iter()
            .map(|(&s, &(len, pba))| Extent::new(Lba::new(s), len, Pba::new(pba)))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Log-structured write: `len` sectors at `lba` land at the frontier.
    Log {
        lba: u64,
        len: u64,
    },
    /// Continues the previous write logically and at the frontier, so it
    /// coalesces with the extent that write left.
    Append {
        len: u64,
    },
    /// Maps `lba` to an arbitrary physical place.
    Place {
        lba: u64,
        len: u64,
        pba: u64,
    },
    /// Rewrites part of the extent holding `lba` with its own mapping:
    /// splits it, then coalesces it back on both sides.
    Restore {
        lba: u64,
        len: u64,
    },
    /// Maps the `len` sectors just below the first extent at or after
    /// `lba` physically just below it too, so they join that extent.
    Below {
        lba: u64,
        len: u64,
    },
    Remove {
        lba: u64,
        len: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..SPACE, 1..32u64).prop_map(|(lba, len)| Op::Log { lba, len }),
        2 => (1..32u64).prop_map(|len| Op::Append { len }),
        1 => (0..SPACE, 1..32u64, 0..4 * SPACE)
            .prop_map(|(lba, len, pba)| Op::Place { lba, len, pba }),
        1 => (0..SPACE, 1..32u64).prop_map(|(lba, len)| Op::Restore { lba, len }),
        1 => (0..SPACE, 1..32u64).prop_map(|(lba, len)| Op::Below { lba, len }),
        1 => (0..SPACE, 1..256u64).prop_map(|(lba, len)| Op::Remove { lba, len }),
    ]
}

/// One operation followed by one lookup query.
fn step_strategy() -> impl Strategy<Value = (Op, (u64, u64))> {
    (op_strategy(), (0..SPACE, 1..256u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `iter()`, `mapped_sectors()` and a lookup agree with the reference
    /// after every one of 1000+ operations.
    #[test]
    fn matches_btreemap_reference(steps in prop::collection::vec(step_strategy(), 1000..1200)) {
        let mut map = ExtentMap::new();
        let mut reference = ReferenceMap::default();
        let (mut frontier, mut last_end) = (4 * SPACE, 0u64);
        let mut peak = 0;
        for (i, (op, (qlba, qlen))) in steps.iter().enumerate() {
            let (lba, len, pba) = match *op {
                Op::Log { lba, len } => (lba, len, frontier),
                Op::Append { len } => (last_end, len, frontier),
                Op::Place { lba, len, pba } => (lba, len, pba),
                Op::Restore { lba, len } => match reference.holding(lba) {
                    Some((s, elen, epba)) => (lba, len.min(s + elen - lba), epba + (lba - s)),
                    None => (lba, 0, 0),
                },
                Op::Below { lba, len } => match reference.from(lba) {
                    Some((s, _, epba)) if s >= len && epba >= len => (s - len, len, epba - len),
                    _ => (lba, 0, 0),
                },
                Op::Remove { lba, len } => {
                    map.remove(Lba::new(lba), len);
                    reference.remove(lba, len);
                    (lba, 0, 0)
                }
            };
            if len > 0 {
                map.insert(Lba::new(lba), len, Pba::new(pba));
                reference.insert(lba, len, pba);
                if pba == frontier {
                    frontier += len;
                }
                last_end = lba + len;
            }
            peak = peak.max(map.len());
            prop_assert_eq!(map.iter().collect::<Vec<_>>(), reference.extents(), "step {}: {:?}", i, op);
            prop_assert_eq!(map.mapped_sectors(), reference.mapped_sectors, "step {}", i);
            prop_assert_eq!(
                map.lookup(Lba::new(*qlba), *qlen),
                reference.lookup(*qlba, *qlen),
                "step {}: lookup {}+{}", i, qlba, qlen
            );
        }
        prop_assert!(peak > 2 * CHUNK_CAP, "map stayed small: peak {} extents", peak);
    }
}
