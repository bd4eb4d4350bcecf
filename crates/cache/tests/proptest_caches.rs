//! Property tests: `RangeCache` against a per-sector model and, at a scale
//! that spans many index chunks, a most-recent-first list model, and
//! `TieredCache`'s fused lookup-and-admit against a two-call model built
//! from `RangeCache`.

use proptest::prelude::*;
use smrseek_cache::{RangeCache, TierLookup, TierStats, TieredCache};
use smrseek_trace::Pba;
use std::collections::HashMap;

// ---------- RangeCache vs per-sector model ----------

#[derive(Debug, Clone)]
enum RangeOp {
    Insert(u64, u64),
    Covers(u64, u64),
}

fn range_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            2 => (0u64..512, 1u64..48).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            1 => (0u64..512, 1u64..64).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        1..100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With an effectively unbounded budget, `covers` must answer exactly
    /// "was every sector of the range inserted before".
    #[test]
    fn range_cache_coverage_matches_model(ops in range_ops()) {
        let mut cache = RangeCache::with_capacity_sectors(1 << 20);
        let mut model: HashMap<u64, ()> = HashMap::new();
        for op in &ops {
            match *op {
                RangeOp::Insert(s, l) => {
                    cache.insert(Pba::new(s), l);
                    for x in s..s + l {
                        model.insert(x, ());
                    }
                }
                RangeOp::Covers(s, l) => {
                    let want = (s..s + l).all(|x| model.contains_key(&x));
                    prop_assert_eq!(
                        cache.covers(Pba::new(s), l),
                        want,
                        "covers({}, {})", s, l
                    );
                    prop_assert_eq!(cache.peek_covers(Pba::new(s), l), want);
                }
            }
            // Accounting: cached sectors equal distinct inserted sectors.
            prop_assert_eq!(cache.sectors_used(), model.len() as u64);
        }
    }

    /// Under a tight budget the cache never exceeds it (beyond the single
    /// oversized-entry allowance) and never reports uninserted sectors.
    #[test]
    fn range_cache_respects_budget(ops in range_ops(), budget in 16u64..128) {
        let mut cache = RangeCache::with_capacity_sectors(budget);
        let mut inserted: HashMap<u64, ()> = HashMap::new();
        // The cache never evicts below one entry, so a single oversized
        // insert may linger; the allowance tracks the largest insert seen.
        let mut max_insert = 0u64;
        for op in &ops {
            match *op {
                RangeOp::Insert(s, l) => {
                    cache.insert(Pba::new(s), l);
                    max_insert = max_insert.max(l);
                    for x in s..s + l {
                        inserted.insert(x, ());
                    }
                    prop_assert!(
                        cache.sectors_used() <= budget.max(max_insert),
                        "budget {} exceeded: {}",
                        budget,
                        cache.sectors_used()
                    );
                }
                RangeOp::Covers(s, l) => {
                    if cache.covers(Pba::new(s), l) {
                        // No false positives: everything covered was
                        // inserted at some point.
                        for x in s..s + l {
                            prop_assert!(inserted.contains_key(&x));
                        }
                    }
                }
            }
        }
    }
}

// ---------- RangeCache vs most-recent-first list model, at scale ----------

/// The cache's semantics over a plain list of `(start, sectors)` ranges,
/// most recently used first.
struct RangeModel {
    entries: Vec<(u64, u64)>,
    capacity: u64,
}

impl RangeModel {
    fn used(&self) -> u64 {
        self.entries.iter().map(|&(_, l)| l).sum()
    }

    /// Moves `touched` (in order) to the front, one at a time.
    fn touch(&mut self, touched: &[(u64, u64)]) {
        for t in touched {
            let at = self
                .entries
                .iter()
                .position(|e| e == t)
                .expect("live entry");
            let e = self.entries.remove(at);
            self.entries.insert(0, e);
        }
    }

    /// Entries overlapping `[s, e)`, in PBA order.
    fn overlapping(&self, s: u64, e: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .entries
            .iter()
            .copied()
            .filter(|&(es, el)| es < e && es + el > s)
            .collect();
        out.sort_unstable();
        out
    }

    fn covers(&mut self, s: u64, l: u64) -> bool {
        let involved = self.overlapping(s, s + l);
        let covered = (s..s + l).all(|x| involved.iter().any(|&(es, el)| es <= x && x < es + el));
        if covered {
            self.touch(&involved);
        }
        covered
    }

    /// Returns the victims, least recently used first.
    fn insert(&mut self, s: u64, l: u64) -> Vec<(u64, u64)> {
        let e = s + l;
        let involved = self.overlapping(s, e);
        self.touch(&involved);
        let mut cursor = s;
        for &(es, el) in involved.iter().chain([(e, 0)].iter()) {
            if es > cursor {
                self.entries.insert(0, (cursor, es.min(e) - cursor));
            }
            cursor = cursor.max(es + el);
        }
        let mut victims = Vec::new();
        while self.used() > self.capacity && self.entries.len() > 1 {
            victims.push(self.entries.pop().expect("non-empty"));
        }
        victims
    }

    fn ranges(&self) -> Vec<(Pba, u64)> {
        let mut out: Vec<(Pba, u64)> = self
            .entries
            .iter()
            .map(|&(s, l)| (Pba::new(s), l))
            .collect();
        out.sort_unstable();
        out
    }
}

fn scale_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u64..12_000, 1u64..16).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            2 => (0u64..12_000, 1u64..24).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        900..1100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under a tight budget with hundreds of live entries, the victim
    /// sequence of every insert, every `covers` answer and the cached
    /// ranges match the list model exactly.
    #[test]
    fn range_cache_matches_recency_list_model(ops in scale_ops(), budget in 1800u64..2600) {
        let mut cache = RangeCache::with_capacity_sectors(budget);
        let mut model = RangeModel { entries: Vec::new(), capacity: budget };
        let mut peak = 0;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                RangeOp::Insert(s, l) => {
                    let mut victims = Vec::new();
                    let evicted = cache.insert_evicting(Pba::new(s), l, &mut |p, len| {
                        victims.push((p.sector(), len));
                    });
                    let want = model.insert(s, l);
                    prop_assert_eq!(&victims, &want, "step {}: victims of {:?}", i, op);
                    prop_assert_eq!(evicted, want.iter().map(|&(_, l)| l).sum::<u64>());
                }
                RangeOp::Covers(s, l) => {
                    let want = model.covers(s, l);
                    prop_assert_eq!(cache.peek_covers(Pba::new(s), l), want, "step {}", i);
                    prop_assert_eq!(cache.covers(Pba::new(s), l), want, "step {}: {:?}", i, op);
                }
            }
            peak = peak.max(cache.len());
            prop_assert_eq!(cache.ranges(), model.ranges(), "step {}", i);
            prop_assert_eq!(cache.sectors_used(), model.used());
        }
        prop_assert!(peak > 2 * smrseek_extent::CHUNK_CAP, "cache stayed small: peak {} entries", peak);
        prop_assert!(cache.stats().evictions > 100, "budget never bit: {:?}", cache.stats());
    }
}

// ---------- TieredCache: fused lookup-and-admit vs two calls ----------

/// A fragment lookup: `(start, sectors, admit on a miss)`.
fn tier_ops() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec(
        (
            0u64..20_000,
            1u64..24,
            prop_oneof![4 => Just(true), 1 => Just(false)],
        ),
        600..1_500,
    )
}

/// The two-call form, built from `RangeCache` calls that each search on
/// their own: a RAM lookup, then flash, then — on a flash hit, or on a
/// miss that is admitted — a separate RAM insert whose victims demote.
struct TwoCalls {
    ram: RangeCache,
    flash: Option<RangeCache>,
    stats: TierStats,
}

impl TwoCalls {
    fn lookup(&mut self, s: u64, l: u64) -> TierLookup {
        if self.ram.covers(Pba::new(s), l) {
            self.stats.ram_hits += 1;
            return TierLookup::Ram;
        }
        if self
            .flash
            .as_mut()
            .is_some_and(|f| f.covers(Pba::new(s), l))
        {
            self.stats.flash_hits += 1;
            self.stats.promotions += 1;
            self.admit(s, l);
            return TierLookup::Flash;
        }
        self.stats.misses += 1;
        TierLookup::Miss
    }

    fn admit(&mut self, s: u64, l: u64) {
        let (flash, stats) = (&mut self.flash, &mut self.stats);
        self.ram
            .insert_evicting(Pba::new(s), l, &mut |victim, len| {
                if let Some(flash) = flash.as_mut() {
                    stats.demoted_sectors += len;
                    stats.flash_evicted_sectors += flash.insert(victim, len);
                }
            });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `lookup_admitting` answers, fills, evicts, demotes and counts
    /// exactly as a lookup followed (on an admitted miss) by an admit,
    /// in the single-tier and the flash-backed cache alike, with RAM
    /// holding from a few dozen to hundreds of entries (several index
    /// chunks).
    #[test]
    fn fused_lookup_admit_matches_two_calls(
        ops in tier_ops(),
        ram in 60u64..2_500,
        flash in prop_oneof![Just(None), (200u64..8_000).prop_map(Some)],
    ) {
        let mut fused = match flash {
            Some(f) => TieredCache::with_flash_sectors(ram, f),
            None => TieredCache::single_sectors(ram),
        };
        let mut two_calls = TwoCalls {
            ram: RangeCache::with_capacity_sectors(ram),
            flash: flash.map(RangeCache::with_capacity_sectors),
            stats: TierStats::default(),
        };
        for (i, &(s, l, admit)) in ops.iter().enumerate() {
            let got = fused.lookup_admitting(Pba::new(s), l, admit);
            let want = two_calls.lookup(s, l);
            if want == TierLookup::Miss && admit {
                two_calls.admit(s, l);
            }
            prop_assert_eq!(got, want, "step {}", i);
            prop_assert_eq!(fused.ram(), &two_calls.ram, "step {}", i);
            prop_assert_eq!(fused.flash(), two_calls.flash.as_ref(), "step {}", i);
            prop_assert_eq!(fused.stats(), two_calls.stats, "step {}", i);
        }
        prop_assert!(fused.ram().stats().evictions > 0, "RAM budget never bit");
    }
}
