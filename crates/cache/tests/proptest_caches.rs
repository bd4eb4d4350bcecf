//! Property tests: `RangeCache` against a per-sector model and against a
//! most-recent-first list model — at hundreds and at thousands of live
//! entries, with the bucket width growing mid-run, on a sparse space with
//! ranges straddling bucket boundaries, and with zero-length probes — and
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
        if l == 0 {
            // Vacuously covered; the entry holding `s`, if any, is touched.
            let holder = self.overlapping(s, s + 1);
            self.touch(&holder);
            return true;
        }
        let involved = self.overlapping(s, s + l);
        let covered = (s..s + l).all(|x| involved.iter().any(|&(es, el)| es <= x && x < es + el));
        if covered {
            self.touch(&involved);
        }
        covered
    }

    /// Returns the victims, least recently used first.
    fn insert(&mut self, s: u64, l: u64) -> Vec<(u64, u64)> {
        if l == 0 {
            return Vec::new();
        }
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

/// Replays `ops` through a cache of `budget` sectors and the list model:
/// the victim sequence of every insert, every `covers` answer and the
/// cached ranges must match. Returns the most live entries seen and the
/// evictions made.
fn check_against_list_model(ops: &[RangeOp], budget: u64) -> Result<(usize, u64), TestCaseError> {
    let mut cache = RangeCache::with_capacity_sectors(budget);
    let mut model = RangeModel {
        entries: Vec::new(),
        capacity: budget,
    };
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
        prop_assert_eq!(cache.len(), model.entries.len(), "step {}", i);
        prop_assert_eq!(cache.sectors_used(), model.used());
    }
    prop_assert_eq!(cache.ranges(), model.ranges());
    Ok((peak, cache.stats().evictions))
}

/// Like [`check_against_list_model`], but also compares the cached
/// ranges after every step: affordable at a few hundred entries.
fn check_each_step_against_list_model(
    ops: &[RangeOp],
    budget: u64,
) -> Result<(usize, u64), TestCaseError> {
    let mut cache = RangeCache::with_capacity_sectors(budget);
    let mut model = RangeModel {
        entries: Vec::new(),
        capacity: budget,
    };
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
    Ok((peak, cache.stats().evictions))
}

/// More live entries than this make the scale tests' caches large: the
/// bar a run must clear to count.
const SCALE_ENTRIES: usize = 256;

/// Short ranges first, then ranges up to 4,096 sectors mixed in, so the
/// bucket width grows while hundreds of entries are live; probes of any
/// length, zero included.
fn widening_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    let short = prop::collection::vec(
        prop_oneof![
            3 => (0u64..40_000, 1u64..16).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            1 => (0u64..40_000, 0u64..24).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        600..800,
    );
    let mixed = prop::collection::vec(
        prop_oneof![
            4 => (0u64..40_000, 1u64..16).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            1 => (0u64..40_000, 16u64..=4096).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            2 => (0u64..40_000, 0u64..64).prop_map(|(s, l)| RangeOp::Covers(s, l)),
            1 => (0u64..40_000, 64u64..=4096).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        200..400,
    );
    (short, mixed).prop_map(|(mut a, b)| {
        a.extend(b);
        a
    })
}

/// A start on a sparse space up to 2^40: one of a few far-apart anchors,
/// plus an offset drawn near a multiple of 2^`k` (a bucket boundary for
/// any bucket width up to 2^`k`), sometimes just below it.
fn sparse_start() -> impl Strategy<Value = u64> {
    (0u64..6, 4u32..13, 0u64..64, 0u64..48, prop::bool::ANY).prop_map(
        |(anchor, k, m, off, below)| {
            let base = anchor.wrapping_mul(0x2_7D4E_B2D5) % (1 << 40);
            let boundary = (base >> k << k) + (m << k);
            let s = if below {
                boundary.saturating_sub(off)
            } else {
                boundary + off
            };
            s % (1 << 40)
        },
    )
}

fn sparse_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (sparse_start(), 1u64..200).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            2 => (sparse_start(), 0u64..400).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        300..600,
    )
}

fn scale_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u64..12_000, 1u64..16).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            2 => (0u64..12_000, 0u64..24).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        900..1100,
    )
}

/// Thousands of short ranges over a wide space, with probes between.
fn thousands_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u64..1 << 22, 1u64..12).prop_map(|(s, l)| RangeOp::Insert(s, l)),
            1 => (0u64..1 << 22, 0u64..12).prop_map(|(s, l)| RangeOp::Covers(s, l)),
        ],
        9_000..9_500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under a tight budget with hundreds of live entries, the victim
    /// sequence of every insert, every `covers` answer and the cached
    /// ranges match the list model exactly.
    #[test]
    fn range_cache_matches_recency_list_model(ops in scale_ops(), budget in 1800u64..2600) {
        let (peak, evictions) = check_each_step_against_list_model(&ops, budget)?;
        prop_assert!(peak > SCALE_ENTRIES, "cache stayed small: peak {} entries", peak);
        prop_assert!(evictions > 100, "budget never bit: {} evictions", evictions);
    }

    /// Ranges up to 4,096 sectors arriving after hundreds of short ones
    /// widen the buckets mid-run; the cache still matches the list model.
    #[test]
    fn range_cache_matches_list_model_as_buckets_widen(
        ops in widening_ops(),
        budget in 6_000u64..12_000,
    ) {
        let (peak, evictions) = check_each_step_against_list_model(&ops, budget)?;
        prop_assert!(peak > SCALE_ENTRIES, "cache stayed small: peak {} entries", peak);
        prop_assert!(evictions > 0, "budget never bit");
    }

    /// Starts on a sparse space up to 2^40, many near bucket boundaries
    /// so that ranges straddle them, match the list model.
    #[test]
    fn range_cache_matches_list_model_on_sparse_straddling_ranges(
        ops in sparse_ops(),
        budget in 2_000u64..20_000,
    ) {
        check_each_step_against_list_model(&ops, budget)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With at least 5,000 live entries, every insert's victims come out
    /// in the list model's least-recently-used-first order.
    #[test]
    fn range_cache_victim_order_matches_list_model_at_thousands_of_entries(
        ops in thousands_ops(),
        budget in 31_000u64..32_000,
    ) {
        let (peak, evictions) = check_against_list_model(&ops, budget)?;
        prop_assert!(peak >= 5_000, "cache stayed small: peak {} entries", peak);
        prop_assert!(evictions > 1_000, "budget barely bit: {} evictions", evictions);
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

    /// The same with a flash tier four times the RAM tier, as the
    /// adaptive configuration sizes it: demoted ranges pile up in flash,
    /// come back on flash hits, and overflow flash in turn.
    #[test]
    fn fused_lookup_admit_matches_two_calls_with_flash_four_times_ram(
        ops in tier_ops(),
        ram in 60u64..1_200,
    ) {
        let mut fused = TieredCache::with_flash_sectors(ram, 4 * ram);
        let mut two_calls = TwoCalls {
            ram: RangeCache::with_capacity_sectors(ram),
            flash: Some(RangeCache::with_capacity_sectors(4 * ram)),
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
        let stats = fused.stats();
        prop_assert!(stats.flash_hits > 0, "flash never served: {:?}", stats);
        prop_assert!(stats.flash_evicted_sectors > 0, "flash never overflowed: {:?}", stats);
    }
}
