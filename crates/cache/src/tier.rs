//! A two-level (RAM + simulated flash) cache over physical sector ranges.
//!
//! The paper's selective cache (§IV-C) is a single 64 MB RAM tier; ROADMAP
//! open item 3 replaces it with a multi-level cache: a small RAM tier backed
//! by a much larger simulated flash tier. Lookups try RAM first, then
//! flash; a flash hit **promotes** the range into RAM, and RAM evictions
//! **demote** their victims into flash instead of dropping them — so the
//! flash tier holds the recently-evicted working set that a single-tier
//! cache would have to re-read from the disk with a seek. Either hit
//! avoids the seek; [`TierStats`] counts RAM and flash hits apart, so the
//! split shows in every report that carries the per-tier counters.
//!
//! Like [`RangeCache`], the tiers track presence and recency only — in a
//! log-structured system physical sectors are written once, so entries
//! never go stale.

use crate::range::{Probe, RangeCache};
use serde::{Deserialize, Serialize};
use smrseek_trace::Pba;

/// Which tier (if any) served a [`TieredCache::lookup_admitting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierLookup {
    /// Served from the RAM tier: free.
    Ram,
    /// Served from the flash tier: pays the flash hit latency; the range
    /// was promoted into RAM.
    Flash,
    /// Neither tier holds the range.
    Miss,
}

impl TierLookup {
    /// Whether the lookup was served by either tier.
    pub fn is_hit(self) -> bool {
        !matches!(self, TierLookup::Miss)
    }
}

/// Pure event counts of one [`TieredCache`]'s activity.
///
/// Every field is an additive event count, so stats of separate runs
/// merge by fieldwise addition (the daemon totals a sweep's cells this
/// way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Lookups served by the RAM tier.
    pub ram_hits: u64,
    /// Lookups served by the flash tier (each also counts one promotion).
    pub flash_hits: u64,
    /// Lookups neither tier could serve.
    pub misses: u64,
    /// Ranges promoted flash → RAM on a flash hit.
    pub promotions: u64,
    /// Sectors demoted RAM → flash on RAM eviction.
    pub demoted_sectors: u64,
    /// Sectors evicted out of the flash tier entirely.
    pub flash_evicted_sectors: u64,
}

impl TierStats {
    /// Folds another run's counters into this one (fieldwise addition).
    pub fn merge(&mut self, other: &TierStats) {
        self.ram_hits += other.ram_hits;
        self.flash_hits += other.flash_hits;
        self.misses += other.misses;
        self.promotions += other.promotions;
        self.demoted_sectors += other.demoted_sectors;
        self.flash_evicted_sectors += other.flash_evicted_sectors;
    }

    /// Overall hit fraction (either tier) in `[0, 1]`; 0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.ram_hits + self.flash_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.ram_hits + self.flash_hits) as f64 / total as f64
        }
    }
}

/// A RAM tier with an optional flash tier behind it.
///
/// Without a flash tier this behaves exactly like the single
/// [`RangeCache`] it wraps (evictions drop), so the paper's fixed
/// selective-cache configuration is the degenerate case.
///
/// # Example
///
/// ```
/// use smrseek_cache::{TieredCache, TierLookup};
/// use smrseek_trace::Pba;
///
/// let mut c = TieredCache::with_flash_sectors(16, 64);
/// assert_eq!(c.lookup_admitting(Pba::new(0), 16, true), TierLookup::Miss); // filled
/// c.lookup_admitting(Pba::new(100), 16, true); // RAM over budget: [0,16) demotes
/// assert_eq!(c.lookup_admitting(Pba::new(0), 16, false), TierLookup::Flash); // promoted
/// assert_eq!(c.lookup_admitting(Pba::new(0), 16, false), TierLookup::Ram);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredCache {
    ram: RangeCache,
    flash: Option<RangeCache>,
    stats: TierStats,
}

impl TieredCache {
    /// A single-tier cache of `ram_sectors` sectors (no flash).
    pub fn single_sectors(ram_sectors: u64) -> Self {
        TieredCache {
            ram: RangeCache::with_capacity_sectors(ram_sectors),
            flash: None,
            stats: TierStats::default(),
        }
    }

    /// A single-tier cache of `ram_bytes` bytes (no flash).
    pub fn single_bytes(ram_bytes: u64) -> Self {
        TieredCache {
            ram: RangeCache::with_capacity_bytes(ram_bytes),
            flash: None,
            stats: TierStats::default(),
        }
    }

    /// A two-tier cache with sector budgets per tier.
    pub fn with_flash_sectors(ram_sectors: u64, flash_sectors: u64) -> Self {
        TieredCache {
            ram: RangeCache::with_capacity_sectors(ram_sectors),
            flash: Some(RangeCache::with_capacity_sectors(flash_sectors)),
            stats: TierStats::default(),
        }
    }

    /// A two-tier cache with byte budgets per tier.
    pub fn with_flash_bytes(ram_bytes: u64, flash_bytes: u64) -> Self {
        TieredCache {
            ram: RangeCache::with_capacity_bytes(ram_bytes),
            flash: Some(RangeCache::with_capacity_bytes(flash_bytes)),
            stats: TierStats::default(),
        }
    }

    /// Whether a flash tier is configured.
    pub fn has_flash(&self) -> bool {
        self.flash.is_some()
    }

    /// The RAM tier.
    pub fn ram(&self) -> &RangeCache {
        &self.ram
    }

    /// The flash tier, when configured.
    pub fn flash(&self) -> Option<&RangeCache> {
        self.flash.as_ref()
    }

    /// Tier-level event counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Looks `[pba, pba + sectors)` up RAM-first, then flash. A flash hit
    /// promotes the range into RAM; a miss is filled into RAM when
    /// `admit_miss` is set (Alg. 3's WriteCache). RAM victims of either
    /// fill demote to flash (when configured) instead of being dropped.
    /// The RAM tier is probed once: a fill goes in through the probe's
    /// [`Uncovered`](crate::range::Uncovered) handle. A promoted range
    /// stays in flash too, so it then counts against both tiers' budgets.
    pub fn lookup_admitting(&mut self, pba: Pba, sectors: u64, admit_miss: bool) -> TierLookup {
        let Probe::Uncovered(slot) = self.ram.probe(pba, sectors) else {
            self.stats.ram_hits += 1;
            return TierLookup::Ram;
        };
        let flash_hit = self
            .flash
            .as_mut()
            .is_some_and(|flash| flash.covers(pba, sectors));
        let found = if flash_hit {
            self.stats.flash_hits += 1;
            self.stats.promotions += 1;
            TierLookup::Flash
        } else {
            self.stats.misses += 1;
            TierLookup::Miss
        };
        if found == TierLookup::Miss && !admit_miss {
            return found;
        }
        let (flash, stats) = (&mut self.flash, &mut self.stats);
        slot.insert_evicting(&mut |victim, len| {
            if let Some(flash) = flash {
                stats.demoted_sectors += len;
                stats.flash_evicted_sectors += flash.insert(victim, len);
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn a_promoted_flash_hit_stays_in_flash() {
        // Pins today's promotion: the range is copied into RAM and kept
        // in flash, whose budget it still takes. Moving it instead would
        // change cache reports; whoever does that flips this test.
        let mut tiered = TieredCache::with_flash_sectors(20, 100);
        tiered.lookup_admitting(pba(0), 10, true);
        tiered.lookup_admitting(pba(100), 10, true);
        tiered.lookup_admitting(pba(200), 10, true); // demotes [0, 10)
        let flash = tiered.flash().expect("a flash tier");
        assert!(!tiered.ram().peek_covers(pba(0), 10));
        assert!(flash.peek_covers(pba(0), 10));
        assert_eq!(flash.sectors_used(), 10);
        assert_eq!(tiered.lookup_admitting(pba(0), 10, true), TierLookup::Flash);
        let flash = tiered.flash().expect("a flash tier");
        assert!(tiered.ram().peek_covers(pba(0), 10), "promoted into RAM");
        assert!(flash.peek_covers(pba(0), 10), "and kept in flash");
        // [100, 110) was demoted by the promotion; [0, 10) still counts.
        assert!(flash.peek_covers(pba(100), 10));
        assert_eq!(flash.sectors_used(), 20);
    }

    #[test]
    fn single_tier_behaves_like_range_cache() {
        let mut tiered = TieredCache::single_sectors(30);
        let mut plain = RangeCache::with_capacity_sectors(30);
        for i in 0..20u64 {
            tiered.lookup_admitting(pba(i * 100), 10, true);
            if !plain.covers(pba(i * 100), 10) {
                plain.insert(pba(i * 100), 10);
            }
            assert_eq!(
                tiered
                    .lookup_admitting(pba(i * 100 / 2), 10, false)
                    .is_hit(),
                plain.covers(pba(i * 100 / 2), 10),
                "step {i}"
            );
        }
        assert_eq!(tiered.ram(), &plain);
        assert_eq!(tiered.stats().flash_hits, 0);
        assert_eq!(tiered.stats().demoted_sectors, 0);
    }

    #[test]
    fn ram_eviction_demotes_to_flash() {
        let mut c = TieredCache::with_flash_sectors(20, 100);
        c.lookup_admitting(pba(0), 10, true);
        c.lookup_admitting(pba(100), 10, true);
        c.lookup_admitting(pba(200), 10, true); // RAM over budget: [0,10) demotes
        assert_eq!(c.stats().demoted_sectors, 10);
        assert!(c.flash().unwrap().peek_covers(pba(0), 10));
        assert!(!c.ram().peek_covers(pba(0), 10));
        // A single-tier cache would miss here; the flash tier serves it.
        assert_eq!(c.lookup_admitting(pba(0), 10, false), TierLookup::Flash);
    }

    #[test]
    fn flash_hit_promotes_back_to_ram() {
        let mut c = TieredCache::with_flash_sectors(20, 100);
        c.lookup_admitting(pba(0), 10, true);
        c.lookup_admitting(pba(100), 10, true);
        c.lookup_admitting(pba(200), 10, true); // [0,10) now in flash only
        assert_eq!(c.lookup_admitting(pba(0), 10, false), TierLookup::Flash);
        assert_eq!(c.stats().promotions, 1);
        // Promotion put it back in RAM (demoting the RAM LRU).
        assert_eq!(c.lookup_admitting(pba(0), 10, false), TierLookup::Ram);
        assert_eq!(c.stats().ram_hits, 1);
    }

    #[test]
    fn flash_overflow_counts_evicted_sectors() {
        let mut c = TieredCache::with_flash_sectors(10, 20);
        for i in 0..6u64 {
            c.lookup_admitting(pba(i * 100), 10, true); // each demotion overflows flash
        }
        assert!(c.stats().flash_evicted_sectors > 0);
        assert!(c.flash().unwrap().sectors_used() <= 20);
    }

    #[test]
    fn miss_counts_once_across_both_tiers() {
        let mut c = TieredCache::with_flash_sectors(10, 20);
        assert_eq!(c.lookup_admitting(pba(0), 5, false), TierLookup::Miss);
        let s = c.stats();
        assert_eq!((s.ram_hits, s.flash_hits, s.misses), (0, 0, 1));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let mut a = TierStats {
            ram_hits: 1,
            flash_hits: 2,
            misses: 3,
            promotions: 4,
            demoted_sectors: 5,
            flash_evicted_sectors: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.ram_hits, 2);
        assert_eq!(a.flash_evicted_sectors, 12);
        assert!((a.hit_rate() - 6.0 / 12.0).abs() < 1e-12);
    }
}
