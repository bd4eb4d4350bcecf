//! A two-level (RAM + simulated flash) cache over physical sector ranges.
//!
//! The paper's selective cache (§IV-C) is a single 64 MB RAM tier; ROADMAP
//! open item 3 replaces it with a multi-level cache: a small RAM tier backed
//! by a much larger simulated flash tier. Lookups try RAM first, then
//! flash; a flash hit **promotes** the range into RAM, and RAM evictions
//! **demote** their victims into flash instead of dropping them — so the
//! flash tier holds the recently-evicted working set that a single-tier
//! cache would have to re-read from the disk with a seek. The two tiers
//! have distinct hit costs (a flash hit pays `smrseek-disk`'s
//! `FlashProfile` latency, a RAM hit is free), which is what makes the
//! split observable in time-weighted experiments.
//!
//! Like [`RangeCache`], the tiers track presence and recency only — in a
//! log-structured system physical sectors are written once, so entries
//! never go stale.

use crate::range::RangeCache;
use serde::{Deserialize, Serialize};
use smrseek_trace::Pba;

/// Which tier (if any) served a [`TieredCache::lookup`].
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
/// c.admit(Pba::new(0), 16);
/// c.admit(Pba::new(100), 16); // RAM over budget: [0,16) demotes to flash
/// assert_eq!(c.lookup(Pba::new(0), 16), TierLookup::Flash); // promoted back
/// assert_eq!(c.lookup(Pba::new(0), 16), TierLookup::Ram);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// promotes the range into RAM (demoting RAM victims back to flash).
    pub fn lookup(&mut self, pba: Pba, sectors: u64) -> TierLookup {
        if self.ram.covers(pba, sectors) {
            self.stats.ram_hits += 1;
            return TierLookup::Ram;
        }
        let flash_hit = self
            .flash
            .as_mut()
            .is_some_and(|flash| flash.covers(pba, sectors));
        if flash_hit {
            self.stats.flash_hits += 1;
            self.stats.promotions += 1;
            self.admit(pba, sectors);
            TierLookup::Flash
        } else {
            self.stats.misses += 1;
            TierLookup::Miss
        }
    }

    /// Fills `[pba, pba + sectors)` into the RAM tier; RAM victims demote
    /// to flash (when configured) instead of being dropped.
    pub fn admit(&mut self, pba: Pba, sectors: u64) {
        match &mut self.flash {
            None => {
                self.ram.insert(pba, sectors);
            }
            Some(flash) => {
                // Two disjoint &mut borrows (ram + flash) — destructured
                // above so the closure can reach flash while ram evicts.
                let stats = &mut self.stats;
                self.ram.insert_evicting(pba, sectors, &mut |victim, len| {
                    stats.demoted_sectors += len;
                    stats.flash_evicted_sectors += flash.insert(victim, len);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn single_tier_behaves_like_range_cache() {
        let mut tiered = TieredCache::single_sectors(30);
        let mut plain = RangeCache::with_capacity_sectors(30);
        for i in 0..20u64 {
            tiered.admit(pba(i * 100), 10);
            plain.insert(pba(i * 100), 10);
            assert_eq!(
                tiered.lookup(pba(i * 100 / 2), 10).is_hit(),
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
        c.admit(pba(0), 10);
        c.admit(pba(100), 10);
        c.admit(pba(200), 10); // RAM over budget: [0,10) demotes
        assert_eq!(c.stats().demoted_sectors, 10);
        assert!(c.flash().unwrap().peek_covers(pba(0), 10));
        assert!(!c.ram().peek_covers(pba(0), 10));
        // A single-tier cache would miss here; the flash tier serves it.
        assert_eq!(c.lookup(pba(0), 10), TierLookup::Flash);
    }

    #[test]
    fn flash_hit_promotes_back_to_ram() {
        let mut c = TieredCache::with_flash_sectors(20, 100);
        c.admit(pba(0), 10);
        c.admit(pba(100), 10);
        c.admit(pba(200), 10); // [0,10) now in flash only
        assert_eq!(c.lookup(pba(0), 10), TierLookup::Flash);
        assert_eq!(c.stats().promotions, 1);
        // Promotion put it back in RAM (demoting the RAM LRU).
        assert_eq!(c.lookup(pba(0), 10), TierLookup::Ram);
        assert_eq!(c.stats().ram_hits, 1);
    }

    #[test]
    fn flash_overflow_counts_evicted_sectors() {
        let mut c = TieredCache::with_flash_sectors(10, 20);
        for i in 0..6u64 {
            c.admit(pba(i * 100), 10); // each demotion overflows flash
        }
        assert!(c.stats().flash_evicted_sectors > 0);
        assert!(c.flash().unwrap().sectors_used() <= 20);
    }

    #[test]
    fn miss_counts_once_across_both_tiers() {
        let mut c = TieredCache::with_flash_sectors(10, 20);
        assert_eq!(c.lookup(pba(0), 5), TierLookup::Miss);
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

    #[test]
    fn serde_round_trip_preserves_lru_order() {
        let mut c = TieredCache::with_flash_sectors(20, 100);
        c.admit(pba(0), 10);
        c.admit(pba(100), 10);
        c.lookup(pba(0), 10); // refresh: [100,110) is now RAM LRU
        let json = serde_json::to_string(&c).expect("serializes");
        let mut back: TieredCache = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, c);
        back.admit(pba(200), 10);
        c.admit(pba(200), 10);
        assert_eq!(back, c, "same demotion victim after round trip");
    }
}
