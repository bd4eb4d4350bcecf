//! Fragment statistics: dynamic-fragmentation CDFs (Fig 5) and fragment
//! popularity / cumulative cache size (Fig 10).

use serde::{Deserialize, Serialize};
use smrseek_trace::{Pba, SECTOR_SIZE};
use std::collections::HashMap;

/// Accumulates per-read fragment counts and per-fragment access counts
/// while a log-structured layer serves reads.
///
/// A *fragment* is one physically-contiguous piece of a fragmented read,
/// identified by its starting physical sector. Because the log never reuses
/// physical sectors (infinite-disk model), a start sector uniquely
/// identifies the data revision it holds.
///
/// # Example
///
/// ```
/// use smrseek_stl::FragmentAccessTracker;
/// use smrseek_trace::Pba;
///
/// let mut t = FragmentAccessTracker::new();
/// t.record_read(&[(Pba::new(100), 8), (Pba::new(5000), 8)]); // 2 fragments
/// t.record_read(&[(Pba::new(100), 8), (Pba::new(5000), 8)]);
/// assert_eq!(t.fragmented_read_count(), 2);
/// let pop = t.popularity();
/// assert_eq!(pop[0].access_count, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FragmentAccessTracker {
    /// Fragment count of each fragmented read, in trace order.
    per_read_fragments: Vec<u32>,
    /// pba start sector -> (access count, sectors)
    fragments: HashMap<u64, (u64, u64)>,
}

/// One fragment's aggregate statistics, as plotted in Fig 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentPopularity {
    /// Identifying physical start sector.
    pub pba: Pba,
    /// How many fragmented reads touched this fragment.
    pub access_count: u64,
    /// Fragment size in bytes (what caching it would cost).
    pub bytes: u64,
}

impl FragmentAccessTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        FragmentAccessTracker::default()
    }

    /// Records one *fragmented* read (two or more physical runs). Reads
    /// with a single run should not be recorded — Fig 5 and Fig 10 both
    /// consider fragmented reads only.
    pub fn record_read(&mut self, runs: &[(Pba, u64)]) {
        debug_assert!(runs.len() >= 2, "only fragmented reads are recorded");
        self.per_read_fragments
            .push(u32::try_from(runs.len()).unwrap_or(u32::MAX));
        for &(pba, sectors) in runs {
            let entry = self.fragments.entry(pba.sector()).or_insert((0, sectors));
            entry.0 += 1;
            entry.1 = entry.1.max(sectors);
        }
    }

    /// Number of fragmented reads recorded.
    pub fn fragmented_read_count(&self) -> usize {
        self.per_read_fragments.len()
    }

    /// Number of distinct fragments seen.
    pub fn distinct_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Fragment counts of the recorded fragmented reads, in trace order —
    /// the raw samples of Fig 5's CDFs.
    pub fn per_read_fragment_counts(&self) -> &[u32] {
        &self.per_read_fragments
    }

    /// Fragments sorted by access count, most popular first (ties broken
    /// by physical address for determinism) — the solid curve of Fig 10.
    pub fn popularity(&self) -> Vec<FragmentPopularity> {
        let mut out: Vec<FragmentPopularity> = self
            .fragments
            .iter()
            .map(|(&pba, &(count, sectors))| FragmentPopularity {
                pba: Pba::new(pba),
                access_count: count,
                bytes: sectors * SECTOR_SIZE,
            })
            .collect();
        out.sort_by(|a, b| b.access_count.cmp(&a.access_count).then(a.pba.cmp(&b.pba)));
        out
    }

    /// The dashed curve of Fig 10: walking fragments from most to least
    /// popular, the cumulative bytes of cache needed to hold them. Entry
    /// `i` is the cache size covering the `i+1` most popular fragments.
    pub fn cumulative_cache_bytes(&self) -> Vec<u64> {
        let mut cum = 0u64;
        self.popularity()
            .iter()
            .map(|f| {
                cum += f.bytes;
                cum
            })
            .collect()
    }

    /// Bytes of cache needed to capture `fraction` (in `[0, 1]`) of all
    /// fragment accesses, serving the most popular fragments first.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn cache_bytes_for_access_fraction(&self, fraction: f64) -> u64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let total: u64 = self.fragments.values().map(|&(c, _)| c).sum();
        let target = (total as f64 * fraction).ceil() as u64;
        let mut covered = 0u64;
        let mut bytes = 0u64;
        for f in self.popularity() {
            if covered >= target {
                break;
            }
            covered += f.access_count;
            bytes += f.bytes;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn empty_tracker() {
        let t = FragmentAccessTracker::new();
        assert_eq!(t.fragmented_read_count(), 0);
        assert_eq!(t.distinct_fragments(), 0);
        assert!(t.popularity().is_empty());
        assert!(t.cumulative_cache_bytes().is_empty());
        assert_eq!(t.cache_bytes_for_access_fraction(0.5), 0);
    }

    #[test]
    fn popularity_sorted_desc() {
        let mut t = FragmentAccessTracker::new();
        t.record_read(&[(pba(10), 1), (pba(20), 2)]);
        t.record_read(&[(pba(10), 1), (pba(30), 4)]);
        t.record_read(&[(pba(10), 1), (pba(30), 4)]);
        let pop = t.popularity();
        assert_eq!(pop.len(), 3);
        assert_eq!(pop[0].pba, pba(10));
        assert_eq!(pop[0].access_count, 3);
        assert_eq!(pop[1].pba, pba(30));
        assert_eq!(pop[1].access_count, 2);
        assert_eq!(pop[2].access_count, 1);
        assert_eq!(pop[1].bytes, 4 * SECTOR_SIZE);
    }

    #[test]
    fn per_read_counts_in_order() {
        let mut t = FragmentAccessTracker::new();
        t.record_read(&[(pba(0), 1), (pba(9), 1)]);
        t.record_read(&[(pba(0), 1), (pba(9), 1), (pba(99), 1)]);
        assert_eq!(t.per_read_fragment_counts(), &[2, 3]);
        assert_eq!(t.fragmented_read_count(), 2);
        assert_eq!(t.distinct_fragments(), 3);
    }

    #[test]
    fn cumulative_cache_curve_monotone() {
        let mut t = FragmentAccessTracker::new();
        t.record_read(&[(pba(0), 2), (pba(10), 4)]);
        t.record_read(&[(pba(0), 2), (pba(20), 8)]);
        let curve = t.cumulative_cache_bytes();
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*curve.last().unwrap(), (2 + 4 + 8) * SECTOR_SIZE);
    }

    #[test]
    fn cache_fraction_prefers_popular() {
        let mut t = FragmentAccessTracker::new();
        // Fragment 0 is hot (3 accesses, small); fragment 100 cold (1, big).
        for _ in 0..3 {
            t.record_read(&[(pba(0), 1), (pba(50), 1)]);
        }
        t.record_read(&[(pba(100), 1000), (pba(5000), 1)]);
        let hot_bytes = t.cache_bytes_for_access_fraction(0.3);
        // 30% of 8 accesses = 3 -> the single hottest fragment suffices.
        assert_eq!(hot_bytes, SECTOR_SIZE);
        let all = t.cache_bytes_for_access_fraction(1.0);
        assert_eq!(all, (1 + 1 + 1000 + 1) * SECTOR_SIZE);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn fraction_validated() {
        FragmentAccessTracker::new().cache_bytes_for_access_fraction(1.5);
    }
}
