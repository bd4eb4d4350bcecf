//! Fig 10: fragment popularity and the cumulative cache size needed to
//! hold the most popular fragments, for `usr_1`, `hm_1`, `web_0`,
//! `src2_2`, `w20`, `w33`, `w55` and `w106`.
//!
//! Expected shape: access counts are heavily skewed, and "the fragments
//! responsible for a large majority of accesses add up to a few 10s of MB
//! or less" — the justification for a 64 MB selective cache.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::MatrixStats;
use serde::Serialize;
use smrseek_stl::FragmentAccessTracker;
use smrseek_trace::MIB;
use std::num::NonZeroUsize;

/// The workloads plotted in Fig 10.
pub const WORKLOADS: [&str; 8] = [
    "usr_1", "hm_1", "web_0", "src2_2", "w20", "w33", "w55", "w106",
];

/// Fragment popularity statistics of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Stats {
    /// Workload name.
    pub workload: String,
    /// The raw tracker (popularity curve + cache-size curve).
    pub tracker: FragmentAccessTracker,
}

impl Fig10Stats {
    /// Cache bytes holding the fragments behind `fraction` of accesses.
    pub fn cache_mib_for(&self, fraction: f64) -> f64 {
        self.tracker.cache_bytes_for_access_fraction(fraction) as f64 / MIB as f64
    }

    /// Skew statistic: share of all accesses captured by the top 10% of
    /// fragments.
    pub fn top_decile_access_share(&self) -> f64 {
        let pop = self.tracker.popularity();
        if pop.is_empty() {
            return 0.0;
        }
        let total: u64 = pop.iter().map(|f| f.access_count).sum();
        let top = pop.len().div_ceil(10);
        let head: u64 = pop.iter().take(top).map(|f| f.access_count).sum();
        head as f64 / total.max(1) as f64
    }
}

/// Measures each `names` workload's fragment popularity under plain LS
/// translation, as one run matrix on up to `threads` workers.
fn popularity(
    names: &[&str],
    opts: &ExpOptions,
    threads: NonZeroUsize,
) -> (Vec<Fig10Stats>, MatrixStats) {
    let configs = [SimConfig::log_structured().with_fragment_tracking()];
    let profiles = super::named(names);
    super::replay(&profiles, &configs, opts, threads, |profile, cell| {
        let fragments = cell.into_iter().next().and_then(|o| o.report.fragments);
        Fig10Stats {
            workload: profile.name.to_owned(),
            tracker: fragments.expect("fragment tracking was enabled"),
        }
    })
}

/// Measures the eight Fig 10 panels as one run matrix on up to `threads`
/// workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig10Stats>, MatrixStats) {
    popularity(&WORKLOADS, opts, threads)
}

/// Renders popularity skew and cumulative cache sizes.
pub fn render(stats: &[Fig10Stats]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "fragments",
        "top-10% access share",
        "cache MiB for 50%",
        "cache MiB for 80%",
        "cache MiB for 100%",
    ]);
    for s in stats {
        table.row(vec![
            s.workload.clone(),
            s.tracker.distinct_fragments().to_string(),
            format!("{:.0}%", 100.0 * s.top_decile_access_share()),
            format!("{:.1}", s.cache_mib_for(0.5)),
            format!("{:.1}", s.cache_mib_for(0.8)),
            format!("{:.1}", s.cache_mib_for(1.0)),
        ]);
    }
    format!("Fig 10 — fragment popularity and cumulative cache size\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions {
            seed: 10,
            ops: 8000,
        }
    }

    #[test]
    fn popularity_is_skewed_for_zipf_profiles() {
        let names = ["hm_1", "w55"];
        for (name, s) in names
            .into_iter()
            .zip(popularity(&names, &opts(), NonZeroUsize::MIN).0)
        {
            assert!(
                s.top_decile_access_share() > 0.2,
                "{name}: top decile share {:.2}",
                s.top_decile_access_share()
            );
        }
    }

    #[test]
    fn hot_fragments_fit_small_cache() {
        // The paper's point: the hot set is 10s of MB, not GBs.
        let s = &popularity(&["hm_1"], &opts(), NonZeroUsize::MIN).0[0];
        let hot = s.cache_mib_for(0.8);
        assert!(hot < 64.0, "hm_1 hot set is {hot:.1} MiB");
        assert!(s.cache_mib_for(0.5) <= hot);
        assert!(hot <= s.cache_mib_for(1.0));
    }

    #[test]
    fn cumulative_curve_monotone() {
        let s = &popularity(&["w33"], &opts(), NonZeroUsize::MIN).0[0];
        let curve = s.tracker.cumulative_cache_bytes();
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn run_covers_eight_panels() {
        let (stats, _) = run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN);
        assert_eq!(stats.len(), 8);
        let text = render(&stats);
        for name in WORKLOADS {
            assert!(text.contains(name));
        }
    }
}
