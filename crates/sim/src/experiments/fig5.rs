//! Fig 5: CDF of dynamic fragmentation across *fragmented* reads for
//! `usr_0`, `hm_1`, `w20` and `w36`.
//!
//! Expected shape: fragments are concentrated — "the bulk of the fragments
//! are found in a small fraction of the read operations": for `usr_0`,
//! `hm_1` and `w20` over half of all fragments fall in ~20% of the
//! fragmented reads, and the disparity is even higher for `w36`.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::MatrixStats;
use serde::Serialize;
use std::num::NonZeroUsize;

/// The workloads plotted in Fig 5.
pub const WORKLOADS: [&str; 4] = ["usr_0", "hm_1", "w20", "w36"];

/// Per-read fragment-count distribution of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Dist {
    /// Workload name.
    pub workload: String,
    /// Fragment count of each fragmented read, in trace order.
    pub per_read_fragments: Vec<u32>,
}

impl Fig5Dist {
    /// Number of fragmented reads.
    pub fn fragmented_reads(&self) -> usize {
        self.per_read_fragments.len()
    }

    /// Total fragments across fragmented reads.
    pub fn total_fragments(&self) -> u64 {
        self.per_read_fragments.iter().map(|&c| u64::from(c)).sum()
    }

    /// Smallest fraction of fragmented reads that accounts for `fraction`
    /// of all fragments (reads sorted most-fragmented first) — the
    /// concentration statistic behind Fig 5's bowed CDFs.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn reads_holding_fragment_share(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        if self.per_read_fragments.is_empty() {
            return 0.0;
        }
        let mut sorted = self.per_read_fragments.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let target = self.total_fragments() as f64 * fraction;
        let mut acc = 0.0;
        for (i, &c) in sorted.iter().enumerate() {
            acc += f64::from(c);
            if acc >= target {
                return (i + 1) as f64 / sorted.len() as f64;
            }
        }
        1.0
    }

    /// `(fragment_count, F)` CDF points over the recorded reads.
    pub fn cdf_points(&self) -> Vec<(u32, f64)> {
        if self.per_read_fragments.is_empty() {
            return Vec::new();
        }
        let mut sorted = self.per_read_fragments.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let mut points = Vec::new();
        let mut i = 0;
        while i < n {
            let v = sorted[i];
            let mut j = i;
            while j < n && sorted[j] == v {
                j += 1;
            }
            points.push((v, j as f64 / n as f64));
            i = j;
        }
        points
    }
}

/// Measures each `names` workload's fragmented-read distribution as one
/// run matrix on up to `threads` workers.
fn dists(names: &[&str], opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig5Dist>, MatrixStats) {
    let configs = [SimConfig::log_structured().with_fragment_tracking()];
    let profiles = super::named(names);
    super::replay(&profiles, &configs, opts, threads, |profile, cell| {
        let fragments = cell.into_iter().next().and_then(|o| o.report.fragments);
        Fig5Dist {
            workload: profile.name.to_owned(),
            per_read_fragments: fragments
                .expect("fragment tracking was enabled")
                .into_per_read_fragment_counts(),
        }
    })
}

/// Measures the four Fig 5 panels as one run matrix on up to `threads`
/// workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig5Dist>, MatrixStats) {
    dists(&WORKLOADS, opts, threads)
}

/// Renders the concentration statistics.
pub fn render(dists: &[Fig5Dist]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "fragmented reads",
        "total fragments",
        "reads holding 50% of fragments",
        "max frags/read",
    ]);
    for d in dists {
        let max = d.per_read_fragments.iter().copied().max().unwrap_or(0);
        table.row(vec![
            d.workload.clone(),
            d.fragmented_reads().to_string(),
            d.total_fragments().to_string(),
            format!("{:.1}%", 100.0 * d.reads_holding_fragment_share(0.5)),
            max.to_string(),
        ]);
    }
    format!("Fig 5 — dynamic fragmentation of fragmented reads\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 6, ops: 8000 }
    }

    #[test]
    fn fragmented_reads_exist_and_have_at_least_two_fragments() {
        for d in run(&opts(), NonZeroUsize::MIN).0 {
            assert!(
                d.fragmented_reads() > 0,
                "{} must have fragmented reads",
                d.workload
            );
            assert!(d.per_read_fragments.iter().all(|&c| c >= 2));
        }
    }

    #[test]
    fn fragments_are_concentrated() {
        // The paper: >=50% of fragments in <=~20-30% of fragmented reads.
        let names = ["usr_0", "hm_1"];
        for (name, d) in names
            .into_iter()
            .zip(dists(&names, &opts(), NonZeroUsize::MIN).0)
        {
            let share = d.reads_holding_fragment_share(0.5);
            assert!(
                share < 0.5,
                "{name}: 50% of fragments in {:.0}% of reads — not concentrated",
                100.0 * share
            );
        }
    }

    #[test]
    fn cdf_points_monotone_and_terminal() {
        let d = &dists(&["w20"], &opts(), NonZeroUsize::MIN).0[0];
        let pts = d.cdf_points();
        assert!(!pts.is_empty());
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_is_benign() {
        let d = Fig5Dist {
            workload: "x".into(),
            per_read_fragments: Vec::new(),
        };
        assert_eq!(d.reads_holding_fragment_share(0.5), 0.0);
        assert!(d.cdf_points().is_empty());
        assert_eq!(d.total_fragments(), 0);
    }
}
