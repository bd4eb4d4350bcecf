//! Fig 4: CDFs of access (seek) distances under NoLS and LS translation
//! for `src2_2`, `usr_0` (older MSR) and `w84`, `w64` (newer
//! CloudPhysics), over a ±2 GB window.
//!
//! Expected shape: under NoLS virtually all seeks fall within ±1 GB; under
//! LS a large fraction move outside that range (seeks between the identity
//! region and the distant log), and the older traces keep more of their LS
//! seeks within ±1 GB than the newer ones.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::{MatrixStats, RunOutcome};
use serde::Serialize;
use smrseek_disk::Cdf;
use smrseek_trace::{GIB, SECTOR_SIZE};
use std::num::NonZeroUsize;

/// The workloads plotted in Fig 4.
pub const WORKLOADS: [&str; 4] = ["src2_2", "usr_0", "w84", "w64"];

/// One sampled CDF curve: `(distance_sectors, fraction)` points.
pub type CdfCurve = Vec<(i64, f64)>;

/// Seek-distance CDFs of one workload under both translations.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Cdfs {
    /// Workload name.
    pub workload: String,
    /// Distance CDF under conventional translation.
    pub nols: Cdf,
    /// Distance CDF under log-structured translation.
    pub ls: Cdf,
}

impl Fig4Cdfs {
    /// Fraction of NoLS seeks within ±`gb` GB.
    pub fn nols_within_gb(&self, gb: f64) -> f64 {
        within_gb(&self.nols, gb)
    }

    /// Fraction of LS seeks within ±`gb` GB.
    pub fn ls_within_gb(&self, gb: f64) -> f64 {
        within_gb(&self.ls, gb)
    }

    /// Sampled `(distance_sectors, F)` curves over ±2 GB for plotting.
    pub fn curves(&self, points: usize) -> (CdfCurve, CdfCurve) {
        let two_gb = (2 * GIB / SECTOR_SIZE) as i64;
        (
            self.nols.curve(-two_gb, two_gb, points),
            self.ls.curve(-two_gb, two_gb, points),
        )
    }
}

fn within_gb(cdf: &Cdf, gb: f64) -> f64 {
    let s = (gb * GIB as f64 / SECTOR_SIZE as f64) as i64;
    cdf.fraction_within(-s, s)
}

/// Computes both CDFs of each `names` workload as one run matrix on up to
/// `threads` workers.
fn cdfs(names: &[&str], opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig4Cdfs>, MatrixStats) {
    let configs = [
        SimConfig::no_ls().with_distances(),
        SimConfig::log_structured().with_distances(),
    ];
    let profiles = super::named(names);
    super::replay(&profiles, &configs, opts, threads, |profile, pair| {
        let pair = <[RunOutcome; 2]>::try_from(pair).expect("a NoLS and an LS cell");
        let [nols, ls] = pair.map(|o| {
            let distances = o.report.distances;
            Cdf::from_samples(distances.expect("run was configured with distances"))
        });
        Fig4Cdfs {
            workload: profile.name.to_owned(),
            nols,
            ls,
        }
    })
}

/// Computes the four Fig 4 panels as one run matrix on up to `threads`
/// workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig4Cdfs>, MatrixStats) {
    cdfs(&WORKLOADS, opts, threads)
}

/// Renders the within-range fractions the figure makes visible.
pub fn render(cdfs: &[Fig4Cdfs]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "NoLS within ±1GB",
        "LS within ±1GB",
        "NoLS within ±0.1GB",
        "LS within ±0.1GB",
        "NoLS seeks",
        "LS seeks",
    ]);
    for c in cdfs {
        table.row(vec![
            c.workload.clone(),
            format!("{:.1}%", 100.0 * c.nols_within_gb(1.0)),
            format!("{:.1}%", 100.0 * c.ls_within_gb(1.0)),
            format!("{:.1}%", 100.0 * c.nols_within_gb(0.1)),
            format!("{:.1}%", 100.0 * c.ls_within_gb(0.1)),
            c.nols.len().to_string(),
            c.ls.len().to_string(),
        ]);
    }
    format!("Fig 4 — CDF of seek distances (NoLS vs LS)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 4, ops: 6000 }
    }

    #[test]
    fn ls_pushes_seeks_outside_the_window() {
        for c in run(&opts(), NonZeroUsize::MIN).0 {
            assert!(
                c.ls_within_gb(1.0) < c.nols_within_gb(1.0) + 1e-9,
                "{}: LS {:.2} should not concentrate more than NoLS {:.2}",
                c.workload,
                c.ls_within_gb(1.0),
                c.nols_within_gb(1.0)
            );
        }
    }

    #[test]
    fn nols_seeks_are_local() {
        let c = &cdfs(&["usr_0"], &opts(), NonZeroUsize::MIN).0[0];
        assert!(
            c.nols_within_gb(2.0) > 0.95,
            "NoLS seeks should be within the workload footprint, got {:.2}",
            c.nols_within_gb(2.0)
        );
    }

    #[test]
    fn curves_are_monotone() {
        let c = &cdfs(&["w64"], &opts(), NonZeroUsize::MIN).0[0];
        let (nols, ls) = c.curves(17);
        for curve in [nols, ls] {
            assert_eq!(curve.len(), 17);
            assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn render_mentions_all_panels() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN).0);
        for name in WORKLOADS {
            assert!(text.contains(name));
        }
    }
}
