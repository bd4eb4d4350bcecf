//! Fig 8: mis-ordered writes within a 256 KB look-ahead window.
//!
//! Expected shape: mis-ordering is workload-dependent, reaching roughly
//! one write in 25 for `w106` and one in 20 for `src2_2`; profiles built
//! from descending or interleaved write streams rank highest.

use super::ExpOptions;
use crate::report::TextTable;
use crate::runner::parallel_map;
use serde::Serialize;
use smrseek_stl::{count_misordered_writes, MISORDER_WINDOW_BYTES};
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;

/// Mis-ordered write statistics of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    /// Workload name.
    pub workload: String,
    /// Mis-ordered writes within the window.
    pub misordered: u64,
    /// Total writes.
    pub total_writes: u64,
}

impl Fig8Row {
    /// Mis-ordered fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total_writes == 0 {
            0.0
        } else {
            self.misordered as f64 / self.total_writes as f64
        }
    }
}

/// Measures one workload.
pub fn run_one(profile: &Profile, opts: &ExpOptions) -> Fig8Row {
    let trace = profile.generate_scaled(opts.seed, opts.ops);
    let (misordered, total_writes) = count_misordered_writes(&trace, MISORDER_WINDOW_BYTES);
    Fig8Row {
        workload: profile.name.to_owned(),
        misordered,
        total_writes,
    }
}

/// Measures every Table-I workload, one per worker on up to `threads`
/// workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<Fig8Row> {
    parallel_map(&profiles::all(), threads, |p| run_one(p, opts))
}

/// Renders the per-workload mis-ordered fractions.
pub fn render(rows: &[Fig8Row]) -> String {
    let mut table = TextTable::new(vec!["workload", "misordered", "writes", "fraction"]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            row.misordered.to_string(),
            row.total_writes.to_string(),
            format!("{:.2}%", 100.0 * row.fraction()),
        ]);
    }
    format!(
        "Fig 8 — mis-ordered writes within {} KB\n{table}",
        MISORDER_WINDOW_BYTES / 1024
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 9, ops: 8000 }
    }

    #[test]
    fn misordered_heavy_profiles_rank_high() {
        let rows = run(&opts(), NonZeroUsize::MIN);
        let get = |name: &str| rows.iter().find(|r| r.workload == name).unwrap().fraction();
        // Descending/interleaved writers beat the purely random ones.
        assert!(get("hm_1") > get("mds_0"));
        assert!(get("src2_2") > get("rsrch_0"));
        assert!(get("w84") > get("w76"));
    }

    #[test]
    fn src2_2_fraction_in_paper_ballpark() {
        let row = run_one(&profiles::by_name("src2_2").unwrap(), &opts());
        // Paper: roughly 1 in 20 (5%). Accept a generous band.
        assert!(
            row.fraction() > 0.01 && row.fraction() < 0.25,
            "src2_2 misordered fraction {:.3}",
            row.fraction()
        );
    }

    #[test]
    fn fractions_bounded() {
        for row in run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN) {
            assert!((0.0..=1.0).contains(&row.fraction()), "{}", row.workload);
            assert!(row.misordered <= row.total_writes);
        }
    }

    #[test]
    fn render_has_percentages() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN));
        assert!(text.contains('%'));
        assert!(text.contains("256 KB"));
    }
}
