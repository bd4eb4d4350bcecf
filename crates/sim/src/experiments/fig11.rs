//! Fig 11: seek amplification factor of log-structured translation, alone
//! and combined with each of the three mechanisms, for every workload.
//!
//! The paper's headline result: MSR workloads are mostly log-friendly
//! (SAF < 1 except `usr_1`, `hm_1`); most CloudPhysics workloads have
//! SAF > 1 (up to ~3.7–5 for `w91`); selective caching performs best
//! overall (w91 3.7 → 0.2); defragmentation can hurt (w20 worsens ~2.8x).

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::MatrixStats;
use crate::saf::{sweep_safs, Saf};
use serde::{Deserialize, Serialize};
use smrseek_workloads::profiles::{self, Family, Profile};
use std::num::NonZeroUsize;

/// SAF results of one workload under the four translated configurations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Workload name.
    pub workload: String,
    /// Trace family.
    pub family: Family,
    /// Plain log-structured translation.
    pub ls: Saf,
    /// LS + opportunistic defragmentation.
    pub defrag: Saf,
    /// LS + look-ahead-behind prefetching.
    pub prefetch: Saf,
    /// LS + 64 MB selective caching.
    pub cache: Saf,
}

/// Replays each profile under [`SimConfig::standard_sweep`] as one run
/// matrix on up to `threads` workers; a row holds the SAFs `simulate`
/// prints for the same sweep.
fn rows(
    profiles: &[Profile],
    opts: &ExpOptions,
    threads: NonZeroUsize,
) -> (Vec<Fig11Row>, MatrixStats) {
    let configs = SimConfig::standard_sweep();
    super::replay(profiles, &configs, opts, threads, |profile, sweep| {
        let safs = sweep_safs(&sweep);
        Fig11Row {
            workload: profile.name.to_owned(),
            family: profile.family,
            ls: safs[1].1,
            defrag: safs[2].1,
            prefetch: safs[3].1,
            cache: safs[4].1,
        }
    })
}

/// Runs every Table-I workload (Fig 11a + 11b) as one run matrix on up to
/// `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig11Row>, MatrixStats) {
    rows(&profiles::all(), opts, threads)
}

/// Renders rows as the text analogue of Fig 11's grouped bars.
pub fn render(rows: &[Fig11Row]) -> String {
    let mut out = String::new();
    for family in [Family::Msr, Family::CloudPhysics] {
        let mut table = TextTable::new(vec![
            "workload",
            "LS",
            "LS+defrag",
            "LS+prefetch",
            "LS+cache",
        ]);
        for row in rows.iter().filter(|r| r.family == family) {
            table.row(vec![
                row.workload.clone(),
                format!("{:.2}", row.ls.total),
                format!("{:.2}", row.defrag.total),
                format!("{:.2}", row.prefetch.total),
                format!("{:.2}", row.cache.total),
            ]);
        }
        out.push_str(&format!(
            "Fig 11{} — seek amplification factor ({} workloads)\n",
            if family == Family::Msr { "a" } else { "b" },
            family
        ));
        out.push_str(&table.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> ExpOptions {
        ExpOptions { seed: 7, ops: 6000 }
    }

    /// The rows of the `names` workloads at the test scale.
    fn rows_of(names: &[&str]) -> Vec<Fig11Row> {
        rows(
            &super::super::named(names),
            &small_opts(),
            NonZeroUsize::MIN,
        )
        .0
    }

    #[test]
    fn w91_is_log_sensitive_and_cache_fixes_it() {
        let row = &rows_of(&["w91"])[0];
        assert!(
            row.ls.total > 1.0,
            "w91 LS SAF {:.2} must exceed 1",
            row.ls.total
        );
        assert!(
            row.cache.total < row.ls.total / 2.0,
            "cache SAF {:.2} must be far below LS {:.2}",
            row.cache.total,
            row.ls.total
        );
    }

    #[test]
    fn write_intensive_msr_is_log_friendly() {
        let names = ["mds_0", "rsrch_0", "wdev_0"];
        for (name, row) in names.into_iter().zip(rows_of(&names)) {
            assert!(
                row.ls.total < 1.0,
                "{name}: LS SAF {:.2} should be below 1",
                row.ls.total
            );
        }
    }

    #[test]
    fn defrag_hurts_single_pass_scans() {
        let row = &rows_of(&["w20"])[0];
        assert!(
            row.defrag.total > row.ls.total,
            "w20: defrag SAF {:.2} should exceed LS {:.2}",
            row.defrag.total,
            row.ls.total
        );
    }

    #[test]
    fn prefetch_helps_misordered_workloads() {
        let row = &rows_of(&["w84"])[0];
        assert!(
            row.prefetch.total < row.ls.total * 0.8,
            "w84: prefetch SAF {:.2} should beat LS {:.2}",
            row.prefetch.total,
            row.ls.total
        );
    }

    #[test]
    fn render_contains_both_families() {
        let text = render(&rows_of(&["hm_1", "w91"]));
        assert!(text.contains("Fig 11a"));
        assert!(text.contains("Fig 11b"));
        assert!(text.contains("hm_1"));
        assert!(text.contains("w91"));
    }
}
