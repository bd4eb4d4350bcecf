//! Extension: seek-**time** amplification.
//!
//! The paper counts seeks and discusses (§III) how their cost varies with
//! length — short skips cost a partial rotation, long seeks head travel
//! plus half a rotation. This experiment weights every seek by the
//! [`DiskProfile`] cost model and adds transfer time, yielding a *time*
//! amplification factor (TAF) next to the seek-count SAF: a check that the
//! count-based conclusions survive cost weighting.

use super::ExpOptions;
use crate::engine::{RunReport, SimConfig, Simulation};
use crate::report::TextTable;
use crate::runner::parallel_map;
use crate::saf::Saf;
use serde::Serialize;
use smrseek_disk::DiskProfile;
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;

/// Time-weighted results of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct TimeAmpRow {
    /// Workload name.
    pub workload: String,
    /// Seek-count SAF of plain LS (for comparison).
    pub saf: Saf,
    /// Modeled NoLS service time, seconds.
    pub nols_seconds: f64,
    /// Modeled LS service time, seconds.
    pub ls_seconds: f64,
    /// Modeled LS+cache service time, seconds.
    pub cache_seconds: f64,
}

impl TimeAmpRow {
    /// Time amplification factor of plain LS.
    pub fn taf(&self) -> f64 {
        self.ls_seconds / self.nols_seconds.max(f64::MIN_POSITIVE)
    }

    /// Time amplification factor of LS + selective caching.
    pub fn taf_cached(&self) -> f64 {
        self.cache_seconds / self.nols_seconds.max(f64::MIN_POSITIVE)
    }
}

/// Total modeled service time of a run, in seconds: every seek costs its
/// distance-dependent time, every transferred sector its transfer time.
pub fn service_time_seconds(report: &RunReport, disk: &DiskProfile) -> f64 {
    let cdf = report
        .distance_cdf()
        .expect("run must record distances for time weighting");
    let seek_us: f64 = cdf.samples().iter().map(|&d| disk.seek_time_us(d)).sum();
    let transfer_us = disk.transfer_us(report.phys_sectors);
    (seek_us + transfer_us) / 1e6
}

/// Measures one workload under the default disk profile.
pub fn run_one(profile: &Profile, opts: &ExpOptions) -> TimeAmpRow {
    let disk = DiskProfile::default();
    let trace = profile.generate_scaled(opts.seed, opts.ops);
    let nols = Simulation::new(&SimConfig::no_ls().with_distances()).run_trace(&trace);
    let ls = Simulation::new(&SimConfig::log_structured().with_distances()).run_trace(&trace);
    let cache = Simulation::new(&SimConfig::ls_cache().with_distances()).run_trace(&trace);
    TimeAmpRow {
        workload: profile.name.to_owned(),
        saf: Saf::from_stats(&ls.seeks, &nols.seeks),
        nols_seconds: service_time_seconds(&nols, &disk),
        ls_seconds: service_time_seconds(&ls, &disk),
        cache_seconds: service_time_seconds(&cache, &disk),
    }
}

/// Measures every Table-I workload, one per worker on up to `threads`
/// workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<TimeAmpRow> {
    parallel_map(&profiles::all(), threads, |p| run_one(p, opts))
}

/// Renders SAF-vs-TAF for every workload.
pub fn render(rows: &[TimeAmpRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "SAF (count)",
        "TAF (time)",
        "TAF cached",
        "NoLS s",
        "LS s",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.2}", row.saf.total),
            format!("{:.2}", row.taf()),
            format!("{:.2}", row.taf_cached()),
            format!("{:.2}", row.nols_seconds),
            format!("{:.2}", row.ls_seconds),
        ]);
    }
    format!("Extension — seek-time amplification (7200rpm profile)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 3, ops: 4000 }
    }

    #[test]
    fn times_are_positive_and_finite() {
        for name in ["w91", "mds_0"] {
            let row = run_one(&profiles::by_name(name).unwrap(), &opts());
            assert!(row.nols_seconds > 0.0 && row.nols_seconds.is_finite());
            assert!(row.ls_seconds > 0.0);
            assert!(row.taf().is_finite());
        }
    }

    #[test]
    fn count_conclusions_survive_time_weighting() {
        // The log-sensitive and log-friendly classifications must agree
        // between SAF and TAF for clear-cut workloads.
        let sensitive = run_one(&profiles::by_name("w91").unwrap(), &opts());
        assert!(sensitive.saf.total > 1.0);
        assert!(sensitive.taf() > 1.0, "TAF {:.2}", sensitive.taf());
        let friendly = run_one(&profiles::by_name("mds_0").unwrap(), &opts());
        assert!(friendly.saf.total < 1.0);
        assert!(friendly.taf() < 1.0, "TAF {:.2}", friendly.taf());
    }

    #[test]
    fn caching_saves_time_on_log_sensitive() {
        let row = run_one(&profiles::by_name("w91").unwrap(), &opts());
        assert!(
            row.taf_cached() < row.taf(),
            "cached {:.2} vs plain {:.2}",
            row.taf_cached(),
            row.taf()
        );
    }

    #[test]
    fn render_has_both_metrics() {
        let rows = vec![run_one(&profiles::by_name("hm_1").unwrap(), &opts())];
        let text = render(&rows);
        assert!(text.contains("SAF"));
        assert!(text.contains("TAF"));
        assert!(text.contains("hm_1"));
    }
}
