//! Adaptive mitigation: the online policy engine against every fixed
//! mechanism, across all 21 Table-I workloads.
//!
//! The paper evaluates each mitigation (defragmentation, prefetching,
//! selective caching) separately and observes that the best choice is
//! workload-dependent — defragmentation *worsens* single-pass scans like
//! `w20` while rescuing `w91`. The adaptive configuration
//! ([`SimConfig::ls_adaptive`]) stacks all three mechanisms behind an
//! online per-region heat classifier that gates each one, so a single
//! static configuration should track the per-workload best.
//!
//! Acceptance: adaptive lands within a small tolerance of the best fixed
//! mechanism on every workload, and strictly beats static
//! defragmentation on `w20` (where unconditional defrag is ~2.8x worse
//! than plain LS).

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::{MatrixStats, RunOutcome};
use crate::saf::Saf;
use serde::Serialize;
use smrseek_policy::PolicyStats;
use smrseek_workloads::profiles::{self, Family, Profile};
use std::num::NonZeroUsize;

/// Tolerance for "adaptive tracks the best fixed mechanism": adaptive's
/// total SAF may exceed the per-workload best by at most this factor.
pub const TOLERANCE: f64 = 1.05;

/// One workload's SAFs under every mitigation strategy.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveRow {
    /// Workload name.
    pub workload: String,
    /// Trace family.
    pub family: Family,
    /// Plain log-structured translation (no mitigation).
    pub ls: Saf,
    /// Static unconditional defragmentation.
    pub defrag: Saf,
    /// Static look-ahead/look-behind prefetching.
    pub prefetch: Saf,
    /// Static 64 MB selective caching.
    pub cache: Saf,
    /// The adaptive policy engine gating all three mechanisms.
    pub adaptive: Saf,
    /// Name of the best fixed configuration for this workload.
    pub best_fixed: String,
    /// Gate decisions of the adaptive run (always present — the adaptive
    /// config carries a policy).
    pub policy: Option<PolicyStats>,
}

impl AdaptiveRow {
    /// The best (lowest total-SAF) fixed alternative: plain LS or one
    /// static mechanism.
    pub fn best_fixed_saf(&self) -> f64 {
        [
            self.ls.total,
            self.defrag.total,
            self.prefetch.total,
            self.cache.total,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min)
    }

    /// Whether adaptive's total SAF is within `TOLERANCE` of the best
    /// fixed alternative.
    pub fn adaptive_tracks_best(&self) -> bool {
        self.adaptive.total <= self.best_fixed_saf() * TOLERANCE + 1e-9
    }
}

/// The full comparison plus the acceptance verdicts.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveReport {
    /// The per-workload tolerance factor applied.
    pub tolerance: f64,
    /// One row per Table-I workload, in profile order.
    pub rows: Vec<AdaptiveRow>,
    /// Adaptive within tolerance of the best fixed mechanism everywhere.
    pub all_within_tolerance: bool,
    /// Adaptive strictly better than static defrag on `w20`.
    pub w20_beats_defrag: bool,
}

/// The six configurations compared per workload: the standard sweep
/// (NoLS baseline, plain LS, one mechanism each) plus the adaptive stack.
fn configs() -> [SimConfig; 6] {
    let [nols, ls, defrag, prefetch, cache] = SimConfig::standard_sweep();
    [nols, ls, defrag, prefetch, cache, SimConfig::ls_adaptive()]
}

/// Names for the fixed alternatives, index-aligned with
/// [`AdaptiveRow::best_fixed_saf`]'s candidate order.
const FIXED_NAMES: [&str; 4] = ["LS", "LS+defrag", "LS+prefetch", "LS+cache"];

fn build_report(rows: Vec<AdaptiveRow>) -> AdaptiveReport {
    let all_within_tolerance = rows.iter().all(AdaptiveRow::adaptive_tracks_best);
    let w20_beats_defrag = rows
        .iter()
        .find(|r| r.workload == "w20")
        .is_none_or(|r| r.adaptive.total < r.defrag.total);
    AdaptiveReport {
        tolerance: TOLERANCE,
        rows,
        all_within_tolerance,
        w20_beats_defrag,
    }
}

/// One workload's row from its outcomes under [`configs`], in order.
fn row(profile: &Profile, cells: Vec<RunOutcome>) -> AdaptiveRow {
    let base = cells[0].report.seeks;
    let saf = |i: usize| Saf::from_stats(&cells[i].report.seeks, &base);
    let row = AdaptiveRow {
        workload: profile.name.to_owned(),
        family: profile.family,
        ls: saf(1),
        defrag: saf(2),
        prefetch: saf(3),
        cache: saf(4),
        adaptive: saf(5),
        best_fixed: String::new(),
        policy: cells[5].report.policy,
    };
    let best = row.best_fixed_saf();
    let fixed = [row.ls, row.defrag, row.prefetch, row.cache];
    let name = FIXED_NAMES
        .iter()
        .zip(fixed)
        .find(|(_, s)| s.total <= best)
        .map_or("LS", |(n, _)| n);
    AdaptiveRow {
        best_fixed: name.to_owned(),
        ..row
    }
}

/// Runs the comparison on every Table-I workload as one parallel run
/// matrix (six cells per workload) on up to `threads` workers. The report
/// does not depend on the thread count.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (AdaptiveReport, MatrixStats) {
    let (rows, stats) = super::replay(&profiles::all(), &configs(), opts, threads, row);
    (build_report(rows), stats)
}

/// Renders the comparison and the acceptance verdicts.
pub fn render(report: &AdaptiveReport) -> String {
    let mut out = String::new();
    for family in [Family::Msr, Family::CloudPhysics] {
        let mut table = TextTable::new(vec![
            "workload",
            "LS",
            "defrag",
            "prefetch",
            "cache",
            "adaptive",
            "best fixed",
            "vs best",
            "flips",
        ]);
        for row in report.rows.iter().filter(|r| r.family == family) {
            let best = row.best_fixed_saf();
            let vs = if best > 0.0 {
                format!("{:+.1}%", 100.0 * (row.adaptive.total / best - 1.0))
            } else {
                "n/a".to_owned()
            };
            table.row(vec![
                row.workload.clone(),
                format!("{:.2}", row.ls.total),
                format!("{:.2}", row.defrag.total),
                format!("{:.2}", row.prefetch.total),
                format!("{:.2}", row.cache.total),
                format!("{:.2}", row.adaptive.total),
                row.best_fixed.clone(),
                vs,
                row.policy.map_or(0, |p| p.total_flips()).to_string(),
            ]);
        }
        out.push_str(&format!(
            "Adaptive policy vs fixed mechanisms, total SAF ({family} workloads)\n{table}\n"
        ));
    }
    out.push_str(&format!(
        "adaptive within {:.0}% of best fixed everywhere: {}\n",
        100.0 * (report.tolerance - 1.0),
        if report.all_within_tolerance {
            "yes"
        } else {
            "NO"
        }
    ));
    out.push_str(&format!(
        "adaptive strictly beats static defrag on w20: {}\n",
        if report.w20_beats_defrag { "yes" } else { "NO" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 9, ops: 6000 }
    }

    /// One shared run at the test scale; each test picks its rows by
    /// workload name.
    fn report() -> &'static AdaptiveReport {
        static REPORT: OnceLock<AdaptiveReport> = OnceLock::new();
        REPORT.get_or_init(|| run(&opts(), NonZeroUsize::MIN).0)
    }

    fn row(name: &str) -> &'static AdaptiveRow {
        report()
            .rows
            .iter()
            .find(|r| r.workload == name)
            .unwrap_or_else(|| panic!("no {name} row"))
    }

    #[test]
    fn adaptive_tracks_best_fixed_everywhere() {
        let report = report();
        assert_eq!(report.rows.len(), profiles::all().len());
        for row in &report.rows {
            assert!(
                row.adaptive_tracks_best(),
                "{}: adaptive {:.3} vs best fixed {} {:.3}",
                row.workload,
                row.adaptive.total,
                row.best_fixed,
                row.best_fixed_saf()
            );
        }
        assert!(report.all_within_tolerance);
    }

    #[test]
    fn adaptive_beats_static_defrag_on_w20() {
        let row = row("w20");
        assert!(
            row.adaptive.total < row.defrag.total,
            "w20: adaptive {:.3} must beat static defrag {:.3}",
            row.adaptive.total,
            row.defrag.total
        );
    }

    #[test]
    fn policy_stats_cover_every_record() {
        // Generators may emit a few more records than requested (bursty
        // profiles round per-burst); the policy must observe every one.
        let profile = profiles::by_name("w91").unwrap();
        let generated = profile.generate_scaled(opts().seed, opts().ops).len();
        let policy = row("w91")
            .policy
            .expect("adaptive run reports policy stats");
        assert_eq!(policy.records_observed, generated as u64);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let o = ExpOptions { seed: 9, ops: 1500 };
        let (serial, _) = run(&o, NonZeroUsize::MIN);
        let (parallel, stats) = run(&o, NonZeroUsize::new(4).expect("nonzero"));
        assert_eq!(stats.cells.len(), 6 * serial.rows.len());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.adaptive.total, b.adaptive.total, "{}", a.workload);
            assert_eq!(a.best_fixed, b.best_fixed, "{}", a.workload);
        }
    }

    #[test]
    fn render_shows_verdicts() {
        let (report, _) = run(&ExpOptions { seed: 2, ops: 2000 }, NonZeroUsize::MIN);
        let text = render(&report);
        assert!(text.contains("Adaptive policy vs fixed mechanisms"));
        assert!(text.contains("adaptive within 5% of best fixed everywhere"));
        assert!(text.contains("w20"));
    }
}
