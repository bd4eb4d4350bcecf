//! Fig 3: log-structured translation overhead over time, measured as the
//! per-operation-bucket difference in long (>500 KB) seek counts
//! (LS minus NoLS) for `usr_1`, `web_0`, `w91` and `w55`.
//!
//! Expected shape: strong temporal variation — including workloads like
//! `w55` whose *average* amplification is mild but which suffer
//! significant overhead in bursts (the paper's diurnal patterns).

use super::ExpOptions;
use crate::engine::{SimConfig, Simulation};
use crate::report::TextTable;
use crate::runner::parallel_map;
use serde::Serialize;
use smrseek_disk::series::diff_series;
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;

/// The workloads plotted in Fig 3.
pub const WORKLOADS: [&str; 4] = ["usr_1", "web_0", "w91", "w55"];

/// One workload's long-seek overhead series.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Series {
    /// Workload name.
    pub workload: String,
    /// Bucket width in logical operations.
    pub bucket_ops: u64,
    /// Per-bucket `LS - NoLS` long-seek difference.
    pub diff: Vec<i64>,
}

impl Fig3Series {
    /// Largest per-bucket overhead.
    pub fn peak(&self) -> i64 {
        self.diff.iter().copied().max().unwrap_or(0)
    }

    /// Sum of the series (net long-seek overhead).
    pub fn net(&self) -> i64 {
        self.diff.iter().sum()
    }

    /// Coefficient of variation of the positive part — a scalar proxy for
    /// "strong temporal changes" (≫ 0 means bursty).
    pub fn burstiness(&self) -> f64 {
        let n = self.diff.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.diff.iter().map(|&d| d.max(0) as f64).sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .diff
            .iter()
            .map(|&d| (d.max(0) as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

/// Computes the series for one workload with `buckets` buckets.
pub fn run_one(profile: &Profile, opts: &ExpOptions, buckets: usize) -> Fig3Series {
    let trace = profile.generate_scaled(opts.seed, opts.ops);
    let bucket_ops = (trace.len() as u64 / buckets.max(1) as u64).max(1);
    let ls = Simulation::new(&SimConfig::log_structured().with_longseek_series(bucket_ops))
        .run_trace(&trace);
    let nols =
        Simulation::new(&SimConfig::no_ls().with_longseek_series(bucket_ops)).run_trace(&trace);
    Fig3Series {
        workload: profile.name.to_owned(),
        bucket_ops,
        diff: diff_series(
            &ls.longseek_series.expect("series was enabled"),
            &nols.longseek_series.expect("series was enabled"),
        ),
    }
}

/// Computes the four Fig 3 series with 40 buckets each, one per worker on
/// up to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<Fig3Series> {
    parallel_map(&WORKLOADS, threads, |name| {
        let profile = profiles::by_name(name).expect("Fig 3 workload exists");
        run_one(&profile, opts, 40)
    })
}

/// Renders per-bucket sparkline-style rows plus summary statistics.
pub fn render(series: &[Fig3Series]) -> String {
    let mut out = String::from("Fig 3 — long (>500KB) seek overhead over time (LS - NoLS)\n");
    let mut table = TextTable::new(vec!["workload", "bucket ops", "net", "peak", "burstiness"]);
    for s in series {
        table.row(vec![
            s.workload.clone(),
            s.bucket_ops.to_string(),
            s.net().to_string(),
            s.peak().to_string(),
            format!("{:.2}", s.burstiness()),
        ]);
    }
    out.push_str(&table.to_string());
    for s in series {
        out.push_str(&format!("\n{} series: ", s.workload));
        let peak = s.diff.iter().map(|d| d.abs()).max().unwrap_or(1).max(1);
        for &d in &s.diff {
            // 5-level text sparkline, '-' for negative buckets.
            let c = if d < 0 {
                '-'
            } else {
                match (d * 4 / peak).clamp(0, 4) {
                    0 => '.',
                    1 => ':',
                    2 => '|',
                    3 => '$',
                    _ => '#',
                }
            };
            out.push(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 2, ops: 8000 }
    }

    #[test]
    fn log_sensitive_series_show_overhead() {
        let profile = profiles::by_name("w91").unwrap();
        let s = run_one(&profile, &opts(), 20);
        assert!(s.net() > 0, "w91 must show net long-seek overhead");
        assert!(s.peak() > 0);
        assert!(s.diff.len() as u64 * s.bucket_ops >= 8000);
    }

    #[test]
    fn series_is_bursty_not_flat() {
        let profile = profiles::by_name("w55").unwrap();
        let s = run_one(&profile, &opts(), 40);
        assert!(
            s.burstiness() > 0.5,
            "w55 should be temporally bursty, got {:.2}",
            s.burstiness()
        );
    }

    #[test]
    fn run_covers_the_four_workloads() {
        let series = run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN);
        let names: Vec<_> = series.iter().map(|s| s.workload.as_str()).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn render_has_sparklines() {
        let series = run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN);
        let text = render(&series);
        assert!(text.contains("usr_1 series:"));
        assert!(text.contains("burstiness"));
    }
}
