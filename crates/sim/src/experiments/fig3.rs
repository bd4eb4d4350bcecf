//! Fig 3: log-structured translation overhead over time, measured as the
//! per-operation-bucket difference in long (>500 KB) seek counts
//! (LS minus NoLS) for `usr_1`, `web_0`, `w91` and `w55`.
//!
//! Expected shape: strong temporal variation — including workloads like
//! `w55` whose *average* amplification is mild but which suffer
//! significant overhead in bursts (the paper's diurnal patterns).

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::{parallel_map, MatrixStats, RunCell, RunMatrix, TraceSource};
use serde::Serialize;
use smrseek_disk::series::diff_series;
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

/// Computes the series of the `names` workloads with `buckets` buckets
/// each, as one run matrix on up to `threads` workers. A bucket's width
/// comes from its trace's length, so the traces are generated first, once
/// each and on the same workers, and the matrix replays each under LS and
/// NoLS.
fn series(
    names: &[&str],
    opts: &ExpOptions,
    buckets: usize,
    threads: NonZeroUsize,
) -> (Vec<Fig3Series>, MatrixStats) {
    let profiles = super::named(names);
    let traces = parallel_map(&profiles, threads, |p| {
        p.generate_scaled(opts.seed, opts.ops)
    });
    let mut matrix = RunMatrix::new();
    for (profile, trace) in profiles.iter().zip(traces) {
        let bucket_ops = (trace.len() as u64 / buckets.max(1) as u64).max(1);
        let source = TraceSource::from_records(profile.name, trace);
        for config in [SimConfig::log_structured(), SimConfig::no_ls()] {
            let config = config.with_longseek_series(bucket_ops);
            matrix.push(RunCell::new(source.clone(), config));
        }
    }
    let outcomes = matrix.execute(threads);
    let series = outcomes.chunks_exact(2).map(|pair| {
        let [ls, nols] = [&pair[0], &pair[1]].map(|o| {
            o.report
                .longseek_series
                .as_ref()
                .expect("series was enabled")
        });
        Fig3Series {
            workload: pair[0].label.clone(),
            bucket_ops: ls.ops_per_bucket(),
            diff: diff_series(ls, nols),
        }
    });
    (series.collect(), MatrixStats::from_outcomes(&outcomes))
}

/// Computes the four Fig 3 series with 40 buckets each, as one run matrix
/// on up to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig3Series>, MatrixStats) {
    series(&WORKLOADS, opts, 40, threads)
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
        let s = &series(&["w91"], &opts(), 20, NonZeroUsize::MIN).0[0];
        assert!(s.net() > 0, "w91 must show net long-seek overhead");
        assert!(s.peak() > 0);
        assert!(s.diff.len() as u64 * s.bucket_ops >= 8000);
    }

    #[test]
    fn series_is_bursty_not_flat() {
        let s = &series(&["w55"], &opts(), 40, NonZeroUsize::MIN).0[0];
        assert!(
            s.burstiness() > 0.5,
            "w55 should be temporally bursty, got {:.2}",
            s.burstiness()
        );
    }

    #[test]
    fn run_covers_the_four_workloads() {
        let (series, _) = run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN);
        let names: Vec<_> = series.iter().map(|s| s.workload.as_str()).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn render_has_sparklines() {
        let (series, _) = run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN);
        let text = render(&series);
        assert!(text.contains("usr_1 series:"));
        assert!(text.contains("burstiness"));
    }
}
