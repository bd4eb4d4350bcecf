//! Trace-level analysis of every profile: connects the raw trace
//! characteristics ([`smrseek_trace::analysis`]) to the seek classes they
//! produce, before any translation-layer simulation runs.
//!
//! The predictive story: a workload is log-*sensitive* when a large share
//! of its read volume targets trace-written (hence log-scattered) data,
//! and log-*friendly* when writes dominate and overwrite quickly.

use super::classify::{classify_saf, SeekClass};
use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::{MatrixStats, RunMatrix, TraceSource};
use crate::saf::Saf;
use serde::Serialize;
use smrseek_trace::{summarize, AnalysisSummary};
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

/// One workload's trace analysis next to its measured class.
#[derive(Debug, Clone, Serialize)]
pub struct AnalyzeRow {
    /// Workload name.
    pub workload: String,
    /// Trace-level analysis.
    pub analysis: AnalysisSummary,
    /// Measured SAF of plain LS.
    pub saf: f64,
    /// Class implied by the SAF.
    pub class: SeekClass,
}

/// Analyzes each profile: its NoLS and LS replays as one run matrix on up
/// to `threads` workers. The matrix builds each trace once, so the source
/// that generates it summarizes it too, on the same worker.
fn rows(
    profiles: &[Profile],
    opts: &ExpOptions,
    threads: NonZeroUsize,
) -> (Vec<AnalyzeRow>, MatrixStats) {
    let summaries: Vec<Arc<OnceLock<AnalysisSummary>>> =
        profiles.iter().map(|_| Arc::default()).collect();
    let sources: Vec<TraceSource> = profiles
        .iter()
        .zip(&summaries)
        .map(|(profile, summary)| {
            let (profile, summary, opts) = (profile.clone(), Arc::clone(summary), *opts);
            TraceSource::new(profile.name, move || {
                let trace = profile.generate_scaled(opts.seed, opts.ops);
                summary.get_or_init(|| summarize(&trace));
                Arc::new(trace)
            })
        })
        .collect();
    let configs = [SimConfig::no_ls(), SimConfig::log_structured()];
    let outcomes = RunMatrix::cross(&sources, &configs).execute(threads);
    let stats = MatrixStats::from_outcomes(&outcomes);
    let rows = profiles
        .iter()
        .zip(outcomes.chunks_exact(2))
        .zip(summaries)
        .map(|((profile, pair), summary)| {
            let saf = Saf::from_stats(&pair[1].report.seeks, &pair[0].report.seeks);
            AnalyzeRow {
                workload: profile.name.to_owned(),
                analysis: summary.get().expect("the matrix built the trace").clone(),
                saf: saf.total,
                class: classify_saf(saf.total),
            }
        })
        .collect();
    (rows, stats)
}

/// Analyzes all 21 profiles, replaying them as one run matrix on up to
/// `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<AnalyzeRow>, MatrixStats) {
    rows(&profiles::all(), opts, threads)
}

/// Renders the analysis table.
pub fn render(rows: &[AnalyzeRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "read-after-write",
        "overwrites",
        "median ow interval",
        "peak WSS (4K blocks)",
        "SAF",
        "class",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.0}%", 100.0 * row.analysis.read_after_write),
            row.analysis.overwrites.to_string(),
            row.analysis
                .median_overwrite_interval
                .map_or_else(|| "—".to_owned(), |v| v.to_string()),
            row.analysis.peak_wss_blocks.to_string(),
            format!("{:.2}", row.saf),
            row.class.to_string(),
        ]);
    }
    format!("Trace analysis vs seek class (all profiles)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 7, ops: 4000 }
    }

    #[test]
    fn log_sensitive_workloads_read_their_own_writes() {
        // The predictive signal: every log-sensitive workload reads a
        // non-trivial share of trace-written blocks — entirely pre-trace
        // reads cannot fragment. The share can be modest (usr_1's huge
        // scans are mostly pre-trace data, yet the sparse log-scattered
        // blocks inside each scan range fragment most scan reads), so the
        // threshold is a floor, not a strong signal.
        for row in run(&opts(), NonZeroUsize::MIN).0 {
            if row.class == SeekClass::LogSensitive {
                assert!(
                    row.analysis.read_after_write > 0.05,
                    "{}: RAW {:.2} too low for class {:?}",
                    row.workload,
                    row.analysis.read_after_write,
                    row.class
                );
            }
        }
    }

    #[test]
    fn write_heavy_workloads_overwrite_quickly() {
        let (rows, _) = rows(&super::super::named(&["mds_0"]), &opts(), NonZeroUsize::MIN);
        let row = &rows[0];
        assert!(row.analysis.overwrites > 0);
        assert!(row.class == SeekClass::LogFriendly);
    }

    #[test]
    fn render_covers_all_profiles() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 1500 }, NonZeroUsize::MIN).0);
        for name in ["usr_1", "w91", "ts_0"] {
            assert!(text.contains(name));
        }
        assert!(text.contains("read-after-write"));
    }
}
