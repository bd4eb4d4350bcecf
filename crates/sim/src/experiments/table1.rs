//! Table I: workload characteristics.
//!
//! For each profile this reports the paper's published numbers next to the
//! measured characteristics of the synthetic stand-in trace, so the
//! fidelity of the substitution is auditable (op ratio and mean sizes
//! should track; absolute counts/volumes are scaled down by design).

use super::ExpOptions;
use crate::report::TextTable;
use crate::runner::parallel_map;
use serde::Serialize;
use smrseek_trace::{characterize, TraceStats};
use smrseek_workloads::profiles::{self, Profile, TableRow};
use std::num::NonZeroUsize;

/// One workload's paper-vs-synthetic characteristics.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Workload name.
    pub workload: String,
    /// Published Table-I numbers.
    pub paper: TableRow,
    /// Measured statistics of the generated stand-in.
    pub synthetic: TraceStats,
}

/// Characterizes one profile's stand-in trace.
pub fn run_one(profile: &Profile, opts: &ExpOptions) -> Table1Row {
    let trace = profile.generate_scaled(opts.seed, opts.ops);
    Table1Row {
        workload: profile.name.to_owned(),
        paper: profile.row,
        synthetic: characterize(&trace),
    }
}

/// Characterizes all 21 profiles on up to `threads` workers. Rows do not
/// depend on the thread count (characterization is pure; only wall time
/// changes).
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<Table1Row> {
    parallel_map(&profiles::all(), threads, |p| run_one(p, opts))
}

/// Renders the comparison table.
pub fn render(rows: &[Table1Row]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "r/w ratio (paper)",
        "r/w ratio (synth)",
        "mean wr KB (paper)",
        "mean wr KB (synth)",
        "mean rd KB (paper)",
        "mean rd KB (synth)",
        "ops (synth)",
    ]);
    for row in rows {
        let paper_ratio = row.paper.read_count as f64 / row.paper.write_count.max(1) as f64;
        let synth_ratio = row.synthetic.read_count as f64 / row.synthetic.write_count.max(1) as f64;
        let paper_rd_kb = f64::from(row.paper.mean_read_sectors()) / 2.0;
        table.row(vec![
            row.workload.clone(),
            format!("{paper_ratio:.2}"),
            format!("{synth_ratio:.2}"),
            format!("{:.1}", row.paper.mean_write_kb),
            format!("{:.1}", row.synthetic.mean_write_size_kb()),
            format!("{paper_rd_kb:.1}"),
            format!("{:.1}", row.synthetic.mean_read_size_kb()),
            row.synthetic.total_ops().to_string(),
        ]);
    }
    format!("Table I — workload characteristics (paper vs synthetic)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_track_paper() {
        let opts = ExpOptions { seed: 3, ops: 8000 };
        for row in run(&opts, NonZeroUsize::MIN) {
            let paper = row.paper.read_count as f64 / row.paper.total_ops() as f64;
            let total = row.synthetic.total_ops();
            let synth = row.synthetic.read_count as f64 / total.max(1) as f64;
            assert!(
                (paper - synth).abs() < 0.15,
                "{}: read fraction paper {paper:.2} vs synth {synth:.2}",
                row.workload
            );
        }
    }

    #[test]
    fn render_lists_all_workloads() {
        let opts = ExpOptions { seed: 3, ops: 2000 };
        let text = render(&run(&opts, NonZeroUsize::MIN));
        for name in ["usr_1", "w91", "ts_0", "w33"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
