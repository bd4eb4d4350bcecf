//! Extension: queue re-ordering versus translation-layer prefetching.
//!
//! §IV-B observes that a conventional drive's queue re-orders descending
//! bursts into ascending completions, while a simple log-structured system
//! freezes dispatch order into the layout. This experiment quantifies that
//! alternative: re-order each trace with an NCQ-style elevator *before*
//! translation, and compare the SAF against look-ahead-behind prefetching
//! (which repairs the damage after the fact).

use super::ExpOptions;
use crate::engine::{SimConfig, Simulation};
use crate::report::TextTable;
use crate::runner::parallel_map;
use crate::saf::Saf;
use crate::scheduler::{reorder, QueueConfig};
use serde::Serialize;
use smrseek_stl::{count_misordered_writes, MISORDER_WINDOW_BYTES};
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;

/// The mis-order-heavy workloads where the comparison is interesting.
pub const WORKLOADS: [&str; 4] = ["w84", "w95", "hm_1", "src2_2"];

/// One workload's comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ReorderRow {
    /// Workload name.
    pub workload: String,
    /// Mis-ordered write fraction as dispatched.
    pub misordered_before: f64,
    /// Mis-ordered write fraction after the elevator queue.
    pub misordered_after: f64,
    /// SAF of plain LS on the raw trace.
    pub ls_raw: Saf,
    /// SAF of plain LS on the re-ordered trace. Note the baseline moves
    /// too: the elevator also removes conventional-drive seeks, so this
    /// ratio can rise even as absolute LS seeks fall.
    pub ls_reordered: Saf,
    /// Absolute total seeks of plain LS on the raw trace.
    pub ls_raw_seeks: u64,
    /// Absolute total seeks of plain LS on the re-ordered trace.
    pub ls_reordered_seeks: u64,
    /// SAF of LS+prefetch on the raw trace (the paper's mechanism).
    pub ls_prefetch: Saf,
}

/// Runs the comparison for one workload ([`QueueConfig::default`]:
/// queue depth 32, 10 ms windows).
pub fn run_one(profile: &Profile, opts: &ExpOptions) -> ReorderRow {
    let raw = profile.generate_scaled(opts.seed, opts.ops);
    let reordered = reorder(&raw, QueueConfig::default());

    let frac = |trace: &[smrseek_trace::TraceRecord]| {
        let (m, t) = count_misordered_writes(trace, MISORDER_WINDOW_BYTES);
        m as f64 / t.max(1) as f64
    };
    // Each variant is measured against its own NoLS baseline: the elevator
    // changes the baseline too (conventional drives also benefit).
    let base_raw = Simulation::new(&SimConfig::no_ls()).run_trace(&raw).seeks;
    let base_reord = Simulation::new(&SimConfig::no_ls())
        .run_trace(&reordered)
        .seeks;
    let ls_raw_stats = Simulation::new(&SimConfig::log_structured())
        .run_trace(&raw)
        .seeks;
    let ls_reord_stats = Simulation::new(&SimConfig::log_structured())
        .run_trace(&reordered)
        .seeks;
    ReorderRow {
        workload: profile.name.to_owned(),
        misordered_before: frac(&raw),
        misordered_after: frac(&reordered),
        ls_raw: Saf::from_stats(&ls_raw_stats, &base_raw),
        ls_reordered: Saf::from_stats(&ls_reord_stats, &base_reord),
        ls_raw_seeks: ls_raw_stats.total(),
        ls_reordered_seeks: ls_reord_stats.total(),
        ls_prefetch: Saf::from_stats(
            &Simulation::new(&SimConfig::ls_prefetch())
                .run_trace(&raw)
                .seeks,
            &base_raw,
        ),
    }
}

/// Runs the four-workload comparison, one workload per worker on up to
/// `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<ReorderRow> {
    parallel_map(&WORKLOADS, threads, |name| {
        run_one(&profiles::by_name(name).expect("profile exists"), opts)
    })
}

/// Renders the comparison.
pub fn render(rows: &[ReorderRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "misordered raw",
        "misordered queued",
        "LS SAF raw",
        "LS SAF queued",
        "LS+prefetch raw",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.2}%", 100.0 * row.misordered_before),
            format!("{:.2}%", 100.0 * row.misordered_after),
            format!("{:.2} ({})", row.ls_raw.total, row.ls_raw_seeks),
            format!("{:.2} ({})", row.ls_reordered.total, row.ls_reordered_seeks),
            format!("{:.2}", row.ls_prefetch.total),
        ]);
    }
    format!("Extension — elevator queue re-ordering vs prefetching\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 4, ops: 6000 }
    }

    #[test]
    fn queue_reduces_misordering() {
        for row in run(&opts(), NonZeroUsize::MIN) {
            assert!(
                row.misordered_after <= row.misordered_before,
                "{}: {} -> {}",
                row.workload,
                row.misordered_before,
                row.misordered_after
            );
        }
    }

    #[test]
    fn queue_substantially_fixes_burst_workloads() {
        let row = run_one(&profiles::by_name("w84").unwrap(), &opts());
        assert!(row.misordered_before > 0.03);
        assert!(
            row.misordered_after < row.misordered_before / 2.0,
            "queued {:.3} vs raw {:.3}",
            row.misordered_after,
            row.misordered_before
        );
    }

    #[test]
    fn reordering_reduces_ls_seeks_on_burst_workloads() {
        // Fixing dispatch order upstream straightens the log layout for
        // the descending-burst workloads. (The SAF ratio may still rise
        // because the conventional baseline improves even more.)
        for row in run(&opts(), NonZeroUsize::MIN) {
            if row.workload == "src2_2" {
                continue; // see reordering_can_break_temporal_locality
            }
            assert!(
                row.ls_reordered_seeks <= row.ls_raw_seeks,
                "{}: queued {} vs raw {} seeks",
                row.workload,
                row.ls_reordered_seeks,
                row.ls_raw_seeks
            );
        }
    }

    #[test]
    fn reordering_can_break_temporal_locality() {
        // The flip side, and the reason a queue is not a substitute for
        // the paper's mechanisms: log-friendliness comes from reads
        // mimicking the *temporal* write order (§III). src2_2's replay
        // reads follow dispatch order; LBA-sorting the writes makes the
        // log disagree with that order, so its LS seeks rise slightly.
        let row = run_one(&profiles::by_name("src2_2").unwrap(), &opts());
        assert!(
            row.ls_reordered_seeks as f64 > row.ls_raw_seeks as f64 * 0.95,
            "src2_2 should not benefit much: queued {} vs raw {}",
            row.ls_reordered_seeks,
            row.ls_raw_seeks
        );
    }

    #[test]
    fn render_lists_workloads() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN));
        for name in WORKLOADS {
            assert!(text.contains(name));
        }
    }
}
