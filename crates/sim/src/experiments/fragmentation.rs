//! §IV-A's static-vs-dynamic fragmentation distinction, made measurable.
//!
//! *"Static fragmentation is just a measure of how many physical extents
//! have been created... However we don't read the LBA space sequentially;
//! some fragmentation may never effect a read operation in the workload,
//! while other fragments may impact many read operations."*
//!
//! This experiment tracks static fragmentation growth over the run and
//! measures what fraction of the map's extents are ever touched by a
//! fragmented read — the justification for *opportunistic* (read-driven)
//! defragmentation over wholesale background defragmentation.

use super::ExpOptions;
use crate::report::TextTable;
use crate::runner::parallel_map;
use serde::Serialize;
use smrseek_stl::{LogStructured, LsConfig};
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;

/// Fragmentation profile of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct FragRow {
    /// Workload name.
    pub workload: String,
    /// Static fragmentation (physical runs over the whole mapped space)
    /// at the end of the run.
    pub static_fragments: usize,
    /// Extents stored in the map at the end of the run.
    pub map_extents: usize,
    /// Distinct physical fragments that fragmented reads actually touched.
    pub read_touched_fragments: usize,
    /// Fraction of logical reads that were fragmented.
    pub fragmented_read_rate: f64,
    /// Static fragmentation sampled at 10% intervals of the run.
    pub growth: Vec<usize>,
}

impl FragRow {
    /// Share of end-state fragments ever touched by a fragmented read —
    /// low values mean most fragmentation is read-irrelevant, which is
    /// exactly when opportunistic defragmentation beats wholesale
    /// defragmentation.
    pub fn touched_share(&self) -> f64 {
        if self.static_fragments == 0 {
            0.0
        } else {
            (self.read_touched_fragments as f64 / self.static_fragments as f64).min(1.0)
        }
    }
}

/// Measures one workload. It drives the layer itself rather than through
/// a run matrix because it samples the map's static fragmentation at each
/// tenth of the run, which no report carries.
pub fn run_one(profile: &Profile, opts: &ExpOptions) -> FragRow {
    let trace = profile.generate_scaled(opts.seed, opts.ops);
    let mut ls = LogStructured::new(LsConfig::for_trace(&trace).with_fragment_tracking());
    let mut growth = Vec::with_capacity(11);
    let step = (trace.len() / 10).max(1);
    for (i, rec) in trace.iter().enumerate() {
        ls.apply_into(rec, &mut |_| {});
        if i % step == 0 {
            growth.push(ls.map().static_fragmentation());
        }
    }
    let stats = ls.stats();
    FragRow {
        workload: profile.name.to_owned(),
        static_fragments: ls.map().static_fragmentation(),
        map_extents: ls.map().len(),
        read_touched_fragments: ls
            .fragment_tracker()
            .expect("fragment tracking was enabled")
            .distinct_fragments(),
        fragmented_read_rate: stats.fragmented_read_rate(),
        growth,
    }
}

/// Measures a representative spread of workloads, one per worker on up
/// to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<FragRow> {
    parallel_map(
        &["w91", "w20", "hm_1", "mds_0", "usr_1", "w36"],
        threads,
        |name| run_one(&profiles::by_name(name).expect("profile exists"), opts),
    )
}

/// Renders the comparison.
pub fn render(rows: &[FragRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "static frags",
        "map extents",
        "read-touched",
        "touched share",
        "frag'd read rate",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            row.static_fragments.to_string(),
            row.map_extents.to_string(),
            row.read_touched_fragments.to_string(),
            format!("{:.0}%", 100.0 * row.touched_share()),
            format!("{:.0}%", 100.0 * row.fragmented_read_rate),
        ]);
    }
    format!("Static vs dynamic fragmentation (§IV-A)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 4, ops: 5000 }
    }

    #[test]
    fn static_fragmentation_grows_monotonically_under_churn() {
        let row = run_one(&profiles::by_name("w91").unwrap(), &opts());
        assert!(row.growth.len() >= 10);
        // Fragmentation accumulates: the end is far above the start. It
        // need not be strictly monotone (coalescing appends can merge),
        // but the trend must be strongly upward.
        assert!(
            *row.growth.last().unwrap() > row.growth[0] + 10,
            "growth {:?}",
            row.growth
        );
    }

    #[test]
    fn most_fragmentation_never_affects_reads_for_write_heavy() {
        // mds_0 writes far more than it reads: the map fragments heavily
        // but reads touch only a sliver — wholesale defragmentation would
        // be almost entirely wasted work.
        let row = run_one(&profiles::by_name("mds_0").unwrap(), &opts());
        assert!(row.static_fragments > 100);
        assert!(
            row.touched_share() < 0.5,
            "touched share {:.2}",
            row.touched_share()
        );
    }

    #[test]
    fn scan_heavy_workloads_touch_more_of_their_fragmentation() {
        let scan = run_one(&profiles::by_name("w91").unwrap(), &opts());
        let write_heavy = run_one(&profiles::by_name("mds_0").unwrap(), &opts());
        assert!(
            scan.touched_share() > write_heavy.touched_share(),
            "w91 {:.2} vs mds_0 {:.2}",
            scan.touched_share(),
            write_heavy.touched_share()
        );
    }

    #[test]
    fn render_lists_workloads() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 1500 }, NonZeroUsize::MIN));
        assert!(text.contains("w91"));
        assert!(text.contains("touched share"));
    }
}
