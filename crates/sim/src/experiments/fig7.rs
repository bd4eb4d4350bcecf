//! Fig 7: examples of highly non-sequential LBA write patterns, from
//! `hm_1` (descending chunk bursts) and `w106` (small-scale randomness).
//!
//! The figure is a scatter of write LBA versus write index; this
//! experiment extracts the same window of write operations and summarizes
//! its descending-run structure.

use super::ExpOptions;
use crate::report::TextTable;
use crate::runner::parallel_map;
use serde::Serialize;
use smrseek_trace::{OpKind, TraceRecord};
use smrseek_workloads::profiles::{self, Profile};
use std::num::NonZeroUsize;

/// The workloads plotted in Fig 7.
pub const WORKLOADS: [&str; 2] = ["hm_1", "w106"];

/// A window of write operations and its ordering structure.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Pattern {
    /// Workload name.
    pub workload: String,
    /// `(write_index, lba_sector)` points — the figure's scatter.
    pub points: Vec<(u64, u64)>,
    /// Number of strictly-descending adjacent pairs in the window.
    pub descending_pairs: u64,
    /// Descending adjacent pairs whose step is local (within 1 MiB) — the
    /// signature of Fig 7a's descending chunk bursts; uniform-random
    /// writes descend about half the time but almost never locally.
    pub local_descending_pairs: u64,
    /// Number of exactly-contiguous ascending pairs.
    pub contiguous_pairs: u64,
}

/// Extracts the first `window` writes of one workload.
pub fn run_one(profile: &Profile, opts: &ExpOptions, window: usize) -> Fig7Pattern {
    let trace = profile.generate_scaled(opts.seed, opts.ops);
    let writes: Vec<&TraceRecord> = trace
        .iter()
        .filter(|r| r.op == OpKind::Write)
        .take(window)
        .collect();
    let points: Vec<(u64, u64)> = writes
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r.lba.sector()))
        .collect();
    let mut descending_pairs = 0;
    let mut local_descending_pairs = 0;
    let mut contiguous_pairs = 0;
    const LOCAL_SECTORS: u64 = 2048; // 1 MiB
    for pair in writes.windows(2) {
        if pair[1].lba < pair[0].lba {
            descending_pairs += 1;
            if pair[0].lba.sector() - pair[1].lba.sector() <= LOCAL_SECTORS {
                local_descending_pairs += 1;
            }
        }
        if pair[0].is_followed_contiguously_by(pair[1]) {
            contiguous_pairs += 1;
        }
    }
    Fig7Pattern {
        workload: profile.name.to_owned(),
        points,
        descending_pairs,
        local_descending_pairs,
        contiguous_pairs,
    }
}

/// Extracts both Fig 7 panels (500-write windows), one per worker on up
/// to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<Fig7Pattern> {
    parallel_map(&WORKLOADS, threads, |name| {
        let profile = profiles::by_name(name).expect("Fig 7 workload exists");
        run_one(&profile, opts, 500)
    })
}

/// Renders ordering statistics of the write windows.
pub fn render(patterns: &[Fig7Pattern]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "writes",
        "descending pairs",
        "local descending",
        "contiguous pairs",
    ]);
    for p in patterns {
        table.row(vec![
            p.workload.clone(),
            p.points.len().to_string(),
            p.descending_pairs.to_string(),
            p.local_descending_pairs.to_string(),
            p.contiguous_pairs.to_string(),
        ]);
    }
    format!("Fig 7 — non-sequential write patterns (first 500 writes)\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 8, ops: 6000 }
    }

    #[test]
    fn hm_1_shows_descending_structure() {
        let p = run_one(&profiles::by_name("hm_1").unwrap(), &opts(), 500);
        assert!(
            p.local_descending_pairs * 100 / (p.points.len() as u64 - 1) >= 10,
            "hm_1 window should show local descending bursts: {} of {}",
            p.local_descending_pairs,
            p.points.len() - 1
        );
    }

    #[test]
    fn w106_is_random_not_descending_bursts() {
        let hm = run_one(&profiles::by_name("hm_1").unwrap(), &opts(), 500);
        let w106 = run_one(&profiles::by_name("w106").unwrap(), &opts(), 500);
        // w106's mostly-random writes show a lower *rate* of local
        // descending structure than hm_1's deliberate bursts (Fig 7a vs
        // 7b); absolute counts are not comparable because hm_1's window
        // holds fewer writes.
        let rate =
            |p: &Fig7Pattern| p.local_descending_pairs as f64 / (p.points.len() as f64 - 1.0);
        assert!(
            rate(&w106) < rate(&hm),
            "w106 rate {:.3} vs hm_1 rate {:.3}",
            rate(&w106),
            rate(&hm)
        );
    }

    #[test]
    fn window_is_bounded() {
        let p = run_one(&profiles::by_name("hm_1").unwrap(), &opts(), 100);
        assert!(p.points.len() <= 100);
        assert!(p.points.windows(2).all(|w| w[1].0 == w[0].0 + 1));
    }

    #[test]
    fn render_lists_workloads() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN));
        assert!(text.contains("hm_1"));
        assert!(text.contains("w106"));
    }
}
