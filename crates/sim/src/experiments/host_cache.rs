//! Extension: interaction with the host buffer cache.
//!
//! §IV-C argues selective caching eliminates "a significant portion of
//! seeks which would not be omitted by a vastly large buffer cache",
//! because OS caches hold *logically hot* data while the drive-side
//! fragment cache holds *physically expensive* data. This experiment
//! sweeps a modeled host LRU cache in front of the device and measures how
//! much log-structured seek amplification survives it — and whether
//! selective caching still helps on top.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::{MatrixStats, RunOutcome};
use crate::saf::Saf;
use serde::Serialize;
use smrseek_trace::MIB;
use std::num::NonZeroUsize;

/// One point of the host-cache sweep.
#[derive(Debug, Clone, Serialize)]
pub struct HostCachePoint {
    /// Host cache size in MiB (0 = none).
    pub host_mib: u64,
    /// Fraction of logical reads absorbed by the host cache.
    pub host_hit_fraction: f64,
    /// SAF of plain LS behind this host cache.
    pub ls: Saf,
    /// SAF of LS + selective caching behind this host cache.
    pub ls_cache: Saf,
}

/// The sweep for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct HostCacheSweep {
    /// Workload name.
    pub workload: String,
    /// Sweep points in cache-size order.
    pub points: Vec<HostCachePoint>,
}

/// Runs the sweep of each `names` workload over host cache sizes (MiB),
/// as one run matrix on up to `threads` workers: per size, NoLS, LS and
/// LS+cache behind the same host cache.
fn sweeps(
    names: &[&str],
    sizes_mib: &[u64],
    opts: &ExpOptions,
    threads: NonZeroUsize,
) -> (Vec<HostCacheSweep>, MatrixStats) {
    let configs: Vec<SimConfig> = sizes_mib
        .iter()
        .flat_map(|&mib| {
            let host = (mib > 0).then_some(mib * MIB);
            [
                SimConfig::no_ls(),
                SimConfig::log_structured(),
                SimConfig::ls_cache(),
            ]
            .map(|config| SimConfig {
                host_cache_bytes: host,
                ..config
            })
        })
        .collect();
    let profiles = super::named(names);
    super::replay(&profiles, &configs, opts, threads, |profile, cells| {
        let points = sizes_mib.iter().zip(cells.chunks_exact(3));
        HostCacheSweep {
            workload: profile.name.to_owned(),
            points: points.map(|(&mib, point)| point_of(mib, point)).collect(),
        }
    })
}

/// One sweep point from its NoLS, LS and LS+cache outcomes. The baseline
/// sees the same host cache: SAF isolates the translation layer's
/// contribution at each size.
fn point_of(host_mib: u64, cells: &[RunOutcome]) -> HostCachePoint {
    let [base, ls, cached] = [0, 1, 2].map(|k| &cells[k].report);
    // Every read either hit the host cache or reached LS.
    let reads = ls.host_cache_hits + ls.ls_stats.expect("LS reports its stats").logical_reads;
    HostCachePoint {
        host_mib,
        host_hit_fraction: if reads > 0 {
            ls.host_cache_hits as f64 / reads as f64
        } else {
            0.0
        },
        ls: Saf::from_stats(&ls.seeks, &base.seeks),
        ls_cache: Saf::from_stats(&cached.seeks, &base.seeks),
    }
}

/// Default sweep: w91 and hm_1 over 0–256 MiB host caches.
///
/// Sizes are chosen relative to the *scaled* synthetic working sets: a
/// host cache larger than the whole (scaled) footprint trivially absorbs
/// everything, which real traces — with footprints of tens to thousands
/// of GB (Table I) — never allow. Both workloads replay as one run matrix
/// on up to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<HostCacheSweep>, MatrixStats) {
    sweeps(&["w91", "hm_1"], &[0, 4, 16, 64, 256], opts, threads)
}

/// Renders the sweeps.
pub fn render(sweeps: &[HostCacheSweep]) -> String {
    let mut out = String::new();
    for sweep in sweeps {
        let mut table = TextTable::new(vec![
            "host cache",
            "host hit rate",
            "LS SAF",
            "LS+cache SAF",
        ]);
        for p in &sweep.points {
            table.row(vec![
                format!("{} MiB", p.host_mib),
                format!("{:.0}%", 100.0 * p.host_hit_fraction),
                format!("{:.2}", p.ls.total),
                format!("{:.2}", p.ls_cache.total),
            ]);
        }
        out.push_str(&format!(
            "Extension — host buffer cache interaction on {}\n{}\n",
            sweep.workload, table
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 6, ops: 5000 }
    }

    #[test]
    fn bigger_host_cache_absorbs_more_reads() {
        let sweep = &sweeps(&["w91"], &[0, 4, 1024], &opts(), NonZeroUsize::MIN).0[0];
        let hits: Vec<f64> = sweep.points.iter().map(|p| p.host_hit_fraction).collect();
        assert_eq!(hits[0], 0.0);
        assert!(hits[2] >= hits[1]);
        assert!(hits[2] > 0.1, "1 GiB host cache should absorb re-reads");
    }

    #[test]
    fn amplification_survives_an_undersized_host_cache() {
        // The paper's point: a host cache that cannot hold the scan
        // working set (the realistic case — Table-I footprints are tens
        // to thousands of GB) does not fix fragmentation; the reads that
        // reach the disk still seek, and selective caching still helps.
        // 4 MiB here is ~30% of w91's scaled scan working set.
        let sweep = &sweeps(&["w91"], &[4], &opts(), NonZeroUsize::MIN).0[0];
        let p = &sweep.points[0];
        assert!(
            p.ls.total > 1.0,
            "SAF behind an undersized host cache is {:.2}",
            p.ls.total
        );
        assert!(
            p.ls_cache.total < p.ls.total,
            "selective caching must still help: {:.2} vs {:.2}",
            p.ls_cache.total,
            p.ls.total
        );
    }

    #[test]
    fn oversized_host_cache_absorbs_everything() {
        // The flip side, and why the sweep sizes matter: once the host
        // cache exceeds the (scaled) footprint, repeats never reach the
        // device and amplification evaporates.
        let sweep = &sweeps(&["w91"], &[0, 1024], &opts(), NonZeroUsize::MIN).0[0];
        assert!(sweep.points[1].ls.total < sweep.points[0].ls.total);
    }

    #[test]
    fn render_mentions_sizes() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 2000 }, NonZeroUsize::MIN).0);
        assert!(text.contains("host buffer cache"));
        assert!(text.contains("256 MiB"));
    }
}
