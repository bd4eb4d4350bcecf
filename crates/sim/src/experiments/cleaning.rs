//! Extension: the cleaning-vs-seeks trade-off on a finite log.
//!
//! The paper eliminates cleaning by assuming an infinite disk (§II) and
//! argues that for archival systems this is realistic. For non-archival
//! workloads the classic LFS result applies: write amplification explodes
//! as log utilization grows. This experiment sweeps utilization on a
//! steady random-overwrite workload and reports the greedy cleaner's WAF
//! next to the seek behaviour, quantifying what the infinite-disk
//! assumption buys.

use super::ExpOptions;
use crate::report::TextTable;
use crate::runner::parallel_map;
use serde::Serialize;
use smrseek_disk::SeekCounter;
use smrseek_stl::{CleanerConfig, CleanerPolicy, CleaningLog, TranslationLayer};
use smrseek_trace::{Lba, Pba};
use smrseek_workloads::TraceBuilder;
use std::num::NonZeroUsize;

/// One utilization point.
#[derive(Debug, Clone, Serialize)]
pub struct CleaningPoint {
    /// Fraction of log capacity holding live data, in `[0, 1]`.
    pub utilization: f64,
    /// Measured write amplification factor.
    pub waf: f64,
    /// Cleaning episodes.
    pub cleanings: u64,
    /// Total seeks (host + cleaning I/O).
    pub seeks: u64,
    /// Seeks of the same workload on the paper's infinite-disk log
    /// (never cleans).
    pub infinite_disk_seeks: u64,
}

/// Sweeps live-data utilization on a fixed-size log.
///
/// The workload writes `live_fraction * capacity` distinct sectors once
/// (cold + hot), then randomly overwrites the hot half for `opts.ops`
/// operations. Points run one per worker on up to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<CleaningPoint> {
    parallel_map(&[0.3f64, 0.5, 0.7, 0.8], threads, |&util| {
        run_at(util, opts)
    })
}

/// Runs one utilization point.
pub fn run_at(live_fraction: f64, opts: &ExpOptions) -> CleaningPoint {
    const SEGMENTS: usize = 64;
    const SEG_SECTORS: u64 = 2048; // 1 MiB segments
    let capacity = SEGMENTS as u64 * SEG_SECTORS;
    let live_sectors = (capacity as f64 * live_fraction) as u64 / 8 * 8;

    // Build the workload: fill once, then churn the hot half.
    let mut b = TraceBuilder::new(opts.seed);
    let stripe = 64u32;
    let stripes = live_sectors / u64::from(stripe);
    for s in 0..stripes {
        b.write_sequential(Lba::new(s * u64::from(stripe)), 1, stripe);
    }
    let hot_sectors = live_sectors / 2;
    b.write_random(Lba::new(0), hot_sectors.max(64), opts.ops, stripe);
    let trace = b.finish();

    // Finite log with greedy cleaning.
    let mut log = CleaningLog::new(CleanerConfig::new(Pba::new(1 << 30), SEG_SECTORS, SEGMENTS));
    let mut counter = SeekCounter::new();
    for rec in &trace {
        for io in log.apply(rec) {
            counter.observe(&io);
        }
    }

    // The same workload on the infinite-disk log for comparison.
    let infinite = {
        use smrseek_stl::{LogStructured, LsConfig};
        let mut ls = LogStructured::new(LsConfig::new(Lba::new(1 << 30)));
        let mut c = SeekCounter::new();
        for rec in &trace {
            for io in ls.apply(rec) {
                c.observe(&io);
            }
        }
        c.stats().total()
    };

    CleaningPoint {
        utilization: log.utilization(),
        waf: log.stats().waf(),
        cleanings: log.stats().cleanings,
        seeks: counter.stats().total(),
        infinite_disk_seeks: infinite,
    }
}

/// One configuration's WAF on the hot/cold churn workload.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRow {
    /// Configuration label.
    pub config: String,
    /// Measured WAF.
    pub waf: f64,
    /// Cleaning episodes.
    pub cleanings: u64,
}

/// Compares cleaning configurations — greedy vs cost-benefit, with and
/// without hot/cold stream separation — on a hot/cold churn workload at
/// ~60% utilization (where policy differences matter most), one
/// configuration per worker on up to `threads` workers.
pub fn compare_policies(opts: &ExpOptions, threads: NonZeroUsize) -> Vec<PolicyRow> {
    const SEGMENTS: usize = 64;
    const SEG_SECTORS: u64 = 2048;
    let capacity = SEGMENTS as u64 * SEG_SECTORS;
    let live = capacity * 6 / 10 / 8 * 8;

    // Hot/cold mix: the hot half is filled up front and then churned;
    // cold stripes are written once each but *interleaved into the churn*,
    // so without separation every segment mixes hot and cold data — the
    // layout separation is designed to prevent.
    let trace = {
        let mut b = TraceBuilder::new(opts.seed);
        let stripe = 64u32;
        let hot = (live / 2).max(64);
        let cold_stripes = live / 2 / u64::from(stripe);
        b.write_random(Lba::new(0), hot, (hot / u64::from(stripe)) as usize, stripe);
        let interval = (opts.ops as u64 / cold_stripes.max(1)).max(1);
        let cold_base = 1u64 << 26; // far above the hot region
        for i in 0..opts.ops as u64 {
            b.write_random(Lba::new(0), hot, 1, stripe);
            if i % interval == 0 && i / interval < cold_stripes {
                let k = i / interval;
                b.write_sequential(Lba::new(cold_base + k * u64::from(stripe)), 1, stripe);
            }
        }
        b.finish()
    };

    let configs: [(&str, CleanerConfig); 4] = {
        let base = CleanerConfig::new(Pba::new(1 << 30), SEG_SECTORS, SEGMENTS);
        [
            ("greedy", base),
            ("cost-benefit", base.with_policy(CleanerPolicy::CostBenefit)),
            ("greedy + hot/cold", base.with_hot_cold_separation()),
            (
                "cost-benefit + hot/cold",
                base.with_policy(CleanerPolicy::CostBenefit)
                    .with_hot_cold_separation(),
            ),
        ]
    };
    parallel_map(&configs, threads, |(name, config)| {
        let mut log = CleaningLog::new(*config);
        for rec in &trace {
            log.apply(rec);
        }
        PolicyRow {
            config: (*name).to_owned(),
            waf: log.stats().waf(),
            cleanings: log.stats().cleanings,
        }
    })
}

/// Renders the policy comparison.
pub fn render_policies(rows: &[PolicyRow]) -> String {
    let mut table = TextTable::new(vec!["configuration", "WAF", "cleanings"]);
    for row in rows {
        table.row(vec![
            row.config.clone(),
            format!("{:.2}", row.waf),
            row.cleanings.to_string(),
        ]);
    }
    format!(
        "Extension — cleaning policy comparison at ~60% utilization
{table}"
    )
}

/// Renders the sweep.
pub fn render(points: &[CleaningPoint]) -> String {
    let mut table = TextTable::new(vec![
        "utilization",
        "WAF",
        "cleanings",
        "seeks (finite)",
        "seeks (infinite)",
    ]);
    for p in points {
        table.row(vec![
            format!("{:.0}%", 100.0 * p.utilization),
            format!("{:.2}", p.waf),
            p.cleanings.to_string(),
            p.seeks.to_string(),
            p.infinite_disk_seeks.to_string(),
        ]);
    }
    format!("Extension — greedy cleaning on a finite log\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOptions {
        ExpOptions { seed: 2, ops: 3000 }
    }

    #[test]
    fn waf_grows_with_utilization() {
        let low = run_at(0.3, &opts());
        let high = run_at(0.8, &opts());
        assert!(low.waf >= 1.0);
        assert!(
            high.waf > low.waf,
            "WAF at 80% ({:.2}) must exceed 30% ({:.2})",
            high.waf,
            low.waf
        );
        assert!(high.cleanings > 0);
    }

    #[test]
    fn utilization_close_to_requested() {
        let p = run_at(0.5, &opts());
        assert!(
            (p.utilization - 0.5).abs() < 0.1,
            "measured utilization {:.2}",
            p.utilization
        );
    }

    #[test]
    fn finite_log_seeks_at_least_infinite() {
        // Cleaning adds I/O, so the finite log can only seek more.
        let p = run_at(0.7, &opts());
        assert!(
            p.seeks >= p.infinite_disk_seeks,
            "finite {} < infinite {}",
            p.seeks,
            p.infinite_disk_seeks
        );
    }

    #[test]
    fn separation_reduces_waf_on_hot_cold_churn() {
        let rows = compare_policies(&opts(), NonZeroUsize::MIN);
        let get = |name: &str| rows.iter().find(|r| r.config == name).unwrap().waf;
        let plain = get("greedy");
        let separated = get("greedy + hot/cold");
        assert!(plain >= 1.0);
        assert!(
            separated <= plain,
            "separation must not increase WAF: {separated:.2} vs {plain:.2}"
        );
    }

    #[test]
    fn all_policy_configs_run_and_clean() {
        for row in compare_policies(&opts(), NonZeroUsize::MIN) {
            assert!(row.waf >= 1.0, "{}: WAF {}", row.config, row.waf);
            assert!(row.cleanings > 0, "{}: never cleaned", row.config);
        }
        let text = render_policies(&compare_policies(&opts(), NonZeroUsize::MIN));
        assert!(text.contains("cost-benefit + hot/cold"));
    }

    #[test]
    fn render_lists_points() {
        let text = render(&run(&ExpOptions { seed: 1, ops: 800 }, NonZeroUsize::MIN));
        assert!(text.contains("WAF"));
        assert!(text.contains("80%"));
    }
}
