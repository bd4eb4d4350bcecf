//! Ablations of the design choices DESIGN.md calls out.
//!
//! The paper fixes several parameters (64 MB cache; unconditional
//! defragmentation; an unspecified prefetch window). These sweeps
//! characterize the sensitivity of each mechanism to its parameters, and
//! evaluate mechanism stacking (which the paper leaves to future work).
//!
//! Every sweep is a list of `(param, SimConfig)` points replayed against
//! the same workload; [`run`] flattens all sweeps into one [`RunMatrix`]
//! so the full ablation executes as a single parallel batch.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::{MatrixStats, RunCell, RunMatrix, TraceSource};
use crate::saf::Saf;
use serde::Serialize;
use smrseek_stl::{CacheConfig, DefragConfig, DefragTiming, PrefetchConfig};
use smrseek_trace::{KIB, MIB};
use smrseek_workloads::profiles;
use std::num::NonZeroUsize;

/// One point of a parameter sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Human-readable parameter value ("16 MiB", "N=4", ...).
    pub param: String,
    /// Resulting SAF.
    pub saf: Saf,
}

/// A parameter sweep of one mechanism on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Sweep {
    /// Workload name.
    pub workload: String,
    /// What was swept.
    pub mechanism: String,
    /// Baseline (plain LS) SAF for reference.
    pub ls: Saf,
    /// The sweep points, in parameter order.
    pub points: Vec<SweepPoint>,
}

/// Sweep points for the selective-cache capacity (4–256 MiB; the paper
/// fixes 64 MB).
fn cache_points() -> Vec<(String, SimConfig)> {
    [4u64, 16, 64, 128, 256]
        .iter()
        .map(|mib| {
            let config = SimConfig::ls_with(
                None,
                None,
                Some(CacheConfig {
                    capacity_bytes: mib * MIB,
                }),
            );
            (format!("{mib} MiB"), config)
        })
        .collect()
}

/// Sweep points for the defragmentation gates: `N` (min fragments) and `k`
/// (min accesses).
fn defrag_threshold_points() -> Vec<(String, SimConfig)> {
    let params = [(2usize, 1u64), (4, 1), (8, 1), (2, 2), (2, 4), (4, 2)];
    params
        .iter()
        .map(|&(n, k)| {
            let config = SimConfig::ls_with(
                Some(DefragConfig {
                    min_fragments: n,
                    min_accesses: k,
                    ..DefragConfig::default()
                }),
                None,
                None,
            );
            (format!("N={n} k={k}"), config)
        })
        .collect()
}

/// Sweep points for the look-ahead/look-behind window (the paper leaves it
/// unspecified; our default is 256 KB each way).
fn prefetch_points() -> Vec<(String, SimConfig)> {
    [32u64, 64, 128, 256, 512]
        .iter()
        .map(|kib| {
            let sectors = kib * KIB / 512;
            let config = SimConfig::ls_with(
                None,
                Some(PrefetchConfig {
                    behind_sectors: sectors,
                    ahead_sectors: sectors,
                    ..PrefetchConfig::default()
                }),
                None,
            );
            (format!("{kib} KiB"), config)
        })
        .collect()
}

/// Sweep points for defragmentation *timing*: immediate (Alg. 1 as
/// printed) versus idle-batched rewrites at several idle-gap thresholds.
/// Batching pays the frontier seek once per batch, so it should soften
/// defrag's penalty on single-pass workloads.
fn defrag_timing_points() -> Vec<(String, SimConfig)> {
    let timings: [(&str, DefragTiming); 4] = [
        ("immediate", DefragTiming::Immediate),
        ("idle 1ms", DefragTiming::Idle { min_gap_us: 1_000 }),
        ("idle 10ms", DefragTiming::Idle { min_gap_us: 10_000 }),
        (
            "idle 100ms",
            DefragTiming::Idle {
                min_gap_us: 100_000,
            },
        ),
    ];
    timings
        .iter()
        .map(|&(name, timing)| {
            let config = SimConfig::ls_with(
                Some(DefragConfig {
                    timing,
                    ..DefragConfig::default()
                }),
                None,
                None,
            );
            (name.to_owned(), config)
        })
        .collect()
}

/// Sweep points for mechanism stacking: each mechanism alone, pairs, and
/// all three together (an extension beyond the paper's separate
/// evaluation).
fn stacking_points() -> Vec<(String, SimConfig)> {
    let d = Some(DefragConfig::default());
    let p = Some(PrefetchConfig::default());
    let c = Some(CacheConfig::default());
    let combos: [(&str, SimConfig); 7] = [
        ("defrag", SimConfig::ls_with(d, None, None)),
        ("prefetch", SimConfig::ls_with(None, p, None)),
        ("cache", SimConfig::ls_with(None, None, c)),
        ("defrag+prefetch", SimConfig::ls_with(d, p, None)),
        ("defrag+cache", SimConfig::ls_with(d, None, c)),
        ("prefetch+cache", SimConfig::ls_with(None, p, c)),
        ("all three", SimConfig::ls_with(d, p, c)),
    ];
    combos
        .iter()
        .map(|(name, config)| ((*name).to_owned(), *config))
        .collect()
}

/// One planned sweep: `(workload, mechanism, labelled config points)`.
type SweepSpec = (&'static str, &'static str, Vec<(String, SimConfig)>);

/// The full ablation plan: `(workload, mechanism, points)` per sweep, on a
/// representative log-sensitive workload (`w91`) plus the defrag-hostile
/// `w20`.
fn sweep_specs() -> Vec<SweepSpec> {
    vec![
        ("w91", "selective-cache capacity", cache_points()),
        ("w91", "defrag thresholds", defrag_threshold_points()),
        ("w20", "defrag thresholds", defrag_threshold_points()),
        ("w20", "defrag timing", defrag_timing_points()),
        ("w91", "prefetch window", prefetch_points()),
        ("w91", "mechanism stacking", stacking_points()),
    ]
}

/// Runs every ablation sweep as one flattened run matrix on up to
/// `threads` workers. Sweeps do not depend on the thread count.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Sweep>, MatrixStats) {
    let specs = sweep_specs();
    let mut matrix = RunMatrix::new();
    for (name, mechanism, points) in &specs {
        let profile = profiles::by_name(name).expect("ablation workload exists");
        let source = TraceSource::from_profile(&profile, opts);
        matrix.push(
            RunCell::new(source.clone(), SimConfig::no_ls()).with_label(format!("{name}/NoLS")),
        );
        matrix.push(
            RunCell::new(source.clone(), SimConfig::log_structured())
                .with_label(format!("{name}/LS")),
        );
        for (param, config) in points {
            matrix.push(
                RunCell::new(source.clone(), *config)
                    .with_label(format!("{name}/{mechanism}/{param}")),
            );
        }
    }
    let outcomes = matrix.execute(threads);
    let stats = MatrixStats::from_outcomes(&outcomes);
    let mut sweeps = Vec::with_capacity(specs.len());
    let mut cells = outcomes.iter();
    for (name, mechanism, points) in specs {
        let base = cells.next().expect("NoLS baseline cell").report.seeks;
        let ls = Saf::from_stats(&cells.next().expect("LS baseline cell").report.seeks, &base);
        let points = points
            .into_iter()
            .map(|(param, _)| SweepPoint {
                param,
                saf: Saf::from_stats(&cells.next().expect("sweep point cell").report.seeks, &base),
            })
            .collect();
        sweeps.push(Sweep {
            workload: name.to_owned(),
            mechanism: mechanism.to_owned(),
            ls,
            points,
        });
    }
    (sweeps, stats)
}

/// Renders all sweeps.
pub fn render(sweeps: &[Sweep]) -> String {
    let mut out = String::new();
    for sweep in sweeps {
        let mut table = TextTable::new(vec!["param", "SAF", "vs LS"]);
        for point in &sweep.points {
            table.row(vec![
                point.param.clone(),
                format!("{:.2}", point.saf.total),
                format!("{:.2}x", point.saf.improvement_over(&sweep.ls)),
            ]);
        }
        out.push_str(&format!(
            "Ablation — {} on {} (LS baseline SAF {:.2})\n{}\n",
            sweep.mechanism, sweep.workload, sweep.ls.total, table
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared run at the test scale; each test picks its sweep by
    /// workload and mechanism.
    fn sweep(workload: &str, mechanism: &str) -> &'static Sweep {
        static SWEEPS: OnceLock<Vec<Sweep>> = OnceLock::new();
        SWEEPS
            .get_or_init(|| {
                let opts = ExpOptions {
                    seed: 11,
                    ops: 6000,
                };
                run(&opts, NonZeroUsize::MIN).0
            })
            .iter()
            .find(|s| s.workload == workload && s.mechanism == mechanism)
            .unwrap_or_else(|| panic!("no {mechanism} sweep on {workload}"))
    }

    #[test]
    fn bigger_cache_never_hurts_much() {
        let sweep = sweep("w91", "selective-cache capacity");
        assert_eq!(sweep.points.len(), 5);
        let first = sweep.points.first().unwrap().saf.total;
        let last = sweep.points.last().unwrap().saf.total;
        assert!(
            last <= first * 1.1,
            "256 MiB ({last:.2}) should not be worse than 4 MiB ({first:.2})"
        );
    }

    #[test]
    fn stricter_defrag_gates_reduce_rewrites_on_hostile_workload() {
        let sweep = sweep("w20", "defrag thresholds");
        let loose = sweep.points[0].saf.total; // N=2 k=1
        let strict = sweep.points[4].saf.total; // N=2 k=4
        assert!(
            strict <= loose,
            "strict gate {strict:.2} should not exceed loose gate {loose:.2}"
        );
    }

    #[test]
    fn stacking_all_three_beats_plain_ls() {
        let sweep = sweep("w91", "mechanism stacking");
        let all = sweep
            .points
            .iter()
            .find(|p| p.param == "all three")
            .unwrap();
        assert!(all.saf.total < sweep.ls.total);
    }

    #[test]
    fn idle_batching_softens_defrag_penalty() {
        // w20: single-pass scans where immediate defrag hurts; batching
        // the rewrites at idle time must not be worse.
        let sweep = sweep("w20", "defrag timing");
        let immediate = sweep.points[0].saf.total;
        let idle = sweep.points[2].saf.total; // 10ms
        assert!(
            idle <= immediate + 1e-9,
            "idle {idle:.2} should not exceed immediate {immediate:.2}"
        );
    }

    #[test]
    fn matrix_run_matches_sequential_sweeps() {
        // The flattened matrix on four workers gives exactly the sweeps
        // of a one-worker (sequential) run.
        let o = ExpOptions { seed: 7, ops: 2000 };
        let (sequential, _) = run(&o, NonZeroUsize::MIN);
        let (parallel, stats) = run(&o, NonZeroUsize::new(4).expect("nonzero"));
        assert_eq!(
            stats.cells.len(),
            parallel.iter().map(|s| s.points.len() + 2).sum()
        );
        assert_eq!(parallel.len(), sequential.len());
        for (a, b) in parallel.iter().zip(&sequential) {
            assert_eq!((&a.workload, &a.mechanism), (&b.workload, &b.mechanism));
            assert_eq!(a.ls.total, b.ls.total);
            assert_eq!(a.points.len(), b.points.len());
            for (p, q) in a.points.iter().zip(&b.points) {
                assert_eq!(p.param, q.param);
                assert_eq!(p.saf.total, q.saf.total);
            }
        }
    }

    #[test]
    fn render_mentions_mechanisms() {
        let (sweeps, _) = run(&ExpOptions { seed: 1, ops: 2500 }, NonZeroUsize::MIN);
        let text = render(&sweeps);
        assert!(text.contains("selective-cache capacity"));
        assert!(text.contains("mechanism stacking"));
        assert!(text.contains("prefetch window"));
    }
}
