//! Parallel run-matrix executor.
//!
//! Every figure and table of the paper is a *matrix* of independent
//! simulation runs — workloads × translation-layer configurations — and
//! each cell is deterministic given its trace and [`SimConfig`]. This
//! module enumerates those cells as a [`RunMatrix`] and executes them
//! concurrently on [`std::thread::scope`] workers, collecting per-cell
//! [`RunMetrics`] (wall time, replay rate, peak extent-map size) alongside
//! each [`RunReport`].
//!
//! The unit of work is a *translation group*: cells of one trace source
//! whose configs [share a translation](SimConfig::shares_translation)
//! replay together through one extent map
//! ([`Simulation::run_group`]), as long as the matrix keeps at least one
//! work item per thread. When the matrix has too few groups to keep its
//! threads busy (on at least two threads, fewer groups than twice the
//! threads), a group that holds selective-cache lanes beside a plain-LS
//! lane *splits*: its worker keeps the translation and the other lanes,
//! and one helper thread replays the policy-free cache lanes from the
//! plain lane's forwarded I/O. Only the group and thread counts choose
//! this.
//!
//! Determinism: results come back in cell order regardless of the thread
//! count, and every group regenerates its trace from a named, repeatable
//! [`TraceSource`] — so reports (and any JSON derived from them) are
//! byte-identical whether the matrix runs on one worker or sixteen, and
//! however its cells were grouped. Only the timing side-channel
//! ([`RunMetrics`]) varies between runs, which is why it lives next to,
//! never inside, the serialized reports.

#![deny(clippy::unwrap_used)]

use crate::engine::{LayerChoice, RunReport, SimConfig, Simulation};
use crate::experiments::ExpOptions;
use smrseek_obs::PhaseTotals;
use smrseek_trace::TraceRecord;
use smrseek_workloads::profiles::Profile;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A named, repeatable source of trace records.
///
/// Every translation group of a matrix regenerates (or, for
/// [`TraceSource::from_records`], clones an `Arc` of) its trace on the
/// worker that runs it — a [`TraceSource::from_profile`] source once per
/// group, not once per cell: sharing one generated trace across threads
/// would pin the whole matrix's memory high-water mark at once, and
/// repeatability is what keeps the matrix deterministic under any
/// scheduling. Clones of one source share its supply, which is how the
/// runner tells that two cells replay the same trace. Trace files of
/// every format, `.smrt` included, are loaded into memory once
/// ([`smrseek_trace::parse::parse_path`]) and wrapped with
/// [`TraceSource::from_records`].
#[derive(Clone)]
pub struct TraceSource {
    name: String,
    supply: Arc<dyn Fn() -> Arc<Vec<TraceRecord>> + Send + Sync>,
}

impl std::fmt::Debug for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSource")
            .field("name", &self.name)
            .finish()
    }
}

impl TraceSource {
    /// Wraps an arbitrary trace supplier. `supply` must be repeatable:
    /// every call returns the same records in the same order.
    fn new(
        name: impl Into<String>,
        supply: impl Fn() -> Arc<Vec<TraceRecord>> + Send + Sync + 'static,
    ) -> Self {
        TraceSource {
            name: name.into(),
            supply: Arc::new(supply),
        }
    }

    /// A synthetic Table-I workload generated with the run's seed and
    /// operation count.
    pub fn from_profile(profile: &Profile, opts: &ExpOptions) -> Self {
        let profile = profile.clone();
        let (seed, ops) = (opts.seed, opts.ops);
        TraceSource::new(profile.name, move || {
            Arc::new(profile.generate_scaled(seed, ops))
        })
    }

    /// An already-materialized trace (shared, never copied per cell).
    pub fn from_records(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        let records = Arc::new(records);
        TraceSource::new(name, move || Arc::clone(&records))
    }

    /// The source's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Produces the records.
    pub fn records(&self) -> Arc<Vec<TraceRecord>> {
        (self.supply)()
    }

    /// Whether `self` and `other` are clones of one source (the same
    /// supply, by identity).
    fn same_supply(&self, other: &TraceSource) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.supply), Arc::as_ptr(&other.supply))
    }
}

/// One cell of the matrix: a trace source replayed under one configuration.
#[derive(Debug, Clone)]
pub struct RunCell {
    /// The trace to replay.
    pub source: TraceSource,
    /// The configuration to replay it under.
    pub config: SimConfig,
    /// Display label (defaults to the source name).
    pub label: String,
}

impl RunCell {
    /// A cell labeled after its source.
    pub fn new(source: TraceSource, config: SimConfig) -> Self {
        let label = source.name().to_owned();
        RunCell {
            source,
            config,
            label,
        }
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Timing and footprint of one executed cell.
///
/// These are observations about the *execution*, not the simulation:
/// they vary run to run and must never leak into serialized reports
/// (which stay byte-deterministic across thread counts).
#[derive(Debug, Clone, Copy)]
pub struct RunMetrics {
    /// Wall time of the replay (excluding trace generation); for a cell
    /// of an `n`-cell translation group, an `n`th of the group's wall.
    pub wall: Duration,
    /// When the replay started, nanoseconds since the Unix epoch
    /// ([`smrseek_obs::unix_nanos`]).
    pub start_unix_ns: u64,
    /// The worker thread that ran the cell ([`smrseek_obs::current_tid`]).
    pub tid: u64,
    /// Logical records replayed.
    pub records: u64,
    /// Largest extent-map segment count the run reached (0 for NoLS).
    pub peak_extent_segments: u64,
    /// Engine phase accounting for the cell (all zeros unless
    /// [`smrseek_obs::set_phase_accounting`] was on).
    pub phases: PhaseTotals,
}

impl RunMetrics {
    /// Replay throughput in records per second.
    pub fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// The result of one executed cell: the deterministic report plus the
/// execution's metrics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The cell's display label.
    pub label: String,
    /// The simulation report (deterministic).
    pub report: RunReport,
    /// Execution timing/footprint (non-deterministic side channel).
    pub metrics: RunMetrics,
}

impl RunOutcome {
    /// Pairs `cell`'s report with the metrics of a replay that started at
    /// `start_unix_ns` on thread `tid` and took `wall`.
    fn new(
        cell: &RunCell,
        report: RunReport,
        wall: Duration,
        start_unix_ns: u64,
        tid: u64,
    ) -> Self {
        let metrics = RunMetrics {
            wall,
            start_unix_ns,
            tid,
            records: report.logical_ops,
            peak_extent_segments: report.peak_extent_segments,
            phases: report.phases,
        };
        RunOutcome {
            label: cell.label.clone(),
            report,
            metrics,
        }
    }
}

/// An ordered collection of (trace source × configuration) cells.
#[derive(Debug, Clone, Default)]
pub struct RunMatrix {
    cells: Vec<RunCell>,
}

impl RunMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        RunMatrix::default()
    }

    /// Appends one cell.
    pub fn push(&mut self, cell: RunCell) {
        self.cells.push(cell);
    }

    /// The full cross product: every source replayed under every
    /// configuration, in source-major order.
    pub fn cross(sources: &[TraceSource], configs: &[SimConfig]) -> Self {
        let mut matrix = RunMatrix::new();
        for source in sources {
            for config in configs {
                matrix.push(RunCell::new(source.clone(), *config));
            }
        }
        matrix
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells, in execution-result order.
    pub fn cells(&self) -> &[RunCell] {
        &self.cells
    }

    /// Executes every cell on up to `threads` scoped workers and returns
    /// the outcomes *in cell order* — the thread count changes wall time
    /// and grouping, never results. Workers claim translation groups;
    /// each group's translation replays serially on one worker, and a
    /// split group's cache lanes on a helper thread beside it.
    ///
    /// Timing of an `n`-cell group: each cell reports a wall of the
    /// group's wall divided by `n`, starting `k` such walls after the
    /// group started (so the cells' spans tile the group's), on the
    /// group's thread, with an `n`th of its phase totals (remainders on
    /// the first cell). Summing cells therefore counts the group once.
    pub fn execute(&self, threads: NonZeroUsize) -> Vec<RunOutcome> {
        let plan = self.plan(threads);
        let done = parallel_map(&plan, threads, |(group, helper)| {
            self.run_group(group, helper)
        });
        let mut outcomes: Vec<(usize, RunOutcome)> = plan
            .iter()
            .zip(done)
            .flat_map(|((group, _), outcomes)| group.iter().copied().zip(outcomes))
            .collect();
        outcomes.sort_by_key(|&(i, _)| i);
        outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Partitions the cells into translation groups, as lists of cell
    /// indices in cell order, ordered by their first cell. Walking the
    /// cells in order, a cell joins the first earlier group of the same
    /// source whose configs it [shares a translation
    /// with](SimConfig::shares_translation) — but only while the matrix
    /// keeps at least `threads` work items, so grouping never leaves a
    /// worker idle that separate cells would have kept busy.
    fn groups(&self, threads: NonZeroUsize) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut items = self.cells.len();
        for (i, cell) in self.cells.iter().enumerate() {
            if items > threads.get() {
                let host = groups.iter_mut().find(|g| {
                    let first = &self.cells[g[0]];
                    first.source.same_supply(&cell.source)
                        && first.config.shares_translation(&cell.config)
                });
                if let Some(group) = host {
                    group.push(i);
                    items -= 1;
                    continue;
                }
            }
            groups.push(vec![i]);
        }
        groups
    }

    /// The [groups](Self::groups), each with the positions of the lanes
    /// that replay on a helper thread. The split rule reads only the
    /// thread and group counts: on at least two threads, with fewer
    /// groups than twice the threads (so some worker would otherwise run
    /// out of groups early), every group that holds a selective-cache lane
    /// and a [plain-LS](SimConfig::is_plain_ls) lane hands its cache lanes
    /// to a helper — all but policy-driven ones, which need the records
    /// and stay on the worker; otherwise nothing splits.
    fn plan(&self, threads: NonZeroUsize) -> Vec<(Vec<usize>, Vec<usize>)> {
        let groups = self.groups(threads);
        let split = threads.get() >= 2 && groups.len() < 2 * threads.get();
        groups
            .into_iter()
            .map(|group| {
                let configs: Vec<&SimConfig> =
                    group.iter().map(|&i| &self.cells[i].config).collect();
                let mut helper = Vec::new();
                if split && configs.iter().any(|c| c.is_plain_ls()) {
                    helper = (0..configs.len())
                        .filter(|&k| {
                            matches!(configs[k].layer, LayerChoice::Ls { cache: Some(_), .. })
                                && configs[k].policy.is_none()
                        })
                        .collect();
                }
                (group, helper)
            })
            .collect()
    }

    /// Replays one group on this thread, its `helper` lanes on one more;
    /// outcomes in the group's order.
    fn run_group(&self, group: &[usize], helper: &[usize]) -> Vec<RunOutcome> {
        let cells: Vec<&RunCell> = group.iter().map(|&i| &self.cells[i]).collect();
        let configs: Vec<SimConfig> = cells.iter().map(|c| c.config).collect();
        let records = cells[0].source.records();
        let start_unix_ns = smrseek_obs::unix_nanos();
        let start = Instant::now();
        let reports = Simulation::run_group(&configs, helper, &records);
        let wall = start.elapsed();
        lane_outcomes(
            &cells,
            reports,
            wall,
            start_unix_ns,
            smrseek_obs::current_tid(),
        )
    }

    /// [`execute`](Self::execute); the policy is ignored (see
    /// [`ShardPolicy`]).
    pub fn execute_with(&self, threads: NonZeroUsize, _policy: ShardPolicy) -> Vec<RunOutcome> {
        self.execute(threads)
    }
}

/// Pairs a group's reports with its cells, attributing the group's `wall`
/// (started at `start_unix_ns` on thread `tid`) evenly: cell `k` of `n`
/// gets `wall / n`, starting `k` such walls after the group. Each report
/// already carries an `n`th of the group's phase totals.
fn lane_outcomes(
    cells: &[&RunCell],
    reports: Vec<RunReport>,
    wall: Duration,
    start_unix_ns: u64,
    tid: u64,
) -> Vec<RunOutcome> {
    let lane_wall = wall / u32::try_from(cells.len()).unwrap_or(u32::MAX);
    let lane_ns = u64::try_from(lane_wall.as_nanos()).unwrap_or(u64::MAX);
    cells
        .iter()
        .zip(reports)
        .zip(0u64..)
        .map(|((cell, report), k)| {
            let start = start_unix_ns.saturating_add(k.saturating_mul(lane_ns));
            RunOutcome::new(cell, report, lane_wall, start, tid)
        })
        .collect()
}

/// Applies `f` to every item on up to `threads` scoped workers, returning
/// results in item order. Work is claimed from a shared index queue, so an
/// expensive item never strands idle workers behind a static partition.
pub fn parallel_map<T, R, F>(items: &[T], threads: NonZeroUsize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.get().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index stored a result")
        })
        .collect()
}

/// The argument of [`RunMatrix::execute_with`], which ignores it: every
/// cell's translation replays serially, and the runner derives grouping
/// and splits from the thread and group counts alone, so there is nothing
/// left to choose. This one-variant enum exists only because the
/// benchmark harness under `perfbench/` still calls
/// `execute_with(threads, ShardPolicy::Auto)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// The only policy: groups in parallel, each translated serially.
    Auto,
}

/// The thread budget: the `SMRSEEK_THREADS` environment variable when set
/// to a positive integer, otherwise the machine's available parallelism
/// (falling back to one worker where it cannot be queried). An unset,
/// empty, zero, or unparsable variable is ignored rather than an error —
/// an operator typo degrades to the default, never to a refusal to run.
pub fn default_threads() -> NonZeroUsize {
    std::env::var("SMRSEEK_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_thread_override)
        .unwrap_or_else(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
}

/// Parses an `SMRSEEK_THREADS` value; `None` for anything but a positive
/// integer.
fn parse_thread_override(value: &str) -> Option<NonZeroUsize> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .and_then(NonZeroUsize::new)
}

/// Per-cell metrics retained after the reports have been consumed into
/// figure rows, so the CLI can print a timing summary without holding the
/// full outcomes.
#[derive(Debug, Clone, Default)]
pub struct MatrixStats {
    /// `(label, metrics)` per executed cell, in cell order.
    pub cells: Vec<(String, RunMetrics)>,
}

impl MatrixStats {
    /// Captures the metrics of a slice of outcomes.
    pub fn from_outcomes(outcomes: &[RunOutcome]) -> Self {
        MatrixStats {
            cells: outcomes
                .iter()
                .map(|o| (o.label.clone(), o.metrics))
                .collect(),
        }
    }

    /// Sum of per-cell replay wall times (≈ CPU time spent simulating).
    pub fn total_wall(&self) -> Duration {
        self.cells.iter().map(|(_, m)| m.wall).sum()
    }

    /// Total logical records replayed across all cells.
    pub fn total_records(&self) -> u64 {
        self.cells.iter().map(|(_, m)| m.records).sum()
    }

    /// Largest extent map any cell reached, in segments.
    pub fn peak_extent_segments(&self) -> u64 {
        self.cells
            .iter()
            .map(|(_, m)| m.peak_extent_segments)
            .max()
            .unwrap_or(0)
    }

    /// Engine phase totals merged across every cell (all zeros unless
    /// [`smrseek_obs::set_phase_accounting`] was on during execution).
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for (_, m) in &self.cells {
            totals.merge(&m.phases);
        }
        totals
    }

    /// Replay rate over *simulation* time: total records divided by the
    /// summed per-cell wall times. This is an aggregate rate per second
    /// of sim compute — not a per-worker figure (cells may have run on
    /// any number of workers) and not wall-clock throughput (workers
    /// overlap, so real elapsed time is lower than the sum).
    pub fn records_per_sim_sec(&self) -> f64 {
        self.total_records() as f64 / self.total_wall().as_secs_f64().max(1e-9)
    }

    /// One-line summary for the CLI's stderr timing report.
    pub fn summary(&self, command: &str) -> String {
        format!(
            "{command}: {} runs, {} records in {:.2}s sim time \
             ({:.0} records/s of sim time, peak extent map {} segments)",
            self.cells.len(),
            self.total_records(),
            self.total_wall().as_secs_f64(),
            self.records_per_sim_sec(),
            self.peak_extent_segments(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::Lba;

    fn burst(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::write(i, Lba::new((i * 37) % 4096 * 8), 8))
            .collect()
    }

    fn two() -> NonZeroUsize {
        NonZeroUsize::new(2).expect("nonzero")
    }

    /// Serializes the tests that flip the process-wide phase-accounting
    /// switch, so one's untimed run never sees the other's setting.
    static PHASE_SWITCH: Mutex<()> = Mutex::new(());

    /// A mixed workload: reads of earlier writes fragment, so every
    /// mechanism has work.
    fn mixed(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let lba = Lba::new((i * 37) % 4096 * 8);
                if i % 3 == 0 {
                    TraceRecord::read(i, lba, 24)
                } else {
                    TraceRecord::write(i, lba, 8)
                }
            })
            .collect()
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1usize, 2, 8] {
            let threads = NonZeroUsize::new(threads).expect("nonzero");
            let doubled = parallel_map(&items, threads, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_excess_threads() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(&none, two(), |&x| x).is_empty());
        let one = [7u32];
        assert_eq!(parallel_map(&one, default_threads(), |&x| x + 1), vec![8]);
    }

    #[test]
    fn matrix_results_are_thread_count_invariant() {
        let source = TraceSource::from_records("burst", burst(2000));
        let configs = [
            SimConfig::no_ls(),
            SimConfig::log_structured(),
            SimConfig::ls_cache(),
        ];
        let matrix = RunMatrix::cross(&[source], &configs);
        assert_eq!(matrix.len(), 3);
        let serial = matrix.execute(NonZeroUsize::MIN);
        let parallel = matrix.execute(two());
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.report.layer_name, b.report.layer_name);
            assert_eq!(a.report.seeks, b.report.seeks);
            assert_eq!(a.report.phys_sectors, b.report.phys_sectors);
            assert_eq!(a.report.peak_extent_segments, b.report.peak_extent_segments);
        }
    }

    #[test]
    fn metrics_capture_replay_size() {
        let source = TraceSource::from_records("burst", burst(500));
        let matrix = RunMatrix::cross(&[source], &[SimConfig::log_structured()]);
        let outcomes = matrix.execute(NonZeroUsize::MIN);
        let m = outcomes[0].metrics;
        assert_eq!(m.records, 500);
        assert!(m.peak_extent_segments > 0);
        assert!(m.records_per_sec() > 0.0);
        let stats = MatrixStats::from_outcomes(&outcomes);
        assert_eq!(stats.total_records(), 500);
        assert!(stats.summary("test").contains("1 runs"));
    }

    #[test]
    fn summary_reports_aggregate_sim_time_rate() {
        let stats = MatrixStats {
            cells: vec![
                (
                    "a".into(),
                    RunMetrics {
                        wall: Duration::from_secs(2),
                        start_unix_ns: 0,
                        tid: 1,
                        records: 600,
                        peak_extent_segments: 3,
                        phases: PhaseTotals::default(),
                    },
                ),
                (
                    "b".into(),
                    RunMetrics {
                        wall: Duration::from_secs(1),
                        start_unix_ns: 0,
                        tid: 2,
                        records: 300,
                        peak_extent_segments: 7,
                        phases: PhaseTotals::default(),
                    },
                ),
            ],
        };
        // 900 records over 3 summed sim seconds: 300 records/s of sim
        // time, regardless of how many workers the cells ran on.
        assert!((stats.records_per_sim_sec() - 300.0).abs() < 1e-9);
        let line = stats.summary("x");
        assert!(line.contains("300 records/s of sim time"), "{line}");
        assert!(
            !line.contains("/worker"),
            "summed sim time is not a per-worker rate: {line}"
        );
    }

    #[test]
    fn matrix_stats_agree_with_per_cell_durations() {
        // The stderr summary and records_per_sim_sec must be derived from
        // exactly the per-cell durations the runner recorded.
        let source = TraceSource::from_records("burst", burst(800));
        let configs = [SimConfig::no_ls(), SimConfig::log_structured()];
        let outcomes = RunMatrix::cross(&[source], &configs).execute(two());
        let stats = MatrixStats::from_outcomes(&outcomes);

        let wall_sum: Duration = outcomes.iter().map(|o| o.metrics.wall).sum();
        let record_sum: u64 = outcomes.iter().map(|o| o.metrics.records).sum();
        assert_eq!(stats.total_wall(), wall_sum);
        assert_eq!(stats.total_records(), record_sum);
        assert_eq!(record_sum, 2 * 800);
        let expected_rate = record_sum as f64 / wall_sum.as_secs_f64().max(1e-9);
        assert!((stats.records_per_sim_sec() - expected_rate).abs() < 1e-6);

        let line = stats.summary("agree");
        assert!(line.starts_with("agree: 2 runs, 1600 records"), "{line}");
        assert!(
            line.contains(&format!("in {:.2}s sim time", wall_sum.as_secs_f64())),
            "summary must print the summed per-cell wall time: {line}"
        );
        assert!(
            line.contains(&format!("({expected_rate:.0} records/s of sim time")),
            "summary rate must match the per-cell durations: {line}"
        );
        assert!(
            line.contains(&format!(
                "peak extent map {} segments",
                stats.peak_extent_segments()
            )),
            "{line}"
        );
    }

    #[test]
    fn execute_merges_phase_totals_when_accounting_is_on() {
        // Phase accounting must surface per-cell totals through RunMetrics
        // and merge across the matrix. Serialized reports stay unaffected
        // (asserted separately in the engine's byte-identity tests).
        let _switch = PHASE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        smrseek_obs::set_phase_accounting(true);
        let source = TraceSource::from_records("burst", burst(400));
        let outcomes = RunMatrix::cross(&[source], &[SimConfig::no_ls(), SimConfig::ls_cache()])
            .execute(two());
        smrseek_obs::set_phase_accounting(false);
        let stats = MatrixStats::from_outcomes(&outcomes);
        let totals = stats.phase_totals();
        for o in &outcomes {
            assert!(
                !o.metrics.phases.is_zero(),
                "cell {} recorded no phases",
                o.label
            );
            // Ingest is timed per decoded *block* since batched ingest
            // (400 records fit one block), not per record.
            assert_eq!(
                o.metrics.phases.calls(smrseek_obs::Phase::Ingest),
                1,
                "ingest is timed once per block"
            );
        }
        assert!(totals.nanos(smrseek_obs::Phase::Lookup) > 0);
        assert!(totals.nanos(smrseek_obs::Phase::Seek) > 0);
        assert_eq!(totals.calls(smrseek_obs::Phase::Ingest), 2);
        // Untimed runs stay all-zero so merged totals are not polluted.
        let cold = RunMatrix::cross(
            &[TraceSource::from_records("burst", burst(50))],
            &[SimConfig::no_ls()],
        )
        .execute(NonZeroUsize::MIN);
        assert!(cold[0].metrics.phases.is_zero());
    }

    #[test]
    fn standard_sweep_groups_by_thread_count() {
        let source = TraceSource::from_records("mixed", mixed(3000));
        let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        // Cells: 0 NoLS, 1 LS, 2 LS+defrag, 3 LS+prefetch, 4 LS+cache.
        let grouped: Vec<Vec<usize>> = vec![vec![0], vec![1, 3, 4], vec![2]];
        assert_eq!(matrix.groups(n(1)), grouped);
        assert_eq!(matrix.groups(n(2)), grouped);
        assert_eq!(
            matrix.groups(n(4)),
            vec![vec![0], vec![1, 3], vec![2], vec![4]]
        );
        let alone: Vec<Vec<usize>> = (0..5).map(|i| vec![i]).collect();
        assert_eq!(matrix.groups(n(5)), alone);
        assert_eq!(matrix.groups(n(8)), alone);

        // Which lanes replay on a helper thread, per group.
        let helpers = |threads: usize| -> Vec<Vec<usize>> {
            matrix
                .plan(n(threads))
                .into_iter()
                .map(|(_, h)| h)
                .collect()
        };
        // One thread never splits.
        assert_eq!(helpers(1), vec![vec![]; 3]);
        // Two and three threads: three groups, fewer than twice the
        // threads, and {LS, LS+prefetch, LS+cache} hands LS+cache over.
        assert_eq!(helpers(2), vec![vec![], vec![2], vec![]]);
        assert_eq!(helpers(3), vec![vec![], vec![2], vec![]]);
        // Four threads: LS+cache replays alone, with no plain lane to feed
        // it; eight: every config alone.
        assert_eq!(helpers(4), vec![vec![]; 4]);
        assert_eq!(helpers(8), vec![vec![]; 5]);

        let bytes = |threads: usize| -> Vec<(String, String)> {
            matrix
                .execute(n(threads))
                .iter()
                .map(|o| {
                    let json = serde_json::to_string(&o.report).expect("report serializes");
                    (o.report.layer_name.clone(), json)
                })
                .collect()
        };
        let serial = bytes(1);
        let names: Vec<&str> = serial.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["NoLS", "LS", "LS+defrag", "LS+prefetch", "LS+cache"],
            "outcomes come back in cell order"
        );
        for threads in [2, 3, 4, 8] {
            assert_eq!(bytes(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn table1_shaped_matrix_never_splits_on_two_threads() {
        // 21 sources x (the standard sweep + the adaptive config): the shape
        // of the Table-I matrix. Three groups per source, the adaptive
        // config a lane of LS's, are 63 work items, far more than twice
        // two threads.
        let sources: Vec<TraceSource> = (0..21u64)
            .map(|s| TraceSource::from_records(format!("t{s}"), mixed(40 + s)))
            .collect();
        let mut configs = SimConfig::standard_sweep().to_vec();
        configs.push(SimConfig::ls_adaptive());
        let matrix = RunMatrix::cross(&sources, &configs);
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        let plan = matrix.plan(n(2));
        assert_eq!(plan.len(), 63);
        // Cells per source: NoLS, LS, LS+defrag, LS+prefetch, LS+cache,
        // LS+adaptive.
        assert_eq!(
            plan[..3].iter().map(|(g, _)| g.clone()).collect::<Vec<_>>(),
            vec![vec![0], vec![1, 3, 4, 5], vec![2]]
        );
        assert!(plan.iter().all(|(_, helper)| helper.is_empty()));
        let bytes = |threads: usize| -> Vec<String> {
            matrix
                .execute(n(threads))
                .iter()
                .map(|o| serde_json::to_string(&o.report).expect("report serializes"))
                .collect()
        };
        let serial = bytes(1);
        for threads in [2, 4] {
            assert_eq!(bytes(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn policy_lanes_stay_on_the_worker_when_a_group_splits() {
        let source = TraceSource::from_records("mixed", mixed(3000));
        let mut configs = SimConfig::standard_sweep().to_vec();
        configs.push(SimConfig::ls_adaptive());
        let matrix = RunMatrix::cross(&[source], &configs);
        // Three groups on two threads split; of {LS, LS+prefetch,
        // LS+cache, LS+adaptive} only the fixed cache lane moves.
        assert_eq!(
            matrix.plan(two()),
            vec![
                (vec![0], vec![]),
                (vec![1, 3, 4, 5], vec![2]),
                (vec![2], vec![])
            ]
        );
    }

    #[test]
    fn groups_need_the_same_source_not_equal_records() {
        let a = TraceSource::from_records("a", mixed(100));
        let b = TraceSource::from_records("a", mixed(100));
        let configs = [SimConfig::log_structured(), SimConfig::ls_cache()];
        let split = RunMatrix::cross(&[a.clone(), b], &configs);
        assert_eq!(
            split.groups(NonZeroUsize::MIN),
            vec![vec![0, 1], vec![2, 3]]
        );
        let mut interleaved = RunMatrix::new();
        for config in [configs[0], SimConfig::no_ls(), configs[1]] {
            interleaved.push(RunCell::new(a.clone(), config));
        }
        assert_eq!(
            interleaved.groups(NonZeroUsize::MIN),
            vec![vec![0, 2], vec![1]]
        );
    }

    #[test]
    fn group_timing_tiles_the_group_span() {
        let source = TraceSource::from_records("t", burst(10));
        let cells: Vec<RunCell> = [
            SimConfig::log_structured(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
        ]
        .into_iter()
        .map(|c| RunCell::new(source.clone(), c))
        .collect();
        let refs: Vec<&RunCell> = cells.iter().collect();
        let configs: Vec<SimConfig> = cells.iter().map(|c| c.config).collect();
        let reports = Simulation::run_group(&configs, &[], &source.records());
        let wall = Duration::from_nanos(1_000_000_007);
        let outcomes = lane_outcomes(&refs, reports, wall, 5_000, 42);
        let n = outcomes.len() as u32;
        let summed: Duration = outcomes.iter().map(|o| o.metrics.wall).sum();
        assert!(summed <= wall && wall - summed < Duration::from_nanos(u64::from(n)));
        for (k, o) in outcomes.iter().enumerate() {
            assert_eq!(o.metrics.tid, 42);
            assert_eq!(o.metrics.wall, wall / n);
            let lane_ns = (wall / n).as_nanos() as u64;
            assert_eq!(o.metrics.start_unix_ns, 5_000 + k as u64 * lane_ns);
        }
    }

    #[test]
    fn grouped_phases_count_each_block_once() {
        let _switch = PHASE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        // 10,000 records are three 4096-record ingest blocks.
        let source = TraceSource::from_records("mixed", mixed(10_000));
        let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
        let groups = matrix.groups(two());
        assert_eq!(groups.len(), 3);
        smrseek_obs::set_phase_accounting(true);
        let start = Instant::now();
        let outcomes = matrix.execute(two());
        let elapsed = start.elapsed();
        smrseek_obs::set_phase_accounting(false);
        let totals = MatrixStats::from_outcomes(&outcomes).phase_totals();
        assert_eq!(totals.calls(smrseek_obs::Phase::Ingest), 3 * 3);
        for group in &groups {
            let first = outcomes[group[0]].metrics;
            let mut end = first.start_unix_ns;
            for &i in group {
                let m = outcomes[i].metrics;
                assert_eq!(m.wall, first.wall, "a group's cells share its wall");
                assert_eq!(m.tid, first.tid, "a group runs on one thread");
                assert_eq!(m.start_unix_ns, end, "cell spans tile the group span");
                end += m.wall.as_nanos() as u64;
            }
            let summed: Duration = group.iter().map(|&i| outcomes[i].metrics.wall).sum();
            assert!(summed <= elapsed, "{summed:?} > {elapsed:?}");
        }
    }

    #[test]
    fn split_group_phases_include_the_helper() {
        let _switch = PHASE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let source = TraceSource::from_records("mixed", mixed(10_000));
        let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
        // The same three groups on one thread and on two; on two,
        // {LS, LS+prefetch, LS+cache} hands LS+cache to a helper.
        let one = matrix.plan(NonZeroUsize::MIN);
        let split = matrix.plan(two());
        assert_eq!(
            one.iter().map(|(g, _)| g).collect::<Vec<_>>(),
            split.iter().map(|(g, _)| g).collect::<Vec<_>>()
        );
        assert_eq!(split[1], (vec![1, 3, 4], vec![2]));
        smrseek_obs::set_phase_accounting(true);
        let inline = MatrixStats::from_outcomes(&matrix.execute(NonZeroUsize::MIN)).phase_totals();
        let outcomes = matrix.execute(two());
        smrseek_obs::set_phase_accounting(false);
        let split = MatrixStats::from_outcomes(&outcomes).phase_totals();
        // Every record reaches the layer once per group: one lookup and one
        // seek interval each. The helper times one more of each per record,
        // and those land in the group's totals.
        use smrseek_obs::Phase;
        assert_eq!(inline.calls(Phase::Lookup), 3 * 10_000);
        assert_eq!(inline.calls(Phase::Seek), 3 * 10_000);
        assert_eq!(split.calls(Phase::Lookup), 4 * 10_000);
        assert_eq!(split.calls(Phase::Seek), 4 * 10_000);
        let group: u64 = [1, 3, 4]
            .iter()
            .map(|&i| outcomes[i].metrics.phases.calls(Phase::Seek))
            .sum();
        assert_eq!(group, 2 * 10_000);
        // Ingest stays once per block, on each group's worker.
        assert_eq!(split.calls(Phase::Ingest), 3 * 3);
        assert_eq!(inline.calls(Phase::Ingest), 3 * 3);
    }

    #[test]
    fn cells_can_be_labeled() {
        let source = TraceSource::from_records("t", burst(10));
        let cell = RunCell::new(source, SimConfig::no_ls()).with_label("t/NoLS");
        assert_eq!(cell.label, "t/NoLS");
    }

    #[test]
    fn thread_override_parses_positive_integers_only() {
        assert_eq!(parse_thread_override("3"), NonZeroUsize::new(3));
        assert_eq!(parse_thread_override(" 16 "), NonZeroUsize::new(16));
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert_eq!(parse_thread_override("many"), None);
    }

    #[test]
    fn env_override_steers_default_threads() {
        std::env::set_var("SMRSEEK_THREADS", "3");
        assert_eq!(default_threads(), NonZeroUsize::new(3).expect("nonzero"));
        std::env::set_var("SMRSEEK_THREADS", "not-a-number");
        let fallback = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        assert_eq!(default_threads(), fallback);
        std::env::remove_var("SMRSEEK_THREADS");
        assert_eq!(default_threads(), fallback);
    }
}
