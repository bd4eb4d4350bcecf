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
//! and the policy-free cache lanes replay from the plain lane's forwarded
//! I/O, queued in blocks that the matrix's workers serve between blocks
//! of their own cells and after their last one. Only the group and thread
//! counts choose this. A matrix on `N` threads runs `N` replay threads,
//! never more: a split group's worker serves its own oldest block when
//! all its blocks are queued.
//!
//! Each execution builds every [`TraceSource`]'s records once: the first
//! group that replays a source builds them, later groups of the source
//! share them, and the last one to finish drops them, so a source-major
//! matrix holds about one trace per worker at a time.
//!
//! Determinism: results come back in cell order regardless of the thread
//! count, and every trace comes from a named, repeatable [`TraceSource`]
//! — so reports (and any JSON derived from them) are byte-identical
//! whether the matrix runs on one worker or sixteen, and however its
//! cells were grouped. Only the timing side-channel
//! ([`RunMetrics`]) varies between runs, which is why it lives next to,
//! never inside, the serialized reports.

#![deny(clippy::unwrap_used)]

use crate::engine::{GroupReplay, LayerChoice, RunReport, SimConfig, Simulation};
use crate::experiments::ExpOptions;
use crate::split::LaneBoard;
use smrseek_obs::PhaseTotals;
use smrseek_trace::TraceRecord;
use smrseek_workloads::profiles::Profile;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A named, repeatable source of trace records.
///
/// [`RunMatrix::execute`] asks each source for its records once, on the
/// worker of the first group that replays it — a
/// [`TraceSource::from_profile`] source generates its trace then, a
/// [`TraceSource::from_records`] one clones an `Arc` — and drops them
/// after the source's last group, so a matrix never holds every trace
/// at once. Repeatability is what keeps the matrix deterministic under
/// any scheduling. Clones of one source share its supply, which is how
/// the runner tells that two cells replay the same trace. Trace files of
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
    pub(crate) fn new(
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
    /// A group's wall runs until its last split-lane block is served,
    /// whichever worker served it, and leaves out the time its own worker
    /// spent serving other groups' blocks ([`served`](Self::served)).
    pub wall: Duration,
    /// Time the group's worker spent serving other groups' split-lane
    /// blocks while it replayed this group, all on the group's last cell
    /// (zero on the others), so summing cells counts it once. It comes
    /// after the cells' walls: the group's cells and this time together
    /// take the group's elapsed time.
    pub served: Duration,
    /// When the replay started, nanoseconds since the Unix epoch
    /// ([`smrseek_obs::unix_nanos`]).
    pub start_unix_ns: u64,
    /// The worker thread that ran the cell ([`smrseek_obs::current_tid`]).
    pub tid: u64,
    /// Logical records replayed.
    pub records: u64,
    /// Largest extent-map segment count the run reached (0 for NoLS).
    pub peak_extent_segments: u64,
    /// Engine phase accounting for the cell: an `n`th of its group's
    /// (remainders on the first cell), the records of the phase sample
    /// scaled to the whole replay ([`smrseek_obs::phase`]).
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

/// An ordered collection of (trace source × configuration) cells, every
/// experiment's one replay path.
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
    /// split group's cache lanes on whichever workers serve its queued
    /// blocks. Each source's records are built once per call, by the first
    /// group that replays them, and dropped after its last group. A panic
    /// in any cell, split lanes included, resumes here.
    ///
    /// Timing of an `n`-cell group: each cell reports a wall of the
    /// group's wall divided by `n`, starting `k` such walls after the
    /// group started (so the cells' spans tile the group's), on the
    /// group's thread, with an `n`th of its phase totals (remainders on
    /// the first cell); the last cell also carries the group's serve
    /// time. Summing cells therefore counts the group once.
    pub fn execute(&self, threads: NonZeroUsize) -> Vec<RunOutcome> {
        let mut slots = 0..;
        let mut traces: Vec<SharedTrace> = Vec::new();
        let plan: Vec<_> = self
            .plan(threads)
            .into_iter()
            .map(|(group, split)| {
                let slot = if split.is_empty() { None } else { slots.next() };
                let source = &self.cells[group[0]].source;
                let known = traces.iter().position(|t| t.source.same_supply(source));
                let trace = known.unwrap_or_else(|| {
                    traces.push(SharedTrace::new(source));
                    traces.len() - 1
                });
                *traces[trace].pending.get_mut() += 1;
                (group, split, slot, trace)
            })
            .collect();
        let board = LaneBoard::new(slots.start);
        // Groups go out in plan order, except that a worker passes over
        // groups whose trace another worker is still building: it starts
        // the next trace instead of queueing behind that one.
        let claimed = Mutex::new(vec![false; plan.len()]);
        let claim = || {
            let mut claimed = claimed.lock().expect("claim list poisoned");
            let first = claimed.iter().position(|&c| !c)?;
            let i = (first..plan.len())
                .find(|&i| !claimed[i] && !traces[plan[i].3].building())
                .unwrap_or(first);
            claimed[i] = true;
            traces[plan[i].3].claimed.store(true, Ordering::Relaxed);
            Some(i)
        };
        let done = map_claimed(
            &plan,
            threads,
            claim,
            |(group, split, slot, trace)| {
                self.run_group(group, split, *slot, &board, &traces[*trace])
            },
            || board.serve_until_closed(),
        );
        let mut outcomes: Vec<(usize, RunOutcome)> = plan
            .iter()
            .zip(done)
            .flat_map(|((group, ..), outcomes)| group.iter().copied().zip(outcomes))
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
    /// it splits off. The split rule reads only the thread and group
    /// counts: on at least two threads, with fewer groups than twice the
    /// threads (so some worker would otherwise run out of groups early),
    /// every group that holds a selective-cache lane and a
    /// [plain-LS](SimConfig::is_plain_ls) lane splits off its cache lanes
    /// — all but policy-driven ones, which need the records and stay with
    /// the translation; otherwise nothing splits.
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

    /// Replays one group of `trace` on this thread, its `split` lanes
    /// through queue `slot` of `board`; outcomes in the group's order. The
    /// time this thread spends serving other groups' blocks is left out of
    /// the group's wall.
    fn run_group(
        &self,
        group: &[usize],
        split: &[usize],
        slot: Option<usize>,
        board: &LaneBoard,
        trace: &SharedTrace,
    ) -> Vec<RunOutcome> {
        let _queue = slot.map(|slot| board.guard(slot));
        let cells: Vec<&RunCell> = group.iter().map(|&i| &self.cells[i]).collect();
        let configs: Vec<SimConfig> = cells.iter().map(|c| c.config).collect();
        let records = trace.records();
        let start_unix_ns = smrseek_obs::unix_nanos();
        let start = Instant::now();
        let replay = Simulation::replay_group(&configs, split, &records, board, slot);
        let wall = start.elapsed().saturating_sub(replay.served);
        drop(records);
        trace.release();
        lane_outcomes(
            &cells,
            replay,
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

/// One distinct source of an execution and its records while a group may
/// still replay them: the first group to ask builds them under the lock,
/// later groups clone the `Arc`, and the last group to finish drops it.
struct SharedTrace<'a> {
    source: &'a TraceSource,
    /// Groups of the source that have not finished.
    pending: AtomicUsize,
    /// Whether a group of the source has been handed to a worker.
    claimed: AtomicBool,
    records: Mutex<Option<Arc<Vec<TraceRecord>>>>,
}

impl<'a> SharedTrace<'a> {
    fn new(source: &'a TraceSource) -> Self {
        SharedTrace {
            source,
            pending: AtomicUsize::new(0),
            claimed: AtomicBool::new(false),
            records: Mutex::new(None),
        }
    }

    /// The source's records, built on the first call. A supply that
    /// panicked stored nothing, so the next group builds again and fails
    /// with the supply's own panic rather than a poisoned lock.
    fn records(&self) -> Arc<Vec<TraceRecord>> {
        let mut held = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(held.get_or_insert_with(|| (self.source.supply)()))
    }

    /// Whether a worker has taken a group of the source and has not built
    /// its records yet (or holds the lock for an instant to share them).
    fn building(&self) -> bool {
        self.claimed.load(Ordering::Relaxed)
            && self.records.try_lock().map_or(true, |held| held.is_none())
    }

    /// Marks one group of the source finished; the last drops the records.
    fn release(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.records
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
    }
}

/// Pairs a group's reports with its cells, attributing the group's `wall`
/// (started at `start_unix_ns` on thread `tid`) and phase totals evenly:
/// cell `k` of `n` gets `wall / n`, starting `k` such walls after the
/// group, and share `k` of the phases. The last cell carries the group's
/// serve time.
fn lane_outcomes(
    cells: &[&RunCell],
    replay: GroupReplay,
    wall: Duration,
    start_unix_ns: u64,
    tid: u64,
) -> Vec<RunOutcome> {
    let n = cells.len();
    let lane_wall = wall / u32::try_from(n).unwrap_or(u32::MAX);
    let lane_ns = u64::try_from(lane_wall.as_nanos()).unwrap_or(u64::MAX);
    cells
        .iter()
        .zip(replay.reports)
        .zip(0..)
        .map(|((cell, report), k)| {
            let metrics = RunMetrics {
                wall: lane_wall,
                served: if k + 1 == n {
                    replay.served
                } else {
                    Duration::ZERO
                },
                start_unix_ns: start_unix_ns.saturating_add((k as u64).saturating_mul(lane_ns)),
                tid,
                records: report.logical_ops,
                peak_extent_segments: report.peak_extent_segments,
                phases: replay.phases.share(k, n),
            };
            RunOutcome {
                label: cell.label.clone(),
                report,
                metrics,
            }
        })
        .collect()
}

/// Applies `f` to every item on up to `threads` scoped workers, returning
/// results in item order. Work is claimed from a shared index queue, so an
/// expensive item never strands idle workers behind a static partition.
/// A panic in `f` resumes on the caller, with its own payload, once every
/// worker has stopped.
pub fn parallel_map<T, R, F>(items: &[T], threads: NonZeroUsize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < items.len());
    map_claimed(items, threads, claim, f, || {})
}

/// [`parallel_map`] with the order of work chosen by `claim`, which hands
/// out each item's index once and then `None`; each worker calls `idle`
/// once `claim` has nothing left (on one worker, nobody does).
fn map_claimed<T, R, C, F, I>(items: &[T], threads: NonZeroUsize, claim: C, f: F, idle: I) -> Vec<R>
where
    T: Sync,
    R: Send,
    C: Fn() -> Option<usize> + Sync,
    F: Fn(&T) -> R + Sync,
    I: Fn() + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || {
        while let Some(i) = claim() {
            let result = f(&items[i]);
            *slots[i].lock().expect("result slot poisoned") = Some(result);
        }
    };
    let workers = threads.get().min(items.len());
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        work();
                        idle();
                    })
                })
                .collect();
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
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

/// The thread budget: the machine's available parallelism, or one worker
/// where it cannot be queried.
pub fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
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

    /// Engine phase totals merged across every cell.
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

    /// Records of an `n`-record replay that its step times: the last of
    /// every [`SAMPLE_INTERVAL`](smrseek_obs::phase::SAMPLE_INTERVAL), and
    /// the replay's last.
    fn sampled(n: u64) -> u64 {
        n.div_ceil(smrseek_obs::phase::SAMPLE_INTERVAL)
    }

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
                        served: Duration::ZERO,
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
                        served: Duration::ZERO,
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
        // Every replay accounts its phases, surfaced per cell through
        // RunMetrics and merged across the matrix. Serialized reports stay
        // unaffected (asserted separately in the engine's byte-identity
        // tests).
        use smrseek_obs::Phase;
        let source = TraceSource::from_records("burst", burst(400));
        let outcomes = RunMatrix::cross(&[source], &[SimConfig::no_ls(), SimConfig::ls_cache()])
            .execute(two());
        let stats = MatrixStats::from_outcomes(&outcomes);
        let totals = stats.phase_totals();
        for o in &outcomes {
            let phases = o.metrics.phases;
            // The phases are timed on the sampled records only.
            assert_eq!(phases.calls(Phase::Lookup), sampled(400), "{}", o.label);
            assert_eq!(phases.calls(Phase::Seek), sampled(400), "{}", o.label);
        }
        assert!(totals.nanos(Phase::Lookup) > 0);
        assert!(totals.nanos(Phase::Seek) > 0);
        assert_eq!(totals.calls(Phase::Lookup), 2 * sampled(400));
        // A replay shorter than the sample interval still times its last
        // record.
        let short = RunMatrix::cross(
            &[TraceSource::from_records("burst", burst(5))],
            &[SimConfig::no_ls()],
        )
        .execute(NonZeroUsize::MIN);
        assert_eq!(short[0].metrics.phases.calls(Phase::Lookup), 1);
        assert!(short[0].metrics.phases.nanos(Phase::Lookup) > 0);
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
        let board = LaneBoard::new(0);
        let mut replay = Simulation::replay_group(&configs, &[], &(source.supply)(), &board, None);
        replay.served = Duration::from_nanos(77);
        let phases = replay.phases;
        let wall = Duration::from_nanos(1_000_000_007);
        let outcomes = lane_outcomes(&refs, replay, wall, 5_000, 42);
        let n = outcomes.len() as u32;
        let summed: Duration = outcomes.iter().map(|o| o.metrics.wall).sum();
        assert!(summed <= wall && wall - summed < Duration::from_nanos(u64::from(n)));
        for (k, o) in outcomes.iter().enumerate() {
            assert_eq!(o.metrics.tid, 42);
            assert_eq!(o.metrics.wall, wall / n);
            let lane_ns = (wall / n).as_nanos() as u64;
            assert_eq!(o.metrics.start_unix_ns, 5_000 + k as u64 * lane_ns);
            assert_eq!(o.metrics.phases, phases.share(k, n as usize));
        }
        let served: Vec<Duration> = outcomes.iter().map(|o| o.metrics.served).collect();
        assert_eq!(
            served,
            [Duration::ZERO, Duration::ZERO, Duration::from_nanos(77)],
            "the serve time rides on the group's last cell"
        );
    }

    #[test]
    fn grouped_phases_count_each_block_once() {
        let source = TraceSource::from_records("mixed", mixed(10_000));
        let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
        let groups = matrix.groups(two());
        assert_eq!(groups.len(), 3);
        let start = Instant::now();
        let outcomes = matrix.execute(two());
        let elapsed = start.elapsed();
        let totals = MatrixStats::from_outcomes(&outcomes).phase_totals();
        // Each of the three groups times its sampled records once, not
        // once per cell; on two threads LS+cache splits off, and its lanes
        // time them once more in the LS group.
        assert_eq!(
            totals.calls(smrseek_obs::Phase::Lookup),
            (3 + 1) * sampled(10_000)
        );
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
        use smrseek_obs::Phase;
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        let source = TraceSource::from_records("mixed", mixed(10_000));
        let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
        // The same three groups on one, two and three threads; on two and
        // three, {LS, LS+prefetch, LS+cache} splits LS+cache off.
        let inline = matrix.plan(NonZeroUsize::MIN);
        assert_eq!(inline[1], (vec![1, 3, 4], vec![]));
        for threads in [2, 3] {
            assert_eq!(matrix.plan(n(threads))[1], (vec![1, 3, 4], vec![2]));
        }
        for threads in [1usize, 2, 3] {
            let outcomes = matrix.execute(n(threads));
            let calls = |cells: &[usize], phase: Phase| -> u64 {
                cells
                    .iter()
                    .map(|&i| outcomes[i].metrics.phases.calls(phase))
                    .sum()
            };
            // Each group's step times one lookup and one seek interval
            // per sampled record; the split lanes, whichever worker
            // serves them, time one more of each per sampled record, and
            // those land in the group's totals.
            let served = u64::from(threads > 1);
            for (cells, intervals) in [(&[0][..], 1), (&[1, 3, 4], 1 + served), (&[2], 1)] {
                for phase in [Phase::Lookup, Phase::Seek] {
                    assert_eq!(
                        calls(cells, phase),
                        intervals * sampled(10_000),
                        "{threads} threads, cells {cells:?}, {phase:?}"
                    );
                }
            }
        }
    }

    /// Runs `f` on a thread of its own and returns what it returns, or
    /// resumes its panic; fails the test if it runs past `limit` (a
    /// matrix that hangs leaves its threads behind, not the test).
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        let Ok(result) = rx.recv_timeout(limit) else {
            panic!("the matrix did not finish within {limit:?}");
        };
        runner.join().expect("the runner thread caught every panic");
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    fn report_json(outcomes: &[RunOutcome]) -> Vec<String> {
        outcomes
            .iter()
            .map(|o| serde_json::to_string(&o.report).expect("report serializes"))
            .collect()
    }

    #[test]
    fn a_split_group_serves_itself_while_the_other_workers_are_busy() {
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        let records = Arc::new(mixed(20_000));
        let configs = [
            SimConfig::log_structured(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
        ];
        let alone: Vec<String> = configs
            .iter()
            .map(|c| {
                let report = Simulation::new(c).run_trace(&records);
                serde_json::to_string(&report).expect("report serializes")
            })
            .collect();
        for threads in [2usize, 3] {
            // The group's supply marks it started; every other worker's
            // supply then blocks until the group has finished, so no
            // other worker serves a block of it.
            let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let idle_count = Arc::new(AtomicUsize::new(usize::MAX));
            let group = {
                let (records, started) = (Arc::clone(&records), Arc::clone(&started));
                TraceSource::new("group", move || {
                    let held = Arc::clone(&records);
                    started.store(true, Ordering::SeqCst);
                    held
                })
            };
            let busy = |k: usize| {
                let (records, started) = (Arc::clone(&records), Arc::clone(&started));
                let idle_count = Arc::clone(&idle_count);
                TraceSource::new(format!("busy{k}"), move || {
                    while !started.load(Ordering::SeqCst)
                        || Arc::strong_count(&records) > idle_count.load(Ordering::SeqCst)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Arc::new(burst(10))
                })
            };
            let mut matrix = RunMatrix::new();
            for k in 1..threads {
                matrix.push(RunCell::new(busy(k), SimConfig::no_ls()));
            }
            for config in configs {
                matrix.push(RunCell::new(group.clone(), config));
            }
            let plan = matrix.plan(n(threads));
            assert_eq!(plan.len(), threads, "one work item per worker");
            assert_eq!(
                plan[threads - 1].1,
                vec![2],
                "the group splits LS+cache off"
            );
            // Every handle to the records but the runner's own.
            idle_count.store(Arc::strong_count(&records), Ordering::SeqCst);
            let outcomes = within(Duration::from_secs(120), move || matrix.execute(n(threads)));
            assert_eq!(
                report_json(&outcomes[threads - 1..]),
                alone,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn two_split_groups_match_serial_replay() {
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        let sources = [
            TraceSource::from_records("a", mixed(12_000)),
            TraceSource::from_records("b", burst(9_000)),
        ];
        let configs = [
            SimConfig::log_structured(),
            SimConfig::ls_cache(),
            SimConfig::ls_prefetch(),
        ];
        let matrix = RunMatrix::cross(&sources, &configs);
        let serial = report_json(&matrix.execute(NonZeroUsize::MIN));
        for threads in [2usize, 3] {
            let splits = matrix
                .plan(n(threads))
                .iter()
                .filter(|(_, split)| !split.is_empty())
                .count();
            assert_eq!(splits, 2, "{threads} threads");
            let m = matrix.clone();
            let split = within(Duration::from_secs(120), move || m.execute(n(threads)));
            assert_eq!(report_json(&split), serial, "{threads} threads");
        }
    }

    #[test]
    fn a_lane_panic_on_another_worker_fails_the_matrix() {
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        let group = TraceSource::from_records("group", mixed(40_000));
        let mut matrix = RunMatrix::new();
        for k in 0..2 {
            matrix.push(RunCell::new(
                TraceSource::from_records(format!("tiny{k}"), burst(10)),
                SimConfig::no_ls(),
            ));
        }
        matrix.push(RunCell::new(group.clone(), SimConfig::log_structured()));
        let faulty =
            SimConfig::ls_cache().with_longseek_series(crate::split::fault::FAULT_BUCKET_OPS);
        matrix.push(RunCell::new(group, faulty));
        for threads in [2usize, 3] {
            assert!(matrix.plan(n(threads)).iter().any(|(_, s)| !s.is_empty()));
            let m = matrix.clone();
            let result = within(Duration::from_secs(120), move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.execute(n(threads))))
            });
            let payload = result.expect_err("the lane's panic fails the matrix");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected lane fault"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn each_source_is_built_once_per_execute() {
        use std::sync::Weak;
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        // Six generated sources, each counting its builds; every build is
        // a fresh trace whose liveness a `Weak` tracks.
        let live: Arc<Mutex<Vec<Weak<Vec<TraceRecord>>>>> = Arc::default();
        let most = Arc::new(AtomicUsize::new(0));
        let builds: Vec<Arc<AtomicUsize>> = (0..6).map(|_| Arc::default()).collect();
        let sources: Vec<TraceSource> = builds
            .iter()
            .enumerate()
            .map(|(k, count)| {
                let (count, live, most) = (Arc::clone(count), Arc::clone(&live), Arc::clone(&most));
                TraceSource::new(format!("s{k}"), move || {
                    count.fetch_add(1, Ordering::SeqCst);
                    let records = Arc::new(mixed(2_000 + 100 * k as u64));
                    let mut live = live.lock().expect("live list");
                    live.retain(|w| w.strong_count() > 0);
                    live.push(Arc::downgrade(&records));
                    most.fetch_max(live.len(), Ordering::SeqCst);
                    records
                })
            })
            .collect();
        let matrix = RunMatrix::cross(&sources, &SimConfig::standard_sweep());
        let serial = report_json(&matrix.execute(NonZeroUsize::MIN));
        for threads in [1usize, 2, 3] {
            for count in &builds {
                count.store(0, Ordering::SeqCst);
            }
            most.store(0, Ordering::SeqCst);
            let groups = matrix.groups(n(threads)).len();
            assert!(groups > sources.len(), "sources replay in several groups");
            let outcomes = matrix.execute(n(threads));
            assert_eq!(report_json(&outcomes), serial, "{threads} threads");
            for (k, count) in builds.iter().enumerate() {
                assert_eq!(count.load(Ordering::SeqCst), 1, "s{k}, {threads} threads");
            }
            let live = live.lock().expect("live list");
            assert!(
                live.iter().all(|w| w.strong_count() == 0),
                "a trace outlived execute on {threads} threads"
            );
            let most = most.load(Ordering::SeqCst);
            assert!(
                most <= threads + 1,
                "{most} traces at once on {threads} threads"
            );
        }
    }

    #[test]
    fn a_supply_panic_fails_the_matrix_with_its_own_payload() {
        let n = |t: usize| NonZeroUsize::new(t).expect("nonzero");
        let broken = TraceSource::new("broken", || -> Arc<Vec<TraceRecord>> {
            std::panic::panic_any("injected supply fault")
        });
        let matrix = RunMatrix::cross(&[broken], &SimConfig::standard_sweep());
        for threads in [1usize, 2, 3] {
            let m = matrix.clone();
            let result = within(Duration::from_secs(120), move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.execute(n(threads))))
            });
            let payload = result.expect_err("the supply's panic fails the matrix");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected supply fault"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn cells_can_be_labeled() {
        let source = TraceSource::from_records("t", burst(10));
        let cell = RunCell::new(source, SimConfig::no_ls()).with_label("t/NoLS");
        assert_eq!(cell.label, "t/NoLS");
    }
}
