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
//! Determinism: results come back in cell order regardless of the thread
//! count, and every cell regenerates its trace from a named, repeatable
//! [`TraceSource`] — so reports (and any JSON derived from them) are
//! byte-identical whether the matrix runs on one worker or sixteen. Only
//! the timing side-channel ([`RunMetrics`]) varies between runs, which is
//! why it lives next to, never inside, the serialized reports.

#![deny(clippy::unwrap_used)]

use crate::checkpoint::{checkpoint_config_key, CheckpointStore};
use crate::engine::{BlockTrace, EngineSnapshot, LayerChoice, RunReport, SimConfig, Simulation};
use crate::experiments::ExpOptions;
use smrseek_obs::{span_with, PhaseTotals};
use smrseek_trace::binary::{MmapTrace, DEFAULT_BLOCK_RECORDS};
use smrseek_trace::TraceRecord;
use smrseek_workloads::profiles::Profile;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a [`TraceSource`] produces its records.
#[derive(Clone)]
enum Supply {
    /// A repeatable generator; each cell regenerates (or clones an Arc of)
    /// the trace on the worker that runs it.
    Generate(Arc<dyn Fn() -> Arc<Vec<TraceRecord>> + Send + Sync>),
    /// One shared read-only mapping of a binary trace file; every cell
    /// replays straight off the mapped pages with zero parse cost.
    /// `top` caches the frontier hint (from the v2 header when present).
    Mapped { map: Arc<MmapTrace>, top: u64 },
}

/// A named, repeatable source of trace records.
///
/// Generator-backed cells regenerate their trace on the worker that runs
/// them (sharing one materialized trace across threads would serialize on
/// it and pin the whole matrix's memory high-water mark at once);
/// repeatability is what keeps the matrix deterministic under any
/// scheduling. Mmap-backed sources ([`TraceSource::from_mmap`]) instead
/// share a single read-only mapping across every cell: the kernel page
/// cache holds one copy of the trace no matter how many workers replay it.
#[derive(Clone)]
pub struct TraceSource {
    name: String,
    supply: Supply,
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
    pub fn new(
        name: impl Into<String>,
        supply: impl Fn() -> Arc<Vec<TraceRecord>> + Send + Sync + 'static,
    ) -> Self {
        TraceSource {
            name: name.into(),
            supply: Supply::Generate(Arc::new(supply)),
        }
    }

    /// A source backed by one shared read-only mapping of a binary trace:
    /// every cell replaying it decodes records zero-copy from the same
    /// pages, so a huge trace replays N times with zero parse cost. The
    /// frontier hint comes from the v2 header when present (one scan of
    /// the mapping otherwise, paid once here).
    pub fn from_mmap(name: impl Into<String>, map: Arc<MmapTrace>) -> Self {
        let top = map.top_sector();
        TraceSource {
            name: name.into(),
            supply: Supply::Mapped { map, top },
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

    /// The stable content digest of this source's records — the identity
    /// the daemon's result cache keys on. Mmap-backed sources stream off
    /// the mapping; generator-backed sources materialize once here, so
    /// callers should cache the digest (see
    /// [`tracecache::TraceRegistry`](crate::tracecache::TraceRegistry)).
    pub fn digest(&self) -> smrseek_trace::TraceDigest {
        match &self.supply {
            Supply::Generate(f) => smrseek_trace::digest::digest_records(&f()),
            Supply::Mapped { map, .. } => smrseek_trace::digest::digest_iter(map.iter()),
        }
    }

    /// One past the highest sector the records touch — the LS frontier
    /// hint. Cached from the v2 header for mmap-backed sources; computed
    /// from a materialized pass for generator-backed ones.
    pub fn top_sector(&self) -> u64 {
        match &self.supply {
            Supply::Generate(f) => smrseek_trace::binary::top_sector(&f()),
            Supply::Mapped { top, .. } => *top,
        }
    }

    /// Produces the records. Mmap-backed sources materialize a fresh
    /// `Vec` here — replay paths that can stream should go through
    /// [`RunMatrix::execute`], which decodes straight off the mapping.
    pub fn records(&self) -> Arc<Vec<TraceRecord>> {
        match &self.supply {
            Supply::Generate(f) => f(),
            Supply::Mapped { map, .. } => Arc::new(map.iter().collect()),
        }
    }

    /// Replays this source through `config`, decoding in blocks straight
    /// off the mapping for mmap-backed sources (the frontier hint filled
    /// from the cached `top_sector`) and materializing for
    /// generator-backed ones.
    fn replay(&self, config: &SimConfig) -> (RunReport, Duration) {
        match &self.supply {
            Supply::Generate(f) => {
                let records = f();
                let start = Instant::now();
                let report = Simulation::new(config).run_trace(&**records);
                (report, start.elapsed())
            }
            Supply::Mapped { map, top } => {
                let config = match config.layer {
                    LayerChoice::Ls { .. } if config.frontier_hint.is_none() => {
                        config.with_frontier_hint(*top)
                    }
                    _ => *config,
                };
                let start = Instant::now();
                let report = Simulation::new(&config).run_trace(&**map);
                (report, start.elapsed())
            }
        }
    }

    /// Like `replay`, but resumable: when `resume_from` is set the
    /// already-consumed prefix (`resume_from.logical_ops` records) is
    /// skipped and the engine restored from the snapshot, and checkpoints
    /// are emitted through `emit` on the config's
    /// [`SimConfig::with_checkpoint_every`] cadence. The returned report
    /// is byte-identical to a cold `replay` of the same cell.
    ///
    /// Mmap-backed sources skip by seeking the mapping (no prefix decode);
    /// generator-backed sources regenerate and slice.
    pub fn replay_checkpointed(
        &self,
        config: &SimConfig,
        resume_from: Option<&EngineSnapshot>,
        emit: impl FnMut(&EngineSnapshot),
    ) -> (RunReport, Duration) {
        let skip = resume_from.map_or(0, |s| s.logical_ops) as usize;
        let simulation = |config: &SimConfig| {
            let sim = Simulation::new(config).checkpoint_sink(emit);
            match resume_from {
                Some(snap) => sim.resume_from(snap),
                None => sim,
            }
        };
        match &self.supply {
            Supply::Generate(f) => {
                let records = f();
                let config = match config.layer {
                    LayerChoice::Ls { .. } if config.frontier_hint.is_none() => {
                        config.with_frontier_hint(smrseek_trace::binary::top_sector(&records))
                    }
                    _ => *config,
                };
                let remaining = &records[skip.min(records.len())..];
                let start = Instant::now();
                let report = simulation(&config).run_trace(remaining);
                (report, start.elapsed())
            }
            Supply::Mapped { map, top } => {
                let config = match config.layer {
                    LayerChoice::Ls { .. } if config.frontier_hint.is_none() => {
                        config.with_frontier_hint(*top)
                    }
                    _ => *config,
                };
                let suffix = MappedSuffix {
                    map,
                    skip: skip.min(map.len()),
                };
                let start = Instant::now();
                let report = simulation(&config).run_trace(&suffix);
                (report, start.elapsed())
            }
        }
    }
}

/// The records of a mapping from `skip` onward, as a [`BlockTrace`]:
/// what a resumed mmap-backed replay hands the engine — the suffix is
/// read without decoding the consumed prefix.
struct MappedSuffix<'a> {
    map: &'a MmapTrace,
    skip: usize,
}

impl BlockTrace for MappedSuffix<'_> {
    fn frontier_top(&self) -> u64 {
        self.map.top_sector()
    }

    fn for_each_block(&self, f: &mut dyn FnMut(&[TraceRecord])) {
        let mut blocks = self
            .map
            .blocks_range(self.skip, self.map.len(), DEFAULT_BLOCK_RECORDS);
        while let Some(block) = blocks.next_block() {
            f(block);
        }
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
    /// Wall time of the replay (excluding trace generation).
    pub wall: Duration,
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
    /// Pairs `cell`'s report with the metrics of a replay that took `wall`.
    fn new(cell: &RunCell, report: RunReport, wall: Duration) -> Self {
        let metrics = RunMetrics {
            wall,
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
    /// the outcomes *in cell order* — the thread count changes wall time,
    /// never results. Each cell replays serially on one worker.
    pub fn execute(&self, threads: NonZeroUsize) -> Vec<RunOutcome> {
        parallel_map(&self.cells, threads, |cell| {
            let _span = span_with(|| format!("cell:{}", cell.label));
            let (report, wall) = cell.source.replay(&cell.config);
            RunOutcome::new(cell, report, wall)
        })
    }

    /// [`execute`](Self::execute); the policy is ignored (see
    /// [`ShardPolicy`]).
    pub fn execute_with(&self, threads: NonZeroUsize, _policy: ShardPolicy) -> Vec<RunOutcome> {
        self.execute(threads)
    }

    /// Like [`execute`](Self::execute), but checkpoint-aware: each cell
    /// first probes `store` for a checkpoint of (`trace_digest` × its
    /// canonical config key) and resumes from it on a hit, and — when its
    /// config sets [`SimConfig::with_checkpoint_every`] — saves fresh
    /// checkpoints back as the replay advances. Reports stay byte-identical
    /// to [`execute`](Self::execute); only wall time changes. A store file
    /// that fails to load (corrupt, foreign, torn) is treated as a miss —
    /// cache damage degrades performance, never results.
    ///
    /// `trace_digest` must be the full-trace digest of every cell's source
    /// (callers run matrices over a single source; pass
    /// `source.digest().as_u128()`).
    pub fn execute_checkpointed(
        &self,
        threads: NonZeroUsize,
        store: &CheckpointStore,
        trace_digest: u128,
    ) -> (Vec<RunOutcome>, CheckpointUsage) {
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let skipped = AtomicU64::new(0);
        let outcomes = parallel_map(&self.cells, threads, |cell| {
            let _span = span_with(|| format!("cell:{}", cell.label));
            let key = checkpoint_config_key(&cell.config, cell.source.top_sector());
            let snap = match store.load(trace_digest, &key) {
                Ok(Some(snap)) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    skipped.fetch_add(snap.logical_ops, Ordering::Relaxed);
                    Some(snap)
                }
                Ok(None) | Err(_) => {
                    misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
            let (report, wall) =
                cell.source
                    .replay_checkpointed(&cell.config, snap.as_ref(), |snapshot| {
                        // Save failures are non-fatal: a checkpoint is an
                        // optimization, the replay's own result stands.
                        store.save(trace_digest, &key, snapshot).ok();
                    });
            RunOutcome::new(cell, report, wall)
        });
        (
            outcomes,
            CheckpointUsage {
                hits: hits.into_inner(),
                misses: misses.into_inner(),
                records_skipped: skipped.into_inner(),
            },
        )
    }
}

/// How much work the checkpoint store saved during one
/// [`RunMatrix::execute_checkpointed`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointUsage {
    /// Cells that resumed from a stored checkpoint.
    pub hits: u64,
    /// Cells that replayed from record zero.
    pub misses: u64,
    /// Records skipped by resuming (summed over hit cells).
    pub records_skipped: u64,
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
/// cell replays serially and parallelism lives across cells, so there is
/// no thread split left to choose. This one-variant enum exists only
/// because the benchmark harness under `perfbench/` still calls
/// `execute_with(threads, ShardPolicy::Auto)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// The only policy: cells in parallel, each replayed serially.
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
                        records: 600,
                        peak_extent_segments: 3,
                        phases: PhaseTotals::default(),
                    },
                ),
                (
                    "b".into(),
                    RunMetrics {
                        wall: Duration::from_secs(1),
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
    fn mmap_source_matches_generated_source() {
        use smrseek_trace::binary::{write_binary_v2, MmapTrace};

        let records = burst(1500);
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &records).expect("vec write");
        let map = Arc::new(MmapTrace::from_bytes(buf).expect("own output maps"));
        let mapped = TraceSource::from_mmap("burst", Arc::clone(&map));
        let generated = TraceSource::from_records("burst", records.clone());
        assert_eq!(*mapped.records(), records, "records() materializes");

        let configs = [
            SimConfig::no_ls(),
            SimConfig::log_structured(),
            SimConfig::ls_cache(),
        ];
        let via_map = RunMatrix::cross(&[mapped], &configs).execute(two());
        let via_gen = RunMatrix::cross(&[generated], &configs).execute(two());
        for (a, b) in via_map.iter().zip(&via_gen) {
            assert_eq!(a.report.layer_name, b.report.layer_name);
            assert_eq!(a.report.seeks, b.report.seeks);
            assert_eq!(a.report.phys_sectors, b.report.phys_sectors);
            assert_eq!(a.report.logical_ops, b.report.logical_ops);
            assert_eq!(a.report.peak_extent_segments, b.report.peak_extent_segments);
        }
    }

    #[test]
    fn digest_and_top_are_supply_invariant() {
        use smrseek_trace::binary::{top_sector, write_binary_v2, MmapTrace};

        let records = burst(300);
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &records).expect("vec write");
        let map = Arc::new(MmapTrace::from_bytes(buf).expect("own output maps"));
        let mapped = TraceSource::from_mmap("burst", map);
        let generated = TraceSource::from_records("burst", records.clone());
        assert_eq!(mapped.digest(), generated.digest());
        assert_eq!(mapped.top_sector(), generated.top_sector());
        assert_eq!(generated.top_sector(), top_sector(&records));

        let other = TraceSource::from_records("other", burst(301));
        assert_ne!(other.digest(), generated.digest());
    }

    #[test]
    fn checkpointed_execution_is_result_invariant() {
        use smrseek_trace::binary::{write_binary_v2, MmapTrace};

        let records = burst(1200);
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &records).expect("vec write");
        let map = Arc::new(MmapTrace::from_bytes(buf).expect("own output maps"));
        let digest = smrseek_trace::digest::digest_records(&records).as_u128();

        let dir =
            std::env::temp_dir().join(format!("smrseek_runner_ckpt_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir);

        for source in [
            TraceSource::from_mmap("burst", Arc::clone(&map)),
            TraceSource::from_records("burst", records.clone()),
        ] {
            std::fs::remove_dir_all(&dir).ok();
            let configs: Vec<SimConfig> = SimConfig::standard_sweep()
                .iter()
                .map(|c| c.with_checkpoint_every(500))
                .collect();
            let matrix = RunMatrix::cross(&[source], &configs);
            let cold_plain = matrix.execute(NonZeroUsize::MIN);
            let (cold, usage) = matrix.execute_checkpointed(two(), &store, digest);
            assert_eq!(usage.hits, 0);
            assert_eq!(usage.misses, 5);
            assert_eq!(usage.records_skipped, 0);
            // Warm pass: every cell resumes from the final checkpoint
            // (record 1000, the last multiple of 500 within 1200 records).
            let (warm, usage) = matrix.execute_checkpointed(two(), &store, digest);
            assert_eq!(usage.hits, 5);
            assert_eq!(usage.misses, 0);
            assert_eq!(usage.records_skipped, 5 * 1000);
            for ((a, b), c) in cold.iter().zip(&warm).zip(&cold_plain) {
                for report in [&b.report, &c.report] {
                    assert_eq!(a.report.layer_name, report.layer_name);
                    assert_eq!(a.report.seeks, report.seeks);
                    assert_eq!(a.report.phys_sectors, report.phys_sectors);
                    assert_eq!(a.report.logical_ops, report.logical_ops);
                    assert_eq!(a.report.peak_extent_segments, report.peak_extent_segments);
                }
                assert_eq!(a.metrics.records, 1200, "records stays the full count");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
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
