//! The worker pool: pulls jobs off the table and replays them through
//! [`smrseek_sim::runner`].
//!
//! Workers are plain OS threads blocked on the job table's condvar; each
//! job replays on the shared [`RunMatrix`] machinery, so a sweep job's
//! five layer configurations fan out across the run's `job_threads` via
//! the same `parallel_map` the CLI uses — the daemon adds queueing and
//! caching, never a second execution path (that is what keeps its results
//! byte-identical to offline runs). Its replays run as fast as offline
//! ones too: every replay times the same sample of records for its phase
//! totals, which workers fold into `/metrics` and the job's SSE `phases`
//! frame.

use crate::jobs::JobTable;
use crate::metrics::Metrics;
use smrseek_cache::TierStats;
use smrseek_obs::{DistSpan, PhaseTotals, SpanStore};
use smrseek_policy::PolicyStats;
use smrseek_sim::runner::RunMatrix;
use smrseek_sim::{saf, SimConfig, TraceSource};
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a job computes.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// The standard five-layer sweep; the result document is the
    /// `Vec<(layer, Saf)>` JSON that `smrseek simulate --json` writes.
    Sweep,
    /// One configuration; the result document is its full `RunReport`.
    /// Boxed so the queued-job footprint is one pointer, not a whole
    /// `SimConfig`, which dwarfs the dataless `Sweep` variant.
    Single(Box<SimConfig>),
}

/// A resolved, ready-to-run job: the trace source is already loaded (and
/// for file traces, shared through the registry's single mapping).
#[derive(Debug, Clone)]
pub struct JobWork {
    /// The records to replay.
    pub source: TraceSource,
    /// What to compute over them.
    pub kind: JobKind,
    /// Unread. A compatibility shim like `smrseek_sim::ShardPolicy`: the
    /// benchmark harness under `perfbench/` still builds
    /// `JobWork { source, kind, digest: None }`, so the field stays until
    /// the next change to the benchmark drops it.
    pub digest: Option<smrseek_trace::TraceDigest>,
}

/// Uninhabited compatibility shim for [`run_job`]'s third parameter, like
/// `smrseek_sim::ShardPolicy`: the benchmark harness under `perfbench/`
/// still calls `run_job(&work, threads, None)`. The type has no values,
/// so `None` is the only argument; the next change to the benchmark
/// removes the parameter and this type.
#[derive(Debug, Clone, Copy)]
pub enum CheckpointPolicy {}

/// A finished job's payload: the result document plus replay accounting.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Result document (pretty JSON, byte-stable for a trace + config).
    pub doc: String,
    /// Logical records the job accounts for (full trace length per cell).
    pub records: u64,
    /// Engine phase timing merged across the job's cells, estimated from
    /// the records of the phase sample ([`smrseek_obs::phase`]).
    pub phases: PhaseTotals,
    /// Adaptive-policy decision counters merged across the job's cells
    /// (all zero for jobs without a policy config).
    pub policy: PolicyStats,
    /// Multi-level cache counters merged across the job's cells (all zero
    /// without a flash tier).
    pub tiers: TierStats,
}

/// Replays one job on up to `threads` workers. The third parameter is
/// the uninhabited [`CheckpointPolicy`] shim; pass `None`.
///
/// # Errors
///
/// Serialization failures (e.g. a non-finite float in a report) surface
/// as the job's failure message.
pub fn run_job(
    work: &JobWork,
    threads: NonZeroUsize,
    _: Option<&CheckpointPolicy>,
) -> Result<JobOutcome, String> {
    let configs: Vec<SimConfig> = match &work.kind {
        JobKind::Sweep => SimConfig::standard_sweep().to_vec(),
        JobKind::Single(config) => vec![**config],
    };
    let outcomes = RunMatrix::cross(std::slice::from_ref(&work.source), &configs).execute(threads);
    let records = outcomes.iter().map(|o| o.metrics.records).sum();
    let mut phases = PhaseTotals::default();
    let mut policy_stats = PolicyStats::default();
    let mut tiers = TierStats::default();
    for outcome in &outcomes {
        phases.merge(&outcome.metrics.phases);
        if let Some(p) = &outcome.report.policy {
            policy_stats.merge(p);
        }
        if let Some(t) = &outcome.report.cache_tiers {
            tiers.merge(t);
        }
    }
    let doc = match &work.kind {
        JobKind::Sweep => serde_json::to_string_pretty(&saf::sweep_safs(&outcomes)),
        JobKind::Single(_) => serde_json::to_string_pretty(&outcomes[0].report),
    };
    doc.map(|doc| JobOutcome {
        doc,
        records,
        phases,
        policy: policy_stats,
        tiers,
    })
    .map_err(|e| format!("cannot serialize result: {e}"))
}

/// [`run_job`] with any panic inside it turned into the job's failure
/// message, so a replay defect fails one job instead of ending the worker
/// thread (and stalling every job queued behind it). Asserting unwind
/// safety holds because a job shares nothing mutable with later jobs: its
/// trace is read-only and its engine state is dropped with the panic.
fn run_job_contained(work: &JobWork, threads: NonZeroUsize) -> Result<JobOutcome, String> {
    panic::catch_unwind(AssertUnwindSafe(|| run_job(work, threads, None)))
        .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_message(&*payload))))
}

/// The text of a panic payload: `panic!` with a literal carries a
/// `&str`, with format arguments a `String`.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        msg
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg
    } else {
        "non-string panic payload"
    }
}

/// Records the `queue` span of one dequeued job (submission to dequeue —
/// jobs that sat behind a deep queue show it here, not as mysteriously
/// slow replays) and returns its open `replay` span (the engine run
/// itself), both children of the owner's `dispatch` span.
fn record_job_spans(spans: &SpanStore, jobs: &JobTable, id: crate::jobs::JobId) -> DistSpan {
    let (trace, request_id) = jobs.job_trace(id).expect("a dequeued job is in the table");
    let dequeued = smrseek_obs::unix_nanos();
    let queue = trace.parent.child();
    spans.record(DistSpan {
        trace_id: trace.parent.trace_id,
        span_id: queue.span_id,
        parent_span_id: Some(trace.parent.span_id),
        name: "queue".to_owned(),
        request_id: request_id.clone(),
        start_unix_ns: trace.queued_unix_ns,
        dur_ns: dequeued.saturating_sub(trace.queued_unix_ns),
        pid: std::process::id(),
        tid: smrseek_obs::current_tid(),
    });
    let replay = trace.parent.child();
    DistSpan {
        trace_id: trace.parent.trace_id,
        span_id: replay.span_id,
        parent_span_id: Some(trace.parent.span_id),
        name: "replay".to_owned(),
        request_id,
        start_unix_ns: dequeued,
        dur_ns: 0,
        pid: std::process::id(),
        tid: smrseek_obs::current_tid(),
    }
}

/// Spawns `count` worker threads draining `jobs` until shutdown.
pub fn spawn_workers(
    count: usize,
    jobs: Arc<JobTable>,
    metrics: Arc<Metrics>,
    spans: Arc<SpanStore>,
    threads: NonZeroUsize,
) -> Vec<JoinHandle<()>> {
    (0..count)
        .map(|i| {
            let jobs = Arc::clone(&jobs);
            let metrics = Arc::clone(&metrics);
            let spans = Arc::clone(&spans);
            std::thread::Builder::new()
                .name(format!("smrseekd-worker-{i}"))
                .spawn(move || {
                    while let Some((id, work)) = jobs.next_job() {
                        let mut replay = record_job_spans(&spans, &jobs, id);
                        let outcome = run_job_contained(&work, threads);
                        replay.dur_ns =
                            smrseek_obs::unix_nanos().saturating_sub(replay.start_unix_ns);
                        spans.record(replay);
                        if let Ok(out) = &outcome {
                            metrics.replayed(out.records);
                            metrics.engine_phases(&out.phases);
                            metrics.policy_stats(&out.policy);
                            metrics.tier_stats(&out.tiers);
                            jobs.publish_phases(id, &out.phases);
                        }
                        jobs.complete(id, outcome.map(|out| out.doc));
                    }
                })
                .expect("worker thread spawns")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::{Lba, TraceRecord};

    fn source() -> TraceSource {
        let records: Vec<TraceRecord> = (0..300u64)
            .map(|i| {
                if i % 4 == 0 {
                    TraceRecord::read(i, Lba::new((i * 131) % 4096 * 8), 8)
                } else {
                    TraceRecord::write(i, Lba::new((i * 37) % 4096 * 8), 8)
                }
            })
            .collect();
        TraceSource::from_records("t", records)
    }

    #[test]
    fn sweep_job_matches_offline_sweep_bytes() {
        let work = JobWork {
            source: source(),
            kind: JobKind::Sweep,
            digest: None,
        };
        let out = run_job(&work, NonZeroUsize::MIN, None).expect("job runs");
        assert_eq!(out.records, 300 * 5, "five layers each replay the trace");
        // The offline path: exactly what the CLI writes for --json.
        let matrix = RunMatrix::cross(
            std::slice::from_ref(&work.source),
            &SimConfig::standard_sweep(),
        );
        let offline = serde_json::to_string_pretty(&saf::sweep_safs(
            &matrix.execute(NonZeroUsize::new(4).expect("nonzero")),
        ))
        .expect("serializes");
        assert_eq!(
            out.doc, offline,
            "daemon and offline sweeps are byte-identical"
        );
    }

    #[test]
    fn single_job_returns_full_report() {
        let work = JobWork {
            source: source(),
            kind: JobKind::Single(Box::new(SimConfig::ls_cache().with_distances())),
            digest: None,
        };
        let out = run_job(&work, NonZeroUsize::MIN, None).expect("job runs");
        let (doc, records) = (out.doc, out.records);
        assert_eq!(records, 300);
        let value: serde::Value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(
            value.get("layer_name").and_then(serde::Value::as_str),
            Some("LS+cache")
        );
        assert!(value.get("seeks").is_some());
        assert!(
            !value["distances"].is_null(),
            "with_distances carries through"
        );
    }

    #[test]
    fn pool_drains_jobs_and_counts_records() {
        let jobs = Arc::new(JobTable::new(8));
        let metrics = Arc::new(Metrics::new());
        let ids: Vec<_> = (0..3)
            .map(|i| {
                match crate::jobs::tests::submit(
                    &jobs,
                    &format!("k{i}"),
                    JobWork {
                        source: source(),
                        kind: JobKind::Single(Box::new(SimConfig::no_ls())),
                        digest: None,
                    },
                    &format!("rq-{i}"),
                ) {
                    crate::jobs::Submit::Queued(id) => id,
                    other => panic!("expected queue, got {other:?}"),
                }
            })
            .collect();
        let workers = spawn_workers(
            2,
            Arc::clone(&jobs),
            Arc::clone(&metrics),
            Arc::new(SpanStore::new(8)),
            NonZeroUsize::MIN,
        );
        // Poll until all three finish (workers run them concurrently).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let done = ids
                .iter()
                .all(|&id| jobs.status(id).expect("known").state == crate::jobs::JobState::Done);
            if done {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "jobs finished in time"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        jobs.shutdown();
        for worker in workers {
            worker.join().expect("worker exits cleanly");
        }
        assert_eq!(metrics.replayed_total(), 900);
    }

    /// Polls `id` until it leaves `queued`/`running`, or fails the test.
    fn wait_terminal(jobs: &JobTable, id: crate::jobs::JobId) -> crate::jobs::JobStatus {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let status = jobs.status(id).expect("known job");
            if matches!(
                status.state,
                crate::jobs::JobState::Done | crate::jobs::JobState::Failed
            ) {
                return status;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job {id:?} stuck in {:?}",
                status.state
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn panicking_job_fails_and_frees_its_worker() {
        // A zero-sector policy region makes `PolicyEngine::new` panic
        // mid-replay. The API's `SimConfig::validate` refuses it, so only a hand-built
        // config reaches a worker this way.
        let broken = SimConfig::ls_adaptive().with_policy(smrseek_policy::PolicyConfig {
            region_sectors: 0,
            ..smrseek_policy::PolicyConfig::default()
        });
        let jobs = Arc::new(JobTable::new(8));
        let submit = |key: &str, config: SimConfig| match crate::jobs::tests::submit(
            &jobs,
            key,
            JobWork {
                source: source(),
                kind: JobKind::Single(Box::new(config)),
                digest: None,
            },
            &format!("rq-{key}"),
        ) {
            crate::jobs::Submit::Queued(id) => id,
            other => panic!("expected queue, got {other:?}"),
        };
        let bad = submit("bad", broken);
        let good = submit("good", SimConfig::ls_cache());
        let workers = spawn_workers(
            1,
            Arc::clone(&jobs),
            Arc::new(Metrics::new()),
            Arc::new(SpanStore::new(8)),
            NonZeroUsize::MIN,
        );
        let failed = wait_terminal(&jobs, bad);
        assert_eq!(failed.state, crate::jobs::JobState::Failed);
        let error = failed.error.expect("failure message");
        assert!(error.starts_with("job panicked: "), "{error}");
        assert!(error.contains("region_sectors"), "{error}");
        let events = jobs.events(bad).expect("known job");
        assert!(events.is_closed(), "the failed stream is terminated");
        let frames = String::from_utf8(events.collected()).expect("UTF-8 frames");
        assert!(frames.contains("event: failed"), "{frames}");
        let done = wait_terminal(&jobs, good);
        assert_eq!(done.state, crate::jobs::JobState::Done);
        let snapshot = jobs.snapshot();
        assert_eq!((snapshot.failed, snapshot.done), (1, 1));
        jobs.shutdown();
        for worker in workers {
            worker.join().expect("worker exits cleanly");
        }
    }
}
