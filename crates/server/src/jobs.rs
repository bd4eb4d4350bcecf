//! The job table: a bounded queue, per-job lifecycle, and the
//! content-addressed result cache.
//!
//! One mutex-protected table holds every job the daemon has ever accepted
//! this process, indexed both by id and by *cache key* (trace digest +
//! canonicalized config, see [`crate::api`]). Submitting a key that is
//! already present — queued, running, or done — returns the existing job
//! instead of enqueuing a duplicate: the dedup map IS the result cache,
//! and because the check happens under the same lock as insertion, N
//! concurrent submissions of one key yield exactly one miss and N−1 hits
//! no matter how the threads interleave.
//!
//! Backpressure is explicit: when `capacity` jobs are already waiting,
//! [`JobTable::submit`] refuses (the HTTP layer answers 503 +
//! `Retry-After`) rather than queueing unboundedly or blocking the
//! connection handler.

use crate::sse;
use crate::worker::JobWork;
use smrseek_net::EventStream;
use smrseek_obs::{PhaseTotals, TraceContext};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Job identifier, sequential from 1 within one daemon process.
pub type JobId = u64;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is replaying it.
    Running,
    /// Finished; the result document is available.
    Done,
    /// The replay failed; the error message is available.
    Failed,
}

impl JobState {
    /// Lower-case label used in the API and in metrics.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// All states, in lifecycle order (metrics iterate this).
    pub const ALL: [JobState; 4] = [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
    ];
}

/// Distributed-trace linkage a job carries from submission to replay: the
/// worker's `queue` and `replay` spans parent to the owner's `dispatch`
/// span through this.
#[derive(Debug, Clone, Copy)]
pub struct JobTrace {
    /// The creating request's trace id plus its `dispatch` span id (the
    /// parent of every span the worker records for this job).
    pub parent: TraceContext,
    /// Wall-clock submission time; the worker's `queue` span covers
    /// submit → dequeue.
    pub queued_unix_ns: u64,
}

struct Job {
    state: JobState,
    work: Arc<JobWork>,
    /// The finished result document (pretty JSON), shared so concurrent
    /// readers never copy it.
    result: Option<Arc<String>>,
    error: Option<String>,
    /// Request id of the submission that created the job, echoed in every
    /// status response so clients and the access log correlate.
    request_id: String,
    /// Trace linkage from the creating submission.
    trace: JobTrace,
    /// The job's progress log as pre-encoded SSE frames; closed after the
    /// terminal `done`/`failed` frame. Late subscribers replay history.
    events: Arc<EventStream>,
}

/// A point-in-time view of one job, as served by `GET /v1/jobs/<id>`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// The result document when [`JobState::Done`].
    pub result: Option<Arc<String>>,
    /// The failure message when [`JobState::Failed`].
    pub error: Option<String>,
    /// Request id of the submission that created the job.
    pub request_id: String,
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// New work accepted under this id (a cache miss).
    Queued(JobId),
    /// An identical job already exists (a cache hit) — poll this id.
    Existing(JobId),
    /// The queue is at capacity; retry later.
    Full,
}

#[derive(Default)]
struct Inner {
    jobs: HashMap<JobId, Job>,
    queue: VecDeque<JobId>,
    by_key: HashMap<String, JobId>,
    next_id: JobId,
    shutdown: bool,
}

/// Counts by state plus queue occupancy, for `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobSnapshot {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently replaying.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Current queue depth (equals `queued`).
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub capacity: usize,
}

impl JobSnapshot {
    /// The count for one state.
    pub fn count(&self, state: JobState) -> u64 {
        match state {
            JobState::Queued => self.queued,
            JobState::Running => self.running,
            JobState::Done => self.done,
            JobState::Failed => self.failed,
        }
    }
}

/// The shared job table. All daemon threads (connection handlers, the
/// worker pool, shutdown) coordinate exclusively through it.
pub struct JobTable {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl JobTable {
    /// A table accepting at most `capacity` queued (not yet running)
    /// jobs at a time.
    pub fn new(capacity: usize) -> Self {
        JobTable {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Submits work under a cache key. See [`Submit`] for the outcomes;
    /// the hit-or-miss decision and the enqueue are one critical section.
    /// `request_id` and `trace` (the distributed-trace linkage the
    /// worker's spans parent to) are retained on a miss, from the request
    /// that created the job; a cache hit joins the original job with its
    /// original id and trace.
    pub fn submit(
        &self,
        key: String,
        work: JobWork,
        request_id: String,
        trace: JobTrace,
    ) -> Submit {
        let mut inner = self.lock();
        if let Some(&id) = inner.by_key.get(&key) {
            return Submit::Existing(id);
        }
        if inner.queue.len() >= self.capacity {
            return Submit::Full;
        }
        inner.next_id += 1;
        let id = inner.next_id;
        let events = Arc::new(EventStream::new());
        events.append(&sse::encode_event(
            "queued",
            &sse::status_data(id, "queued", None),
        ));
        inner.jobs.insert(
            id,
            Job {
                state: JobState::Queued,
                work: Arc::new(work),
                result: None,
                error: None,
                request_id,
                trace,
                events,
            },
        );
        inner.queue.push_back(id);
        inner.by_key.insert(key, id);
        self.ready.notify_one();
        Submit::Queued(id)
    }

    /// Blocks until a job is available, marks it running, and returns it.
    /// Returns `None` once [`shutdown`](Self::shutdown) has been called —
    /// queued jobs are intentionally left behind (drain-running, not
    /// drain-queued: a stop request should not wait out a deep queue).
    pub fn next_job(&self) -> Option<(JobId, Arc<JobWork>)> {
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let job = inner.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                job.events.append(&sse::encode_event(
                    "running",
                    &sse::status_data(id, "running", None),
                ));
                return Some((id, Arc::clone(&job.work)));
            }
            inner = self.ready.wait(inner).expect("job table lock poisoned");
        }
    }

    /// Records a job's outcome, emits the terminal progress frame, and
    /// closes the job's event stream (subscribers see EOF).
    pub fn complete(&self, id: JobId, outcome: Result<String, String>) {
        let mut inner = self.lock();
        let job = inner.jobs.get_mut(&id).expect("completed job exists");
        match outcome {
            Ok(doc) => {
                job.result = Some(Arc::new(doc));
                job.state = JobState::Done;
                job.events.append(&sse::encode_event(
                    "done",
                    &sse::status_data(id, "done", None),
                ));
            }
            Err(msg) => {
                job.events.append(&sse::encode_event(
                    "failed",
                    &sse::status_data(id, "failed", Some(&msg)),
                ));
                job.error = Some(msg);
                job.state = JobState::Failed;
            }
        }
        job.events.close();
    }

    /// Publishes the `phases` progress frame for a finishing job: the
    /// engine's per-phase timing from `smrseek-obs`, merged across the
    /// job's cells. Workers call this just before [`complete`].
    ///
    /// [`complete`]: Self::complete
    pub fn publish_phases(&self, id: JobId, phases: &PhaseTotals) {
        if phases.is_zero() {
            return;
        }
        let inner = self.lock();
        if let Some(job) = inner.jobs.get(&id) {
            job.events
                .append(&sse::encode_event("phases", &sse::phases_data(id, phases)));
        }
    }

    /// A job's trace linkage and creating request id, or `None` for an
    /// unknown id. Workers call this once per dequeued job to record the
    /// `queue`/`replay` spans.
    pub fn job_trace(&self, id: JobId) -> Option<(JobTrace, String)> {
        let inner = self.lock();
        inner
            .jobs
            .get(&id)
            .map(|job| (job.trace, job.request_id.clone()))
    }

    /// The progress event stream of a job, or `None` for an unknown id —
    /// the backing for `GET /v1/jobs/<id>/events`.
    pub fn events(&self, id: JobId) -> Option<Arc<EventStream>> {
        let inner = self.lock();
        inner.jobs.get(&id).map(|job| Arc::clone(&job.events))
    }

    /// The current status of a job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let inner = self.lock();
        inner.jobs.get(&id).map(|job| JobStatus {
            state: job.state,
            result: job.result.clone(),
            error: job.error.clone(),
            request_id: job.request_id.clone(),
        })
    }

    /// Every known job as `(id, state)`, sorted by id — the backing for
    /// `GET /v1/jobs`. Ids are sequential, so this is also submission
    /// order.
    pub fn list(&self) -> Vec<(JobId, JobState)> {
        let inner = self.lock();
        let mut jobs: Vec<(JobId, JobState)> = inner
            .jobs
            .iter()
            .map(|(&id, job)| (id, job.state))
            .collect();
        jobs.sort_unstable_by_key(|&(id, _)| id);
        jobs
    }

    /// Counts for `/metrics`.
    pub fn snapshot(&self) -> JobSnapshot {
        let inner = self.lock();
        let mut snap = JobSnapshot {
            queue_depth: inner.queue.len(),
            capacity: self.capacity,
            ..JobSnapshot::default()
        };
        for job in inner.jobs.values() {
            match job.state {
                JobState::Queued => snap.queued += 1,
                JobState::Running => snap.running += 1,
                JobState::Done => snap.done += 1,
                JobState::Failed => snap.failed += 1,
            }
        }
        snap
    }

    /// Begins shutdown: wakes every idle worker so it can observe the
    /// flag and exit. Workers finish the job they are running first.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }

    /// Whether [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("job table lock poisoned")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::worker::JobKind;
    use smrseek_sim::TraceSource;

    fn work() -> JobWork {
        JobWork {
            source: TraceSource::from_records("t", Vec::new()),
            kind: JobKind::Sweep,
            digest: None,
        }
    }

    /// Submits `work` under `key` with a freshly minted trace, as every
    /// daemon submission carries one.
    pub(crate) fn submit(table: &JobTable, key: &str, work: JobWork, request_id: &str) -> Submit {
        let trace = JobTrace {
            parent: TraceContext::mint(),
            queued_unix_ns: smrseek_obs::unix_nanos(),
        };
        table.submit(key.to_owned(), work, request_id.to_owned(), trace)
    }

    #[test]
    fn dedup_is_first_miss_then_hits() {
        let table = JobTable::new(4);
        let first = submit(&table, "k", work(), "rq-test");
        let Submit::Queued(id) = first else {
            panic!("first submission queues: {first:?}");
        };
        for _ in 0..3 {
            assert_eq!(
                submit(&table, "k", work(), "rq-later"),
                Submit::Existing(id)
            );
        }
        assert_eq!(table.snapshot().queued, 1, "duplicates never enqueue");
        assert_eq!(
            table.status(id).expect("known").request_id,
            "rq-test",
            "cache hits keep the creating request's id"
        );
    }

    #[test]
    fn queue_capacity_rejects_not_blocks() {
        let table = JobTable::new(1);
        assert!(matches!(
            submit(&table, "a", work(), "rq-test"),
            Submit::Queued(_)
        ));
        assert_eq!(submit(&table, "b", work(), "rq-test"), Submit::Full);
        // The rejected key was not retained: submitting it again after
        // space frees up must succeed, not alias a phantom entry.
        let (id, _) = table.next_job().expect("job available");
        table.complete(id, Ok("{}".into()));
        assert!(matches!(
            submit(&table, "b", work(), "rq-test"),
            Submit::Queued(_)
        ));
    }

    #[test]
    fn lifecycle_and_status() {
        let table = JobTable::new(2);
        let Submit::Queued(id) = submit(&table, "k", work(), "rq-test") else {
            panic!("queues");
        };
        assert_eq!(table.status(id).expect("known").state, JobState::Queued);
        let (popped, _) = table.next_job().expect("job available");
        assert_eq!(popped, id);
        assert_eq!(table.status(id).expect("known").state, JobState::Running);
        table.complete(id, Ok("[1]".into()));
        let status = table.status(id).expect("known");
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.result.expect("has result").as_str(), "[1]");
        assert!(table.status(999).is_none());
        // A finished job still serves cache hits.
        assert_eq!(submit(&table, "k", work(), "rq-test"), Submit::Existing(id));
    }

    #[test]
    fn list_is_sorted_and_tracks_states() {
        let table = JobTable::new(4);
        assert!(table.list().is_empty());
        let Submit::Queued(a) = submit(&table, "a", work(), "rq-test") else {
            panic!("queues");
        };
        let Submit::Queued(b) = submit(&table, "b", work(), "rq-test") else {
            panic!("queues");
        };
        let (popped, _) = table.next_job().expect("job available");
        assert_eq!(popped, a);
        table.complete(a, Ok("[]".into()));
        assert_eq!(
            table.list(),
            vec![(a, JobState::Done), (b, JobState::Queued)]
        );
    }

    #[test]
    fn failures_keep_their_message() {
        let table = JobTable::new(2);
        let Submit::Queued(id) = submit(&table, "k", work(), "rq-test") else {
            panic!("queues");
        };
        table.next_job().expect("job available");
        table.complete(id, Err("boom".into()));
        let status = table.status(id).expect("known");
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.error.as_deref(), Some("boom"));
        assert_eq!(table.snapshot().failed, 1);
    }

    #[test]
    fn shutdown_wakes_and_stops_workers() {
        let table = std::sync::Arc::new(JobTable::new(2));
        let waiter = {
            let table = std::sync::Arc::clone(&table);
            std::thread::spawn(move || table.next_job().is_none())
        };
        // Give the worker a moment to block on the condvar, then stop.
        std::thread::sleep(std::time::Duration::from_millis(20));
        table.shutdown();
        assert!(waiter.join().expect("worker thread"), "worker saw shutdown");
        assert!(table.is_shutdown());
        assert!(table.next_job().is_none(), "no work after shutdown");
    }
}
