//! `smrseekd`: the simulation-as-a-service daemon behind `smrseek serve`.
//!
//! The engine can replay traces in bounded memory, fan out across
//! threads, and share one loaded copy of a trace — but a fresh CLI
//! process re-does all of that setup per experiment and throws the
//! results away. This crate turns the engine into a *persistent* service
//! in the spirit of host-side translation daemons (SALSA, SMORE): traces
//! load once into a shared registry, results are cached by content
//! (trace digest × canonicalized config), and sustained concurrent load
//! becomes something future PRs can measure against.
//!
//! The HTTP surface (all JSON unless noted):
//!
//! | Route                      | Meaning                                      |
//! |----------------------------|----------------------------------------------|
//! | `POST /v1/jobs`            | submit a job → `{id, status, cache}`, or 503 + `Retry-After` when the queue is full |
//! | `GET /v1/jobs`             | every known job as `{id, status}` pairs      |
//! | `GET /v1/jobs/<id>`        | status envelope, result inlined when done    |
//! | `GET /v1/jobs/<id>/result` | the raw result document, byte-stable         |
//! | `GET /v1/jobs/<id>/events` | live job progress as Server-Sent Events (see [`sse`]) |
//! | `GET /v1/trace/<trace-id>` | every distributed span this daemon recorded for a trace |
//! | `GET /healthz`             | liveness probe (text: `ok`, workers, queue depth/capacity, fleet view) |
//! | `GET /metrics`             | Prometheus text exposition                   |
//!
//! Every connection carries one request, so the daemon fronts everything
//! with `smrseek-net`'s blocking core: one accept thread and one thread
//! per connection, which frames the request, routes it inline (a
//! submission may load a trace or forward to a peer on that thread) and
//! writes the answer. Absolute request and response deadlines close
//! stalled clients, and a connection cap answers 503 instead of starting
//! another thread; worker threads only ever replay simulations. With
//! `--peers`, N daemons shard the result cache by consistent hashing on
//! the job key so each unique sweep is computed exactly once fleet-wide
//! (see [`fleet`]).
//!
//! Everything is `std`: `std::net` sockets, `std::thread` workers, the
//! vendored `serde_json` for JSON. `smrseek-net` owns the HTTP/1.1 wire
//! format ([`Request`], [`Response`], the blocking client); see [`route`]
//! for the API, [`jobs`] for queueing/caching semantics, [`worker`] for
//! execution, [`metrics`] for observability, [`api`] for request parsing.

pub mod api;
pub mod fleet;
pub mod jobs;
pub mod metrics;
pub mod sse;
pub mod tracebody;
pub mod worker;

use crate::api::{JobRequest, TraceRef};
use crate::fleet::Fleet;
use crate::jobs::{JobId, JobState, JobTable, JobTrace, Submit};
use crate::metrics::{Endpoint, Metrics};
use crate::worker::{JobKind, JobWork};
use serde::{Number, Value};
use smrseek_net::{Action, NetConfig, NetHandle, Request, Response};
use smrseek_obs::dtrace::{self, TRACE_HEADER};
use smrseek_obs::{DistSpan, SpanStore, TraceContext};
use smrseek_sim::experiments::ExpOptions;
use smrseek_sim::tracecache::TraceRegistry;
use smrseek_sim::TraceSource;
use smrseek_workloads::profiles;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mints a process-unique request id: the pid (hex) plus a sequence
/// number, e.g. `0000abcd-000001`. Stable across threads, trivially
/// greppable in the access log, and echoed on every job the request
/// creates.
fn next_request_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    format!("{:08x}-{seq:06}", std::process::id())
}

/// Distinct traces the per-daemon span store retains before evicting
/// whole traces FIFO. A trace is a handful of spans; 256 comfortably
/// covers "submit a sweep, then go fetch its trace".
const SPAN_STORE_TRACES: usize = 256;

/// A client-supplied `x-request-id` the daemon will honor: 1–64 bytes of
/// `[A-Za-z0-9_-]`. Anything else (absent, empty, too long, or containing
/// characters that would corrupt the access log or response headers) is
/// ignored and the daemon mints its own id instead. Forwarded hops always
/// pass the origin's id, so one fleet-wide submission logs one id.
fn client_request_id(request: &Request) -> Option<String> {
    let id = request.header("x-request-id")?;
    let valid = !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    valid.then(|| id.to_owned())
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Maximum queued (accepted but not yet running) jobs before
    /// submissions are refused with 503.
    pub queue_depth: usize,
    /// Worker threads draining the queue. Zero is allowed and means jobs
    /// queue but never run — useful for tests and drain-only maintenance.
    pub workers: usize,
    /// Threads each job's run matrix may use.
    pub job_threads: NonZeroUsize,
    /// The full fleet peer list (every daemon's advertised address,
    /// including this one's bound address) for sharding the result cache.
    /// Empty means a standalone daemon.
    pub peers: Vec<String>,
    /// How long a connection may take to deliver its whole request (or
    /// to drain a response write) before it is closed and counted as
    /// reaped.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_depth: 64,
            workers: 2,
            job_threads: NonZeroUsize::MIN,
            peers: Vec::new(),
            idle_timeout: Duration::from_secs(10),
        }
    }
}

/// State shared by every daemon thread.
pub struct ServerState {
    /// Job queue, lifecycle, and result cache.
    pub jobs: Arc<JobTable>,
    /// Counters and latency histograms.
    pub metrics: Arc<Metrics>,
    /// Shared open traces (one mapping per file trace, process-wide).
    pub registry: TraceRegistry,
    /// Distributed spans recorded by this process, served by
    /// `GET /v1/trace/<trace-id>`.
    pub spans: Arc<SpanStore>,
    /// Configured worker-thread count, reported by `/healthz`.
    pub workers: usize,
}

impl ServerState {
    /// Fresh state with a queue bound of `queue_depth` served by
    /// `workers` threads; the daemon builds one in [`start`], tests build
    /// one directly to exercise [`route`].
    pub fn new(queue_depth: usize, workers: usize) -> Self {
        ServerState {
            jobs: Arc::new(JobTable::new(queue_depth)),
            metrics: Arc::new(Metrics::new()),
            registry: TraceRegistry::new(),
            spans: Arc::new(SpanStore::new(SPAN_STORE_TRACES)),
            workers,
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Handle::shutdown`].
pub struct Handle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    net: Option<NetHandle>,
    workers: Vec<JoinHandle<()>>,
}

impl Handle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests and the CLI read metrics through this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Graceful shutdown: stop the server (open connections are closed,
    /// no new ones accepted), let every worker finish the job it is
    /// running (queued jobs are dropped), and join all threads.
    pub fn shutdown(mut self) {
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        self.state.jobs.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn start(config: ServerConfig) -> io::Result<Handle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(config.queue_depth, config.workers));
    let fleet = if config.peers.is_empty() {
        None
    } else {
        let fleet = Fleet::new(addr, &config.peers)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        state.metrics.register_peers(&fleet.remote_labels());
        Some(Arc::new(fleet))
    };
    let workers = worker::spawn_workers(
        config.workers,
        Arc::clone(&state.jobs),
        Arc::clone(&state.metrics),
        Arc::clone(&state.spans),
        config.job_threads,
    );
    let dispatcher = Arc::new(DaemonDispatcher {
        state: Arc::clone(&state),
        fleet,
    });
    let net = smrseek_net::serve(
        listener,
        dispatcher,
        NetConfig {
            idle_timeout: config.idle_timeout,
            ..NetConfig::default()
        },
    )?;
    state.metrics.set_net_stats(net.stats());
    Ok(Handle {
        addr,
        state,
        net: Some(net),
        workers,
    })
}

/// Bridges the connection threads to [`route`], and logs and accounts
/// every request in one place.
struct DaemonDispatcher {
    state: Arc<ServerState>,
    fleet: Option<Arc<Fleet>>,
}

impl smrseek_net::Dispatcher for DaemonDispatcher {
    fn dispatch(&self, request: Request) -> Action {
        let started = Instant::now();
        // Honor a well-formed client-supplied id (a forwarding peer always
        // sends the origin's), otherwise mint one.
        let request_id = client_request_id(&request).unwrap_or_else(next_request_id);
        let (endpoint, action) = route(&self.state, self.fleet.as_deref(), &request, &request_id);
        // A stream's latency is its setup, not its lifetime.
        let (status, stream) = match &action {
            Action::Respond(response) => (response.status, ""),
            Action::Stream { .. } => (200, " stream=open"),
        };
        let elapsed = started.elapsed();
        smrseek_obs::info!(
            "request_id={request_id} {} {} status={status} duration_us={}{stream}",
            request.method,
            request.target,
            elapsed.as_micros()
        );
        self.state.metrics.observe(endpoint, elapsed);
        action
    }
}

/// Routes one request against the daemon state and answers it:
/// `GET /v1/jobs/<id>/events` with the job's live event stream, every
/// other request with a [`Response`] carrying `x-request-id`. Connection
/// threads call this; it is public so tests can exercise the full API
/// in-process. `fleet` (when sharded) routes submissions to their owner
/// and feeds the `/healthz` fleet view; `request_id` is echoed in
/// submit/status envelopes and retained on any job this request creates.
pub fn route(
    state: &ServerState,
    fleet: Option<&Fleet>,
    request: &Request,
    request_id: &str,
) -> (Endpoint, Action) {
    let path = request.target.split('?').next().unwrap_or("");
    let (endpoint, response) = match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let snap = state.jobs.snapshot();
            let mut body = format!(
                "ok\nworkers: {}\nqueue_depth: {}\nqueue_capacity: {}\n",
                state.workers, snap.queue_depth, snap.capacity
            );
            if let Some(fleet) = fleet {
                let _ = writeln!(body, "fleet_peers: {}", fleet.len());
                let _ = writeln!(body, "self_vnodes: {}", fleet.self_vnodes());
                for (peer, forwarded, errors) in state.metrics.peer_counts() {
                    let _ = writeln!(body, "peer {peer} forwarded={forwarded} errors={errors}");
                }
            }
            (Endpoint::Healthz, Response::text(200, body))
        }
        ("GET", "/metrics") => {
            let body = state
                .metrics
                .render(&state.jobs.snapshot(), state.registry.len());
            (Endpoint::Metrics, Response::text(200, body))
        }
        ("POST", "/v1/jobs") => (
            Endpoint::JobsPost,
            submit_traced(state, fleet, request, request_id),
        ),
        ("GET", "/v1/jobs") => (Endpoint::JobsGet, jobs_list(state)),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/events") {
                match id
                    .parse::<JobId>()
                    .ok()
                    .and_then(|id| state.jobs.events(id))
                {
                    Some(stream) => {
                        let head = sse::response_head(request_id);
                        return (Endpoint::JobEvents, Action::Stream { head, stream });
                    }
                    None => (
                        Endpoint::JobEvents,
                        Response::json(404, error_body("no such job")),
                    ),
                }
            } else if let Some(id) = rest.strip_suffix("/result") {
                (Endpoint::JobResult, job_result(state, id))
            } else {
                (Endpoint::JobsGet, job_status(state, rest))
            }
        }
        ("GET", path) if path.starts_with("/v1/trace/") => (
            Endpoint::Trace,
            trace_spans(state, &path["/v1/trace/".len()..]),
        ),
        (_, "/healthz" | "/metrics" | "/v1/jobs") => (
            Endpoint::Other,
            Response::json(405, error_body("method not allowed")),
        ),
        _ => (
            Endpoint::Other,
            Response::json(404, error_body("not found")),
        ),
    };
    let response = response.with_header("x-request-id", request_id);
    (endpoint, Action::Respond(response))
}

/// `GET /v1/trace/<trace-id>`: every distributed span this process
/// recorded for the trace, in record order. A fleet collector (the CLI's
/// `trace` subcommand) asks each daemon and merges the fragments by the
/// shared trace id.
fn trace_spans(state: &ServerState, raw_id: &str) -> Response {
    let Some(trace_id) = dtrace::parse_trace_id(raw_id) else {
        return Response::json(
            400,
            error_body("malformed trace id (32 lowercase hex digits)"),
        );
    };
    let Some(spans) = state.spans.get(trace_id) else {
        return Response::json(404, error_body("no such trace"));
    };
    Response::json(200, tracebody::encode(trace_id, &spans))
}

fn error_body(msg: &str) -> String {
    serde_json::to_string(&Value::Object(vec![(
        "error".to_owned(),
        Value::String(msg.to_owned()),
    )]))
    .expect("error body serializes")
}

/// Resolves a parsed request into runnable work plus its cache key.
fn resolve(state: &ServerState, request: &JobRequest) -> Result<(String, JobWork), String> {
    let (source, trace_key, top) = match &request.trace {
        TraceRef::Path(path) => {
            let cannot_load =
                |e: &dyn std::fmt::Display| format!("cannot load trace {}: {e}", path.display());
            // A device or FIFO never ends (or never starts) its stream, so
            // only regular files are loaded.
            let meta = std::fs::metadata(path).map_err(|e| cannot_load(&e))?;
            if !meta.is_file() {
                return Err(format!(
                    "`trace.path` must name a regular file: {}",
                    path.display()
                ));
            }
            let entry = state
                .registry
                .load(path, &meta)
                .map_err(|e| cannot_load(&e))?;
            (
                entry.source.clone(),
                api::trace_key(&request.trace, Some(entry.digest)),
                Some(entry.top_sector),
            )
        }
        TraceRef::Profile { name, seed, ops } => {
            let profile = profiles::by_name(name)
                .ok_or_else(|| format!("unknown profile {name:?} (try `smrseek list`)"))?;
            let opts = ExpOptions {
                seed: *seed,
                ops: *ops,
            };
            (
                TraceSource::from_profile(&profile, &opts),
                api::trace_key(&request.trace, None),
                // A generator's sector bound is unknown without materializing
                // the records; the engine derives it per-replay exactly like
                // the CLI does, so the canonical key simply omits it.
                None,
            )
        }
    };
    let key = api::result_key(&trace_key, top, request.config.as_ref());
    let kind = match request.config {
        None => JobKind::Sweep,
        Some(config) => JobKind::Single(Box::new(config)),
    };
    Ok((
        key,
        JobWork {
            source,
            kind,
            digest: None,
        },
    ))
}

/// `POST /v1/jobs` under its trace context: continue the caller's trace
/// (its header span — a peer's `forward` span, or a client's own root —
/// becomes the parent) or mint a fresh root, record this hop's
/// `dispatch` span, and echo the context so the submitter can fetch the
/// trace.
fn submit_traced(
    state: &ServerState,
    fleet: Option<&Fleet>,
    request: &Request,
    request_id: &str,
) -> Response {
    let incoming = request.header(TRACE_HEADER).and_then(TraceContext::parse);
    let ctx = incoming.map_or_else(TraceContext::mint, |parent| parent.child());
    let dispatch_start = dtrace::unix_nanos();
    let response = submit_routed(state, fleet, request, request_id, ctx);
    state.spans.record(DistSpan {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_span_id: incoming.map(|parent| parent.span_id),
        name: "dispatch".to_owned(),
        request_id: request_id.to_owned(),
        start_unix_ns: dispatch_start,
        dur_ns: dtrace::unix_nanos().saturating_sub(dispatch_start),
        pid: std::process::id(),
        tid: smrseek_obs::current_tid(),
    });
    response.with_header(TRACE_HEADER, ctx.header_value())
}

/// The fleet-aware submission path: resolve the job key, forward to its
/// consistent-hash owner when that is another peer, otherwise enqueue
/// against the local job table / result cache. A request already marked
/// [`fleet::FORWARDED_HEADER`] is always handled locally — the owner
/// check happened on the first hop, and honoring the marker means a
/// misconfigured fleet degrades to local computation instead of a
/// forwarding loop.
fn submit_routed(
    state: &ServerState,
    fleet: Option<&Fleet>,
    request: &Request,
    request_id: &str,
    ctx: TraceContext,
) -> Response {
    let job_request = match api::parse_job_request(&request.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::json(400, error_body(&msg)),
    };
    let (key, work) = match resolve(state, &job_request) {
        Ok(resolved) => resolved,
        Err(msg) => return Response::json(400, error_body(&msg)),
    };
    if let Some(fleet) = fleet {
        let owner = fleet.owner(&key);
        if !fleet.is_self(owner) && request.header(fleet::FORWARDED_HEADER).is_none() {
            let peer = fleet.peer(owner);
            let label = peer.to_string();
            // The hop gets its own span: the owner's `dispatch` parents to
            // it through the forwarded header, stitching both daemons.
            let forward_ctx = ctx.child();
            let forward_start = dtrace::unix_nanos();
            let relayed = fleet::forward(
                peer,
                &request.body,
                request_id,
                Some(&forward_ctx.header_value()),
            );
            state.spans.record(DistSpan {
                trace_id: forward_ctx.trace_id,
                span_id: forward_ctx.span_id,
                parent_span_id: Some(ctx.span_id),
                name: "forward".to_owned(),
                request_id: request_id.to_owned(),
                start_unix_ns: forward_start,
                dur_ns: dtrace::unix_nanos().saturating_sub(forward_start),
                pid: std::process::id(),
                tid: smrseek_obs::current_tid(),
            });
            return match relayed {
                Ok((status, body)) => {
                    state.metrics.forwarded(&label);
                    let relayed = Response::json(status, String::from_utf8_lossy(&body))
                        .with_header(fleet::PEER_HEADER, &label);
                    // parse_response flattens headers, so re-add the one
                    // contract header a 503 carries.
                    if status == 503 {
                        relayed.with_header("retry-after", "1")
                    } else {
                        relayed
                    }
                }
                Err(msg) => {
                    state.metrics.forward_error(&label);
                    Response::json(502, error_body(&msg))
                }
            };
        }
    }
    let trace = JobTrace {
        parent: ctx,
        queued_unix_ns: dtrace::unix_nanos(),
    };
    match state.jobs.submit(key, work, request_id.to_owned(), trace) {
        Submit::Queued(id) => {
            state.metrics.cache_miss();
            Response::json(202, submit_body(id, "queued", "miss", request_id))
        }
        Submit::Existing(id) => {
            state.metrics.cache_hit();
            let status = state.jobs.status(id).map_or("queued", |s| s.state.label());
            Response::json(200, submit_body(id, status, "hit", request_id))
        }
        Submit::Full => {
            state.metrics.rejected();
            Response::json(503, error_body("job queue full")).with_header("retry-after", "1")
        }
    }
}

fn jobs_list(state: &ServerState) -> Response {
    let jobs: Vec<Value> = state
        .jobs
        .list()
        .into_iter()
        .map(|(id, job_state)| {
            Value::Object(vec![
                ("id".to_owned(), Value::Number(Number::U(id))),
                (
                    "status".to_owned(),
                    Value::String(job_state.label().to_owned()),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        serde_json::to_string(&Value::Object(vec![(
            "jobs".to_owned(),
            Value::Array(jobs),
        )]))
        .expect("jobs list serializes"),
    )
}

fn submit_body(id: JobId, status: &str, cache: &str, request_id: &str) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("id".to_owned(), Value::Number(Number::U(id))),
        ("status".to_owned(), Value::String(status.to_owned())),
        ("cache".to_owned(), Value::String(cache.to_owned())),
        (
            "request_id".to_owned(),
            Value::String(request_id.to_owned()),
        ),
    ]))
    .expect("submit body serializes")
}

fn job_status(state: &ServerState, raw_id: &str) -> Response {
    let Some((id, status)) = raw_id
        .parse::<JobId>()
        .ok()
        .and_then(|id| state.jobs.status(id).map(|s| (id, s)))
    else {
        return Response::json(404, error_body("no such job"));
    };
    let mut fields = vec![
        ("id".to_owned(), Value::Number(Number::U(id))),
        (
            "status".to_owned(),
            Value::String(status.state.label().to_owned()),
        ),
        (
            "request_id".to_owned(),
            Value::String(status.request_id.clone()),
        ),
    ];
    match status.state {
        JobState::Done => {
            let doc = status.result.expect("done job has a result");
            let parsed: Value = serde_json::from_str(&doc).expect("stored results are JSON");
            fields.push(("result".to_owned(), parsed));
        }
        JobState::Failed => {
            fields.push((
                "error".to_owned(),
                Value::String(status.error.unwrap_or_default()),
            ));
        }
        JobState::Queued | JobState::Running => {}
    }
    Response::json(
        200,
        serde_json::to_string(&Value::Object(fields)).expect("status body serializes"),
    )
}

fn job_result(state: &ServerState, raw_id: &str) -> Response {
    let Some(status) = raw_id
        .parse::<JobId>()
        .ok()
        .and_then(|id| state.jobs.status(id))
    else {
        return Response::json(404, error_body("no such job"));
    };
    match status.state {
        JobState::Done => {
            Response::json(200, status.result.expect("done job has a result").as_str())
        }
        JobState::Failed => Response::json(
            500,
            error_body(&status.error.unwrap_or_else(|| "job failed".to_owned())),
        ),
        pending => Response::json(
            202,
            serde_json::to_string(&Value::Object(vec![(
                "status".to_owned(),
                Value::String(pending.label().to_owned()),
            )]))
            .expect("pending body serializes"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(workers: usize, queue_depth: usize) -> (Arc<ServerState>, Vec<JoinHandle<()>>) {
        let state = Arc::new(ServerState::new(queue_depth, workers));
        let handles = worker::spawn_workers(
            workers,
            Arc::clone(&state.jobs),
            Arc::clone(&state.metrics),
            Arc::clone(&state.spans),
            NonZeroUsize::MIN,
        );
        (state, handles)
    }

    fn stop(state: &ServerState, handles: Vec<JoinHandle<()>>) {
        state.jobs.shutdown();
        for h in handles {
            h.join().expect("worker exits");
        }
    }

    /// The response `route` answers `request` with (never a stream).
    fn respond(state: &ServerState, request: &Request, request_id: &str) -> Response {
        match route(state, None, request, request_id).1 {
            Action::Respond(response) => response,
            Action::Stream { .. } => panic!("{} streamed", request.target),
        }
    }

    fn get(state: &ServerState, target: &str) -> Response {
        let request = Request {
            method: "GET".to_owned(),
            target: target.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        respond(state, &request, "rq-test")
    }

    fn post(state: &ServerState, target: &str, body: &str) -> Response {
        let request = Request {
            method: "POST".to_owned(),
            target: target.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        respond(state, &request, "rq-test")
    }

    fn body_str(resp: &Response) -> String {
        String::from_utf8(resp.body().to_vec()).expect("utf8 body")
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (state, handles) = test_state(0, 4);
        let health = get(&state, "/healthz");
        assert_eq!(health.status, 200);
        let body = body_str(&health);
        assert!(body.starts_with("ok\n"), "first line stays `ok`: {body}");
        assert!(body.contains("workers: 0"), "{body}");
        assert!(body.contains("queue_depth: 0"), "{body}");
        assert!(body.contains("queue_capacity: 4"), "{body}");
        assert_eq!(get(&state, "/nope").status, 404);
        assert_eq!(get(&state, "/v1/jobs/17").status, 404);
        let delete = Request {
            method: "DELETE".to_owned(),
            target: "/metrics".to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(respond(&state, &delete, "rq-test").status, 405);
        stop(&state, handles);
    }

    #[test]
    fn events_route_streams_known_jobs_and_labels_its_404() {
        let (state, handles) = test_state(0, 4);
        assert_eq!(
            post(
                &state,
                "/v1/jobs",
                r#"{"trace": {"profile": "hm_1", "ops": 50}}"#
            )
            .status,
            202
        );
        let events = |target: &str| Request {
            method: "GET".to_owned(),
            target: target.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let (endpoint, action) = route(&state, None, &events("/v1/jobs/1/events"), "rq-sse");
        assert_eq!(endpoint, Endpoint::JobEvents);
        let Action::Stream { head, stream } = action else {
            panic!("a known job streams");
        };
        assert_eq!(head, sse::response_head("rq-sse"));
        assert!(String::from_utf8(stream.collected())
            .expect("UTF-8 frames")
            .starts_with("event: queued\n"));
        let (endpoint, _) = route(&state, None, &events("/v1/jobs/9/events"), "rq-sse");
        assert_eq!(
            endpoint,
            Endpoint::JobEvents,
            "a 404 keeps the job_events label"
        );
        let missing = respond(&state, &events("/v1/jobs/9/events"), "rq-sse");
        assert_eq!(missing.status, 404);
        assert_eq!(body_str(&missing), r#"{"error":"no such job"}"#);
        assert_eq!(
            missing.extra,
            [("x-request-id".to_owned(), "rq-sse".to_owned())]
        );
        stop(&state, handles);
    }

    #[test]
    fn full_queue_returns_503_with_retry_after() {
        // No workers: the single queue slot stays occupied.
        let (state, handles) = test_state(0, 1);
        let first = post(
            &state,
            "/v1/jobs",
            r#"{"trace": {"profile": "hm_1", "ops": 50}}"#,
        );
        assert_eq!(first.status, 202, "{}", body_str(&first));
        let second = post(
            &state,
            "/v1/jobs",
            r#"{"trace": {"profile": "w91", "ops": 50}}"#,
        );
        assert_eq!(second.status, 503);
        assert!(second
            .extra
            .iter()
            .any(|(k, v)| k == "retry-after" && v == "1"));
        let metrics = body_str(&get(&state, "/metrics"));
        assert!(metrics.contains("smrseekd_jobs_rejected_total 1"));
        stop(&state, handles);
    }

    #[test]
    fn bad_submissions_are_400() {
        let (state, handles) = test_state(0, 4);
        assert_eq!(post(&state, "/v1/jobs", "nope").status, 400);
        assert_eq!(
            post(
                &state,
                "/v1/jobs",
                r#"{"trace": {"profile": "no_such_profile", "ops": 5}}"#
            )
            .status,
            400
        );
        assert_eq!(
            post(
                &state,
                "/v1/jobs",
                r#"{"trace": {"path": "/no/such/file"}}"#
            )
            .status,
            400
        );
        stop(&state, handles);
    }

    #[test]
    fn jobs_list_reflects_submissions_in_order() {
        let (state, handles) = test_state(0, 4);
        let empty = get(&state, "/v1/jobs");
        assert_eq!(empty.status, 200);
        assert_eq!(body_str(&empty), r#"{"jobs":[]}"#);
        for profile in ["hm_1", "w91"] {
            let body = format!(r#"{{"trace": {{"profile": "{profile}", "ops": 50}}}}"#);
            assert_eq!(post(&state, "/v1/jobs", &body).status, 202);
        }
        let listed = body_str(&get(&state, "/v1/jobs"));
        assert_eq!(
            listed,
            r#"{"jobs":[{"id":1,"status":"queued"},{"id":2,"status":"queued"}]}"#
        );
        // healthz reflects the two queued jobs.
        assert!(body_str(&get(&state, "/healthz")).contains("queue_depth: 2"));
        stop(&state, handles);
    }

    #[test]
    fn duplicate_submission_is_a_hit_even_while_queued() {
        let (state, handles) = test_state(0, 4);
        let body = r#"{"trace": {"profile": "hm_1", "ops": 50}}"#;
        let first = post(&state, "/v1/jobs", body);
        assert_eq!(first.status, 202);
        assert!(body_str(&first).contains("\"cache\":\"miss\""));
        let second = post(&state, "/v1/jobs", body);
        assert_eq!(second.status, 200);
        assert!(body_str(&second).contains("\"cache\":\"hit\""));
        assert_eq!(state.metrics.cache_counts(), (1, 1));
        // Status endpoint sees the one queued job; /result says not ready.
        let result = get(&state, "/v1/jobs/1/result");
        assert_eq!(result.status, 202);
        stop(&state, handles);
    }

    #[test]
    fn request_ids_are_echoed_in_submit_and_status() {
        let (state, handles) = test_state(0, 4);
        let body = r#"{"trace": {"profile": "hm_1", "ops": 50}}"#;
        let submit = Request {
            method: "POST".to_owned(),
            target: "/v1/jobs".to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let first = respond(&state, &submit, "rq-creator");
        assert_eq!(first.status, 202);
        assert!(
            body_str(&first).contains(r#""request_id":"rq-creator""#),
            "{}",
            body_str(&first)
        );
        // A duplicate submission echoes *its own* request id in the
        // submit response, but the job keeps its creator's id.
        let second = respond(&state, &submit, "rq-duplicate");
        assert_eq!(second.status, 200);
        assert!(
            body_str(&second).contains(r#""request_id":"rq-duplicate""#),
            "{}",
            body_str(&second)
        );
        let status = get(&state, "/v1/jobs/1");
        assert_eq!(status.status, 200);
        assert!(
            body_str(&status).contains(r#""request_id":"rq-creator""#),
            "{}",
            body_str(&status)
        );
        // The raw-result and listing routes stay byte-stable: no ids.
        let listed = body_str(&get(&state, "/v1/jobs"));
        assert!(!listed.contains("request_id"), "{listed}");
        let minted = next_request_id();
        assert_eq!(minted.len(), 8 + 1 + 6, "pid-hex dash seq: {minted}");
        stop(&state, handles);
    }

    #[test]
    fn client_request_ids_are_validated_not_trusted() {
        let with_header = |value: &str| Request {
            method: "POST".to_owned(),
            target: "/v1/jobs".to_owned(),
            headers: vec![("x-request-id".to_owned(), value.to_owned())],
            body: Vec::new(),
        };
        assert_eq!(
            client_request_id(&with_header("bench-42_A")).as_deref(),
            Some("bench-42_A")
        );
        assert_eq!(
            client_request_id(&with_header(&"a".repeat(64))).as_deref(),
            Some("a".repeat(64)).as_deref(),
            "64 bytes is the inclusive cap"
        );
        // Anything unusable in logs or headers is discarded; the daemon
        // mints its own id instead of echoing attacker-shaped bytes.
        for bad in [
            "",
            " ",
            "rq id",
            "rq/../x",
            "rq\r\nset-cookie: x",
            &"a".repeat(65),
        ] {
            assert_eq!(client_request_id(&with_header(bad)), None, "{bad:?}");
        }
        let no_header = Request {
            method: "POST".to_owned(),
            target: "/v1/jobs".to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(client_request_id(&no_header), None);
    }

    #[test]
    fn trace_endpoint_serves_stored_spans_and_rejects_junk() {
        let (state, handles) = test_state(0, 4);
        // Malformed ids are 400, never a lookup.
        for bad in ["xyz", "123", &"A".repeat(32), &"0".repeat(32)] {
            let resp = get(&state, &format!("/v1/trace/{bad}"));
            assert_eq!(resp.status, 400, "{bad:?}");
        }
        // Well-formed but unknown ids are 404.
        let unknown = format!("/v1/trace/{:032x}", 0xdead_beefu128);
        assert_eq!(get(&state, &unknown).status, 404);
        // A recorded span comes back in the JSON body with hex ids.
        let ctx = TraceContext::mint();
        state.spans.record(DistSpan {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: None,
            name: "dispatch".to_owned(),
            request_id: "rq-trace".to_owned(),
            start_unix_ns: 17,
            dur_ns: 3,
            pid: std::process::id(),
            tid: smrseek_obs::current_tid(),
        });
        let resp = get(&state, &format!("/v1/trace/{}", ctx.trace_hex()));
        assert_eq!(resp.status, 200);
        let body = body_str(&resp);
        let value: serde::Value = serde_json::from_str(&body).expect("valid JSON: {body}");
        assert_eq!(
            value.get("trace_id").and_then(serde::Value::as_str),
            Some(ctx.trace_hex().as_str())
        );
        let spans = value
            .get("spans")
            .and_then(serde::Value::as_array)
            .expect("spans array");
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(
            span.get("span_id").and_then(serde::Value::as_str),
            Some(format!("{:016x}", ctx.span_id).as_str())
        );
        assert!(span
            .get("parent_span_id")
            .is_some_and(serde::Value::is_null));
        assert_eq!(
            span.get("name").and_then(serde::Value::as_str),
            Some("dispatch")
        );
        assert_eq!(
            span.get("start_unix_ns").and_then(serde::Value::as_u64),
            Some(17)
        );
        stop(&state, handles);
    }
}
