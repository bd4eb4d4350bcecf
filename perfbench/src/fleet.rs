//! The daemon fleet the traced run drives: two `smrseekd` daemons in
//! this process, sharded by `peers`, driven by one client thread in a
//! closed loop with at most one connection per host CPU.
//!
//! Each job is `POST /v1/jobs` at a randomly chosen entry daemon (the
//! fleet forwards it to the key's owner when that is the other daemon,
//! answering with `x-smrseek-peer`), then — unless the submission already
//! reports `done` — the job's SSE `/events` stream on the owner until it
//! closes, then `GET /v1/jobs/<id>/result` on the owner. A job's latency
//! runs from the submission's connect to the last result byte.

use crate::host_cpus;
use crate::replay::profile;
use crate::stats::{percentile, tail_reportable};
use smrseek_net::{Event, Interest, Poller};
use smrseek_server::worker::{run_job, JobKind, JobWork};
use smrseek_server::{Handle, ServerConfig};
use smrseek_sim::experiments::ExpOptions;
use smrseek_sim::runner::parallel_map;
use smrseek_sim::TraceSource;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Profile every daemon job replays.
const JOB_PROFILE: &str = "hm_1";
/// Generator operations per job: a few thousand records, so replay is a
/// small part of a job and the daemon path shows.
const JOB_OPS: usize = 3_000;
/// Deadline for any one HTTP exchange.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(20);

/// The job key seed for index `i` of a run seeded `seed`; distinct for
/// distinct `i` below 2^20 within a run.
pub fn key_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(i)
}

/// The submission body of the job keyed `key`.
fn job_body(key: u64) -> String {
    format!(r#"{{"trace": {{"profile": "{JOB_PROFILE}", "seed": {key}, "ops": {JOB_OPS}}}}}"#)
}

/// The work the daemon resolves a submission of `key` to.
pub fn job_work(key: u64) -> Result<JobWork, String> {
    let opts = ExpOptions {
        seed: key,
        ops: JOB_OPS,
    };
    Ok(JobWork {
        source: TraceSource::from_profile(&profile(JOB_PROFILE)?, &opts),
        kind: JobKind::Sweep,
        digest: None,
    })
}

/// Two daemons that name each other (and themselves) as `peers`.
pub struct Fleet {
    handles: Vec<Handle>,
    /// The daemons' bound addresses, entry index order.
    pub addrs: Vec<SocketAddr>,
}

impl Fleet {
    /// Starts the fleet with at most one replay worker per host CPU in
    /// total. Ports are reserved by binding ephemeral listeners first;
    /// a lost race with another process is retried.
    pub fn start() -> Result<Fleet, String> {
        let workers = (host_cpus().get() / 2).max(1);
        let mut last_error = String::new();
        for _ in 0..5 {
            let addrs: Vec<SocketAddr> = (0..2)
                .map(|_| TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("cannot reserve a port: {e}"))?;
            let peers: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
            let mut handles = Vec::new();
            for addr in &peers {
                let config = ServerConfig {
                    addr: addr.clone(),
                    workers,
                    job_threads: NonZeroUsize::MIN,
                    peers: peers.clone(),
                    ..ServerConfig::default()
                };
                match smrseek_server::start(config) {
                    Ok(handle) => handles.push(handle),
                    Err(e) => {
                        last_error = format!("cannot start a daemon on {addr}: {e}");
                        break;
                    }
                }
            }
            if handles.len() == peers.len() {
                return Ok(Fleet { handles, addrs });
            }
            handles.into_iter().for_each(Handle::shutdown);
        }
        Err(last_error)
    }

    /// Drains and joins both daemons.
    pub fn stop(self) {
        self.handles.into_iter().for_each(Handle::shutdown);
    }
}

/// What one job observed.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// The job's key seed.
    pub key: u64,
    /// The daemon answered from its result cache.
    pub hit: bool,
    /// The entry daemon forwarded the submission to the key's owner.
    pub forwarded: bool,
    /// Submit to last result byte, in milliseconds.
    pub latency_ms: f64,
    /// The `POST /v1/jobs` exchange alone, in milliseconds.
    pub post_ms: f64,
    /// The trace id from the `x-smrseek-trace` response header.
    pub trace_id: Option<u128>,
    /// Why the job failed (non-2xx, drop, timeout, malformed answer).
    pub error: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Submit,
    Events,
    Result,
}

/// One HTTP exchange on its own connection (the daemon closes after
/// every response).
struct Exchange {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    started: Instant,
    deadline: Instant,
}

/// One in-flight job.
struct Flight {
    sample: JobSample,
    stage: Stage,
    owner: SocketAddr,
    id: u64,
    started: Instant,
    exchange: Exchange,
    result: Vec<u8>,
}

/// The first result document each key returned; later results of a key
/// must equal it, and [`check`](Self::check) compares it with the
/// in-process reference.
#[derive(Debug, Default)]
pub struct ResultLog(BTreeMap<u64, Vec<u8>>);

impl ResultLog {
    /// Logs a result of `key`; false when it differs from the key's first.
    pub fn record(&mut self, key: u64, bytes: &[u8]) -> bool {
        match self.0.get(&key) {
            Some(first) => first == bytes,
            None => {
                self.0.insert(key, bytes.to_vec());
                true
            }
        }
    }

    /// Compares every logged key's result with `worker::run_job` run in
    /// this process. Returns the records each key's result accounts for
    /// and the keys whose bytes differ.
    pub fn check(&self) -> Result<(BTreeMap<u64, u64>, BTreeSet<u64>), String> {
        let keys: Vec<u64> = self.0.keys().copied().collect();
        let reference = parallel_map(&keys, host_cpus(), |&key| {
            run_job(&job_work(key)?, NonZeroUsize::MIN, None).map(|out| (key, out))
        });
        let (mut records, mut bad) = (BTreeMap::new(), BTreeSet::new());
        for outcome in reference {
            let (key, out) = outcome?;
            if self.0[&key] != out.doc.as_bytes() {
                bad.insert(key);
            }
            records.insert(key, out.records);
        }
        Ok((records, bad))
    }
}

fn open(addr: SocketAddr, request: String) -> Result<Exchange, String> {
    let stream = TcpStream::connect_timeout(&addr, EXCHANGE_TIMEOUT)
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let now = Instant::now();
    Ok(Exchange {
        stream,
        wbuf: request.into_bytes(),
        wpos: 0,
        rbuf: Vec::with_capacity(1024),
        started: now,
        deadline: now + EXCHANGE_TIMEOUT,
    })
}

fn get_request(addr: SocketAddr, path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n")
}

fn post_request(addr: SocketAddr, body: &str) -> String {
    format!(
        "POST /v1/jobs HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// A parsed HTTP response: status, lower-cased headers, body.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `(lower-cased name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes (`content-length` of them when declared).
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of header `name` (lower case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a complete response read to end of stream.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response head never terminated")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| {
            l.strip_prefix("HTTP/1.1 ")
                .or_else(|| l.strip_prefix("HTTP/1.0 "))
        })
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or("bad status line")?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let mut body = raw[head_end + 4..].to_vec();
    if let Some(len) = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        if body.len() < len {
            return Err(format!("body truncated at {} of {len} bytes", body.len()));
        }
        body.truncate(len);
    }
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One blocking request (for `/metrics` and `/v1/trace` scrapes outside
/// the load loop).
pub fn blocking_get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, EXCHANGE_TIMEOUT)
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(EXCHANGE_TIMEOUT))
        .and_then(|()| stream.write_all(get_request(addr, path).as_bytes()))
        .map_err(|e| format!("GET {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("GET {path}: {e}"))?;
    parse_response(&raw)
}

/// Drives jobs in a closed loop from this thread, at most `concurrency`
/// in flight (one connection each). `next` yields `(key, entry daemon)`
/// until it returns `None`; every job already started is finished and
/// handed to `done` with its result bytes (empty when it failed).
pub fn drive(
    addrs: &[SocketAddr],
    concurrency: usize,
    mut next: impl FnMut() -> Option<(u64, usize)>,
    mut done: impl FnMut(JobSample, &[u8]),
) -> Result<(), String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut flights: Vec<Option<Flight>> = (0..concurrency).map(|_| None).collect();
    let mut events: Vec<Event> = Vec::new();
    let mut exhausted = false;
    loop {
        for (slot, entry) in flights.iter_mut().enumerate() {
            if entry.is_some() || exhausted {
                continue;
            }
            let Some((key, daemon)) = next() else {
                exhausted = true;
                break;
            };
            let started = Instant::now();
            let mut sample = JobSample {
                key,
                hit: false,
                forwarded: false,
                latency_ms: 0.0,
                post_ms: 0.0,
                trace_id: None,
                error: None,
            };
            match open(addrs[daemon], post_request(addrs[daemon], &job_body(key))) {
                Ok(exchange) => {
                    poller
                        .add(exchange.stream.as_raw_fd(), slot as u64, Interest::WRITE)
                        .map_err(|e| format!("poller add: {e}"))?;
                    *entry = Some(Flight {
                        sample,
                        stage: Stage::Submit,
                        owner: addrs[daemon],
                        id: 0,
                        started,
                        exchange,
                        result: Vec::new(),
                    });
                }
                Err(e) => {
                    sample.error = Some(e);
                    done(sample, &[]);
                }
            }
        }
        if exhausted && flights.iter().all(Option::is_none) {
            return Ok(());
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| format!("poller wait: {e}"))?;
        for ev in events.drain(..) {
            let slot = ev.token as usize;
            let Some(flight) = flights[slot].as_mut() else {
                continue;
            };
            match pump(&mut flight.exchange, &ev, &mut poller, slot) {
                Pump::Pending => {}
                Pump::Died(e) => {
                    let mut flight = flights[slot].take().expect("flight present");
                    let _ = poller.delete(flight.exchange.stream.as_raw_fd());
                    flight.sample.error = Some(e);
                    done(flight.sample, &[]);
                }
                Pump::Complete => {
                    let mut flight = flights[slot].take().expect("flight present");
                    let _ = poller.delete(flight.exchange.stream.as_raw_fd());
                    match advance(&mut flight) {
                        Ok(true) => {
                            flight.sample.latency_ms = nanos_ms(flight.started, Instant::now());
                            done(flight.sample, &flight.result);
                        }
                        Ok(false) => {
                            poller
                                .add(
                                    flight.exchange.stream.as_raw_fd(),
                                    slot as u64,
                                    Interest::WRITE,
                                )
                                .map_err(|e| format!("poller add: {e}"))?;
                            flights[slot] = Some(flight);
                        }
                        Err(e) => {
                            flight.sample.error = Some(e);
                            done(flight.sample, &[]);
                        }
                    }
                }
            }
        }
        let now = Instant::now();
        for entry in &mut flights {
            if entry.as_ref().is_some_and(|f| now >= f.exchange.deadline) {
                let mut flight = entry.take().expect("flight present");
                let _ = poller.delete(flight.exchange.stream.as_raw_fd());
                flight.sample.error = Some(format!("{:?} exchange timed out", flight.stage));
                done(flight.sample, &[]);
            }
        }
    }
}

enum Pump {
    Pending,
    Complete,
    Died(String),
}

/// Moves bytes for one readiness event: finish writing the request, then
/// read until the daemon closes the connection.
fn pump(x: &mut Exchange, ev: &Event, poller: &mut Poller, slot: usize) -> Pump {
    if ev.writable && x.wpos < x.wbuf.len() {
        loop {
            match x.stream.write(&x.wbuf[x.wpos..]) {
                Ok(0) => return Pump::Died("connection closed while sending".to_owned()),
                Ok(n) => {
                    x.wpos += n;
                    if x.wpos == x.wbuf.len() {
                        if let Err(e) =
                            poller.modify(x.stream.as_raw_fd(), slot as u64, Interest::READ)
                        {
                            return Pump::Died(format!("poller modify: {e}"));
                        }
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Pump::Died(format!("send: {e}")),
            }
        }
    }
    if ev.readable || ev.closed {
        let mut chunk = [0u8; 8192];
        loop {
            match x.stream.read(&mut chunk) {
                Ok(0) => {
                    return if x.wpos == x.wbuf.len() {
                        Pump::Complete
                    } else {
                        Pump::Died("connection closed before the request was sent".to_owned())
                    };
                }
                Ok(n) => x.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Pump::Died(format!("receive: {e}")),
            }
        }
    }
    Pump::Pending
}

/// Handles a completed exchange: `Ok(true)` when the job is finished,
/// `Ok(false)` when the next exchange was opened.
fn advance(flight: &mut Flight) -> Result<bool, String> {
    let response = parse_response(&flight.exchange.rbuf)?;
    let stage = flight.stage;
    if !(200..300).contains(&response.status) {
        return Err(format!(
            "{stage:?} answered {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    match stage {
        Stage::Submit => {
            flight.sample.post_ms = nanos_ms(flight.exchange.started, Instant::now());
            flight.sample.trace_id = response
                .header("x-smrseek-trace")
                .and_then(|v| v.split('-').next())
                .and_then(|hex| u128::from_str_radix(hex, 16).ok());
            if let Some(peer) = response.header("x-smrseek-peer") {
                flight.owner = peer
                    .parse()
                    .map_err(|_| format!("bad x-smrseek-peer {peer:?}"))?;
                flight.sample.forwarded = true;
            }
            let body: serde::Value = serde_json::from_str(&String::from_utf8_lossy(&response.body))
                .map_err(|e| format!("submit body: {e}"))?;
            flight.id = body
                .get("id")
                .and_then(serde::Value::as_u64)
                .ok_or("submit body has no id")?;
            flight.sample.hit = body.get("cache").and_then(serde::Value::as_str) == Some("hit");
            let status = body.get("status").and_then(serde::Value::as_str);
            if status == Some("done") {
                flight.stage = Stage::Result;
                flight.exchange = open(
                    flight.owner,
                    get_request(flight.owner, &format!("/v1/jobs/{}/result", flight.id)),
                )?;
            } else {
                flight.stage = Stage::Events;
                flight.exchange = open(
                    flight.owner,
                    get_request(flight.owner, &format!("/v1/jobs/{}/events", flight.id)),
                )?;
            }
            Ok(false)
        }
        Stage::Events => {
            flight.stage = Stage::Result;
            flight.exchange = open(
                flight.owner,
                get_request(flight.owner, &format!("/v1/jobs/{}/result", flight.id)),
            )?;
            Ok(false)
        }
        Stage::Result => {
            if response.status != 200 {
                return Err(format!(
                    "result answered {} after the job ended",
                    response.status
                ));
            }
            flight.result = response.body;
            Ok(true)
        }
    }
}

/// Milliseconds from `a` to `b`.
fn nanos_ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// `(label, value)` lines for a latency sample: median plus every tail
/// with at least ten samples beyond it.
pub fn latency_lines(label: &str, values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut parts = vec![format!("n={}", sorted.len())];
    for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        if tail_reportable(sorted.len(), q) || q == 0.5 {
            if let Some(v) = percentile(&sorted, q) {
                parts.push(format!("{name}={v:.3} ms"));
            }
        }
    }
    format!("{label}: {}", parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses_with_headers_and_length() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 5\r\nX-Smrseek-Peer: 127.0.0.1:9\r\n\r\nhello+trailing";
        let r = parse_response(raw).expect("parses");
        assert_eq!(r.status, 202);
        assert_eq!(r.header("x-smrseek-peer"), Some("127.0.0.1:9"));
        assert_eq!(r.body, b"hello");
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort").is_err());
        assert!(parse_response(b"garbage").is_err());
    }

    #[test]
    fn key_seeds_are_distinct_within_a_run() {
        let keys: Vec<u64> = (0..1000).map(|i| key_seed(42, i)).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
        assert_ne!(key_seed(1, 0), key_seed(2, 0));
    }
}
