//! End-to-end tests for `smrseekd` over real loopback sockets.
//!
//! The headline test drives the *actual binary*: it starts `smrseek serve`
//! on an ephemeral port, submits the same job from four concurrent
//! clients, and asserts the daemon's result document is byte-identical to
//! what `smrseek simulate --json` writes offline — the acceptance bar for
//! the daemon never growing a second execution path. The queue-full test
//! uses the in-process server so it can pin `workers = 0` (a knob the CLI
//! does not expose) and make backpressure deterministic.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_smrseek")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smrseekd-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A minimal HTTP/1.1 response as read off the wire.
struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn body_str(&self) -> String {
        String::from_utf8(self.body.clone()).expect("utf8 body")
    }
}

/// Sends one raw HTTP request and reads the response to EOF (the daemon
/// always answers `Connection: close`). Fails instead of panicking, so
/// the load generator can count a failed exchange as a drop.
fn exchange(addr: &str, raw: &[u8], timeout: Duration) -> std::io::Result<Vec<u8>> {
    let addr: SocketAddr = addr.parse().map_err(std::io::Error::other)?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(raw)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

/// A request's bytes; `headers` holds extra header lines, each ending
/// in CRLF.
fn request_bytes(addr: &str, method: &str, path: &str, headers: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\n{headers}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request against the daemon.
fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> HttpResponse {
    let raw = request_bytes(addr, method, path, "", body.unwrap_or(""));
    let response = exchange(addr, &raw, Duration::from_secs(30)).expect("exchange with daemon");
    parse_http(&response)
}

/// Splits a raw HTTP/1.1 response into status, headers, and body.
fn parse_http(raw: &[u8]) -> HttpResponse {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a blank line");
    let head = String::from_utf8(raw[..split].to_vec()).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect();
    HttpResponse {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    }
}

/// A `POST /v1/jobs` carrying a client-chosen `x-request-id` header.
fn request_with_id(addr: &str, body: &str, request_id: &str) -> HttpResponse {
    let headers = format!("x-request-id: {request_id}\r\n");
    let raw = request_bytes(addr, "POST", "/v1/jobs", &headers, body);
    let response = exchange(addr, &raw, Duration::from_secs(30)).expect("exchange with daemon");
    parse_http(&response)
}

/// Pulls one numeric metric value out of a Prometheus exposition.
fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Starts `smrseek serve` on an ephemeral port and returns the child and
/// the bound address parsed from its startup line.
fn spawn_daemon(extra: &[&str]) -> (Child, String) {
    let mut command = Command::new(bin());
    command
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(extra);
    start_daemon(command)
}

/// Runs `command` (which must exec `smrseek serve`) and returns the child
/// and the bound address parsed from its startup line.
fn start_daemon(mut command: Command) -> (Child, String) {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn smrseek serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read startup line");
    // Keep draining stdout so the daemon's shutdown message never hits a
    // closed pipe (which would fail its final print and dirty its exit).
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    let addr = line
        .trim()
        .strip_prefix("smrseekd listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_owned();
    (child, addr)
}

fn terminate(mut child: Child) {
    let pid = child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    assert!(killed, "sent SIGTERM to the daemon");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exits cleanly after SIGTERM");
}

fn write_trace(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let out = Command::new(bin())
        .args(["gen", "hm_1", "--ops", "400", "--out"])
        .arg(&path)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn concurrent_clients_share_one_job_and_match_offline_bytes() {
    let dir = temp_dir("e2e");
    let trace = write_trace(&dir, "t.csv");

    // The offline truth: exactly the file `simulate --json` writes.
    let offline = offline_json(&trace, &dir.join("offline.json"));

    let (child, addr) = spawn_daemon(&["--workers", "2", "--queue-depth", "8"]);
    let submit_body = format!(
        "{{\"trace\": {{\"path\": {:?}}}}}",
        trace.to_str().expect("utf8 path")
    );

    // Four concurrent clients submit the identical job and then poll for
    // its result. The job table guarantees exactly one of them enqueues.
    let results: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| job_result(&addr, &submit_body)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for body in &results {
        assert_eq!(
            body, &offline,
            "daemon result is byte-identical to offline simulate --json"
        );
    }

    // All four submissions shared one cache entry: one miss, three hits.
    let metrics = request(&addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    assert_eq!(
        metric(&text, "smrseekd_result_cache_misses_total"),
        Some(1),
        "exactly one miss:\n{text}"
    );
    assert!(
        metric(&text, "smrseekd_result_cache_hits_total").expect("hits metric") >= 3,
        "at least three hits:\n{text}"
    );
    assert_eq!(metric(&text, "smrseekd_traces_registered"), Some(1));
    let records = std::fs::read_to_string(&trace)
        .expect("read trace csv")
        .lines()
        .skip(1) // header
        .filter(|l| !l.trim().is_empty())
        .count() as u64;
    assert_eq!(
        metric(&text, "smrseekd_records_replayed_total"),
        Some(records * 5),
        "one sweep replayed the trace under five layers"
    );

    let health = request(&addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let health_body = health.body_str();
    assert!(
        health_body.starts_with("ok\n"),
        "first line stays `ok`: {health_body}"
    );
    assert!(health_body.contains("workers: 2"), "{health_body}");
    assert!(health_body.contains("queue_depth: 0"), "{health_body}");
    assert!(health_body.contains("queue_capacity: 8"), "{health_body}");

    // The jobs listing shows the one deduplicated job, finished.
    let listing = request(&addr, "GET", "/v1/jobs", None);
    assert_eq!(listing.status, 200);
    assert_eq!(listing.body_str(), r#"{"jobs":[{"id":1,"status":"done"}]}"#);

    terminate(child);
    std::fs::remove_dir_all(&dir).ok();
}

/// What `smrseek simulate --json` writes for `trace`.
fn offline_json(trace: &Path, out: &Path) -> String {
    let run = Command::new(bin())
        .arg("simulate")
        .arg(trace)
        .arg("--json")
        .arg(out)
        .output()
        .expect("run simulate");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::read_to_string(out).expect("read offline json")
}

/// Submits `body` (a new job or a cache hit) and polls its result for at
/// most 60 s.
fn job_result(addr: &str, body: &str) -> String {
    let submit = request(addr, "POST", "/v1/jobs", Some(body));
    assert!(
        submit.status == 202 || submit.status == 200,
        "submit got {}: {}",
        submit.status,
        submit.body_str()
    );
    let id: serde::Value = serde_json::from_str(&submit.body_str()).expect("JSON envelope");
    let id = id.get("id").and_then(serde::Value::as_u64).expect("job id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let poll = request(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
        match poll.status {
            200 => return poll.body_str(),
            202 => {
                assert!(Instant::now() < deadline, "job finished in time");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("poll got {other}: {}", poll.body_str()),
        }
    }
}

#[test]
fn an_overwritten_trace_file_is_reloaded() {
    let dir = temp_dir("overwrite");
    let trace = write_trace(&dir, "t.csv");
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();
    let body = format!(r#"{{"trace": {{"path": {:?}}}}}"#, trace.display());
    let before = offline_json(&trace, &dir.join("before.json"));
    assert_eq!(job_result(&addr, &body), before);

    // Another workload's trace under the same path.
    let out = Command::new(bin())
        .args(["gen", "w91", "--ops", "400", "--out"])
        .arg(&trace)
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let after = offline_json(&trace, &dir.join("after.json"));
    assert_ne!(after, before);
    assert_eq!(
        job_result(&addr, &body),
        after,
        "the daemon answers for the file as it is now"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_converted_trace_hits_the_result_of_its_csv() {
    // The records fix the frontier, and the digest fixes the records: a
    // single-config job on a `.smrt` conversion shares the CSV job's key.
    let dir = temp_dir("converted");
    let csv = write_trace(&dir, "t.csv");
    let smrt = dir.join("t.smrt");
    let out = Command::new(bin())
        .arg("convert")
        .arg(&csv)
        .arg(&smrt)
        .output()
        .expect("run convert");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();
    let body = |path: &Path| {
        format!(
            r#"{{"trace": {{"path": {:?}}}, "config": {{"layer": "ls", "record_distances": true}}}}"#,
            path.display()
        )
    };
    let from_csv = job_result(&addr, &body(&csv));
    let submit = request(&addr, "POST", "/v1/jobs", Some(&body(&smrt)));
    assert_eq!(submit.status, 200, "{}", submit.body_str());
    assert!(
        submit.body_str().contains(r#""cache":"hit""#),
        "{}",
        submit.body_str()
    );
    assert_eq!(job_result(&addr, &body(&smrt)), from_csv);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-worker `smrseek serve` under a 2 GB address-space limit
/// (`ulimit -v` in the shell that execs it): should a request bring back
/// an unbounded allocation, the daemon dies alone instead of taking the
/// host's memory with it.
fn spawn_limited_daemon() -> (Child, String) {
    let mut command = Command::new("sh");
    command.args([
        "-c",
        r#"ulimit -v 2000000 && exec "$0" serve --addr 127.0.0.1:0 --workers 1"#,
        bin(),
    ]);
    start_daemon(command)
}

/// Submits `body`, expects a 400 whose message contains `needle`, then
/// checks the daemon still runs a valid job (keyed by `seed`) to `done`.
fn refused_then_valid_job_done(addr: &str, body: &str, needle: &str, seed: u64) {
    let refused = request(addr, "POST", "/v1/jobs", Some(body));
    assert_eq!(refused.status, 400, "{needle}: {}", refused.body_str());
    assert!(
        refused.body_str().contains(needle),
        "{needle}: {}",
        refused.body_str()
    );
    let valid = format!(r#"{{"trace": {{"profile": "hm_1", "seed": {seed}, "ops": 200}}}}"#);
    job_reaches_done(addr, &valid);
}

/// Submits the valid job `body` as a new job (202) and polls its status
/// until it is `done`, for at most 30 s.
fn job_reaches_done(addr: &str, body: &str) {
    let submit = request(addr, "POST", "/v1/jobs", Some(body));
    assert_eq!(submit.status, 202, "{}", submit.body_str());
    let id: serde::Value = serde_json::from_str(&submit.body_str()).expect("JSON envelope");
    let id = id.get("id").and_then(serde::Value::as_u64).expect("job id");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = request(addr, "GET", &format!("/v1/jobs/{id}"), None).body_str();
        if body.contains("\"status\":\"done\"") {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "valid job never finished: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn deeply_nested_json_is_a_400_not_a_stack_overflow() {
    // 10,000 `[` once overflowed the stack of the thread parsing them and
    // aborted the daemon.
    let (child, addr) = spawn_limited_daemon();
    refused_then_valid_job_done(&addr, &"[".repeat(10_000), "recursion limit", 1);
    terminate(child);
}

#[test]
fn profile_ops_over_the_cap_are_a_400() {
    // 10 billion records once got a 202, and the job then aborted the
    // daemon on a 43 GB generator allocation.
    let (child, addr) = spawn_limited_daemon();
    refused_then_valid_job_done(
        &addr,
        r#"{"trace": {"profile": "w91", "ops": 10000000000}}"#,
        "`trace.ops` must be at most 50000000",
        2,
    );
    terminate(child);
}

#[test]
fn endless_or_non_regular_trace_files_are_a_400() {
    // `/dev/zero` once aborted the daemon: sniffing its format read one
    // "line" until an allocation failed. A FIFO would park the thread
    // that opened it forever; a regular file with one huge line is the
    // same defect as /dev/zero in a form the regular-file check admits.
    let dir = temp_dir("hostile-files");
    let long_line = dir.join("long.csv");
    std::fs::write(&long_line, vec![b'1'; 1 << 20]).expect("write long line");
    let fifo = dir.join("trace.fifo");
    let made = Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo");
    let (child, addr) = spawn_limited_daemon();
    for (seed, (path, needle)) in [
        ("/dev/zero".to_owned(), "must name a regular file"),
        (fifo.display().to_string(), "must name a regular file"),
        (
            long_line.display().to_string(),
            "is longer than 65536 bytes",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let body = format!(r#"{{"trace": {{"path": "{path}"}}}}"#);
        refused_then_valid_job_done(&addr, &body, needle, 3 + seed as u64);
    }
    terminate(child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_envelope_inlines_the_result() {
    let (child, addr) = spawn_daemon(&["--workers", "1"]);
    let submit = request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "w91", "ops": 200}, "config": {"layer": "ls_cache"}}"#),
    );
    assert_eq!(submit.status, 202, "{}", submit.body_str());
    let deadline = Instant::now() + Duration::from_secs(60);
    let envelope = loop {
        let status = request(&addr, "GET", "/v1/jobs/1", None);
        assert_eq!(status.status, 200);
        let body = status.body_str();
        if body.contains("\"status\":\"done\"") {
            break body;
        }
        assert!(
            !body.contains("\"status\":\"failed\""),
            "job failed: {body}"
        );
        assert!(Instant::now() < deadline, "job finished in time");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        envelope.contains("\"layer_name\""),
        "done envelope inlines the RunReport: {envelope}"
    );
    assert_eq!(request(&addr, "GET", "/v1/jobs/99", None).status, 404);
    terminate(child);
}

#[test]
fn degenerate_configs_get_400_and_leave_the_worker_free() {
    // One worker: every degenerate config, and every knob the API does
    // not have, gets a 400 naming it before it can reach the worker (a
    // negative policy score clamp would panic there), and the worker stays
    // free for the valid job after them. In-process, so a stuck worker
    // cannot outlive a failed assertion.
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();
    for (knob, needle) in [
        (r#""layer": "ls", "zone_sectors": 8"#, "zone_sectors"),
        // The daemon places the frontier above the trace itself; a client
        // bound near u64::MAX would overflow the log's placement arithmetic.
        (
            r#""layer": "ls", "frontier_hint": 18446744073709551615"#,
            "frontier_hint",
        ),
        (
            r#""layer": "ls", "host_cache_bytes": 0"#,
            r#"unknown config field \"host_cache_bytes\""#,
        ),
        (
            r#""layer": "ls_cache", "flash_cache_bytes": 0"#,
            "flash tier",
        ),
        (
            r#""layer": "ls_adaptive", "policy": {"score_clamp": -1}"#,
            "score_clamp",
        ),
        (
            r#""layer": "ls_adaptive", "policy": {"ewma_shift": 40}"#,
            "ewma_shift",
        ),
        (
            r#""layer": "ls_adaptive", "policy": {"frag_weight": 2147483647, "score_clamp": 2147483647}"#,
            "policy",
        ),
    ] {
        let body =
            format!(r#"{{"trace": {{"profile": "hm_1", "ops": 200}}, "config": {{{knob}}}}}"#);
        let submit = request(&addr, "POST", "/v1/jobs", Some(&body));
        assert_eq!(submit.status, 400, "{knob}: {}", submit.body_str());
        assert!(
            submit.body_str().contains(needle),
            "{knob}: {}",
            submit.body_str()
        );
    }
    job_reaches_done(
        &addr,
        r#"{"trace": {"profile": "hm_1", "ops": 200}, "config": {"layer": "ls"}}"#,
    );
    handle.shutdown();
}

#[test]
fn full_queue_backpressure_over_the_wire() {
    // workers = 0 keeps the single queue slot occupied deterministically;
    // only the in-process API exposes that, so this test uses it, still
    // talking to the daemon over a real socket.
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth: 1,
        workers: 0,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();

    let first = request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "hm_1", "ops": 50}}"#),
    );
    assert_eq!(first.status, 202, "{}", first.body_str());
    let second = request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "w91", "ops": 50}}"#),
    );
    assert_eq!(second.status, 503, "{}", second.body_str());
    assert_eq!(
        second.header("retry-after"),
        Some("1"),
        "503 carries Retry-After"
    );
    // A duplicate of the queued job is still a hit, not a rejection.
    let dup = request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "hm_1", "ops": 50}}"#),
    );
    assert_eq!(dup.status, 200, "{}", dup.body_str());
    assert!(dup.body_str().contains("\"cache\":\"hit\""));

    let text = request(&addr, "GET", "/metrics", None).body_str();
    assert_eq!(metric(&text, "smrseekd_jobs_rejected_total"), Some(1));
    assert_eq!(metric(&text, "smrseekd_queue_depth"), Some(1));
    assert_eq!(metric(&text, "smrseekd_queue_capacity"), Some(1));
    handle.shutdown();
}

#[test]
fn request_ids_propagate_and_phase_metrics_export() {
    // Own spawn: stderr piped (the access log lives there) and the log
    // threshold raised to info so access lines are emitted.
    let mut child = Command::new(bin())
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .env("SMRSEEK_LOG", "info")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smrseek serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read startup line");
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    let addr = line
        .trim()
        .strip_prefix("smrseekd listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_owned();
    let stderr = child.stderr.take().expect("stderr piped");
    let access_log = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = BufReader::new(stderr).read_to_string(&mut buf);
        buf
    });

    let submit = request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "hm_1", "ops": 300}}"#),
    );
    assert_eq!(submit.status, 202, "{}", submit.body_str());
    let rid = submit
        .header("x-request-id")
        .expect("submit response carries x-request-id")
        .to_owned();
    assert!(
        submit
            .body_str()
            .contains(&format!(r#""request_id":"{rid}""#)),
        "submit body echoes its request id: {}",
        submit.body_str()
    );

    // Every later status poll gets its own id in the header, but the
    // envelope keeps naming the request that created the job.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = request(&addr, "GET", "/v1/jobs/1", None);
        assert_eq!(status.status, 200);
        let poll_rid = status
            .header("x-request-id")
            .expect("status response carries x-request-id");
        assert_ne!(poll_rid, rid, "each request gets a fresh id");
        let body = status.body_str();
        assert!(
            body.contains(&format!(r#""request_id":"{rid}""#)),
            "status envelope names the creating request: {body}"
        );
        if body.contains("\"status\":\"done\"") {
            break;
        }
        assert!(
            !body.contains("\"status\":\"failed\""),
            "job failed: {body}"
        );
        assert!(Instant::now() < deadline, "job finished in time");
        std::thread::sleep(Duration::from_millis(20));
    }

    // With the job done, its engine phase totals are on /metrics, along
    // with the uptime gauge and build info.
    let text = request(&addr, "GET", "/metrics", None).body_str();
    let phase_value = |phase: &str| -> f64 {
        let prefix = format!("smrseekd_engine_phase_seconds_total{{phase=\"{phase}\"}}");
        text.lines()
            .find(|l| l.starts_with(&prefix))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{prefix} exported:\n{text}"))
    };
    for phase in ["lookup", "seek"] {
        assert!(
            phase_value(phase) > 0.0,
            "{phase} time accumulated:\n{text}"
        );
    }
    assert!(
        text.contains("smrseekd_build_info{version="),
        "build info exported:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("smrseekd_uptime_seconds ")),
        "uptime exported:\n{text}"
    );

    terminate(child);
    let log = access_log.join().expect("stderr thread");
    assert!(
        log.contains(&format!("request_id={rid} POST /v1/jobs status=202")),
        "access log names the submit request:\n{log}"
    );
}

#[test]
fn stalled_clients_are_reaped_without_blocking_live_traffic() {
    // Short idle timeout so the test is quick; only the in-process API
    // exposes the knob.
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 0,
        idle_timeout: Duration::from_millis(400),
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();

    // One client stalls mid-head, one mid-body; neither ever finishes.
    let mut mid_head = TcpStream::connect(&addr).expect("connect");
    mid_head
        .write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-le")
        .expect("send partial head");
    let mut mid_body = TcpStream::connect(&addr).expect("connect");
    mid_body
        .write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"trace\"")
        .expect("send partial body");

    // The daemon keeps answering other clients while the stalled pair
    // sits there.
    assert_eq!(request(&addr, "GET", "/healthz", None).status, 200);

    // Both stalled connections get closed by the reaper (EOF on read),
    // with nothing written back.
    for (name, stream) in [("mid-head", &mut mid_head), ("mid-body", &mut mid_body)] {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut buf = Vec::new();
        stream
            .read_to_end(&mut buf)
            .unwrap_or_else(|e| panic!("{name}: daemon reset instead of close: {e}"));
        assert!(
            buf.is_empty(),
            "{name}: reaped connection got a response: {:?}",
            String::from_utf8_lossy(&buf)
        );
    }

    let text = request(&addr, "GET", "/metrics", None).body_str();
    assert_eq!(
        metric(&text, "smrseekd_connections_reaped_total"),
        Some(2),
        "both stalled connections were reaped:\n{text}"
    );
    assert!(
        metric(&text, "smrseekd_connections_accepted_total").expect("accepted metric") >= 4,
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn sse_events_stream_replays_job_lifecycle() {
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();

    let submit = request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "hm_1", "ops": 300}}"#),
    );
    assert_eq!(submit.status, 202, "{}", submit.body_str());

    // Subscribe immediately: the stream replays history from the queued
    // frame and follows the job to its terminal frame, then closes.
    let events = request(&addr, "GET", "/v1/jobs/1/events", None);
    assert_eq!(events.status, 200);
    assert_eq!(
        events.header("content-type"),
        Some("text/event-stream"),
        "events endpoint speaks SSE"
    );
    let body = events.body_str();
    let position = |frame: &str| {
        body.find(&format!("event: {frame}\n"))
            .unwrap_or_else(|| panic!("stream carries a {frame} frame: {body}"))
    };
    let (queued, running, done) = (position("queued"), position("running"), position("done"));
    assert!(
        queued < running && running < done,
        "frames arrive in lifecycle order: {body}"
    );
    // Every replay accounts its phases, so the finishing job publishes
    // its engine phase split before the terminal frame.
    let phases = position("phases");
    assert!(running < phases && phases < done, "{body}");
    assert!(body.contains("\"seconds\":"), "{body}");
    assert!(
        body.contains(r#"data: {"id":1,"status":"done"}"#),
        "terminal frame carries the status JSON: {body}"
    );

    // A late subscriber to the finished job replays the same history.
    let replay = request(&addr, "GET", "/v1/jobs/1/events", None);
    assert_eq!(replay.body_str(), body, "late subscribers see full history");

    assert_eq!(
        request(&addr, "GET", "/v1/jobs/99/events", None).status,
        404
    );
    handle.shutdown();
}

#[test]
fn a_job_shorter_than_the_phase_sample_still_reports_phases() {
    // Record 0 is always in the sample, so even a job with fewer records
    // than the sample interval times its phases.
    let records = smrseek_obs::phase::SAMPLE_INTERVAL / 2;
    let dir = temp_dir("short_job");
    let path = dir.join("short.csv");
    let mut csv = String::from("timestamp_us,op,offset_bytes,length_bytes\n");
    for i in 0..records {
        let op = if i % 3 == 0 { 'R' } else { 'W' };
        csv.push_str(&format!("{i},{op},{},4096\n", (i * 7919 % 64) * 4096));
    }
    std::fs::write(&path, csv).expect("write trace");
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");
    let addr = handle.addr().to_string();
    let body = format!(r#"{{"trace": {{"path": "{}"}}}}"#, path.display());
    let submit = request(&addr, "POST", "/v1/jobs", Some(&body));
    assert_eq!(submit.status, 202, "{}", submit.body_str());
    // The stream follows the job to its terminal frame.
    let events = request(&addr, "GET", "/v1/jobs/1/events", None).body_str();
    assert!(events.contains("event: done\n"), "{events}");
    assert!(events.contains("event: phases\n"), "{events}");
    assert!(events.contains("\"lookup\":{"), "{events}");
    let text = request(&addr, "GET", "/metrics", None).body_str();
    let lookup: f64 = text
        .lines()
        .find(|l| l.starts_with("smrseekd_engine_phase_seconds_total{phase=\"lookup\"}"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("lookup seconds exported:\n{text}"));
    assert!(lookup > 0.0, "{text}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Reserves two loopback ports by binding and dropping ephemeral
/// listeners. A tiny race (the kernel could hand the port to someone
/// else before the daemon rebinds) is accepted; callers retry.
fn reserve_ports() -> (u16, u16) {
    let a = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let b = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let (pa, pb) = (
        a.local_addr().expect("addr").port(),
        b.local_addr().expect("addr").port(),
    );
    (pa, pb)
}

#[test]
fn two_daemon_fleet_computes_each_unique_sweep_exactly_once() {
    // Start two in-process daemons sharing a --peers list. Ports must be
    // known before either binds, so reserve-then-rebind with retries.
    let (handle_a, handle_b, peers) = {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let (pa, pb) = reserve_ports();
            let peers = vec![format!("127.0.0.1:{pa}"), format!("127.0.0.1:{pb}")];
            let config = |addr: &str| smrseek_server::ServerConfig {
                addr: addr.to_owned(),
                workers: 1,
                peers: peers.clone(),
                ..smrseek_server::ServerConfig::default()
            };
            match smrseek_server::start(config(&peers[0])) {
                Ok(a) => match smrseek_server::start(config(&peers[1])) {
                    Ok(b) => break (a, b, peers),
                    Err(e) => {
                        a.shutdown();
                        assert!(attempt < 5, "could not bind reserved port: {e}");
                    }
                },
                Err(e) => assert!(attempt < 5, "could not bind reserved port: {e}"),
            }
        }
    };

    // Submit 8 distinct sweeps, every one through daemon A. Each must be
    // computed exactly once somewhere in the fleet, and the result must
    // match the offline (in-process, no daemon) replay byte-for-byte.
    let mut forwarded = 0;
    for seed in 0..8u64 {
        let body = format!(r#"{{"trace": {{"profile": "hm_1", "seed": {seed}, "ops": 120}}}}"#);
        let submit = request(&peers[0], "POST", "/v1/jobs", Some(&body));
        assert_eq!(submit.status, 202, "{}", submit.body_str());
        assert!(
            submit.body_str().contains("\"cache\":\"miss\""),
            "distinct seeds never collide: {}",
            submit.body_str()
        );
        // The relay header names the peer that owns (and computed) it.
        let owner_addr = match submit.header("x-smrseek-peer") {
            Some(peer) => {
                assert_eq!(peer, peers[1], "only the other daemon is a relay target");
                forwarded += 1;
                peers[1].clone()
            }
            None => peers[0].clone(),
        };
        let id: u64 = submit
            .body_str()
            .split("\"id\":")
            .nth(1)
            .and_then(|s| {
                s.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .expect("submit body has an id");

        let deadline = Instant::now() + Duration::from_secs(60);
        let fleet_doc = loop {
            let poll = request(&owner_addr, "GET", &format!("/v1/jobs/{id}/result"), None);
            match poll.status {
                200 => break poll.body,
                202 => {
                    assert!(Instant::now() < deadline, "job finished in time");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("poll got {other}: {}", poll.body_str()),
            }
        };

        // Offline truth, computed with the same engine entry point the
        // CLI uses — no daemon involved.
        let profile = smrseek_workloads::profiles::by_name("hm_1").expect("profile exists");
        let source = smrseek_sim::TraceSource::from_profile(
            &profile,
            &smrseek_sim::experiments::ExpOptions { seed, ops: 120 },
        );
        let work = smrseek_server::worker::JobWork {
            source,
            kind: smrseek_server::worker::JobKind::Sweep,
            digest: None,
        };
        let offline = smrseek_server::worker::run_job(&work, std::num::NonZeroUsize::MIN, None)
            .expect("offline replay");
        assert_eq!(
            String::from_utf8(fleet_doc).expect("utf8 result"),
            offline.doc,
            "fleet result is byte-identical to the offline replay (seed {seed})"
        );
    }
    assert!(
        forwarded > 0,
        "with 8 distinct keys and 128 vnodes, some keys must land on daemon B"
    );

    // Fleet-wide accounting: exactly 8 misses total (each unique sweep
    // computed once), split across the two daemons; A forwarded the rest.
    let text_a = request(&peers[0], "GET", "/metrics", None).body_str();
    let text_b = request(&peers[1], "GET", "/metrics", None).body_str();
    let misses_a = metric(&text_a, "smrseekd_result_cache_misses_total").expect("metric");
    let misses_b = metric(&text_b, "smrseekd_result_cache_misses_total").expect("metric");
    assert_eq!(
        misses_a + misses_b,
        8,
        "each unique sweep enqueued exactly once fleet-wide:\n{text_a}\n{text_b}"
    );
    assert_eq!(
        misses_b as usize, forwarded,
        "B only computed forwarded keys"
    );
    let forwarded_metric = text_a
        .lines()
        .find(|l| {
            l.starts_with(&format!(
                "smrseekd_forwarded_total{{peer=\"{}\"}}",
                peers[1]
            ))
        })
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("per-peer forward counter exported");
    assert_eq!(forwarded_metric as usize, forwarded);

    // Submitting a duplicate of a forwarded key through A is a hit on B.
    let dup = request(
        &peers[0],
        "POST",
        "/v1/jobs",
        Some(r#"{"trace": {"profile": "hm_1", "seed": 0, "ops": 120}}"#),
    );
    assert_eq!(dup.status, 200, "{}", dup.body_str());
    assert!(
        dup.body_str().contains("\"cache\":\"hit\""),
        "{}",
        dup.body_str()
    );

    handle_a.shutdown();
    handle_b.shutdown();
}

/// What a burst of concurrent submissions observed.
#[derive(Debug, Default)]
struct LoadReport {
    /// Full responses received (any status).
    completed: u64,
    /// Exchanges that failed or outlived their deadline: a daemon may
    /// answer 503 under backpressure, but must never go silent.
    dropped: u64,
    /// Response count by HTTP status.
    statuses: BTreeMap<u16, u64>,
    /// Nearest-rank latency percentiles over completed exchanges (µs).
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

/// The sorted-sample percentile at quantile `q`: classical nearest-rank,
/// `ceil(q * n)` one-indexed.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The submission body for distinct-job index `i`: a generator-profile
/// trace, so the daemon needs no files and each seed is its own cache key.
fn job_body(i: usize, ops: u64) -> String {
    format!(r#"{{"trace": {{"profile": "hm_1", "seed": {i}, "ops": {ops}}}}}"#)
}

/// Submits `requests` jobs spread over `distinct` seeds from
/// `concurrency` threads, one blocking [`exchange`] at a time each.
fn load(
    addr: &str,
    requests: usize,
    concurrency: usize,
    distinct: usize,
    ops: u64,
    timeout: Duration,
) -> LoadReport {
    let next = AtomicUsize::new(0);
    // `None` is a drop; `Some((status, µs))` a completed exchange.
    let outcomes: Vec<Option<(u16, u64)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..concurrency)
            .map(|_| {
                scope.spawn(|| {
                    let mut outcomes = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            return outcomes;
                        }
                        let raw = request_bytes(
                            addr,
                            "POST",
                            "/v1/jobs",
                            "",
                            &job_body(i % distinct, ops),
                        );
                        let started = Instant::now();
                        let status = exchange(addr, &raw, timeout)
                            .ok()
                            .and_then(|resp| smrseek_net::parse_response(&resp).ok());
                        let elapsed = started.elapsed();
                        outcomes.push(
                            status
                                .filter(|_| elapsed < timeout)
                                .map(|(status, _)| (status, elapsed.as_micros() as u64)),
                        );
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("load thread never panics"))
            .collect()
    });
    let mut report = LoadReport::default();
    let mut samples = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Some((status, us)) => {
                report.completed += 1;
                *report.statuses.entry(status).or_insert(0) += 1;
                samples.push(us);
            }
            None => report.dropped += 1,
        }
    }
    samples.sort_unstable();
    report.p50_us = percentile(&samples, 0.50);
    report.p99_us = percentile(&samples, 0.99);
    report.p999_us = percentile(&samples, 0.999);
    report
}

#[test]
fn percentiles_use_nearest_rank() {
    let sorted: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&sorted, 0.50), 500);
    assert_eq!(percentile(&sorted, 0.99), 990);
    assert_eq!(percentile(&sorted, 0.999), 999);
    assert_eq!(percentile(&sorted, 1.0), 1000);
    assert_eq!(percentile(&[], 0.5), 0);
    assert_eq!(percentile(&[7], 0.999), 7);
}

#[test]
fn job_bodies_are_distinct_by_seed() {
    let a = job_body(0, 100);
    let b = job_body(1, 100);
    assert_ne!(a, b);
    assert!(a.contains("\"seed\": 0"), "{a}");
    smrseek_server::api::parse_job_request(a.as_bytes()).expect("body parses as a job request");
}

#[test]
fn loadgen_thousand_concurrent_submissions_zero_drops() {
    let handle = smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 64,
        ..smrseek_server::ServerConfig::default()
    })
    .expect("start in-process daemon");

    let addr = handle.addr().to_string();
    let report = load(&addr, 1000, 128, 4, 100, Duration::from_secs(60));

    assert_eq!(report.dropped, 0, "no silent drops: {report:?}");
    assert_eq!(
        report.completed, 1000,
        "every submission got a response: {report:?}"
    );
    for status in report.statuses.keys() {
        assert!(
            [200, 202, 503].contains(status),
            "unexpected status {status}: {report:?}"
        );
    }
    assert!(report.p50_us > 0, "latencies were measured: {report:?}");
    assert!(report.p50_us <= report.p99_us && report.p99_us <= report.p999_us);

    // The daemon saw all thousand connections and reaped none of them.
    let text = request(&addr, "GET", "/metrics", None).body_str();
    assert!(
        metric(&text, "smrseekd_connections_accepted_total").expect("accepted metric") >= 1000,
        "{text}"
    );
    assert_eq!(
        metric(&text, "smrseekd_connections_reaped_total"),
        Some(0),
        "healthy clients are never reaped:\n{text}"
    );
    handle.shutdown();
}

#[test]
fn version_flag_prints_and_exits_zero() {
    let out = Command::new(bin())
        .arg("--version")
        .output()
        .expect("run --version");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("smrseek "),
        "version line names the binary: {text}"
    );
}

#[test]
fn usage_errors_always_carry_the_usage_string() {
    for argv in [
        vec!["--ops"],                // flag missing its value
        vec!["table1", "--ops", "x"], // non-integer value
        vec!["gen"],                  // missing operand
        vec!["serve", "--addr"],      // serve flag missing its value
        vec!["frobnicate"],           // unknown command
    ] {
        let out = Command::new(bin()).args(&argv).output().expect("run CLI");
        assert_eq!(out.status.code(), Some(2), "{argv:?} exits 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: smrseek"),
            "{argv:?} stderr carries usage:\n{err}"
        );
    }
}

/// Spawns `smrseek serve` pinned to `addr` as a fleet member. `None`
/// means the reserved port was stolen between release and bind — the
/// caller reserves fresh ports and retries.
fn try_spawn_at(addr: &str, peers: &str) -> Option<Child> {
    let mut child = Command::new(bin())
        .args(["serve", "--addr", addr, "--peers", peers])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn smrseek serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read startup line");
    if !line.contains("listening") {
        let _ = child.kill();
        let _ = child.wait();
        return None;
    }
    // Keep draining stdout so the shutdown message never hits a closed
    // pipe (which would fail the final print and dirty the exit code).
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    Some(child)
}

/// `(name, pid, span_id, parent_span_id, request_id)` rows from one
/// daemon's `GET /v1/trace/<id>` span array.
fn span_rows(spans: &[serde::Value]) -> Vec<(String, u64, String, Option<String>, String)> {
    use serde::Value;
    spans
        .iter()
        .map(|s| {
            (
                s.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned(),
                s.get("pid").and_then(Value::as_u64).expect("pid"),
                s.get("span_id")
                    .and_then(Value::as_str)
                    .expect("span_id")
                    .to_owned(),
                s.get("parent_span_id")
                    .and_then(Value::as_str)
                    .map(str::to_owned),
                s.get("request_id")
                    .and_then(Value::as_str)
                    .expect("request_id")
                    .to_owned(),
            )
        })
        .collect()
}

#[test]
fn forwarded_job_yields_one_stitched_trace_across_two_pids() {
    // Two real `smrseek serve` processes sharing a --peers list, so the
    // stitched trace genuinely spans two OS pids (in-process daemons
    // would share one).
    let (child_a, child_b, peers) = {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let (pa, pb) = reserve_ports();
            let peers = vec![format!("127.0.0.1:{pa}"), format!("127.0.0.1:{pb}")];
            let list = peers.join(",");
            let Some(a) = try_spawn_at(&peers[0], &list) else {
                assert!(attempt < 5, "could not bind reserved ports");
                continue;
            };
            match try_spawn_at(&peers[1], &list) {
                Some(b) => break (a, b, peers),
                None => {
                    terminate(a);
                    assert!(attempt < 5, "could not bind reserved ports");
                }
            }
        }
    };

    // Submit distinct sweeps through A until one forwards to B. A
    // client-chosen request id rides along so every span of the trace
    // carries it on both daemons.
    let mut forwarded = None;
    for seed in 0..8u64 {
        let body = format!(r#"{{"trace": {{"profile": "hm_1", "seed": {seed}, "ops": 120}}}}"#);
        let submit = request_with_id(&peers[0], &body, "rq-stitch");
        assert_eq!(submit.status, 202, "{}", submit.body_str());
        let trace = submit
            .header("x-smrseek-trace")
            .expect("every submission response names its trace context")
            .to_owned();
        if submit.header("x-smrseek-peer").is_some() {
            let id: u64 = submit
                .body_str()
                .split("\"id\":")
                .nth(1)
                .and_then(|s| {
                    s.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .ok()
                })
                .expect("submit body has an id");
            forwarded = Some((trace, id));
            break;
        }
    }
    let (trace_header, id) =
        forwarded.expect("with 8 distinct keys and 128 vnodes, some key lands on daemon B");
    let (trace_id, dispatch_span) = trace_header
        .split_once('-')
        .expect("header is <trace>-<span>");
    assert_eq!(trace_id.len(), 32, "{trace_header}");
    assert_eq!(dispatch_span.len(), 16, "{trace_header}");

    // Wait for the owner to finish so its queue/replay spans exist.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let poll = request(&peers[1], "GET", &format!("/v1/jobs/{id}/result"), None);
        match poll.status {
            200 => break,
            202 => {
                assert!(Instant::now() < deadline, "job finished in time");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("poll got {other}: {}", poll.body_str()),
        }
    }

    // Each daemon serves its own half of the trace.
    let fetch = |addr: &str| {
        let resp = request(addr, "GET", &format!("/v1/trace/{trace_id}"), None);
        assert_eq!(resp.status, 200, "{addr}: {}", resp.body_str());
        let value: serde::Value =
            serde_json::from_str(&resp.body_str()).expect("trace body is JSON");
        assert_eq!(
            value.get("trace_id").and_then(serde::Value::as_str),
            Some(trace_id)
        );
        span_rows(
            value
                .get("spans")
                .and_then(serde::Value::as_array)
                .expect("spans array"),
        )
    };
    let rows_a = fetch(&peers[0]);
    let rows_b = fetch(&peers[1]);

    let find = |rows: &[(String, u64, String, Option<String>, String)], name: &str| {
        rows.iter()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("{name} span present in {rows:?}"))
            .clone()
    };
    let a_dispatch = find(&rows_a, "dispatch");
    let a_forward = find(&rows_a, "forward");
    let b_dispatch = find(&rows_b, "dispatch");
    let b_queue = find(&rows_b, "queue");
    let b_replay = find(&rows_b, "replay");
    assert_eq!(
        rows_a.len(),
        2,
        "origin records dispatch+forward: {rows_a:?}"
    );
    assert_eq!(
        rows_b.len(),
        3,
        "owner records dispatch+queue+replay: {rows_b:?}"
    );

    // One trace, two pids, five spans, fully linked: the origin's
    // dispatch is the root, its forward child carries the hop, the
    // owner's dispatch parents to the forward span, and queue/replay
    // hang off the owner's dispatch.
    assert_ne!(a_dispatch.1, b_dispatch.1, "two distinct OS pids");
    assert_eq!(
        a_dispatch.2, dispatch_span,
        "response header names the root span"
    );
    assert_eq!(a_dispatch.3, None, "root span has no parent");
    assert_eq!(a_forward.3.as_deref(), Some(a_dispatch.2.as_str()));
    assert_eq!(b_dispatch.3.as_deref(), Some(a_forward.2.as_str()));
    assert_eq!(b_queue.3.as_deref(), Some(b_dispatch.2.as_str()));
    assert_eq!(b_replay.3.as_deref(), Some(b_dispatch.2.as_str()));
    for (name, _, _, _, request_id) in [&a_dispatch, &a_forward, &b_dispatch, &b_queue, &b_replay] {
        assert_eq!(
            request_id, "rq-stitch",
            "{name} carries the client-chosen request id on both daemons"
        );
    }

    // The origin's /healthz shows the fleet view, including the forward
    // it just made.
    let health = request(&peers[0], "GET", "/healthz", None).body_str();
    assert!(health.contains("fleet_peers: 2"), "{health}");
    assert!(health.contains("self_vnodes: 64"), "{health}");
    assert!(
        health.contains(&format!("peer {} forwarded=1 errors=0", peers[1])),
        "{health}"
    );

    // `smrseek trace` stitches both halves into one Perfetto file with
    // cross-pid flow arrows.
    let out = temp_dir("stitched").join("trace.json");
    let output = Command::new(bin())
        .args([
            "trace",
            trace_id,
            "--peers",
            &peers.join(","),
            "--out",
            out.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run smrseek trace");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let summary = String::from_utf8_lossy(&output.stdout);
    assert!(
        summary.contains("5 span(s) across 2 process(es) from 2 daemon(s)"),
        "{summary}"
    );
    let doc = std::fs::read_to_string(&out).expect("trace file written");
    assert!(
        doc.contains("\"ph\":\"s\"") && doc.contains("\"ph\":\"f\""),
        "cross-pid flow arrows present: {doc}"
    );

    terminate(child_a);
    terminate(child_b);
}
