//! End-to-end tests of the connection server with real sockets.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use smrseek_net::{
    serve, Action, EventStream, FramingLimits, NetConfig, NetHandle, Request, Response,
};

/// A 200 text answer carrying `body`.
fn answer(body: &str) -> Action {
    Action::Respond(Response::text(200, body))
}

/// The exact bytes of a rejection the server writes itself.
fn rejection_bytes(status_line: &str, error: &str, extra: &str) -> String {
    let body = format!("{{\"error\":\"{error}\"}}");
    format!(
        "HTTP/1.1 {status_line}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\
         connection: close\r\n{extra}\r\n{body}",
        body.len()
    )
}

fn quick_config() -> NetConfig {
    NetConfig {
        limits: FramingLimits::default(),
        idle_timeout: Duration::from_millis(400),
        ping_interval: Duration::from_millis(200),
        max_connections: 512,
    }
}

/// `method target body=<len>`: what the echo dispatchers answer with.
fn describe(request: &Request) -> String {
    format!(
        "{} {} body={}",
        request.method,
        request.target,
        request.body.len()
    )
}

/// Starts a server whose dispatcher echoes the parsed request line and
/// body length.
fn echo_server(config: NetConfig) -> NetHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    serve(
        listener,
        Arc::new(|request: Request| answer(&describe(&request))),
        config,
    )
    .expect("serve")
}

fn roundtrip(handle: &NetHandle, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

#[test]
fn inline_respond_roundtrip() {
    let handle = echo_server(quick_config());
    let resp = roundtrip(&handle, b"GET / HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "got: {resp}");
    assert!(resp.ends_with("GET / body=0"), "got: {resp}");
    assert_eq!(handle.stats().accepted.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn blocking_dispatch_does_not_hold_up_other_connections() {
    // The dispatcher runs on the connection's own thread and may block:
    // while a slow request sits inside it, a quick one is still answered.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gate = Mutex::new((entered_tx, release_rx));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(move |request: Request| {
            if request.target == "/slow" {
                let gate = gate.lock().expect("gate lock");
                gate.0.send(()).expect("signal entry");
                gate.1
                    .recv_timeout(Duration::from_secs(10))
                    .expect("released");
            }
            answer(&describe(&request))
        }),
        quick_config(),
    )
    .expect("serve");
    let mut slow = TcpStream::connect(handle.local_addr()).expect("connect");
    slow.write_all(b"POST /slow HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc")
        .expect("write");
    entered_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("slow request dispatched");
    let quick = roundtrip(&handle, b"GET /quick HTTP/1.1\r\n\r\n");
    assert!(quick.ends_with("GET /quick body=0"), "got: {quick}");
    release_tx.send(()).expect("release");
    let mut out = String::new();
    slow.read_to_string(&mut out).expect("read");
    assert!(out.ends_with("POST /slow body=3"), "got: {out}");
    handle.shutdown();
}

#[test]
fn many_concurrent_connections_all_answered() {
    let handle = echo_server(NetConfig {
        idle_timeout: Duration::from_secs(5),
        ..quick_config()
    });
    let addr = handle.local_addr();
    let mut conns: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Interleave partial writes so many requests are in flight at once.
    for stream in &mut conns {
        stream
            .write_all(b"GET /a HTTP/1.1\r\n")
            .expect("write head");
    }
    for stream in &mut conns {
        stream.write_all(b"\r\n").expect("finish head");
    }
    for mut stream in conns {
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "got: {out}");
    }
    assert_eq!(handle.stats().accepted.load(Ordering::Relaxed), 64);
    handle.shutdown();
}

#[test]
fn stalled_mid_head_connection_is_reaped() {
    let handle = echo_server(quick_config());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    // Send part of a request head and then stall: a slow-loris client.
    stream
        .write_all(b"GET /slow HTTP/1.1\r\nx-part")
        .expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut out = Vec::new();
    // The server must reap us (EOF) rather than waiting forever.
    stream.read_to_end(&mut out).expect("read to eof");
    assert!(out.is_empty(), "no response expected, got {out:?}");
    assert_eq!(handle.stats().reaped_idle.load(Ordering::Relaxed), 1);
    assert_eq!(handle.stats().active.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn stalled_mid_body_connection_is_reaped() {
    let handle = echo_server(quick_config());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 100\r\n\r\nonly-a-bit")
        .expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read to eof");
    assert!(out.is_empty(), "no response expected, got {out:?}");
    assert_eq!(handle.stats().reaped_idle.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn oversized_head_gets_431() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(|_request: Request| answer("unreachable")),
        NetConfig {
            limits: FramingLimits {
                max_head: 256,
                max_body: 1024,
            },
            ..quick_config()
        },
    )
    .expect("serve");
    let mut request = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
    request.extend(vec![b'a'; 512]);
    request.extend_from_slice(b"\r\n\r\n");
    let resp = roundtrip(&handle, &request);
    assert_eq!(
        resp,
        rejection_bytes(
            "431 Request Header Fields Too Large",
            "request head exceeds limit",
            ""
        )
    );
    handle.shutdown();
}

#[test]
fn oversized_body_gets_413() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(|_request: Request| answer("unreachable")),
        NetConfig {
            limits: FramingLimits {
                max_head: 1024,
                max_body: 16,
            },
            ..quick_config()
        },
    )
    .expect("serve");
    let resp = roundtrip(&handle, b"POST / HTTP/1.1\r\ncontent-length: 64\r\n\r\n");
    assert_eq!(
        resp,
        rejection_bytes("413 Payload Too Large", "request body exceeds limit", "")
    );
    handle.shutdown();
}

#[test]
fn streaming_replays_history_and_follows_appends() {
    let stream_log = Arc::new(EventStream::new());
    // Two chunks exist before any subscriber connects.
    stream_log.append(b"event: a\ndata: 1\n\n");
    stream_log.append(b"event: b\ndata: 2\n\n");
    let dispatch_log = Arc::clone(&stream_log);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(move |_request: Request| Action::Stream {
            head:
                b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\nconnection: close\r\n\r\n"
                    .to_vec(),
            stream: Arc::clone(&dispatch_log),
        }),
        quick_config(),
    )
    .expect("serve");
    let mut conn = TcpStream::connect(handle.local_addr()).expect("connect");
    conn.write_all(b"GET /events HTTP/1.1\r\n\r\n")
        .expect("write");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // Late append + close: the subscriber sees history, the live event,
    // and then EOF.
    std::thread::sleep(Duration::from_millis(100));
    stream_log.append(b"event: c\ndata: 3\n\n");
    stream_log.close();
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read");
    assert!(out.contains("text/event-stream"), "got: {out}");
    let a = out.find("event: a").expect("chunk a");
    let b = out.find("event: b").expect("chunk b");
    let c = out.find("event: c").expect("chunk c");
    assert!(a < b && b < c, "events out of order: {out}");
    handle.shutdown();
}

#[test]
fn idle_stream_receives_ping_comments() {
    let stream_log = Arc::new(EventStream::new());
    let dispatch_log = Arc::clone(&stream_log);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(move |_request: Request| Action::Stream {
            head:
                b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\nconnection: close\r\n\r\n"
                    .to_vec(),
            stream: Arc::clone(&dispatch_log),
        }),
        quick_config(),
    )
    .expect("serve");
    let mut conn = TcpStream::connect(handle.local_addr()).expect("connect");
    conn.write_all(b"GET /events HTTP/1.1\r\n\r\n")
        .expect("write");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // No events arrive; after ping_interval the server writes a comment.
    std::thread::sleep(Duration::from_millis(600));
    stream_log.close();
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read");
    assert!(out.contains(": ping"), "expected keep-alive comment: {out}");
    handle.shutdown();
}

#[test]
fn bad_request_line_and_version_get_400_without_dispatch() {
    let dispatched = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&dispatched);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(move |_request: Request| {
            seen.fetch_add(1, Ordering::Relaxed);
            answer("unreachable")
        }),
        quick_config(),
    )
    .expect("serve");
    for (request, error) in [
        (&b"NOT-HTTP\r\n\r\n"[..], "bad request line"),
        (b"GET /x HTTP/2.0\r\n\r\n", "unsupported HTTP version"),
    ] {
        let resp = roundtrip(&handle, request);
        assert_eq!(resp, rejection_bytes("400 Bad Request", error, ""));
    }
    assert_eq!(dispatched.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn malformed_content_length_gets_400() {
    let handle = echo_server(quick_config());
    let resp = roundtrip(&handle, b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "got: {resp}");
    handle.shutdown();
}

/// Polls `read` until it returns `want`, for at most five seconds.
fn wait_for(what: &str, want: u64, read: impl Fn() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read() != want {
        assert!(Instant::now() < deadline, "{what} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn connection_over_the_cap_gets_503() {
    let handle = echo_server(NetConfig {
        idle_timeout: Duration::from_secs(5),
        max_connections: 2,
        ..quick_config()
    });
    let stats = handle.stats();
    // Two clients hold both slots by stalling mid-head.
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
            stream.write_all(b"GET /held HTTP/1.1\r\n").expect("write");
            stream
        })
        .collect();
    wait_for("active", 2, || stats.active.load(Ordering::Relaxed));
    // The third is answered by the accept thread and closed; it reads
    // without writing, so no unread request bytes can reset the close.
    let mut third = TcpStream::connect(handle.local_addr()).expect("connect");
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut out = String::new();
    third.read_to_string(&mut out).expect("read");
    // `retry-after` follows `connection: close`, like every other 503.
    assert_eq!(
        out,
        rejection_bytes(
            "503 Service Unavailable",
            "too many connections",
            "retry-after: 1\r\n"
        )
    );
    assert_eq!(stats.refused.load(Ordering::Relaxed), 1);
    assert_eq!(stats.active.load(Ordering::Relaxed), 2);
    // Freeing a slot lets the next connection through.
    drop(held);
    wait_for("active", 0, || stats.active.load(Ordering::Relaxed));
    let resp = roundtrip(&handle, b"GET /after HTTP/1.1\r\n\r\n");
    assert!(resp.ends_with("GET /after body=0"), "got: {resp}");
    assert_eq!(stats.accepted.load(Ordering::Relaxed), 4);
    handle.shutdown();
}

#[test]
fn many_concurrent_stream_subscribers_all_follow_to_close() {
    // 256 subscribers, all opened from this one thread: the server runs
    // one thread per subscriber (257 with the accept thread), well under
    // the default cap.
    const SUBSCRIBERS: usize = 256;
    let stream_log = Arc::new(EventStream::new());
    stream_log.append(b"event: a\ndata: 1\n\n");
    let dispatch_log = Arc::clone(&stream_log);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(move |_request: Request| Action::Stream {
            head:
                b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\nconnection: close\r\n\r\n"
                    .to_vec(),
            stream: Arc::clone(&dispatch_log),
        }),
        NetConfig {
            idle_timeout: Duration::from_secs(10),
            ping_interval: Duration::from_secs(10),
            ..quick_config()
        },
    )
    .expect("serve");
    let stats = handle.stats();
    let mut conns: Vec<TcpStream> = (0..SUBSCRIBERS)
        .map(|_| TcpStream::connect(handle.local_addr()).expect("connect"))
        .collect();
    for conn in &mut conns {
        conn.write_all(b"GET /events HTTP/1.1\r\n\r\n")
            .expect("write");
    }
    wait_for("streaming", SUBSCRIBERS as u64, || {
        stats.streaming.load(Ordering::Relaxed)
    });
    stream_log.append(b"event: b\ndata: 2\n\n");
    stream_log.close();
    for mut conn in conns {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut out = String::new();
        conn.read_to_string(&mut out).expect("read");
        let a = out.find("event: a").expect("history chunk");
        let b = out.find("event: b").expect("live chunk");
        assert!(a < b, "events out of order: {out}");
    }
    wait_for("active", 0, || stats.active.load(Ordering::Relaxed));
    assert_eq!(stats.refused.load(Ordering::Relaxed), 0);
    assert_eq!(stats.reaped_idle.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn shutdown_closes_open_streams_and_stalled_requests() {
    let stream_log = Arc::new(EventStream::new());
    let dispatch_log = Arc::clone(&stream_log);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::new(move |_request: Request| Action::Stream {
            head: b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n".to_vec(),
            stream: Arc::clone(&dispatch_log),
        }),
        NetConfig {
            idle_timeout: Duration::from_secs(30),
            ping_interval: Duration::from_secs(30),
            ..quick_config()
        },
    )
    .expect("serve");
    let stats = handle.stats();
    let mut streaming = TcpStream::connect(handle.local_addr()).expect("connect");
    streaming
        .write_all(b"GET /events HTTP/1.1\r\n\r\n")
        .expect("write");
    let mut stalled = TcpStream::connect(handle.local_addr()).expect("connect");
    stalled.write_all(b"GET /x HTTP/1.1\r\n").expect("write");
    wait_for("streaming", 1, || stats.streaming.load(Ordering::Relaxed));
    wait_for("active", 2, || stats.active.load(Ordering::Relaxed));
    // Neither the open stream nor the stalled request may hold shutdown
    // for its 30 s timeouts: every connection is closed and joined.
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited {:?}",
        started.elapsed()
    );
    for stream in [&mut streaming, &mut stalled] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
    }
    assert_eq!(stats.active.load(Ordering::Relaxed), 0);
    assert_eq!(stats.streaming.load(Ordering::Relaxed), 0);
}
