//! The readiness loop: accept, frame, dispatch, respond — never blocking.
//!
//! One reactor thread owns every connection. Each connection walks a
//! state machine: **read head → read body** (via [`RequestFramer`]),
//! **dispatch** (inline for cheap handlers, on the auxiliary pool via
//! [`Action::Defer`] for anything that may block), then **write response**
//! and close — or **stream**, following an [`EventStream`] until it
//! closes. Connections that stall mid-request are reaped when the idle
//! timeout lapses, so a slow-loris client pins one slab slot for at most
//! `idle_timeout`, not a thread.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::conn::{FrameStatus, FramingLimits, Request, RequestFramer};
use crate::poller::{Event, Interest, Poller};
use crate::stream::EventStream;
use crate::wake::Waker;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Request framing size limits.
    pub limits: FramingLimits,
    /// A connection that makes no progress for this long is reaped —
    /// covers slow-loris heads, stalled bodies, and unread responses.
    /// Streaming connections are exempt (they idle between events).
    pub idle_timeout: Duration,
    /// Streaming connections receive an SSE keep-alive comment after this
    /// much quiet, which also detects silently vanished subscribers.
    pub ping_interval: Duration,
    /// Threads in the auxiliary pool that runs [`Action::Defer`] work.
    pub aux_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            limits: FramingLimits::default(),
            idle_timeout: Duration::from_secs(10),
            ping_interval: Duration::from_secs(10),
            aux_threads: 4,
        }
    }
}

/// How a dispatched request is answered.
pub enum Action {
    /// Write these pre-serialized response bytes, then close.
    Respond(Vec<u8>),
    /// Write `head` (status line + headers), then follow `stream`: every
    /// chunk appended — including those appended before the subscriber
    /// arrived — is written in order, and the connection closes once the
    /// stream closes and all chunks are flushed.
    Stream {
        /// Response head bytes, through the blank line.
        head: Vec<u8>,
        /// The chunk log to follow.
        stream: Arc<EventStream>,
    },
    /// Run this closure on the auxiliary pool — for handlers that touch
    /// disk, take contended locks, or call out to peers — and apply the
    /// action it returns. The reactor thread never runs it.
    Defer(Box<dyn FnOnce() -> Action + Send + 'static>),
}

/// Decides how each complete request is answered.
///
/// Implemented for any `Fn(Request) -> Action`. The argument is the
/// request as parsed by the [`RequestFramer`]; heads the framer rejects
/// are answered by the reactor and never reach the dispatcher. Runs on
/// the reactor thread, so inline work must be quick — use
/// [`Action::Defer`] otherwise.
pub trait Dispatcher: Send + Sync + 'static {
    /// Handles one framed request.
    fn dispatch(&self, request: Request) -> Action;
}

impl<F> Dispatcher for F
where
    F: Fn(Request) -> Action + Send + Sync + 'static,
{
    fn dispatch(&self, request: Request) -> Action {
        self(request)
    }
}

/// Counters the reactor maintains, shared for `/metrics` export.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// accept(2) failures (e.g. fd exhaustion).
    pub accept_errors: AtomicU64,
    /// Currently open connections (gauge).
    pub active: AtomicU64,
    /// Connections reaped by the idle timeout.
    pub reaped_idle: AtomicU64,
    /// Requests handed to the auxiliary pool.
    pub deferred: AtomicU64,
    /// Times the reactor woke from `epoll_wait`.
    pub wakeups: AtomicU64,
    /// Connections currently following an event stream (gauge).
    pub streaming: AtomicU64,
}

/// A plain-fn accessor for one [`LoopStats`] counter, usable as a
/// metrics callback without capturing anything.
pub type StatReader = fn(&LoopStats) -> u64;

impl LoopStats {
    /// Stable `(name, reader)` pairs for every event-loop counter, in
    /// exposition order. This is the hook a metrics registry uses to
    /// surface the reactor's counters as callback-backed series without
    /// this crate growing a dependency on any metrics machinery: each
    /// reader is a plain fn the caller can wrap in a closure over its
    /// `Arc<LoopStats>`.
    pub fn readers() -> [(&'static str, StatReader); 7] {
        fn read(cell: &AtomicU64) -> u64 {
            cell.load(Ordering::Relaxed)
        }
        [
            ("accepted", |s: &LoopStats| read(&s.accepted)),
            ("accept_errors", |s: &LoopStats| read(&s.accept_errors)),
            ("active", |s: &LoopStats| read(&s.active)),
            ("reaped_idle", |s: &LoopStats| read(&s.reaped_idle)),
            ("deferred", |s: &LoopStats| read(&s.deferred)),
            ("wakeups", |s: &LoopStats| read(&s.wakeups)),
            ("streaming", |s: &LoopStats| read(&s.streaming)),
        ]
    }
}

type AuxTask = Box<dyn FnOnce() -> Action + Send + 'static>;

struct AuxQueue {
    tasks: VecDeque<(usize, u64, AuxTask)>,
    shutdown: bool,
}

struct AuxShared {
    queue: Mutex<AuxQueue>,
    ready: Condvar,
    completions: Mutex<Vec<(usize, u64, Action)>>,
}

/// Fixed pool of threads running deferred dispatch work off the reactor.
struct AuxPool {
    shared: Arc<AuxShared>,
    handles: Vec<JoinHandle<()>>,
}

impl AuxPool {
    fn new(threads: usize, waker: Waker) -> AuxPool {
        let shared = Arc::new(AuxShared {
            queue: Mutex::new(AuxQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(threads.max(1));
        for i in 0..threads.max(1) {
            let shared = Arc::clone(&shared);
            let waker = waker.clone();
            let handle = thread::Builder::new()
                .name(format!("smrseek-net-aux-{i}"))
                .spawn(move || loop {
                    let task = {
                        let mut queue = shared.queue.lock().expect("aux queue lock");
                        loop {
                            if let Some(task) = queue.tasks.pop_front() {
                                break task;
                            }
                            if queue.shutdown {
                                return;
                            }
                            queue = shared.ready.wait(queue).expect("aux queue wait");
                        }
                    };
                    let (slot, gen, work) = task;
                    let mut action = work();
                    // Chained defers run here directly; only terminal
                    // actions go back to the reactor.
                    while let Action::Defer(next) = action {
                        action = next();
                    }
                    shared
                        .completions
                        .lock()
                        .expect("aux completions lock")
                        .push((slot, gen, action));
                    waker.wake();
                })
                .expect("spawn aux thread");
            handles.push(handle);
        }
        AuxPool { shared, handles }
    }

    fn submit(&self, slot: usize, gen: u64, work: AuxTask) {
        let mut queue = self.shared.queue.lock().expect("aux queue lock");
        queue.tasks.push_back((slot, gen, work));
        drop(queue);
        self.shared.ready.notify_one();
    }

    fn drain_completions(&self) -> Vec<(usize, u64, Action)> {
        std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("aux completions lock"),
        )
    }

    fn shutdown(&mut self) {
        self.shared.queue.lock().expect("aux queue lock").shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

enum State {
    /// Accumulating request bytes.
    Reading(RequestFramer),
    /// Request complete; a dispatch (inline or deferred) owns the turn.
    Dispatching,
    /// Flushing the response, then close.
    Writing,
    /// Following an event stream.
    Streaming {
        stream: Arc<EventStream>,
        next: usize,
    },
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    state: State,
    wbuf: Vec<u8>,
    wpos: usize,
    deadline: Option<Instant>,
    last_activity: Instant,
    interest: Interest,
}

enum FlushOutcome {
    /// Everything buffered was written.
    Drained,
    /// The socket filled up; EPOLLOUT will resume the flush.
    Pending,
    /// The connection died and was closed.
    Gone,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    waker: Waker,
    dispatcher: Arc<dyn Dispatcher>,
    config: NetConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    streaming: Vec<usize>,
    aux: AuxPool,
    stats: Arc<LoopStats>,
    shutdown: Arc<AtomicBool>,
    next_gen: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut last_sweep = Instant::now();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            events.clear();
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .is_err()
            {
                break;
            }
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_event((token - FIRST_CONN) as usize, ev),
                }
            }
            for (slot, gen, action) in self.aux.drain_completions() {
                self.on_completion(slot, gen, action);
            }
            self.pump_streams();
            let now = Instant::now();
            if now.duration_since(last_sweep) >= Duration::from_millis(50) {
                last_sweep = now;
                self.sweep(now);
            }
        }
        self.aux.shutdown();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_gen += 1;
                    let now = Instant::now();
                    let conn = Conn {
                        stream,
                        gen: self.next_gen,
                        state: State::Reading(RequestFramer::new(self.config.limits)),
                        wbuf: Vec::new(),
                        wpos: 0,
                        deadline: Some(now + self.config.idle_timeout),
                        last_activity: now,
                        interest: Interest::READ,
                    };
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.conns[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    let fd = self.conns[slot]
                        .as_ref()
                        .expect("just inserted")
                        .stream
                        .as_raw_fd();
                    if self
                        .poller
                        .add(fd, slot as u64 + FIRST_CONN, Interest::READ)
                        .is_err()
                    {
                        self.conns[slot] = None;
                        self.free.push(slot);
                        continue;
                    }
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.active.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    fn conn_event(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return;
        };
        if ev.closed {
            // Hard error/hangup: nothing more can be exchanged.
            let _ = conn;
            self.close(slot);
            return;
        }
        if ev.readable && matches!(conn.state, State::Reading(_)) {
            self.on_readable(slot);
        }
        if let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) {
            if ev.writable && !matches!(conn.state, State::Reading(_) | State::Dispatching) {
                self.flush_and_settle(slot);
            }
        }
    }

    fn on_readable(&mut self, slot: usize) {
        let mut scratch = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            if !matches!(conn.state, State::Reading(_)) {
                return;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // Peer closed before sending a full request.
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    let status = match &mut conn.state {
                        State::Reading(framer) => framer.push(&scratch[..n]),
                        _ => unreachable!("checked above"),
                    };
                    match status {
                        FrameStatus::Partial => continue,
                        FrameStatus::Complete(request) => {
                            self.dispatch(slot, request);
                            return;
                        }
                        FrameStatus::Oversized(msg) => {
                            let status = if msg.contains("head") { 431 } else { 413 };
                            let bytes = framing_response(status, msg);
                            self.settle_dispatch(slot);
                            self.set_response(slot, bytes);
                            return;
                        }
                        FrameStatus::Malformed(msg) => {
                            let bytes = framing_response(400, msg);
                            self.settle_dispatch(slot);
                            self.set_response(slot, bytes);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Marks the request consumed: no more read interest, no deadline
    /// until the response path sets one.
    fn settle_dispatch(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
            conn.state = State::Dispatching;
            conn.deadline = None;
        }
        self.set_interest(slot, Interest::NONE);
    }

    fn dispatch(&mut self, slot: usize, request: Request) {
        self.settle_dispatch(slot);
        let action = self.dispatcher.dispatch(request);
        self.apply_action(slot, action);
    }

    fn on_completion(&mut self, slot: usize, gen: u64, action: Action) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return;
        };
        // A stale completion for a slot that was reused must not leak into
        // the new connection.
        if conn.gen != gen || !matches!(conn.state, State::Dispatching) {
            return;
        }
        self.apply_action(slot, action);
    }

    fn apply_action(&mut self, slot: usize, action: Action) {
        match action {
            Action::Respond(bytes) => self.set_response(slot, bytes),
            Action::Stream { head, stream } => self.begin_stream(slot, head, stream),
            Action::Defer(work) => {
                let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
                    return;
                };
                self.stats.deferred.fetch_add(1, Ordering::Relaxed);
                self.aux.submit(slot, conn.gen, work);
            }
        }
    }

    fn set_response(&mut self, slot: usize, bytes: Vec<u8>) {
        let idle = self.config.idle_timeout;
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        conn.wbuf = bytes;
        conn.wpos = 0;
        conn.state = State::Writing;
        conn.deadline = Some(Instant::now() + idle);
        self.flush_and_settle(slot);
    }

    fn begin_stream(&mut self, slot: usize, head: Vec<u8>, stream: Arc<EventStream>) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            stream.set_waker(self.waker.clone());
            conn.wbuf = head;
            conn.wpos = 0;
            conn.state = State::Streaming { stream, next: 0 };
            conn.deadline = None;
        }
        self.stats.streaming.fetch_add(1, Ordering::Relaxed);
        self.streaming.push(slot);
        self.pump_stream(slot);
    }

    /// Pulls newly appended chunks into the write buffer and flushes.
    fn pump_stream(&mut self, slot: usize) {
        let finished = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            let State::Streaming { stream, next } = &mut conn.state else {
                return;
            };
            while let Some(chunk) = stream.chunk(*next) {
                conn.wbuf.extend_from_slice(&chunk);
                *next += 1;
            }
            stream.is_closed() && stream.chunk(*next).is_none()
        };
        match self.flush_and_settle(slot) {
            FlushOutcome::Drained if finished => self.close(slot),
            _ => {}
        }
    }

    fn pump_streams(&mut self) {
        for slot in self.streaming.clone() {
            self.pump_stream(slot);
        }
    }

    /// Flushes pending bytes and fixes up interest/lifecycle: a drained
    /// `Writing` connection closes, a drained `Streaming` one drops write
    /// interest and waits for more chunks.
    fn flush_and_settle(&mut self, slot: usize) -> FlushOutcome {
        let outcome = loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return FlushOutcome::Gone;
            };
            if conn.wpos >= conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                break FlushOutcome::Drained;
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close(slot);
                    return FlushOutcome::Gone;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break FlushOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return FlushOutcome::Gone;
                }
            }
        };
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return FlushOutcome::Gone;
        };
        match (&conn.state, &outcome) {
            (State::Writing, FlushOutcome::Drained) => {
                self.close(slot);
                FlushOutcome::Drained
            }
            (_, FlushOutcome::Drained) => {
                self.set_interest(slot, Interest::NONE);
                FlushOutcome::Drained
            }
            (_, FlushOutcome::Pending) => {
                self.set_interest(slot, Interest::WRITE);
                FlushOutcome::Pending
            }
            (_, FlushOutcome::Gone) => FlushOutcome::Gone,
        }
    }

    fn set_interest(&mut self, slot: usize, interest: Interest) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        if self
            .poller
            .modify(fd, slot as u64 + FIRST_CONN, interest)
            .is_ok()
        {
            if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                conn.interest = interest;
            }
        }
    }

    fn sweep(&mut self, now: Instant) {
        let mut reap = Vec::new();
        let mut ping = Vec::new();
        for (slot, conn) in self.conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            if conn.deadline.is_some_and(|d| now >= d) {
                reap.push(slot);
            } else if matches!(conn.state, State::Streaming { .. })
                && now.duration_since(conn.last_activity) >= self.config.ping_interval
            {
                ping.push(slot);
            }
        }
        for slot in reap {
            self.stats.reaped_idle.fetch_add(1, Ordering::Relaxed);
            self.close(slot);
        }
        for slot in ping {
            if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                conn.wbuf.extend_from_slice(b": ping\n\n");
                conn.last_activity = now;
            }
            self.flush_and_settle(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.stats.active.fetch_sub(1, Ordering::Relaxed);
        if matches!(conn.state, State::Streaming { .. }) {
            self.stats.streaming.fetch_sub(1, Ordering::Relaxed);
            self.streaming.retain(|&s| s != slot);
        }
        self.free.push(slot);
    }
}

/// Minimal JSON error response for framing-level failures, written without
/// consulting the dispatcher (the request head was rejected).
fn framing_response(status: u16, message: &str) -> Vec<u8> {
    let reason = match status {
        400 => "Bad Request",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let body = format!("{{\"error\":\"{message}\"}}");
    format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A running reactor. Dropping it (or calling [`shutdown`]) stops the
/// loop, closes every connection, and joins the reactor + aux threads.
///
/// [`shutdown`]: NetHandle::shutdown
#[derive(Debug)]
pub struct NetHandle {
    local_addr: SocketAddr,
    stats: Arc<LoopStats>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl NetHandle {
    /// The bound address of the listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The reactor's shared counters.
    pub fn stats(&self) -> Arc<LoopStats> {
        Arc::clone(&self.stats)
    }

    /// A waker any thread can use to nudge the loop.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Stops the loop and joins its threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a reactor serving `listener` with `dispatcher`.
///
/// The listener is switched to nonblocking mode and handed to a dedicated
/// reactor thread; the returned handle stops it.
pub fn serve(
    listener: TcpListener,
    dispatcher: Arc<dyn Dispatcher>,
    config: NetConfig,
) -> io::Result<NetHandle> {
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.add(waker.read_fd(), TOKEN_WAKER, Interest::READ)?;
    let stats = Arc::new(LoopStats::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let aux = AuxPool::new(config.aux_threads, waker.clone());
    let reactor = Reactor {
        poller,
        listener,
        waker: waker.clone(),
        dispatcher,
        config,
        conns: Vec::new(),
        free: Vec::new(),
        streaming: Vec::new(),
        aux,
        stats: Arc::clone(&stats),
        shutdown: Arc::clone(&shutdown),
        next_gen: 0,
    };
    let thread = thread::Builder::new()
        .name("smrseek-net".to_string())
        .spawn(move || reactor.run())?;
    Ok(NetHandle {
        local_addr,
        stats,
        shutdown,
        waker,
        thread: Some(thread),
    })
}
