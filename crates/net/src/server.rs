//! [`serve`]: one accept thread, one thread per open connection. Two
//! absolute deadlines bound what a client can hold: the whole request
//! must arrive within `idle_timeout` of accept, and each response write
//! must finish within `idle_timeout` of its start, so a stalled client
//! pins its thread for at most `idle_timeout`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::conn::{FrameStatus, FramingLimits, Request, RequestFramer};
use crate::http::Response;
use crate::stream::EventStream;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Request framing size limits.
    pub limits: FramingLimits,
    /// The whole request must arrive within this long of accept, and
    /// every response write must finish within this long of its start;
    /// a connection that misses either deadline is closed and counted in
    /// [`LoopStats::reaped_idle`].
    pub idle_timeout: Duration,
    /// Streaming connections receive an SSE keep-alive comment after this
    /// much quiet, which also detects silently vanished subscribers.
    pub ping_interval: Duration,
    /// Open connections (each one thread) above which a new connection
    /// is answered 503 by the accept thread and closed.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            limits: FramingLimits::default(),
            idle_timeout: Duration::from_secs(10),
            ping_interval: Duration::from_secs(10),
            max_connections: 512,
        }
    }
}

/// How a dispatched request is answered.
pub enum Action {
    /// Write this response, then close.
    Respond(Response),
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
}

/// Decides how each complete request is answered.
///
/// Implemented for any `Fn(Request) -> Action`. The argument is the
/// request as parsed by the [`RequestFramer`]; heads the framer rejects
/// are answered by the server and never reach the dispatcher. Runs on the
/// connection's own thread, so it may block.
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

/// Counters the server maintains, shared for `/metrics` export.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Connections accepted since start, refused ones included.
    pub accepted: AtomicU64,
    /// accept(2) and thread-spawn failures (e.g. fd exhaustion).
    pub accept_errors: AtomicU64,
    /// Currently open connections (gauge).
    pub active: AtomicU64,
    /// Connections closed for missing a request or response deadline.
    pub reaped_idle: AtomicU64,
    /// Connections answered 503 because `max_connections` were open (or,
    /// rarely, no thread could be started for them).
    pub refused: AtomicU64,
    /// Connections currently following an event stream (gauge).
    pub streaming: AtomicU64,
}

/// An open connection as the shutdown path sees it: a handle on its
/// socket, and the stream it follows once it streams.
struct Open {
    socket: Arc<TcpStream>,
    following: Option<Arc<EventStream>>,
}

/// An accepted connection on its way to a thread.
struct Accepted {
    id: u64,
    socket: Arc<TcpStream>,
    at: Instant,
}

/// Accepted connections waiting for a thread, and the threads parked
/// waiting for one.
#[derive(Default)]
struct Handoff {
    queue: VecDeque<Accepted>,
    parked: usize,
}

struct Shared {
    dispatcher: Arc<dyn Dispatcher>,
    config: NetConfig,
    stats: Arc<LoopStats>,
    stop: AtomicBool,
    open: Mutex<HashMap<u64, Open>>,
    handoff: Mutex<Handoff>,
    arrived: Condvar,
}

/// Unregisters a connection when its thread is done with it, also when
/// the dispatcher panicked, so the cap never counts a dead connection.
struct OpenGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for OpenGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut open) = self.shared.open.lock() {
            open.remove(&self.id);
        }
        self.shared.stats.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Time left before `deadline`, or a `TimedOut` error once it has passed.
fn left(deadline: Instant) -> io::Result<Duration> {
    match deadline.checked_duration_since(Instant::now()) {
        Some(d) if !d.is_zero() => Ok(d),
        _ => Err(io::ErrorKind::TimedOut.into()),
    }
}

/// Writes all of `bytes`, finishing within `idle` of the call.
fn write_within(mut socket: &TcpStream, bytes: &[u8], idle: Duration) -> io::Result<()> {
    let deadline = Instant::now() + idle;
    let mut written = 0;
    while written < bytes.len() {
        socket.set_write_timeout(Some(left(deadline)?))?;
        match socket.write(&bytes[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Shared {
    /// A connection thread: serves one connection at a time, then parks
    /// for the next one, and exits after `idle_timeout` parked or once
    /// the server stops with nothing left to serve. Reusing threads keeps
    /// thread creation (a stack mapping, a clone) off most requests.
    fn connection_thread(&self) {
        let mut handoff = self.handoff.lock().expect("handoff lock");
        loop {
            if let Some(conn) = handoff.queue.pop_front() {
                drop(handoff);
                self.serve_conn(conn);
                handoff = self.handoff.lock().expect("handoff lock");
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            handoff.parked += 1;
            let (guard, waited) = self
                .arrived
                .wait_timeout(handoff, self.config.idle_timeout)
                .expect("handoff wait");
            handoff = guard;
            handoff.parked -= 1;
            if waited.timed_out() && handoff.queue.is_empty() {
                return;
            }
        }
    }

    /// Serves one connection to completion on the calling thread. A
    /// missed deadline (a read or write timeout, or no time left) counts
    /// as reaped; any other failure means the peer went away.
    fn serve_conn(&self, Accepted { id, socket, at }: Accepted) {
        let _open = OpenGuard { shared: self, id };
        if let Err(e) = self.exchange(id, &socket, at) {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                self.stats.reaped_idle.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn exchange(&self, id: u64, mut socket: &TcpStream, accepted: Instant) -> io::Result<()> {
        let idle = self.config.idle_timeout;
        let request_deadline = accepted + idle;
        let mut framer = RequestFramer::new(self.config.limits);
        let mut scratch = [0u8; 4096];
        let request = loop {
            socket.set_read_timeout(Some(left(request_deadline)?))?;
            let n = match socket.read(&mut scratch) {
                // Peer closed before sending a full request.
                Ok(0) => return Ok(()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (status, msg) = match framer.push(&scratch[..n]) {
                FrameStatus::Partial => continue,
                FrameStatus::Complete(request) => break request,
                FrameStatus::Oversized(msg) if msg.contains("head") => (431, msg),
                FrameStatus::Oversized(msg) => (413, msg),
                FrameStatus::Malformed(msg) => (400, msg),
            };
            return write_within(socket, &rejection(status, msg).to_bytes(), idle);
        };
        match self.dispatcher.dispatch(request) {
            Action::Respond(response) => write_within(socket, &response.to_bytes(), idle),
            Action::Stream { head, stream } => {
                self.stats.streaming.fetch_add(1, Ordering::Relaxed);
                let followed = self.follow(id, socket, &head, &stream);
                self.stats.streaming.fetch_sub(1, Ordering::Relaxed);
                followed
            }
        }
    }

    /// Writes `head`, then every chunk of `stream` as it arrives, with a
    /// ping comment after each `ping_interval` of quiet, until the
    /// stream closes or the server stops.
    fn follow(
        &self,
        id: u64,
        socket: &TcpStream,
        head: &[u8],
        stream: &Arc<EventStream>,
    ) -> io::Result<()> {
        let idle = self.config.idle_timeout;
        if let Some(open) = self.open.lock().expect("open lock").get_mut(&id) {
            open.following = Some(Arc::clone(stream));
        }
        write_within(socket, head, idle)?;
        let mut next = 0;
        loop {
            let (chunks, closed) = stream.wait_from(next, self.config.ping_interval, &self.stop);
            if self.stop.load(Ordering::SeqCst) || (chunks.is_empty() && closed) {
                return Ok(());
            }
            if chunks.is_empty() {
                write_within(socket, b": ping\n\n", idle)?;
                continue;
            }
            write_within(socket, &chunks.concat(), idle)?;
            next += chunks.len();
        }
    }

    /// Answers a connection over the cap with 503 from the accept thread:
    /// discard whatever request bytes have already arrived (closing over
    /// unread bytes would reset the connection under the response), write
    /// the small response into the fresh socket's empty send buffer, and
    /// close. Nothing here blocks.
    fn refuse(&self, mut socket: TcpStream) {
        self.stats.refused.fetch_add(1, Ordering::Relaxed);
        if socket.set_nonblocking(true).is_err() {
            return;
        }
        let mut sink = [0u8; 4096];
        while matches!(socket.read(&mut sink), Ok(n) if n > 0) {}
        let refusal = rejection(503, "too many connections").with_header("retry-after", "1");
        let _ = socket.write_all(&refusal.to_bytes());
        let _ = socket.shutdown(Shutdown::Write);
    }
}

/// The JSON error the server answers without consulting the dispatcher
/// (a rejected request head, or the cap). `message` is fixed text.
fn rejection(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":\"{message}\"}}"))
}

/// Accepts until stopped, then closes every open connection and joins
/// every connection thread.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let socket = match accepted {
            Ok((socket, _)) => socket,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                // Out of fds, most likely: back off instead of spinning.
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        threads.retain(|t| !t.is_finished());
        if shared.stats.active.load(Ordering::Relaxed) >= shared.config.max_connections as u64 {
            shared.refuse(socket);
            continue;
        }
        let mut handoff = shared.handoff.lock().expect("handoff lock");
        // Every parked thread is already spoken for: start one more. It
        // waits on the handoff lock until the connection is queued.
        if handoff.queue.len() >= handoff.parked {
            let thread_shared = Arc::clone(&shared);
            match thread::Builder::new()
                .name("smrseek-net-conn".to_owned())
                .spawn(move || thread_shared.connection_thread())
            {
                Ok(thread) => threads.push(thread),
                Err(_) => {
                    drop(handoff);
                    shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    shared.refuse(socket);
                    continue;
                }
            }
        }
        let _ = socket.set_nodelay(true);
        let socket = Arc::new(socket);
        next_id += 1;
        // Registered before any thread sees it, so shutdown always finds it.
        let open = Open {
            socket: Arc::clone(&socket),
            following: None,
        };
        shared.open.lock().expect("open lock").insert(next_id, open);
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        handoff.queue.push_back(Accepted {
            id: next_id,
            socket,
            at: Instant::now(),
        });
        drop(handoff);
        shared.arrived.notify_one();
    }
    for open in shared.open.lock().expect("open lock").values() {
        let _ = open.socket.shutdown(Shutdown::Both);
        if let Some(stream) = &open.following {
            stream.wake();
        }
    }
    // Parked threads see the stop flag; busy ones drain the queue of
    // connections (all shut down now) first.
    {
        let _handoff = shared.handoff.lock().expect("handoff lock");
        shared.arrived.notify_all();
    }
    // A thread that panicked has printed its panic, and its guard
    // unregistered its connection; nothing more is owed to it.
    for thread in threads {
        let _ = thread.join();
    }
}

/// A running server. Dropping it (or calling [`shutdown`]) stops
/// accepting, closes every open connection, and joins every thread.
///
/// [`shutdown`]: NetHandle::shutdown
pub struct NetHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl NetHandle {
    /// The bound address of the listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's shared counters.
    pub fn stats(&self) -> Arc<LoopStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept(2) with a connection of our own (Linux
        // connects an unspecified address to the local host); the accept
        // thread sees the flag and drops it.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        let _ = thread.join();
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a server on `listener` answering with `dispatcher`.
///
/// The listener is handed to a dedicated accept thread; the returned
/// handle stops it.
pub fn serve(
    listener: TcpListener,
    dispatcher: Arc<dyn Dispatcher>,
    config: NetConfig,
) -> io::Result<NetHandle> {
    listener.set_nonblocking(false)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        dispatcher,
        config,
        stats: Arc::new(LoopStats::default()),
        stop: AtomicBool::new(false),
        open: Mutex::new(HashMap::new()),
        handoff: Mutex::new(Handoff::default()),
        arrived: Condvar::new(),
    });
    let accept_shared = Arc::clone(&shared);
    let thread = thread::Builder::new()
        .name("smrseek-net".to_owned())
        .spawn(move || accept_loop(accept_shared, listener))?;
    Ok(NetHandle {
        local_addr,
        shared,
        thread: Some(thread),
    })
}
