//! Append-only event streams bridging producers to streaming connections.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct StreamInner {
    chunks: Vec<Arc<[u8]>>,
    closed: bool,
}

/// An append-only log of byte chunks with a close marker.
///
/// Producers (job workers) [`append`](EventStream::append) encoded events;
/// each streaming connection tracks the index of the next chunk it has yet
/// to send, so subscribers that arrive late replay the full history from
/// chunk zero. Appends and closes wake every connection blocked waiting
/// for the next chunk.
#[derive(Debug, Default)]
pub struct EventStream {
    inner: Mutex<StreamInner>,
    changed: Condvar,
}

impl EventStream {
    /// Creates an empty, open stream.
    pub fn new() -> EventStream {
        EventStream::default()
    }

    /// Appends one chunk and wakes any waiting subscriber. Returns false
    /// (and drops the chunk) if the stream is already closed.
    pub fn append(&self, bytes: &[u8]) -> bool {
        {
            let mut inner = self.inner.lock().expect("event stream lock");
            if inner.closed {
                return false;
            }
            inner.chunks.push(Arc::from(bytes));
        }
        self.changed.notify_all();
        true
    }

    /// Marks the stream complete: no further appends are accepted, and
    /// connections that have sent every chunk finish.
    pub fn close(&self) {
        self.inner.lock().expect("event stream lock").closed = true;
        self.changed.notify_all();
    }

    /// Whether [`close`](EventStream::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("event stream lock").closed
    }

    /// Every chunk concatenated — convenient for tests and offline reads.
    pub fn collected(&self) -> Vec<u8> {
        let inner = self.inner.lock().expect("event stream lock");
        let mut out = Vec::new();
        for c in &inner.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Blocks until chunk `next` exists, the stream closes, `stop` is set
    /// or `timeout` passes, then returns the chunks from `next` on and
    /// whether the stream is closed. `stop` is read under the stream's
    /// lock, so setting it and then calling [`wake`](Self::wake) cannot
    /// be missed.
    pub(crate) fn wait_from(
        &self,
        next: usize,
        timeout: Duration,
        stop: &AtomicBool,
    ) -> (Vec<Arc<[u8]>>, bool) {
        let inner = self.inner.lock().expect("event stream lock");
        let (inner, _) = self
            .changed
            .wait_timeout_while(inner, timeout, |inner| {
                inner.chunks.len() <= next && !inner.closed && !stop.load(Ordering::SeqCst)
            })
            .expect("event stream wait");
        (
            inner.chunks.get(next..).unwrap_or_default().to_vec(),
            inner.closed,
        )
    }

    /// Wakes every waiting subscriber without changing the stream, so
    /// each re-reads its `stop` flag.
    pub(crate) fn wake(&self) {
        let _guard = self.inner.lock().expect("event stream lock");
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_chunk_close_roundtrip() {
        let s = EventStream::new();
        let stop = AtomicBool::new(false);
        assert!(!s.is_closed());
        assert!(s.append(b"one"));
        assert!(s.append(b"two"));
        let (chunks, closed) = s.wait_from(1, Duration::ZERO, &stop);
        assert_eq!((chunks.len(), &*chunks[0], closed), (1, &b"two"[..], false));
        s.close();
        assert!(s.is_closed());
        assert!(!s.append(b"late"));
        assert_eq!(s.collected(), b"onetwo");
        // A subscriber past the end of a closed stream returns at once.
        let (chunks, closed) = s.wait_from(2, Duration::from_secs(30), &stop);
        assert!(chunks.is_empty() && closed);
    }

    #[test]
    fn appends_wake_a_waiting_subscriber() {
        let s = Arc::new(EventStream::new());
        let stop = AtomicBool::new(false);
        let producer = Arc::clone(&s);
        let appender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            producer.append(b"x");
        });
        let (chunks, closed) = s.wait_from(0, Duration::from_secs(10), &stop);
        appender.join().expect("appender");
        assert_eq!(chunks.len(), 1);
        assert_eq!(&*chunks[0], b"x");
        assert!(!closed);
        // Nothing past chunk 1 and no close: the wait times out empty.
        let (chunks, closed) = s.wait_from(1, Duration::from_millis(10), &stop);
        assert!(chunks.is_empty() && !closed);
    }
}
