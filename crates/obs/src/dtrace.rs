//! Distributed trace context and the cross-process span store.
//!
//! Stitching a fleet hop — request arrives at daemon A, is forwarded to
//! daemon B, queues, replays — needs three things:
//!
//! 1. a **trace context** ([`TraceContext`]: 128-bit trace id + 64-bit
//!    span id, W3C-traceparent-style) minted per inbound request and
//!    propagated across processes in the [`TRACE_HEADER`] header,
//! 2. **wall-clock timestamps** ([`unix_nanos`]) so spans recorded by
//!    different processes land on one timeline, and
//! 3. explicit **parent/child links** ([`DistSpan::parent_span_id`])
//!    instead of same-thread time containment.
//!
//! [`DistSpan`] is the crate's one span record: `smrseek profile` builds
//! its per-cell and per-phase spans from the same type.
//!
//! Each process keeps its own bounded [`SpanStore`] keyed by trace id;
//! a collector (the CLI, or curl against `/v1/trace/<id>`) fetches the
//! per-process fragments and merges them by shared trace id. The store
//! evicts whole traces FIFO once `max_traces` distinct ids are held, so
//! a long-lived daemon's memory stays bounded no matter the request
//! rate.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Header carrying a [`TraceContext`] across fleet hops, formatted by
/// [`TraceContext::header_value`] — `<32 hex trace id>-<16 hex span id>`.
pub const TRACE_HEADER: &str = "x-smrseek-trace";

/// Spans retained per trace before further records are dropped. A fleet
/// job produces a handful of spans per hop; the cap only matters if a
/// trace id is reused pathologically.
const MAX_SPANS_PER_TRACE: usize = 1024;

/// Nanoseconds since the Unix epoch — the shared clock distributed spans
/// are stamped with. Saturates at `u64::MAX` (year 2554).
pub fn unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// A small process-local numeric id for the current thread, stable for
/// the thread's lifetime. `std::thread::ThreadId` is deliberately opaque;
/// Chrome trace tracks and [`DistSpan::tid`] need a plain number.
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

/// SplitMix64: a full-avalanche mixer, the same dependency-free shape the
/// fleet ring uses for hashing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A fresh non-zero 64-bit id from time, pid, and a process-local
/// counter. Not cryptographic — collision resistance across a small
/// fleet is all tracing needs.
fn fresh_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let seed =
        unix_nanos() ^ (u64::from(std::process::id()) << 32) ^ seq.wrapping_mul(0x1000_0000_01b3);
    splitmix64(seed).max(1)
}

/// A W3C-traceparent-style trace context: which trace a request belongs
/// to and which span is the current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace id shared by every span of one end-to-end request.
    pub trace_id: u128,
    /// The current span id — the parent of any child context minted from
    /// this one.
    pub span_id: u64,
}

impl TraceContext {
    /// Mints a fresh root context (new trace id, new span id).
    pub fn mint() -> TraceContext {
        TraceContext {
            trace_id: (u128::from(fresh_id()) << 64) | u128::from(fresh_id()),
            span_id: fresh_id(),
        }
    }

    /// A child context: same trace, fresh span id.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: fresh_id(),
        }
    }

    /// Parses a [`TRACE_HEADER`] value: exactly 32 lowercase-hex trace
    /// digits, a dash, 16 lowercase-hex span digits, both non-zero.
    /// Anything else — wrong length, uppercase, zero ids — is `None`, and
    /// the receiver mints a fresh root instead.
    pub fn parse(header: &str) -> Option<TraceContext> {
        let (trace, span) = header.split_once('-')?;
        if trace.len() != 32 || span.len() != 16 {
            return None;
        }
        let lower_hex = |s: &str| {
            s.bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        };
        if !lower_hex(trace) || !lower_hex(span) {
            return None;
        }
        let trace_id = u128::from_str_radix(trace, 16).ok()?;
        let span_id = u64::from_str_radix(span, 16).ok()?;
        (trace_id != 0 && span_id != 0).then_some(TraceContext { trace_id, span_id })
    }

    /// The [`TRACE_HEADER`] wire form: `<trace_id:032x>-<span_id:016x>`.
    pub fn header_value(&self) -> String {
        format!("{:032x}-{:016x}", self.trace_id, self.span_id)
    }

    /// The trace id alone as 32 hex digits — the `/v1/trace/<id>` path
    /// segment.
    pub fn trace_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// Parses a bare 32-hex-digit trace id (the `/v1/trace/<id>` path
/// segment). Zero and malformed ids are `None`.
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(s, 16).ok().filter(|&id| id != 0)
}

/// One completed distributed span: a named interval on the shared
/// wall-clock timeline, linked to its parent by span id rather than by
/// time containment (the parent may live in another process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistSpan {
    /// The trace this span belongs to.
    pub trace_id: u128,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The parent span's id; `None` marks the trace root.
    pub parent_span_id: Option<u64>,
    /// Span name (`dispatch`, `forward`, `queue`, `replay`, ...).
    pub name: String,
    /// Request id of the hop that recorded the span, for log correlation.
    pub request_id: String,
    /// Start time, nanoseconds since the Unix epoch.
    pub start_unix_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording process id.
    pub pid: u32,
    /// Recording thread, as rendered on the Chrome trace track.
    pub tid: u64,
}

struct StoreInner {
    /// Trace ids in insertion order, for FIFO eviction.
    order: VecDeque<u128>,
    traces: HashMap<u128, Vec<DistSpan>>,
}

/// A bounded, process-local store of distributed spans, keyed by trace
/// id. Whole traces are evicted FIFO once `max_traces` distinct ids are
/// held.
pub struct SpanStore {
    inner: Mutex<StoreInner>,
    max_traces: usize,
}

impl SpanStore {
    /// A store retaining at most `max_traces` distinct traces (minimum 1).
    pub fn new(max_traces: usize) -> SpanStore {
        SpanStore {
            inner: Mutex::new(StoreInner {
                order: VecDeque::new(),
                traces: HashMap::new(),
            }),
            max_traces: max_traces.max(1),
        }
    }

    /// Records one finished span under its trace id, evicting the oldest
    /// trace if this is a new id at capacity.
    pub fn record(&self, span: DistSpan) {
        let mut inner = self.inner.lock().expect("span store lock poisoned");
        if !inner.traces.contains_key(&span.trace_id) {
            if inner.order.len() >= self.max_traces {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.traces.remove(&evicted);
                }
            }
            inner.order.push_back(span.trace_id);
            inner.traces.insert(span.trace_id, Vec::new());
        }
        let spans = inner
            .traces
            .get_mut(&span.trace_id)
            .expect("trace slot exists");
        if spans.len() < MAX_SPANS_PER_TRACE {
            spans.push(span);
        }
    }

    /// Every span recorded for `trace_id`, in record order, or `None` for
    /// an unknown (or evicted) trace.
    pub fn get(&self, trace_id: u128) -> Option<Vec<DistSpan>> {
        self.inner
            .lock()
            .expect("span store lock poisoned")
            .traces
            .get(&trace_id)
            .cloned()
    }

    /// Number of distinct traces currently held.
    pub fn traces(&self) -> usize {
        self.inner
            .lock()
            .expect("span store lock poisoned")
            .order
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u128, span_id: u64, name: &str) -> DistSpan {
        DistSpan {
            trace_id,
            span_id,
            parent_span_id: None,
            name: name.to_owned(),
            request_id: "rq-test".to_owned(),
            start_unix_ns: 1,
            dur_ns: 2,
            pid: 42,
            tid: 7,
        }
    }

    #[test]
    fn contexts_round_trip_through_the_header() {
        let ctx = TraceContext::mint();
        assert_ne!(ctx.trace_id, 0);
        assert_ne!(ctx.span_id, 0);
        let parsed = TraceContext::parse(&ctx.header_value()).expect("round trips");
        assert_eq!(parsed, ctx);
        let child = ctx.child();
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_ne!(child.span_id, ctx.span_id);
        assert_eq!(ctx.header_value().len(), 32 + 1 + 16);
        assert_eq!(parse_trace_id(&ctx.trace_hex()), Some(ctx.trace_id));
    }

    #[test]
    fn malformed_headers_are_rejected() {
        for bad in [
            "",
            "nope",
            "0123",
            // zero ids
            &format!("{:032x}-{:016x}", 0u128, 5u64),
            &format!("{:032x}-{:016x}", 5u128, 0u64),
            // uppercase hex
            &format!("{:032X}-{:016x}", 0xabcdu128 << 64, 5u64),
            // wrong field widths
            "abc-def",
            &format!("{:031x}0-{:016x}", 5u128, 5u64)[1..],
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
        // A valid value parses.
        let good = format!("{:032x}-{:016x}", 7u128, 9u64);
        assert!(TraceContext::parse(&good).is_some());
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id(&format!("{:032x}", 0u128)), None);
    }

    #[test]
    fn minted_ids_are_distinct() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
    }

    #[test]
    fn store_groups_by_trace_and_evicts_fifo() {
        let store = SpanStore::new(2);
        store.record(span(1, 10, "dispatch"));
        store.record(span(1, 11, "forward"));
        store.record(span(2, 20, "dispatch"));
        assert_eq!(store.traces(), 2);
        let first = store.get(1).expect("trace 1 held");
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].name, "dispatch");
        assert_eq!(first[1].name, "forward");
        // A third distinct trace evicts the oldest (trace 1).
        store.record(span(3, 30, "dispatch"));
        assert_eq!(store.traces(), 2);
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_some());
        assert!(store.get(3).is_some());
        assert!(store.get(99).is_none());
    }

    #[test]
    fn per_trace_span_cap_bounds_memory() {
        let store = SpanStore::new(1);
        for i in 0..(MAX_SPANS_PER_TRACE as u64 + 10) {
            store.record(span(1, i + 1, "s"));
        }
        assert_eq!(store.get(1).expect("held").len(), MAX_SPANS_PER_TRACE);
    }
}
