//! The traced run's span recorder: per-layer totals for every timed call,
//! a bounded in-memory sample of parent-linked spans, self times, and a
//! Chrome trace-event export that Perfetto loads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Aggregated timing of one span name.
#[derive(Debug, Clone, Default)]
struct Totals {
    parent: Option<&'static str>,
    calls: u64,
    total_ns: u64,
}

/// One recorded span, timed on the tracer's clock or imported from a
/// daemon (wall-clock nanoseconds).
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique within the export.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-prefixed name (`stl.apply_into`, `server.dispatch`, ...).
    pub name: String,
    /// Start, in nanoseconds on the span's clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Export process: 1 for the benchmark's own probes, 2 for daemon spans.
    pub pid: u32,
    /// Thread (or daemon) lane within the process.
    pub tid: u64,
}

/// Span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    totals: BTreeMap<&'static str, Totals>,
    spans: Vec<SpanRec>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder keeping at most `cap` sampled spans.
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            totals: BTreeMap::new(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Adds `calls` calls totalling `total_ns` to `name`, whose calls all
    /// run inside calls of `parent`.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        calls: u64,
        total_ns: u64,
    ) {
        let t = self.totals.entry(name).or_default();
        t.parent = parent;
        t.calls += calls;
        t.total_ns += total_ns;
    }

    /// Times `f` as one call of `name`, keeps it as a sampled span, and
    /// returns its result with the nanoseconds it took.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = nanos(start, end);
        self.add(name, None, 1, ns);
        self.span(name, None, start, end);
        (out, ns)
    }

    /// Keeps one sampled span on the tracer's clock; returns its id (0
    /// when the sample is full and the span was dropped).
    pub fn span(&mut self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        let start_ns = nanos(self.epoch, start);
        self.push(name, parent, start_ns, nanos(start, end), 1, 0)
    }

    /// Opens a sampled span at `start` whose end [`close`](Self::close)
    /// fills in later, so its children can name it as their parent.
    pub fn open(&mut self, name: &str, parent: Option<u64>, start: Instant) -> u64 {
        let start_ns = nanos(self.epoch, start);
        self.push(name, parent, start_ns, 0, 1, 0)
    }

    /// Ends a span opened at `start` with [`open`](Self::open).
    pub fn close(&mut self, id: u64, start: Instant) {
        // Ids are assigned densely to kept spans, so id n is index n - 1.
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.dur_ns = nanos(start, Instant::now());
        }
    }

    /// Keeps one sampled span with explicit timestamps and lane.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
        pid: u32,
        tid: u64,
    ) -> u64 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(SpanRec {
            id,
            parent: parent.filter(|&p| p != 0),
            name: name.to_owned(),
            start_ns,
            dur_ns,
            pid,
            tid,
        });
        id
    }

    /// `(name, calls, total_ns, self_ns)` per span name, where self time
    /// is the total minus the totals of the names declared its children.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        self.totals
            .iter()
            .map(|(&name, t)| {
                let children: u64 = self
                    .totals
                    .values()
                    .filter(|c| c.parent == Some(name))
                    .map(|c| c.total_ns)
                    .sum();
                (
                    name,
                    t.calls,
                    t.total_ns,
                    t.total_ns.saturating_sub(children),
                )
            })
            .collect()
    }

    /// Sampled spans kept, and spans dropped because the sample was full.
    pub fn sample_size(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Writes the sampled spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let _ = writeln!(
            out,
            "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \"args\": {{\"name\": \"perfbench probes\"}}}},"
        );
        let _ = write!(
            out,
            "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"tid\": 0, \"args\": {{\"name\": \"daemon fleet\"}}}}"
        );
        // Daemon spans carry wall-clock time; shift them to start at 0.
        let daemon_epoch = self
            .spans
            .iter()
            .filter(|s| s.pid == 2)
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(0);
        for s in &self.spans {
            let start = if s.pid == 2 {
                s.start_ns - daemon_epoch
            } else {
                s.start_ns
            };
            let _ = write!(
                out,
                ",\n{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span_id\": {}, \"parent_span_id\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.pid,
                s.tid,
                start as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string())
            );
        }
        out.push_str("\n]}\n");
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Nanoseconds from `a` to `b`.
pub fn nanos(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// The part of `[start, start + dur)` covered by the union of `children`
/// intervals (each clipped to the parent) — what a span's self time
/// excludes. Children may overlap each other or outlive the parent.
pub fn covered_ns(start: u64, dur: u64, children: &[(u64, u64)]) -> u64 {
    let end = start + dur;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, d)| (s.max(start), (s + d).min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_declared_children() {
        let mut t = Tracer::new(4);
        t.add("sim.record", None, 10, 1_000);
        t.add("stl.apply_into", Some("sim.record"), 10, 600);
        t.add("disk.observe", Some("sim.record"), 10, 300);
        let rows = t.self_times();
        let record = rows.iter().find(|r| r.0 == "sim.record").expect("row");
        assert_eq!((record.1, record.2, record.3), (10, 1_000, 100));
        let apply = rows.iter().find(|r| r.0 == "stl.apply_into").expect("row");
        assert_eq!(apply.3, 600);
    }

    #[test]
    fn covered_time_merges_and_clips_children() {
        // Parent [100, 200); children overlap each other and outlive it:
        // [100, 110) and [105, 115) merge to [100, 115), [150, 250) clips
        // to [150, 200).
        assert_eq!(
            covered_ns(100, 100, &[(90, 20), (105, 10), (150, 100)]),
            15 + 50
        );
        assert_eq!(covered_ns(100, 100, &[(120, 30), (130, 10)]), 30);
        assert_eq!(covered_ns(100, 100, &[(300, 5)]), 0);
        assert_eq!(covered_ns(0, 10, &[]), 0);
    }

    #[test]
    fn sample_is_bounded_and_export_is_json() {
        let mut t = Tracer::new(2);
        let now = Instant::now();
        let a = t.span("stl.apply_into", None, now, now);
        let b = t.push("server.dispatch", Some(a), 5_000, 200, 2, 1);
        assert!(a > 0 && b > 0);
        assert_eq!(t.span("x", None, now, now), 0, "full sample drops");
        assert_eq!(t.sample_size(), (2, 1));
        let path =
            std::env::temp_dir().join(format!("perfbench-spans-{}.json", std::process::id()));
        t.write_chrome(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        std::fs::remove_file(&path).ok();
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("events");
        assert_eq!(events.len(), 4, "two metadata events and two spans");
    }
}
