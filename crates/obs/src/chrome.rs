//! Chrome trace-event JSON export for [`DistSpan`]s.
//!
//! Serializes spans as complete events (`"ph":"X"`) in the Trace Event
//! Format understood by `chrome://tracing` and Perfetto. Timestamps and
//! durations are microseconds with three decimals, so nanosecond
//! precision survives the conversion. Each event carries its span id and
//! parent link in `args`; viewers nest same-track children by time
//! containment, and links that cross a track get flow arrows.

use std::io::{self, Write};

use crate::dtrace::{DistSpan, TraceContext};
use crate::phase::{Phase, PhaseTotals};

fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    crate::log::json_escape_into(&mut out, s);
    out
}

/// `"key":<µs with 3 decimals>` from nanoseconds (full precision in a
/// decimal field).
fn us_field(key: &str, ns: u64) -> String {
    format!("\"{key}\":{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Writes spans — the merged fragments of one fleet trace, or the cells
/// and phases of a profile run — as a complete Chrome trace.
///
/// Each pid listed in `processes` gets a `process_name` metadata event
/// with its label, and each of its `(pid, tid)` pairs a `thread_name`
/// event, so Perfetto titles the per-daemon tracks. Unlisted pids get no
/// metadata; pass `&[]` for a trace of `"ph":"X"` events only.
///
/// Parent/child links that cross a track boundary additionally emit a
/// flow arrow (`"ph":"s"` on the parent, `"ph":"f"` on the child) — the
/// cross-daemon hop renders as one connected timeline. Timestamps are
/// wall-clock, normalized to the earliest span so the trace starts at 0.
pub fn write_dist_trace(
    out: &mut impl Write,
    spans: &[DistSpan],
    processes: &[(u32, String)],
) -> io::Result<()> {
    let t0 = spans.iter().map(|s| s.start_unix_ns).min().unwrap_or(0);
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 2);
    // Track-naming metadata: one process_name per pid, one thread_name
    // per (pid, tid), in order of first appearance.
    let mut named_pids: Vec<u32> = Vec::new();
    let mut named_tids: Vec<(u32, u64)> = Vec::new();
    for span in spans {
        let Some((_, label)) = processes.iter().find(|(pid, _)| *pid == span.pid) else {
            continue;
        };
        if !named_pids.contains(&span.pid) {
            named_pids.push(span.pid);
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                span.pid,
                escaped(label)
            ));
        }
        if !named_tids.contains(&(span.pid, span.tid)) {
            named_tids.push((span.pid, span.tid));
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"tid {}\"}}}}",
                span.pid, span.tid, span.tid
            ));
        }
    }
    for span in spans {
        let parent = span.parent_span_id.map_or(String::new(), |p| {
            format!("\"parent_span_id\":\"{p:016x}\",")
        });
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",{},{},\"pid\":{},\"tid\":{},\"args\":{{\"span_id\":\"{:016x}\",{parent}\"request_id\":\"{}\"}}}}",
            escaped(&span.name),
            us_field("ts", span.start_unix_ns.saturating_sub(t0)),
            us_field("dur", span.dur_ns),
            span.pid,
            span.tid,
            span.span_id,
            escaped(&span.request_id)
        ));
    }
    // Flow arrows for links that cross a (pid, tid) track: time
    // containment cannot express those, so Perfetto needs explicit
    // start/finish events sharing the child's span id.
    for span in spans {
        let Some(parent_id) = span.parent_span_id else {
            continue;
        };
        let Some(parent) = spans.iter().find(|p| p.span_id == parent_id) else {
            continue;
        };
        if (parent.pid, parent.tid) == (span.pid, span.tid) {
            continue;
        }
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"fleet\",\"ph\":\"s\",\"id\":{},{},\"pid\":{},\"tid\":{}}}",
            escaped(&span.name),
            span.span_id,
            us_field("ts", parent.start_unix_ns.saturating_sub(t0)),
            parent.pid,
            parent.tid
        ));
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"fleet\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},{},\"pid\":{},\"tid\":{}}}",
            escaped(&span.name),
            span.span_id,
            us_field("ts", span.start_unix_ns.saturating_sub(t0)),
            span.pid,
            span.tid
        ));
    }
    out.write_all(b"{\"traceEvents\":[")?;
    out.write_all(events.join(",").as_bytes())?;
    out.write_all(b"]}")?;
    Ok(())
}

/// Expands a cell span into child spans, one per non-empty engine phase,
/// named `phase:<label>` and linked to `parent` by span id.
///
/// Phase totals are accumulated sums, not intervals, so the children are
/// laid out sequentially from the parent's start — a within-cell time
/// breakdown rather than a literal timeline. Children are clamped to the
/// parent's extent so viewers always render them nested under it.
pub fn phase_children(parent: &DistSpan, phases: &PhaseTotals) -> Vec<DistSpan> {
    let ctx = TraceContext {
        trace_id: parent.trace_id,
        span_id: parent.span_id,
    };
    let parent_end = parent.start_unix_ns.saturating_add(parent.dur_ns);
    let mut cursor = parent.start_unix_ns;
    let mut out = Vec::new();
    for phase in Phase::ALL {
        let nanos = phases.nanos(phase);
        if nanos == 0 {
            continue;
        }
        let start_unix_ns = cursor.min(parent_end);
        let dur_ns = nanos.min(parent_end.saturating_sub(start_unix_ns));
        out.push(DistSpan {
            trace_id: parent.trace_id,
            span_id: ctx.child().span_id,
            parent_span_id: Some(parent.span_id),
            name: format!("phase:{}", phase.label()),
            request_id: parent.request_id.clone(),
            start_unix_ns,
            dur_ns,
            pid: parent.pid,
            tid: parent.tid,
        });
        cursor = start_unix_ns.saturating_add(dur_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn dist(
        pid: u32,
        tid: u64,
        span_id: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        dur: u64,
    ) -> DistSpan {
        DistSpan {
            trace_id: 7,
            span_id,
            parent_span_id: parent,
            name: name.to_owned(),
            request_id: format!("rq-{pid}"),
            start_unix_ns: start,
            dur_ns: dur,
            pid,
            tid,
        }
    }

    fn events(spans: &[DistSpan], processes: &[(u32, String)]) -> Vec<serde_json::Value> {
        let mut buf = Vec::new();
        write_dist_trace(&mut buf, spans, processes).expect("write");
        let text = String::from_utf8(buf).expect("utf-8");
        let doc: serde_json::Value =
            serde_json::from_str(&text).expect("chrome trace output is valid JSON");
        doc.get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array")
            .clone()
    }

    fn str_field<'a>(e: &'a serde_json::Value, key: &str) -> Option<&'a str> {
        e.get(key).and_then(|v| v.as_str())
    }

    fn arg<'a>(e: &'a serde_json::Value, key: &str) -> Option<&'a str> {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(|v| v.as_str())
    }

    #[test]
    fn trace_json_parses_and_preserves_precision() {
        let spans = vec![
            dist(1, 0, 0x1, None, "cell:LS", 5_000_000, 9_876_543),
            dist(1, 0, 0x2, Some(0x1), "phase:\"odd\"", 6_234_567, 1_000),
        ];
        let list = events(&spans, &[]);
        assert_eq!(list.len(), 2);
        assert_eq!(str_field(&list[0], "name"), Some("cell:LS"));
        assert_eq!(str_field(&list[0], "ph"), Some("X"));
        assert_eq!(list[0].get("ts").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(list[0].get("dur").and_then(|v| v.as_f64()), Some(9876.543));
        assert_eq!(str_field(&list[1], "name"), Some("phase:\"odd\""));
        assert_eq!(list[1].get("ts").and_then(|v| v.as_f64()), Some(1234.567));
        assert_eq!(arg(&list[1], "parent_span_id"), Some("0000000000000001"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut buf = Vec::new();
        write_dist_trace(&mut buf, &[], &[]).expect("write");
        assert_eq!(buf, b"{\"traceEvents\":[]}");
    }

    #[test]
    fn dist_trace_names_processes_and_draws_cross_process_flows() {
        // Daemon A (pid 100) dispatches and forwards; daemon B (pid 200)
        // dispatches as a child of the forward span.
        let spans = vec![
            dist(100, 1, 0x10, None, "dispatch", 1_000_000, 5_000),
            dist(100, 1, 0x11, Some(0x10), "forward", 1_001_000, 3_000),
            dist(200, 2, 0x20, Some(0x11), "dispatch", 1_002_000, 1_000),
        ];
        let a = (100, "smrseekd 127.0.0.1:9001".to_owned());
        let b = (200, "smrseekd 127.0.0.1:9002".to_owned());
        let list = events(&spans, &[a.clone(), b]);
        // 2 process_name + 2 thread_name + 3 slices + 1 flow pair.
        assert_eq!(list.len(), 2 + 2 + 3 + 2, "{list:?}");
        let by_ph = |list: &[serde_json::Value], ph: &str| -> Vec<serde_json::Value> {
            list.iter()
                .filter(|e| str_field(e, "ph") == Some(ph))
                .cloned()
                .collect()
        };
        let meta = by_ph(&list, "M");
        for label in ["smrseekd 127.0.0.1:9001", "smrseekd 127.0.0.1:9002"] {
            assert!(meta.iter().any(|e| arg(e, "name") == Some(label)));
        }
        // Timestamps are normalized to the earliest span.
        let slices = by_ph(&list, "X");
        assert_eq!(slices[0].get("ts").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(arg(&slices[0], "span_id"), Some("0000000000000010"));
        // Only the cross-process link (forward -> B's dispatch) flows.
        let starts = by_ph(&list, "s");
        let finishes = by_ph(&list, "f");
        assert_eq!(starts.len(), 1, "{list:?}");
        assert_eq!(finishes.len(), 1);
        assert_eq!(starts[0].get("pid").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(finishes[0].get("pid").and_then(|v| v.as_u64()), Some(200));
        assert_eq!(
            starts[0].get("id").and_then(|v| v.as_u64()),
            finishes[0].get("id").and_then(|v| v.as_u64()),
        );
        // An unlisted pid gets no metadata event; its slices still render.
        let list = events(&spans, &[a]);
        let meta = by_ph(&list, "M");
        assert_eq!(meta.len(), 2, "{list:?}");
        assert!(meta
            .iter()
            .all(|e| e.get("pid").and_then(|v| v.as_u64()) == Some(100)));
        assert_eq!(by_ph(&list, "X").len(), 3);
    }

    #[test]
    fn phase_children_nest_inside_parent() {
        let parent = dist(9, 3, 0x40, None, "cell:LS", 1_000, 10_000);
        let mut totals = PhaseTotals::default();
        totals.record(Phase::Lookup, Duration::from_nanos(4_000));
        totals.record(Phase::Seek, Duration::from_nanos(2_000));
        let children = phase_children(&parent, &totals);
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].name, "phase:lookup");
        assert_eq!(children[1].name, "phase:seek");
        assert_ne!(children[0].span_id, children[1].span_id);
        let parent_end = parent.start_unix_ns + parent.dur_ns;
        let mut prev_end = parent.start_unix_ns;
        for child in &children {
            assert_eq!(child.parent_span_id, Some(parent.span_id));
            assert_ne!(child.span_id, parent.span_id);
            assert_eq!(child.trace_id, parent.trace_id);
            assert_eq!((child.pid, child.tid), (parent.pid, parent.tid));
            assert!(child.start_unix_ns >= prev_end);
            assert!(child.start_unix_ns + child.dur_ns <= parent_end);
            prev_end = child.start_unix_ns + child.dur_ns;
        }
    }

    #[test]
    fn phase_children_clamp_to_parent_extent() {
        // Totals longer than the parent (accumulated across many records)
        // must still render inside it.
        let parent = dist(9, 0, 0x50, None, "cell:NoLS", 0, 1_000);
        let mut totals = PhaseTotals::default();
        totals.record(Phase::Lookup, Duration::from_nanos(900));
        totals.record(Phase::Seek, Duration::from_nanos(5_000));
        totals.record(Phase::Classify, Duration::from_nanos(5_000));
        let children = phase_children(&parent, &totals);
        assert_eq!(children.len(), 3);
        for child in &children {
            assert_eq!(child.parent_span_id, Some(0x50));
            assert!(child.start_unix_ns + child.dur_ns <= 1_000);
        }
        assert_eq!(children[0].dur_ns, 900);
        assert_eq!(children[1].dur_ns, 100);
        assert_eq!(children[2].dur_ns, 0);
    }
}
