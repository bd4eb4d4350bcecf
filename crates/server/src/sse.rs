//! Server-Sent Events encoding for `GET /v1/jobs/<id>/events`.
//!
//! Each job carries an append-only [`smrseek_net::EventStream`] of
//! pre-encoded SSE frames: `queued` on submission, `running` when a
//! worker picks it up, a `phases` frame carrying the engine's
//! per-[`Phase`](smrseek_obs::Phase) timing from `smrseek-obs` once the
//! replay finishes, and a terminal `done`/`failed` frame after which the
//! stream closes and subscribers see EOF. Subscribers that connect late
//! replay the full history — the stream is the job's progress log, not a
//! fan-out bus.

use serde::{Number, Value};
use smrseek_obs::PhaseTotals;

/// Encodes one SSE frame: `event: <name>` + one `data:` line.
///
/// `data` must be a single line (the callers pass compact JSON, which
/// cannot contain raw newlines).
pub fn encode_event(name: &str, data: &str) -> Vec<u8> {
    debug_assert!(!data.contains('\n'), "SSE data must be one line");
    format!("event: {name}\ndata: {data}\n\n").into_bytes()
}

/// The response head for an event-stream subscription, through the blank
/// line. SSE responses carry no `Content-Length`; the connection closes
/// when the stream does.
pub fn response_head(request_id: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-store\r\nconnection: close\r\nx-request-id: {request_id}\r\n\r\n"
    )
    .into_bytes()
}

/// Compact JSON for a plain status transition: `{"id":N,"status":"..."}`
/// plus an optional `"error"` field.
pub fn status_data(id: u64, status: &str, error: Option<&str>) -> String {
    let mut fields = vec![
        ("id".to_owned(), Value::Number(Number::U(id))),
        ("status".to_owned(), Value::String(status.to_owned())),
    ];
    if let Some(error) = error {
        fields.push(("error".to_owned(), Value::String(error.to_owned())));
    }
    serde_json::to_string(&Value::Object(fields)).expect("status data serializes")
}

/// Compact JSON for the `phases` frame: per-phase engine seconds and call
/// counts from the job's merged [`PhaseTotals`]. Phases that never ran
/// are omitted so the frame stays small.
///
/// [`Phase`]: smrseek_obs::Phase
pub fn phases_data(id: u64, phases: &PhaseTotals) -> String {
    let entries: Vec<(String, Value)> = phases
        .iter()
        .filter(|&(_, nanos, calls)| nanos > 0 || calls > 0)
        .map(|(phase, nanos, calls)| {
            (
                phase.label().to_owned(),
                Value::Object(vec![
                    (
                        "seconds".to_owned(),
                        Value::Number(Number::F(nanos as f64 / 1e9)),
                    ),
                    ("calls".to_owned(), Value::Number(Number::U(calls))),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("id".to_owned(), Value::Number(Number::U(id))),
        ("phases".to_owned(), Value::Object(entries)),
    ]))
    .expect("phases data serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_obs::Phase;
    use std::time::Duration;

    #[test]
    fn frames_follow_the_sse_wire_format() {
        let frame = encode_event("queued", &status_data(7, "queued", None));
        assert_eq!(
            String::from_utf8(frame).expect("utf8"),
            "event: queued\ndata: {\"id\":7,\"status\":\"queued\"}\n\n"
        );
        let failed = encode_event("failed", &status_data(7, "failed", Some("boom")));
        assert!(String::from_utf8(failed)
            .expect("utf8")
            .contains("\"error\":\"boom\""));
    }

    #[test]
    fn response_head_is_an_event_stream() {
        let head = String::from_utf8(response_head("rq-1")).expect("utf8");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("content-type: text/event-stream\r\n"));
        assert!(head.contains("x-request-id: rq-1\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
    }

    #[test]
    fn phases_data_keeps_only_recorded_phases() {
        let mut totals = PhaseTotals::default();
        totals.record(Phase::Lookup, Duration::from_millis(250));
        totals.record(Phase::Ingest, Duration::from_millis(50));
        let data = phases_data(3, &totals);
        assert!(data.starts_with("{\"id\":3,\"phases\":{"), "{data}");
        assert!(
            data.contains("\"lookup\":{\"seconds\":0.25,\"calls\":1}"),
            "{data}"
        );
        assert!(data.contains("\"ingest\""), "{data}");
        assert!(
            !data.contains("\"seek\""),
            "unrecorded phase leaked: {data}"
        );
    }
}
