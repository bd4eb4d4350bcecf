//! The body of `GET /v1/trace/<trace-id>`: every distributed span one
//! daemon recorded for a trace. The daemon encodes it and the `smrseek
//! trace` collector decodes it, so both directions live here.
//!
//! ```json
//! {"trace_id":"<32 hex>","spans":[{"span_id":"<16 hex>",
//!  "parent_span_id":"<16 hex>"|null,"name":"dispatch","request_id":"…",
//!  "start_unix_ns":…,"dur_ns":…,"pid":…,"tid":…}]}
//! ```

use serde::{Number, Value};
use smrseek_obs::{dtrace, DistSpan};

/// Encodes `spans`, all of trace `trace_id`, in their order.
pub fn encode(trace_id: u128, spans: &[DistSpan]) -> String {
    let spans_json: Vec<Value> = spans
        .iter()
        .map(|span| {
            Value::Object(vec![
                (
                    "span_id".to_owned(),
                    Value::String(format!("{:016x}", span.span_id)),
                ),
                (
                    "parent_span_id".to_owned(),
                    span.parent_span_id
                        .map_or(Value::Null, |id| Value::String(format!("{id:016x}"))),
                ),
                ("name".to_owned(), Value::String(span.name.clone())),
                (
                    "request_id".to_owned(),
                    Value::String(span.request_id.clone()),
                ),
                (
                    "start_unix_ns".to_owned(),
                    Value::Number(Number::U(span.start_unix_ns)),
                ),
                ("dur_ns".to_owned(), Value::Number(Number::U(span.dur_ns))),
                (
                    "pid".to_owned(),
                    Value::Number(Number::U(u64::from(span.pid))),
                ),
                ("tid".to_owned(), Value::Number(Number::U(span.tid))),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        (
            "trace_id".to_owned(),
            Value::String(format!("{trace_id:032x}")),
        ),
        ("spans".to_owned(), Value::Array(spans_json)),
    ]))
    .expect("trace body serializes")
}

/// Decodes a body [`encode`] wrote (a missing `request_id` reads as
/// empty).
///
/// # Errors
///
/// A message naming what is missing or malformed.
pub fn decode(body: &[u8]) -> Result<Vec<DistSpan>, String> {
    fn hex_span_id(value: &Value) -> Option<u64> {
        value.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
    }
    fn number(span: &Value, key: &str) -> Result<u64, String> {
        span.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("span is missing {key}"))
    }
    let text = std::str::from_utf8(body).map_err(|_| "trace body is not UTF-8".to_owned())?;
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("trace body is not JSON: {e}"))?;
    let trace_id = root
        .get("trace_id")
        .and_then(Value::as_str)
        .and_then(dtrace::parse_trace_id)
        .ok_or("trace body has no trace_id")?;
    let spans = root
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("trace body has no spans array")?;
    spans
        .iter()
        .map(|span| {
            Ok(DistSpan {
                trace_id,
                span_id: span
                    .get("span_id")
                    .and_then(hex_span_id)
                    .ok_or("span is missing span_id")?,
                parent_span_id: span.get("parent_span_id").and_then(hex_span_id),
                name: span
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("span is missing name")?
                    .to_owned(),
                request_id: span
                    .get("request_id")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                start_unix_ns: number(span, "start_unix_ns")?,
                dur_ns: number(span, "dur_ns")?,
                pid: u32::try_from(number(span, "pid")?).map_err(|_| "pid overflows u32")?,
                tid: number(span, "tid")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u64, parent_span_id: Option<u64>, name: &str) -> DistSpan {
        DistSpan {
            trace_id: 0xabc,
            span_id,
            parent_span_id,
            name: name.to_owned(),
            request_id: "req-1".to_owned(),
            start_unix_ns: 1_700_000_000_000_000_000,
            dur_ns: 42,
            pid: 7,
            tid: 3,
        }
    }

    #[test]
    fn decode_inverts_encode() {
        let spans = vec![span(1, None, "dispatch"), span(2, Some(1), "forward")];
        assert_eq!(decode(encode(0xabc, &spans).as_bytes()), Ok(spans));
        assert_eq!(decode(encode(0xabc, &[]).as_bytes()), Ok(Vec::new()));
    }

    #[test]
    fn encoding_is_pinned() {
        // Fleet collectors outside this crate parse these bytes.
        assert_eq!(
            encode(0xabc, &[span(0x1f, None, "queue")]),
            "{\"trace_id\":\"00000000000000000000000000000abc\",\"spans\":[{\
             \"span_id\":\"000000000000001f\",\"parent_span_id\":null,\"name\":\"queue\",\
             \"request_id\":\"req-1\",\"start_unix_ns\":1700000000000000000,\"dur_ns\":42,\
             \"pid\":7,\"tid\":3}]}"
        );
    }

    #[test]
    fn malformed_bodies_name_what_is_wrong() {
        assert_eq!(decode(b"{}"), Err("trace body has no trace_id".to_owned()));
        let body = br#"{"trace_id":"00000000000000000000000000000abc","spans":[{"name":"x"}]}"#;
        assert_eq!(decode(body), Err("span is missing span_id".to_owned()));
    }
}
