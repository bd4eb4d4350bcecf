//! A deliberately small HTTP/1.1 response side over [`std::net`].
//!
//! The daemon needs exactly one request per connection, no TLS, no
//! chunked encoding, and bounded header/body sizes — a few hundred lines
//! of `std` beat an external dependency here (the build environment is
//! offline; see `vendor/README.md`). Each connection's thread frames and
//! parses its request with `smrseek-net`'s
//! [`RequestFramer`](smrseek_net::RequestFramer); this module re-exports
//! its [`Request`] and serializes the responses that thread writes. Every
//! response carries `Connection: close`: one request per connection is
//! what lets the daemon serve each connection on one short-lived thread,
//! and clients never have to reason about keep-alive against a daemon
//! that may be draining for shutdown.

pub use smrseek_net::Request;

/// One HTTP response, always sent with `Connection: close`.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub extra: Vec<(String, String)>,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            extra: Vec::new(),
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (health checks, Prometheus exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            extra: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Adds one extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra.push((name.into(), value.into()));
        self
    }

    /// The response body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Status",
        }
    }
}

/// Serializes `response` to wire bytes — the form a dispatcher hands its
/// connection thread to write.
pub fn response_bytes(response: &Response) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&response.body);
    out
}

/// Splits raw response bytes (a full `Connection: close` exchange) into
/// `(status, body)`. Used by the fleet forwarder and `smrseek trace`,
/// which read peer responses to EOF.
///
/// # Errors
///
/// Returns a message when the bytes do not look like an HTTP/1.1 response.
pub fn parse_response(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response head never terminated".to_owned())?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| "response head is not UTF-8".to_owned())?;
    let status_line = head.lines().next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            let status: u16 = code
                .parse()
                .map_err(|_| format!("bad status code {code:?}"))?;
            Ok((status, raw[head_end + 4..].to_vec()))
        }
        _ => Err(format!("bad status line {status_line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_splits_status_and_body() {
        let resp = Response::json(503, r#"{"error":"full"}"#).with_header("retry-after", "1");
        let raw = response_bytes(&resp);
        let (status, body) = parse_response(&raw).expect("parses");
        assert_eq!(status, 503);
        assert_eq!(body, br#"{"error":"full"}"#);
        assert!(parse_response(b"not-http").is_err());
        assert!(parse_response(b"SPAM/9 200\r\n\r\n").is_err());
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::json(503, "{}").with_header("retry-after", "1");
        let text = String::from_utf8(response_bytes(&resp)).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
