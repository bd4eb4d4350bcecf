//! The HTTP/1.1 response side and the one blocking client.
//!
//! A [`Response`] is what a [`Dispatcher`](crate::Dispatcher) answers
//! with and what the connection thread serializes, the server's own
//! 400/413/431/503 rejections included. Every response carries
//! `Connection: close`: one request per connection is what lets the
//! daemon serve each connection on one thread, and clients never have to
//! reason about keep-alive against a daemon that may be draining for
//! shutdown. [`fetch`] is the client side of the same exchange: one
//! request, read to EOF, [`parse_response`].

use std::fmt::{self, Write as _};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
        Response::new(status, "application/json", body.into())
    }

    /// A plain-text response (health checks, Prometheus exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status, "text/plain; charset=utf-8", body.into())
    }

    fn new(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            extra: Vec::new(),
            content_type,
            body: body.into_bytes(),
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

    /// The wire bytes: status line, `content-type`, `content-length`,
    /// `connection: close`, the extra headers in order, blank line, body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        for (name, value) in &self.extra {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
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

/// Splits raw response bytes (a full `Connection: close` exchange) into
/// `(status, body)`.
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

/// Why a [`fetch`] failed. It displays as `<step> <addr>: <detail>`,
/// e.g. `connect to 127.0.0.1:1: Connection refused (os error 111)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchError {
    /// The step that failed: `connect to`, `send to` and `read from` are
    /// I/O failures, `bad response from` a reply that is not HTTP/1.1.
    pub step: &'static str,
    /// The address the request went to, as given.
    pub addr: String,
    /// The underlying error.
    pub detail: String,
}

/// The [`FetchError::step`] of a reply that is not HTTP/1.1.
const BAD_RESPONSE: &str = "bad response from";

impl FetchError {
    /// Whether the exchange failed on the socket rather than in the reply.
    pub fn is_io(&self) -> bool {
        self.step != BAD_RESPONSE
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.step, self.addr, self.detail)
    }
}

/// One blocking exchange: connects to `addr` within `timeout`, writes
/// `method target` with a `host` header, `headers`, a `content-length`
/// when `body` is non-empty and `connection: close`, then reads to EOF
/// (each read and write within `timeout`) and returns the
/// `(status, body)` of the reply.
///
/// # Errors
///
/// A [`FetchError`] naming `addr` and the step that failed.
pub fn fetch(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), FetchError> {
    let fail = |step: &'static str, detail: String| FetchError {
        step,
        addr: addr.to_owned(),
        detail,
    };
    let mut stream = connect(addr, timeout).map_err(|e| fail("connect to", e.to_string()))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: {addr}\r\n");
    for (name, value) in headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    if !body.is_empty() {
        let _ = write!(head, "content-length: {}\r\n", body.len());
    }
    head.push_str("connection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| fail("send to", e.to_string()))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| fail("read from", e.to_string()))?;
    parse_response(&raw).map_err(|e| fail(BAD_RESPONSE, e))
}

/// Connects to the first address `addr` resolves to that accepts within
/// `timeout`.
fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved");
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parse_response_splits_status_and_body() {
        let resp = Response::json(503, r#"{"error":"full"}"#).with_header("retry-after", "1");
        let (status, body) = parse_response(&resp.to_bytes()).expect("parses");
        assert_eq!(status, 503);
        assert_eq!(body, br#"{"error":"full"}"#);
        assert!(parse_response(b"not-http").is_err());
        assert!(parse_response(b"SPAM/9 200\r\n\r\n").is_err());
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::json(503, "{}").with_header("retry-after", "1");
        assert_eq!(
            String::from_utf8(resp.to_bytes()).expect("utf8"),
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 2\r\nconnection: close\r\nretry-after: 1\r\n\r\n{}"
        );
    }

    /// A one-shot server: accepts one connection, reads the request head
    /// and `body_len` body bytes, answers `answer` and closes. Returns
    /// its address and a handle yielding the request bytes it read.
    fn one_shot(
        answer: &'static [u8],
        body_len: usize,
    ) -> (String, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().expect("accept");
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") {
                socket.read_exact(&mut byte).expect("request head");
                request.push(byte[0]);
            }
            let mut body = vec![0u8; body_len];
            socket.read_exact(&mut body).expect("request body");
            request.extend_from_slice(&body);
            socket.write_all(answer).expect("answer");
            request
        });
        (addr, server)
    }

    #[test]
    fn fetch_returns_the_canned_answer() {
        let (addr, server) = one_shot(b"HTTP/1.1 202 Accepted\r\ncontent-length: 4\r\n\r\nbody", 2);
        let got = fetch(
            &addr,
            "POST",
            "/v1/jobs",
            &[("x-request-id", "rq-1")],
            b"{}",
            Duration::from_secs(5),
        );
        assert_eq!(got, Ok((202, b"body".to_vec())));
        let request = String::from_utf8(server.join().expect("server")).expect("utf8");
        assert_eq!(
            request,
            format!(
                "POST /v1/jobs HTTP/1.1\r\nhost: {addr}\r\nx-request-id: rq-1\r\n\
                 content-length: 2\r\nconnection: close\r\n\r\n{{}}"
            )
        );
    }

    #[test]
    fn fetch_reports_a_bad_status_line_as_a_parse_error() {
        let (addr, server) = one_shot(b"SPAM 200\r\n\r\n", 0);
        let err =
            fetch(&addr, "GET", "/", &[], &[], Duration::from_secs(5)).expect_err("not HTTP/1.1");
        server.join().expect("server");
        assert!(!err.is_io(), "{err}");
        assert_eq!(
            err.to_string(),
            format!("bad response from {addr}: bad status line \"SPAM 200\"")
        );
    }

    #[test]
    fn fetch_reports_a_refused_port_as_io_naming_the_address() {
        // Port 1 on localhost refuses connections (nothing listens there).
        let err = fetch("127.0.0.1:1", "GET", "/", &[], &[], Duration::from_secs(5))
            .expect_err("refused");
        assert!(err.is_io(), "{err}");
        assert_eq!((err.step, err.addr.as_str()), ("connect to", "127.0.0.1:1"));
        assert!(
            err.to_string().starts_with("connect to 127.0.0.1:1: "),
            "{err}"
        );
    }
}
