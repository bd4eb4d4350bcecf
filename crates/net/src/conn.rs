//! Incremental HTTP/1.1 request framing and parsing.
//!
//! A connection thread feeds whatever bytes each `read(2)` returned into
//! a [`RequestFramer`]; the framer finds the end of the request head,
//! parses it once — request line, headers, `Content-Length` — enforces
//! size limits, and hands over the parsed [`Request`] when its body has
//! arrived. This is the daemon's only HTTP request parser.

/// Size limits enforced while framing a request.
#[derive(Debug, Clone, Copy)]
pub struct FramingLimits {
    /// Maximum bytes of request head (request line + headers + blank line).
    pub max_head: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body: usize,
}

impl Default for FramingLimits {
    fn default() -> Self {
        FramingLimits {
            max_head: 16 * 1024,
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request target path (query strings are not used by the API and are
    /// kept attached verbatim).
    pub target: String,
    /// Headers as `(name, value)` pairs in arrival order, names as
    /// received (matching is case-insensitive via [`Request::header`]).
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of feeding bytes to a [`RequestFramer`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// More bytes are needed.
    Partial,
    /// A complete request, parsed.
    Complete(Request),
    /// The head or declared body exceeds the configured limit. The payload
    /// names which; the connection should answer with the paired HTTP
    /// status and close.
    Oversized(&'static str),
    /// The head arrived but is not an acceptable HTTP/1.1 request head.
    /// The message is fixed text, never client bytes.
    Malformed(&'static str),
}

/// Accumulates request bytes until one full HTTP/1.1 request is buffered.
#[derive(Debug)]
pub struct RequestFramer {
    buf: Vec<u8>,
    scanned: usize,
    /// The parsed head (body still empty) and the byte offset one past its
    /// terminating `\r\n\r\n`, once seen.
    head: Option<(Request, usize)>,
    /// Total bytes needed (head + declared body), once the head is parsed.
    need: usize,
    limits: FramingLimits,
}

impl RequestFramer {
    /// Creates a framer enforcing `limits`.
    pub fn new(limits: FramingLimits) -> RequestFramer {
        RequestFramer {
            buf: Vec::new(),
            scanned: 0,
            head: None,
            need: 0,
            limits,
        }
    }

    /// Bytes buffered so far.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feeds freshly read bytes; call repeatedly until non-[`Partial`].
    ///
    /// [`Partial`]: FrameStatus::Partial
    pub fn push(&mut self, bytes: &[u8]) -> FrameStatus {
        self.buf.extend_from_slice(bytes);
        if self.head.is_none() {
            // Rescan from 3 bytes back so a terminator split across reads
            // is still found.
            let start = self.scanned.saturating_sub(3);
            match find_terminator(&self.buf[start..]) {
                Some(at) => {
                    let head_end = start + at + 4;
                    if head_end > self.limits.max_head {
                        return FrameStatus::Oversized("request head exceeds limit");
                    }
                    let (request, body_len) = match parse_head(&self.buf[..head_end]) {
                        Ok(parsed) => parsed,
                        Err(msg) => return FrameStatus::Malformed(msg),
                    };
                    if body_len > self.limits.max_body {
                        return FrameStatus::Oversized("request body exceeds limit");
                    }
                    self.head = Some((request, head_end));
                    self.need = head_end.saturating_add(body_len);
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buf.len() > self.limits.max_head {
                        return FrameStatus::Oversized("request head exceeds limit");
                    }
                    return FrameStatus::Partial;
                }
            }
        }
        if self.buf.len() < self.need {
            return FrameStatus::Partial;
        }
        let (mut request, head_end) = self.head.take().expect("the head is parsed above");
        // A compliant client sends nothing past the declared body on a
        // Connection: close exchange; drop any surplus.
        self.buf.truncate(self.need);
        request.body = self.buf.split_off(head_end);
        self.buf.clear();
        self.scanned = 0;
        FrameStatus::Complete(request)
    }
}

fn find_terminator(hay: &[u8]) -> Option<usize> {
    hay.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a complete request head (through its blank line) into a
/// [`Request`] with an empty body, plus the declared body length.
///
/// The request line needs a non-empty method, a target starting with `/`
/// and an `HTTP/1.x` version. Header lines without a `:` are skipped;
/// values are trimmed. `Content-Length` absent means 0; duplicates must
/// agree; the value must be a plain decimal.
fn parse_head(head: &[u8]) -> Result<(Request, usize), &'static str> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not valid UTF-8")?;
    let mut lines = text.split("\r\n");
    let mut parts = lines.next().unwrap_or_default().split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err("bad request line"),
    };
    if !version.starts_with("HTTP/1.") {
        return Err("unsupported HTTP version");
    }
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = plain_decimal(value).ok_or("content-length is not a number")?;
            match content_length {
                Some(prev) if prev != parsed => return Err("conflicting content-length headers"),
                _ => content_length = Some(parsed),
            }
        }
        headers.push((name.to_owned(), value.to_owned()));
    }
    let request = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body: Vec::new(),
    };
    Ok((request, content_length.unwrap_or(0)))
}

/// A non-empty run of ASCII digits that fits a `usize` — no sign, no
/// whitespace, no radix prefix.
fn plain_decimal(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framer() -> RequestFramer {
        RequestFramer::new(FramingLimits::default())
    }

    fn complete(status: FrameStatus) -> Request {
        match status {
            FrameStatus::Complete(request) => request,
            other => panic!("unexpected status: {other:?}"),
        }
    }

    #[test]
    fn frames_request_with_body_in_one_push() {
        let req =
            complete(framer().push(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd"));
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/jobs");
        assert_eq!(req.header("content-length"), Some("4"));
        assert_eq!(req.body, b"abcd");
        // Bytes past the declared length are not part of the body.
        let req = complete(framer().push(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcd"));
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn frames_request_across_byte_by_byte_pushes() {
        // Every chunking, down to one byte per push, puts the terminator
        // and the head/body boundary across pushes somewhere.
        let wire = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"body\":true}";
        for step in [1usize, 2, 3, 5, 7, 64, 4096] {
            let mut f = framer();
            let chunks: Vec<&[u8]> = wire.chunks(step).collect();
            for (i, chunk) in chunks.iter().enumerate() {
                match f.push(chunk) {
                    FrameStatus::Partial => assert!(i + 1 < chunks.len(), "step {step}: early"),
                    FrameStatus::Complete(req) => {
                        assert_eq!(i + 1, chunks.len(), "step {step}: finished late");
                        assert_eq!(req.method, "POST", "step {step}");
                        assert_eq!(req.target, "/v1/jobs", "step {step}");
                        assert_eq!(req.body, b"{\"body\":true}", "step {step}");
                    }
                    other => panic!("step {step}: unexpected status: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn headers_are_kept_and_matched_case_insensitively() {
        let req = complete(framer().push(
            b"POST /v1/jobs HTTP/1.1\r\nX-Smrseek-Forwarded: 1\r\nno-colon\r\nHost:  a \r\n\r\n",
        ));
        assert_eq!(req.header("x-smrseek-forwarded"), Some("1"));
        assert_eq!(req.header("HOST"), Some("a"));
        assert_eq!(req.header("absent"), None);
        // Names are kept as received; lines without `:` are skipped.
        assert_eq!(req.headers.len(), 2);
        assert_eq!(req.headers[0].0, "X-Smrseek-Forwarded");
    }

    #[test]
    fn bad_request_line_and_version_are_malformed() {
        for (head, msg) in [
            (&b"NOT-HTTP\r\n\r\n"[..], "bad request line"),
            (b"GET x HTTP/1.1\r\n\r\n", "bad request line"),
            (b"GET /x HTTP/2.0\r\n\r\n", "unsupported HTTP version"),
            (
                b"GET /x HTTP/1.1\r\n\xff: y\r\n\r\n",
                "request head is not valid UTF-8",
            ),
        ] {
            assert_eq!(framer().push(head), FrameStatus::Malformed(msg));
        }
    }

    #[test]
    fn body_split_across_pushes() {
        let mut f = framer();
        assert_eq!(
            f.push(b"POST / HTTP/1.1\r\nContent-Length: 6\r\n\r\nab"),
            FrameStatus::Partial
        );
        assert_eq!(complete(f.push(b"cdef")).body, b"abcdef");
    }

    #[test]
    fn surplus_after_declared_body_is_dropped() {
        let req = complete(framer().push(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nokEXTRA"));
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut f = RequestFramer::new(FramingLimits {
            max_head: 64,
            max_body: 1024,
        });
        let long = vec![b'a'; 128];
        assert!(matches!(f.push(&long), FrameStatus::Oversized(_)));
        // A terminated head past the default limit is rejected whole.
        let mut wire = b"GET /x HTTP/1.1\r\nx-pad: ".to_vec();
        wire.resize(FramingLimits::default().max_head + 10, b'a');
        wire.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            framer().push(&wire),
            FrameStatus::Oversized("request head exceeds limit")
        );
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_body_arrives() {
        let mut f = RequestFramer::new(FramingLimits {
            max_head: 1024,
            max_body: 8,
        });
        let status = f.push(b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n");
        assert_eq!(status, FrameStatus::Oversized("request body exceeds limit"));
    }

    #[test]
    fn bad_content_length_is_malformed() {
        for head in [
            &b"POST / HTTP/1.1\r\ncontent-length: lots\r\n\r\n"[..],
            b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nx",
            b"POST / HTTP/1.1\r\ncontent-length:\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
        ] {
            let status = framer().push(head);
            assert!(matches!(status, FrameStatus::Malformed(_)), "{status:?}");
        }
    }

    #[test]
    fn signed_content_length_is_malformed() {
        // `str::parse::<usize>` accepts a leading `+`; a plain decimal
        // does not.
        let status = framer().push(b"POST / HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello");
        assert_eq!(
            status,
            FrameStatus::Malformed("content-length is not a number")
        );
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let req = complete(framer().push(b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n"));
        assert_eq!(
            (req.method.as_str(), req.target.as_str()),
            ("GET", "/metrics")
        );
        assert!(req.body.is_empty());
    }
}
