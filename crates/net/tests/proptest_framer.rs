//! Byte-mutation property tests for the HTTP request framer: no request
//! head, however mangled, may panic [`RequestFramer::push`]. Wires start
//! as valid GET and POST requests, with `Content-Length` values drawn
//! near `usize::MAX` (and past it), then get bits flipped, stray bytes
//! (`\r`, `\n`, `:`, digits, signs, non-UTF-8) spliced in, bytes deleted,
//! or the tail cut off, and are pushed in random split points. Every push
//! must end in one of the four [`FrameStatus`] outcomes, the buffer must
//! stay within the limits plus one push, and a complete request's body
//! must be exactly its declared length.

use proptest::prelude::*;
use smrseek_net::{FrameStatus, FramingLimits, Request, RequestFramer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A `Content-Length` value for a body of `body_len` bytes, picked by
/// `kind`: mostly the true length, otherwise values near `usize::MAX`,
/// one past it, long digit runs, a sign, hex, or nothing.
fn content_length(kind: u8, k: usize, body_len: usize) -> String {
    match kind {
        0..=5 => body_len.to_string(),
        6 | 7 => (usize::MAX - k).to_string(),
        8 => String::from("18446744073709551616"),
        9 => "9".repeat(21 + k % 20),
        10 => format!("+{body_len}"),
        11 => String::from("-1"),
        12 => String::from("0x10"),
        _ => String::new(),
    }
}

/// A valid request wire: a GET without a body, or a POST with a body and
/// a `Content-Length` header, sometimes sent twice.
fn wire() -> impl Strategy<Value = Vec<u8>> {
    let target = prop_oneof![
        Just("/healthz"),
        Just("/v1/jobs"),
        Just("/v1/jobs/7/events")
    ];
    let body = prop::collection::vec(b' '..=b'~', 0..48);
    (
        prop::bool::ANY,
        target,
        body,
        0u8..14,
        0usize..1024,
        prop::bool::ANY,
    )
        .prop_map(|(post, target, body, kind, k, twice)| {
            if !post {
                return format!("GET {target} HTTP/1.1\r\nHost: a\r\n\r\n").into_bytes();
            }
            let length = content_length(kind, k, body.len());
            let header = format!("content-length: {length}\r\n");
            let repeat = if twice { header.as_str() } else { "" };
            let mut wire = format!("POST {target} HTTP/1.1\r\n{header}{repeat}\r\n").into_bytes();
            wire.extend_from_slice(&body);
            wire
        })
}

/// Bytes spliced into wires: line breaks, header separators, digits,
/// signs, spaces, NUL, and bytes that are not UTF-8.
const STRAY: &[u8] = b"\r\n\r\n::0189+- \t\0\xff\xc3/H";

/// One edit applied to a wire's bytes; positions wrap to the wire length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    Truncate(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..4, 0usize..256, 0usize..STRAY.len(), 0u8..8).prop_map(|(kind, at, b, bit)| match kind {
        0 => Mutation::Flip(at, 1 << bit),
        1 => Mutation::Insert(at, STRAY[b]),
        2 => Mutation::Delete(at),
        _ => Mutation::Truncate(at),
    })
}

fn mangle(mut bytes: Vec<u8>, mutations: &[Mutation]) -> Vec<u8> {
    for &m in mutations {
        let len = bytes.len();
        match m {
            Mutation::Flip(at, mask) if len > 0 => bytes[at % len] ^= mask,
            Mutation::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Mutation::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            Mutation::Truncate(at) => bytes.truncate(at % (len + 1)),
            Mutation::Flip(..) | Mutation::Delete(_) => {}
        }
    }
    bytes
}

fn head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| at + 4)
}

/// The body length `bytes` declares: the first `Content-Length` header of
/// the head, read independently of the framer (0 when absent, `None`
/// when not a plain decimal `usize`).
fn declared_length(bytes: &[u8]) -> Option<usize> {
    let head = std::str::from_utf8(&bytes[..head_end(bytes)?]).ok()?;
    let value = head.split("\r\n").skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim())
    });
    match value {
        Some(v) if v.bytes().all(|b| b.is_ascii_digit()) => v.parse().ok(),
        Some(_) => None,
        None => Some(0),
    }
}

/// Pushes `bytes` in chunks of the given sizes (cycled) until the framer
/// reports anything but `Partial`, checking each push's invariants.
/// Returns the request if one completed.
fn frame(
    bytes: &[u8],
    chunk_sizes: &[usize],
    limits: FramingLimits,
) -> Result<Option<Request>, TestCaseError> {
    let mut framer = RequestFramer::new(limits);
    let mut rest = bytes;
    for &size in chunk_sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        let Ok(status) = catch_unwind(AssertUnwindSafe(|| framer.push(chunk))) else {
            return Err(TestCaseError::fail("push panicked"));
        };
        match status {
            FrameStatus::Partial => prop_assert!(
                framer.buffered() <= limits.max_head + limits.max_body + chunk.len(),
                "buffered {} past the limits",
                framer.buffered()
            ),
            FrameStatus::Complete(request) => {
                prop_assert_eq!(Some(request.body.len()), declared_length(bytes));
                prop_assert!(request.target.starts_with('/') && !request.method.is_empty());
                return Ok(Some(request));
            }
            FrameStatus::Oversized(_) | FrameStatus::Malformed(_) => return Ok(None),
        }
    }
    Ok(None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_request_heads_never_panic(
        wire in wire(),
        mutations in prop::collection::vec(mutation(), 0..5),
        chunk_sizes in prop::collection::vec(1usize..64, 1..6),
        max_head in 16usize..256,
        max_body in 0usize..64,
    ) {
        let bytes = mangle(wire, &mutations);
        frame(&bytes, &chunk_sizes, FramingLimits { max_head, max_body })?;
        let framed = frame(&bytes, &chunk_sizes, FramingLimits::default())?;
        // An unmutated wire completes exactly when its Content-Length is
        // its true body length.
        if mutations.is_empty() {
            let body_len = head_end(&bytes).map(|end| bytes.len() - end);
            prop_assert_eq!(framed.is_some(), declared_length(&bytes) == body_len);
        }
    }
}
