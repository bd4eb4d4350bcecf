//! Byte-mutation property tests for the job-submission parser: no body,
//! however mangled, may panic [`parse_job_request`] or recurse without
//! bound. Bodies start as structured submissions — a `trace` naming a
//! profile (with `ops` and `seed` drawn near their bounds and past them) or
//! a path, and a `config` with a layer and any subset of its knobs,
//! including a `policy` object with any subset of its fields, each knob
//! with a value of the right type or a wrong one — sometimes with a value
//! nested around the parser's recursion limit. They then get bits flipped,
//! stray bytes spliced in, bytes deleted, or the tail cut off. Every body
//! must end in a request or a non-empty 400 message, parsed on a thread
//! whose stack is far smaller than an unbounded descent would need.

use proptest::prelude::*;
use smrseek_server::api::parse_job_request;
use smrseek_workloads::profiles::MAX_OPS;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The parser's nesting bound: deeper bodies are a 400.
const RECURSION_LIMIT: usize = 128;

/// Stack of the parsing thread: ample for nesting up to the bound,
/// overflowed by a descent that ignored it on the deepest bodies below.
const PARSE_STACK: usize = 512 * 1024;

/// An unsigned value picked by `kind`: ordinary, at or past `bound`,
/// near `u64::MAX`, negative, fractional, or not a number at all.
fn uint(kind: u8, k: u64, bound: u64) -> String {
    match kind {
        0..=3 => (k % 100_000).to_string(),
        4 => bound.to_string(),
        5 => bound.saturating_add(1 + k % 8).to_string(),
        6 => (u64::MAX - k % 8).to_string(),
        7 => String::from("18446744073709551616"),
        8 => format!("-{}", k % 8),
        9 => format!("{}.5", k % 8),
        10 => String::from("null"),
        _ => format!("\"{k}\""),
    }
}

/// A boolean knob's value, or a wrong type.
fn flag(kind: u8) -> &'static str {
    match kind % 6 {
        0 | 1 => "true",
        2 | 3 => "false",
        4 => "1",
        _ => "\"yes\"",
    }
}

/// A signed policy weight: in range, past `i32`, or a wrong type.
fn int(kind: u8, k: u64) -> String {
    match kind % 8 {
        0..=3 => (k % 64) as i64 - 32,
        4 => i64::from(i32::MAX) + 1,
        5 => i64::from(i32::MIN) - 1,
        _ => return String::from("\"x\""),
    }
    .to_string()
}

/// The `trace` object: a profile (known or not, with `ops` and `seed`
/// drawn by `kind`) or a path.
fn trace(kind: u8, k: u64) -> String {
    let names = ["hm_1", "w91", "usr_0", "nope", ""];
    let name = names[(k % names.len() as u64) as usize];
    match kind % 8 {
        0..=4 => {
            let ops = uint(kind.wrapping_mul(7) % 12, k, MAX_OPS as u64);
            format!(r#"{{"profile": "{name}", "ops": {ops}}}"#)
        }
        5 => {
            let seed = uint(k as u8 % 12, k, u64::MAX);
            format!(r#"{{"profile": "{name}", "ops": 200, "seed": {seed}}}"#)
        }
        6 => String::from(r#"{"path": "/nonexistent/t.csv"}"#),
        _ => String::from(r#"{"path": "/t.csv", "profile": "hm_1"}"#),
    }
}

/// A `config.policy` object holding the fields `mask` selects.
fn policy(mask: u16, kind: u8, k: u64) -> String {
    let mut fields = Vec::new();
    if mask & 1 != 0 {
        fields.push(format!(r#""region_sectors": {}"#, uint(kind, k, 1 << 20)));
    }
    if mask & 2 != 0 {
        fields.push(format!(r#""ewma_shift": {}"#, uint(kind / 2, k, 32)));
    }
    for (bit, name) in [
        (4, "frag_weight"),
        (8, "write_weight"),
        (16, "hot_enter"),
        (32, "hot_exit"),
        (64, "score_clamp"),
    ] {
        if mask & bit != 0 {
            fields.push(format!(
                r#""{name}": {}"#,
                int(kind.wrapping_add(bit as u8), k)
            ));
        }
    }
    if mask & 128 != 0 {
        fields.push(String::from(r#""unknown": 1"#));
    }
    format!("{{{}}}", fields.join(", "))
}

/// A `config` object: a layer (known or not) and the knobs `mask`
/// selects, or one of the non-object forms.
fn config(layer: u8, mask: u16, kind: u8, k: u64) -> Option<String> {
    let layers = [
        "nols",
        "ls",
        "ls_defrag",
        "ls_prefetch",
        "ls_cache",
        "ls_adaptive",
        "ls_cache",
        "bogus",
    ];
    if mask == 0 {
        return None;
    }
    if mask == 1 {
        return Some(String::from(if layer.is_multiple_of(2) {
            "null"
        } else {
            "[]"
        }));
    }
    let mut fields = vec![format!(
        r#""layer": "{}""#,
        layers[layer as usize % layers.len()]
    )];
    if mask & 2 != 0 {
        fields.push(format!(r#""record_distances": {}"#, flag(kind)));
    }
    if mask & 4 != 0 {
        fields.push(format!(r#""track_fragments": {}"#, flag(kind / 3)));
    }
    if mask & 8 != 0 {
        fields.push(format!(
            r#""longseek_bucket_ops": {}"#,
            uint(kind, k, 1 << 20)
        ));
    }
    if mask & 32 != 0 {
        fields.push(format!(
            r#""flash_cache_bytes": {}"#,
            uint(kind / 3, k, 1 << 30)
        ));
    }
    if mask & 64 != 0 {
        fields.push(format!(r#""policy": {}"#, policy(mask >> 7, kind, k)));
    }
    if mask & (1 << 15) != 0 {
        fields.push(String::from(r#""unknown_knob": true"#));
    }
    Some(format!("{{{}}}", fields.join(", ")))
}

/// `inner` wrapped in `depth` arrays or single-field objects.
fn nested(depth: usize, objects: bool, inner: &str) -> String {
    let (open, close) = if objects {
        (r#"{"n": "#, "}")
    } else {
        ("[", "]")
    };
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

/// A structured body, with a value nested `depth` levels deep under the
/// trace, the config, or an extra top-level field when `depth > 0`.
fn body() -> impl Strategy<Value = String> {
    let depth = prop_oneof![
        4 => Just(0usize),
        2 => RECURSION_LIMIT - 8..RECURSION_LIMIT + 8,
        1 => 1usize..RECURSION_LIMIT,
        1 => 20_000usize..40_000,
    ];
    (
        (0u8..16, 0u64..u64::MAX),
        (0u8..8, 0u16..u16::MAX),
        0u8..12,
        depth,
        0u8..6,
    )
        .prop_map(|((tkind, k), (layer, mask), kind, depth, place)| {
            let trace = trace(tkind, k);
            let config = config(layer, mask, kind, k);
            let deep = nested(depth, place % 2 == 0, "1");
            let mut fields = Vec::new();
            match (depth, place / 2) {
                (0, _) => fields.push(format!(r#""trace": {trace}"#)),
                (_, 0) => fields.push(format!(r#""trace": {deep}"#)),
                (_, 1) => {
                    fields.push(format!(r#""trace": {trace}"#));
                    fields.push(format!(r#""config": {{"layer": "ls", "policy": {deep}}}"#));
                }
                _ => {
                    fields.push(format!(r#""trace": {trace}"#));
                    fields.push(format!(r#""extra": {deep}"#));
                }
            }
            if let Some(config) = config.filter(|_| depth == 0) {
                fields.push(format!(r#""config": {config}"#));
            }
            format!("{{{}}}", fields.join(", "))
        })
}

/// One edit applied to a body; positions wrap to the body length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip(usize, u8),
    Truncate(usize),
    Insert(usize, u8),
    Delete(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let stray = prop_oneof![
        Just(b'{'),
        Just(b'['),
        Just(b'"'),
        Just(b'\\'),
        Just(b':'),
        Just(b','),
        Just(b'-'),
        Just(b'9'),
        Just(0xff),
        0u8..=255,
    ];
    prop_oneof![
        3 => (0usize..1 << 16, 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, 1 << bit)),
        1 => (0usize..1 << 16).prop_map(Mutation::Truncate),
        2 => (0usize..1 << 16, stray).prop_map(|(at, b)| Mutation::Insert(at, b)),
        2 => (0usize..1 << 16).prop_map(Mutation::Delete),
    ]
}

fn mangle(body: &str, mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = body.as_bytes().to_vec();
    for &m in mutations {
        let len = bytes.len();
        match m {
            Mutation::Flip(at, mask) if len > 0 => bytes[at % len] ^= mask,
            Mutation::Truncate(at) => bytes.truncate(at % (len + 1)),
            Mutation::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Mutation::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            Mutation::Flip(..) | Mutation::Delete(_) => {}
        }
    }
    bytes
}

/// Parses `bytes` on a small-stack thread: `Ok(None)` for a request,
/// `Ok(Some(message))` for a 400, `Err` if the parser panicked.
fn parse(bytes: Vec<u8>) -> Result<Option<String>, TestCaseError> {
    let len = bytes.len();
    std::thread::Builder::new()
        .stack_size(PARSE_STACK)
        .spawn(move || catch_unwind(AssertUnwindSafe(|| parse_job_request(&bytes).err())))
        .expect("spawn parser thread")
        .join()
        .expect("parser thread")
        .map_err(|_| TestCaseError::fail(format!("parse_job_request panicked on {len} bytes")))
}

/// Deepest nesting in `bytes` outside strings, the way a JSON parser
/// counts it.
fn depth(bytes: &[u8]) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for &b in bytes {
        match (in_string, b) {
            (true, _) if escaped => escaped = false,
            (true, b'\\') => escaped = true,
            (true, b'"') => in_string = false,
            (false, b'"') => in_string = true,
            (false, b'[' | b'{') => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            (false, b']' | b'}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    deepest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every structured body, unmutated and mangled, parses to a request
    /// or a non-empty 400 message without panicking; nesting past the
    /// limit is always a 400.
    #[test]
    fn mangled_job_bodies_are_a_request_or_a_400(
        body in body(),
        mutations in prop::collection::vec(mutation(), 0..6),
    ) {
        for bytes in [body.clone().into_bytes(), mangle(&body, &mutations)] {
            let deepest = depth(&bytes);
            let outcome = parse(bytes)?;
            if let Some(message) = &outcome {
                prop_assert!(!message.is_empty(), "empty 400 message");
            }
            if deepest > RECURSION_LIMIT {
                prop_assert!(outcome.is_some(), "nesting {} was accepted", deepest);
            }
        }
    }
}

/// Every knob the generator draws is one the parser knows: a body
/// setting each of them to a valid value is a request, and the same body
/// with one more knob, or nested past the limit, is a 400.
#[test]
fn every_drawn_knob_is_a_known_one() {
    let knobs = r#""layer": "ls_cache", "record_distances": true, "track_fragments": false,
        "longseek_bucket_ops": 500, "flash_cache_bytes": 4194304,
        "policy": {"region_sectors": 8192, "ewma_shift": 3, "frag_weight": 2,
                   "write_weight": 1, "hot_enter": 4, "hot_exit": -4, "score_clamp": 8}"#;
    let trace = trace(0, 500);
    let body = format!(r#"{{"trace": {trace}, "config": {{{knobs}}}}}"#);
    assert!(parse_job_request(body.as_bytes()).is_ok(), "{body}");
    let body = format!(r#"{{"trace": {trace}, "config": {{{knobs}, "unknown_knob": true}}}}"#);
    let err = parse_job_request(body.as_bytes()).expect_err("an unknown knob is a 400");
    assert!(err.contains("unknown"), "{err}");
    let deep = format!(
        r#"{{"trace": {}}}"#,
        nested(RECURSION_LIMIT + 1, false, "1")
    );
    let err = parse_job_request(deep.as_bytes()).expect_err("nesting past the limit is a 400");
    assert!(err.contains("recursion limit"), "{err}");
}
