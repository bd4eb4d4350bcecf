//! Byte-mutation property tests for the CSV parsers: no input, however
//! mangled, may panic [`MsrParser`] or [`CpParser`]. Lines start from the
//! formats' own field layouts, with numeric fields drawn near `u32::MAX`
//! and `u64::MAX` (and past it), then get truncated, spliced with stray
//! bytes, or lose bytes. Every line must end in a record or a typed
//! [`Error`].

use proptest::prelude::*;
use smrseek_trace::parse::{parse_iter, CpParser, LineParser, MsrParser};
use smrseek_trace::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A numeric field: ordinary values, values near `u32::MAX` and
/// `u64::MAX`, one past `u64::MAX`, long digit runs, empty and negative.
fn number() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => (0u64..1 << 20).prop_map(|n| n.to_string()),
        1 => (0u64..1024).prop_map(|k| (u64::from(u32::MAX) - 512 + k).to_string()),
        3 => (0u64..1024).prop_map(|k| (u64::MAX - k).to_string()),
        1 => Just(String::from("18446744073709551616")),
        1 => (21usize..40).prop_map(|n| "9".repeat(n)),
        1 => Just(String::new()),
        1 => Just(String::from("-1")),
    ]
}

/// An operation field, mostly well-formed.
fn op() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Read"),
        Just("Write"),
        Just("R"),
        Just("w"),
        Just("Trim"),
    ]
    .prop_map(str::to_owned)
}

/// `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`.
fn msr_line() -> impl Strategy<Value = String> {
    (number(), number(), op(), number(), number(), number()).prop_map(
        |(ts, disk, op, offset, size, resp)| {
            format!("{ts},host,{disk},{op},{offset},{size},{resp}")
        },
    )
}

/// `timestamp_us,op,offset_bytes,length_bytes`.
fn cp_line() -> impl Strategy<Value = String> {
    (number(), op(), number(), number())
        .prop_map(|(ts, op, offset, length)| format!("{ts},{op},{offset},{length}"))
}

/// Bytes spliced into lines: digits, separators, whitespace, line breaks,
/// comment and op characters, NUL, and bytes that are not UTF-8.
const STRAY: &[u8] = b"0189,,- +\t\r\n#\0\xff\xc3RWx.";

/// One edit applied to a line's bytes; positions wrap to the line length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    Insert(usize, u8),
    Replace(usize, u8),
    Delete(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..4, 0usize..128, 0usize..STRAY.len()).prop_map(|(kind, at, b)| {
        let byte = STRAY[b];
        match kind {
            0 => Mutation::Truncate(at),
            1 => Mutation::Insert(at, byte),
            2 => Mutation::Replace(at, byte),
            _ => Mutation::Delete(at),
        }
    })
}

/// Joins `lines` with newlines and applies `mutations` in order.
fn mangle(lines: &[String], mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = lines.join("\n").into_bytes();
    for &m in mutations {
        let len = bytes.len();
        match m {
            Mutation::Truncate(at) => bytes.truncate(at % (len + 1)),
            Mutation::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Mutation::Replace(at, b) if len > 0 => bytes[at % len] = b,
            Mutation::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            Mutation::Replace(..) | Mutation::Delete(_) => {}
        }
    }
    bytes
}

/// Parses `bytes` to the end, line by line, and checks that every line
/// ended in a record or a typed error rather than a panic.
fn check_parses<P: LineParser>(bytes: &[u8], parser: P) -> Result<(), TestCaseError> {
    let results = catch_unwind(AssertUnwindSafe(|| {
        parse_iter(bytes, parser)
            .map(|r| r.map(|rec| rec.sectors))
            .collect::<Vec<_>>()
    }));
    let Ok(results) = results else {
        return Err(TestCaseError::fail(format!(
            "parser panicked on {:?}",
            String::from_utf8_lossy(bytes)
        )));
    };
    for result in results {
        match result {
            Ok(sectors) => prop_assert!(sectors >= 1, "a parsed record covers a sector"),
            Err(Error::Parse { line, .. }) => prop_assert!(line >= 1, "lines count from 1"),
            // A line that is not UTF-8 fails in the line reader.
            Err(Error::Io(_)) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected error kind: {other}"
                )))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_msr_lines_never_panic(
        lines in prop::collection::vec(msr_line(), 1..4),
        mutations in prop::collection::vec(mutation(), 0..4),
        disk_filter in prop::bool::ANY,
    ) {
        let bytes = mangle(&lines, &mutations);
        if disk_filter {
            check_parses(&bytes, MsrParser::with_disk(0))?;
        } else {
            check_parses(&bytes, MsrParser::new())?;
        }
    }

    #[test]
    fn mutated_cloudphysics_lines_never_panic(
        lines in prop::collection::vec(cp_line(), 1..4),
        mutations in prop::collection::vec(mutation(), 0..4),
    ) {
        let bytes = mangle(&lines, &mutations);
        check_parses(&bytes, CpParser::new())?;
    }
}
