//! Differential property test of the block-parallel ingest:
//! [`parse_reader`] must return exactly what collecting a serial
//! [`parse_iter`] pass over the same bytes returns — the same records, or
//! the same first error at the same line. Inputs are MSR traces of 1 to
//! 3 MiB, so they span several 1 MiB blocks, with odd lines spliced in
//! at random places and right around the block boundaries: CRLF line
//! ends, blank and `#` lines, CSV headers, zero-size records, malformed
//! and non-UTF-8 lines, and lines longer than [`MAX_LINE_BYTES`]. The
//! parallel side reads through a reader that returns short reads, and a
//! disk filter can make the parser's first record (and so its timestamp
//! epoch) come late.

use proptest::prelude::*;
use smrseek_trace::parse::{parse_iter, parse_reader, CpParser, MsrParser, MAX_LINE_BYTES};
use smrseek_trace::{Error, TraceRecord};
use std::io::{BufReader, Read};

const MIB: usize = 1 << 20;

/// A line spliced into the trace.
#[derive(Debug, Clone, Copy)]
enum Odd {
    Crlf,
    Blank,
    Comment,
    Header,
    ZeroSize,
    Malformed,
    NotUtf8,
    /// A data line whose ignored last field runs past `MAX_LINE_BYTES`.
    Overlong,
    /// A line of exactly `MAX_LINE_BYTES` bytes before its `\n`.
    AtLimit,
}

fn odd() -> impl Strategy<Value = Odd> {
    prop_oneof![
        4 => Just(Odd::Crlf),
        3 => Just(Odd::Blank),
        3 => Just(Odd::Comment),
        2 => Just(Odd::Header),
        3 => Just(Odd::ZeroSize),
        1 => Just(Odd::Malformed),
        1 => Just(Odd::NotUtf8),
        1 => Just(Odd::Overlong),
        1 => Just(Odd::AtLimit),
    ]
}

/// An ordinary MSR line, varied by `i`; disk `disk`.
fn data_line(i: u64, disk: u32) -> Vec<u8> {
    let op = if i.is_multiple_of(3) { "Read" } else { "Write" };
    format!(
        "{},host,{disk},{op},{},{},{}\n",
        128_166_372_003_061_629 + i * 977,
        (i * 7919 % 100_003) * 512,
        512 + (i % 16) * 512,
        i % 1000
    )
    .into_bytes()
}

fn odd_line(odd: Odd, i: u64) -> Vec<u8> {
    match odd {
        Odd::Crlf => {
            let mut line = data_line(i, 1);
            line.pop();
            line.extend_from_slice(b"\r\n");
            line
        }
        Odd::Blank => b"\n".to_vec(),
        Odd::Comment => b"# a comment, with commas\n".to_vec(),
        Odd::Header => b"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n".to_vec(),
        Odd::ZeroSize => {
            format!("{},host,1,Read,4096,0,0\n", 128_166_372_003_061_629 + i).into_bytes()
        }
        Odd::Malformed => b"12,host,1,Trim,0,512,0\n".to_vec(),
        Odd::NotUtf8 => b"12,host,1,Read,0,512,\xff\n".to_vec(),
        Odd::Overlong => {
            let mut line = data_line(i, 1);
            line.pop();
            line.push(b',');
            line.extend(std::iter::repeat_n(b'7', MAX_LINE_BYTES + 1));
            line.push(b'\n');
            line
        }
        Odd::AtLimit => {
            let mut line = data_line(i, 1);
            line.pop();
            line.push(b',');
            let pad = MAX_LINE_BYTES - line.len();
            line.extend(std::iter::repeat_n(b'7', pad));
            line.push(b'\n');
            line
        }
    }
}

/// A trace of about `bytes` bytes: data lines on disk 0 for its first
/// `late` bytes, then on disk 1, with each `odd` line spliced in before
/// the first line that starts at or past its offset; without `tail` the
/// last line has no `\n`.
fn trace(bytes: usize, late: usize, odd: &[(usize, Odd)], tail: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + MIB / 4);
    let mut odd: Vec<(usize, Odd)> = odd.to_vec();
    odd.sort_by_key(|&(at, _)| at);
    let mut next = odd.iter().peekable();
    let mut i = 0u64;
    while out.len() < bytes {
        while let Some(&&(_, kind)) = next.peek().filter(|(at, _)| *at <= out.len()) {
            out.extend(odd_line(kind, i));
            next.next();
        }
        let disk = u32::from(out.len() >= late);
        out.extend(data_line(i, disk));
        i += 1;
    }
    if !tail {
        out.pop();
    }
    out
}

/// A reader that hands out `chunks` bytes at a time, cycling.
struct ShortReads<'a> {
    bytes: &'a [u8],
    chunks: Vec<usize>,
    k: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.chunks[self.k % self.chunks.len()].min(buf.len());
        self.k += 1;
        let n = want.min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A comparable outcome: the records, or the first error as its text
/// (which carries the line number).
fn outcome(result: smrseek_trace::Result<Vec<TraceRecord>>) -> Result<Vec<TraceRecord>, String> {
    result.map_err(|e| match e {
        Error::Parse { line, reason } => format!("parse at {line}: {reason}"),
        other => other.to_string(),
    })
}

fn serial(bytes: &[u8], parser: MsrParser) -> Result<Vec<TraceRecord>, String> {
    outcome(parse_iter(bytes, parser).collect())
}

fn blocks(bytes: &[u8], parser: MsrParser, chunks: Vec<usize>) -> Result<Vec<TraceRecord>, String> {
    let reader = ShortReads {
        bytes,
        chunks,
        k: 0,
    };
    outcome(parse_reader(BufReader::new(reader), parser))
}

/// Byte offsets near the 1 MiB block boundaries, and anywhere.
fn offset() -> impl Strategy<Value = usize> {
    prop_oneof![
        (1usize..3, -300isize..300).prop_map(|(k, d)| (k * MIB).saturating_add_signed(d)),
        0usize..3 * MIB,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_parse_matches_the_serial_parse(
        bytes in MIB..3 * MIB,
        late in prop_oneof![Just(0usize), 0usize..2 * MIB],
        odd in prop::collection::vec((offset(), odd()), 0..6),
        tail in prop::bool::ANY,
        chunks in prop::collection::vec(1usize..20_000, 1..5),
        filter in prop::bool::ANY,
    ) {
        let input = trace(bytes, late, &odd, tail);
        let parser = if filter { MsrParser::with_disk(1) } else { MsrParser::new() };
        let want = serial(&input, parser.clone());
        let got = blocks(&input, parser, chunks);
        match (&want, &got) {
            (Ok(a), Ok(b)) => prop_assert!(a == b, "records differ ({} vs {})", a.len(), b.len()),
            _ => prop_assert_eq!(want, got),
        }
    }
}

#[test]
fn an_error_deep_in_a_parallel_block_names_its_global_line() {
    let mut input = trace(3 * MIB, 0, &[], true);
    let lines = input.iter().filter(|&&b| b == b'\n').count();
    input.extend_from_slice(b"12,host,0,Read,0,notanumber,0\n");
    input.extend(trace(MIB, 0, &[], true));
    let err = parse_reader(&input[..], MsrParser::new()).unwrap_err();
    assert!(
        matches!(err, Error::Parse { line, .. } if line == lines as u64 + 1),
        "{err}"
    );
    assert_eq!(
        outcome(Err(err)),
        serial(&input, MsrParser::new()).map(|_| Vec::new())
    );
}

#[test]
fn a_line_longer_than_a_block_is_refused_at_its_line() {
    let mut input = trace(MIB + MIB / 2, 0, &[], true);
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u64;
    input.extend(std::iter::repeat_n(b'1', 2 * MIB));
    let err = parse_reader(&input[..], MsrParser::new()).unwrap_err();
    let want = format!("line {} is longer than {MAX_LINE_BYTES} bytes", lines + 1);
    assert!(matches!(&err, Error::Format(msg) if *msg == want), "{err}");
    assert_eq!(
        outcome(Err(err)),
        serial(&input, MsrParser::new()).map(|_| Vec::new())
    );
}

#[test]
fn a_late_first_record_settles_the_epoch_at_that_record() {
    // Disk 1's first line comes two blocks in: its timestamp is the epoch
    // of every later record, whichever thread parses it.
    let input = trace(3 * MIB, 2 * MIB + 100, &[], true);
    let records = parse_reader(&input[..], MsrParser::with_disk(1)).expect("parses");
    assert_eq!(records[0].timestamp_us, 0);
    assert_eq!(Ok(records), serial(&input, MsrParser::with_disk(1)));
}

#[test]
fn other_formats_parse_alike_across_blocks() {
    let mut input = b"timestamp_us,op,offset_bytes,length_bytes\n".to_vec();
    let mut i = 0u64;
    while input.len() < 2 * MIB + 1000 {
        input.extend(
            format!(
                "{},{},{},{}\n",
                i * 3,
                ["R", "W"][i as usize % 2],
                i * 4096,
                512 + i % 7
            )
            .bytes(),
        );
        i += 1;
    }
    let serial: smrseek_trace::Result<Vec<_>> = parse_iter(&input[..], CpParser::new()).collect();
    let blocks = parse_reader(&input[..], CpParser::new());
    assert_eq!(serial.expect("parses"), blocks.expect("parses"));
}
