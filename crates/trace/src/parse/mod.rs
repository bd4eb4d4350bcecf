//! Parsers for on-disk trace formats.
//!
//! Two text formats are supported, matching the two trace families used in
//! the paper's evaluation:
//!
//! * [`msr`] — the SNIA MSR Cambridge CSV format (production Windows
//!   servers, 2007–2008), so the original public traces can be replayed
//!   unmodified.
//! * [`cloudphysics`] — a compact CSV schema for CloudPhysics-style traces
//!   (the originals are proprietary; this is the schema our synthetic
//!   stand-ins serialize to).
//!
//! * [`blktrace`] — Linux `blkparse` text output, so locally-captured
//!   traces feed the simulator directly.
//!
//! Binary replay format lives in [`crate::binary`].

pub mod blktrace;
mod blocks;
pub mod cloudphysics;
pub mod msr;

pub use blktrace::BlktraceParser;
pub use cloudphysics::CpParser;
pub use msr::MsrParser;

use crate::error::{Error, Result};
use crate::record::TraceRecord;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// The longest text line, in bytes without its `\n`, that [`sniff_path`]
/// and the text parsers read. Real trace lines are around a hundred
/// bytes; a longer one is [`Error::Format`], so a file with one huge line
/// (or a device that never sends `\n`) cannot make a reader buffer it
/// whole.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads one line of at most [`MAX_LINE_BYTES`] (plus its `\n`) into
/// `line`, replacing its contents. Returns the bytes read, 0 at the end
/// of the input.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    line_no: u64,
) -> Result<usize> {
    line.clear();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', line)?;
    if n > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
        return Err(overlong(line_no));
    }
    Ok(n)
}

/// The error for line `line_no` running past [`MAX_LINE_BYTES`].
fn overlong(line_no: u64) -> Error {
    Error::Format(format!(
        "line {line_no} is longer than {MAX_LINE_BYTES} bytes"
    ))
}

/// A line-oriented trace parser.
///
/// Implementations turn one text line into zero or one [`TraceRecord`];
/// blank lines and comment lines yield `None`.
///
/// A parser's state may change only until it yields its first record
/// (or its first error, which ends a [`parse_reader`] anyway): from then
/// on, what [`parse_line`](Self::parse_line) and
/// [`parse_prefix`](Self::parse_prefix) return for a line depends on the
/// line and its number alone. [`MsrParser`] settles its timestamp epoch
/// on its first record and keeps it; the other parsers have no state.
/// This is what lets [`parse_reader`] hand clones of a settled parser to
/// several threads and still return the records of one serial pass.
pub trait LineParser {
    /// Parses one line. `line_no` is 1-based, used only for error messages.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Parse`] when the line is malformed.
    fn parse_line(&mut self, line: &str, line_no: u64) -> Result<Option<TraceRecord>>;

    /// Byte-level fast path over the start of a buffered input: parses the
    /// first line of `buf` and returns what [`parse_line`](Self::parse_line)
    /// would return for it together with the bytes the line occupies,
    /// trailing `\n` included. Returns `None` — and leaves the parser state
    /// untouched — for any line it cannot prove it parses exactly as
    /// `parse_line` does (a malformed line, non-ASCII bytes, a line whose
    /// `\n` is not yet in `buf`, ...); that line then takes the `&str` path.
    /// The default has no fast path.
    fn parse_prefix(&mut self, buf: &[u8]) -> Option<(Option<TraceRecord>, usize)> {
        let _ = buf;
        None
    }
}

/// A streaming trace source: yields one parsed [`TraceRecord`] at a time
/// without ever materializing the trace, so arbitrarily large files replay
/// in bounded memory. Created by [`parse_iter`].
///
/// Each item is a `Result`: I/O errors from the reader and parse errors
/// from the parser surface in-stream at the line that caused them (a line
/// that is not UTF-8 is a parse error at its line number, a line longer
/// than [`MAX_LINE_BYTES`] a format error).
///
/// Each line is first offered to [`LineParser::parse_prefix`] straight from
/// the reader's buffer; a line it declines is read into the line buffer
/// and handed to [`LineParser::parse_line`]. Both paths count lines alike.
#[derive(Debug)]
pub struct RecordIter<R, P> {
    reader: R,
    parser: P,
    line: Vec<u8>,
    line_no: u64,
}

impl<R: BufRead, P: LineParser> Iterator for RecordIter<R, P> {
    type Item = Result<TraceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // A read error here resurfaces from `read_until` below. The
            // fast path sees at most one line's worth of the buffer, so an
            // over-long line is refused whatever the reader buffers.
            let fast = self.reader.fill_buf().ok().and_then(|buf| {
                let window = buf.len().min(MAX_LINE_BYTES + 1);
                self.parser.parse_prefix(&buf[..window])
            });
            if let Some((rec, used)) = fast {
                self.reader.consume(used);
                self.line_no += 1;
                match rec {
                    Some(rec) => return Some(Ok(rec)),
                    None => continue,
                }
            }
            self.line_no += 1;
            match read_line_bounded(&mut self.reader, &mut self.line, self.line_no) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(e)),
            }
            let Ok(line) = std::str::from_utf8(&self.line) else {
                return Some(Err(Error::parse(self.line_no, "line is not UTF-8")));
            };
            let trimmed = line.trim_end_matches(['\n', '\r']);
            match self.parser.parse_line(trimmed, self.line_no) {
                Ok(Some(rec)) => return Some(Ok(rec)),
                Ok(None) => continue, // blank/comment line
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Streams a trace from `reader` using `parser`, one record at a time.
///
/// This is the bounded-memory counterpart of [`parse_reader`]: the returned
/// iterator reuses a single line buffer and yields records as they parse.
///
/// # Example
///
/// ```
/// use smrseek_trace::parse::{parse_iter, CpParser};
///
/// let text = "100,R,4096,8192\n\n200,W,0,512\n";
/// let mut count = 0;
/// for rec in parse_iter(text.as_bytes(), CpParser::new()) {
///     rec.expect("well-formed line");
///     count += 1;
/// }
/// assert_eq!(count, 2);
/// ```
pub fn parse_iter<R: BufRead, P: LineParser>(reader: R, parser: P) -> RecordIter<R, P> {
    RecordIter {
        reader,
        parser,
        line: Vec::new(),
        line_no: 0,
    }
}

/// Reads an entire trace from `reader` using `parser`: the records, or
/// the first error, of collecting [`parse_iter`] over the same input.
///
/// The input is read in 1 MiB blocks cut at line ends. Blocks parse
/// serially until the parser yields its first record; the rest parse on
/// up to [`std::thread::available_parallelism`] threads (this one
/// included), each with a clone of the now settled parser (see
/// [`LineParser`]), and their records are appended in input order.
/// This thread alone reads; it parses a block itself whenever no other
/// thread is free to take it. A
/// block that fails is parsed again serially from its exact first line
/// number, so errors name the same line and say the same thing. Text in
/// flight is one block per thread.
///
/// # Errors
///
/// Propagates I/O errors from the reader and parse errors from the parser.
///
/// # Example
///
/// ```
/// use smrseek_trace::parse::{parse_reader, CpParser};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "100,R,4096,8192\n200,W,0,512\n";
/// let recs = parse_reader(text.as_bytes(), CpParser::new())?;
/// assert_eq!(recs.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_reader<R, P>(reader: R, parser: P) -> Result<Vec<TraceRecord>>
where
    R: BufRead,
    P: LineParser + Clone + Send,
{
    blocks::parse_reader(reader, parser)
}

/// A trace format identified by [`sniff_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectedFormat {
    /// SNIA MSR Cambridge CSV (7 comma-separated fields).
    Msr,
    /// CloudPhysics-style CSV (4 comma-separated fields).
    Cloudphysics,
    /// Linux `blkparse` text output.
    Blktrace,
    /// The compact binary format of [`crate::binary`] (v1 or v2).
    Binary,
}

/// Sniffs the on-disk format of the trace at `path`.
///
/// Binary traces carry the `SMRT` magic in their first bytes and are
/// checked first, so a binary file is never mistaken for CSV. Text
/// formats are told apart by their first data line: blkparse lines are
/// whitespace-separated with a `+` before the sector count, MSR lines
/// have at least 7 comma-separated fields, CloudPhysics lines fewer.
///
/// # Errors
///
/// Returns [`Error::Io`] if the file cannot be opened or read,
/// [`Error::Parse`] for a line before the first data line that is not
/// UTF-8, and [`Error::Format`] if it contains no data lines to sniff
/// from or a line before the first data line is longer than
/// [`MAX_LINE_BYTES`].
pub fn sniff_path(path: &Path) -> Result<DetectedFormat> {
    let mut file = File::open(path)?;
    let mut prefix = [0u8; 6];
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) => return Err(e.into()),
        }
    }
    if crate::binary::sniff_magic(&prefix[..filled]).is_some() {
        return Ok(DetectedFormat::Binary);
    }
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = Vec::new();
    let mut line_no = 0;
    loop {
        line_no += 1;
        if read_line_bounded(&mut reader, &mut line, line_no)? == 0 {
            break;
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            return Err(Error::parse(line_no, "line is not UTF-8"));
        };
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with("timestamp_us") {
            continue;
        }
        if t.split_whitespace().any(|f| f == "+") {
            return Ok(DetectedFormat::Blktrace);
        }
        return Ok(if t.split(',').count() >= 7 {
            DetectedFormat::Msr
        } else {
            DetectedFormat::Cloudphysics
        });
    }
    Err(Error::Format(
        "no data lines to sniff the format from".to_owned(),
    ))
}
/// Reads the whole trace at `path` in the given (usually sniffed) format,
/// materializing it. Binary traces go through [`crate::binary::read_binary`],
/// so a `.smrt` file is one more input format: every caller that loads a
/// trace file, whatever its format, gets the same in-memory record vector.
///
/// # Errors
///
/// Propagates I/O errors and parse/format errors from the underlying
/// reader.
pub fn parse_path(path: &Path, format: DetectedFormat) -> Result<Vec<TraceRecord>> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    match format {
        DetectedFormat::Msr => parse_reader(reader, MsrParser::new()),
        DetectedFormat::Cloudphysics => parse_reader(reader, CpParser::new()),
        DetectedFormat::Blktrace => parse_reader(reader, BlktraceParser::new()),
        DetectedFormat::Binary => crate::binary::read_binary(reader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_utf8_line_is_a_parse_error_at_its_own_line() {
        let lines: Vec<u64> = parse_iter(&b"a\n\xff\nx\n"[..], MsrParser::new())
            .map(|r| match r {
                Err(Error::Parse { line, .. }) => line,
                other => panic!("expected a parse error, got {other:?}"),
            })
            .collect();
        assert_eq!(lines, [1, 2, 3]);
        let err = parse_reader(&b"\xff\n"[..], CpParser::new()).unwrap_err();
        assert!(
            err.to_string().contains("line 1: line is not UTF-8"),
            "{err}"
        );
    }

    #[test]
    fn an_over_long_line_is_a_format_error() {
        // A line of exactly the limit still parses as a (bad) line.
        let mut at_limit = vec![b'x'; MAX_LINE_BYTES];
        at_limit.push(b'\n');
        let err = parse_reader(&at_limit[..], CpParser::new()).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }), "{err}");
        // One byte more, with or without a newline, is refused unread.
        let mut text = b"100,R,4096,8192\n".to_vec();
        text.extend(vec![b'7'; MAX_LINE_BYTES + 1]);
        for tail in [&b""[..], b"\n"] {
            let mut input = text.clone();
            input.extend_from_slice(tail);
            let err = parse_reader(&input[..], CpParser::new()).unwrap_err();
            assert!(
                matches!(&err, Error::Format(msg) if msg.contains("line 2 is longer")),
                "{err}"
            );
        }
    }

    #[test]
    fn an_over_long_line_is_refused_whatever_the_reader_buffers() {
        // A slice reader buffers the whole input, so the fast path could
        // see the long line whole; it is refused all the same.
        let mut line = b"1,h,0,Read,0,512,".to_vec();
        line.extend(vec![b'7'; MAX_LINE_BYTES]);
        line.push(b'\n');
        let err = parse_iter(&line[..], MsrParser::new())
            .next()
            .expect("one item")
            .unwrap_err();
        assert!(
            matches!(&err, Error::Format(msg) if msg.contains("line 1 is longer")),
            "{err}"
        );
    }

    #[test]
    fn sniffing_an_over_long_line_or_dev_zero_is_a_format_error() {
        let dir = std::env::temp_dir().join(format!("smrseek-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("long.csv");
        std::fs::write(&path, vec![b'1'; 4 * MAX_LINE_BYTES]).expect("write");
        for path in [path.as_path(), Path::new("/dev/zero")] {
            let err = sniff_path(path).unwrap_err();
            assert!(
                matches!(&err, Error::Format(msg) if msg.contains("line 1 is longer")),
                "{}: {err}",
                path.display()
            );
        }
        let err = parse_path(&path, DetectedFormat::Msr).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
