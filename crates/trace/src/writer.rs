//! Text serialization of traces.
//!
//! Traces round-trip through the CloudPhysics-style CSV schema
//! ([`write_cp_csv`], parsed by [`crate::parse::CpParser`]) and can be
//! exported to the MSR CSV schema ([`write_msr_csv`]) for use with external
//! tooling that expects the SNIA format.
//!
//! Both writers share one byte-level formatter, the mirror of the parsers'
//! byte-level fast path: every integer is rendered straight into a reused
//! buffer, two digits per step from a 200-byte table, without `fmt`, and
//! the buffer reaches the sink in chunks of at least [`CHUNK_BYTES`]
//! through `write_all`. An unbuffered sink (a bare `File`) therefore sees
//! one `write` per chunk, not one per field. The writers never call
//! `flush`; that stays the caller's job.

use crate::error::{Error, Result};
use crate::record::{OpKind, TraceRecord};
use std::io::{self, Write};

/// The writers hand their sink the formatted text in chunks of at least
/// this many bytes (the last chunk of a trace may be shorter).
pub const CHUNK_BYTES: usize = 64 * 1024;

/// FILETIME tick of an MSR record at `timestamp_us == 0` (matches the
/// published traces' era).
const MSR_EPOCH_TICKS: u64 = 128_166_372_000_000_000;

/// Largest `timestamp_us` [`write_msr_csv`] can represent: one more and
/// `MSR_EPOCH_TICKS + timestamp_us * 10` no longer fits a `u64` tick.
pub const MSR_MAX_TIMESTAMP_US: u64 = (u64::MAX - MSR_EPOCH_TICKS) / 10;

/// The ASCII digits of 00, 01, …, 99, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// A line buffer in front of a sink: fields are appended as bytes, and
/// whole lines go out in [`CHUNK_BYTES`] chunks.
struct CsvOut<W: Write> {
    sink: W,
    buf: Vec<u8>,
}

impl<W: Write> CsvOut<W> {
    fn new(sink: W) -> Self {
        CsvOut {
            sink,
            // Room for one chunk plus the line that crosses its end.
            buf: Vec::with_capacity(CHUNK_BYTES + 256),
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends the decimal form of `value`.
    fn u64(&mut self, mut value: u64) {
        let mut digits = [0u8; 20]; // u64::MAX has 20 digits
        let mut start = digits.len();
        while value >= 100 {
            let pair = (value % 100) as usize * 2;
            value /= 100;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if value >= 10 {
            let pair = value as usize * 2;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            start -= 1;
            digits[start] = b'0' + value as u8;
        }
        self.buf.extend_from_slice(&digits[start..]);
    }

    /// Closes the current line (`tail` ends with its newline) and hands the
    /// buffer to the sink once it holds a full chunk.
    fn end_line(&mut self, tail: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(tail);
        if self.buf.len() >= CHUNK_BYTES {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Hands the sink whatever is left (without flushing it).
    fn finish(mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf)
    }
}

/// Writes `records` as CloudPhysics-style CSV, including the header line.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use smrseek_trace::writer::write_cp_csv;
/// use smrseek_trace::{Lba, TraceRecord};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut out = Vec::new();
/// write_cp_csv(&mut out, &[TraceRecord::read(5, Lba::new(2), 8)])?;
/// let text = String::from_utf8(out)?;
/// assert!(text.contains("5,R,1024,4096"));
/// # Ok(())
/// # }
/// ```
pub fn write_cp_csv<W: Write>(writer: W, records: &[TraceRecord]) -> Result<()> {
    let mut out = CsvOut::new(writer);
    out.end_line(b"timestamp_us,op,offset_bytes,length_bytes\n")?;
    for rec in records {
        out.u64(rec.timestamp_us);
        out.bytes(match rec.op {
            OpKind::Read => b",R,",
            OpKind::Write => b",W,",
        });
        out.u64(rec.lba.to_bytes());
        out.bytes(b",");
        out.u64(rec.len_bytes());
        out.end_line(b"\n")?;
    }
    out.finish()?;
    Ok(())
}

/// Writes `records` in the SNIA MSR CSV schema.
///
/// Timestamps are emitted as Windows FILETIME ticks relative to an
/// arbitrary epoch (`MSR_EPOCH_TICKS + timestamp_us * 10`), hostname and
/// disk number are fixed to the supplied values, and the response-time
/// column is zero (it is not modeled).
///
/// # Errors
///
/// Propagates I/O errors from the writer, and returns [`Error::Format`] for
/// a record whose `timestamp_us` exceeds [`MSR_MAX_TIMESTAMP_US`] (its tick
/// does not fit a `u64`). On an error the sink may already hold a prefix
/// of the trace.
pub fn write_msr_csv<W: Write>(
    writer: W,
    records: &[TraceRecord],
    hostname: &str,
    disk: u32,
) -> Result<()> {
    // `,hostname,disk,` is the same on every line: format it once.
    let middle = format!(",{hostname},{disk},").into_bytes();
    let mut out = CsvOut::new(writer);
    for rec in records {
        let ticks = msr_ticks(rec.timestamp_us)?;
        out.u64(ticks);
        out.bytes(&middle);
        out.bytes(match rec.op {
            OpKind::Read => b"Read,",
            OpKind::Write => b"Write,",
        });
        out.u64(rec.lba.to_bytes());
        out.bytes(b",");
        out.u64(rec.len_bytes());
        out.end_line(b",0\n")?;
    }
    out.finish()?;
    Ok(())
}

/// The FILETIME tick [`write_msr_csv`] writes for `timestamp_us`.
fn msr_ticks(timestamp_us: u64) -> Result<u64> {
    timestamp_us
        .checked_mul(10)
        .and_then(|t| t.checked_add(MSR_EPOCH_TICKS))
        .ok_or_else(|| {
            Error::Format(format!(
                "timestamp {timestamp_us} us is past the last MSR tick \
                 ({MSR_MAX_TIMESTAMP_US} us)"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_reader, CpParser, MsrParser};
    use crate::types::Lba;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::write(0, Lba::new(100), 16),
            TraceRecord::read(250, Lba::new(100), 16),
            TraceRecord::read(300, Lba::new(0), 1),
        ]
    }

    #[test]
    fn cp_csv_roundtrip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_cp_csv(&mut buf, &recs).unwrap();
        let parsed = parse_reader(&buf[..], CpParser::new()).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn msr_csv_roundtrip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_msr_csv(&mut buf, &recs, "synth", 3).unwrap();
        let parsed = parse_reader(&buf[..], MsrParser::with_disk(3)).unwrap();
        // MSR timestamps are normalized relative to the first record, which
        // here is already at t=0, so the roundtrip is exact.
        assert_eq!(parsed, recs);
    }

    #[test]
    fn msr_csv_disk_tagging() {
        let recs = sample();
        let mut buf = Vec::new();
        write_msr_csv(&mut buf, &recs, "synth", 3).unwrap();
        assert!(parse_reader(&buf[..], MsrParser::with_disk(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn digits_of_edge_values() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            999,
            1000,
            12_345,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = CsvOut::new(Vec::new());
            out.u64(v);
            assert_eq!(out.buf, v.to_string().into_bytes(), "{v}");
        }
    }

    #[test]
    fn msr_line_bytes() {
        let recs = [
            TraceRecord::read(0, Lba::new(0), 0),
            TraceRecord::write(7, Lba::new(3), u32::MAX),
        ];
        let mut buf = Vec::new();
        write_msr_csv(&mut buf, &recs, "", u32::MAX).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "128166372000000000,,4294967295,Read,0,0,0\n\
             128166372000000070,,4294967295,Write,1536,2199023255040,0\n"
        );
    }

    #[test]
    fn msr_tick_overflow_is_a_format_error() {
        let last = [TraceRecord::read(MSR_MAX_TIMESTAMP_US, Lba::new(0), 1)];
        let mut buf = Vec::new();
        write_msr_csv(&mut buf, &last, "h", 0).unwrap();
        assert!(buf.starts_with(b"18446744073709551610,h,0,Read,"));

        for ts in [MSR_MAX_TIMESTAMP_US + 1, u64::MAX / 10 + 1, u64::MAX] {
            let recs = [TraceRecord::read(ts, Lba::new(0), 1)];
            let err = write_msr_csv(Vec::new(), &recs, "h", 0).unwrap_err();
            assert!(matches!(err, crate::Error::Format(_)), "{ts}: {err}");
        }
    }

    #[test]
    fn output_reaches_the_sink_in_chunks() {
        /// Records the size of every `write` call.
        struct Sizes(Vec<usize>);
        impl Write for Sizes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                panic!("the writers leave flushing to the caller");
            }
        }
        let recs: Vec<_> = (0..10_000)
            .map(|i| TraceRecord::write(i * 1_000, Lba::new(i * 8), 8))
            .collect();
        let mut sizes = Sizes(Vec::new());
        write_cp_csv(&mut sizes, &recs).unwrap();
        let (last, full) = sizes.0.split_last().unwrap();
        assert!(full.len() >= 3);
        assert!(full
            .iter()
            .all(|&n| (CHUNK_BYTES..CHUNK_BYTES + 64).contains(&n)));
        assert!(*last > 0 && *last < CHUNK_BYTES + 64);
    }
}
