//! Parser for `blkparse` default text output (Linux blktrace).
//!
//! Lets Linux-origin traces feed the simulator directly. A typical line:
//!
//! ```text
//!   8,0    1      203     0.032743011  1739  Q   R 5316367 + 8 [fio]
//! ```
//!
//! Fields: `dev cpu seq timestamp pid action rwbs sector + count [proc]`.
//! Only queue (`Q`) events are kept, so each logical request is counted
//! once; RWBS strings containing `R` map to
//! reads, `W` to writes, others (e.g. pure flush/discard) are skipped.

use super::LineParser;
use crate::error::{Error, Result};
use crate::record::{OpKind, TraceRecord};
use crate::types::Lba;

/// Parser for blkparse text output.
///
/// # Example
///
/// ```
/// use smrseek_trace::parse::{parse_reader, BlktraceParser};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "\
///   8,0    1        1     0.000000000  1234  Q   W 2048 + 16 [writer]\n\
///   8,0    1        2     0.001000000  1234  C   W 2048 + 16 [writer]\n\
///   8,0    0        3     0.002500000  1234  Q  RA 4096 + 8 [reader]\n";
/// let recs = parse_reader(text.as_bytes(), BlktraceParser::new())?;
/// assert_eq!(recs.len(), 2); // completion event ignored
/// assert_eq!(recs[1].timestamp_us, 2500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlktraceParser;

impl BlktraceParser {
    /// Keeps queue (`Q`) events.
    pub fn new() -> Self {
        BlktraceParser
    }
}

impl LineParser for BlktraceParser {
    fn parse_line(&mut self, line: &str, line_no: u64) -> Result<Option<TraceRecord>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("CPU") {
            return Ok(None); // blank, comment, or blkparse summary section
        }
        let mut fields = line.split_whitespace();
        let _dev = req(&mut fields, line_no, "device")?;
        let _cpu = req(&mut fields, line_no, "cpu")?;
        let _seq = req(&mut fields, line_no, "sequence")?;
        let ts = req(&mut fields, line_no, "timestamp")?;
        let _pid = req(&mut fields, line_no, "pid")?;
        let action = req(&mut fields, line_no, "action")?;
        let rwbs = req(&mut fields, line_no, "rwbs")?;

        // Other actions (C, D, I, M, ...) are simply skipped — they
        // describe the same request at a different lifecycle stage.
        if action != "Q" {
            return Ok(None);
        }
        let op = if rwbs.contains('R') {
            OpKind::Read
        } else if rwbs.contains('W') {
            OpKind::Write
        } else {
            return Ok(None); // flush/discard/etc.
        };
        let sector: u64 = req(&mut fields, line_no, "sector")?
            .parse()
            .map_err(|_| Error::parse(line_no, "sector is not an integer"))?;
        let plus = req(&mut fields, line_no, "'+'")?;
        if plus != "+" {
            return Err(Error::parse(
                line_no,
                "expected '+' between sector and count",
            ));
        }
        let count: u32 = req(&mut fields, line_no, "count")?
            .parse()
            .map_err(|_| Error::parse(line_no, "count is not an integer"))?;
        if count == 0 {
            return Ok(None);
        }
        Error::check_end(line_no, sector, count)?;

        // Timestamp is seconds.nanoseconds.
        let timestamp_us =
            parse_seconds_to_us(ts).ok_or_else(|| Error::parse(line_no, "malformed timestamp"))?;
        Ok(Some(TraceRecord::new(
            timestamp_us,
            op,
            Lba::new(sector),
            count,
        )))
    }
}

fn req<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    line_no: u64,
    name: &str,
) -> Result<&'a str> {
    fields
        .next()
        .ok_or_else(|| Error::parse(line_no, format!("missing field {name}")))
}

fn parse_seconds_to_us(ts: &str) -> Option<u64> {
    let (secs, frac) = ts.split_once('.').unwrap_or((ts, "0"));
    let secs: u64 = secs.parse().ok()?;
    // Normalize the fraction to exactly 9 digits (nanoseconds).
    let mut nanos = String::from(frac);
    if nanos.len() > 9 || !nanos.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    while nanos.len() < 9 {
        nanos.push('0');
    }
    let nanos: u64 = nanos.parse().ok()?;
    secs.checked_mul(1_000_000)?.checked_add(nanos / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_reader;

    const SAMPLE: &str = "\
  8,0    1        1     0.000000000  1739  Q   W 1024 + 8 [kworker]
  8,0    1        2     0.000100000  1739  D   W 1024 + 8 [kworker]
  8,0    1        3     0.000200000  1739  C   W 1024 + 8 [0]
  8,0    0        4     1.500000000  2000  Q  RA 4096 + 64 [fio]
  8,0    0        5     2.000000123  2000  Q   R 8192 + 8 [fio]
  8,0    0        6     2.100000000  2000  Q   N 0 + 0 [fio]
";

    #[test]
    fn keeps_only_queue_events() {
        let recs = parse_reader(SAMPLE.as_bytes(), BlktraceParser::new()).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].op, OpKind::Write);
        assert_eq!(recs[0].lba, Lba::new(1024));
        assert_eq!(recs[0].sectors, 8);
        assert_eq!(recs[1].op, OpKind::Read); // RA counts as read
        assert_eq!(recs[1].sectors, 64);
    }

    #[test]
    fn timestamps_to_microseconds() {
        let recs = parse_reader(SAMPLE.as_bytes(), BlktraceParser::new()).unwrap();
        assert_eq!(recs[0].timestamp_us, 0);
        assert_eq!(recs[1].timestamp_us, 1_500_000);
        assert_eq!(recs[2].timestamp_us, 2_000_000);
    }

    #[test]
    fn other_lifecycle_events_skipped() {
        let mut p = BlktraceParser::new();
        for line in SAMPLE.lines().filter(|l| !l.contains(" Q ")) {
            assert!(p.parse_line(line, 1).unwrap().is_none(), "{line}");
        }
        let repeated = "  8,0 1 1 0.0 1 QQ W 1024 + 8 [x]";
        assert!(p.parse_line(repeated, 1).unwrap().is_none());
    }

    #[test]
    fn skips_summary_and_blank_lines() {
        let text = "\nCPU0 (8,0):\n Reads Queued: 1, 4KiB\n";
        let mut p = BlktraceParser::new();
        assert!(p.parse_line("", 1).unwrap().is_none());
        assert!(p.parse_line("CPU0 (8,0):", 2).unwrap().is_none());
        // Summary body lines do not match Q actions and have odd shapes;
        // they must not produce records (errors are acceptable for truly
        // malformed input, silence for non-matching actions).
        let _ = text;
    }

    #[test]
    fn malformed_lines_error() {
        let mut p = BlktraceParser::new();
        assert!(p
            .parse_line("8,0 1 1 0.0 1 Q R notanumber + 8 [x]", 3)
            .is_err());
        assert!(p.parse_line("8,0 1 1 0.0 1 Q R 10 8 [x]", 4).is_err());
        assert!(p.parse_line("8,0 1 1 bad.ts 1 Q R 10 + 8 [x]", 5).is_err());
        assert!(p.parse_line("8,0 1 1", 6).is_err());
    }

    #[test]
    fn end_past_the_sector_limit_errors() {
        let mut p = BlktraceParser::new();
        let line = "8,0 0 1 0.000001000 100 Q W 18446744073709551610 + 8 [x]";
        assert!(matches!(
            p.parse_line(line, 7),
            Err(Error::Parse { line: 7, .. })
        ));
        let limit = crate::MAX_END_SECTOR;
        let last = format!("8,0 0 1 0.0 1 Q W {} + 8 [x]", limit - 8);
        assert!(
            p.parse_line(&last, 1).unwrap().is_some(),
            "ends at the limit"
        );
        let past = format!("8,0 0 1 0.0 1 Q W {} + 8 [x]", limit - 7);
        assert!(p.parse_line(&past, 1).is_err());
    }

    #[test]
    fn huge_timestamp_is_a_typed_error() {
        // Seconds whose microsecond count overflows u64.
        let mut p = BlktraceParser::new();
        let line = "8,0 1 1 99999999999999.000000000 1234 Q W 2048 + 16 [w]";
        match p.parse_line(line, 9) {
            Err(Error::Parse { line: 9, reason }) => {
                assert!(reason.contains("timestamp"), "{reason}")
            }
            other => panic!("expected a timestamp parse error, got {other:?}"),
        }
        assert_eq!(parse_seconds_to_us("18446744073709.551615"), Some(u64::MAX));
        assert_eq!(parse_seconds_to_us("18446744073709.551616"), None);
        assert_eq!(parse_seconds_to_us("18446744073710"), None);
    }

    #[test]
    fn zero_count_skipped() {
        let mut p = BlktraceParser::new();
        let r = p.parse_line("8,0 1 1 0.0 1 Q R 10 + 0 [x]", 1).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn fraction_normalization() {
        assert_eq!(parse_seconds_to_us("1.5"), Some(1_500_000));
        assert_eq!(parse_seconds_to_us("2"), Some(2_000_000));
        assert_eq!(parse_seconds_to_us("0.000001999"), Some(1));
        assert_eq!(parse_seconds_to_us("0.1234567891"), None); // >9 digits
        assert_eq!(parse_seconds_to_us("x.5"), None);
    }
}
