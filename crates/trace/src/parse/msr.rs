//! Parser for the SNIA MSR Cambridge block-trace CSV format.
//!
//! The MSR traces (Narayanan, Donnelly, Rowstron — FAST '08) are the older
//! of the two trace families studied in the paper. Each line is
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! ```
//!
//! where `Timestamp` and `ResponseTime` are Windows FILETIME values
//! (100 ns ticks since 1601-01-01), `Type` is `Read` or `Write`
//! (case-insensitive), and `Offset`/`Size` are in bytes.
//!
//! The parser normalizes timestamps to microseconds relative to the first
//! record, rounds offsets down and sizes up to whole sectors, and can filter
//! by disk number (the published traces bundle several disks per file).

use super::LineParser;
use crate::error::{Error, Result};
use crate::record::{OpKind, TraceRecord};
use crate::types::{bytes_to_sectors_ceil, Lba, SECTOR_SIZE};

/// Parser state for the MSR CSV format.
///
/// # Example
///
/// ```
/// use smrseek_trace::parse::{parse_reader, MsrParser};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "\
/// 128166372003061629,hm,1,Read,2449920,4096,1339\n\
/// 128166372016853766,hm,1,Write,2449920,4096,231\n";
/// let recs = parse_reader(text.as_bytes(), MsrParser::new())?;
/// assert_eq!(recs.len(), 2);
/// assert_eq!(recs[0].sectors, 8);
/// assert_eq!(recs[0].timestamp_us, 0); // normalized to first record
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsrParser {
    disk_filter: Option<u32>,
    first_ticks: Option<u64>,
}

impl MsrParser {
    /// Creates a parser that accepts records from every disk in the file.
    pub fn new() -> Self {
        MsrParser::default()
    }

    /// Creates a parser that keeps only records whose `DiskNumber` equals
    /// `disk`.
    pub fn with_disk(disk: u32) -> Self {
        MsrParser {
            disk_filter: Some(disk),
            first_ticks: None,
        }
    }
}

impl LineParser for MsrParser {
    fn parse_line(&mut self, line: &str, line_no: u64) -> Result<Option<TraceRecord>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut fields = line.split(',');
        let ts: u64 = next_field(&mut fields, line_no, "Timestamp")?
            .parse()
            .map_err(|_| Error::parse(line_no, "Timestamp is not an integer"))?;
        let _hostname = next_field(&mut fields, line_no, "Hostname")?;
        let disk: u32 = next_field(&mut fields, line_no, "DiskNumber")?
            .parse()
            .map_err(|_| Error::parse(line_no, "DiskNumber is not an integer"))?;
        let op = match next_field(&mut fields, line_no, "Type")? {
            t if t.eq_ignore_ascii_case("read") => OpKind::Read,
            t if t.eq_ignore_ascii_case("write") => OpKind::Write,
            other => {
                return Err(Error::parse(
                    line_no,
                    format!("Type must be Read or Write, got {other:?}"),
                ))
            }
        };
        let offset: u64 = next_field(&mut fields, line_no, "Offset")?
            .parse()
            .map_err(|_| Error::parse(line_no, "Offset is not an integer"))?;
        let size: u64 = next_field(&mut fields, line_no, "Size")?
            .parse()
            .map_err(|_| Error::parse(line_no, "Size is not an integer"))?;
        // ResponseTime is present in the published traces but unused here.

        if let Some(want) = self.disk_filter {
            if disk != want {
                return Ok(None);
            }
        }
        if size == 0 {
            return Ok(None); // zero-length ops occur in the wild; skip them
        }

        let first = *self.first_ticks.get_or_insert(ts);
        let rel_ticks = ts.saturating_sub(first);
        let timestamp_us = rel_ticks / 10; // 100 ns ticks -> us

        let lba = Lba::from_bytes(offset);
        // Round the end up so partial-sector tails are covered.
        let too_large = || Error::parse(line_no, "Size too large");
        let end_bytes = (offset % SECTOR_SIZE)
            .checked_add(size)
            .ok_or_else(too_large)?;
        let sectors =
            u32::try_from(bytes_to_sectors_ceil(end_bytes).max(1)).map_err(|_| too_large())?;

        Ok(Some(TraceRecord::new(timestamp_us, op, lba, sectors)))
    }
}

fn next_field<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    line_no: u64,
    name: &str,
) -> Result<&'a str> {
    fields
        .next()
        .ok_or_else(|| Error::parse(line_no, format!("missing field {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_reader;

    const SAMPLE: &str = "\
128166372003061629,src2,2,Write,8016384,24576,1943
128166372006157573,src2,2,Read,12462080,4096,286
128166372011343717,src2,0,Write,0,512,100
128166372016853766,src2,2,write,8016384,4096,231
";

    #[test]
    fn parses_all_disks_by_default() {
        let recs = parse_reader(SAMPLE.as_bytes(), MsrParser::new()).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].op, OpKind::Write);
        assert_eq!(recs[0].lba, Lba::from_bytes(8016384));
        assert_eq!(recs[0].sectors, 48); // 24576 / 512
    }

    #[test]
    fn disk_filter() {
        let recs = parse_reader(SAMPLE.as_bytes(), MsrParser::with_disk(2)).unwrap();
        assert_eq!(recs.len(), 3);
        let recs = parse_reader(SAMPLE.as_bytes(), MsrParser::with_disk(0)).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn timestamps_normalized_to_us() {
        let recs = parse_reader(SAMPLE.as_bytes(), MsrParser::new()).unwrap();
        assert_eq!(recs[0].timestamp_us, 0);
        // (128166372006157573 - 128166372003061629) / 10
        assert_eq!(recs[1].timestamp_us, 309_594);
    }

    #[test]
    fn case_insensitive_type() {
        let recs = parse_reader(SAMPLE.as_bytes(), MsrParser::new()).unwrap();
        assert_eq!(recs[3].op, OpKind::Write);
    }

    #[test]
    fn unaligned_offset_rounds_to_covering_sectors() {
        let line = "0,h,0,Read,100,512,0"; // offset 100, 512 bytes -> spans 2 sectors
        let mut p = MsrParser::new();
        let rec = p.parse_line(line, 1).unwrap().unwrap();
        assert_eq!(rec.lba, Lba::new(0));
        assert_eq!(rec.sectors, 2);
    }

    #[test]
    fn rejects_bad_type() {
        let mut p = MsrParser::new();
        let err = p.parse_line("0,h,0,Trim,0,512,0", 7).unwrap_err();
        assert!(err.to_string().contains("line 7"));
    }

    #[test]
    fn rejects_missing_fields() {
        let mut p = MsrParser::new();
        assert!(p.parse_line("0,h,0,Read", 1).is_err());
        assert!(p.parse_line("x,h,0,Read,0,512,0", 1).is_err());
    }

    #[test]
    fn skips_blank_comment_and_zero_size() {
        let mut p = MsrParser::new();
        assert!(p.parse_line("", 1).unwrap().is_none());
        assert!(p.parse_line("# header", 2).unwrap().is_none());
        assert!(p.parse_line("0,h,0,Read,0,0,0", 3).unwrap().is_none());
    }

    #[test]
    fn size_overflowing_the_end_offset_is_a_parse_error() {
        // Offset 100 within its sector plus a u64::MAX size overflows u64.
        let mut p = MsrParser::new();
        let err = p
            .parse_line("0,h,0,Read,100,18446744073709551615,0", 4)
            .unwrap_err();
        assert!(matches!(err, Error::Parse { line: 4, .. }), "{err}");
        assert!(err.to_string().contains("Size too large"), "{err}");
    }
}
