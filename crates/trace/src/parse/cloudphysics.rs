//! Parser for CloudPhysics-style CSV traces.
//!
//! The CloudPhysics traces used by the paper (Waldspurger et al.,
//! FAST '15) are proprietary; this module defines the compact CSV schema
//! that our synthetic stand-in workloads serialize to, and parses it back:
//!
//! ```text
//! timestamp_us,op,offset_bytes,length_bytes
//! ```
//!
//! `op` is `R`/`W` (also accepts `Read`/`Write`, case-insensitive). Lines
//! starting with `#` are comments. A leading header line equal to the schema
//! above is also tolerated.

use super::LineParser;
use crate::error::{Error, Result};
use crate::record::{OpKind, TraceRecord};
use crate::types::{bytes_to_sectors_ceil, Lba, SECTOR_SIZE};

/// Parser for the CloudPhysics-style CSV schema.
///
/// # Example
///
/// ```
/// use smrseek_trace::parse::{parse_reader, CpParser};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "timestamp_us,op,offset_bytes,length_bytes\n10,R,0,4096\n20,W,4096,8192\n";
/// let recs = parse_reader(text.as_bytes(), CpParser::new())?;
/// assert_eq!(recs.len(), 2);
/// assert_eq!(recs[1].sectors, 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CpParser {
    _priv: (),
}

impl CpParser {
    /// Creates a parser.
    pub fn new() -> Self {
        CpParser::default()
    }
}

impl LineParser for CpParser {
    fn parse_line(&mut self, line: &str, line_no: u64) -> Result<Option<TraceRecord>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("timestamp_us") {
            return Ok(None);
        }
        let mut fields = line.split(',');
        let ts: u64 = field(&mut fields, line_no, "timestamp_us")?
            .parse()
            .map_err(|_| Error::parse(line_no, "timestamp_us is not an integer"))?;
        let op = match field(&mut fields, line_no, "op")? {
            "R" | "r" => OpKind::Read,
            "W" | "w" => OpKind::Write,
            t if t.eq_ignore_ascii_case("read") => OpKind::Read,
            t if t.eq_ignore_ascii_case("write") => OpKind::Write,
            other => {
                return Err(Error::parse(line_no, format!("bad op {other:?}")));
            }
        };
        let offset: u64 = field(&mut fields, line_no, "offset_bytes")?
            .parse()
            .map_err(|_| Error::parse(line_no, "offset_bytes is not an integer"))?;
        let length: u64 = field(&mut fields, line_no, "length_bytes")?
            .parse()
            .map_err(|_| Error::parse(line_no, "length_bytes is not an integer"))?;
        if length == 0 {
            return Ok(None);
        }
        let lba = Lba::from_bytes(offset);
        let too_large = || Error::parse(line_no, "length too large");
        let end_bytes = (offset % SECTOR_SIZE)
            .checked_add(length)
            .ok_or_else(too_large)?;
        let sectors =
            u32::try_from(bytes_to_sectors_ceil(end_bytes).max(1)).map_err(|_| too_large())?;
        Ok(Some(TraceRecord::new(ts, op, lba, sectors)))
    }
}

fn field<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    line_no: u64,
    name: &str,
) -> Result<&'a str> {
    fields
        .next()
        .map(str::trim)
        .ok_or_else(|| Error::parse(line_no, format!("missing field {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_reader;

    #[test]
    fn parses_short_and_long_ops() {
        let text = "1,R,0,512\n2,Write,512,1024\n3,w,1536,512\n";
        let recs = parse_reader(text.as_bytes(), CpParser::new()).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].op, OpKind::Read);
        assert_eq!(recs[1].op, OpKind::Write);
        assert_eq!(recs[1].lba, Lba::new(1));
        assert_eq!(recs[1].sectors, 2);
    }

    #[test]
    fn skips_header_comment_blank_zero() {
        let text = "timestamp_us,op,offset_bytes,length_bytes\n# c\n\n5,R,0,0\n6,R,0,512\n";
        let recs = parse_reader(text.as_bytes(), CpParser::new()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].timestamp_us, 6);
    }

    #[test]
    fn whitespace_tolerant_fields() {
        let mut p = CpParser::new();
        let rec = p.parse_line("7, W , 1024 , 512", 1).unwrap().unwrap();
        assert_eq!(rec.op, OpKind::Write);
        assert_eq!(rec.lba, Lba::new(2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut p = CpParser::new();
        let err = p.parse_line("9,X,0,512", 12).unwrap_err();
        assert!(err.to_string().contains("line 12"));
        assert!(p.parse_line("9,R,zzz,512", 1).is_err());
        assert!(p.parse_line("9,R,0", 1).is_err());
    }

    #[test]
    fn length_overflowing_the_end_offset_is_a_parse_error() {
        // Offset 100 within its sector plus a u64::MAX length overflows u64.
        let mut p = CpParser::new();
        let err = p.parse_line("0,R,100,18446744073709551615", 3).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("length too large"), "{err}");
    }
}
