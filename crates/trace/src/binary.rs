//! Compact binary trace format for fast replay.
//!
//! Multi-million-operation traces parse slowly from CSV; the binary format
//! stores each record in 21 bytes little-endian. Two header versions are
//! in the wild:
//!
//! ```text
//! v1:  magic "SMRT1\0" (6) | count u64 (8)
//! v2:  magic "SMRT2\0" (6) | count u64 (8) | top_sector u64 (8)
//! record: timestamp_us u64 | op u8 (0=read, 1=write) | lba u64 | sectors u32
//! ```
//!
//! `top_sector` is one past the highest sector any record touches
//! (`max(lba + sectors)`, 0 for an empty trace) — the `frontier_hint` a
//! streaming log-structured run needs, so a v2 file can be streamed
//! through [`BinaryRecordIter`] without a pre-scan.
//!
//! Two readers over one decoder:
//!
//! * [`read_binary`] — materializes the whole trace (accepts v1 and v2);
//!   this is what [`crate::parse::parse_path`] uses for `.smrt` files.
//! * [`BinaryRecordIter`] — streams `Result<TraceRecord>` from any
//!   [`Read`], never holding more than one record.
//!
//! # Example
//!
//! ```
//! use smrseek_trace::binary::{read_binary, write_binary_v2, BinaryRecordIter};
//! use smrseek_trace::{Lba, TraceRecord};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let recs = vec![TraceRecord::read(1, Lba::new(8), 16)];
//! let mut buf = Vec::new();
//! write_binary_v2(&mut buf, &recs)?;
//! assert_eq!(read_binary(&buf[..])?, recs);
//! let iter = BinaryRecordIter::new(&buf[..])?;
//! assert_eq!(iter.header().top_sector, Some(24));
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, Result};
use crate::record::{OpKind, TraceRecord};
use crate::types::Lba;
use std::io::{Read, Write};

const MAGIC_V1: &[u8; 6] = b"SMRT1\0";
const MAGIC_V2: &[u8; 6] = b"SMRT2\0";
const RECORD_LEN: usize = 8 + 1 + 8 + 4;

/// The parsed header of a binary trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryHeader {
    /// Format version (1 or 2).
    pub version: u8,
    /// Number of records in the payload.
    pub count: u64,
    /// One past the highest sector any record touches (v2 only).
    pub top_sector: Option<u64>,
}

/// One past the highest sector `records` touch — the value a v2 header
/// carries and the `frontier_hint` a streaming log-structured run needs.
pub fn top_sector(records: &[TraceRecord]) -> u64 {
    records.iter().map(|r| r.end().sector()).max().unwrap_or(0)
}

fn encode_record(rec: &TraceRecord, buf: &mut [u8; RECORD_LEN]) {
    buf[0..8].copy_from_slice(&rec.timestamp_us.to_le_bytes());
    buf[8] = match rec.op {
        OpKind::Read => 0,
        OpKind::Write => 1,
    };
    buf[9..17].copy_from_slice(&rec.lba.sector().to_le_bytes());
    buf[17..21].copy_from_slice(&rec.sectors.to_le_bytes());
}

/// Decodes record `index` (0-based), rejecting a bad op byte and a record
/// that ends past [`MAX_END_SECTOR`](crate::MAX_END_SECTOR).
fn decode_record(buf: &[u8; RECORD_LEN], index: u64) -> Result<TraceRecord> {
    let op = match buf[8] {
        0 => OpKind::Read,
        1 => OpKind::Write,
        other => {
            return Err(Error::Format(format!(
                "bad op byte {other} at record {index}"
            )))
        }
    };
    let timestamp_us = u64::from_le_bytes(buf[0..8].try_into().expect("fixed slice"));
    let lba = u64::from_le_bytes(buf[9..17].try_into().expect("fixed slice"));
    let sectors = u32::from_le_bytes(buf[17..21].try_into().expect("fixed slice"));
    Error::check_end(index + 1, lba, sectors)?;
    Ok(TraceRecord::new(timestamp_us, op, Lba::new(lba), sectors))
}

/// Serializes `records` to `writer` in the v1 binary format (no
/// `top_sector`; kept for compatibility with existing files and tools).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<W: Write>(mut writer: W, records: &[TraceRecord]) -> Result<()> {
    writer.write_all(MAGIC_V1)?;
    writer.write_all(&(records.len() as u64).to_le_bytes())?;
    write_records(writer, records)
}

/// Serializes `records` to `writer` in the v2 binary format, computing and
/// embedding [`top_sector`] so replay never needs a pre-scan.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary_v2<W: Write>(mut writer: W, records: &[TraceRecord]) -> Result<()> {
    writer.write_all(MAGIC_V2)?;
    writer.write_all(&(records.len() as u64).to_le_bytes())?;
    writer.write_all(&top_sector(records).to_le_bytes())?;
    write_records(writer, records)
}

fn write_records<W: Write>(mut writer: W, records: &[TraceRecord]) -> Result<()> {
    let mut buf = [0u8; RECORD_LEN];
    for rec in records {
        encode_record(rec, &mut buf);
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Returns the header version (1 or 2) if `prefix` begins with a binary
/// trace magic number. Six bytes suffice; shorter prefixes never match.
pub fn sniff_magic(prefix: &[u8]) -> Option<u8> {
    if prefix.starts_with(MAGIC_V1) {
        Some(1)
    } else if prefix.starts_with(MAGIC_V2) {
        Some(2)
    } else {
        None
    }
}

fn read_header<R: Read>(reader: &mut R) -> Result<BinaryHeader> {
    let mut magic = [0u8; 6];
    reader
        .read_exact(&mut magic)
        .map_err(|_| Error::Format("missing magic".into()))?;
    let version = sniff_magic(&magic).ok_or_else(|| Error::Format("bad magic number".into()))?;
    let mut word = [0u8; 8];
    reader
        .read_exact(&mut word)
        .map_err(|_| Error::Format("missing record count".into()))?;
    let count = u64::from_le_bytes(word);
    let top_sector = if version >= 2 {
        reader
            .read_exact(&mut word)
            .map_err(|_| Error::Format("missing top_sector".into()))?;
        // Replay places the log frontier above this bound, so a value no
        // valid record can reach is refused here rather than overflowing
        // the frontier arithmetic later.
        let top = u64::from_le_bytes(word);
        if top > crate::MAX_END_SECTOR {
            return Err(Error::Format(format!(
                "top_sector {top} is past sector {}",
                crate::MAX_END_SECTOR
            )));
        }
        Some(top)
    } else {
        None
    };
    Ok(BinaryHeader {
        version,
        count,
        top_sector,
    })
}

/// Streams records from a binary trace without materializing it.
///
/// Yields `Result<TraceRecord>`: truncation and bad op bytes surface
/// in-stream at the record that caused them, after which the iterator
/// fuses. Accepts v1 and v2 headers; [`BinaryRecordIter::header`] exposes
/// the record count and (for v2) the `top_sector` frontier hint.
#[derive(Debug)]
pub struct BinaryRecordIter<R> {
    reader: R,
    header: BinaryHeader,
    next_index: u64,
    failed: bool,
}

impl<R: Read> BinaryRecordIter<R> {
    /// Reads the header from `reader` and prepares to stream its records.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Format`] on a missing/bad magic number or a
    /// truncated header.
    pub fn new(mut reader: R) -> Result<Self> {
        let header = read_header(&mut reader)?;
        Ok(BinaryRecordIter {
            reader,
            header,
            next_index: 0,
            failed: false,
        })
    }

    /// The trace's parsed header.
    pub fn header(&self) -> &BinaryHeader {
        &self.header
    }
}

impl<R: Read> Iterator for BinaryRecordIter<R> {
    type Item = Result<TraceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.next_index >= self.header.count {
            return None;
        }
        let i = self.next_index;
        self.next_index += 1;
        let mut buf = [0u8; RECORD_LEN];
        if self.reader.read_exact(&mut buf).is_err() {
            self.failed = true;
            return Some(Err(Error::Format(format!("truncated at record {i}"))));
        }
        match decode_record(&buf, i) {
            Ok(rec) => Some(Ok(rec)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            return (0, Some(0));
        }
        let left = usize::try_from(self.header.count - self.next_index).unwrap_or(usize::MAX);
        (0, Some(left))
    }
}

/// Deserializes a binary trace from `reader`, accepting v1 and v2 headers.
///
/// # Errors
///
/// Returns [`Error::Format`] on a bad magic number, a bad op byte, or a
/// truncated payload, and [`Error::Parse`] on a record ending past
/// [`MAX_END_SECTOR`](crate::MAX_END_SECTOR); propagates I/O errors
/// otherwise.
pub fn read_binary<R: Read>(reader: R) -> Result<Vec<TraceRecord>> {
    let iter = BinaryRecordIter::new(reader)?;
    let cap = usize::try_from(iter.header().count)
        .map_err(|_| Error::Format("count too large".into()))?;
    // The count is untrusted until the records arrive: reserve a bounded
    // prefix and let the vector grow with what the reader really holds.
    let mut out = Vec::with_capacity(cap.min(1 << 16));
    for rec in iter {
        out.push(rec?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_END_SECTOR;

    const V1_HEADER_LEN: usize = 6 + 8;
    const V2_HEADER_LEN: usize = 6 + 8 + 8;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::read(0, Lba::new(0), 1),
            TraceRecord::write(10, Lba::new(MAX_END_SECTOR - 8), 8),
            TraceRecord::read(u64::MAX, Lba::new(12345), 8),
        ]
    }

    #[test]
    fn roundtrip_v1() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        assert_eq!(buf.len(), V1_HEADER_LEN + 3 * RECORD_LEN);
        assert_eq!(read_binary(&buf[..]).unwrap(), recs);
    }

    #[test]
    fn roundtrip_v2_with_top_sector() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &recs).unwrap();
        assert_eq!(buf.len(), V2_HEADER_LEN + 3 * RECORD_LEN);
        assert_eq!(read_binary(&buf[..]).unwrap(), recs);
        let iter = BinaryRecordIter::new(&buf[..]).unwrap();
        assert_eq!(iter.header().version, 2);
        assert_eq!(iter.header().top_sector, Some(MAX_END_SECTOR));
    }

    #[test]
    fn empty_roundtrip() {
        let mut v1 = Vec::new();
        write_binary(&mut v1, &[]).unwrap();
        assert!(read_binary(&v1[..]).unwrap().is_empty());
        let mut v2 = Vec::new();
        write_binary_v2(&mut v2, &[]).unwrap();
        assert!(read_binary(&v2[..]).unwrap().is_empty());
        // A zero-byte file is not an empty trace: it has no header.
        assert!(matches!(read_binary(&[][..]), Err(Error::Format(_))));
    }

    #[test]
    fn top_sector_matches_max_end() {
        assert_eq!(top_sector(&[]), 0);
        assert_eq!(top_sector(&sample()), MAX_END_SECTOR);
        let recs = vec![TraceRecord::write(0, Lba::new(100), 8)];
        assert_eq!(top_sector(&recs), 108);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_binary(&buf[..]), Err(Error::Format(_))));
        assert!(sniff_magic(&buf).is_none());
    }

    #[test]
    fn sniffs_both_versions() {
        let mut v1 = Vec::new();
        write_binary(&mut v1, &[]).unwrap();
        assert_eq!(sniff_magic(&v1), Some(1));
        let mut v2 = Vec::new();
        write_binary_v2(&mut v2, &[]).unwrap();
        assert_eq!(sniff_magic(&v2), Some(2));
        assert_eq!(sniff_magic(b"SMR"), None, "short prefixes never match");
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn rejects_top_sector_past_the_limit() {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &sample()).unwrap();
        buf[V1_HEADER_LEN..V2_HEADER_LEN].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("top_sector"), "{err}");
        assert!(BinaryRecordIter::new(&buf[..]).is_err());
    }

    #[test]
    fn rejects_bad_op_byte() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[V1_HEADER_LEN + 8] = 9; // first record's op byte
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("bad op byte"));
    }

    #[test]
    fn rejects_records_ending_past_the_limit() {
        let recs = vec![
            TraceRecord::read(0, Lba::new(0), 1),
            TraceRecord::write(1, Lba::new(MAX_END_SECTOR - 7), 8),
        ];
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err}");
        let mut iter = BinaryRecordIter::new(&buf[..]).unwrap();
        assert!(iter.next().unwrap().is_ok());
        assert!(matches!(
            iter.next(),
            Some(Err(Error::Parse { line: 2, .. }))
        ));
    }

    #[test]
    fn iter_streams_and_fuses_on_error() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &recs).unwrap();
        let streamed: Result<Vec<_>> = BinaryRecordIter::new(&buf[..]).unwrap().collect();
        assert_eq!(streamed.unwrap(), recs);

        buf.truncate(buf.len() - 1);
        let mut iter = BinaryRecordIter::new(&buf[..]).unwrap();
        assert!(iter.next().unwrap().is_ok());
        assert!(iter.next().unwrap().is_ok());
        assert!(iter.next().unwrap().is_err());
        assert!(iter.next().is_none(), "iterator fuses after an error");
    }
}
