//! Compact binary trace format for fast replay.
//!
//! Multi-million-operation traces parse slowly from CSV; the binary format
//! stores each record in 21 bytes little-endian after a 14-byte header:
//!
//! ```text
//! header: magic "SMRT1\0" (6) | count u64 (8)
//! record: timestamp_us u64 | op u8 (0=read, 1=write) | lba u64 | sectors u32
//! ```
//!
//! [`write_binary`] writes that layout; [`read_binary`] reads it back and
//! is what [`crate::parse::parse_path`] uses for `.smrt` files. Replay
//! places the log frontier from the records themselves
//! ([`crate::stream::max_lba`]), so the header carries no bound.
//!
//! Older files may carry a v2 header (magic `"SMRT2\0"`, then the count
//! and one more `u64`: the highest sector the records touch, plus one).
//! [`read_binary`] still loads them to the same records, skipping that
//! word, and refuses one past [`MAX_END_SECTOR`](crate::MAX_END_SECTOR)
//! as such files always were.
//!
//! # Example
//!
//! ```
//! use smrseek_trace::binary::{read_binary, sniff_magic, write_binary};
//! use smrseek_trace::{Lba, TraceRecord};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let recs = vec![TraceRecord::read(1, Lba::new(8), 16)];
//! let mut buf = Vec::new();
//! write_binary(&mut buf, &recs)?;
//! assert_eq!(sniff_magic(&buf), Some(1));
//! assert_eq!(read_binary(&buf[..])?, recs);
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

/// Serializes `records` to `writer` in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<W: Write>(mut writer: W, records: &[TraceRecord]) -> Result<()> {
    writer.write_all(MAGIC_V1)?;
    writer.write_all(&(records.len() as u64).to_le_bytes())?;
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

/// Reads the header and returns its record count.
fn read_header<R: Read>(reader: &mut R) -> Result<u64> {
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
    if version == 2 {
        reader
            .read_exact(&mut word)
            .map_err(|_| Error::Format("missing v2 sector bound".into()))?;
        let bound = u64::from_le_bytes(word);
        if bound > crate::MAX_END_SECTOR {
            return Err(Error::Format(format!(
                "v2 sector bound {bound} is past sector {}",
                crate::MAX_END_SECTOR
            )));
        }
    }
    Ok(count)
}

/// Deserializes a binary trace from `reader`, accepting v1 and v2 headers.
///
/// # Errors
///
/// Returns [`Error::Format`] on a bad magic number, a bad op byte, or a
/// truncated payload, and [`Error::Parse`] on a record ending past
/// [`MAX_END_SECTOR`](crate::MAX_END_SECTOR); propagates I/O errors
/// otherwise.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Vec<TraceRecord>> {
    let count = read_header(&mut reader)?;
    let cap = usize::try_from(count).map_err(|_| Error::Format("count too large".into()))?;
    // The count is untrusted until the records arrive: reserve a bounded
    // prefix and let the vector grow with what the reader really holds.
    let mut out = Vec::with_capacity(cap.min(1 << 16));
    let mut buf = [0u8; RECORD_LEN];
    for index in 0..count {
        reader
            .read_exact(&mut buf)
            .map_err(|_| Error::Format(format!("truncated at record {index}")))?;
        out.push(decode_record(&buf, index)?);
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

    /// A v2 image of `records` in the layout older writers produced: the
    /// v1 image with the v2 magic and `bound` inserted after the count.
    fn v2_image(records: &[TraceRecord], bound: u64) -> Vec<u8> {
        let mut v1 = Vec::new();
        write_binary(&mut v1, records).unwrap();
        let mut v2 = MAGIC_V2.to_vec();
        v2.extend_from_slice(&v1[6..V1_HEADER_LEN]);
        v2.extend_from_slice(&bound.to_le_bytes());
        v2.extend_from_slice(&v1[V1_HEADER_LEN..]);
        v2
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
    fn reads_v2_images() {
        let recs = sample();
        let buf = v2_image(&recs, MAX_END_SECTOR);
        assert_eq!(buf.len(), V2_HEADER_LEN + 3 * RECORD_LEN);
        assert_eq!(read_binary(&buf[..]).unwrap(), recs);
        // The bound is skipped, not checked against the records.
        assert_eq!(read_binary(&v2_image(&recs, 0)[..]).unwrap(), recs);
        let mut short = v2_image(&recs, MAX_END_SECTOR);
        short.truncate(V2_HEADER_LEN - 1);
        let err = read_binary(&short[..]).unwrap_err();
        assert!(err.to_string().contains("missing v2 sector bound"), "{err}");
    }

    #[test]
    fn empty_roundtrip() {
        let mut v1 = Vec::new();
        write_binary(&mut v1, &[]).unwrap();
        assert!(read_binary(&v1[..]).unwrap().is_empty());
        assert!(read_binary(&v2_image(&[], 0)[..]).unwrap().is_empty());
        // A zero-byte file is not an empty trace: it has no header.
        assert!(matches!(read_binary(&[][..]), Err(Error::Format(_))));
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
        assert_eq!(sniff_magic(&v2_image(&[], 0)), Some(2));
        assert_eq!(sniff_magic(b"SMR"), None, "short prefixes never match");
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("truncated at record 2"), "{err}");
    }

    #[test]
    fn rejects_a_v2_bound_past_the_limit() {
        let buf = v2_image(&sample(), MAX_END_SECTOR + 1);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("v2 sector bound"), "{err}");
        let buf = v2_image(&sample(), u64::MAX);
        assert!(matches!(read_binary(&buf[..]), Err(Error::Format(_))));
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
    }
}
