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
//! (`max(lba + sectors)`, 0 for an empty trace) — exactly the
//! `frontier_hint` a streaming log-structured run needs, so a v2 file can
//! be replayed through `simulate_stream` without a pre-scan.
//!
//! Three readers, by increasing laziness:
//!
//! * [`read_binary`] — materializes the whole trace (accepts v1 and v2).
//! * [`BinaryRecordIter`] — streams `Result<TraceRecord>` from any
//!   [`Read`], never holding more than one record.
//! * [`MmapTrace`] — maps a trace file read-only via `mmap(2)` (raw
//!   syscall wrapper on unix, buffered-read fallback elsewhere) and
//!   decodes records zero-copy on iteration; the file's pages are shared
//!   by every iterator over the same mapping.
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
use std::path::Path;

const MAGIC_V1: &[u8; 6] = b"SMRT1\0";
const MAGIC_V2: &[u8; 6] = b"SMRT2\0";
const RECORD_LEN: usize = 8 + 1 + 8 + 4;
const V1_HEADER_LEN: usize = 6 + 8;
const V2_HEADER_LEN: usize = 6 + 8 + 8;

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

impl BinaryHeader {
    /// Byte offset of the first record.
    pub fn data_offset(&self) -> usize {
        match self.version {
            1 => V1_HEADER_LEN,
            _ => V2_HEADER_LEN,
        }
    }
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
fn decode_record(buf: &[u8], index: u64) -> Result<TraceRecord> {
    if buf[8] > 1 {
        return Err(Error::Format(format!(
            "bad op byte {} at record {index}",
            buf[8]
        )));
    }
    let rec = decode_record_trusted(buf);
    Error::check_end(index + 1, rec.lba.sector(), rec.sectors)?;
    Ok(rec)
}

/// Decodes one record from bytes already checked by [`decode_record`] (at
/// open by [`MmapTrace::validate`], or by the caller). The infallible form
/// is what lets the batched block path decode with no per-record branch on
/// a `Result`.
fn decode_record_trusted(buf: &[u8]) -> TraceRecord {
    let timestamp_us = u64::from_le_bytes(buf[0..8].try_into().expect("fixed slice"));
    let op = if buf[8] == 0 {
        OpKind::Read
    } else {
        OpKind::Write
    };
    let lba = Lba::new(u64::from_le_bytes(
        buf[9..17].try_into().expect("fixed slice"),
    ));
    let sectors = u32::from_le_bytes(buf[17..21].try_into().expect("fixed slice"));
    TraceRecord::new(timestamp_us, op, lba, sectors)
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

#[cfg(unix)]
mod sys {
    //! Minimal `mmap(2)`/`munmap(2)` wrapper: the workspace builds with
    //! vendored stand-ins only, so the raw syscalls are declared here
    //! instead of pulling in `libc`/`memmap2`.
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// The bytes behind an [`MmapTrace`]: a private read-only `mmap(2)` of the
/// file on unix, an owned buffer elsewhere (and for empty files, where a
/// zero-length mapping is invalid).
enum Backing {
    #[cfg(unix)]
    Mapped {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) and owned
// exclusively by the Backing, so sharing the pointer across threads is
// sound; Owned is a plain Vec.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: ptr/len came from a successful mmap that lives
            // until Drop, and the mapping is never written through.
            Backing::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts((*ptr).cast::<u8>(), *len)
            },
            Backing::Owned(v) => v,
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = *self {
            // SAFETY: ptr/len are exactly what mmap returned; unmapping
            // once in Drop is the matching release.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

/// A binary trace file mapped read-only, decoding records zero-copy.
///
/// Opening validates the header and every record's op byte up front (one
/// sequential pass over the mapping — pure memory traffic, no parsing), so
/// iteration is infallible and each [`TraceRecord`] decodes straight from
/// the mapped bytes. Wrap it in an [`std::sync::Arc`] to share one mapping
/// across threads; every [`MmapTrace::iter`] walks the same pages.
///
/// The mapping is `MAP_PRIVATE`: mutating the file while a trace is mapped
/// is undefined behaviour, as with any mapped file.
pub struct MmapTrace {
    backing: Backing,
    header: BinaryHeader,
}

impl std::fmt::Debug for MmapTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapTrace")
            .field("header", &self.header)
            .finish_non_exhaustive()
    }
}

impl MmapTrace {
    /// Maps the binary trace at `path` read-only.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be opened or mapped, and
    /// [`Error::Format`] on a bad magic number, a payload shorter than the
    /// header's record count, or a bad op byte anywhere in the payload, and
    /// [`Error::Parse`] on a record ending past
    /// [`MAX_END_SECTOR`](crate::MAX_END_SECTOR).
    pub fn open(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| Error::Format("file too large to map".into()))?;
        let backing = Self::map_file(&file, len)?;
        Self::validate(backing)
    }

    /// Wraps an already-loaded binary trace image (used by tests and the
    /// non-unix fallback path).
    ///
    /// # Errors
    ///
    /// Same validation as [`MmapTrace::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        Self::validate(Backing::Owned(bytes))
    }

    #[cfg(unix)]
    fn map_file(file: &std::fs::File, len: usize) -> Result<Backing> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(Backing::Owned(Vec::new()));
        }
        // SAFETY: fd is valid for the duration of the call; a failed map
        // returns MAP_FAILED which we turn into an error.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(Error::Io(std::io::Error::last_os_error()));
        }
        Ok(Backing::Mapped { ptr, len })
    }

    #[cfg(not(unix))]
    fn map_file(file: &std::fs::File, len: usize) -> Result<Backing> {
        use std::io::Read as _;
        let mut buf = Vec::with_capacity(len);
        std::io::BufReader::new(file).read_to_end(&mut buf)?;
        Ok(Backing::Owned(buf))
    }

    fn validate(backing: Backing) -> Result<Self> {
        let bytes = backing.bytes();
        let header = read_header(&mut &bytes[..])?;
        let count =
            usize::try_from(header.count).map_err(|_| Error::Format("count too large".into()))?;
        let need = header
            .data_offset()
            .checked_add(
                count
                    .checked_mul(RECORD_LEN)
                    .ok_or_else(|| Error::Format("count too large".into()))?,
            )
            .ok_or_else(|| Error::Format("count too large".into()))?;
        if bytes.len() < need {
            return Err(Error::Format(format!(
                "truncated: {} bytes, need {need} for {count} records",
                bytes.len()
            )));
        }
        let data = &bytes[header.data_offset()..need];
        for (i, rec) in (0u64..).zip(data.chunks_exact(RECORD_LEN)) {
            decode_record(rec, i)?;
        }
        Ok(MmapTrace { backing, header })
    }

    /// The trace's parsed header.
    pub fn header(&self) -> &BinaryHeader {
        &self.header
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        usize::try_from(self.header.count).unwrap_or(usize::MAX)
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.header.count == 0
    }

    /// One past the highest sector any record touches: from the v2 header
    /// when present, otherwise computed once from the mapped records (and
    /// cached by the caller if needed). This is the `frontier_hint` a
    /// streaming log-structured replay requires.
    pub fn top_sector(&self) -> u64 {
        self.header
            .top_sector
            .unwrap_or_else(|| self.iter().map(|r| r.end().sector()).max().unwrap_or(0))
    }

    /// Decodes record `index` from the mapping.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` (op bytes were validated at open,
    /// so decoding itself cannot fail).
    pub fn get(&self, index: usize) -> TraceRecord {
        assert!(index < self.len(), "record index {index} out of bounds");
        let start = self.header.data_offset() + index * RECORD_LEN;
        decode_record_trusted(&self.backing.bytes()[start..start + RECORD_LEN])
    }

    /// Iterates the records, decoding each zero-copy from the mapping.
    pub fn iter(&self) -> MmapRecords<'_> {
        MmapRecords {
            trace: self,
            next: 0,
        }
    }

    /// Appends records `[start, end)` to `out`, decoding them in one pass
    /// over the mapped bytes. This is the batched-ingest primitive: one
    /// bounds check per *range* instead of one per record, with the inner
    /// loop a straight walk of 21-byte chunks (op bytes were validated at
    /// open, so there is no per-record error path either).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn decode_range(&self, start: usize, end: usize, out: &mut Vec<TraceRecord>) {
        assert!(start <= end, "inverted range {start}..{end}");
        assert!(end <= self.len(), "range {start}..{end} out of bounds");
        let lo = self.header.data_offset() + start * RECORD_LEN;
        let hi = self.header.data_offset() + end * RECORD_LEN;
        let bytes = &self.backing.bytes()[lo..hi];
        out.reserve(end - start);
        out.extend(bytes.chunks_exact(RECORD_LEN).map(decode_record_trusted));
    }

    /// A block reader over the whole trace with the default block size.
    pub fn blocks(&self) -> MmapBlocks<'_> {
        self.blocks_range(0, self.len(), DEFAULT_BLOCK_RECORDS)
    }

    /// A block reader over records `[start, end)`, block by block off the
    /// shared mapping.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or out of bounds, or if
    /// `block_records` is zero.
    fn blocks_range(&self, start: usize, end: usize, block_records: usize) -> MmapBlocks<'_> {
        assert!(start <= end, "inverted range {start}..{end}");
        assert!(end <= self.len(), "range {start}..{end} out of bounds");
        assert!(block_records > 0, "block size must be positive");
        MmapBlocks {
            trace: self,
            next: start,
            end,
            block_records,
            buf: Vec::new(),
        }
    }
}

/// Records decoded per block by [`MmapTrace::blocks`]: 4096 records ≈
/// 84 KiB of file bytes and 96 KiB of decoded records — big enough to
/// amortize per-block dispatch, small enough to stay cache-resident.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// Batched reader over a record range of an [`MmapTrace`]: each
/// [`next_block`](Self::next_block) decodes up to `block_records` records
/// into an internal buffer (reused across blocks, so the reader allocates
/// once) and lends it out.
#[derive(Debug)]
pub struct MmapBlocks<'a> {
    trace: &'a MmapTrace,
    next: usize,
    end: usize,
    block_records: usize,
    buf: Vec<TraceRecord>,
}

impl MmapBlocks<'_> {
    /// Decodes and returns the next block, or `None` when the range is
    /// exhausted. The slice borrows the reader's internal buffer, which the
    /// following call overwrites (a lending iterator, hand-rolled).
    pub fn next_block(&mut self) -> Option<&[TraceRecord]> {
        if self.next >= self.end {
            return None;
        }
        let upto = self.end.min(self.next + self.block_records);
        self.buf.clear();
        self.trace.decode_range(self.next, upto, &mut self.buf);
        self.next = upto;
        Some(&self.buf)
    }

    /// Records not yet returned.
    pub fn remaining(&self) -> usize {
        self.end - self.next
    }
}

impl<'a> IntoIterator for &'a MmapTrace {
    type Item = TraceRecord;
    type IntoIter = MmapRecords<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`MmapTrace`]'s records.
#[derive(Debug, Clone)]
pub struct MmapRecords<'a> {
    trace: &'a MmapTrace,
    next: usize,
}

impl Iterator for MmapRecords<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.trace.len() {
            return None;
        }
        let rec = self.trace.get(self.next);
        self.next += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for MmapRecords<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_END_SECTOR;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::read(0, Lba::new(0), 1),
            TraceRecord::write(10, Lba::new(MAX_END_SECTOR - 8), 8),
            TraceRecord::read(u64::MAX, Lba::new(12345), 8),
        ]
    }

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smrseek_binary_test_{}_{name}", std::process::id()));
        std::fs::write(&p, bytes).expect("write temp");
        p
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
        assert!(MmapTrace::from_bytes(buf).is_err());
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
        let err = MmapTrace::from_bytes(buf).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err}");
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

    #[test]
    fn mmap_roundtrip_both_versions() {
        let recs = sample();
        let mut v1 = Vec::new();
        write_binary(&mut v1, &recs).unwrap();
        let mut v2 = Vec::new();
        write_binary_v2(&mut v2, &recs).unwrap();
        for (name, buf) in [("v1", v1), ("v2", v2)] {
            let path = tmp_file(&format!("mmap_{name}"), &buf);
            let map = MmapTrace::open(&path).unwrap();
            assert_eq!(map.len(), 3);
            assert_eq!(map.iter().collect::<Vec<_>>(), recs);
            assert_eq!(map.get(1), recs[1]);
            assert_eq!(map.top_sector(), MAX_END_SECTOR);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mmap_empty_file_and_empty_trace() {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &[]).unwrap();
        let path = tmp_file("mmap_empty", &buf);
        let map = MmapTrace::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.top_sector(), 0);
        assert_eq!(map.iter().count(), 0);
        std::fs::remove_file(&path).ok();

        let path = tmp_file("mmap_zero_bytes", &[]);
        assert!(MmapTrace::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_rejects_truncation_and_bad_op_up_front() {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &sample()).unwrap();
        let mut short = buf.clone();
        short.truncate(short.len() - RECORD_LEN);
        let err = MmapTrace::from_bytes(short).unwrap_err();
        assert!(err.to_string().contains("truncated"));

        let mut bad = buf;
        bad[V2_HEADER_LEN + 2 * RECORD_LEN + 8] = 7;
        let err = MmapTrace::from_bytes(bad).unwrap_err();
        assert!(err.to_string().contains("bad op byte"), "{err}");
    }

    #[test]
    fn decode_range_matches_iter() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    TraceRecord::read(i, Lba::new(i * 16), 8)
                } else {
                    TraceRecord::write(i, Lba::new(i * 16), 4)
                }
            })
            .collect();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &recs).unwrap();
        let map = MmapTrace::from_bytes(buf).unwrap();
        for (start, end) in [(0, 100), (0, 0), (37, 37), (37, 61), (99, 100)] {
            let mut out = Vec::new();
            map.decode_range(start, end, &mut out);
            assert_eq!(out, &recs[start..end], "range {start}..{end}");
        }
        // Appends without clearing.
        let mut out = vec![recs[0]];
        map.decode_range(1, 3, &mut out);
        assert_eq!(out, &recs[..3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decode_range_checks_bounds() {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &sample()).unwrap();
        let map = MmapTrace::from_bytes(buf).unwrap();
        map.decode_range(0, 4, &mut Vec::new());
    }

    #[test]
    fn blocks_cover_range_exactly() {
        let recs: Vec<TraceRecord> = (0..50)
            .map(|i| TraceRecord::write(i, Lba::new(i * 8), 8))
            .collect();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &recs).unwrap();
        let map = MmapTrace::from_bytes(buf).unwrap();

        // Block size that does not divide the range: last block is short.
        let mut blocks = map.blocks_range(5, 42, 16);
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        while let Some(block) = blocks.next_block() {
            sizes.push(block.len());
            seen.extend_from_slice(block);
        }
        assert_eq!(sizes, vec![16, 16, 5]);
        assert_eq!(seen, &recs[5..42]);
        assert_eq!(blocks.remaining(), 0);

        // Whole-trace default reader.
        let mut blocks = map.blocks();
        assert_eq!(blocks.remaining(), 50);
        assert_eq!(blocks.next_block().unwrap(), &recs[..]);
        assert!(blocks.next_block().is_none());

        // Empty range yields no blocks.
        assert!(map.blocks_range(7, 7, 8).next_block().is_none());
    }

    #[test]
    fn mmap_is_shareable_across_threads() {
        let recs: Vec<TraceRecord> = (0..1000)
            .map(|i| TraceRecord::write(i, Lba::new(i * 8), 8))
            .collect();
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &recs).unwrap();
        let map = std::sync::Arc::new(MmapTrace::from_bytes(buf).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let map = std::sync::Arc::clone(&map);
                let recs = &recs;
                scope.spawn(move || {
                    assert_eq!(map.iter().count(), 1000);
                    assert_eq!(&map.iter().collect::<Vec<_>>(), recs);
                });
            }
        });
    }
}
