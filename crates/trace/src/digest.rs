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
//! across platforms and releases, and wide enough that accidental
//! collisions in a result cache are not a practical concern.
//!
//! # Example
//!
//! ```
//! use smrseek_trace::digest::digest_records;
//! use smrseek_trace::{Lba, TraceRecord};
//!
//! let recs = vec![TraceRecord::write(0, Lba::new(8), 16)];
//! let digest = digest_records(&recs);
//! assert_ne!(digest, digest_records(&[]));
//! assert_eq!(digest.to_hex().len(), 32);
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

/// Digests a slice of records: each record's canonical byte layout
/// (one binary-format record, [`crate::binary`]: timestamp u64 | op u8 |
/// lba u64 | sectors u32, little-endian throughout), then the record
/// count, so a trace is never digest-equal to a prefix of itself.
pub fn digest_records(records: &[TraceRecord]) -> TraceDigest {
    let mut state = FNV_OFFSET;
    let mut hash = |bytes: &[u8]| {
        for &b in bytes {
            state ^= u128::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
    };
    for rec in records {
        hash(&rec.timestamp_us.to_le_bytes());
        hash(&[u8::from(rec.op.is_write())]);
        hash(&rec.lba.sector().to_le_bytes());
        hash(&rec.sectors.to_le_bytes());
    }
    hash(&(records.len() as u64).to_le_bytes());
    TraceDigest(state)
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
    fn digests_are_pinned() {
        // Result-cache keys embed these hex strings: any change to the
        // hashed layout or constants must fail here first.
        assert_eq!(
            digest_records(&sample()).to_hex(),
            "ff36b720853155e1029e328145e67fb6"
        );
        assert_eq!(
            digest_records(&[]).to_hex(),
            "9d30c1f78465995be47dda5e4e4e77ed"
        );
    }

    #[test]
    fn hex_form_is_stable_and_32_chars() {
        let hex = digest_records(&sample()).to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, digest_records(&sample()).to_string());
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
