//! Byte-mutation property tests for the `.smrt` binary trace reader: no
//! image, however damaged, may panic [`read_binary`]. Images start as
//! valid v1 files ([`write_binary`]) or v2 files (built here, in the
//! layout older writers produced) and then get bit flips, stray bytes,
//! truncation, and header fields (the count, the v2 sector bound)
//! overwritten with values near `u64::MAX`. Every image must end in a
//! typed [`smrseek_trace::Error`] or in records whose number is the header's count and
//! whose ends all lie within [`MAX_END_SECTOR`], so the frontier replay
//! derives from them does too.

use proptest::prelude::*;
use smrseek_trace::binary::{read_binary, write_binary};
use smrseek_trace::{Lba, TraceRecord, MAX_END_SECTOR};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Magic (6 bytes) then the little-endian record count.
const COUNT_AT: usize = 6;
/// The v2 sector bound follows the count.
const BOUND_AT: usize = 14;

/// A record with an ordinary LBA or one straddling
/// [`MAX_END_SECTOR`], and an ordinary or near-`u32::MAX` length.
fn record() -> impl Strategy<Value = TraceRecord> {
    let lba = prop_oneof![
        4 => 0u64..1 << 20,
        1 => (0u64..2048).prop_map(|k| MAX_END_SECTOR - 1024 + k),
    ];
    let sectors = prop_oneof![
        4 => 1u32..256,
        1 => (0u32..16).prop_map(|k| u32::MAX - k),
    ];
    (0u64..1 << 40, prop::bool::ANY, lba, sectors).prop_map(|(ts, read, lba, sectors)| {
        if read {
            TraceRecord::read(ts, Lba::new(lba), sectors)
        } else {
            TraceRecord::write(ts, Lba::new(lba), sectors)
        }
    })
}

/// A header field value: small counts, counts near `u64::MAX`, and counts
/// whose record bytes overflow `usize`.
fn header_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..64,
        2 => (0u64..1024).prop_map(|k| u64::MAX - k),
        1 => (0u64..1024).prop_map(|k| u64::MAX / 21 + k),
        1 => (0u64..1024).prop_map(|k| (1 << 32) + k),
    ]
}

/// One edit applied to an image; positions wrap to the image length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip(usize, u8),
    Truncate(usize),
    Insert(usize, u8),
    Delete(usize),
    Count(u64),
    Bound(u64),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (0usize..256, 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, 1 << bit)),
        2 => (0usize..256).prop_map(Mutation::Truncate),
        1 => (0usize..256, 0u8..=255).prop_map(|(at, b)| Mutation::Insert(at, b)),
        1 => (0usize..256).prop_map(Mutation::Delete),
        2 => header_value().prop_map(Mutation::Count),
        1 => header_value().prop_map(Mutation::Bound),
    ]
}

/// Overwrites the eight bytes at `at` with `value` when the image still
/// holds them.
fn put_u64(bytes: &mut [u8], at: usize, value: u64) {
    if let Some(field) = bytes.get_mut(at..at + 8) {
        field.copy_from_slice(&value.to_le_bytes());
    }
}

/// A v2 image of `records`: magic `SMRT2\0`, the count, one past the
/// highest sector any record touches (0 for none), then the v1 records.
fn v2_image(records: &[TraceRecord]) -> Vec<u8> {
    let mut v1 = Vec::new();
    write_binary(&mut v1, records).expect("vec write");
    let bound = records.iter().map(|r| r.end().sector()).max().unwrap_or(0);
    let mut v2 = b"SMRT2\0".to_vec();
    v2.extend_from_slice(&v1[COUNT_AT..BOUND_AT]);
    v2.extend_from_slice(&bound.to_le_bytes());
    v2.extend_from_slice(&v1[BOUND_AT..]);
    v2
}

/// Writes `records` as a v1 or v2 image and applies `mutations` in order.
fn mangle(records: &[TraceRecord], v2: bool, mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = if v2 {
        v2_image(records)
    } else {
        let mut bytes = Vec::new();
        write_binary(&mut bytes, records).expect("vec write");
        bytes
    };
    for &m in mutations {
        let len = bytes.len();
        match m {
            Mutation::Flip(at, mask) if len > 0 => bytes[at % len] ^= mask,
            Mutation::Truncate(at) => bytes.truncate(at % (len + 1)),
            Mutation::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Mutation::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            Mutation::Count(v) => put_u64(&mut bytes, COUNT_AT, v),
            Mutation::Bound(v) => put_u64(&mut bytes, BOUND_AT, v),
            Mutation::Flip(..) | Mutation::Delete(_) => {}
        }
    }
    bytes
}

/// Runs [`read_binary`] over `bytes` and checks that it does not panic,
/// and that an accepted image holds exactly its header's count of
/// records, each ending within [`MAX_END_SECTOR`].
fn check_reader(bytes: &[u8]) -> Result<(), TestCaseError> {
    let read = catch_unwind(AssertUnwindSafe(|| read_binary(bytes))).map_err(|_| {
        TestCaseError::fail(format!(
            "read_binary panicked on a {}-byte image",
            bytes.len()
        ))
    })?;
    if let Ok(records) = read {
        let count = bytes
            .get(COUNT_AT..BOUND_AT)
            .map(|word| u64::from_le_bytes(word.try_into().expect("eight bytes")));
        prop_assert_eq!(count, Some(records.len() as u64), "records vs header count");
        for rec in &records {
            prop_assert!(
                rec.end().sector() <= MAX_END_SECTOR,
                "record ends past the limit: {:?}",
                rec
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_binary_images_never_panic(
        records in prop::collection::vec(record(), 0..6),
        v2 in prop::bool::ANY,
        mutations in prop::collection::vec(mutation(), 0..4),
    ) {
        let bytes = mangle(&records, v2, &mutations);
        check_reader(&bytes)?;
    }
}
