//! Byte-mutation property tests for the `.smrt` binary trace readers: no
//! image, however damaged, may panic [`read_binary`] or
//! [`BinaryRecordIter`]. Images start as valid v1 or v2 files and then get
//! bit flips, stray bytes, truncation, and header fields (count,
//! `top_sector`) overwritten with values near `u64::MAX`. Every image must
//! end in records or a typed [`Error`], the two readers must agree on
//! whether an image is accepted and on its records, and an accepted
//! image's frontier (header hint and the bound replay derives from the
//! records) must stay within [`MAX_END_SECTOR`].

use proptest::prelude::*;
use smrseek_trace::binary::{
    read_binary, top_sector, write_binary, write_binary_v2, BinaryRecordIter,
};
use smrseek_trace::{Error, Lba, TraceRecord, MAX_END_SECTOR};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Magic (6 bytes) then the little-endian record count.
const COUNT_AT: usize = 6;
/// The v2 `top_sector` field follows the count.
const TOP_AT: usize = 14;

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
    Top(u64),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (0usize..256, 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, 1 << bit)),
        2 => (0usize..256).prop_map(Mutation::Truncate),
        1 => (0usize..256, 0u8..=255).prop_map(|(at, b)| Mutation::Insert(at, b)),
        1 => (0usize..256).prop_map(Mutation::Delete),
        2 => header_value().prop_map(Mutation::Count),
        1 => header_value().prop_map(Mutation::Top),
    ]
}

/// Overwrites the eight bytes at `at` with `value` when the image still
/// holds them.
fn put_u64(bytes: &mut [u8], at: usize, value: u64) {
    if let Some(field) = bytes.get_mut(at..at + 8) {
        field.copy_from_slice(&value.to_le_bytes());
    }
}

/// Writes `records` as a v1 or v2 image and applies `mutations` in order.
fn mangle(records: &[TraceRecord], v2: bool, mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = Vec::new();
    if v2 {
        write_binary_v2(&mut bytes, records).expect("vec write");
    } else {
        write_binary(&mut bytes, records).expect("vec write");
    }
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
            Mutation::Top(v) => put_u64(&mut bytes, TOP_AT, v),
            Mutation::Flip(..) | Mutation::Delete(_) => {}
        }
    }
    bytes
}

/// Runs `f`, turning a panic into a test failure that names the reader.
fn no_panic<T>(reader: &str, bytes: &[u8], f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| {
        TestCaseError::fail(format!("{reader} panicked on a {}-byte image", bytes.len()))
    })
}

/// Runs both readers over `bytes` and checks that neither panics (every
/// outcome is records or an [`Error`]), that they accept and refuse the
/// same images, and that an accepted image yields the same records and a
/// frontier within [`MAX_END_SECTOR`].
fn check_readers(bytes: &[u8]) -> Result<(), TestCaseError> {
    let whole = no_panic("read_binary", bytes, || read_binary(bytes))?;
    let streamed = no_panic("BinaryRecordIter", bytes, || {
        let iter = BinaryRecordIter::new(bytes)?;
        let header = *iter.header();
        iter.collect::<Result<Vec<TraceRecord>, Error>>()
            .map(|records| (header, records))
    })?;
    prop_assert_eq!(
        whole.is_ok(),
        streamed.is_ok(),
        "the readers disagree on the image: {:?} vs {:?}",
        whole.as_ref().err(),
        streamed.as_ref().err()
    );
    if let (Ok(whole), Ok((header, streamed))) = (&whole, &streamed) {
        prop_assert_eq!(streamed, whole, "streamed records differ");
        prop_assert_eq!(header.count, whole.len() as u64);
        prop_assert!(
            header.top_sector.unwrap_or(0) <= MAX_END_SECTOR,
            "header frontier hint past the limit"
        );
        // Replay places the log frontier above this bound.
        prop_assert!(
            top_sector(whole) <= MAX_END_SECTOR,
            "record frontier past the limit"
        );
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
        check_readers(&bytes)?;
    }
}
