//! Byte-mutation property tests for the `.smrt` binary trace readers: no
//! image, however damaged, may panic [`read_binary`], [`BinaryRecordIter`]
//! or [`MmapTrace::from_bytes`]. Images start as valid v1 or v2 files and
//! then get bit flips, stray bytes, truncation, and header fields (count,
//! `top_sector`) overwritten with values near `u64::MAX`. Every image must
//! end in records or a typed [`Error`], an accepted image's frontier hint
//! must stay within [`MAX_END_SECTOR`], and when more than one reader
//! accepts an image they must agree on its records.

use proptest::prelude::*;
use smrseek_trace::binary::{read_binary, write_binary, write_binary_v2, BinaryRecordIter};
use smrseek_trace::binary::{MmapTrace, DEFAULT_BLOCK_RECORDS};
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

/// Runs all three readers over `bytes` and checks that none panics (every
/// outcome is records or an [`Error`]) and that the readers which accept
/// the image agree.
fn check_readers(bytes: &[u8]) -> Result<(), TestCaseError> {
    let whole = no_panic("read_binary", bytes, || read_binary(bytes))?;

    let streamed = no_panic("BinaryRecordIter", bytes, || {
        BinaryRecordIter::new(bytes).map(|iter| iter.collect::<Vec<_>>())
    })?;
    match streamed {
        Err(_) => prop_assert!(whole.is_err(), "only the streaming reader refused"),
        Ok(items) => {
            let records: Result<Vec<TraceRecord>, Error> = items.into_iter().collect();
            if let (Ok(streamed), Ok(whole)) = (records, &whole) {
                prop_assert_eq!(&streamed, whole, "streamed records differ");
            }
        }
    }

    let mapped = no_panic("MmapTrace::from_bytes", bytes, || {
        MmapTrace::from_bytes(bytes.to_vec()).map(|map| {
            let mut blocks = Vec::new();
            let mut reader = map.blocks();
            while let Some(block) = reader.next_block() {
                prop_assert!(block.len() <= DEFAULT_BLOCK_RECORDS);
                blocks.extend_from_slice(block);
            }
            // Replay places the log frontier above this bound.
            prop_assert!(
                map.top_sector() <= MAX_END_SECTOR,
                "frontier hint past the limit"
            );
            Ok((map.iter().collect::<Vec<_>>(), blocks))
        })
    })?;
    match mapped {
        Err(_) => {}
        Ok(checked) => {
            let (records, blocks) = checked?;
            prop_assert_eq!(&records, &blocks, "iter and blocks differ");
            match &whole {
                Ok(whole) => prop_assert_eq!(&records, whole, "mapped records differ"),
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "the mapping accepted an image read_binary refused: {e}"
                    )))
                }
            }
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
        check_readers(&bytes)?;
    }
}
