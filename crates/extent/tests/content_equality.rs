//! `ExtentMap` equality, digest and serialized form depend only on the
//! stored extents, never on how the index beneath the map is chunked, and
//! the serialized form stays the object-from-start-sector shape earlier
//! releases wrote.

use smrseek_extent::{ExtentMap, ExtentMapCheckpoint, CHUNK_CAP};
use smrseek_trace::{Lba, Pba};

/// Extents that never coalesce: `n` two-sector extents four sectors apart.
const N: u64 = 5 * CHUNK_CAP as u64;

fn extent(i: u64) -> (Lba, u64, Pba) {
    (Lba::new(i * 4), 2, Pba::new(10_000 + i * 100))
}

/// Ascending inserts append to the last chunk, leaving full chunks.
fn ascending() -> ExtentMap {
    let mut map = ExtentMap::new();
    for i in 0..N {
        let (lba, len, pba) = extent(i);
        map.insert(lba, len, pba);
    }
    map
}

/// Descending inserts land at the front, splitting chunks in half; the
/// overwrites and removals on the way change the history, not the result.
fn descending_with_overwrites() -> ExtentMap {
    let mut map = ExtentMap::new();
    map.insert(Lba::new(0), N * 4, Pba::new(1 << 30));
    for i in (0..N).rev() {
        let (lba, len, pba) = extent(i);
        map.remove(lba + 2, 2);
        map.insert(lba, len, pba);
    }
    map
}

#[test]
fn equal_content_compares_equal_across_histories() {
    let a = ascending();
    let b = descending_with_overwrites();
    assert_eq!(a.len() as u64, N);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    assert!(ExtentMapCheckpoint::capture(&a).matches(&b));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    let mut c = b.clone();
    c.insert(Lba::new(N * 2), 1, Pba::new(7));
    assert_ne!(a, c);
    assert_ne!(a.digest(), c.digest());
}

#[test]
fn serde_round_trip_keeps_equality_and_digest() {
    for map in [ascending(), descending_with_overwrites()] {
        let json = serde_json::to_string(&map).expect("serializes");
        let back: ExtentMap = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, map);
        assert_eq!(back.digest(), map.digest());
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }
    let a = serde_json::to_string(&ascending()).expect("serializes");
    let b = serde_json::to_string(&descending_with_overwrites()).expect("serializes");
    assert_eq!(a, b, "wire bytes ignore chunk layout");
}

#[test]
fn wire_form_is_an_object_keyed_by_start_sector() {
    let golden = r#"{"extents":{"0":[4,1000],"8":[2,2000]},"mapped_sectors":6}"#;
    let mut map = ExtentMap::new();
    map.insert(Lba::new(0), 4, Pba::new(1000));
    map.insert(Lba::new(8), 2, Pba::new(2000));
    assert_eq!(serde_json::to_string(&map).expect("serializes"), golden);
    let back: ExtentMap = serde_json::from_str(golden).expect("old form loads");
    assert_eq!(back, map);
    assert_eq!(back.translate(Lba::new(9)), Some(Pba::new(2001)));
}
