//! `ExtentMap` equality and `Debug` depend only on the stored extents,
//! never on how the index beneath the map is chunked.

use smrseek_extent::{ExtentMap, CHUNK_CAP};
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
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    let mut c = b.clone();
    c.insert(Lba::new(N * 2), 1, Pba::new(7));
    assert_ne!(a, c);
}
