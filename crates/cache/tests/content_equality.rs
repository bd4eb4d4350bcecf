//! Range-cache equality and serialized form depend only on content, never
//! on how the index beneath the cache is chunked, and the serialized form
//! stays the shape earlier releases wrote (`by_start` an object from start
//! sector to slab node).

use smrseek_cache::{RangeCache, TierLookup, TieredCache};
use smrseek_extent::CHUNK_CAP;
use smrseek_trace::Pba;

const N: u64 = 4 * CHUNK_CAP as u64;

/// Descending inserts land at the front of the index, splitting chunks in
/// half; a deserialized copy packs the same entries into full chunks.
fn descending(capacity: u64) -> RangeCache {
    let mut c = RangeCache::with_capacity_sectors(capacity);
    for i in (0..N).rev() {
        c.insert(Pba::new(i * 10), 4);
    }
    c
}

#[test]
fn range_cache_round_trip_is_equal_and_evicts_alike() {
    let mut built = descending(N * 4);
    assert_eq!(built.len() as u64, N);
    let json = serde_json::to_string(&built).expect("serializes");
    let mut loaded: RangeCache = serde_json::from_str(&json).expect("parses");
    assert_eq!(loaded, built);
    assert_eq!(serde_json::to_string(&loaded).expect("serializes"), json);

    // The same operations on both layouts give the same victims.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..2 * CHUNK_CAP as u64 {
        let at = Pba::new(N * 10 + i * 7);
        built.insert_evicting(at, 6, &mut |p, l| a.push((p, l)));
        loaded.insert_evicting(at, 6, &mut |p, l| b.push((p, l)));
        let probe = Pba::new((i * 37) % (N * 10));
        assert_eq!(built.covers(probe, 2), loaded.covers(probe, 2));
    }
    assert!(!a.is_empty());
    assert_eq!(a, b);
    assert_eq!(loaded, built);
}

#[test]
fn tiered_cache_round_trip_is_equal() {
    let mut c = TieredCache::with_flash_sectors(CHUNK_CAP as u64 * 4, N * 8);
    for i in (0..N).rev() {
        c.admit(Pba::new(i * 10), 4);
    }
    assert!(c.flash().expect("flash tier").len() > CHUNK_CAP);
    let json = serde_json::to_string(&c).expect("serializes");
    let mut back: TieredCache = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, c);
    // The first admits were demoted; a flash hit promotes on both copies.
    let oldest = Pba::new((N - 1) * 10);
    assert_eq!(back.lookup(oldest, 4), TierLookup::Flash);
    assert_eq!(c.lookup(oldest, 4), TierLookup::Flash);
    assert_eq!(back, c);
}

#[test]
fn wire_form_is_unchanged() {
    let golden = concat!(
        r#"{"by_start":{"50":1,"200":2},"nodes":["#,
        r#"{"start":100,"sectors":8,"prev":18446744073709551615,"next":18446744073709551615},"#,
        r#"{"start":50,"sectors":4,"prev":18446744073709551615,"next":2},"#,
        r#"{"start":200,"sectors":8,"prev":1,"next":18446744073709551615}],"#,
        r#""free":[0],"head":1,"tail":2,"sectors_used":12,"capacity_sectors":16,"#,
        r#""stats":{"hits":1,"misses":0,"evictions":1}}"#,
    );
    let mut c = RangeCache::with_capacity_sectors(16);
    c.insert(Pba::new(100), 8);
    c.insert(Pba::new(50), 4);
    c.insert(Pba::new(200), 8); // evicts [100, 108)
    assert!(c.covers(Pba::new(50), 4));
    assert_eq!(serde_json::to_string(&c).expect("serializes"), golden);
    let back: RangeCache = serde_json::from_str(golden).expect("old form loads");
    assert_eq!(back, c);
    assert_eq!(back.ranges(), vec![(Pba::new(50), 4), (Pba::new(200), 8)]);
}
