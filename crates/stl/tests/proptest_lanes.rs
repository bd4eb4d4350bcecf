//! Property test of read lanes at the layer: one [`LogStructured`] built
//! with several lanes must emit, per lane, exactly the physical I/O,
//! counters, tier counters and name of a single-lane layer of that lane's
//! configuration.
//!
//! The lanes differ only in read-side mechanisms (none, prefetch, cache,
//! cache with a flash tier, prefetch plus cache) over a shared translation
//! base: defragmentation off, immediate or idle-batched, with or without
//! fragment tracking. Caches and buffers are sized small so
//! evictions and flash demotions happen within a short trace.

use proptest::prelude::*;
use smrseek_cache::TierStats;
use smrseek_disk::PhysIo;
use smrseek_stl::{CacheConfig, DefragConfig, LogStructured, LsConfig, LsStats, PrefetchConfig};
use smrseek_trace::{Lba, OpKind, TraceRecord};

/// Small requests over a small logical space, so reads hit data that
/// later writes fragmented; timestamps spaced so idle gaps occur.
fn record() -> impl Strategy<Value = TraceRecord> {
    (0u64..2_000, prop::bool::ANY, 0u64..512, 1u32..48).prop_map(|(gap, read, lba, sectors)| {
        let op = if read { OpKind::Read } else { OpKind::Write };
        TraceRecord::new(gap, op, Lba::new(lba), sectors)
    })
}

/// Traces whose timestamps are the running sum of the generated gaps.
fn trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(record(), 1..300).prop_map(|mut v| {
        let mut now = 0;
        for rec in &mut v {
            now += rec.timestamp_us;
            rec.timestamp_us = now;
        }
        v
    })
}

/// The shared translation: defrag (0 off, 1 immediate, 2 idle), fragment
/// tracking.
fn base(trace: &[TraceRecord], defrag: usize, track: bool) -> LsConfig {
    let mut config = LsConfig::for_trace(trace);
    config.defrag = match defrag {
        0 => None,
        1 => Some(DefragConfig::default()),
        _ => Some(DefragConfig::idle(1_500)),
    };
    config.track_fragments = track;
    config
}

/// The five read lanes over `base`.
fn lanes(base: LsConfig) -> Vec<LsConfig> {
    let prefetch = PrefetchConfig {
        behind_sectors: 16,
        ahead_sectors: 16,
        buffer_bytes: 96 * 512,
    };
    let cache = CacheConfig {
        capacity_bytes: 48 * 512,
    };
    vec![
        base,
        base.with_prefetch(prefetch),
        base.with_cache(cache),
        base.with_cache(cache).with_flash_cache(160 * 512),
        base.with_prefetch(prefetch).with_cache(cache),
    ]
}

/// Everything a lane is observed by.
type LaneView = (Vec<PhysIo>, LsStats, Option<TierStats>, String);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_lane_matches_a_single_lane_layer(
        trace in trace(),
        defrag in 0usize..3,
        track in prop::bool::ANY,
    ) {
        let configs = lanes(base(&trace, defrag, track));
        let mut shared = LogStructured::with_lanes(&configs);
        let mut per_lane: Vec<Vec<PhysIo>> = vec![Vec::new(); configs.len()];
        for rec in &trace {
            shared.apply_lanes_into(rec, &mut |k, io| per_lane[k].push(io));
        }
        for (k, config) in configs.iter().enumerate() {
            let mut single = LogStructured::new(*config);
            let mut ios = Vec::new();
            for rec in &trace {
                single.apply_into(rec, &mut |io| ios.push(io));
            }
            let expected: LaneView =
                (ios, single.stats(), single.tier_stats(), single.lane_name(0).to_owned());
            let got: LaneView = (
                std::mem::take(&mut per_lane[k]),
                shared.lane_stats(k),
                shared.lane_tier_stats(k),
                shared.lane_name(k).to_owned(),
            );
            prop_assert_eq!(got, expected);
            prop_assert_eq!(
                shared.fragment_tracker().map(|t| t.per_read_fragment_counts().to_vec()),
                single.fragment_tracker().map(|t| t.per_read_fragment_counts().to_vec())
            );
        }
    }
}
