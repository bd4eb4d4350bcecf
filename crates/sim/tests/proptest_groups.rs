//! Property tests of translation groups end to end: every report of
//! [`Simulation::run_group`] must serialize to the same bytes as the
//! report of [`Simulation::run_trace`] on that configuration alone, and a
//! split group (cache lanes on a helper thread) to the same bytes as the
//! group replayed on one thread.
//!
//! A group shares a translation base — defragmentation, zones, host
//! cache, fragment tracking — and its members vary the read-side
//! mechanisms (prefetch, selective cache, flash tier) and seek recording
//! (distances, long-seek series) independently.

use proptest::prelude::*;
use smrseek_sim::{LayerChoice, RunReport, SimConfig, Simulation};
use smrseek_stl::{CacheConfig, DefragConfig, PrefetchConfig};
use smrseek_trace::{Lba, OpKind, TraceRecord};
use smrseek_workloads::profiles;

/// Small requests over a small logical space (reads hit fragmented data);
/// timestamps spaced so idle gaps occur.
fn trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    let record = (0u64..2_000, prop::bool::ANY, 0u64..512, 1u32..48).prop_map(
        |(gap, read, lba, sectors)| {
            let op = if read { OpKind::Read } else { OpKind::Write };
            TraceRecord::new(gap, op, Lba::new(lba), sectors)
        },
    );
    prop::collection::vec(record, 1..300).prop_map(|mut v| {
        let mut now = 0;
        for rec in &mut v {
            now += rec.timestamp_us;
            rec.timestamp_us = now;
        }
        v
    })
}

/// One group member: read-side mechanisms from `mechanisms` (bit 0
/// prefetch, bit 1 cache, bit 2 flash behind the cache) and seek
/// recording from `recording` (bit 0 distances, bit 1 long-seek series of
/// `bucket_ops`-record buckets), over the shared base.
fn member(base: SimConfig, mechanisms: u8, recording: u8, bucket_ops: u64) -> SimConfig {
    let LayerChoice::Ls { defrag, .. } = base.layer else {
        unreachable!("group bases are log-structured")
    };
    let prefetch = (mechanisms & 1 != 0).then_some(PrefetchConfig {
        behind_sectors: 16,
        ahead_sectors: 16,
        buffer_bytes: 96 * 512,
    });
    let cache = (mechanisms & 2 != 0).then_some(CacheConfig {
        capacity_bytes: 48 * 512,
    });
    let mut config = SimConfig {
        layer: LayerChoice::Ls {
            defrag,
            prefetch,
            cache,
        },
        ..base
    };
    if cache.is_some() && mechanisms & 4 != 0 {
        config = config.with_flash_cache(160 * 512);
    }
    if recording & 1 != 0 {
        config = config.with_distances();
    }
    if recording & 2 != 0 {
        config = config.with_longseek_series(bucket_ops);
    }
    config
}

/// The shared base: defrag (0 off, 1 immediate, 2 idle), zones, host
/// cache, fragment tracking.
fn base(defrag: usize, zones: bool, host_cache: bool, track: bool) -> SimConfig {
    let defrag = match defrag {
        0 => None,
        1 => Some(DefragConfig::default()),
        _ => Some(DefragConfig::idle(1_500)),
    };
    let mut config = SimConfig::ls_with(defrag, None, None);
    if zones {
        config = config.with_zones(64);
    }
    if host_cache {
        config = config.with_host_cache(32 * 512);
    }
    if track {
        config = config.with_fragment_tracking();
    }
    config
}

fn to_json(reports: &[RunReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("report serializes"))
        .collect()
}

/// A split group: a plain-LS member first (it forwards the translation),
/// then `members`, then one selective-cache member, with or without a
/// flash tier. Every member holding a cache replays on the helper.
fn split_group(
    base: SimConfig,
    plain_recording: u8,
    members: &[(u8, u8)],
    flash: bool,
    bucket_ops: u64,
) -> (Vec<SimConfig>, Vec<usize>) {
    let mut configs = vec![member(base, 0, plain_recording, bucket_ops)];
    configs.extend(members.iter().map(|&(m, r)| member(base, m, r, bucket_ops)));
    configs.push(member(base, if flash { 6 } else { 2 }, 3, bucket_ops));
    let helper = configs
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.layer, LayerChoice::Ls { cache: Some(_), .. }))
        .map(|(k, _)| k)
        .collect();
    (configs, helper)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_reports_match_single_runs_byte_for_byte(
        trace in trace(),
        defrag in 0usize..3,
        zones in prop::bool::ANY,
        host_cache in prop::bool::ANY,
        track in prop::bool::ANY,
        members in prop::collection::vec((0u8..8, 0u8..4), 1..6),
    ) {
        let base = base(defrag, zones, host_cache, track);
        let configs: Vec<SimConfig> =
            members.iter().map(|&(m, r)| member(base, m, r, 16)).collect();
        let reports = Simulation::run_group(&configs, &[], &trace);
        prop_assert_eq!(reports.len(), configs.len());
        for (config, report) in configs.iter().zip(&reports) {
            let alone = Simulation::new(config).run_trace(&trace);
            prop_assert_eq!(
                serde_json::to_string(report).expect("report serializes"),
                serde_json::to_string(&alone).expect("report serializes")
            );
        }
    }

    #[test]
    fn split_group_matches_inline_group_on_random_traces(
        trace in trace(),
        defrag in 0usize..3,
        zones in prop::bool::ANY,
        host_cache in prop::bool::ANY,
        track in prop::bool::ANY,
        plain_recording in 0u8..4,
        members in prop::collection::vec((0u8..8, 0u8..4), 0..4),
        flash in prop::bool::ANY,
    ) {
        let base = base(defrag, zones, host_cache, track);
        let (configs, helper) = split_group(base, plain_recording, &members, flash, 16);
        let inline = to_json(&Simulation::run_group(&configs, &[], &trace));
        let split = to_json(&Simulation::run_group(&configs, &helper, &trace));
        prop_assert_eq!(split, inline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Table-I traces of several blocks and a partial one, with long-seek
    /// buckets narrower than a block, so forwarded record indices and the
    /// final partial block both show in the reports.
    #[test]
    fn split_group_matches_inline_group_on_table1_traces(
        profile in 0usize..21,
        seed in 0u64..1_000,
        ops in 4_000usize..10_000,
        defrag in 0usize..3,
        zones in prop::bool::ANY,
        host_cache in prop::bool::ANY,
        track in prop::bool::ANY,
        members in prop::collection::vec((0u8..8, 0u8..4), 0..3),
        flash in prop::bool::ANY,
    ) {
        let trace = profiles::all()[profile].generate_scaled(seed, ops);
        let base = base(defrag, zones, host_cache, track);
        let (configs, helper) = split_group(base, 3, &members, flash, 1_000);
        let inline = to_json(&Simulation::run_group(&configs, &[], &trace));
        let split = to_json(&Simulation::run_group(&configs, &helper, &trace));
        prop_assert_eq!(split, inline);
    }
}
