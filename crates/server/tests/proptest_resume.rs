//! Property tests for the snapshot/resume subsystem.
//!
//! The invariant the whole checkpoint design rests on: for ANY trace, ANY
//! cut point, and every standard-sweep configuration, snapshotting at the
//! cut and resuming over the remaining records yields a report
//! byte-identical (as serialized JSON) to the uninterrupted run. A second
//! property pushes the snapshot through the on-disk container so the
//! encode/decode framing is under the same randomized scrutiny. A third
//! pins the report wire shape: only policy-driven runs grow the adaptive
//! fields.

use proptest::prelude::*;
use smrseek_policy::PolicyConfig;
use smrseek_sim::checkpoint::{decode_engine_snapshot, encode_engine_snapshot};
use smrseek_sim::{EngineSnapshot, SimConfig, Simulation};
use smrseek_trace::{Lba, TraceRecord};

/// One arbitrary record: mixed ops, sector-aligned LBAs within a 16 MiB
/// span, 1–64 sectors long.
fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (0u64..1 << 12, 1u32..64, prop::bool::ANY).prop_map(|(block, sectors, is_read)| {
        let lba = Lba::new(block * 8);
        if is_read {
            TraceRecord::read(block, lba, sectors)
        } else {
            TraceRecord::write(block, lba, sectors)
        }
    })
}

/// The five standard-sweep configs plus the adaptive policy stack, with
/// the report-shaping extras (distances, fragment tracking, host cache)
/// toggled at random so the snapshot has to carry every optional piece of
/// engine state — including the policy classifier and the tiered cache.
fn config_strategy() -> impl Strategy<Value = SimConfig> {
    let mut sweep = SimConfig::standard_sweep().to_vec();
    // Small regions so the 16 MiB trace span crosses many classifier
    // regions and gates actually flip inside short random traces.
    sweep.push(SimConfig::ls_adaptive().with_policy(PolicyConfig {
        region_sectors: 512,
        ..PolicyConfig::default()
    }));
    (
        0..sweep.len(),
        prop::bool::ANY,
        prop::bool::ANY,
        prop_oneof![
            1 => Just(None),
            2 => (1u64..1 << 20).prop_map(Some),
        ],
    )
        .prop_map(move |(i, distances, fragments, cache)| {
            let mut config = sweep[i];
            config.record_distances = distances;
            config.track_fragments = fragments;
            config.host_cache_bytes = cache;
            config
        })
}

/// Runs `records` under `config`, snapshotting exactly once at `cut`, and
/// returns `(snapshot, straight-through report JSON)`.
fn snapshot_at(records: &[TraceRecord], config: &SimConfig, cut: u64) -> (EngineSnapshot, String) {
    let run = config.with_checkpoint_every(cut.max(1));
    let mut snap = None;
    let report = Simulation::new(&run)
        .checkpoint_sink(|s: &EngineSnapshot| {
            if s.logical_ops == cut {
                snap = Some(s.clone());
            }
        })
        .run(records.iter().copied());
    let whole = serde_json::to_string(&report).expect("report serializes");
    (snap.expect("cadence fires at the cut"), whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// snapshot at k + resume over records k.. == uninterrupted run, for
    /// arbitrary traces, cut points, and sweep configs. The derived
    /// frontier must be pinned (as every caller does) because the resumed
    /// run cannot re-derive it from the full trace it never sees.
    #[test]
    fn resume_equals_straight_through(
        records in prop::collection::vec(record_strategy(), 2..160),
        cut_fraction in 1u64..100,
        config in config_strategy(),
    ) {
        let top = smrseek_trace::binary::top_sector(&records);
        let config = config.with_frontier_hint(top);
        let cut = (records.len() as u64 * cut_fraction / 100).max(1);
        let (snap, whole) = snapshot_at(&records, &config, cut);
        prop_assert_eq!(snap.logical_ops, cut);
        let resumed = Simulation::new(&config)
            .resume_from(&snap)
            .run(records[cut as usize..].iter().copied());
        prop_assert_eq!(
            serde_json::to_string(&resumed).expect("report serializes"),
            whole,
            "resume from {} of {} diverged", cut, records.len()
        );
    }

    /// The container framing is lossless: encode → decode returns the
    /// exact snapshot, and the decoded state resumes identically too.
    #[test]
    fn container_round_trip_preserves_resume(
        records in prop::collection::vec(record_strategy(), 4..80),
        config in config_strategy(),
        digest in 1u64..u64::MAX,
    ) {
        let digest = u128::from(digest) << 32 | 0xfeed;
        let top = smrseek_trace::binary::top_sector(&records);
        let config = config.with_frontier_hint(top);
        let cut = (records.len() / 2) as u64;
        let (snap, _) = snapshot_at(&records, &config, cut);
        let container = encode_engine_snapshot(digest, "prop-key", &snap);
        prop_assert_eq!(container.record_index, cut);
        let decoded = decode_engine_snapshot(&container).expect("round trip decodes");
        prop_assert_eq!(&decoded, &snap);
        let from_decoded = Simulation::new(&config)
            .resume_from(&decoded)
            .run(records[cut as usize..].iter().copied());
        let straight = Simulation::new(&config).run(records.iter().copied());
        prop_assert_eq!(
            serde_json::to_string(&from_decoded).expect("serializes"),
            serde_json::to_string(&straight).expect("serializes")
        );
    }

    /// Policy-off reports keep the pre-policy wire shape: no sweep
    /// configuration (none of which carries a policy or a flash tier)
    /// may grow a `"policy"` or `"cache_tiers"` key, so downstream
    /// consumers of archived reports never see the new fields unless the
    /// run opted in.
    #[test]
    fn policy_off_reports_keep_pre_policy_shape(
        records in prop::collection::vec(record_strategy(), 1..120),
        config in config_strategy(),
    ) {
        let has_policy = config.policy.is_some();
        let json = serde_json::to_string(&Simulation::new(&config).run_trace(&records))
            .expect("report serializes");
        prop_assert_eq!(
            json.contains("\"policy\""), has_policy,
            "policy key presence must match the config: {}", json
        );
        prop_assert_eq!(
            json.contains("\"cache_tiers\""), has_policy,
            "cache_tiers key presence must match the config: {}", json
        );
    }
}

/// The adaptive stack is the only configuration that opts into the new
/// report fields, and it always carries both.
#[test]
fn adaptive_report_carries_policy_and_tier_stats() {
    let records: Vec<TraceRecord> = (0..64)
        .map(|i| TraceRecord::write(i, Lba::new(i * 8), 8))
        .chain((0..64).map(|i| TraceRecord::read(64 + i, Lba::new(i * 8), 8)))
        .collect();
    let report = Simulation::new(&SimConfig::ls_adaptive()).run_trace(&records);
    assert!(
        report.policy.is_some(),
        "adaptive run must report PolicyStats"
    );
    assert!(
        report.cache_tiers.is_some(),
        "adaptive run must report per-tier cache stats"
    );
}
