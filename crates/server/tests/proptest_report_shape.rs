//! Property tests pinning the report wire shape: only policy-driven runs
//! grow the adaptive fields (`policy`, `cache_tiers`).

use proptest::prelude::*;
use smrseek_policy::PolicyConfig;
use smrseek_sim::{SimConfig, Simulation};
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
/// the report-shaping extras (distances, fragment tracking)
/// toggled at random.
fn config_strategy() -> impl Strategy<Value = SimConfig> {
    let mut sweep = SimConfig::standard_sweep().to_vec();
    // Small regions so the 16 MiB trace span crosses many classifier
    // regions and gates actually flip inside short random traces.
    sweep.push(SimConfig::ls_adaptive().with_policy(PolicyConfig {
        region_sectors: 512,
        ..PolicyConfig::default()
    }));
    (0..sweep.len(), prop::bool::ANY, prop::bool::ANY).prop_map(move |(i, distances, fragments)| {
        let mut config = sweep[i];
        config.record_distances = distances;
        config.track_fragments = fragments;
        config
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
