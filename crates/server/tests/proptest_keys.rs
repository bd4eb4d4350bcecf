//! Property tests for the result cache's config canonicalization.
//!
//! The cache key must be *sound* (two requests with the same key must be
//! observably identical — a collision would serve one request the other's
//! report) and *tight enough* (edits the engine cannot observe must not
//! change the key, or the cache never hits). Both directions are checked
//! against the engine itself: when the properties say "observably equal",
//! a short replay confirms the reports really are byte-identical.

use proptest::prelude::*;
use smrseek_policy::PolicyConfig;
use smrseek_sim::runner::RunMatrix;
use smrseek_sim::{LayerChoice, SimConfig, TraceSource};
use smrseek_trace::{Lba, TraceRecord};
use std::num::NonZeroUsize;

/// A small mixed read/write trace, deterministic by construction.
fn trace() -> Vec<TraceRecord> {
    (0..96u64)
        .map(|i| {
            if i % 3 == 0 {
                TraceRecord::read(i * 10, Lba::new((i * 113) % 2048 * 8), 8)
            } else {
                TraceRecord::write(i * 10, Lba::new((i * 29) % 2048 * 8), 16)
            }
        })
        .collect()
}

fn report_bytes(config: SimConfig) -> String {
    let source = TraceSource::from_records("k", trace());
    let outcomes = RunMatrix::cross(&[source], &[config]).execute(NonZeroUsize::MIN);
    serde_json::to_string_pretty(&outcomes[0].report).expect("report serializes")
}

/// Any of the five layer constructors, or a cache-backed policy config.
fn layer_strategy() -> impl Strategy<Value = SimConfig> {
    prop_oneof![
        Just(SimConfig::no_ls()),
        Just(SimConfig::log_structured()),
        Just(SimConfig::ls_defrag()),
        Just(SimConfig::ls_prefetch()),
        Just(SimConfig::ls_cache()),
        Just(SimConfig::ls_adaptive()),
        Just(SimConfig::ls_cache().with_policy(PolicyConfig {
            region_sectors: 512,
            hot_enter: 1,
            ..PolicyConfig::default()
        })),
    ]
}

/// A config with every shared knob randomized.
fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        layer_strategy(),
        prop::bool::ANY,
        prop::bool::ANY,
        1..10_000u64,
    )
        .prop_map(|(mut config, distances, fragments, bucket)| {
            config.record_distances = distances;
            config.track_fragments = fragments;
            config.longseek_bucket_ops = bucket;
            config
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unobservable edits never change the key: a NoLS config keeps its
    /// key when LS-only knobs are set, and a cache-backed policy config
    /// keeps its key whether or not it configures a defrag its policy
    /// never lets fire. The engine agrees on the last: both variants
    /// replay to byte-identical reports.
    #[test]
    fn neutral_edits_share_a_key(base in config_strategy()) {
        let key_base = base.cache_key();
        if matches!(base.layer, LayerChoice::NoLs) {
            // Fragment tracking and a flash tier only exist under a
            // translation layer; NoLS replays ignore them.
            let mut edited = base;
            edited.track_fragments = !edited.track_fragments;
            edited.flash_cache_bytes = Some(1 << 20);
            prop_assert_eq!(&key_base, &edited.cache_key(), "neutral edit changed the key");
        }
        if base.policy.is_some() {
            let LayerChoice::Ls { defrag: paper, .. } = SimConfig::ls_defrag().layer else {
                unreachable!("LS+defrag is log-structured")
            };
            let mut toggled = base;
            if let LayerChoice::Ls { defrag, .. } = &mut toggled.layer {
                *defrag = if defrag.is_some() { None } else { paper };
            }
            prop_assert_eq!(&key_base, &toggled.cache_key(), "an inert defrag changed the key");
            prop_assert_eq!(report_bytes(base), report_bytes(toggled));
        }
    }

    /// Keys against the engine: two random configs share a key exactly
    /// when their replays are byte-identical. A collision would serve one
    /// request the other's report; a split would never hit the cache.
    /// (Collisions are common here because the strategy reuses the
    /// constructors.)
    #[test]
    fn equal_keys_mean_equal_reports(a in config_strategy(), b in config_strategy()) {
        let same_key = a.cache_key() == b.cache_key();
        let same_report = report_bytes(a) == report_bytes(b);
        prop_assert_eq!(same_key, same_report, "keys {} / {}", a.cache_key(), b.cache_key());
    }

    /// Every report-shaping knob separates keys: editing it must yield a
    /// different key, because the engine's output observably differs.
    #[test]
    fn observable_edits_separate_keys(base in config_strategy()) {
        let mut distances = base;
        distances.record_distances = !distances.record_distances;
        prop_assert_ne!(base.cache_key(), distances.cache_key());

        let mut bucket = base;
        bucket.longseek_bucket_ops += 1;
        prop_assert_ne!(base.cache_key(), bucket.cache_key());
    }
}
