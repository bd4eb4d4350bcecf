//! Model property test of the histogram exposition: for any multiset of
//! observations, the rendered series reads as Prometheus defines it. Each
//! `le="b"` bucket counts the observations ≤ b, `+Inf` and `_count` count
//! them all, `_sum` is their sum, and no bucket decreases between two
//! scrapes.

use proptest::prelude::*;
use smrseek_obs::Registry;
use std::collections::BTreeMap;

/// Values at, just below and just above powers of two, plus arbitrary
/// ones up to 2^40 (so any 64 of them sum without overflow).
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..8,
        3 => (0u32..40, 0u8..3).prop_map(|(k, d)| (1u64 << k) + u64::from(d) - 1),
        2 => 0u64..1 << 40,
    ]
}

/// The `(le, value)` of every bucket line plus `_sum` and `_count`.
fn scrape(text: &str) -> (BTreeMap<String, u64>, u64, u64) {
    let mut buckets = BTreeMap::new();
    let (mut sum, mut count) = (None, None);
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: u64 = value.parse().expect("integer sample");
        if let Some((_, le)) = series.split_once("le=\"") {
            let le = le.split('"').next().expect("closing quote");
            buckets.insert(le.to_owned(), value);
        } else if series.starts_with("test_model_us_sum") {
            sum = Some(value);
        } else if series.starts_with("test_model_us_count") {
            count = Some(value);
        }
    }
    (
        buckets,
        sum.expect("_sum line"),
        count.expect("_count line"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_buckets_count_observations_at_or_below_their_bound(
        first in prop::collection::vec(value(), 0..32),
        second in prop::collection::vec(value(), 0..32),
    ) {
        let registry = Registry::new();
        let h = registry.labeled_histogram("test_model_us", "Model.", "k", "v");
        let mut seen: Vec<u64> = Vec::new();
        let mut previous: Option<BTreeMap<String, u64>> = None;
        for batch in [&first, &second] {
            for &v in batch {
                h.observe(v);
            }
            seen.extend(batch);
            let (buckets, sum, count) = scrape(&registry.render());
            prop_assert_eq!(buckets.len(), 26, "25 bounds and +Inf");
            for (le, &got) in &buckets {
                let want = match le.as_str() {
                    "+Inf" => seen.len() as u64,
                    bound => {
                        let bound: u64 = bound.parse().expect("numeric bound");
                        seen.iter().filter(|&&v| v <= bound).count() as u64
                    }
                };
                prop_assert_eq!(got, want, "le={}", le);
            }
            prop_assert_eq!(count, seen.len() as u64);
            prop_assert_eq!(sum, seen.iter().sum::<u64>());
            if let Some(previous) = &previous {
                for (le, &before) in previous {
                    prop_assert!(buckets[le] >= before, "le={} decreased", le);
                }
            }
            previous = Some(buckets);
        }
    }
}
