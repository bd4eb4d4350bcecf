//! Property test of the invariant translation groups rely on: with a
//! selective cache downstream, the policy never opens the defrag gate, so
//! a cache-backed policy run builds exactly plain LS's extent map and can
//! replay as a read lane beside it.

use proptest::prelude::*;
use smrseek_policy::{PolicyConfig, PolicyEngine};

/// One call on the engine: observe a read or write, or feed back a
/// fragmented read that paid disk I/O or one a cache absorbed.
#[derive(Debug, Clone, Copy)]
enum Call {
    Observe { sector: u64, read: bool },
    Fragmented(u64),
    Absorbed(u64),
}

fn config() -> impl Strategy<Value = PolicyConfig> {
    let rates = (1u64..4_096, 0u32..8, 0i32..8, 0i32..4);
    let thresholds = (prop_oneof![Just(1), 1i32..8], -8i32..=0, 1i32..16);
    (rates, thresholds).prop_map(
        |(
            (region_sectors, ewma_shift, frag_weight, write_weight),
            (hot_enter, hot_exit, clamp),
        )| {
            PolicyConfig {
                region_sectors,
                ewma_shift,
                frag_weight,
                write_weight,
                hot_enter,
                hot_exit,
                score_clamp: clamp,
            }
        },
    )
}

/// Calls over a few regions' worth of sectors, so regions collide and
/// heat builds up; fragmented-read feedback is the most common call.
fn calls() -> impl Strategy<Value = Vec<Call>> {
    let sector = 0u64..32_768;
    let call = prop_oneof![
        2 => (sector.clone(), prop::bool::ANY)
            .prop_map(|(sector, read)| Call::Observe { sector, read }),
        3 => sector.clone().prop_map(Call::Fragmented),
        1 => sector.prop_map(Call::Absorbed),
    ];
    prop::collection::vec(call, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_present_never_opens_the_defrag_gate(config in config(), calls in calls()) {
        let mut cached = PolicyEngine::new(config);
        cached.set_cache_present(true);
        let mut bare = PolicyEngine::new(config);
        for call in calls {
            match call {
                Call::Observe { sector, read } => {
                    let gates = cached.observe(sector, read);
                    prop_assert!(!gates.defrag, "defrag opened at sector {}", sector);
                    // The cache's presence moves the defrag gate alone.
                    let without = bare.observe(sector, read);
                    prop_assert_eq!(gates.prefetch, without.prefetch);
                    prop_assert_eq!(gates.cache_admit, without.cache_admit);
                }
                Call::Fragmented(sector) => {
                    cached.record_fragmented(sector);
                    bare.record_fragmented(sector);
                }
                Call::Absorbed(sector) => {
                    cached.record_cache_absorbed(sector);
                    bare.record_cache_absorbed(sector);
                }
            }
        }
        prop_assert_eq!(cached.stats().defrag_enabled, 0);
        prop_assert_eq!(cached.stats().defrag_gate_flips, 0);
    }
}
