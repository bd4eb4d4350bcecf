//! Property tests of the policy engine. The invariant translation groups
//! rely on: with a selective cache downstream, the policy never opens the
//! defrag gate, so a cache-backed policy run builds exactly plain LS's
//! extent map and can replay as a read lane beside it. And robustness:
//! any configuration `PolicyConfig::validate` accepts, up to its bounds,
//! runs any call sequence without a panic or an overflow.

use proptest::prelude::*;
use smrseek_policy::{GateSet, PolicyConfig, PolicyEngine};

/// One call on the engine: observe a read or write, or feed back a
/// fragmented read that paid disk I/O or one a cache absorbed.
#[derive(Debug, Clone, Copy)]
enum Call {
    Observe { sector: u64, read: bool },
    Fragmented(u64),
    Absorbed(u64),
}

impl Call {
    /// Makes the call on `engine` at its sector XOR `flip` (`u64::MAX`
    /// mirrors it to the top of the address space); returns the gates an
    /// observe emitted.
    fn apply(self, engine: &mut PolicyEngine, flip: u64) -> Option<GateSet> {
        match self {
            Call::Observe { sector, read } => return Some(engine.observe(sector ^ flip, read)),
            Call::Fragmented(sector) => engine.record_fragmented(sector ^ flip),
            Call::Absorbed(sector) => engine.record_cache_absorbed(sector ^ flip),
        }
        None
    }

    fn sector(self) -> u64 {
        match self {
            Call::Observe { sector, .. } | Call::Fragmented(sector) | Call::Absorbed(sector) => {
                sector
            }
        }
    }
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

/// Configurations at and inside `PolicyConfig::validate`'s bounds:
/// one-sector or whole-space regions, shifts up to 31, a clamp of 0 or
/// `i32::MAX`. Weights drawn anywhere are clamped into the room the score
/// clamp leaves, so the largest valid magnitudes come up often.
fn valid_config() -> impl Strategy<Value = PolicyConfig> {
    let region = prop_oneof![Just(1), Just(u64::MAX), 1u64..1 << 20];
    let shift = prop_oneof![Just(31), 0u32..32];
    let clamp = prop_oneof![Just(0), Just(i32::MAX), 0..=i32::MAX, 0i32..16];
    let weight = || prop_oneof![i32::MIN..=i32::MAX, -8i32..8];
    let thresholds = (-16i32..16, -16i32..16);
    ((region, shift, clamp), (weight(), weight()), thresholds).prop_map(
        |((region_sectors, ewma_shift, clamp), (frag, write), (hot_enter, hot_exit))| {
            let room = i32::MAX - clamp;
            PolicyConfig {
                region_sectors,
                ewma_shift,
                frag_weight: frag.clamp(-room, room),
                write_weight: write.clamp(-room, room),
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
            if let (Some(gates), Some(without)) = (call.apply(&mut cached, 0), call.apply(&mut bare, 0)) {
                prop_assert!(!gates.defrag, "defrag opened at sector {}", call.sector());
                // The cache's presence moves the defrag gate alone.
                prop_assert_eq!(gates.prefetch, without.prefetch);
                prop_assert_eq!(gates.cache_admit, without.cache_admit);
            }
        }
        prop_assert_eq!(cached.stats().defrag_enabled, 0);
        prop_assert_eq!(cached.stats().defrag_gate_flips, 0);
    }

    #[test]
    fn valid_configs_survive_any_calls(config in valid_config(), calls in calls()) {
        prop_assert_eq!(config.validate(), Ok(()));
        let clamp = config.score_clamp;
        let mut engine = PolicyEngine::new(config);
        for call in calls {
            for flip in [0, u64::MAX] {
                call.apply(&mut engine, flip);
                let region = engine.region_of(call.sector() ^ flip);
                let score = engine.region(region).expect("touched region").score;
                prop_assert!((-clamp..=clamp).contains(&score), "score {}", score);
            }
        }
    }
}
