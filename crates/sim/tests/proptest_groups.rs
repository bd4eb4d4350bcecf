//! Property tests of translation groups end to end: every report of
//! [`Simulation::run_group`] must serialize to the same bytes as the
//! report of [`Simulation::run_trace`] on that configuration alone, and a
//! split group (cache lanes on a helper thread) to the same bytes as the
//! group replayed on one thread.
//!
//! A group shares a translation base — defragmentation and fragment
//! tracking — and its members vary the read-side
//! mechanisms (prefetch, selective cache, flash tier) and seek recording
//! (distances, long-seek series) independently. Over a defrag-free base,
//! members may also be driven by an adaptive policy that can never fire
//! defragmentation: one with a selective cache (whatever defrag it
//! configures) or one with no defrag at all. Each such lane runs its own
//! policy engine on its own outcome, and is also checked against an
//! independent replay that keeps the configured defrag in its layer: the
//! policy's closed defrag gate, not the group, is what makes it inert.

use proptest::prelude::*;
use smrseek_disk::{PhysIo, SeekCounter, SeekStats};
use smrseek_policy::{PolicyConfig, PolicyEngine, PolicyStats};
use smrseek_sim::{LayerChoice, RunMatrix, RunReport, SimConfig, Simulation, TraceSource};
use smrseek_stl::{CacheConfig, DefragConfig, LogStructured, LsConfig, LsStats, PrefetchConfig};
use smrseek_trace::{stream, Lba, OpKind, TraceRecord};
use smrseek_workloads::profiles;
use std::num::NonZeroUsize;

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

/// The shared base: defrag (0 off, 1 immediate, 2 idle) and fragment
/// tracking.
fn base(defrag: usize, track: bool) -> SimConfig {
    let defrag = match defrag {
        0 => None,
        1 => Some(DefragConfig::default()),
        _ => Some(DefragConfig::idle(1_500)),
    };
    let mut config = SimConfig::ls_with(defrag, None, None);
    if track {
        config = config.with_fragment_tracking();
    }
    config
}

/// A policy small enough to classify `trace`'s 512-sector space into
/// several regions and flip their gates within a few hundred records.
fn policy() -> impl Strategy<Value = PolicyConfig> {
    (32u64..256, 1u32..4, 1i32..6).prop_map(|(region_sectors, ewma_shift, hot_enter)| {
        PolicyConfig {
            region_sectors,
            ewma_shift,
            hot_enter,
            ..PolicyConfig::default()
        }
    })
}

/// A policy-driven group member over `base` (which has no defrag):
/// [`member`]'s mechanisms, plus a configured defrag whenever the member
/// has a selective cache (the policy never lets it fire), and a prefetch
/// buffer whenever it has none (a policy needs a mechanism to gate).
fn policy_member(
    base: SimConfig,
    mechanisms: u8,
    recording: u8,
    bucket_ops: u64,
    policy: PolicyConfig,
) -> SimConfig {
    let mechanisms = if mechanisms & 2 == 0 {
        mechanisms | 1
    } else {
        mechanisms
    };
    let mut config = member(base, mechanisms, recording, bucket_ops).with_policy(policy);
    if let LayerChoice::Ls {
        defrag,
        cache: Some(_),
        ..
    } = &mut config.layer
    {
        *defrag = Some(DefragConfig::default());
    }
    config
}

/// A group over a defrag-free `base` mixing fixed members (`fixed`) and
/// policy members (`driven`), a plain-LS member first so it can split.
/// Returns the configs and the positions of the fixed cache lanes, which
/// are the ones a split hands to the helper.
fn policy_group(
    base: SimConfig,
    fixed: &[(u8, u8)],
    driven: &[(u8, u8, PolicyConfig)],
) -> (Vec<SimConfig>, Vec<usize>) {
    let mut configs = vec![member(base, 0, 1, 16)];
    configs.extend(fixed.iter().map(|&(m, r)| member(base, m, r, 16)));
    configs.extend(
        driven
            .iter()
            .map(|&(m, r, p)| policy_member(base, m, r, 16, p)),
    );
    configs.sort_by_key(|c| c.policy.is_some());
    let helper = configs
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.policy.is_none() && matches!(c.layer, LayerChoice::Ls { cache: Some(_), .. })
        })
        .map(|(k, _)| k)
        .collect();
    (configs, helper)
}

/// A policy-driven `config` replayed without the engine: one single-lane
/// layer built from every mechanism the config names, its defrag
/// included, with the policy observing each record, gating the layer, and
/// learning from the layer's counters.
fn reference(config: &SimConfig, trace: &[TraceRecord]) -> (SeekStats, LsStats, PolicyStats) {
    let LayerChoice::Ls {
        defrag,
        prefetch,
        cache,
    } = config.layer
    else {
        unreachable!("policy members are log-structured")
    };
    let top = stream::max_lba(trace).map_or(0, |l| l.sector() + 1);
    let mut ls_config = LsConfig::above_sector(top);
    ls_config.defrag = defrag;
    ls_config.prefetch = prefetch;
    ls_config.cache = cache;
    ls_config.flash_cache_bytes = config.flash_cache_bytes;
    ls_config.track_fragments = config.track_fragments;
    let mut ls = LogStructured::new(ls_config);
    let mut policy = PolicyEngine::new(config.policy.expect("a policy member"));
    policy.set_cache_present(cache.is_some());
    let mut seeks = SeekCounter::new();
    for rec in trace {
        let before = ls.stats();
        ls.set_gates(policy.observe(rec.lba.sector(), rec.op.is_read()));
        let mut ios: Vec<PhysIo> = Vec::new();
        ls.apply_into(rec, &mut |io| ios.push(io));
        let after = ls.stats();
        if after.fragmented_reads > before.fragmented_reads {
            if after.phys_reads > before.phys_reads {
                policy.record_fragmented(rec.lba.sector());
            } else {
                policy.record_cache_absorbed(rec.lba.sector());
            }
        }
        for io in &ios {
            seeks.observe(io);
        }
    }
    (seeks.stats(), ls.stats(), policy.stats())
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
        track in prop::bool::ANY,
        members in prop::collection::vec((0u8..8, 0u8..4), 1..6),
    ) {
        let base = base(defrag, track);
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
        track in prop::bool::ANY,
        plain_recording in 0u8..4,
        members in prop::collection::vec((0u8..8, 0u8..4), 0..4),
        flash in prop::bool::ANY,
    ) {
        let base = base(defrag, track);
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
        track in prop::bool::ANY,
        members in prop::collection::vec((0u8..8, 0u8..4), 0..3),
        flash in prop::bool::ANY,
    ) {
        let trace = profiles::all()[profile].generate_scaled(seed, ops);
        let base = base(defrag, track);
        let (configs, helper) = split_group(base, 3, &members, flash, 1_000);
        let inline = to_json(&Simulation::run_group(&configs, &[], &trace));
        let split = to_json(&Simulation::run_group(&configs, &helper, &trace));
        prop_assert_eq!(split, inline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Groups mixing fixed lanes with policy lanes (`ls_adaptive`-shaped
    /// and `ls_cache().with_policy(..)`-shaped members among them) match
    /// lone runs inline, and match the inline group when their fixed cache
    /// lanes replay on a helper.
    #[test]
    fn policy_lanes_match_single_runs_inline_and_split(
        trace in trace(),
        track in prop::bool::ANY,
        fixed in prop::collection::vec((0u8..8, 0u8..4), 0..3),
        driven in prop::collection::vec((0u8..8, 0u8..4, policy()), 1..4),
    ) {
        let base = base(0, track);
        let (configs, helper) = policy_group(base, &fixed, &driven);
        let reports = Simulation::run_group(&configs, &[], &trace);
        let inline = to_json(&reports);
        for ((config, report), json) in configs.iter().zip(&reports).zip(&inline) {
            let alone = Simulation::new(config).run_trace(&trace);
            prop_assert_eq!(json, &serde_json::to_string(&alone).expect("report serializes"));
            if config.policy.is_some() {
                let (seeks, ls_stats, policy) = reference(config, &trace);
                prop_assert_eq!(report.seeks, seeks);
                prop_assert_eq!(report.ls_stats, Some(ls_stats));
                prop_assert_eq!(report.policy, Some(policy));
            }
        }
        if !helper.is_empty() {
            let split = to_json(&Simulation::run_group(&configs, &helper, &trace));
            prop_assert_eq!(split, inline);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Table-I matrix's shape — the standard sweep plus `ls_adaptive`
    /// and a cache-backed policy — gives the same bytes on 1, 2 and 4
    /// threads: on 2, one source's LS group carries both policy lanes and
    /// splits its fixed cache lane off to a helper.
    #[test]
    fn table1_shaped_matrix_is_thread_count_invariant(
        profiles in prop::collection::vec(0usize..21, 1..3),
        seed in 0u64..1_000,
        ops in 1_500usize..5_000,
    ) {
        let sources: Vec<TraceSource> = profiles
            .iter()
            .map(|&p| TraceSource::from_records(
                format!("p{p}"),
                profiles::all()[p].generate_scaled(seed, ops),
            ))
            .collect();
        let mut configs = SimConfig::standard_sweep().to_vec();
        configs.push(SimConfig::ls_adaptive());
        configs.push(SimConfig::ls_cache().with_policy(PolicyConfig::default()));
        let matrix = RunMatrix::cross(&sources, &configs);
        let bytes = |threads: usize| -> Vec<String> {
            let threads = NonZeroUsize::new(threads).expect("nonzero");
            matrix
                .execute(threads)
                .iter()
                .map(|o| serde_json::to_string(&o.report).expect("report serializes"))
                .collect()
        };
        let serial = bytes(1);
        prop_assert_eq!(bytes(2), serial.clone());
        prop_assert_eq!(bytes(4), serial);
    }
}

/// A policy without a selective cache can open the defrag gate, which
/// writes the map: it never shares a translation, so it never groups.
#[test]
fn cache_less_policy_refuses_to_share() {
    let driven = SimConfig::ls_with(
        Some(DefragConfig::default()),
        Some(PrefetchConfig::default()),
        None,
    )
    .with_policy(PolicyConfig::default());
    for other in [
        SimConfig::log_structured(),
        SimConfig::ls_defrag(),
        SimConfig::ls_prefetch(),
        SimConfig::ls_adaptive(),
        driven,
    ] {
        assert!(!driven.shares_translation(&other), "{other:?}");
        assert!(!other.shares_translation(&driven), "{other:?}");
    }
    let source = TraceSource::from_records("t", profiles::all()[0].generate_scaled(1, 500));
    let matrix = RunMatrix::cross(&[source], &[SimConfig::log_structured(), driven]);
    let outcomes = matrix.execute(NonZeroUsize::MIN);
    assert_eq!(outcomes[1].report.layer_name, "LS+adaptive");
    let alone = Simulation::new(&driven).run_trace(&profiles::all()[0].generate_scaled(1, 500));
    assert_eq!(
        serde_json::to_string(&outcomes[1].report).expect("report serializes"),
        serde_json::to_string(&alone).expect("report serializes")
    );
}

#[test]
#[should_panic(expected = "policy lane must replay on the group's own thread")]
fn policy_lane_cannot_replay_on_the_helper() {
    let trace = profiles::all()[0].generate_scaled(1, 200);
    Simulation::run_group(
        &[SimConfig::log_structured(), SimConfig::ls_adaptive()],
        &[1],
        &trace,
    );
}
