//! The simulation engine: trace × translation layer → seek statistics.
//!
//! The single entry point is the [`Simulation`] builder: configure with a
//! [`SimConfig`] (checked by [`SimConfig::validate`]), then
//! [`run`](Simulation::run) a record stream or
//! [`run_trace`](Simulation::run_trace) an in-memory record slice;
//! [`Simulation::run_group`] replays several configurations that share one
//! translation in a single pass. All replay through the same per-record
//! step. A group may *split*: some of its read lanes then replay, on
//! whichever worker of the matrix is free to serve them, from the
//! translated I/O of the group's plain-LS lane, through the same
//! [`ReadLane::read_runs`] and seek accounting (DESIGN.md §13); the
//! translation itself always replays serially.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use smrseek_cache::TierStats;
use smrseek_disk::{Cdf, LongSeekSeries, PhysIo, SeekCounter, SeekStats};
use smrseek_obs::{phase, Phase, PhaseTotals};
use smrseek_policy::{PolicyConfig, PolicyEngine, PolicyStats};
use smrseek_stl::{
    CacheConfig, DefragConfig, FragmentAccessTracker, LogStructured, LsConfig, LsStats,
    PrefetchConfig, ReadLane,
};
use smrseek_trace::{stream, Pba, TraceRecord};

use crate::split::{LaneBoard, SplitLanes};

/// Which translation layer to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayerChoice {
    /// Conventional update-in-place (the paper's NoLS baseline).
    NoLs,
    /// Log-structured translation with optional mechanisms.
    Ls {
        /// Opportunistic defragmentation (§IV-A).
        defrag: Option<DefragConfig>,
        /// Look-ahead-behind prefetching (§IV-B).
        prefetch: Option<PrefetchConfig>,
        /// Selective caching (§IV-C).
        cache: Option<CacheConfig>,
    },
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The translation layer under test.
    pub layer: LayerChoice,
    /// Record every seek's signed distance (needed for Fig 4 CDFs;
    /// memory-heavy on large traces).
    pub record_distances: bool,
    /// Long-seek series bucket width in logical operations
    /// (0 disables the Fig 3 series).
    pub longseek_bucket_ops: u64,
    /// Track per-fragment access statistics (Fig 5 / Fig 10).
    pub track_fragments: bool,
    /// Drive the layer's mechanisms through the adaptive policy engine
    /// (`smrseek-policy`): per-region online heat classification gates
    /// defrag rewrites, scales the prefetch window, and admits or denies
    /// cache fills, per record. Requires a log-structured layer with at
    /// least one mechanism to gate ([`validate`](Self::validate) checks).
    pub policy: Option<PolicyConfig>,
    /// Back the selective cache with a simulated flash tier of this many
    /// bytes (`smrseek_cache::TieredCache`): RAM evictions demote, flash
    /// hits promote. Requires the selective cache
    /// ([`validate`](Self::validate) checks); the per-tier counters surface as
    /// [`RunReport::cache_tiers`].
    pub flash_cache_bytes: Option<u64>,
    /// Logical-space bound for streaming runs: one past the highest sector
    /// the trace touches. Log-structured layers place their write frontier
    /// at the first 1 MiB boundary at or above this (§III). Required by
    /// [`Simulation::run`] for LS layers — an iterator cannot be scanned
    /// for its maximum LBA up front; [`Simulation::run_trace`] derives it
    /// from the trace when unset. Ignored for the NoLS baseline.
    pub frontier_hint: Option<u64>,
}

impl SimConfig {
    /// The NoLS baseline.
    pub fn no_ls() -> Self {
        SimConfig {
            layer: LayerChoice::NoLs,
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
        }
    }

    /// Plain log-structured translation.
    pub fn log_structured() -> Self {
        SimConfig {
            layer: LayerChoice::Ls {
                defrag: None,
                prefetch: None,
                cache: None,
            },
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
        }
    }

    /// Log-structured + opportunistic defragmentation (paper defaults).
    pub fn ls_defrag() -> Self {
        Self::ls_with(Some(DefragConfig::default()), None, None)
    }

    /// Log-structured + look-ahead-behind prefetching (paper defaults).
    pub fn ls_prefetch() -> Self {
        Self::ls_with(None, Some(PrefetchConfig::default()), None)
    }

    /// Log-structured + 64 MB selective caching (paper defaults).
    pub fn ls_cache() -> Self {
        Self::ls_with(None, None, Some(CacheConfig::default()))
    }

    /// Log-structured with an arbitrary mechanism combination.
    pub fn ls_with(
        defrag: Option<DefragConfig>,
        prefetch: Option<PrefetchConfig>,
        cache: Option<CacheConfig>,
    ) -> Self {
        SimConfig {
            layer: LayerChoice::Ls {
                defrag,
                prefetch,
                cache,
            },
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
        }
    }

    /// The adaptive configuration: all three mechanisms at paper defaults,
    /// gated per region by the policy engine, with a 256 MiB flash tier
    /// behind the 64 MB selective cache.
    pub fn ls_adaptive() -> Self {
        Self::ls_with(
            Some(DefragConfig::default()),
            Some(PrefetchConfig::default()),
            Some(CacheConfig::default()),
        )
        .with_policy(PolicyConfig::default())
        .with_flash_cache(256 * 1024 * 1024)
    }

    /// Drives the layer's mechanisms through the adaptive policy engine.
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Backs the selective cache with a flash tier of `bytes` bytes.
    pub fn with_flash_cache(mut self, bytes: u64) -> Self {
        self.flash_cache_bytes = Some(bytes);
        self
    }

    /// Enables seek-distance recording.
    pub fn with_distances(mut self) -> Self {
        self.record_distances = true;
        self
    }

    /// Enables the long-seek series with the given bucket width.
    pub fn with_longseek_series(mut self, bucket_ops: u64) -> Self {
        self.longseek_bucket_ops = bucket_ops;
        self
    }

    /// Enables fragment tracking.
    pub fn with_fragment_tracking(mut self) -> Self {
        self.track_fragments = true;
        self
    }

    /// Declares the logical-space bound (`top` = one past the highest
    /// sector the trace touches), letting [`Simulation::run`] place the
    /// write frontier without scanning the trace.
    pub fn with_frontier_hint(mut self, top: u64) -> Self {
        self.frontier_hint = Some(top);
        self
    }

    /// The standard five-layer sweep replayed by `smrseek simulate` and by
    /// daemon sweep jobs: the NoLS baseline first (so downstream SAF
    /// computation can divide by it), then plain LS and the three
    /// single-mechanism variants at paper defaults.
    pub fn standard_sweep() -> [SimConfig; 5] {
        [
            SimConfig::no_ls(),
            SimConfig::log_structured(),
            SimConfig::ls_defrag(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
        ]
    }

    /// Canonical form for result-cache keying: two configs that cannot
    /// produce different [`RunReport`]s on the same trace map to the same
    /// canonical value, and any canonical difference is observable in some
    /// report.
    ///
    /// * The NoLS baseline ignores every log-structured knob
    ///   (`frontier_hint`, `track_fragments`), so they are cleared.
    /// * For LS layers an unset frontier hint is resolved against `top`
    ///   (one past the trace's highest sector) when known: a run that
    ///   derives the hint from the trace equals one that passes the same
    ///   bound explicitly.
    /// * A defragmentation config the policy never lets fire is cleared
    ///   ([`effective_defrag`](Self::effective_defrag)).
    ///
    /// Knobs that change report *content* (`record_distances`,
    /// `longseek_bucket_ops`) are kept verbatim.
    pub fn canonical(mut self, top: Option<u64>) -> Self {
        let effective = self.effective_defrag();
        match &mut self.layer {
            LayerChoice::NoLs => {
                self.frontier_hint = None;
                self.track_fragments = false;
                self.policy = None;
                self.flash_cache_bytes = None;
            }
            LayerChoice::Ls { defrag, .. } => {
                *defrag = effective;
                if self.frontier_hint.is_none() {
                    self.frontier_hint = top;
                }
            }
        }
        self
    }

    /// The defragmentation that can actually rewrite data in a run of
    /// `self`: the configured one, except under a policy with a selective
    /// cache, which never opens the defrag gate (see
    /// [`PolicyEngine::set_cache_present`]). `None` for NoLS.
    pub fn effective_defrag(&self) -> Option<DefragConfig> {
        match self.layer {
            LayerChoice::NoLs => None,
            LayerChoice::Ls { cache: Some(_), .. } if self.policy.is_some() => None,
            LayerChoice::Ls { defrag, .. } => defrag,
        }
    }

    /// Whether `self` and `other` can replay as lanes of one translation
    /// ([`Simulation::run_group`]): both log-structured, equal in
    /// everything the extent map and fragment tracking depend on —
    /// [effective](Self::effective_defrag) defragmentation, frontier
    /// hint, `track_fragments` — and neither driven
    /// by a policy that could fire defragmentation (one without a
    /// selective cache, over a configured defrag): that policy's feedback
    /// would reach the translation through the defrag gate. Any other
    /// policy gates only its own lane's reads. They may differ in the
    /// read-side mechanisms (prefetch, selective cache, flash tier), in
    /// such a policy, and in seek recording (distances, long-seek series).
    pub fn shares_translation(&self, other: &SimConfig) -> bool {
        let policy_cannot_defrag =
            |c: &SimConfig| c.policy.is_none() || c.effective_defrag().is_none();
        match (self.layer, other.layer) {
            (LayerChoice::Ls { .. }, LayerChoice::Ls { .. }) => {
                self.effective_defrag() == other.effective_defrag()
                    && policy_cannot_defrag(self)
                    && policy_cannot_defrag(other)
                    && self.frontier_hint == other.frontier_hint
                    && self.track_fragments == other.track_fragments
            }
            _ => false,
        }
    }

    /// Whether `self` is log-structured with no read-side mechanism
    /// (prefetch or selective cache): its reads are then exactly each
    /// read's merged physical runs, which is what a split group
    /// ([`Simulation::run_group`]) forwards to its split lanes.
    pub fn is_plain_ls(&self) -> bool {
        matches!(
            self.layer,
            LayerChoice::Ls {
                prefetch: None,
                cache: None,
                ..
            }
        )
    }

    /// A stable cache-key fragment: the [`canonical`](Self::canonical)
    /// form serialized as compact JSON. Equal keys imply byte-identical
    /// reports on the same trace; differing keys imply an observable
    /// config difference.
    pub fn cache_key(&self, top: Option<u64>) -> String {
        serde_json::to_string(&self.canonical(top)).expect("SimConfig always serializes")
    }

    /// Checks the knobs a run would otherwise panic on or silently ignore:
    /// zero-byte caches, out-of-range policy knobs, a policy with nothing
    /// to gate, a flash tier without the cache it backs. A zero long-seek
    /// bucket width is valid: it means the series is off.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first degenerate knob found; see the
    /// variants for what each rejects.
    ///
    /// # Example
    ///
    /// ```
    /// use smrseek_sim::{ConfigError, SimConfig};
    ///
    /// assert_eq!(SimConfig::ls_adaptive().validate(), Ok(()));
    /// let err = SimConfig::ls_cache().with_flash_cache(0).validate().unwrap_err();
    /// assert_eq!(err, ConfigError::ZeroFlashCache);
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let LayerChoice::Ls { cache, .. } = self.layer {
            if cache.is_some_and(|cc| cc.capacity_bytes == 0) {
                return Err(ConfigError::ZeroSelectiveCache);
            }
        }
        if self.flash_cache_bytes == Some(0) {
            return Err(ConfigError::ZeroFlashCache);
        }
        if let Some(policy) = self.policy {
            policy.validate().map_err(ConfigError::Policy)?;
        }
        match self.layer {
            LayerChoice::NoLs => {
                if self.policy.is_some() {
                    return Err(ConfigError::PolicyWithoutLs);
                }
                if self.flash_cache_bytes.is_some() {
                    return Err(ConfigError::FlashCacheWithoutSelectiveCache);
                }
            }
            LayerChoice::Ls {
                defrag,
                prefetch,
                cache,
            } => {
                // Without a mechanism every gate decision is a no-op:
                // rejected rather than silently inert.
                if self.policy.is_some()
                    && defrag.is_none()
                    && prefetch.is_none()
                    && cache.is_none()
                {
                    return Err(ConfigError::PolicyWithoutMechanisms);
                }
                if self.flash_cache_bytes.is_some() && cache.is_none() {
                    return Err(ConfigError::FlashCacheWithoutSelectiveCache);
                }
            }
        }
        Ok(())
    }
}

/// Why [`SimConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The selective cache ([`CacheConfig`]) was given zero capacity.
    ZeroSelectiveCache,
    /// The policy configuration is out of range (zero-sector regions, an
    /// over-wide EWMA shift, a negative score clamp, or weights whose score
    /// arithmetic could overflow). Carries [`PolicyConfig::validate`]'s
    /// message, which names the field.
    Policy(&'static str),
    /// An adaptive policy was requested for the NoLS baseline, which has
    /// no mechanisms to gate.
    PolicyWithoutLs,
    /// An adaptive policy was requested for a log-structured layer with no
    /// mechanisms enabled: every gate decision would be a no-op, silently.
    PolicyWithoutMechanisms,
    /// The flash tier was given zero capacity.
    ZeroFlashCache,
    /// A flash tier was requested without the selective cache it backs.
    FlashCacheWithoutSelectiveCache,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::Policy(e) => return write!(f, "invalid policy: {e}"),
            ConfigError::ZeroSelectiveCache => "selective cache capacity must be at least one byte",
            ConfigError::PolicyWithoutLs => "the NoLS baseline has no mechanisms for a policy to gate",
            ConfigError::PolicyWithoutMechanisms => {
                "an adaptive policy needs at least one mechanism (defrag, prefetch, or cache) to gate"
            }
            ConfigError::ZeroFlashCache => "flash tier capacity must be at least one byte",
            ConfigError::FlashCacheWithoutSelectiveCache => {
                "a flash tier backs the selective cache; enable the cache too"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Layer name ("NoLS", "LS", "LS+cache", ...).
    pub layer_name: String,
    /// Logical operations replayed.
    pub logical_ops: u64,
    /// Seek statistics at the medium.
    pub seeks: SeekStats,
    /// Signed seek distances (when enabled).
    pub distances: Option<Vec<i64>>,
    /// Long-seek series (when enabled).
    pub longseek_series: Option<LongSeekSeries>,
    /// Total sectors moved by physical operations (for time weighting).
    pub phys_sectors: u64,
    /// Layer-internal counters (log-structured layers only).
    pub ls_stats: Option<LsStats>,
    /// Fragment statistics (when tracked; log-structured layers only).
    pub fragments: Option<FragmentAccessTracker>,
    /// Largest extent-map segment count observed during the run (0 for
    /// NoLS, which keeps no map) — the run's dominant memory term.
    pub peak_extent_segments: u64,
    /// Adaptive-policy decision and flip counters, when the run was driven
    /// by a [`SimConfig::with_policy`] engine.
    pub policy: Option<PolicyStats>,
    /// Per-tier cache hit/promotion/demotion counters, when the selective
    /// cache had a flash tier ([`SimConfig::with_flash_cache`]).
    pub cache_tiers: Option<TierStats>,
}

/// Hand-written: reproduces exactly what the derive emitted for every
/// field, except that the adaptive fields (`policy`, `cache_tiers`) are
/// appended only when present, so reports from policy-free runs stay
/// byte-identical to those from before the fields existed.
impl Serialize for RunReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (String::from("layer_name"), self.layer_name.to_value()),
            (String::from("logical_ops"), self.logical_ops.to_value()),
            (String::from("seeks"), self.seeks.to_value()),
            (String::from("distances"), self.distances.to_value()),
            (
                String::from("longseek_series"),
                self.longseek_series.to_value(),
            ),
            (String::from("phys_sectors"), self.phys_sectors.to_value()),
            (String::from("ls_stats"), self.ls_stats.to_value()),
            (String::from("fragments"), self.fragments.to_value()),
            (
                String::from("peak_extent_segments"),
                self.peak_extent_segments.to_value(),
            ),
        ];
        if self.policy.is_some() {
            fields.push((String::from("policy"), self.policy.to_value()));
        }
        if self.cache_tiers.is_some() {
            fields.push((String::from("cache_tiers"), self.cache_tiers.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl RunReport {
    /// Builds a distance CDF from the recorded distances, or `None` when
    /// the run was not configured with
    /// [`SimConfig::with_distances`](SimConfig::with_distances).
    pub fn distance_cdf(&self) -> Option<Cdf> {
        self.distances.as_deref().map(Cdf::from_slice)
    }
}

/// The seek model of one configuration in a replay: the physical
/// operations of its read lane go here and nowhere else.
pub(crate) struct SeekLane {
    record_distances: bool,
    counter: SeekCounter,
    series: Option<LongSeekSeries>,
    phys_sectors: u64,
    /// The current record's physical operations in this lane, cleared and
    /// refilled by every `step` so the replay loop allocates nothing per
    /// record.
    pub(crate) ios: Vec<PhysIo>,
}

impl SeekLane {
    pub(crate) fn new(config: &SimConfig) -> Self {
        SeekLane {
            record_distances: config.record_distances,
            counter: if config.record_distances {
                SeekCounter::with_distances()
            } else {
                SeekCounter::new()
            },
            series: (config.longseek_bucket_ops > 0)
                .then(|| LongSeekSeries::new(config.longseek_bucket_ops)),
            phys_sectors: 0,
            ios: Vec::new(),
        }
    }

    /// The long-seek series' bucket width, if the lane records one.
    #[cfg(test)]
    pub(crate) fn bucket_ops(&self) -> Option<u64> {
        self.series.as_ref().map(LongSeekSeries::ops_per_bucket)
    }

    /// Feeds the operations in `ios` of logical record `i` to the seek
    /// model.
    #[inline]
    pub(crate) fn observe_ios(&mut self, i: u64) {
        for io in &self.ios {
            self.phys_sectors += io.sectors;
            if let Some(seek) = self.counter.observe(io) {
                if let Some(series) = &mut self.series {
                    series.record(i, &seek);
                }
            }
        }
    }
}

/// Live engine state: started fresh, stepped once per record, and
/// finished into one [`RunReport`] per configuration. Everything but the
/// seek lanes and policy engines is shared, which is exact only for
/// configurations that [share their
/// translation](SimConfig::shares_translation).
struct EngineState {
    /// The log-structured translation; `None` is the NoLS baseline, whose
    /// one lane [`step`](Self::step) gives each record's identity
    /// operation (PBA = LBA) itself.
    layer: Option<Box<LogStructured>>,
    lanes: Vec<SeekLane>,
    logical_ops: u64,
    peak_extent_segments: u64,
    /// One adaptive policy engine per lane whose configuration has one,
    /// with the lane's position: consulted before every record for that
    /// lane's gates, and fed that lane's own
    /// outcome after. Only lane 0's gates reach defragmentation, and a
    /// group's policies can never open that gate, so each lane replays
    /// exactly as it would alone. Empty lists take a replay loop with no
    /// policy step at all (see [`step`](Self::step)).
    policies: Vec<(usize, PolicyEngine)>,
    /// Per-record phase time of the [sampled](smrseek_obs::phase::sampled)
    /// records, unscaled.
    sampled: PhaseTotals,
}

/// The [`LsConfig`] a fresh run of `config` builds its layer from.
///
/// # Panics
///
/// Panics when `config` is log-structured without a frontier hint (see the
/// message; [`Simulation::run_trace`] derives the hint before calling).
fn ls_config_for(config: &SimConfig) -> Option<LsConfig> {
    match config.layer {
        LayerChoice::NoLs => None,
        LayerChoice::Ls {
            prefetch, cache, ..
        } => {
            let top = config.frontier_hint.expect(
                "Simulation::run needs SimConfig::with_frontier_hint for log-structured \
                 layers: a stream cannot be pre-scanned for its highest LBA (use \
                 Simulation::run_trace for random-access traces, or pass the bound from a \
                 header or a first pass)",
            );
            let mut ls_config = LsConfig::above_sector(top);
            ls_config.defrag = config.effective_defrag();
            ls_config.prefetch = prefetch;
            ls_config.cache = cache;
            ls_config.flash_cache_bytes = config.flash_cache_bytes;
            ls_config.track_fragments = config.track_fragments;
            Some(ls_config)
        }
    }
}

impl EngineState {
    /// State for `configs`, one seek lane each; the first decides the
    /// layer kind, and each its own lane's policy.
    fn new(configs: &[SimConfig]) -> Self {
        let ls_configs: Vec<LsConfig> = configs.iter().filter_map(ls_config_for).collect();
        let layer =
            (!ls_configs.is_empty()).then(|| Box::new(LogStructured::with_lanes(&ls_configs)));
        // Policy without LS is rejected by `validate`; tolerated here by
        // simply never constructing the engine.
        let policies = configs
            .iter()
            .enumerate()
            .filter_map(|(k, c)| match c.layer {
                LayerChoice::Ls { .. } => c.policy.map(|p| (k, fresh_policy(p, c))),
                LayerChoice::NoLs => None,
            })
            .collect();
        EngineState {
            layer,
            lanes: configs.iter().map(SeekLane::new).collect(),
            logical_ops: 0,
            peak_extent_segments: 0,
            policies,
            sampled: PhaseTotals::default(),
        }
    }

    /// Replays one record, leaving each lane's physical operations of it
    /// in the lane's `ios`. `POLICY` says whether
    /// [`policies`](Self::policies) is non-empty, and `TIMED` whether the
    /// record is in the phase sample: callers decide `POLICY` once per
    /// replay and `TIMED` per record, so the untimed step of a run without
    /// a policy compiles to neither policy nor timing code. Timing wraps
    /// the same statements, it never reorders them.
    #[inline]
    fn step<const POLICY: bool, const TIMED: bool>(&mut self, rec: &TraceRecord) {
        let i = self.logical_ops;
        self.logical_ops += 1;
        let mut mark = TIMED.then(Instant::now);
        if POLICY {
            if let Some(ls) = &mut self.layer {
                for (k, policy) in &mut self.policies {
                    ls.set_lane_gates(*k, policy.observe(rec.lba.sector(), rec.op.is_read()));
                }
            }
            self.sampled.lap(Phase::Classify, &mut mark);
        }
        for lane in &mut self.lanes {
            lane.ios.clear();
        }
        let lanes = &mut self.lanes;
        match &mut self.layer {
            Some(ls) => ls.apply_lanes_into(rec, &mut |k, io| lanes[k].ios.push(io)),
            None => lanes[0].ios.push(PhysIo::new(
                rec.op,
                Pba::new(rec.lba.sector()),
                u64::from(rec.sectors),
            )),
        }
        self.sampled.lap(Phase::Lookup, &mut mark);
        if POLICY {
            let fragmented = rec.op.is_read()
                && self
                    .layer
                    .as_ref()
                    .is_some_and(|ls| ls.last_read_fragmented());
            if fragmented {
                for (k, policy) in &mut self.policies {
                    // A fragmented read that paid disk I/O in this lane is
                    // hot evidence; one the lane's cache or prefetch buffer
                    // fully absorbed is evidence the cheaper mechanisms
                    // already cover this region, so defrag rewrites would
                    // be pure cost.
                    if self.lanes[*k].ios.iter().any(|io| io.op.is_read()) {
                        policy.record_fragmented(rec.lba.sector());
                    } else {
                        policy.record_cache_absorbed(rec.lba.sector());
                    }
                }
            }
            self.sampled.lap(Phase::Classify, &mut mark);
        }
        for lane in &mut self.lanes {
            lane.observe_ios(i);
        }
        if let Some(ls) = &self.layer {
            self.peak_extent_segments = self.peak_extent_segments.max(ls.map().len() as u64);
        }
        self.sampled.lap(Phase::Seek, &mut mark);
    }

    /// [`step`](Self::step) of a record of an `n`-record run, timed when
    /// the record is in the phase sample. The record before a sampled one
    /// runs the timed step with its times dropped, so the sampled record
    /// finds that code warm.
    #[inline]
    fn step_sampled<const POLICY: bool>(&mut self, rec: &TraceRecord, n: u64) {
        let i = self.logical_ops;
        if phase::sampled(i, n) {
            self.step::<POLICY, true>(rec);
        } else if phase::warms_up(i, n) {
            let kept = self.sampled;
            self.step::<POLICY, true>(rec);
            self.sampled = kept;
        } else {
            self.step::<POLICY, false>(rec);
        }
    }

    /// Replays `trace` in blocks of [`DEFAULT_BLOCK_RECORDS`], timing the
    /// phases of the sampled records. With `forward`, a split group's
    /// plain lane and its queue on `board`, every block also takes an
    /// empty [`ForwardBlock`](crate::split::ForwardBlock), fills it with
    /// the plain lane's I/O of each of its records, and queues it. After
    /// every block this thread serves the other groups' queued blocks;
    /// returns the time that took, which no phase of this replay counts.
    fn replay_blocks(
        &mut self,
        trace: &[TraceRecord],
        forward: Option<Forward>,
        board: &LaneBoard,
    ) -> Duration {
        if self.policies.is_empty() {
            self.replay_blocks_with::<false>(trace, forward, board)
        } else {
            self.replay_blocks_with::<true>(trace, forward, board)
        }
    }

    /// [`replay_blocks`](Self::replay_blocks) with the policy step decided.
    fn replay_blocks_with<const POLICY: bool>(
        &mut self,
        trace: &[TraceRecord],
        forward: Option<Forward>,
        board: &LaneBoard,
    ) -> Duration {
        let mut served = Duration::ZERO;
        let n = trace.len() as u64;
        for block in trace.chunks(DEFAULT_BLOCK_RECORDS) {
            match forward {
                None => {
                    for rec in block {
                        self.step_sampled::<POLICY>(rec, n);
                    }
                }
                Some(Forward { plain, slot }) => {
                    let mut out = board.take_free(slot);
                    out.start(self.logical_ops);
                    for rec in block {
                        self.step_sampled::<POLICY>(rec, n);
                        out.push(&self.lanes[plain].ios);
                    }
                    board.push(slot, out);
                }
            }
            served += board.serve_others(forward.map(|f| f.slot));
        }
        served
    }

    /// Replays a record stream. Nothing reads a stream run's phases, so
    /// none are timed.
    fn replay_stream<const POLICY: bool>(&mut self, records: impl Iterator<Item = TraceRecord>) {
        for rec in records {
            self.step::<POLICY, false>(&rec);
        }
    }

    /// One report per configuration of the group, and the group's phase
    /// totals, beside the `served` time of its replay: this state's lanes
    /// fill the positions the `split` lanes leave free, in order, and each
    /// split lane its own. The split lanes' sampled phases merge into this
    /// state's before the sample is scaled to the whole run. A tracked
    /// translation's fragment tracker moves into the last report, and every
    /// other report gets a clone.
    fn finish(mut self, split: Option<SplitLanes>, served: Duration) -> GroupReplay {
        let policy = |k: usize| {
            self.policies
                .iter()
                .find(|(j, _)| *j == k)
                .map(|(_, p)| p.stats())
        };
        let tracker = self
            .layer
            .as_mut()
            .and_then(|ls| ls.take_fragment_tracker());
        let ls = self.layer.as_deref();
        let report = |layer_name: &str,
                      ls_stats: Option<LsStats>,
                      cache_tiers: Option<TierStats>,
                      policy: Option<PolicyStats>,
                      lane: SeekLane| RunReport {
            layer_name: layer_name.to_owned(),
            logical_ops: self.logical_ops,
            phys_sectors: lane.phys_sectors,
            seeks: lane.counter.stats(),
            distances: lane.record_distances.then(|| lane.counter.into_distances()),
            longseek_series: lane.series,
            ls_stats,
            fragments: None,
            peak_extent_segments: self.peak_extent_segments,
            policy,
            cache_tiers,
        };
        let mut reports: Vec<RunReport> = self
            .lanes
            .into_iter()
            .enumerate()
            .map(|(k, lane)| match ls {
                None => report("NoLS", None, None, None, lane),
                // The mechanism mix is config-visible; what defines a
                // policy run is that the policy engine drove it.
                Some(ls) => {
                    let policy = policy(k);
                    report(
                        if policy.is_some() {
                            "LS+adaptive"
                        } else {
                            ls.lane_name(k)
                        },
                        Some(ls.lane_stats(k)),
                        ls.lane_tier_stats(k),
                        policy,
                        lane,
                    )
                }
            })
            .collect();
        let mut sampled = self.sampled;
        if let Some(split) = split {
            // Positions increase, so every earlier one is filled at each
            // insert.
            for (at, read, lane) in split.lanes {
                let mut stats = ls.map(|ls| ls.shared_stats()).unwrap_or_default();
                stats.merge(&read.stats());
                let lane = report(read.name(), Some(stats), read.tier_stats(), None, lane);
                reports.insert(at, lane);
            }
            sampled.merge(&split.phases);
        }
        if let Some((last, others)) = reports.split_last_mut() {
            for report in others {
                report.fragments = tracker.clone();
            }
            last.fragments = tracker;
        }
        GroupReplay {
            reports,
            phases: sampled.scaled(phase::SAMPLE_INTERVAL),
            served,
        }
    }
}

/// A split group's plain lane, whose I/O is forwarded, and its queue on
/// the matrix's [`LaneBoard`].
#[derive(Clone, Copy)]
struct Forward {
    plain: usize,
    slot: usize,
}

/// Records [`Simulation::run_group`] replays between two visits to the
/// matrix's [`LaneBoard`]: 4096 records (96 KiB) amortize its lock while
/// a split group's forwarded block stays cache-resident.
const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// One configured simulation run: the single entry point of the engine.
///
/// Build one with [`Simulation::new`], then consume records with
/// [`run`](Self::run) (any iterator) or [`run_trace`](Self::run_trace)
/// (in-memory traces); [`run_group`](Self::run_group) replays several
/// configurations that share one translation in a single pass, and
/// `run_trace` is its one-configuration case. Translation is serial: each
/// read's translation depends on every earlier write, so parallelism lives
/// across runs (the groups of a [`RunMatrix`](crate::runner::RunMatrix)),
/// and inside a group only in split read lanes, which consume the
/// translation and never feed it. Every entry point produces
/// byte-identical serialized [`RunReport`]s over the same records.
///
/// # Example
///
/// ```
/// use smrseek_sim::{SimConfig, Simulation};
/// use smrseek_workloads::profiles;
///
/// let trace = profiles::by_name("mds_0").unwrap().generate_scaled(1, 4000);
/// let nols = Simulation::new(&SimConfig::no_ls()).run_trace(&trace);
/// let ls = Simulation::new(&SimConfig::log_structured()).run_trace(&trace);
/// // mds_0 is write-intensive: log-structuring removes most seeks.
/// assert!(ls.seeks.total() < nols.seeks.total());
/// ```
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// A simulation of `config` (copied).
    pub fn new(config: &SimConfig) -> Simulation {
        Simulation { config: *config }
    }

    /// Replays a stream of records through the configured layer, feeding
    /// every physical operation to the seek model. Consumes the records
    /// one at a time and never materializes the trace, so memory stays
    /// bounded by the layer's own state regardless of trace length.
    ///
    /// # Panics
    ///
    /// Log-structured layers place their write frontier just above the
    /// trace's highest LBA (§III), which a stream cannot reveal up front:
    /// running an LS layer requires [`SimConfig::with_frontier_hint`] and
    /// panics without it ([`run_trace`](Self::run_trace) derives it).
    pub fn run<I>(self, records: I) -> RunReport
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let mut state = EngineState::new(std::slice::from_ref(&self.config));
        let records = records.into_iter();
        if state.policies.is_empty() {
            state.replay_stream::<false>(records);
        } else {
            state.replay_stream::<true>(records);
        }
        state.finish(None, Duration::ZERO).reports.remove(0)
    }

    /// Replays an in-memory trace: the one-configuration case of
    /// [`run_group`](Self::run_group). Serialized reports are
    /// byte-identical to [`run`](Self::run) over the same records with the
    /// derived frontier hint.
    pub fn run_trace(self, trace: &[TraceRecord]) -> RunReport {
        Self::run_group(std::slice::from_ref(&self.config), &[], trace).remove(0)
    }

    /// Replays an in-memory trace once for every configuration in
    /// `configs`, returning their reports in order. The configurations
    /// keep one translation (extent map, frontier, defragmentation) and
    /// one read lane, seek model and, when configured, policy engine
    /// each, so the reports are byte-identical to one
    /// [`run_trace`](Self::run_trace) per configuration. Derives the LS
    /// frontier hint from the records, once, when the configs leave it
    /// unset (highest touched LBA plus one, via [`stream::max_lba`]), and
    /// replays in blocks of 4096 records.
    ///
    /// `split` lists, in increasing order, the positions of configs whose
    /// read lanes the group splits off; empty replays every lane in the
    /// translation's step. This thread keeps the translation and the
    /// other lanes, and after each block forwards the I/O of its first
    /// [plain-LS](SimConfig::is_plain_ls) lane, whose reads are each read's
    /// merged physical runs and whose writes are every lane's writes. The
    /// split lanes serve them through the same [`ReadLane::read_runs`] and
    /// seek model, so the reports are byte-identical either way. Called
    /// here, outside a matrix, this thread serves them too; in a
    /// [`RunMatrix`](crate::runner::RunMatrix) the other workers share
    /// that work (DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics unless `configs` is one configuration, or several that each
    /// [share the translation](SimConfig::shares_translation) of the
    /// first; and unless `split` is increasing, in range, names no config
    /// with a policy, and leaves a plain-LS config on this thread.
    pub fn run_group(
        configs: &[SimConfig],
        split: &[usize],
        trace: &[TraceRecord],
    ) -> Vec<RunReport> {
        let board = LaneBoard::new(usize::from(!split.is_empty()));
        Self::replay_group(configs, split, trace, &board, Some(0)).reports
    }

    /// [`run_group`](Self::run_group) as a cell of a matrix whose workers
    /// share `board`: a split group queues its split lanes' blocks there
    /// under `slot`, and between blocks this thread serves other groups'
    /// queued blocks.
    pub(crate) fn replay_group(
        configs: &[SimConfig],
        split: &[usize],
        trace: &[TraceRecord],
        board: &LaneBoard,
        slot: Option<usize>,
    ) -> GroupReplay {
        let Some(first) = configs.first() else {
            return GroupReplay::default();
        };
        assert!(
            configs.len() == 1 || configs.iter().all(|c| c.shares_translation(first)),
            "a replay group's configs must share one translation"
        );
        assert!(
            split.windows(2).all(|w| w[0] < w[1]) && split.iter().all(|&k| k < configs.len()),
            "split lanes must be increasing positions in the group"
        );
        assert!(
            split.iter().all(|&k| configs[k].policy.is_none()),
            "a policy lane must replay on the group's own thread: its policy observes the \
             records, and a split lane sees only their translated I/O"
        );
        let mut configs = configs.to_vec();
        if matches!(first.layer, LayerChoice::Ls { .. }) && first.frontier_hint.is_none() {
            let top = stream::max_lba(trace).map_or(0, |l| l.sector() + 1);
            for config in &mut configs {
                config.frontier_hint = Some(top);
            }
        }
        if split.is_empty() {
            let mut state = EngineState::new(&configs);
            let served = state.replay_blocks(trace, None, board);
            return state.finish(None, served);
        }
        let own: Vec<SimConfig> = (0..configs.len())
            .filter(|k| !split.contains(k))
            .map(|k| configs[k])
            .collect();
        let plain = own
            .iter()
            .position(SimConfig::is_plain_ls)
            .expect("a split group keeps a plain-LS lane on its own thread");
        let slot = slot.expect("a split group has a queue on the board");
        let mut state = EngineState::new(&own);
        let lanes = split
            .iter()
            .map(|&k| {
                let ls = ls_config_for(&configs[k]).expect("a split group is log-structured");
                (k, ReadLane::new(&ls), SeekLane::new(&configs[k]))
            })
            .collect();
        board.open(slot, SplitLanes::new(lanes, trace.len() as u64));
        let served = state.replay_blocks(trace, Some(Forward { plain, slot }), board);
        state.finish(Some(board.close(slot)), served)
    }
}

/// What [`Simulation::replay_group`] returns.
#[derive(Debug, Default)]
pub(crate) struct GroupReplay {
    /// One report per configuration, in the group's order.
    pub(crate) reports: Vec<RunReport>,
    /// The group's phase totals, its split lanes' included, whichever
    /// worker served them.
    pub(crate) phases: PhaseTotals,
    /// Time this thread spent serving other groups' blocks, which no
    /// phase of the group counts.
    pub(crate) served: Duration,
}

/// Constructs a policy engine for a run, informing it
/// whether the layer carries a selective cache — with one downstream, the
/// policy reserves defrag rewrites entirely (cache fills mitigate the same
/// fragmented reads at zero media cost; see
/// [`PolicyEngine::set_cache_present`]).
fn fresh_policy(config: PolicyConfig, sim: &SimConfig) -> PolicyEngine {
    let mut engine = PolicyEngine::new(config);
    engine.set_cache_present(matches!(sim.layer, LayerChoice::Ls { cache: Some(_), .. }));
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::{Lba, OpKind};

    fn toy_trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::write(0, Lba::new(0), 8),
            TraceRecord::write(1, Lba::new(1000), 8),
            TraceRecord::read(2, Lba::new(0), 8),
        ]
    }

    #[test]
    fn nols_counts_trace_seeks() {
        let report = Simulation::new(&SimConfig::no_ls()).run_trace(&toy_trace());
        assert_eq!(report.layer_name, "NoLS");
        assert_eq!(report.logical_ops, 3);
        // write@0 (no seek from rest at 0), write@1000 (seek), read@0 (seek)
        assert_eq!(report.seeks.write_seeks, 1);
        assert_eq!(report.seeks.read_seeks, 1);
    }

    #[test]
    fn nols_lane_emits_identity_io() {
        // NoLS has no layer: each record is one operation of its own
        // kind at PBA = LBA.
        let mut state = EngineState::new(&[SimConfig::no_ls()]);
        for rec in toy_trace() {
            state.step::<false, false>(&rec);
            let io = PhysIo::new(rec.op, Pba::new(rec.lba.sector()), u64::from(rec.sectors));
            assert_eq!(state.lanes[0].ios, [io]);
        }
    }

    #[test]
    fn nols_lane_preserves_op_kind() {
        let mut state = EngineState::new(&[SimConfig::no_ls()]);
        for op in [OpKind::Read, OpKind::Write] {
            state.step::<false, false>(&TraceRecord::new(0, op, Lba::new(5), 1));
            assert_eq!(state.lanes[0].ios.len(), 1);
            assert_eq!(state.lanes[0].ios[0].op, op);
        }
    }

    #[test]
    fn ls_removes_write_seeks() {
        let report = Simulation::new(&SimConfig::log_structured()).run_trace(&toy_trace());
        // Both writes land contiguously at the frontier: one frontier seek.
        assert_eq!(report.seeks.write_seeks, 1);
    }

    #[test]
    fn distances_recorded_when_enabled() {
        let report = Simulation::new(&SimConfig::no_ls().with_distances()).run_trace(&toy_trace());
        let cdf = report.distance_cdf().expect("distances were recorded");
        assert_eq!(cdf.len() as u64, report.seeks.total());
        assert!(
            report.distances.is_some(),
            "building the CDF must not consume the recorded samples"
        );
        let report = Simulation::new(&SimConfig::no_ls()).run_trace(&toy_trace());
        assert!(report.distances.is_none());
    }

    #[test]
    fn distance_cdf_is_none_without_recording() {
        assert!(Simulation::new(&SimConfig::no_ls())
            .run_trace(&toy_trace())
            .distance_cdf()
            .is_none());
    }

    #[test]
    fn stream_matches_slice_for_every_layer() {
        let trace = toy_trace();
        let top = smrseek_trace::stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        for config in [
            SimConfig::no_ls(),
            SimConfig::log_structured(),
            SimConfig::ls_defrag(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
        ] {
            let slice = Simulation::new(&config.with_distances()).run_trace(&trace);
            let stream = Simulation::new(&config.with_distances().with_frontier_hint(top))
                .run(trace.iter().copied());
            assert_eq!(slice.layer_name, stream.layer_name);
            assert_eq!(slice.seeks, stream.seeks);
            assert_eq!(slice.distances, stream.distances);
            assert_eq!(slice.phys_sectors, stream.phys_sectors);
            assert_eq!(slice.logical_ops, stream.logical_ops);
            assert_eq!(slice.peak_extent_segments, stream.peak_extent_segments);
        }
    }

    #[test]
    fn stream_replays_generated_records_without_materializing() {
        // A generator-backed iterator: no Vec of records ever exists.
        let n: u64 = if cfg!(debug_assertions) {
            200_000
        } else {
            10_000_000
        };
        let records = (0..n).map(|i| TraceRecord::write(i, Lba::new((i % 1024) * 8), 8));
        let report = Simulation::new(&SimConfig::no_ls()).run(records);
        assert_eq!(report.logical_ops, n);
        assert_eq!(report.peak_extent_segments, 0);
    }

    #[test]
    fn streaming_ls_tracks_peak_extent_size() {
        let report = Simulation::new(&SimConfig::log_structured()).run_trace(&toy_trace());
        assert!(report.peak_extent_segments > 0);
    }

    #[test]
    #[should_panic(expected = "frontier_hint")]
    fn streaming_ls_requires_frontier_hint() {
        Simulation::new(&SimConfig::log_structured()).run(toy_trace());
    }

    #[test]
    fn longseek_series_when_enabled() {
        let trace = vec![
            TraceRecord::write(0, Lba::new(0), 8),
            TraceRecord::read(1, Lba::new(10_000_000), 8),
        ];
        let report = Simulation::new(&SimConfig::no_ls().with_longseek_series(1)).run_trace(&trace);
        let series = report.longseek_series.unwrap();
        assert_eq!(series.total(), 1);
        assert_eq!(series.buckets(), &[0, 1]);
    }

    #[test]
    fn canonical_clears_unobservable_knobs() {
        // NoLS: every LS-only knob is cleared, whatever its value.
        let noisy = SimConfig {
            frontier_hint: Some(999),
            track_fragments: true,
            ..SimConfig::no_ls()
        };
        assert_eq!(noisy.canonical(Some(42)), SimConfig::no_ls());
        assert_eq!(
            noisy.cache_key(Some(42)),
            SimConfig::no_ls().cache_key(None),
            "derived-vs-explicit NoLS configs share a cache key"
        );

        // LS: an unset hint resolves to the trace bound, so deriving the
        // frontier equals passing it explicitly.
        // A policy with a selective cache never fires its defrag config.
        let adaptive = SimConfig::ls_adaptive();
        let LayerChoice::Ls {
            prefetch, cache, ..
        } = adaptive.layer
        else {
            unreachable!("the adaptive config is log-structured")
        };
        let inert = SimConfig {
            layer: LayerChoice::Ls {
                defrag: None,
                prefetch,
                cache,
            },
            ..adaptive
        };
        assert_eq!(adaptive.cache_key(Some(1008)), inert.cache_key(Some(1008)));
        let fixed = SimConfig::ls_defrag().with_policy(PolicyConfig::default());
        assert_ne!(
            fixed.cache_key(Some(1008)),
            SimConfig::log_structured()
                .with_policy(PolicyConfig::default())
                .cache_key(Some(1008)),
            "a cache-less policy's defrag can fire"
        );

        let derived = SimConfig::log_structured();
        let explicit = SimConfig::log_structured().with_frontier_hint(1008);
        assert_eq!(
            derived.canonical(Some(1008)),
            explicit.canonical(Some(1008))
        );
        assert_eq!(derived.cache_key(Some(1008)), explicit.cache_key(None));
        // ...but a *different* explicit hint stays a different key.
        let other = SimConfig::log_structured().with_frontier_hint(2048);
        assert_ne!(derived.cache_key(Some(1008)), other.cache_key(Some(1008)));
    }

    #[test]
    fn canonical_keeps_report_shaping_knobs() {
        let config = SimConfig::ls_cache()
            .with_distances()
            .with_longseek_series(64);
        let canon = config.canonical(Some(100));
        assert!(canon.record_distances);
        assert_eq!(canon.longseek_bucket_ops, 64);
        assert_ne!(
            config.cache_key(Some(100)),
            SimConfig::ls_cache().cache_key(Some(100))
        );
    }

    #[test]
    fn standard_sweep_leads_with_baseline() {
        let sweep = SimConfig::standard_sweep();
        assert_eq!(sweep.len(), 5);
        assert!(matches!(sweep[0].layer, LayerChoice::NoLs));
        for config in &sweep[1..] {
            assert!(matches!(config.layer, LayerChoice::Ls { .. }));
        }
    }

    #[test]
    fn shares_translation_across_read_side_and_recording_knobs() {
        let ls = SimConfig::log_structured();
        for other in [
            ls,
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
            SimConfig::ls_cache().with_flash_cache(1 << 20),
            SimConfig::ls_with(
                None,
                Some(PrefetchConfig::default()),
                Some(CacheConfig::default()),
            ),
            ls.with_distances(),
            ls.with_longseek_series(64),
        ] {
            assert!(ls.shares_translation(&other), "{other:?}");
            assert!(other.shares_translation(&ls), "{other:?}");
        }
        let defrag = SimConfig::ls_defrag();
        assert!(defrag.shares_translation(&SimConfig::ls_with(
            Some(DefragConfig::default()),
            None,
            Some(CacheConfig::default())
        )));
    }

    #[test]
    fn shares_translation_refuses_diverging_maps() {
        let ls = SimConfig::log_structured();
        let cases = [
            ("NoLS", SimConfig::no_ls(), SimConfig::no_ls()),
            ("NoLS vs LS", SimConfig::no_ls(), ls),
            (
                "cache-less policy over defrag",
                SimConfig::ls_with(
                    Some(DefragConfig::default()),
                    Some(PrefetchConfig::default()),
                    None,
                )
                .with_policy(PolicyConfig::default()),
                ls,
            ),
            (
                "cache-less policy vs its fixed defrag",
                SimConfig::ls_defrag().with_policy(PolicyConfig::default()),
                SimConfig::ls_defrag(),
            ),
            ("defrag", SimConfig::ls_defrag(), ls),
            (
                "defrag timing",
                SimConfig::ls_defrag(),
                SimConfig::ls_with(Some(DefragConfig::idle(1_000)), None, None),
            ),
            ("frontier hint", ls.with_frontier_hint(4096), ls),
            (
                "frontier hints",
                ls.with_frontier_hint(4096),
                ls.with_frontier_hint(8192),
            ),
            ("track_fragments", ls.with_fragment_tracking(), ls),
        ];
        for (what, a, b) in cases {
            assert!(!a.shares_translation(&b), "{what}: {a:?} / {b:?}");
            assert!(!b.shares_translation(&a), "{what}: {b:?} / {a:?}");
        }
    }

    #[test]
    fn shares_translation_admits_cache_backed_policies() {
        // A policy with a selective cache never opens the defrag gate, so
        // its map is plain LS's whatever defrag it configures; a policy
        // with no defrag has no gate to open.
        let ls = SimConfig::log_structured();
        let prefetch_policy = SimConfig::ls_prefetch().with_policy(PolicyConfig::default());
        let cases = [
            ("policy", adaptive_config(), adaptive_config()),
            (
                "policy vs fixed",
                SimConfig::ls_cache().with_policy(PolicyConfig::default()),
                SimConfig::ls_cache(),
            ),
            ("adaptive vs LS", SimConfig::ls_adaptive(), ls),
            (
                "adaptive vs prefetch",
                SimConfig::ls_adaptive(),
                SimConfig::ls_prefetch(),
            ),
            ("policy without defrag", prefetch_policy, ls),
        ];
        for (what, a, b) in cases {
            assert!(a.shares_translation(&b), "{what}: {a:?} / {b:?}");
            assert!(b.shares_translation(&a), "{what}: {b:?} / {a:?}");
        }
        assert_eq!(SimConfig::ls_adaptive().effective_defrag(), None);
        assert_eq!(
            SimConfig::ls_defrag()
                .with_policy(PolicyConfig::default())
                .effective_defrag(),
            Some(DefragConfig::default())
        );
        assert_eq!(
            SimConfig::ls_defrag().effective_defrag(),
            Some(DefragConfig::default())
        );
        // ...but not with a fixed defrag, whose rewrites do fire.
        assert!(!SimConfig::ls_adaptive().shares_translation(&SimConfig::ls_defrag()));
    }

    #[test]
    fn run_group_reports_match_single_runs() {
        let trace = busy_trace(300);
        let configs = [
            SimConfig::log_structured(),
            SimConfig::ls_prefetch().with_distances(),
            SimConfig::ls_cache(),
        ];
        let reports = Simulation::run_group(&configs, &[], &trace);
        for (config, report) in configs.iter().zip(&reports) {
            let alone = Simulation::new(config).run_trace(&trace);
            assert_eq!(
                serde_json::to_string(report).expect("serializes"),
                serde_json::to_string(&alone).expect("serializes")
            );
        }
        assert!(Simulation::run_group(&[], &[], &trace).is_empty());
    }

    #[test]
    fn split_group_reports_match_the_inline_group() {
        // 9,000 records: two full blocks and a partial one, with long-seek
        // buckets that straddle block boundaries.
        let trace = busy_trace(9_000);
        let configs = [
            SimConfig::ls_cache().with_longseek_series(1_000),
            SimConfig::log_structured().with_distances(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache().with_flash_cache(1 << 20),
        ];
        let json = |reports: Vec<RunReport>| -> Vec<String> {
            reports
                .iter()
                .map(|r| serde_json::to_string(r).expect("serializes"))
                .collect()
        };
        let inline = json(Simulation::run_group(&configs, &[], &trace));
        for helper in [&[0usize, 3][..], &[3], &[2, 3], &[0, 2, 3]] {
            let split = json(Simulation::run_group(&configs, helper, &trace));
            assert_eq!(split, inline, "helper lanes {helper:?}");
        }
    }

    #[test]
    #[should_panic(expected = "plain-LS lane")]
    fn split_group_needs_a_plain_lane_on_its_worker() {
        Simulation::run_group(
            &[SimConfig::log_structured(), SimConfig::ls_cache()],
            &[0],
            &toy_trace(),
        );
    }

    #[test]
    #[should_panic(expected = "plain-LS lane")]
    fn split_group_cannot_move_its_only_lane() {
        Simulation::run_group(&[SimConfig::ls_cache()], &[0], &toy_trace());
    }

    #[test]
    #[should_panic(expected = "increasing positions")]
    fn split_group_refuses_unordered_helper_lanes() {
        let configs = [
            SimConfig::log_structured(),
            SimConfig::ls_cache(),
            SimConfig::ls_prefetch(),
        ];
        Simulation::run_group(&configs, &[2, 1], &toy_trace());
    }

    #[test]
    fn helper_panic_resumes_on_the_worker() {
        // A split lane panics while another thread serves it: the group's
        // own worker must re-raise that panic rather than wait for the
        // block, and the serving thread must see the queue close.
        let trace = busy_trace(40_000);
        let configs = [
            SimConfig::log_structured(),
            SimConfig::ls_cache().with_longseek_series(crate::split::fault::FAULT_BUCKET_OPS),
        ];
        let board = LaneBoard::new(1);
        let payload = std::thread::scope(|scope| {
            let server = scope.spawn(|| board.serve_until_closed());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _queue = board.guard(0);
                Simulation::replay_group(&configs, &[1], &trace, &board, Some(0))
            }));
            server.join().expect("the serving thread outlives the lane");
            result.expect_err("the lane's panic reaches the group's worker")
        });
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected lane fault"));
    }

    #[test]
    #[should_panic(expected = "share one translation")]
    fn run_group_refuses_diverging_configs() {
        Simulation::run_group(
            &[SimConfig::log_structured(), SimConfig::ls_defrag()],
            &[],
            &toy_trace(),
        );
    }

    #[test]
    fn config_constructors() {
        assert!(matches!(SimConfig::no_ls().layer, LayerChoice::NoLs));
        for (config, has_defrag, has_prefetch, has_cache) in [
            (SimConfig::log_structured(), false, false, false),
            (SimConfig::ls_defrag(), true, false, false),
            (SimConfig::ls_prefetch(), false, true, false),
            (SimConfig::ls_cache(), false, false, true),
        ] {
            match config.layer {
                LayerChoice::Ls {
                    defrag,
                    prefetch,
                    cache,
                } => {
                    assert_eq!(defrag.is_some(), has_defrag);
                    assert_eq!(prefetch.is_some(), has_prefetch);
                    assert_eq!(cache.is_some(), has_cache);
                }
                LayerChoice::NoLs => panic!("expected LS"),
            }
        }
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        let nols = SimConfig::no_ls;
        let empty_cache = CacheConfig { capacity_bytes: 0 };
        assert_eq!(
            SimConfig::ls_with(None, None, Some(empty_cache)).validate(),
            Err(ConfigError::ZeroSelectiveCache)
        );
        assert_eq!(
            SimConfig::ls_cache().with_flash_cache(0).validate(),
            Err(ConfigError::ZeroFlashCache)
        );
        // Each out-of-range policy field: PolicyConfig::validate's message.
        for bad in [0, 1, 2, 3] {
            let mut policy = PolicyConfig::default();
            match bad {
                0 => policy.region_sectors = 0,
                1 => policy.ewma_shift = 32,
                2 => policy.score_clamp = -1,
                _ => policy.write_weight = i32::MIN,
            }
            let err = policy.validate().expect_err("out of range");
            assert_eq!(
                SimConfig::ls_cache().with_policy(policy).validate(),
                Err(ConfigError::Policy(err))
            );
        }
        assert_eq!(
            nols().with_policy(PolicyConfig::default()).validate(),
            Err(ConfigError::PolicyWithoutLs)
        );
        assert_eq!(
            nols().with_flash_cache(1 << 20).validate(),
            Err(ConfigError::FlashCacheWithoutSelectiveCache)
        );
        // A policy over a bare log has nothing to gate.
        assert_eq!(
            SimConfig::log_structured()
                .with_policy(PolicyConfig::default())
                .validate(),
            Err(ConfigError::PolicyWithoutMechanisms)
        );
        // A flash tier needs the selective cache in front of it.
        assert_eq!(
            SimConfig::ls_defrag().with_flash_cache(1 << 20).validate(),
            Err(ConfigError::FlashCacheWithoutSelectiveCache)
        );
        // Errors render as actionable prose.
        assert!(ConfigError::ZeroFlashCache
            .to_string()
            .contains("flash tier"));
        assert!(ConfigError::PolicyWithoutMechanisms
            .to_string()
            .contains("mechanism"));
    }

    #[test]
    fn policy_off_report_bytes_are_pinned() {
        // Reports without a policy must keep exactly the pre-policy key
        // set, in order — downstream caches key on these bytes.
        let trace = busy_trace(120);
        let report = Simulation::new(&SimConfig::ls_cache()).run_trace(&trace);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(!json.contains("\"policy\""));
        assert!(!json.contains("\"cache_tiers\""));
        let keys: Vec<&str> = json
            .match_indices('\"')
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
            .chunks(2)
            .filter_map(|c| json.get(c[0] + 1..c[1]))
            .collect();
        for key in [
            "layer_name",
            "logical_ops",
            "seeks",
            "distances",
            "longseek_series",
            "phys_sectors",
            "ls_stats",
            "fragments",
            "peak_extent_segments",
        ] {
            assert!(keys.contains(&key), "missing report key {key}");
        }
    }

    #[test]
    fn adaptive_report_carries_policy_and_tier_stats() {
        let trace = busy_trace(400);
        let report = Simulation::new(&adaptive_config()).run_trace(&trace);
        assert_eq!(report.layer_name, "LS+adaptive");
        let policy = report.policy.expect("adaptive run reports policy stats");
        assert_eq!(policy.records_observed, report.logical_ops);
        let tiers = report
            .cache_tiers
            .expect("flash-tier run reports tier stats");
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("\"policy\""));
        assert!(json.contains("\"cache_tiers\""));
        // Both tiers are accounted: every lookup lands in exactly one bin.
        let lookups = tiers.ram_hits + tiers.flash_hits + tiers.misses;
        assert!(lookups > 0, "cache saw no traffic");
    }

    /// A mixed read/write workload long enough to exercise defrag,
    /// prefetch, and caching.
    fn busy_trace(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let lba = Lba::new((i * 37) % 4096);
                if i % 3 == 0 {
                    TraceRecord::read(i, lba, 8)
                } else {
                    TraceRecord::write(i, lba, 16)
                }
            })
            .collect()
    }

    /// Adaptive config sized so `busy_trace` (LBAs 0..4096) spans several
    /// classifier regions and flips gates mid-run.
    fn adaptive_config() -> SimConfig {
        SimConfig::ls_adaptive().with_policy(PolicyConfig {
            region_sectors: 512,
            ..PolicyConfig::default()
        })
    }
}
