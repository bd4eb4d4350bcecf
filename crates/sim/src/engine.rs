//! The simulation engine: trace × translation layer → seek statistics.
//!
//! The single entry point is the [`Simulation`] builder: configure with a
//! [`SimConfig`] (validated construction via [`SimConfig::builder`]), then
//! [`run`](Simulation::run) a record stream or
//! [`run_trace`](Simulation::run_trace) a trace decoded in blocks. Both
//! replay serially through the same per-record step.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use smrseek_cache::{RangeCache, TierStats};
use smrseek_disk::{Cdf, LongSeekSeries, SeekCounter, SeekCounterState, SeekStats};
use smrseek_obs::{phase_accounting, Phase, PhaseTotals};
use smrseek_policy::{PolicyConfig, PolicyEngine, PolicyStats};
use smrseek_stl::{
    CacheConfig, DefragConfig, FragmentAccessTracker, LogStructured, LsConfig, LsSnapshot, LsStats,
    NoLs, PrefetchConfig, TranslationLayer,
};
use smrseek_trace::binary::{MmapTrace, DEFAULT_BLOCK_RECORDS};
use smrseek_trace::{stream, TraceRecord};

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
    /// Model a host buffer cache of this many bytes in front of the
    /// translation layer (extension; §IV-C's competition argument): reads
    /// fully covered by recently-touched LBA ranges never reach the
    /// device, writes are write-through and populate the cache.
    pub host_cache_bytes: Option<u64>,
    /// Back the log with ZBC-style zones of this many sectors (guard-band
    /// splits; extension) instead of the paper's continuous infinite
    /// frontier. Ignored for the NoLS baseline.
    pub zone_sectors: Option<u64>,
    /// Drive the layer's mechanisms through the adaptive policy engine
    /// (`smrseek-policy`): per-region online heat classification gates
    /// defrag rewrites, scales the prefetch window, and admits or denies
    /// cache fills, per record. Requires a log-structured layer with at
    /// least one mechanism to gate (validated by the builder).
    pub policy: Option<PolicyConfig>,
    /// Back the selective cache with a simulated flash tier of this many
    /// bytes (`smrseek_cache::TieredCache`): RAM evictions demote, flash
    /// hits promote. Requires the selective cache (validated by the
    /// builder); the per-tier counters surface as
    /// [`RunReport::cache_tiers`].
    pub flash_cache_bytes: Option<u64>,
    /// Logical-space bound for streaming runs: one past the highest sector
    /// the trace touches. Log-structured layers place their write frontier
    /// at the first 1 MiB boundary at or above this (§III). Required by
    /// [`Simulation::run`] for LS layers — an iterator cannot be scanned
    /// for its maximum LBA up front; [`Simulation::run_trace`] derives it
    /// from the trace when unset. Ignored for the NoLS baseline.
    pub frontier_hint: Option<u64>,
    /// Emit an engine checkpoint every this many records (fed to the
    /// sink set by [`Simulation::checkpoint_sink`]; `None` disables
    /// emission). Purely
    /// operational — it cannot change any report — so
    /// [`canonical`](Self::canonical) clears it and it never affects cache
    /// keys.
    pub checkpoint_every: Option<u64>,
}

impl SimConfig {
    /// The NoLS baseline.
    pub fn no_ls() -> Self {
        SimConfig {
            layer: LayerChoice::NoLs,
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            host_cache_bytes: None,
            zone_sectors: None,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
            checkpoint_every: None,
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
            host_cache_bytes: None,
            zone_sectors: None,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
            checkpoint_every: None,
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
            host_cache_bytes: None,
            zone_sectors: None,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
            checkpoint_every: None,
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

    /// Interposes a host buffer cache of `bytes` bytes.
    pub fn with_host_cache(mut self, bytes: u64) -> Self {
        self.host_cache_bytes = Some(bytes);
        self
    }

    /// Backs the log with zones of `sectors` sectors.
    pub fn with_zones(mut self, sectors: u64) -> Self {
        self.zone_sectors = Some(sectors);
        self
    }

    /// Declares the logical-space bound (`top` = one past the highest
    /// sector the trace touches), letting [`Simulation::run`] place the
    /// write frontier without scanning the trace.
    pub fn with_frontier_hint(mut self, top: u64) -> Self {
        self.frontier_hint = Some(top);
        self
    }

    /// Emits an engine checkpoint every `n_records` records when the run
    /// has a [`Simulation::checkpoint_sink`]. Operational only:
    /// the emitted snapshots change no report and no cache key.
    pub fn with_checkpoint_every(mut self, n_records: u64) -> Self {
        self.checkpoint_every = Some(n_records);
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
    ///   (`zone_sectors`, `frontier_hint`, `track_fragments`), so they are
    ///   cleared.
    /// * For LS layers an unset frontier hint is resolved against `top`
    ///   (one past the trace's highest sector) when known: a run that
    ///   derives the hint from the trace equals one that passes the same
    ///   bound explicitly.
    ///
    /// Knobs that change report *content* (`record_distances`,
    /// `longseek_bucket_ops`, `host_cache_bytes`) are kept verbatim.
    pub fn canonical(mut self, top: Option<u64>) -> Self {
        match self.layer {
            LayerChoice::NoLs => {
                self.zone_sectors = None;
                self.frontier_hint = None;
                self.track_fragments = false;
                self.policy = None;
                self.flash_cache_bytes = None;
            }
            LayerChoice::Ls { .. } => {
                if self.frontier_hint.is_none() {
                    self.frontier_hint = top;
                }
            }
        }
        // Checkpoint cadence never changes a report: two runs differing only
        // in `checkpoint_every` are interchangeable, so they share a key.
        self.checkpoint_every = None;
        self
    }

    /// A stable cache-key fragment: the [`canonical`](Self::canonical)
    /// form serialized as compact JSON. Equal keys imply byte-identical
    /// reports on the same trace; differing keys imply an observable
    /// config difference.
    pub fn cache_key(&self, top: Option<u64>) -> String {
        serde_json::to_string(&self.canonical(top)).expect("SimConfig always serializes")
    }

    /// A validating builder over `layer`: the same knobs as the `with_*`
    /// methods, but degenerate values (zero-byte caches, a zero checkpoint
    /// cadence, zero-sector zones) surface as a typed [`ConfigError`] at
    /// [`build`](SimConfigBuilder::build) time instead of panicking or
    /// being silently clamped mid-run.
    pub fn builder(layer: LayerChoice) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                layer,
                ..SimConfig::no_ls()
            },
            longseek_bucket_ops: None,
        }
    }
}

/// Why a [`SimConfigBuilder`] refused to produce a [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A host buffer cache of zero bytes can never hold a range: every
    /// lookup would miss, which is the same as no cache — almost certainly
    /// a unit mistake (bytes vs KiB/MiB) at the call site.
    ZeroHostCache,
    /// The selective cache ([`CacheConfig`]) was given zero capacity.
    ZeroSelectiveCache,
    /// Zones of zero sectors cannot hold any write.
    ZeroZoneSectors,
    /// A checkpoint cadence of zero records would either checkpoint after
    /// every record or never, depending on interpretation; the engine used
    /// to silently disable it — now it is rejected up front.
    ZeroCheckpointCadence,
    /// A long-seek series with zero operations per bucket has no time
    /// axis ([`LongSeekSeries::new`] panics on it mid-run otherwise).
    ZeroLongseekBucket,
    /// Zoned logging was requested for the NoLS baseline, which keeps no
    /// log — the knob would be silently ignored.
    ZonesWithoutLs,
    /// The policy classifier was given zero-sector regions: every sector
    /// would be its own region boundary division by zero.
    ZeroPolicyRegion,
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
            ConfigError::ZeroHostCache => "host cache capacity must be at least one byte",
            ConfigError::ZeroSelectiveCache => "selective cache capacity must be at least one byte",
            ConfigError::ZeroZoneSectors => "zones must span at least one sector",
            ConfigError::ZeroCheckpointCadence => "checkpoint cadence must be at least one record",
            ConfigError::ZeroLongseekBucket => {
                "long-seek series buckets must span at least one operation"
            }
            ConfigError::ZonesWithoutLs => "the NoLS baseline keeps no log to zone",
            ConfigError::ZeroPolicyRegion => "policy regions must span at least one sector",
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

/// Typed construction of a [`SimConfig`] that validates at build time.
///
/// # Example
///
/// ```
/// use smrseek_sim::{ConfigError, LayerChoice, SimConfig};
///
/// let config = SimConfig::builder(LayerChoice::NoLs)
///     .distances()
///     .longseek_series(1000)
///     .build()
///     .unwrap();
/// assert!(config.record_distances);
///
/// let err = SimConfig::builder(LayerChoice::NoLs)
///     .host_cache(0)
///     .build()
///     .unwrap_err();
/// assert_eq!(err, ConfigError::ZeroHostCache);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
    /// Kept apart from the config because `longseek_bucket_ops: 0` is the
    /// *disabled* default there: only an explicit zero is an error.
    longseek_bucket_ops: Option<u64>,
}

impl SimConfigBuilder {
    /// Enables seek-distance recording.
    pub fn distances(mut self) -> Self {
        self.config.record_distances = true;
        self
    }

    /// Enables the long-seek series with the given bucket width.
    pub fn longseek_series(mut self, bucket_ops: u64) -> Self {
        self.longseek_bucket_ops = Some(bucket_ops);
        self
    }

    /// Enables fragment tracking.
    pub fn fragment_tracking(mut self) -> Self {
        self.config.track_fragments = true;
        self
    }

    /// Interposes a host buffer cache of `bytes` bytes.
    pub fn host_cache(mut self, bytes: u64) -> Self {
        self.config.host_cache_bytes = Some(bytes);
        self
    }

    /// Backs the log with zones of `sectors` sectors.
    pub fn zones(mut self, sectors: u64) -> Self {
        self.config.zone_sectors = Some(sectors);
        self
    }

    /// Declares the logical-space bound (see
    /// [`SimConfig::with_frontier_hint`]).
    pub fn frontier_hint(mut self, top: u64) -> Self {
        self.config.frontier_hint = Some(top);
        self
    }

    /// Emits an engine checkpoint every `n_records` records.
    pub fn checkpoint_every(mut self, n_records: u64) -> Self {
        self.config.checkpoint_every = Some(n_records);
        self
    }

    /// Drives the layer's mechanisms through the adaptive policy engine.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.config.policy = Some(policy);
        self
    }

    /// Backs the selective cache with a flash tier of `bytes` bytes.
    pub fn flash_cache(mut self, bytes: u64) -> Self {
        self.config.flash_cache_bytes = Some(bytes);
        self
    }

    /// Validates the accumulated knobs and produces the config.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first degenerate knob found; see the
    /// variants for what each rejects.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let mut config = self.config;
        if config.host_cache_bytes == Some(0) {
            return Err(ConfigError::ZeroHostCache);
        }
        if config.zone_sectors == Some(0) {
            return Err(ConfigError::ZeroZoneSectors);
        }
        if config.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        if let Some(bucket_ops) = self.longseek_bucket_ops {
            if bucket_ops == 0 {
                return Err(ConfigError::ZeroLongseekBucket);
            }
            config.longseek_bucket_ops = bucket_ops;
        }
        if let LayerChoice::Ls { cache, .. } = config.layer {
            if cache.is_some_and(|cc| cc.capacity_bytes == 0) {
                return Err(ConfigError::ZeroSelectiveCache);
            }
        }
        if matches!(config.layer, LayerChoice::NoLs) && config.zone_sectors.is_some() {
            return Err(ConfigError::ZonesWithoutLs);
        }
        if config.flash_cache_bytes == Some(0) {
            return Err(ConfigError::ZeroFlashCache);
        }
        if let Some(policy) = config.policy {
            if policy.region_sectors == 0 {
                return Err(ConfigError::ZeroPolicyRegion);
            }
        }
        match config.layer {
            LayerChoice::NoLs => {
                if config.policy.is_some() {
                    return Err(ConfigError::PolicyWithoutLs);
                }
                if config.flash_cache_bytes.is_some() {
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
                if config.policy.is_some()
                    && defrag.is_none()
                    && prefetch.is_none()
                    && cache.is_none()
                {
                    return Err(ConfigError::PolicyWithoutMechanisms);
                }
                if config.flash_cache_bytes.is_some() && cache.is_none() {
                    return Err(ConfigError::FlashCacheWithoutSelectiveCache);
                }
            }
        }
        Ok(config)
    }
}

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
    /// Logical reads absorbed by the modeled host buffer cache.
    pub host_cache_hits: u64,
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
    /// Engine phase accounting (where simulation wall time went). All
    /// zeros unless [`smrseek_obs::set_phase_accounting`] was on when the
    /// run started. A timing side channel like `RunMetrics`: deliberately
    /// excluded from the hand-written [`Serialize`] impl below, because
    /// serialized reports must stay byte-deterministic across machines,
    /// thread counts, and resume points.
    pub phases: PhaseTotals,
}

/// Hand-written (the vendored `serde_derive` has no `#[serde(skip)]`):
/// reproduces exactly what the derive emitted for every field except
/// `phases`, which is wall-clock noise and must not reach serialized
/// reports. The adaptive fields (`policy`, `cache_tiers`)
/// are appended only when present, so reports from policy-free runs stay
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
            (
                String::from("host_cache_hits"),
                self.host_cache_hits.to_value(),
            ),
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

/// The concrete layers the engine can drive (static dispatch keeps the hot
/// loop monomorphic and lets the engine extract layer-specific results
/// after the run).
enum LayerImpl {
    NoLs(NoLs),
    Ls(Box<LogStructured>),
}

impl LayerImpl {
    fn apply(&mut self, rec: &TraceRecord) -> Vec<smrseek_disk::PhysIo> {
        match self {
            LayerImpl::NoLs(l) => l.apply(rec),
            LayerImpl::Ls(l) => l.apply(rec),
        }
    }

    fn name(&self) -> &str {
        match self {
            LayerImpl::NoLs(l) => l.name(),
            LayerImpl::Ls(l) => l.name(),
        }
    }
}

/// Serializable state of the translation layer inside an
/// [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSnapshot {
    /// The NoLS baseline carries no state.
    NoLs,
    /// Full log-structured layer state (boxed: it dwarfs the other
    /// variant).
    Ls(Box<LsSnapshot>),
}

/// Complete engine state after consuming some prefix of a trace: restoring
/// it and replaying the remaining records yields a [`RunReport`] identical
/// to the uninterrupted run. Produced by a [`Simulation::checkpoint_sink`],
/// consumed by [`Simulation::resume_from`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Translation-layer state (extent map, frontier, caches, counters).
    pub layer: LayerSnapshot,
    /// Seek-model state (head position, statistics, recorded distances).
    pub counter: SeekCounterState,
    /// Long-seek series accumulated so far (when enabled).
    pub longseek_series: Option<LongSeekSeries>,
    /// Host buffer-cache contents (when modeled).
    pub host_cache: Option<RangeCache>,
    /// Logical reads absorbed by the host cache so far.
    pub host_cache_hits: u64,
    /// Physical sectors moved so far.
    pub phys_sectors: u64,
    /// Records consumed so far — the resume index: replay continues with
    /// record `logical_ops` of the original trace.
    pub logical_ops: u64,
    /// Largest extent-map segment count observed so far.
    pub peak_extent_segments: u64,
    /// Adaptive policy engine state (region classifier + counters), when
    /// the run is policy-driven.
    pub policy: Option<PolicyEngine>,
}

/// Live engine state: the deconstructed body of the historical
/// `simulate_stream` loop, split so a run can be started fresh, started
/// from a snapshot, stepped, checkpointed mid-flight, and finished into a
/// [`RunReport`] — all through the same code path, which is what makes
/// resumed runs byte-identical to uninterrupted ones.
struct EngineState {
    config: SimConfig,
    layer: LayerImpl,
    counter: SeekCounter,
    series: Option<LongSeekSeries>,
    host_cache: Option<RangeCache>,
    host_cache_hits: u64,
    phys_sectors: u64,
    logical_ops: u64,
    peak_extent_segments: u64,
    /// The adaptive policy engine, when configured: consulted before every
    /// record that reaches the layer, fed fragmented-read evidence after.
    policy: Option<PolicyEngine>,
    /// Sampled from [`phase_accounting`] once at construction so a run's
    /// behavior cannot change mid-flight; when false, `step` pays a single
    /// branch and no clock reads.
    timing: bool,
    phases: PhaseTotals,
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
            defrag,
            prefetch,
            cache,
        } => {
            let top = config.frontier_hint.expect(
                "Simulation::run needs SimConfig::with_frontier_hint for log-structured \
                 layers: a stream cannot be pre-scanned for its highest LBA (use \
                 Simulation::run_trace for random-access traces, or pass the bound from a \
                 header or a first pass)",
            );
            let mut ls_config = LsConfig::above_sector(top);
            ls_config.defrag = defrag;
            ls_config.prefetch = prefetch;
            ls_config.cache = cache;
            ls_config.flash_cache_bytes = config.flash_cache_bytes;
            ls_config.track_fragments = config.track_fragments;
            ls_config.zone_sectors = config.zone_sectors;
            Some(ls_config)
        }
    }
}

impl EngineState {
    fn new(config: &SimConfig) -> Self {
        let layer = match ls_config_for(config) {
            None => LayerImpl::NoLs(NoLs::new()),
            Some(ls_config) => LayerImpl::Ls(Box::new(LogStructured::new(ls_config))),
        };
        let counter = if config.record_distances {
            SeekCounter::with_distances()
        } else {
            SeekCounter::new()
        };
        let series = (config.longseek_bucket_ops > 0)
            .then(|| LongSeekSeries::new(config.longseek_bucket_ops));
        // The host cache is indexed by *logical* sector; `RangeCache` is
        // address-space agnostic, so LBA sectors are passed as its keys.
        let host_cache = config
            .host_cache_bytes
            .map(smrseek_cache::RangeCache::with_capacity_bytes);
        // Policy without LS is rejected by the builder; tolerated here by
        // simply never constructing the engine.
        let policy = match config.layer {
            LayerChoice::Ls { .. } => config.policy.map(|p| fresh_policy(p, config)),
            LayerChoice::NoLs => None,
        };
        EngineState {
            config: *config,
            layer,
            counter,
            series,
            host_cache,
            host_cache_hits: 0,
            phys_sectors: 0,
            logical_ops: 0,
            peak_extent_segments: 0,
            policy,
            timing: phase_accounting(),
            phases: PhaseTotals::default(),
        }
    }

    fn resume(config: &SimConfig, snap: &EngineSnapshot) -> Self {
        let layer = match (&snap.layer, config.layer) {
            (LayerSnapshot::NoLs, LayerChoice::NoLs) => LayerImpl::NoLs(NoLs::new()),
            (LayerSnapshot::Ls(ls), LayerChoice::Ls { .. }) => {
                LayerImpl::Ls(Box::new(LogStructured::from_snapshot((**ls).clone())))
            }
            _ => panic!(
                "snapshot layer does not match the config's layer — validate the snapshot's \
                 config key against SimConfig::cache_key before resuming"
            ),
        };
        EngineState {
            config: *config,
            layer,
            counter: SeekCounter::from_state(snap.counter.clone()),
            series: snap.longseek_series.clone(),
            host_cache: snap.host_cache.clone(),
            host_cache_hits: snap.host_cache_hits,
            phys_sectors: snap.phys_sectors,
            logical_ops: snap.logical_ops,
            peak_extent_segments: snap.peak_extent_segments,
            policy: snap.policy.clone(),
            timing: phase_accounting(),
            // Snapshots carry no timing (it is wall-clock noise, not
            // simulation state): a resumed run accounts only for the
            // records it replays itself.
            phases: PhaseTotals::default(),
        }
    }

    /// Replays one record. Behaviorally identical with phase accounting on
    /// or off: timing wraps the same statements, it never reorders them.
    fn step(&mut self, rec: &TraceRecord) {
        #[cfg(feature = "fine-spans")]
        let _span = smrseek_obs::span("engine:step");
        let i = self.logical_ops;
        self.logical_ops += 1;
        let mut mark = self.timing.then(Instant::now);
        if let Some(cache) = &mut self.host_cache {
            let key = smrseek_trace::Pba::new(rec.lba.sector());
            let hit = rec.op.is_read() && cache.covers(key, u64::from(rec.sectors));
            if !hit {
                cache.insert(key, u64::from(rec.sectors));
            }
            if let Some(t) = &mut mark {
                self.phases.record(Phase::HostCache, t.elapsed());
                *t = Instant::now();
            }
            if hit {
                self.host_cache_hits += 1;
                return; // served from host RAM: nothing reaches the device
            }
        }
        let frag_before = match (&self.policy, &self.layer) {
            (Some(_), LayerImpl::Ls(ls)) => {
                let s = ls.stats();
                Some((s.fragmented_reads, s.phys_reads))
            }
            _ => None,
        };
        if let (Some(policy), LayerImpl::Ls(ls)) = (&mut self.policy, &mut self.layer) {
            let gates = policy.observe(rec.lba.sector(), rec.op.is_read());
            ls.set_gates(gates);
            if let Some(t) = &mut mark {
                self.phases.record(Phase::Classify, t.elapsed());
                *t = Instant::now();
            }
        }
        let ios = self.layer.apply(rec);
        if let Some(t) = &mut mark {
            self.phases.record(Phase::Lookup, t.elapsed());
            *t = Instant::now();
        }
        if let Some((frag, phys)) = frag_before {
            if let (Some(policy), LayerImpl::Ls(ls)) = (&mut self.policy, &self.layer) {
                let s = ls.stats();
                if s.fragmented_reads > frag {
                    // A fragmented read that paid disk I/O is hot evidence;
                    // one fully absorbed by the cache or prefetch buffer is
                    // evidence the cheaper mechanisms already cover this
                    // region, so defrag rewrites would be pure cost.
                    if s.phys_reads > phys {
                        policy.record_fragmented(rec.lba.sector());
                    } else {
                        policy.record_cache_absorbed(rec.lba.sector());
                    }
                }
            }
            if let Some(t) = &mut mark {
                self.phases.record(Phase::Classify, t.elapsed());
                *t = Instant::now();
            }
        }
        for io in ios {
            self.phys_sectors += io.sectors;
            if let Some(seek) = self.counter.observe(&io) {
                if let Some(series) = &mut self.series {
                    series.record(i, &seek);
                }
            }
        }
        if let LayerImpl::Ls(ls) = &self.layer {
            self.peak_extent_segments = self.peak_extent_segments.max(ls.map().len() as u64);
        }
        if let Some(t) = &mark {
            self.phases.record(Phase::Seek, t.elapsed());
        }
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            layer: match &self.layer {
                LayerImpl::NoLs(_) => LayerSnapshot::NoLs,
                LayerImpl::Ls(ls) => LayerSnapshot::Ls(Box::new(ls.to_snapshot())),
            },
            counter: self.counter.to_state(),
            longseek_series: self.series.clone(),
            host_cache: self.host_cache.clone(),
            host_cache_hits: self.host_cache_hits,
            phys_sectors: self.phys_sectors,
            logical_ops: self.logical_ops,
            peak_extent_segments: self.peak_extent_segments,
            policy: self.policy.clone(),
        }
    }

    fn finish(self) -> RunReport {
        let layer_name = if self.policy.is_some() {
            // The mechanism mix is config-visible; what defines this run is
            // that the policy engine drove it.
            String::from("LS+adaptive")
        } else {
            self.layer.name().to_owned()
        };
        let (ls_stats, fragments, cache_tiers) = match self.layer {
            LayerImpl::NoLs(_) => (None, None, None),
            LayerImpl::Ls(ls) => (
                Some(ls.stats()),
                ls.fragment_tracker().cloned(),
                ls.tier_stats(),
            ),
        };
        RunReport {
            layer_name,
            logical_ops: self.logical_ops,
            phys_sectors: self.phys_sectors,
            host_cache_hits: self.host_cache_hits,
            seeks: self.counter.stats(),
            distances: self
                .config
                .record_distances
                .then(|| self.counter.into_distances()),
            longseek_series: self.series,
            ls_stats,
            fragments,
            peak_extent_segments: self.peak_extent_segments,
            policy: self.policy.map(|p| p.stats()),
            cache_tiers,
            phases: self.phases,
        }
    }
}

/// A trace the engine replays in decoded blocks rather than one record at
/// a time: in-memory slices hand out zero-copy chunks, and [`MmapTrace`]
/// decodes block by block off the shared mapping.
pub trait BlockTrace {
    /// The frontier bound derived from this trace — what an LS run uses
    /// when [`SimConfig::frontier_hint`] is unset. Each implementation
    /// preserves the derivation its pre-`Simulation` replay path used, so
    /// reports stay byte-identical across the API change.
    fn frontier_top(&self) -> u64;

    /// Streams every record to `f` as consecutive non-empty blocks whose
    /// concatenation is exactly the trace.
    fn for_each_block(&self, f: &mut dyn FnMut(&[TraceRecord]));
}

impl BlockTrace for [TraceRecord] {
    /// Highest *starting* LBA plus one — the derivation the historical
    /// slice-based `simulate` used (via `stream::max_lba`), kept so
    /// derived frontiers land on the same sector.
    fn frontier_top(&self) -> u64 {
        stream::max_lba(self).map_or(0, |l| l.sector() + 1)
    }

    fn for_each_block(&self, f: &mut dyn FnMut(&[TraceRecord])) {
        for block in self.chunks(DEFAULT_BLOCK_RECORDS) {
            f(block);
        }
    }
}

impl BlockTrace for Vec<TraceRecord> {
    fn frontier_top(&self) -> u64 {
        self.as_slice().frontier_top()
    }

    fn for_each_block(&self, f: &mut dyn FnMut(&[TraceRecord])) {
        self.as_slice().for_each_block(f);
    }
}

impl BlockTrace for MmapTrace {
    /// One past the highest sector any record touches — from the v2
    /// header when present, exactly the hint mmap-backed replay always
    /// passed explicitly.
    fn frontier_top(&self) -> u64 {
        self.top_sector()
    }

    fn for_each_block(&self, f: &mut dyn FnMut(&[TraceRecord])) {
        let mut blocks = self.blocks();
        while let Some(block) = blocks.next_block() {
            f(block);
        }
    }
}

/// One configured simulation run: the single entry point that replaces the
/// historical `simulate` / `simulate_stream` / `simulate_stream_from` /
/// `simulate_stream_checkpointed` family.
///
/// Build one with [`Simulation::new`], optionally chain
/// [`resume_from`](Self::resume_from) (replay continues from a snapshot)
/// and [`checkpoint_every`](Self::checkpoint_every) (emit snapshots on a
/// cadence), then consume records with [`run`](Self::run) (any iterator)
/// or [`run_trace`](Self::run_trace) (block-decoded traces). Replay is
/// serial: each read's translation depends on every earlier write, so
/// parallelism lives across runs (the cells of a
/// [`RunMatrix`](crate::runner::RunMatrix)), never inside one. Whatever
/// the combination, the serialized [`RunReport`] is byte-identical to the
/// plain run over the whole trace.
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
pub struct Simulation<'a> {
    config: SimConfig,
    resume_from: Option<&'a EngineSnapshot>,
    sink: Option<SnapshotSink<'a>>,
}

/// Boxed checkpoint consumer installed by [`Simulation::checkpoint_sink`].
type SnapshotSink<'a> = Box<dyn FnMut(&EngineSnapshot) + 'a>;

impl<'a> Simulation<'a> {
    /// A simulation of `config` (copied; later chained knobs act on the
    /// copy).
    pub fn new(config: &SimConfig) -> Simulation<'a> {
        Simulation {
            config: *config,
            resume_from: None,
            sink: None,
        }
    }

    /// Resumes from `snapshot`: the subsequent [`run`](Self::run) /
    /// [`run_trace`](Self::run_trace) must be given the *remaining*
    /// records — those from index [`EngineSnapshot::logical_ops`] onward
    /// of the original trace — and produces a [`RunReport`]
    /// byte-identical (as JSON) to the uninterrupted run over the whole
    /// trace.
    pub fn resume_from(mut self, snapshot: &'a EngineSnapshot) -> Self {
        self.resume_from = Some(snapshot);
        self
    }

    /// Emits an [`EngineSnapshot`] to `sink` after every `n_records`-th
    /// consumed record, at absolute record indices counted over the whole
    /// trace (a resumed run keeps the original cadence). Overrides any
    /// cadence already on the config.
    pub fn checkpoint_every(
        mut self,
        n_records: u64,
        sink: impl FnMut(&EngineSnapshot) + 'a,
    ) -> Self {
        self.config.checkpoint_every = Some(n_records);
        self.sink = Some(Box::new(sink));
        self
    }

    /// Like [`checkpoint_every`](Self::checkpoint_every), but keeps the
    /// cadence already configured via [`SimConfig::with_checkpoint_every`]
    /// (no emission when the config sets none).
    pub fn checkpoint_sink(mut self, sink: impl FnMut(&EngineSnapshot) + 'a) -> Self {
        self.sink = Some(Box::new(sink));
        self
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
    /// Also panics when resuming from a snapshot whose layer kind does
    /// not match the config's.
    pub fn run<I>(mut self, records: I) -> RunReport
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let mut state = self.start();
        let timing = state.timing;
        let mut records = records.into_iter();
        loop {
            // Pulling the next record is where trace parse / mmap-read
            // cost lives, so it is accounted as the ingest phase.
            let mark = timing.then(Instant::now);
            let Some(rec) = records.next() else { break };
            if let Some(t) = mark {
                state.phases.record(Phase::Ingest, t.elapsed());
            }
            state.step(&rec);
            self.checkpoint_if_due(&mut state);
        }
        state.finish()
    }

    /// Replays a block-decoded trace: derives the LS frontier hint from
    /// the trace when the config leaves it unset, and ingests in decoded
    /// blocks rather than record-at-a-time — block decode time is
    /// accounted to the ingest phase once per block, which is the point
    /// of batching. Serialized reports are byte-identical to
    /// [`run`](Self::run) over the same records.
    pub fn run_trace<T>(mut self, trace: &T) -> RunReport
    where
        T: BlockTrace + ?Sized,
    {
        if matches!(self.config.layer, LayerChoice::Ls { .. })
            && self.config.frontier_hint.is_none()
        {
            self.config.frontier_hint = Some(trace.frontier_top());
        }
        let mut state = self.start();
        let mut last = state.timing.then(Instant::now);
        trace.for_each_block(&mut |block| {
            if let Some(t) = &last {
                state.phases.record(Phase::Ingest, t.elapsed());
            }
            for rec in block {
                state.step(rec);
                self.checkpoint_if_due(&mut state);
            }
            if let Some(t) = &mut last {
                *t = Instant::now();
            }
        });
        state.finish()
    }

    /// The engine state this run starts from: fresh, or restored from the
    /// [`resume_from`](Self::resume_from) snapshot.
    fn start(&self) -> EngineState {
        match self.resume_from {
            Some(snap) => EngineState::resume(&self.config, snap),
            None => EngineState::new(&self.config),
        }
    }

    /// Emits a checkpoint when the absolute record count lands on the
    /// configured cadence; called after every record.
    fn checkpoint_if_due(&mut self, state: &mut EngineState) {
        let Some(n) = self.config.checkpoint_every else {
            return;
        };
        // A zero cadence never fires: `logical_ops` is at least 1 here.
        if state.logical_ops.is_multiple_of(n) {
            let mark = state.timing.then(Instant::now);
            let snap = state.snapshot();
            if let Some(sink) = &mut self.sink {
                sink(&snap);
            }
            if let Some(t) = mark {
                state.phases.record(Phase::Checkpoint, t.elapsed());
            }
        }
    }
}

/// Constructs a policy engine for a fresh (non-resumed) run, informing it
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
    use smrseek_trace::Lba;

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
            zone_sectors: Some(1 << 20),
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
            .with_longseek_series(64)
            .with_host_cache(1 << 20);
        let canon = config.canonical(Some(100));
        assert!(canon.record_distances);
        assert_eq!(canon.longseek_bucket_ops, 64);
        assert_eq!(canon.host_cache_bytes, Some(1 << 20));
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
    fn builder_matches_with_chain() {
        let built = SimConfig::builder(LayerChoice::NoLs)
            .distances()
            .longseek_series(64)
            .host_cache(1 << 20)
            .checkpoint_every(50)
            .build()
            .expect("valid config");
        let chained = SimConfig::no_ls()
            .with_distances()
            .with_longseek_series(64)
            .with_host_cache(1 << 20)
            .with_checkpoint_every(50);
        assert_eq!(built, chained);

        let built = SimConfig::builder(SimConfig::ls_cache().layer)
            .fragment_tracking()
            .zones(512)
            .frontier_hint(4096)
            .build()
            .expect("valid config");
        let chained = SimConfig::ls_cache()
            .with_fragment_tracking()
            .with_zones(512)
            .with_frontier_hint(4096);
        assert_eq!(built, chained);
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        let nols = || SimConfig::builder(LayerChoice::NoLs);
        assert_eq!(
            nols().host_cache(0).build(),
            Err(ConfigError::ZeroHostCache)
        );
        assert_eq!(
            nols().checkpoint_every(0).build(),
            Err(ConfigError::ZeroCheckpointCadence)
        );
        assert_eq!(
            nols().longseek_series(0).build(),
            Err(ConfigError::ZeroLongseekBucket)
        );
        assert_eq!(nols().zones(512).build(), Err(ConfigError::ZonesWithoutLs));
        assert_eq!(
            SimConfig::builder(SimConfig::log_structured().layer)
                .zones(0)
                .build(),
            Err(ConfigError::ZeroZoneSectors)
        );
        let empty_cache = CacheConfig { capacity_bytes: 0 };
        assert_eq!(
            SimConfig::builder(SimConfig::ls_with(None, None, Some(empty_cache)).layer).build(),
            Err(ConfigError::ZeroSelectiveCache)
        );
        assert_eq!(
            SimConfig::builder(SimConfig::ls_cache().layer)
                .flash_cache(0)
                .build(),
            Err(ConfigError::ZeroFlashCache)
        );
        assert_eq!(
            SimConfig::builder(SimConfig::ls_cache().layer)
                .policy(PolicyConfig {
                    region_sectors: 0,
                    ..PolicyConfig::default()
                })
                .build(),
            Err(ConfigError::ZeroPolicyRegion)
        );
        assert_eq!(
            nols().policy(PolicyConfig::default()).build(),
            Err(ConfigError::PolicyWithoutLs)
        );
        assert_eq!(
            nols().flash_cache(1 << 20).build(),
            Err(ConfigError::FlashCacheWithoutSelectiveCache)
        );
        // A policy over a bare log has nothing to gate.
        assert_eq!(
            SimConfig::builder(SimConfig::log_structured().layer)
                .policy(PolicyConfig::default())
                .build(),
            Err(ConfigError::PolicyWithoutMechanisms)
        );
        // A flash tier needs the selective cache in front of it.
        assert_eq!(
            SimConfig::builder(SimConfig::ls_defrag().layer)
                .flash_cache(1 << 20)
                .build(),
            Err(ConfigError::FlashCacheWithoutSelectiveCache)
        );
        // Errors render as actionable prose.
        assert!(ConfigError::ZeroHostCache
            .to_string()
            .contains("host cache"));
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
            "host_cache_hits",
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
    /// prefetch, caching, zones, and the host cache.
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

    fn resume_configs() -> Vec<SimConfig> {
        let mut configs = SimConfig::standard_sweep().to_vec();
        configs.push(
            SimConfig::ls_defrag()
                .with_distances()
                .with_longseek_series(16)
                .with_fragment_tracking()
                .with_zones(512),
        );
        configs.push(SimConfig::log_structured().with_host_cache(64 * 512));
        configs.push(SimConfig::no_ls().with_distances().with_host_cache(8 * 512));
        configs.push(adaptive_config().with_fragment_tracking());
        configs
    }

    #[test]
    fn resume_is_byte_identical_to_uninterrupted_run() {
        let trace = busy_trace(240);
        let top = smrseek_trace::stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        for config in resume_configs() {
            let config = config.with_frontier_hint(top);
            let whole = serde_json::to_string(&Simulation::new(&config).run(trace.iter().copied()))
                .expect("report serializes");
            for split in [0usize, 1, 100, 239, 240] {
                let mut state = EngineState::new(&config);
                for rec in &trace[..split] {
                    state.step(rec);
                }
                let snap = state.snapshot();
                assert_eq!(snap.logical_ops as usize, split);
                let resumed = Simulation::new(&config)
                    .resume_from(&snap)
                    .run(trace[split..].iter().copied());
                assert_eq!(
                    serde_json::to_string(&resumed).expect("report serializes"),
                    whole,
                    "resume at {split} diverged for {config:?}"
                );
            }
        }
    }

    #[test]
    fn snapshot_survives_serde_round_trip() {
        let trace = busy_trace(150);
        let top = smrseek_trace::stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        for config in resume_configs() {
            let config = config.with_frontier_hint(top);
            let whole = serde_json::to_string(&Simulation::new(&config).run(trace.iter().copied()))
                .expect("report serializes");
            let mut state = EngineState::new(&config);
            for rec in &trace[..75] {
                state.step(rec);
            }
            let json = serde_json::to_string(&state.snapshot()).expect("snapshot serializes");
            let snap: EngineSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
            let resumed = Simulation::new(&config)
                .resume_from(&snap)
                .run(trace[75..].iter().copied());
            assert_eq!(
                serde_json::to_string(&resumed).expect("report serializes"),
                whole,
                "serde round-trip broke resume for {config:?}"
            );
        }
    }

    #[test]
    fn checkpoints_emitted_on_cadence() {
        let trace = busy_trace(35);
        let config = SimConfig::no_ls();
        let mut emitted = Vec::new();
        let report = Simulation::new(&config)
            .checkpoint_every(10, |snap: &EngineSnapshot| emitted.push(snap.logical_ops))
            .run(trace.iter().copied());
        assert_eq!(report.logical_ops, 35);
        assert_eq!(emitted, vec![10, 20, 30]);
    }

    #[test]
    fn run_trace_honors_checkpoint_cadence() {
        // The block-decoded path checkpoints on the same cadence as the
        // streaming path.
        let trace = busy_trace(35);
        let mut emitted = Vec::new();
        let report = Simulation::new(&SimConfig::no_ls())
            .checkpoint_every(10, |snap: &EngineSnapshot| emitted.push(snap.logical_ops))
            .run_trace(&trace);
        assert_eq!(report.logical_ops, 35);
        assert_eq!(emitted, vec![10, 20, 30]);
    }

    #[test]
    fn resumed_run_keeps_checkpoint_cadence() {
        // Resuming at 15 with every(10) must fire at absolute records
        // 20 and 30, not 25 and 35.
        let trace = busy_trace(35);
        let config = SimConfig::no_ls().with_checkpoint_every(10);
        let mut state = EngineState::new(&config);
        for rec in &trace[..15] {
            state.step(rec);
        }
        let snap = state.snapshot();
        let mut emitted = Vec::new();
        Simulation::new(&config)
            .resume_from(&snap)
            .checkpoint_sink(|s: &EngineSnapshot| emitted.push(s.logical_ops))
            .run(trace[15..].iter().copied());
        assert_eq!(emitted, vec![20, 30]);
    }

    #[test]
    #[should_panic(expected = "config key")]
    fn resume_with_mismatched_layer_panics() {
        let config = SimConfig::no_ls();
        let snap = EngineState::new(&config).snapshot();
        Simulation::new(&SimConfig::log_structured())
            .resume_from(&snap)
            .run(toy_trace());
    }

    #[test]
    fn canonical_clears_checkpoint_cadence() {
        let a = SimConfig::ls_cache().with_checkpoint_every(1000);
        let b = SimConfig::ls_cache();
        assert_eq!(a.canonical(Some(42)), b.canonical(Some(42)));
        assert_eq!(a.cache_key(Some(42)), b.cache_key(Some(42)));
    }
}
