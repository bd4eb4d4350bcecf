//! Adaptive mitigation policy: online heat classification and per-region
//! mechanism gating.
//!
//! The paper's three mitigation mechanisms (opportunistic defrag §IV-A,
//! look-ahead-behind prefetch §IV-B, selective caching §IV-C) run with
//! fixed global thresholds — and fixed defrag *regresses* write-churning
//! workloads (rewrites cost write seeks that later reads never repay).
//! This crate supplies the missing feedback loop:
//!
//! * a **classifier** buckets LBA space into fixed-size regions, each
//!   carrying integer EWMA read/write/fragmented-read rates and a two-state
//!   hot/cold machine smoothed HMM-style: evidence accumulates into a
//!   clamped log-odds score and the state only flips when the score crosses
//!   an entry/exit threshold, so one stray access never toggles a gate;
//! * a **policy engine** ([`PolicyEngine`]) consumes classifier state on
//!   every record and emits a per-region [`GateSet`] — enable/disable
//!   defrag rewrites, widen/narrow the prefetch window, admit/deny
//!   selective-cache fills — recording every decision and gate flip in a
//!   mergeable [`PolicyStats`].
//!
//! Everything is `std`-only integer arithmetic: classification is
//! deterministic, byte-stable across platforms, and cheap enough to sit on
//! the per-record hot path.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed-point scale of the per-region EWMA rates (`1.0` == `SCALE`).
pub const SCALE: u32 = 1 << 16;

/// Classifier and gating thresholds.
///
/// The defaults are deliberately conservative: mechanisms stay enabled in
/// their fixed-configuration form until a region shows sustained evidence,
/// so a policy run on a workload with no exploitable skew degrades to the
/// combined fixed mechanisms rather than to something worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Region size in sectors; every LBA maps to region
    /// `sector / region_sectors`. Must be nonzero.
    pub region_sectors: u64,
    /// EWMA decay shift: each event moves a rate `1/2^shift` of the way
    /// toward its target, so smaller shifts adapt faster. Must be below
    /// 32, the width of the rates.
    pub ewma_shift: u32,
    /// Log-odds evidence contributed by one fragmented read (toward hot).
    pub frag_weight: i32,
    /// Log-odds evidence contributed by one write (toward cold).
    pub write_weight: i32,
    /// Score at or above which a cold region flips hot.
    pub hot_enter: i32,
    /// Score at or below which a hot region flips cold.
    pub hot_exit: i32,
    /// Scores are clamped to `[-score_clamp, score_clamp]` so a long cold
    /// (or hot) streak cannot build unbounded inertia — the HMM-style
    /// smoothing stays responsive. Must not be negative, and a clamped
    /// score plus or minus either weight must fit in an `i32`.
    pub score_clamp: i32,
}

impl PolicyConfig {
    /// Checks that a [`PolicyEngine`] can run under this configuration
    /// (no division by zero, over-wide shift or `i32` overflow): the one
    /// place that decides which values are valid.
    ///
    /// # Errors
    ///
    /// A message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), &'static str> {
        // Scores stay in [-clamp, clamp]; each step adds or subtracts a
        // weight before clamping again.
        let fits = |w: i32| i64::from(self.score_clamp) + i64::from(w).abs() <= i64::from(i32::MAX);
        if self.region_sectors == 0 {
            Err("`region_sectors` must be at least 1: regions must be non-empty")
        } else if self.ewma_shift >= u32::BITS {
            Err("`ewma_shift` must be below 32, the width of the EWMA rates")
        } else if self.score_clamp < 0 {
            Err("`score_clamp` must not be negative")
        } else if !fits(self.frag_weight) {
            Err("`frag_weight` too large: score_clamp + |frag_weight| exceeds i32::MAX")
        } else if !fits(self.write_weight) {
            Err("`write_weight` too large: score_clamp + |write_weight| exceeds i32::MAX")
        } else {
            Ok(())
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            region_sectors: 8192, // 4 MiB regions
            ewma_shift: 3,
            frag_weight: 2,
            write_weight: 1,
            hot_enter: 4,
            hot_exit: -4,
            score_clamp: 8,
        }
    }
}

/// Prefetch window width the policy asks the translation layer to use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PrefetchWindow {
    /// Half the configured look-ahead/behind window.
    Narrow,
    /// The configured window, unchanged (the fixed-mechanism behavior).
    #[default]
    Normal,
    /// Twice the configured window.
    Wide,
}

impl PrefetchWindow {
    /// Applies this width to a configured sector count.
    pub fn apply(self, sectors: u64) -> u64 {
        match self {
            PrefetchWindow::Narrow => sectors / 2,
            PrefetchWindow::Normal => sectors,
            PrefetchWindow::Wide => sectors * 2,
        }
    }
}

/// Per-region mechanism gates, as emitted for one record.
///
/// The default is fully permissive — exactly the fixed-mechanism behavior —
/// which is what a layer without a policy engine runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSet {
    /// Perform opportunistic defrag rewrites for reads in this region.
    pub defrag: bool,
    /// Prefetch window width for fragments read from this region.
    pub prefetch: PrefetchWindow,
    /// Admit fragments of this region into the selective cache.
    pub cache_admit: bool,
}

impl Default for GateSet {
    fn default() -> Self {
        GateSet {
            defrag: true,
            prefetch: PrefetchWindow::Normal,
            cache_admit: true,
        }
    }
}

/// Hot/cold state of one region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Heat {
    /// No sustained fragmented-read evidence.
    #[default]
    Cold,
    /// Fragmented reads recur faster than writes churn the region.
    Hot,
}

/// Classifier state of one LBA region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionState {
    /// EWMA of the read fraction of this region's traffic (0..=[`SCALE`]).
    pub read_rate: u32,
    /// EWMA of the write fraction of this region's traffic.
    pub write_rate: u32,
    /// EWMA of the fragmented fraction of this region's reads.
    pub frag_rate: u32,
    /// Clamped log-odds hot-vs-cold evidence score.
    pub score: i32,
    /// Smoothed hot/cold state (flips only on threshold crossings).
    pub heat: Heat,
    /// Gates last emitted for this region (flip detection).
    pub gates: GateSet,
}

/// Pure event counts of one policy run.
///
/// Every field is an additive event count, so stats of separate runs
/// merge by fieldwise addition (the daemon totals a sweep's cells this
/// way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Records the policy engine observed (= gate decisions emitted).
    pub records_observed: u64,
    /// Decisions that enabled defrag for the record's region.
    pub defrag_enabled: u64,
    /// Decisions that disabled defrag.
    pub defrag_denied: u64,
    /// Decisions that widened the prefetch window.
    pub prefetch_widened: u64,
    /// Decisions that narrowed the prefetch window.
    pub prefetch_narrowed: u64,
    /// Decisions that kept the configured prefetch window.
    pub prefetch_normal: u64,
    /// Decisions that admitted cache fills.
    pub cache_admitted: u64,
    /// Decisions that denied cache fills.
    pub cache_denied: u64,
    /// Times a region's defrag gate changed value.
    pub defrag_gate_flips: u64,
    /// Times a region's prefetch gate changed value.
    pub prefetch_gate_flips: u64,
    /// Times a region's cache gate changed value.
    pub cache_gate_flips: u64,
}

impl PolicyStats {
    /// Folds another run's counters into this one (fieldwise addition).
    pub fn merge(&mut self, other: &PolicyStats) {
        self.records_observed += other.records_observed;
        self.defrag_enabled += other.defrag_enabled;
        self.defrag_denied += other.defrag_denied;
        self.prefetch_widened += other.prefetch_widened;
        self.prefetch_narrowed += other.prefetch_narrowed;
        self.prefetch_normal += other.prefetch_normal;
        self.cache_admitted += other.cache_admitted;
        self.cache_denied += other.cache_denied;
        self.defrag_gate_flips += other.defrag_gate_flips;
        self.prefetch_gate_flips += other.prefetch_gate_flips;
        self.cache_gate_flips += other.cache_gate_flips;
    }

    /// Total gate flips across all three mechanisms.
    pub fn total_flips(&self) -> u64 {
        self.defrag_gate_flips + self.prefetch_gate_flips + self.cache_gate_flips
    }
}

/// Write-rate EWMA above which a cold region's cache fills are denied
/// (the region's data is churning; cached fragments would be invalidated
/// before they are re-read).
const WRITE_HOT: u32 = 3 * (SCALE / 4);

/// Fragmented-read EWMA below which a region counts as fragmentation-quiet.
/// Restrictive gates (narrow prefetch, cache-fill denial) only apply to
/// quiet regions: once fragmented reads recur — even cache-absorbed ones —
/// the read path is the one paying seeks, and starving it of its window or
/// its cache fills costs more than the churn it saves.
const FRAG_QUIET: u32 = SCALE / 16;

/// The online classifier plus gating policy.
///
/// Feed it every record that reaches the translation layer via
/// [`observe`](Self::observe) (which returns the gates the layer should
/// apply to that record), and report post-translation fragmentation
/// evidence via [`record_fragmented`](Self::record_fragmented) /
/// [`record_cache_absorbed`](Self::record_cache_absorbed).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEngine {
    config: PolicyConfig,
    regions: HashMap<u64, RegionState>,
    stats: PolicyStats,
    /// Whether a selective cache is configured downstream (see
    /// [`set_cache_present`](Self::set_cache_present)).
    cache_present: bool,
}

impl PolicyEngine {
    /// A fresh engine; every region starts cold with permissive-but-gated
    /// defaults (see [`PolicyEngine::initial_gates`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`PolicyConfig::validate`] message if `config` is
    /// out of range (`smrseek_sim`'s config builder reports the same
    /// check as a typed error before construction).
    pub fn new(config: PolicyConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        PolicyEngine {
            config,
            regions: HashMap::new(),
            stats: PolicyStats::default(),
            cache_present: false,
        }
    }

    /// Tells the policy whether a selective cache sits downstream of its
    /// gates. Defrag rewrites and cache fills remedy the same symptom —
    /// recurring fragmented reads — but the cache absorbs them at zero
    /// media cost while every rewrite pays write seeks, and a rewrite
    /// destroys the fragmentation the cache would have kept monetizing
    /// (the mechanism-stacking ablation's defrag+cache regression). So
    /// with a cache present the policy reserves rewrites entirely and
    /// steers heat into the prefetch and admission gates instead; defrag
    /// is earned by hot regions only in cache-less configurations.
    pub fn set_cache_present(&mut self, present: bool) {
        self.cache_present = present;
    }

    /// The configuration this engine classifies under.
    pub fn config(&self) -> PolicyConfig {
        self.config
    }

    /// Decision and flip counters accumulated so far.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Number of regions with classifier state.
    pub fn regions_tracked(&self) -> usize {
        self.regions.len()
    }

    /// Number of regions currently classified hot.
    pub fn hot_regions(&self) -> usize {
        self.regions
            .values()
            .filter(|r| r.heat == Heat::Hot)
            .count()
    }

    /// The region a sector belongs to.
    pub fn region_of(&self, sector: u64) -> u64 {
        sector / self.config.region_sectors
    }

    /// Classifier state of a region, if any traffic has touched it.
    pub fn region(&self, region: u64) -> Option<&RegionState> {
        self.regions.get(&region)
    }

    /// The gates a never-observed region starts under: defrag *disabled*
    /// (rewrites must be earned by evidence — this is what prevents the
    /// static-defrag regressions), everything else at the fixed-mechanism
    /// defaults.
    pub fn initial_gates() -> GateSet {
        GateSet {
            defrag: false,
            ..GateSet::default()
        }
    }

    /// Observes one record and returns the gates to apply to it.
    ///
    /// The returned decision is computed from state *prior* to this
    /// record's own fragmentation evidence, which arrives afterwards via
    /// [`record_fragmented`](Self::record_fragmented).
    pub fn observe(&mut self, lba_sector: u64, is_read: bool) -> GateSet {
        let shift = self.config.ewma_shift;
        let write_weight = self.config.write_weight;
        let clamp = self.config.score_clamp;
        let (hot_enter, hot_exit) = (self.config.hot_enter, self.config.hot_exit);
        let region = self.region_of(lba_sector);
        let state = self.regions.entry(region).or_insert_with(|| RegionState {
            gates: Self::initial_gates(),
            ..RegionState::default()
        });
        if is_read {
            ewma(&mut state.read_rate, true, shift);
            ewma(&mut state.write_rate, false, shift);
            // The read's own fragmentation outcome is not known yet;
            // decay here, record_fragmented bumps it back up.
            ewma(&mut state.frag_rate, false, shift);
        } else {
            ewma(&mut state.read_rate, false, shift);
            ewma(&mut state.write_rate, true, shift);
            state.score = (state.score - write_weight).clamp(-clamp, clamp);
        }
        step_heat(state, hot_enter, hot_exit);

        let quiet = state.frag_rate < FRAG_QUIET;
        let gates = GateSet {
            defrag: state.heat == Heat::Hot && !self.cache_present,
            prefetch: match state.heat {
                Heat::Hot => PrefetchWindow::Wide,
                Heat::Cold if quiet && state.score <= -2 && state.write_rate > state.read_rate => {
                    PrefetchWindow::Narrow
                }
                Heat::Cold => PrefetchWindow::Normal,
            },
            cache_admit: !(state.heat == Heat::Cold && quiet && state.write_rate > WRITE_HOT),
        };
        if gates.defrag != state.gates.defrag {
            self.stats.defrag_gate_flips += 1;
        }
        if gates.prefetch != state.gates.prefetch {
            self.stats.prefetch_gate_flips += 1;
        }
        if gates.cache_admit != state.gates.cache_admit {
            self.stats.cache_gate_flips += 1;
        }
        state.gates = gates;

        self.stats.records_observed += 1;
        if gates.defrag {
            self.stats.defrag_enabled += 1;
        } else {
            self.stats.defrag_denied += 1;
        }
        match gates.prefetch {
            PrefetchWindow::Narrow => self.stats.prefetch_narrowed += 1,
            PrefetchWindow::Normal => self.stats.prefetch_normal += 1,
            PrefetchWindow::Wide => self.stats.prefetch_widened += 1,
        }
        if gates.cache_admit {
            self.stats.cache_admitted += 1;
        } else {
            self.stats.cache_denied += 1;
        }
        gates
    }

    /// Feeds back that the read starting at `lba_sector` turned out
    /// fragmented *and paid physical I/O* — the evidence that makes a
    /// region hot (its fragmentation is costing seeks nothing else
    /// mitigates).
    pub fn record_fragmented(&mut self, lba_sector: u64) {
        self.frag_feedback(lba_sector, self.config.frag_weight);
    }

    /// Feeds back that a fragmented read was served entirely from the
    /// selective cache or prefetch buffer — no physical read. Evidence
    /// *against* defragmentation: the cheaper mechanisms already absorb
    /// this region's fragmentation, so rewrites would spend write seeks
    /// the reads never repay (the defrag+cache regression).
    pub fn record_cache_absorbed(&mut self, lba_sector: u64) {
        self.frag_feedback(lba_sector, -self.config.frag_weight);
    }

    fn frag_feedback(&mut self, lba_sector: u64, weight: i32) {
        let shift = self.config.ewma_shift;
        let clamp = self.config.score_clamp;
        let (hot_enter, hot_exit) = (self.config.hot_enter, self.config.hot_exit);
        let region = self.region_of(lba_sector);
        let state = self.regions.entry(region).or_insert_with(|| RegionState {
            gates: Self::initial_gates(),
            ..RegionState::default()
        });
        ewma(&mut state.frag_rate, true, shift);
        state.score = (state.score + weight).clamp(-clamp, clamp);
        step_heat(state, hot_enter, hot_exit);
    }
}

/// Moves `rate` `1/2^shift` of the way toward [`SCALE`] (`toward` true) or
/// zero.
fn ewma(rate: &mut u32, toward: bool, shift: u32) {
    if toward {
        *rate += (SCALE - *rate) >> shift;
    } else {
        *rate -= *rate >> shift;
    }
}

/// Applies the hysteresis thresholds to a region's score.
fn step_heat(state: &mut RegionState, hot_enter: i32, hot_exit: i32) {
    match state.heat {
        Heat::Cold if state.score >= hot_enter => state.heat = Heat::Hot,
        Heat::Hot if state.score <= hot_exit => state.heat = Heat::Cold,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PolicyEngine {
        PolicyEngine::new(PolicyConfig::default())
    }

    #[test]
    fn fresh_region_starts_cold_with_defrag_denied() {
        let mut e = engine();
        let gates = e.observe(0, true);
        assert!(!gates.defrag, "defrag must be earned by evidence");
        assert_eq!(gates.prefetch, PrefetchWindow::Normal);
        assert!(gates.cache_admit);
        assert_eq!(e.hot_regions(), 0);
        assert_eq!(e.regions_tracked(), 1);
    }

    #[test]
    fn recurring_fragmented_reads_flip_a_region_hot() {
        let mut e = engine();
        for _ in 0..3 {
            e.observe(100, true);
            e.record_fragmented(100);
        }
        let gates = e.observe(100, true);
        assert!(gates.defrag, "3 fragmented reads = score 6 >= enter 4");
        assert_eq!(gates.prefetch, PrefetchWindow::Wide);
        assert_eq!(e.hot_regions(), 1);
        assert_eq!(e.stats().defrag_gate_flips, 1);
    }

    #[test]
    fn writes_cool_a_hot_region_with_hysteresis() {
        let mut e = engine();
        for _ in 0..4 {
            e.observe(100, true);
            e.record_fragmented(100);
        }
        assert!(e.observe(100, true).defrag);
        // Score is clamped at +8; hysteresis needs 12 write units to
        // reach the -4 exit, so a couple of writes do not flip it...
        for _ in 0..3 {
            assert!(e.observe(100, false).defrag, "hysteresis holds");
        }
        // ...but a sustained write burst does.
        for _ in 0..12 {
            e.observe(100, false);
        }
        assert!(!e.observe(100, true).defrag);
        assert_eq!(e.hot_regions(), 0);
        assert!(e.stats().defrag_gate_flips >= 2, "on and back off");
    }

    #[test]
    fn write_churned_cold_region_denies_cache_fills() {
        let mut e = engine();
        for _ in 0..40 {
            e.observe(100, false);
        }
        let gates = e.observe(100, false);
        assert!(!gates.cache_admit, "pure-write region denies fills");
        assert_eq!(gates.prefetch, PrefetchWindow::Narrow);
        // A read-only region keeps admitting.
        for _ in 0..40 {
            assert!(e.observe(1 << 30, true).cache_admit);
        }
    }

    #[test]
    fn cache_absorbed_reads_hold_defrag_off() {
        // Fragmented reads that the cache keeps absorbing are evidence
        // against rewrites: alternating miss/hit feedback never
        // accumulates to the hot-entry threshold.
        let mut e = engine();
        for _ in 0..20 {
            e.observe(100, true);
            e.record_fragmented(100);
            e.observe(100, true);
            e.record_cache_absorbed(100);
        }
        assert_eq!(e.hot_regions(), 0, "absorbed reads cancel the evidence");
        assert!(!e.observe(100, true).defrag);
        // Without the absorption feedback the same misses flip it hot.
        let mut uncached = engine();
        for _ in 0..3 {
            uncached.observe(100, true);
            uncached.record_fragmented(100);
        }
        assert!(uncached.observe(100, true).defrag);
    }

    #[test]
    fn regions_are_independent() {
        let mut e = engine();
        let far = PolicyConfig::default().region_sectors; // next region
        for _ in 0..4 {
            e.observe(0, true);
            e.record_fragmented(0);
        }
        assert!(e.observe(0, true).defrag);
        assert!(!e.observe(far, true).defrag);
        assert_eq!(e.regions_tracked(), 2);
    }

    #[test]
    fn decision_and_flip_counters_account_every_record() {
        let mut e = engine();
        for i in 0..10 {
            e.observe(i * 8, i % 2 == 0);
        }
        let s = e.stats();
        assert_eq!(s.records_observed, 10);
        assert_eq!(s.defrag_enabled + s.defrag_denied, 10);
        assert_eq!(
            s.prefetch_widened + s.prefetch_narrowed + s.prefetch_normal,
            10
        );
        assert_eq!(s.cache_admitted + s.cache_denied, 10);
    }

    #[test]
    fn stats_merge_is_fieldwise_addition() {
        let mut a = PolicyStats {
            records_observed: 1,
            defrag_enabled: 2,
            defrag_denied: 3,
            prefetch_widened: 4,
            prefetch_narrowed: 5,
            prefetch_normal: 6,
            cache_admitted: 7,
            cache_denied: 8,
            defrag_gate_flips: 9,
            prefetch_gate_flips: 10,
            cache_gate_flips: 11,
        };
        let b = PolicyStats {
            records_observed: 100,
            ..a
        };
        a.merge(&b);
        assert_eq!(a.records_observed, 101);
        assert_eq!(a.defrag_enabled, 4);
        assert_eq!(a.cache_gate_flips, 22);
        assert_eq!(a.total_flips(), 18 + 20 + 22);
    }

    #[test]
    fn prefetch_window_scales() {
        assert_eq!(PrefetchWindow::Narrow.apply(512), 256);
        assert_eq!(PrefetchWindow::Normal.apply(512), 512);
        assert_eq!(PrefetchWindow::Wide.apply(512), 1024);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_region_panics() {
        PolicyEngine::new(PolicyConfig {
            region_sectors: 0,
            ..PolicyConfig::default()
        });
    }

    #[test]
    fn validate_accepts_each_bound_and_rejects_one_past_it() {
        let valid = |f: fn(&mut PolicyConfig)| {
            let mut c = PolicyConfig::default();
            f(&mut c);
            c.validate().is_ok()
        };
        assert!(valid(|c| c.ewma_shift = 31) && !valid(|c| c.ewma_shift = 32));
        assert!(valid(|c| c.score_clamp = 0) && !valid(|c| c.score_clamp = -1));
        // The default weights are 2 (fragmented read) and 1 (write).
        assert!(
            valid(|c| c.score_clamp = i32::MAX - 2) && !valid(|c| c.score_clamp = i32::MAX - 1)
        );
        assert!(valid(|c| c.frag_weight = -(i32::MAX - 8)) && !valid(|c| c.frag_weight = i32::MIN));
        assert!(!valid(|c| (c.score_clamp, c.frag_weight) = (i32::MAX, 0)));
    }
}
