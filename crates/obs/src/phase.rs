//! Engine phase accounting: where simulation time goes, per phase.
//!
//! The engine attributes each record's processing to a small fixed set of
//! [`Phase`]s (extent lookup, seek accounting, policy classification) and
//! accumulates durations plus call counts into a
//! [`PhaseTotals`]. Totals are plain mergeable values — the runner sums
//! them across matrix cells, the daemon folds them into `/metrics` — and
//! never enter serialized reports, which must stay byte-deterministic.
//!
//! Every replay accounts its phases, in every process. Timing every
//! record would cost a clock read per phase per record, so the engine
//! times the per-record phases of a fixed sample only: the last record of
//! every [`SAMPLE_INTERVAL`] (logical index `i` with
//! `i % SAMPLE_INTERVAL == SAMPLE_INTERVAL - 1`) and the run's last
//! record, and scales the sampled nanoseconds by the interval once when
//! the run finishes ([`PhaseTotals::scaled`]). An `n`-record run times
//! `⌈n / SAMPLE_INTERVAL⌉` records, so every non-empty run has phases,
//! and none of them is the run's cold first record. Call counts stay the
//! intervals kept, so they are deterministic.

use std::time::{Duration, Instant};

/// The engine times the per-record phases of one record in this many
/// (see the [module docs](self)).
pub const SAMPLE_INTERVAL: u64 = 1 << 6;

/// Whether the record at logical index `i` of an `n`-record run is in
/// the timed sample: the last of its interval, or the run's last record.
#[inline]
pub fn sampled(i: u64, n: u64) -> bool {
    (i + 1).is_multiple_of(SAMPLE_INTERVAL) || i + 1 == n
}

/// Whether the record at logical index `i` of an `n`-record run is the
/// one before a sampled record. The engine runs it through the timed
/// step too and drops its times: a sampled record that ran cold, after a
/// stretch of untimed ones, would charge the cold start to its phases.
#[inline]
pub fn warms_up(i: u64, n: u64) -> bool {
    sampled(i + 1, n)
}

/// A stage of per-record simulation work that the engine accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Translation-layer work: extent-map lookup and remapping.
    Lookup,
    /// Seek detection and distance/series bookkeeping.
    Seek,
    /// Adaptive-policy work: per-region heat classification and gate
    /// derivation.
    Classify,
}

impl Phase {
    /// Every phase, in the order used for indexing and display.
    pub const ALL: [Phase; 3] = [Phase::Lookup, Phase::Seek, Phase::Classify];

    /// Stable lower-case label, used as the `phase` metric label and in
    /// profile output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Lookup => "lookup",
            Phase::Seek => "seek",
            Phase::Classify => "classify",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Lookup => 0,
            Phase::Seek => 1,
            Phase::Classify => 2,
        }
    }
}

/// Accumulated wall time and call counts per [`Phase`].
///
/// Totals merge associatively, so per-cell totals from parallel runner
/// threads sum into matrix totals in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    nanos: [u64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
}

impl PhaseTotals {
    /// Adds one timed interval to `phase`.
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        let i = phase.index();
        self.nanos[i] = self.nanos[i].saturating_add(elapsed.as_nanos() as u64);
        self.calls[i] += 1;
    }

    /// Records the time since `*mark` under `phase` and moves `mark` to
    /// now: consecutive laps time consecutive phases with one clock read
    /// each. Does nothing without a mark, so a step that never sets one
    /// compiles to no timing code.
    #[inline]
    pub fn lap(&mut self, phase: Phase, mark: &mut Option<Instant>) {
        if let Some(t) = mark {
            let now = Instant::now();
            self.record(phase, now - *t);
            *t = now;
        }
    }

    /// These totals with every nanosecond multiplied by `factor` and the
    /// call counts kept: a sample's totals estimating the whole run's.
    pub fn scaled(&self, factor: u64) -> PhaseTotals {
        PhaseTotals {
            nanos: self.nanos.map(|x| x.saturating_mul(factor)),
            calls: self.calls,
        }
    }

    /// Folds another set of totals into this one.
    pub fn merge(&mut self, other: &PhaseTotals) {
        for i in 0..Phase::ALL.len() {
            self.nanos[i] = self.nanos[i].saturating_add(other.nanos[i]);
            self.calls[i] = self.calls[i].saturating_add(other.calls[i]);
        }
    }

    /// Share `k` of these totals split `n` ways: every nanosecond and
    /// call count divided by `n`, the remainders on share 0. The `n`
    /// shares merge back into exactly these totals.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn share(&self, k: usize, n: usize) -> PhaseTotals {
        let n = n as u64;
        let part = |x: u64| x / n + if k == 0 { x % n } else { 0 };
        PhaseTotals {
            nanos: self.nanos.map(part),
            calls: self.calls.map(part),
        }
    }

    /// Accumulated nanoseconds in `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Number of intervals recorded for `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// Accumulated time in `phase` as floating-point seconds.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.nanos[phase.index()] as f64 / 1e9
    }

    /// Sum of accumulated nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().copied().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_zero(&self) -> bool {
        self.total_nanos() == 0 && self.calls.iter().all(|&c| c == 0)
    }

    /// Every phase with its accumulated `(nanos, calls)`, in
    /// [`Phase::ALL`] order — the iteration consumers (SSE progress
    /// events, exporters) use to serialize totals without knowing the
    /// phase set.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64, u64)> + '_ {
        Phase::ALL
            .into_iter()
            .map(|phase| (phase, self.nanos(phase), self.calls(phase)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = PhaseTotals::default();
        assert!(a.is_zero());
        a.record(Phase::Lookup, Duration::from_nanos(100));
        a.record(Phase::Lookup, Duration::from_nanos(50));
        a.record(Phase::Seek, Duration::from_nanos(7));
        let mut b = PhaseTotals::default();
        b.record(Phase::Lookup, Duration::from_nanos(1));
        b.record(Phase::Classify, Duration::from_nanos(9));
        a.merge(&b);
        assert_eq!(a.nanos(Phase::Lookup), 151);
        assert_eq!(a.calls(Phase::Lookup), 3);
        assert_eq!(a.nanos(Phase::Seek), 7);
        assert_eq!(a.nanos(Phase::Classify), 9);
        assert_eq!(a.total_nanos(), 167);
        assert!(!a.is_zero());
    }

    #[test]
    fn shares_merge_back_exactly() {
        let mut t = PhaseTotals::default();
        t.record(Phase::Lookup, Duration::from_nanos(100));
        t.record(Phase::Seek, Duration::from_nanos(7));
        let mut merged = PhaseTotals::default();
        for k in 0..3 {
            merged.merge(&t.share(k, 3));
        }
        assert_eq!(merged, t);
        assert_eq!(t.share(0, 3).nanos(Phase::Lookup), 34);
        assert_eq!(t.share(2, 3).nanos(Phase::Lookup), 33);
        assert_eq!(t.share(0, 3).calls(Phase::Seek), 1);
        assert_eq!(t.share(1, 3).calls(Phase::Seek), 0);
        assert_eq!(t.share(0, 1), t);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut x = PhaseTotals::default();
        x.record(Phase::Seek, Duration::from_nanos(3));
        let mut y = PhaseTotals::default();
        y.record(Phase::Classify, Duration::from_nanos(5));
        let mut xy = x;
        xy.merge(&y);
        let mut yx = y;
        yx.merge(&x);
        assert_eq!(xy, yx);
    }

    #[test]
    fn labels_match_all_order() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["lookup", "seek", "classify"]);
    }

    #[test]
    fn iter_yields_all_phases_in_order() {
        let mut t = PhaseTotals::default();
        t.record(Phase::Lookup, Duration::from_nanos(40));
        t.record(Phase::Lookup, Duration::from_nanos(2));
        let pairs: Vec<(Phase, u64, u64)> = t.iter().collect();
        assert_eq!(pairs.len(), Phase::ALL.len());
        assert_eq!(pairs[0], (Phase::Lookup, 42, 2));
        assert_eq!(pairs[1], (Phase::Seek, 0, 0));
        let order: Vec<Phase> = pairs.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(order, Phase::ALL.to_vec());
    }

    #[test]
    fn scaled_multiplies_nanos_and_keeps_calls() {
        let mut t = PhaseTotals::default();
        t.record(Phase::Lookup, Duration::from_nanos(3));
        t.record(Phase::Seek, Duration::from_nanos(5));
        let s = t.scaled(SAMPLE_INTERVAL);
        assert_eq!(s.nanos(Phase::Lookup), 3 * SAMPLE_INTERVAL);
        assert_eq!(s.nanos(Phase::Seek), 5 * SAMPLE_INTERVAL);
        assert_eq!(s.calls(Phase::Lookup), 1);
        assert_eq!(t.scaled(1), t);
    }

    #[test]
    fn laps_time_consecutive_phases() {
        let mut t = PhaseTotals::default();
        let mut none = None;
        t.lap(Phase::Lookup, &mut none);
        assert!(t.is_zero(), "no mark, nothing timed");
        let mut mark = Some(Instant::now());
        t.lap(Phase::Lookup, &mut mark);
        t.lap(Phase::Seek, &mut mark);
        assert_eq!(t.calls(Phase::Lookup), 1);
        assert_eq!(t.calls(Phase::Seek), 1);
    }

    #[test]
    fn the_sample_ends_each_interval_and_the_run() {
        assert!(SAMPLE_INTERVAL.is_power_of_two());
        let n = 3 * SAMPLE_INTERVAL + 5;
        let last = SAMPLE_INTERVAL - 1;
        assert!(!sampled(0, n), "the cold first record is never timed");
        assert!(sampled(last, n) && sampled(2 * SAMPLE_INTERVAL - 1, n));
        assert!(!sampled(SAMPLE_INTERVAL, n));
        assert!(sampled(n - 1, n), "the run's last record is timed");
        assert!(warms_up(last - 1, n) && warms_up(n - 2, n) && !warms_up(0, n));
        // ⌈n / SAMPLE_INTERVAL⌉ timed records, whatever n is.
        for n in [1, 5, SAMPLE_INTERVAL, SAMPLE_INTERVAL + 1, n] {
            let timed = (0..n).filter(|&i| sampled(i, n)).count() as u64;
            assert_eq!(timed, n.div_ceil(SAMPLE_INTERVAL), "{n} records");
        }
        assert!(sampled(0, 1), "a one-record run times its only record");
    }

    #[test]
    fn seconds_converts_nanos() {
        let mut t = PhaseTotals::default();
        t.record(Phase::Seek, Duration::from_millis(1500));
        assert!((t.seconds(Phase::Seek) - 1.5).abs() < 1e-9);
    }
}
