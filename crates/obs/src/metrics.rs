//! A unified metrics registry with a Prometheus text renderer.
//!
//! The daemon's `/metrics` endpoint grew an ad-hoc exposition: every
//! counter hand-rendered its own `# HELP`/`# TYPE` block. This module
//! centralizes the machinery — a [`Registry`] of metric *families*
//! (name + help + type + optional label key), each holding zero or more
//! *series* (label value + storage) — so call sites keep only the two
//! things that are theirs: the family metadata and the handle bumps.
//!
//! Hot-path cost matches the rest of the crate: a [`Counter`] or
//! [`Gauge`] update is one relaxed atomic RMW on an `Arc`'d cell, a
//! [`Histogram`] observation three (bin, count, sum) — no locks, no
//! allocation. The registry's mutex is touched only at registration and
//! render time.
//!
//! Three storage shapes cover the daemon:
//!
//! * plain atomic series behind [`Counter`]/[`Gauge`] handles, including
//!   gauges recomputed at scrape time (`set` then render);
//! * **callback** series ([`Registry::callback_counter`]) reading a
//!   value owned elsewhere — e.g. the network core's connection
//!   counters (`smrseek_net::LoopStats`) — so families render zero before
//!   the source is wired in and live afterwards, without copying counters
//!   around;
//! * log₂ **histograms** ([`Histogram`]): bin *i* counts values in
//!   `[2^i, 2^(i+1))`, rendered as cumulative Prometheus buckets closing
//!   at `le = 2^(i+1)`, with zeros folded into every bucket. Every series
//!   renders the same fixed bucket set from its first scrape on,
//!   zero-valued before it observes anything.
//!
//! Values are `u64` throughout; families that are semantically seconds
//! store nanoseconds and pick a [`ValueFormat`] so the renderer divides
//! at the last moment (no float drift accumulates in the counters).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a series' `u64` value renders in the exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFormat {
    /// Plain integer (the default for counts).
    Int,
    /// Nanoseconds rendered as fractional seconds with 3 decimals
    /// (uptime-style gauges).
    NanosSeconds3,
    /// Nanoseconds rendered as fractional seconds with 9 decimals
    /// (accumulated engine time; full nanosecond precision survives).
    NanosSeconds9,
}

impl ValueFormat {
    fn render_into(self, out: &mut String, value: u64) {
        let _ = match self {
            ValueFormat::Int => write!(out, "{value}"),
            ValueFormat::NanosSeconds3 => write!(out, "{:.3}", value as f64 / 1e9),
            ValueFormat::NanosSeconds9 => write!(out, "{:.9}", value as f64 / 1e9),
        };
    }
}

/// A monotonically increasing counter handle. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: set to the current value (typically at scrape time).
/// Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Finite buckets every histogram series renders: `le = 2^1` through
/// `le = 2^25`, then `+Inf`. In microseconds the top bound is 33.6 s,
/// above the daemon's 10 s request deadline.
const HISTOGRAM_BUCKETS: usize = 25;

/// Shared state of one histogram series.
#[derive(Debug)]
struct HistogramState {
    /// Observations of exactly zero (below every power-of-two bin).
    zeros: AtomicU64,
    /// `bins[i]` counts observations in `[2^i, 2^(i+1))`.
    bins: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramState {
    fn new() -> HistogramState {
        HistogramState {
            zeros: AtomicU64::new(0),
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂ histogram handle. Cloning shares the series.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramState>);

impl Histogram {
    /// Records one observation: three relaxed atomic adds.
    pub fn observe(&self, value: u64) {
        match value {
            0 => self.0.zeros.fetch_add(1, Ordering::Relaxed),
            v => self.0.bins[63 - v.leading_zeros() as usize].fetch_add(1, Ordering::Relaxed),
        };
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

enum SeriesValue {
    Atomic(Arc<AtomicU64>),
    Callback(Box<dyn Fn() -> u64 + Send + Sync>),
    Histogram(Arc<HistogramState>),
}

struct Series {
    /// The label value, rendered with the family's label key; `None` for
    /// the single unlabeled series of a scalar family.
    label_value: Option<String>,
    value: SeriesValue,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyKind {
    fn type_name(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: FamilyKind,
    format: ValueFormat,
    label: Option<&'static str>,
    series: Vec<Series>,
}

/// An ordered collection of metric families with a Prometheus text
/// renderer. Families render in registration order; declaring a family
/// twice (same name) appends series to the first declaration instead of
/// duplicating `# HELP`/`# TYPE` blocks.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn with_family<R>(
        &self,
        name: &'static str,
        help: &'static str,
        kind: FamilyKind,
        format: ValueFormat,
        label: Option<&'static str>,
        f: impl FnOnce(&mut Family) -> R,
    ) -> R {
        let mut families = self.families.lock().expect("registry lock poisoned");
        if let Some(family) = families.iter_mut().find(|fam| fam.name == name) {
            assert_eq!(
                family.kind, kind,
                "{name}: family re-declared with a different type"
            );
            return f(family);
        }
        families.push(Family {
            name,
            help,
            kind,
            format,
            label,
            series: Vec::new(),
        });
        f(families.last_mut().expect("family just pushed"))
    }

    /// Declares a labeled family without adding any series: `# HELP` and
    /// `# TYPE` render, samples do not (the "configured but unused"
    /// shape, e.g. per-peer counters on a standalone daemon).
    pub fn declare_counter(&self, name: &'static str, help: &'static str, label: &'static str) {
        self.with_family(
            name,
            help,
            FamilyKind::Counter,
            ValueFormat::Int,
            Some(label),
            |_| {},
        );
    }

    /// An unlabeled counter (one series).
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_fmt(name, help, ValueFormat::Int)
    }

    /// An unlabeled counter with an explicit value format.
    pub fn counter_fmt(
        &self,
        name: &'static str,
        help: &'static str,
        format: ValueFormat,
    ) -> Counter {
        self.with_family(name, help, FamilyKind::Counter, format, None, |family| {
            let cell = Arc::new(AtomicU64::new(0));
            family.series.push(Series {
                label_value: None,
                value: SeriesValue::Atomic(Arc::clone(&cell)),
            });
            Counter(cell)
        })
    }

    /// One series of a labeled counter family; the family is declared on
    /// first use and later calls append series in call order.
    pub fn labeled_counter(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        value: &str,
    ) -> Counter {
        self.labeled_counter_fmt(name, help, label, value, ValueFormat::Int)
    }

    /// One series of a labeled counter family with an explicit format.
    pub fn labeled_counter_fmt(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        value: &str,
        format: ValueFormat,
    ) -> Counter {
        self.with_family(
            name,
            help,
            FamilyKind::Counter,
            format,
            Some(label),
            |family| {
                let cell = Arc::new(AtomicU64::new(0));
                family.series.push(Series {
                    label_value: Some(value.to_owned()),
                    value: SeriesValue::Atomic(Arc::clone(&cell)),
                });
                Counter(cell)
            },
        )
    }

    /// An unlabeled gauge (one series).
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_fmt(name, help, ValueFormat::Int)
    }

    /// An unlabeled gauge with an explicit value format.
    pub fn gauge_fmt(&self, name: &'static str, help: &'static str, format: ValueFormat) -> Gauge {
        self.with_family(name, help, FamilyKind::Gauge, format, None, |family| {
            let cell = Arc::new(AtomicU64::new(0));
            family.series.push(Series {
                label_value: None,
                value: SeriesValue::Atomic(Arc::clone(&cell)),
            });
            Gauge(cell)
        })
    }

    /// One series of a labeled gauge family.
    pub fn labeled_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        value: &str,
    ) -> Gauge {
        self.with_family(
            name,
            help,
            FamilyKind::Gauge,
            ValueFormat::Int,
            Some(label),
            |family| {
                let cell = Arc::new(AtomicU64::new(0));
                family.series.push(Series {
                    label_value: Some(value.to_owned()),
                    value: SeriesValue::Atomic(Arc::clone(&cell)),
                });
                Gauge(cell)
            },
        )
    }

    /// An unlabeled counter whose value is read from `read` at render
    /// time — for counters owned by another subsystem.
    pub fn callback_counter(
        &self,
        name: &'static str,
        help: &'static str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.with_family(
            name,
            help,
            FamilyKind::Counter,
            ValueFormat::Int,
            None,
            |family| {
                family.series.push(Series {
                    label_value: None,
                    value: SeriesValue::Callback(Box::new(read)),
                });
            },
        );
    }

    /// An unlabeled gauge whose value is read from `read` at render time.
    pub fn callback_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.with_family(
            name,
            help,
            FamilyKind::Gauge,
            ValueFormat::Int,
            None,
            |family| {
                family.series.push(Series {
                    label_value: None,
                    value: SeriesValue::Callback(Box::new(read)),
                });
            },
        );
    }

    /// One series of a labeled log₂-histogram family. It renders every
    /// bucket of the fixed set, zero-valued before its first observation.
    pub fn labeled_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        value: &str,
    ) -> Histogram {
        self.with_family(
            name,
            help,
            FamilyKind::Histogram,
            ValueFormat::Int,
            Some(label),
            |family| {
                let state = Arc::new(HistogramState::new());
                family.series.push(Series {
                    label_value: Some(value.to_owned()),
                    value: SeriesValue::Histogram(Arc::clone(&state)),
                });
                Histogram(state)
            },
        )
    }

    /// Renders the full Prometheus text exposition, families in
    /// registration order.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        self.render_into(&mut out);
        out
    }

    /// Renders into an existing buffer (the daemon prepends nothing, but
    /// a caller embedding the registry in a larger exposition can).
    pub fn render_into(&self, out: &mut String) {
        let families = self.families.lock().expect("registry lock poisoned");
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.type_name());
            for series in &family.series {
                match &series.value {
                    SeriesValue::Atomic(cell) => {
                        let value = cell.load(Ordering::Relaxed);
                        Self::scalar_line(out, family, series, value);
                    }
                    SeriesValue::Callback(read) => {
                        Self::scalar_line(out, family, series, read());
                    }
                    SeriesValue::Histogram(state) => {
                        Self::histogram_lines(out, family, series, state);
                    }
                }
            }
        }
    }

    fn label_suffix(family: &Family, series: &Series) -> String {
        match (&family.label, &series.label_value) {
            (Some(key), Some(value)) => {
                let mut escaped = String::with_capacity(value.len());
                for c in value.chars() {
                    match c {
                        '\\' => escaped.push_str("\\\\"),
                        '"' => escaped.push_str("\\\""),
                        '\n' => escaped.push_str("\\n"),
                        c => escaped.push(c),
                    }
                }
                format!("{{{key}=\"{escaped}\"}}")
            }
            _ => String::new(),
        }
    }

    fn scalar_line(out: &mut String, family: &Family, series: &Series, value: u64) {
        out.push_str(family.name);
        out.push_str(&Self::label_suffix(family, series));
        out.push(' ');
        family.format.render_into(out, value);
        out.push('\n');
    }

    fn histogram_lines(out: &mut String, family: &Family, series: &Series, state: &HistogramState) {
        // `{label="v"}` → `{label="v",le="..."}`; unlabeled → `{le="..."}`.
        let labels = Self::label_suffix(family, series);
        let inner = labels.strip_prefix('{').and_then(|s| s.strip_suffix('}'));
        let with_le = |le: &str| match inner {
            Some(inner) => format!("{{{inner},le=\"{le}\"}}"),
            None => format!("{{le=\"{le}\"}}"),
        };
        // Bin i covers [2^i, 2^(i+1)), closing at le = 2^(i+1); zeros
        // fall below every bin so they seed the cumulative count. The
        // bins above the fixed set count only towards `+Inf`, and so does
        // `_count`: both come from the same loads as the buckets, so the
        // buckets never exceed them.
        let mut cumulative = state.zeros.load(Ordering::Relaxed);
        for (i, bin) in state.bins.iter().enumerate() {
            cumulative += bin.load(Ordering::Relaxed);
            if i < HISTOGRAM_BUCKETS {
                let le = 2u64 << i;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    family.name,
                    with_le(&le.to_string())
                );
            }
        }
        let count = cumulative;
        let _ = writeln!(out, "{}_bucket{} {count}", family.name, with_le("+Inf"));
        let _ = writeln!(
            out,
            "{}_sum{labels} {}",
            family.name,
            state.sum.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "{}_count{labels} {count}", family.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_render_in_registration_order_with_one_header() {
        let registry = Registry::new();
        let hits = registry.counter("test_hits_total", "Hits.");
        let depth = registry.gauge("test_depth", "Depth.");
        let a = registry.labeled_counter("test_by_kind_total", "By kind.", "kind", "a");
        let b = registry.labeled_counter("test_by_kind_total", "By kind.", "kind", "b");
        hits.add(3);
        depth.set(7);
        a.inc();
        b.add(2);
        let text = registry.render();
        let expected = "# HELP test_hits_total Hits.\n\
                        # TYPE test_hits_total counter\n\
                        test_hits_total 3\n\
                        # HELP test_depth Depth.\n\
                        # TYPE test_depth gauge\n\
                        test_depth 7\n\
                        # HELP test_by_kind_total By kind.\n\
                        # TYPE test_by_kind_total counter\n\
                        test_by_kind_total{kind=\"a\"} 1\n\
                        test_by_kind_total{kind=\"b\"} 2\n";
        assert_eq!(text, expected);
        assert_eq!(hits.get(), 3);
        assert_eq!(depth.get(), 7);
    }

    #[test]
    fn every_series_renders_zero_valued_before_first_touch() {
        let registry = Registry::new();
        registry.counter("test_a_total", "A.");
        registry.labeled_counter("test_b_total", "B.", "k", "x");
        registry.gauge("test_c", "C.");
        registry.declare_counter("test_d_total", "D.", "peer");
        registry.labeled_histogram("test_e_us", "E.", "endpoint", "x");
        let text = registry.render();
        assert!(text.contains("test_a_total 0\n"));
        assert!(text.contains("test_b_total{k=\"x\"} 0\n"));
        assert!(text.contains("test_c 0\n"));
        // Declared-empty family: header only, no samples.
        assert!(text.contains("# TYPE test_d_total counter\n"));
        assert!(
            !text
                .lines()
                .any(|l| !l.starts_with('#') && l.starts_with("test_d_total")),
            "{text}"
        );
        // A histogram with no observations renders every bucket at zero.
        assert!(text.contains("# TYPE test_e_us histogram\n"));
        assert!(text.contains("test_e_us_bucket{endpoint=\"x\",le=\"2\"} 0\n"));
        assert!(text.contains("test_e_us_bucket{endpoint=\"x\",le=\"33554432\"} 0\n"));
        assert!(text.contains("test_e_us_bucket{endpoint=\"x\",le=\"+Inf\"} 0\n"));
        assert!(text.contains("test_e_us_sum{endpoint=\"x\"} 0\n"));
        assert!(text.contains("test_e_us_count{endpoint=\"x\"} 0\n"));
    }

    #[test]
    fn seconds_formats_render_from_nanoseconds() {
        let registry = Registry::new();
        let uptime = registry.gauge_fmt("test_uptime_seconds", "Up.", ValueFormat::NanosSeconds3);
        let phase = registry.labeled_counter_fmt(
            "test_phase_seconds_total",
            "Phase.",
            "phase",
            "lookup",
            ValueFormat::NanosSeconds9,
        );
        uptime.set(1_234_567_890);
        phase.add(2_000_000_005);
        let text = registry.render();
        assert!(text.contains("test_uptime_seconds 1.235\n"), "{text}");
        assert!(
            text.contains("test_phase_seconds_total{phase=\"lookup\"} 2.000000005\n"),
            "{text}"
        );
    }

    #[test]
    fn callback_series_read_live_values() {
        let registry = Registry::new();
        let source = Arc::new(AtomicU64::new(0));
        let reader = Arc::clone(&source);
        registry.callback_counter("test_cb_total", "CB.", move || {
            reader.load(Ordering::Relaxed)
        });
        registry.callback_gauge("test_cb_active", "Active.", || 5);
        assert!(registry.render().contains("test_cb_total 0\n"));
        source.store(42, Ordering::Relaxed);
        let text = registry.render();
        assert!(text.contains("test_cb_total 42\n"), "{text}");
        assert!(text.contains("test_cb_active 5\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_terminated() {
        let registry = Registry::new();
        let h = registry.labeled_histogram("test_lat_us", "Latency.", "endpoint", "healthz");
        registry.labeled_histogram("test_lat_us", "Latency.", "endpoint", "other");
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(900);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 906);
        let text = registry.render();
        // 0 seeds the cumulative count; 3 lands in [2,4) → le="4";
        // 900 in [512,1024) → le="1024".
        assert!(
            text.contains("test_lat_us_bucket{endpoint=\"healthz\",le=\"4\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("test_lat_us_bucket{endpoint=\"healthz\",le=\"1024\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("test_lat_us_bucket{endpoint=\"healthz\",le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("test_lat_us_sum{endpoint=\"healthz\"} 906\n"));
        assert!(text.contains("test_lat_us_count{endpoint=\"healthz\"} 4\n"));
        // The untouched series renders zero-valued.
        assert!(
            text.contains("test_lat_us_count{endpoint=\"other\"} 0\n"),
            "{text}"
        );
    }

    /// The `le` values of `name`'s bucket lines, in render order.
    fn bucket_bounds(text: &str, name: &str) -> Vec<String> {
        text.lines()
            .filter(|line| line.starts_with(&format!("{name}_bucket{{")))
            .filter_map(|line| line.split("le=\"").nth(1))
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn histogram_bucket_set_is_fixed() {
        let expected: Vec<String> = (1..=25)
            .map(|k| (1u64 << k).to_string())
            .chain(["+Inf".to_owned()])
            .collect();
        let fresh = || {
            let registry = Registry::new();
            let h = registry.labeled_histogram("test_fix_us", "Fixed.", "k", "v");
            (registry, h)
        };
        let (a, h) = fresh();
        let (b, _) = fresh();
        let before = a.render();
        assert_eq!(before, b.render(), "two fresh registries");
        assert_eq!(bucket_bounds(&before, "test_fix_us"), expected);
        // Observations inside, at the edge of and above the fixed set
        // change counts, never the bounds.
        for value in [0, 14, 1 << 24, 1 << 25, u64::from(u32::MAX)] {
            h.observe(value);
        }
        let after = a.render();
        assert_eq!(bucket_bounds(&after, "test_fix_us"), expected);
        assert!(after.contains("test_fix_us_bucket{k=\"v\",le=\"16\"} 2\n"));
        assert!(after.contains("test_fix_us_bucket{k=\"v\",le=\"33554432\"} 3\n"));
        assert!(after.contains("test_fix_us_bucket{k=\"v\",le=\"+Inf\"} 5\n"));
        assert!(after.contains("test_fix_us_count{k=\"v\"} 5\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry.labeled_counter("test_esc_total", "Esc.", "k", "a\"b\\c\nd");
        let text = registry.render();
        assert!(
            text.contains("test_esc_total{k=\"a\\\"b\\\\c\\nd\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    fn handles_are_shared_clones() {
        let registry = Registry::new();
        let c = registry.counter("test_shared_total", "Shared.");
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        let h = registry.labeled_histogram("test_shared_us", "Shared.", "k", "v");
        let h2 = h.clone();
        h.observe(1);
        h2.observe(2);
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[should_panic(expected = "re-declared with a different type")]
    fn kind_conflicts_are_programming_errors() {
        let registry = Registry::new();
        registry.counter("test_conflict", "A.");
        registry.gauge("test_conflict", "A.");
    }
}
