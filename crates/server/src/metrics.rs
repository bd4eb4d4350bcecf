//! Daemon metrics and their Prometheus text exposition (`GET /metrics`).
//!
//! Every family lives in one [`smrseek_obs::Registry`]; this module keeps
//! only what is the daemon's — family names, help strings, and the typed
//! handles the request path bumps. Counters are relaxed atomics behind
//! registry handles; per-endpoint latency is a registry log₂ histogram
//! (three relaxed adds per completed request, no locks). Job-state gauges
//! are not tracked incrementally at all — they are recomputed from the
//! job table at scrape time, which cannot drift from the truth.
//!
//! Exposition order, family names, label sets, and value formats are
//! byte-compatible with the pre-registry hand-rendered exposition (the
//! golden test below pins it), so dashboards survive the migration.

use crate::jobs::{JobSnapshot, JobState};
use smrseek_cache::TierStats;
use smrseek_net::LoopStats;
use smrseek_obs::{Counter, Gauge, Histogram, Phase, PhaseTotals, Registry, ValueFormat};
use smrseek_policy::PolicyStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The API surface, as labeled in per-endpoint metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/jobs`
    JobsPost,
    /// `GET /v1/jobs/<id>`
    JobsGet,
    /// `GET /v1/jobs/<id>/result`
    JobResult,
    /// `GET /v1/jobs/<id>/events` (SSE subscriptions; latency is the
    /// time to start the stream, not its lifetime).
    JobEvents,
    /// `GET /v1/trace/<trace-id>` (distributed-trace export).
    Trace,
    /// Anything else (404s, bad methods).
    Other,
}

impl Endpoint {
    /// All endpoints, in exposition order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::JobsPost,
        Endpoint::JobsGet,
        Endpoint::JobResult,
        Endpoint::JobEvents,
        Endpoint::Trace,
        Endpoint::Other,
    ];

    /// The metric label for this endpoint.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::JobsPost => "jobs_post",
            Endpoint::JobsGet => "jobs_get",
            Endpoint::JobResult => "job_result",
            Endpoint::JobEvents => "job_events",
            Endpoint::Trace => "trace",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Metrics => 1,
            Endpoint::JobsPost => 2,
            Endpoint::JobsGet => 3,
            Endpoint::JobResult => 4,
            Endpoint::JobEvents => 5,
            Endpoint::Trace => 6,
            Endpoint::Other => 7,
        }
    }
}

const FORWARDED_HELP: &str = "Submissions forwarded to their consistent-hash owner, by peer.";
const FORWARD_ERRORS_HELP: &str = "Failed submission forwards, by peer.";

/// Per-peer forwarding counters for a sharded fleet.
struct PeerCounters {
    addr: String,
    forwarded: Counter,
    errors: Counter,
}

/// All daemon metrics. One instance lives in the server state; every
/// method is safe to call from any thread.
pub struct Metrics {
    registry: Registry,
    /// Construction time, for the uptime gauge (stored as nanoseconds,
    /// rendered as fractional seconds at scrape time).
    started: Instant,
    uptime: Gauge,
    /// Scrape-time gauges recomputed from the job snapshot, indexed in
    /// [`JobState::ALL`] order.
    jobs_by_state: [Gauge; 4],
    queue_depth: Gauge,
    queue_capacity: Gauge,
    traces_registered: Gauge,
    records_replayed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    jobs_rejected: Counter,
    /// Engine phase time from finished jobs, in nanoseconds, indexed in
    /// [`Phase::ALL`] order (rendered as seconds with 9 decimals).
    engine_phase_nanos: [Counter; Phase::ALL.len()],
    /// Adaptive-policy gate flips from finished jobs, indexed
    /// defrag / prefetch / cache (the `mechanism` label order).
    policy_gate_flips: [Counter; 3],
    /// Multi-level cache lookups from finished jobs, indexed RAM-hit /
    /// flash-hit (the `tier` label order), plus total misses.
    cache_tier_hits: [Counter; 2],
    cache_tier_misses: Counter,
    /// Connection counters, wired in once the server starts (absent in
    /// in-process tests; the callback series render as zeros then).
    net: Arc<OnceLock<Arc<LoopStats>>>,
    /// Fleet peers this daemon forwards to, registered once at startup so
    /// every per-peer family exports zero-valued samples from scrape one.
    peers: OnceLock<Vec<PeerCounters>>,
    endpoint_requests: [Counter; 8],
    endpoint_latency: [Histogram; 8],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics; uptime counts from this call. Every
    /// family is registered here, in exposition order.
    pub fn new() -> Self {
        let registry = Registry::new();

        registry
            .labeled_gauge(
                "smrseekd_build_info",
                "Build metadata; always 1.",
                "version",
                env!("CARGO_PKG_VERSION"),
            )
            .set(1);
        let uptime = registry.gauge_fmt(
            "smrseekd_uptime_seconds",
            "Seconds since the daemon started.",
            ValueFormat::NanosSeconds3,
        );
        let jobs_by_state = JobState::ALL.map(|state| {
            registry.labeled_gauge(
                "smrseekd_jobs",
                "Jobs by lifecycle state.",
                "state",
                state.label(),
            )
        });
        let queue_depth = registry.gauge("smrseekd_queue_depth", "Jobs waiting for a worker.");
        let queue_capacity = registry.gauge("smrseekd_queue_capacity", "Configured queue bound.");
        let traces_registered = registry.gauge(
            "smrseekd_traces_registered",
            "Distinct traces held open by the registry.",
        );
        let records_replayed = registry.counter(
            "smrseekd_records_replayed_total",
            "Logical records replayed by finished jobs.",
        );
        let cache_hits = registry.counter(
            "smrseekd_result_cache_hits_total",
            "Submissions served by an existing job.",
        );
        let cache_misses = registry.counter(
            "smrseekd_result_cache_misses_total",
            "Submissions that enqueued new work.",
        );
        let jobs_rejected = registry.counter(
            "smrseekd_jobs_rejected_total",
            "Submissions refused with 503 (queue full).",
        );
        let engine_phase_nanos = Phase::ALL.map(|phase| {
            registry.labeled_counter_fmt(
                "smrseekd_engine_phase_seconds_total",
                "Simulation engine time by phase, summed over finished jobs.",
                "phase",
                phase.label(),
                ValueFormat::NanosSeconds9,
            )
        });
        let policy_gate_flips = ["defrag", "prefetch", "cache"].map(|mechanism| {
            registry.labeled_counter(
                "smrseekd_policy_gate_flips_total",
                "Adaptive-policy gate transitions, by gated mechanism, summed over finished jobs.",
                "mechanism",
                mechanism,
            )
        });
        let cache_tier_hits = ["ram", "flash"].map(|tier| {
            registry.labeled_counter(
                "smrseekd_cache_tier_hits_total",
                "Selective-cache lookups served, by tier, summed over finished jobs.",
                "tier",
                tier,
            )
        });
        let cache_tier_misses = registry.counter(
            "smrseekd_cache_tier_misses_total",
            "Selective-cache lookups no tier could serve.",
        );

        // Connection counters render through callbacks reading the
        // server's own atomics: zeros until `set_net_stats` wires the
        // source in, live afterwards, no copying either way.
        let net: Arc<OnceLock<Arc<LoopStats>>> = Arc::new(OnceLock::new());
        let read = |field: fn(&LoopStats) -> &AtomicU64| {
            let source = Arc::clone(&net);
            move || {
                source
                    .get()
                    .map_or(0, |stats| field(stats).load(Ordering::Relaxed))
            }
        };
        registry.callback_counter(
            "smrseekd_connections_accepted_total",
            "Connections accepted by the event loop.",
            read(|stats| &stats.accepted),
        );
        registry.callback_counter(
            "smrseekd_accept_errors_total",
            "accept(2) failures (e.g. fd exhaustion).",
            read(|stats| &stats.accept_errors),
        );
        registry.callback_gauge(
            "smrseekd_connections_active",
            "Currently open client connections.",
            read(|stats| &stats.active),
        );
        registry.callback_counter(
            "smrseekd_connections_reaped_total",
            "Connections closed by the idle/slow-client timeout.",
            read(|stats| &stats.reaped_idle),
        );
        registry.callback_counter(
            "smrseekd_connections_refused_total",
            "Connections answered 503 because the connection cap was reached.",
            read(|stats| &stats.refused),
        );
        registry.callback_gauge(
            "smrseekd_sse_streams_active",
            "Connections currently following a job event stream.",
            read(|stats| &stats.streaming),
        );

        // Per-peer families declare up front so a standalone daemon (no
        // peers) still exposes stable `# HELP`/`# TYPE` headers.
        registry.declare_counter("smrseekd_forwarded_total", FORWARDED_HELP, "peer");
        registry.declare_counter("smrseekd_forward_errors_total", FORWARD_ERRORS_HELP, "peer");

        let endpoint_requests = Endpoint::ALL.map(|endpoint| {
            registry.labeled_counter(
                "smrseekd_http_requests_total",
                "Requests served, by endpoint.",
                "endpoint",
                endpoint.label(),
            )
        });
        let endpoint_latency = Endpoint::ALL.map(|endpoint| {
            registry.labeled_histogram(
                "smrseekd_http_request_duration_us",
                "Request latency in microseconds.",
                "endpoint",
                endpoint.label(),
            )
        });

        Metrics {
            registry,
            started: Instant::now(),
            uptime,
            jobs_by_state,
            queue_depth,
            queue_capacity,
            traces_registered,
            records_replayed,
            cache_hits,
            cache_misses,
            jobs_rejected,
            engine_phase_nanos,
            policy_gate_flips,
            cache_tier_hits,
            cache_tier_misses,
            net,
            peers: OnceLock::new(),
            endpoint_requests,
            endpoint_latency,
        }
    }

    /// The registry behind the exposition, for callers registering extra
    /// families (they render after the daemon's own, in call order).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Wires the server's connection counters into the exposition. The
    /// daemon calls this once after `smrseek_net::serve` returns; later
    /// calls are ignored.
    pub fn set_net_stats(&self, stats: Arc<LoopStats>) {
        let _ = self.net.set(stats);
    }

    /// Registers the fleet peers this daemon may forward to (their
    /// advertised addresses, excluding itself). Call once at startup;
    /// later calls are ignored.
    pub fn register_peers(&self, addrs: &[String]) {
        if self.peers.get().is_some() {
            return;
        }
        let peers = addrs
            .iter()
            .map(|addr| PeerCounters {
                addr: addr.clone(),
                forwarded: self.registry.labeled_counter(
                    "smrseekd_forwarded_total",
                    FORWARDED_HELP,
                    "peer",
                    addr,
                ),
                errors: self.registry.labeled_counter(
                    "smrseekd_forward_errors_total",
                    FORWARD_ERRORS_HELP,
                    "peer",
                    addr,
                ),
            })
            .collect();
        let _ = self.peers.set(peers);
    }

    /// A submission was forwarded to `peer` (its consistent-hash owner).
    pub fn forwarded(&self, peer: &str) {
        self.bump_peer(peer, |p| &p.forwarded);
    }

    /// A forward to `peer` failed (refused, timed out, or bad relay).
    pub fn forward_error(&self, peer: &str) {
        self.bump_peer(peer, |p| &p.errors);
    }

    fn bump_peer(&self, peer: &str, field: impl Fn(&PeerCounters) -> &Counter) {
        if let Some(peers) = self.peers.get() {
            if let Some(stats) = peers.iter().find(|p| p.addr == peer) {
                field(stats).inc();
            }
        }
    }

    /// Current `(forwarded, errors)` counters for `peer`, when registered.
    pub fn forward_counts(&self, peer: &str) -> Option<(u64, u64)> {
        self.peers.get().and_then(|peers| {
            peers
                .iter()
                .find(|p| p.addr == peer)
                .map(|p| (p.forwarded.get(), p.errors.get()))
        })
    }

    /// Every registered peer with its `(forwarded, errors)` counters, in
    /// registration order (the `/healthz` fleet view walks this).
    pub fn peer_counts(&self) -> Vec<(String, u64, u64)> {
        self.peers.get().map_or_else(Vec::new, |peers| {
            peers
                .iter()
                .map(|p| (p.addr.clone(), p.forwarded.get(), p.errors.get()))
                .collect()
        })
    }

    /// A submission matched an existing job (any state).
    pub fn cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// A submission enqueued new work.
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// A submission was refused because the queue was full.
    pub fn rejected(&self) {
        self.jobs_rejected.inc();
    }

    /// A worker finished replaying `records` logical records.
    pub fn replayed(&self, records: u64) {
        self.records_replayed.add(records);
    }

    /// Total logical records replayed so far.
    pub fn replayed_total(&self) -> u64 {
        self.records_replayed.get()
    }

    /// Current cache hit/miss counters (used by tests and the CLI).
    pub fn cache_counts(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }

    /// Folds one finished job's engine phase totals into the daemon-wide
    /// phase counters.
    pub fn engine_phases(&self, phases: &PhaseTotals) {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let nanos = phases.nanos(*phase);
            if nanos > 0 {
                self.engine_phase_nanos[i].add(nanos);
            }
        }
    }

    /// Folds one finished job's adaptive-policy decision counters into the
    /// daemon-wide gate-flip totals.
    pub fn policy_stats(&self, stats: &PolicyStats) {
        let flips = [
            stats.defrag_gate_flips,
            stats.prefetch_gate_flips,
            stats.cache_gate_flips,
        ];
        for (counter, flip) in self.policy_gate_flips.iter().zip(flips) {
            if flip > 0 {
                counter.add(flip);
            }
        }
    }

    /// Folds one finished job's multi-level cache counters into the
    /// daemon-wide per-tier totals.
    pub fn tier_stats(&self, stats: &TierStats) {
        let hits = [stats.ram_hits, stats.flash_hits];
        for (counter, hit) in self.cache_tier_hits.iter().zip(hits) {
            if hit > 0 {
                counter.add(hit);
            }
        }
        if stats.misses > 0 {
            self.cache_tier_misses.add(stats.misses);
        }
    }

    /// Records one served request on `endpoint` taking `elapsed`.
    pub fn observe(&self, endpoint: Endpoint, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.endpoint_latency[endpoint.index()].observe(us);
        self.endpoint_requests[endpoint.index()].inc();
    }

    /// Renders the Prometheus text exposition. `jobs` is a fresh snapshot
    /// of the job table; `traces` the registry size. Scrape-time gauges
    /// (uptime, job states, queue) are recomputed here, then the registry
    /// renders every family in registration order.
    pub fn render(&self, jobs: &JobSnapshot, traces: usize) -> String {
        self.uptime
            .set(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        for (gauge, state) in self.jobs_by_state.iter().zip(JobState::ALL) {
            gauge.set(jobs.count(state));
        }
        self.queue_depth.set(jobs.queue_depth as u64);
        self.queue_capacity.set(jobs.capacity as u64);
        self.traces_registered.set(traces as u64);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.cache_miss();
        m.cache_hit();
        m.cache_hit();
        m.rejected();
        m.replayed(1000);
        m.replayed(500);
        assert_eq!(m.cache_counts(), (2, 1));
        let text = m.render(&JobSnapshot::default(), 3);
        assert!(text.contains("smrseekd_result_cache_hits_total 2"));
        assert!(text.contains("smrseekd_result_cache_misses_total 1"));
        assert!(text.contains("smrseekd_jobs_rejected_total 1"));
        assert!(text.contains("smrseekd_records_replayed_total 1500"));
        assert!(text.contains("smrseekd_traces_registered 3"));
    }

    #[test]
    fn job_gauges_come_from_the_snapshot() {
        let m = Metrics::new();
        let snap = JobSnapshot {
            queued: 2,
            running: 1,
            done: 4,
            failed: 1,
            queue_depth: 2,
            capacity: 16,
        };
        let text = m.render(&snap, 0);
        assert!(text.contains("smrseekd_jobs{state=\"queued\"} 2"));
        assert!(text.contains("smrseekd_jobs{state=\"running\"} 1"));
        assert!(text.contains("smrseekd_jobs{state=\"done\"} 4"));
        assert!(text.contains("smrseekd_jobs{state=\"failed\"} 1"));
        assert!(text.contains("smrseekd_queue_depth 2"));
        assert!(text.contains("smrseekd_queue_capacity 16"));
    }

    #[test]
    fn build_info_and_uptime_are_exported() {
        let m = Metrics::new();
        let text = m.render(&JobSnapshot::default(), 0);
        assert!(text.contains(&format!(
            "smrseekd_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("smrseekd_uptime_seconds "));
    }

    #[test]
    fn engine_phase_seconds_accumulate_across_jobs() {
        let m = Metrics::new();
        let text = m.render(&JobSnapshot::default(), 0);
        // All phases are exported even before any job finishes.
        assert!(text.contains("smrseekd_engine_phase_seconds_total{phase=\"lookup\"} 0.0"));

        let mut a = PhaseTotals::default();
        a.record(Phase::Lookup, Duration::from_millis(1500));
        a.record(Phase::Seek, Duration::from_nanos(5));
        let mut b = PhaseTotals::default();
        b.record(Phase::Lookup, Duration::from_millis(500));
        m.engine_phases(&a);
        m.engine_phases(&b);
        let text = m.render(&JobSnapshot::default(), 0);
        assert!(text.contains("smrseekd_engine_phase_seconds_total{phase=\"lookup\"} 2.000000000"));
        assert!(text.contains("smrseekd_engine_phase_seconds_total{phase=\"seek\"} 0.000000005"));
        assert!(
            text.contains("smrseekd_engine_phase_seconds_total{phase=\"classify\"} 0.000000000")
        );
    }

    #[test]
    fn policy_and_tier_counters_accumulate_with_labels() {
        let m = Metrics::new();
        let text = m.render(&JobSnapshot::default(), 0);
        // Families are present (zero-valued) before any adaptive job runs.
        assert!(text.contains("smrseekd_policy_gate_flips_total{mechanism=\"defrag\"} 0"));
        assert!(text.contains("smrseekd_cache_tier_hits_total{tier=\"flash\"} 0"));
        assert!(text.contains("smrseekd_cache_tier_misses_total 0"));

        let stats = PolicyStats {
            defrag_gate_flips: 3,
            prefetch_gate_flips: 2,
            cache_gate_flips: 1,
            ..PolicyStats::default()
        };
        m.policy_stats(&stats);
        m.policy_stats(&stats);
        let tiers = TierStats {
            ram_hits: 10,
            flash_hits: 4,
            misses: 7,
            ..TierStats::default()
        };
        m.tier_stats(&tiers);
        let text = m.render(&JobSnapshot::default(), 0);
        assert!(text.contains("smrseekd_policy_gate_flips_total{mechanism=\"defrag\"} 6"));
        assert!(text.contains("smrseekd_policy_gate_flips_total{mechanism=\"prefetch\"} 4"));
        assert!(text.contains("smrseekd_policy_gate_flips_total{mechanism=\"cache\"} 2"));
        assert!(text.contains("smrseekd_cache_tier_hits_total{tier=\"ram\"} 10"));
        assert!(text.contains("smrseekd_cache_tier_hits_total{tier=\"flash\"} 4"));
        assert!(text.contains("smrseekd_cache_tier_misses_total 7"));
    }

    /// An offline promlint: the checks `promtool check metrics` applies to
    /// an exposition, run against a render with every family populated.
    #[test]
    fn exposition_passes_promlint() {
        let m = Metrics::new();
        m.cache_hit();
        m.cache_miss();
        m.rejected();
        m.replayed(10);
        m.policy_stats(&PolicyStats {
            defrag_gate_flips: 1,
            ..PolicyStats::default()
        });
        m.tier_stats(&TierStats {
            ram_hits: 1,
            flash_hits: 1,
            misses: 1,
            ..TierStats::default()
        });
        let mut phases = PhaseTotals::default();
        phases.record(Phase::Classify, Duration::from_millis(2));
        m.engine_phases(&phases);
        for endpoint in Endpoint::ALL {
            m.observe(endpoint, Duration::from_micros(5));
        }
        // Populate the connection and fleet families too, so the lint
        // walks every sample this daemon can ever emit.
        let net = Arc::new(LoopStats::default());
        net.accepted
            .fetch_add(9, std::sync::atomic::Ordering::Relaxed);
        net.streaming
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        m.set_net_stats(net);
        m.register_peers(&["127.0.0.1:9001".to_owned()]);
        m.forwarded("127.0.0.1:9001");
        m.forward_error("127.0.0.1:9001");
        let text = m.render(&JobSnapshot::default(), 1);

        let name_ok = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut helped = std::collections::HashSet::new();
        let mut typed = std::collections::HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has text");
                assert!(name_ok(name), "bad metric name {name}");
                assert!(!help.trim().is_empty(), "{name} has empty help");
                assert!(helped.insert(name.to_owned()), "duplicate HELP for {name}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has kind");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "{name}: unknown type {kind}"
                );
                assert!(helped.contains(name), "{name}: TYPE without preceding HELP");
                assert!(
                    typed.insert(name.to_owned(), kind.to_owned()).is_none(),
                    "duplicate TYPE for {name}"
                );
                if kind == "counter" {
                    assert!(
                        name.ends_with("_total"),
                        "counter {name} must end in _total"
                    );
                }
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line: {line}");
            // A sample: name{labels} value — must belong to a declared
            // family (histograms declare via their base name).
            let name_end = line.find(['{', ' ']).expect("sample has a name");
            let name = &line[..name_end];
            assert!(name_ok(name), "bad sample name {name}");
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    (typed.get(base).map(String::as_str) == Some("histogram")).then_some(base)
                })
                .unwrap_or(name);
            assert!(
                typed.contains_key(family),
                "sample {name} has no TYPE declaration"
            );
            let value = line.rsplit(' ').next().expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "{name}: unparsable value {value}"
            );
            if let Some(labels) = line[name_end..].strip_prefix('{') {
                let labels = labels.split_once('}').expect("labels close").0;
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label has =");
                    assert!(name_ok(k), "bad label name {k}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "{name}: unquoted label value {v}"
                    );
                }
            }
        }
        // Every family the daemon exports is present and correctly typed.
        for family in [
            "smrseekd_policy_gate_flips_total",
            "smrseekd_cache_tier_hits_total",
            "smrseekd_cache_tier_misses_total",
            "smrseekd_connections_accepted_total",
            "smrseekd_accept_errors_total",
            "smrseekd_connections_reaped_total",
            "smrseekd_connections_refused_total",
            "smrseekd_forwarded_total",
            "smrseekd_forward_errors_total",
        ] {
            assert_eq!(
                typed.get(family).map(String::as_str),
                Some("counter"),
                "{family}"
            );
        }
        for family in ["smrseekd_connections_active", "smrseekd_sse_streams_active"] {
            assert_eq!(
                typed.get(family).map(String::as_str),
                Some("gauge"),
                "{family}"
            );
        }
        assert!(text.contains("phase=\"classify\""), "new phase is exported");
        assert!(text.contains("smrseekd_connections_accepted_total 9"));
        assert!(text.contains("smrseekd_sse_streams_active 1"));
        assert!(text.contains("smrseekd_forwarded_total{peer=\"127.0.0.1:9001\"} 1"));
        assert!(text.contains("smrseekd_forward_errors_total{peer=\"127.0.0.1:9001\"} 1"));
        assert!(
            text.contains("endpoint=\"job_events\""),
            "SSE endpoint is labeled"
        );
        assert!(
            text.contains("endpoint=\"trace\""),
            "trace-export endpoint is labeled"
        );
    }

    #[test]
    fn net_and_peer_families_render_zero_valued_before_wiring() {
        let m = Metrics::new();
        let text = m.render(&JobSnapshot::default(), 0);
        assert!(text.contains("smrseekd_connections_accepted_total 0"));
        assert!(text.contains("smrseekd_connections_active 0"));
        assert!(text.contains("smrseekd_sse_streams_active 0"));
        // No peers registered: the families declare but carry no samples.
        assert!(text.contains("# TYPE smrseekd_forwarded_total counter"));
        assert!(!text.contains("smrseekd_forwarded_total{"));
        assert_eq!(m.forward_counts("anyone"), None);
        assert!(m.peer_counts().is_empty());
    }

    #[test]
    fn net_series_read_every_loop_stats_field() {
        let m = Metrics::new();
        let stats = Arc::new(LoopStats::default());
        m.set_net_stats(Arc::clone(&stats));
        for (cell, value) in [
            (&stats.accepted, 2),
            (&stats.accept_errors, 3),
            (&stats.active, 5),
            (&stats.reaped_idle, 7),
            (&stats.refused, 11),
            (&stats.streaming, 13),
        ] {
            cell.store(value, Ordering::Relaxed);
        }
        let text = m.render(&JobSnapshot::default(), 0);
        for sample in [
            "smrseekd_connections_accepted_total 2\n",
            "smrseekd_accept_errors_total 3\n",
            "smrseekd_connections_active 5\n",
            "smrseekd_connections_reaped_total 7\n",
            "smrseekd_connections_refused_total 11\n",
            "smrseekd_sse_streams_active 13\n",
        ] {
            assert!(text.contains(sample), "missing {sample:?} in\n{text}");
        }
    }

    #[test]
    fn latency_histogram_is_cumulative_and_bounded() {
        let m = Metrics::new();
        m.observe(Endpoint::Healthz, Duration::from_micros(3));
        m.observe(Endpoint::Healthz, Duration::from_micros(3));
        m.observe(Endpoint::Healthz, Duration::from_micros(900));
        m.observe(Endpoint::Healthz, Duration::from_micros(4));
        let text = m.render(&JobSnapshot::default(), 0);
        // 3 µs lands in bin (2,4] → le="4", and so does 4 µs (`le` is ≤);
        // 900 µs in (512,1024] → le="1024".
        assert!(text
            .contains("smrseekd_http_request_duration_us_bucket{endpoint=\"healthz\",le=\"2\"} 0"));
        assert!(text
            .contains("smrseekd_http_request_duration_us_bucket{endpoint=\"healthz\",le=\"4\"} 3"));
        assert!(text.contains(
            "smrseekd_http_request_duration_us_bucket{endpoint=\"healthz\",le=\"1024\"} 4"
        ));
        assert!(text.contains(
            "smrseekd_http_request_duration_us_bucket{endpoint=\"healthz\",le=\"+Inf\"} 4"
        ));
        assert!(text.contains("smrseekd_http_request_duration_us_sum{endpoint=\"healthz\"} 910"));
        assert!(text.contains("smrseekd_http_request_duration_us_count{endpoint=\"healthz\"} 4"));
        // Endpoints never hit render the same buckets, zero-valued.
        assert!(text.contains(
            "smrseekd_http_request_duration_us_bucket{endpoint=\"jobs_post\",le=\"4\"} 0"
        ));
    }

    /// The registry migration must not move, rename, or reformat a single
    /// family: this golden render pins the entire zero-valued exposition
    /// byte for byte (the uptime sample is the one nondeterministic line,
    /// normalized before comparing).
    #[test]
    fn golden_zero_valued_exposition_is_byte_stable() {
        let m = Metrics::new();
        let text = m.render(&JobSnapshot::default(), 0);
        let normalized: String = text
            .lines()
            .map(|line| {
                if line.starts_with("smrseekd_uptime_seconds ") {
                    "smrseekd_uptime_seconds 0.000\n".to_owned()
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let expected = format!(
            "# HELP smrseekd_build_info Build metadata; always 1.\n\
             # TYPE smrseekd_build_info gauge\n\
             smrseekd_build_info{{version=\"{version}\"}} 1\n\
             # HELP smrseekd_uptime_seconds Seconds since the daemon started.\n\
             # TYPE smrseekd_uptime_seconds gauge\n\
             smrseekd_uptime_seconds 0.000\n\
             # HELP smrseekd_jobs Jobs by lifecycle state.\n\
             # TYPE smrseekd_jobs gauge\n\
             smrseekd_jobs{{state=\"queued\"}} 0\n\
             smrseekd_jobs{{state=\"running\"}} 0\n\
             smrseekd_jobs{{state=\"done\"}} 0\n\
             smrseekd_jobs{{state=\"failed\"}} 0\n\
             # HELP smrseekd_queue_depth Jobs waiting for a worker.\n\
             # TYPE smrseekd_queue_depth gauge\n\
             smrseekd_queue_depth 0\n\
             # HELP smrseekd_queue_capacity Configured queue bound.\n\
             # TYPE smrseekd_queue_capacity gauge\n\
             smrseekd_queue_capacity 0\n\
             # HELP smrseekd_traces_registered Distinct traces held open by the registry.\n\
             # TYPE smrseekd_traces_registered gauge\n\
             smrseekd_traces_registered 0\n\
             # HELP smrseekd_records_replayed_total Logical records replayed by finished jobs.\n\
             # TYPE smrseekd_records_replayed_total counter\n\
             smrseekd_records_replayed_total 0\n\
             # HELP smrseekd_result_cache_hits_total Submissions served by an existing job.\n\
             # TYPE smrseekd_result_cache_hits_total counter\n\
             smrseekd_result_cache_hits_total 0\n\
             # HELP smrseekd_result_cache_misses_total Submissions that enqueued new work.\n\
             # TYPE smrseekd_result_cache_misses_total counter\n\
             smrseekd_result_cache_misses_total 0\n\
             # HELP smrseekd_jobs_rejected_total Submissions refused with 503 (queue full).\n\
             # TYPE smrseekd_jobs_rejected_total counter\n\
             smrseekd_jobs_rejected_total 0\n\
             # HELP smrseekd_engine_phase_seconds_total Simulation engine time by phase, summed over finished jobs.\n\
             # TYPE smrseekd_engine_phase_seconds_total counter\n\
             smrseekd_engine_phase_seconds_total{{phase=\"lookup\"}} 0.000000000\n\
             smrseekd_engine_phase_seconds_total{{phase=\"seek\"}} 0.000000000\n\
             smrseekd_engine_phase_seconds_total{{phase=\"classify\"}} 0.000000000\n\
             # HELP smrseekd_policy_gate_flips_total Adaptive-policy gate transitions, by gated mechanism, summed over finished jobs.\n\
             # TYPE smrseekd_policy_gate_flips_total counter\n\
             smrseekd_policy_gate_flips_total{{mechanism=\"defrag\"}} 0\n\
             smrseekd_policy_gate_flips_total{{mechanism=\"prefetch\"}} 0\n\
             smrseekd_policy_gate_flips_total{{mechanism=\"cache\"}} 0\n\
             # HELP smrseekd_cache_tier_hits_total Selective-cache lookups served, by tier, summed over finished jobs.\n\
             # TYPE smrseekd_cache_tier_hits_total counter\n\
             smrseekd_cache_tier_hits_total{{tier=\"ram\"}} 0\n\
             smrseekd_cache_tier_hits_total{{tier=\"flash\"}} 0\n\
             # HELP smrseekd_cache_tier_misses_total Selective-cache lookups no tier could serve.\n\
             # TYPE smrseekd_cache_tier_misses_total counter\n\
             smrseekd_cache_tier_misses_total 0\n\
             # HELP smrseekd_connections_accepted_total Connections accepted by the event loop.\n\
             # TYPE smrseekd_connections_accepted_total counter\n\
             smrseekd_connections_accepted_total 0\n\
             # HELP smrseekd_accept_errors_total accept(2) failures (e.g. fd exhaustion).\n\
             # TYPE smrseekd_accept_errors_total counter\n\
             smrseekd_accept_errors_total 0\n\
             # HELP smrseekd_connections_active Currently open client connections.\n\
             # TYPE smrseekd_connections_active gauge\n\
             smrseekd_connections_active 0\n\
             # HELP smrseekd_connections_reaped_total Connections closed by the idle/slow-client timeout.\n\
             # TYPE smrseekd_connections_reaped_total counter\n\
             smrseekd_connections_reaped_total 0\n\
             # HELP smrseekd_connections_refused_total Connections answered 503 because the connection cap was reached.\n\
             # TYPE smrseekd_connections_refused_total counter\n\
             smrseekd_connections_refused_total 0\n\
             # HELP smrseekd_sse_streams_active Connections currently following a job event stream.\n\
             # TYPE smrseekd_sse_streams_active gauge\n\
             smrseekd_sse_streams_active 0\n\
             # HELP smrseekd_forwarded_total Submissions forwarded to their consistent-hash owner, by peer.\n\
             # TYPE smrseekd_forwarded_total counter\n\
             # HELP smrseekd_forward_errors_total Failed submission forwards, by peer.\n\
             # TYPE smrseekd_forward_errors_total counter\n\
             # HELP smrseekd_http_requests_total Requests served, by endpoint.\n\
             # TYPE smrseekd_http_requests_total counter\n\
             smrseekd_http_requests_total{{endpoint=\"healthz\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"metrics\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"jobs_post\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"jobs_get\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"job_result\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"job_events\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"trace\"}} 0\n\
             smrseekd_http_requests_total{{endpoint=\"other\"}} 0\n\
             # HELP smrseekd_http_request_duration_us Request latency in microseconds.\n\
             # TYPE smrseekd_http_request_duration_us histogram\n",
            version = env!("CARGO_PKG_VERSION"),
        );
        // Every endpoint's latency series renders the fixed bucket set,
        // le = 2^1 … 2^25 then +Inf, at zero.
        let mut expected = expected;
        for endpoint in [
            "healthz",
            "metrics",
            "jobs_post",
            "jobs_get",
            "job_result",
            "job_events",
            "trace",
            "other",
        ] {
            let series = |suffix: &str, le: &str| {
                format!(
                    "smrseekd_http_request_duration_us_{suffix}{{endpoint=\"{endpoint}\"{le}}} 0\n"
                )
            };
            for k in 1..=25 {
                expected += &series("bucket", &format!(",le=\"{}\"", 1u64 << k));
            }
            expected += &series("bucket", ",le=\"+Inf\"");
            expected += &series("sum", "");
            expected += &series("count", "");
        }
        assert_eq!(normalized, expected);
    }
}
