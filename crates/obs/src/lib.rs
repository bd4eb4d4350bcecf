//! Observability for the smrseek stack: spans, phase accounting,
//! structured logging, and Chrome trace-event export.
//!
//! There is one span record, [`DistSpan`]: a named wall-clock interval
//! with an explicit parent link. The daemon's fleet traces and the
//! `smrseek profile` sweep both build them and both export through
//! [`chrome::write_dist_trace`].
//!
//! Everything here is `std`-only (the build environment is offline; see
//! `vendor/README.md`) and cheap enough to stay compiled into release
//! binaries:
//!
//! * [`log`] — a leveled logger (`SMRSEEK_LOG` env, text or JSON-lines
//!   output) behind the [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros.
//!   Off-level messages cost one relaxed atomic load.
//! * [`phase`] — the engine's per-record phase accounting
//!   ([`phase::Phase`]: extent lookup, seek accounting, policy
//!   classification) accumulated into mergeable
//!   [`phase::PhaseTotals`]. Every replay times the records of a fixed
//!   sample, one in [`phase::SAMPLE_INTERVAL`], so the hot loop reads no
//!   clock for the rest.
//! * [`chrome`] — serializes [`DistSpan`]s as Chrome trace-event JSON,
//!   loadable in `chrome://tracing` or Perfetto; named processes get
//!   track metadata and cross-track parent links get flow arrows.
//! * [`dtrace`] — distributed tracing for the fleet: a W3C-style
//!   [`dtrace::TraceContext`] propagated across daemon hops, wall-clock
//!   [`dtrace::DistSpan`]s with explicit parent links, and a bounded
//!   per-process [`dtrace::SpanStore`] served by `GET /v1/trace/<id>`.
//! * [`metrics`] — a [`metrics::Registry`] of labeled counters, gauges,
//!   and log₂ histograms with a Prometheus text renderer; handle updates
//!   are single relaxed atomic RMWs.

#![warn(missing_docs)]

pub mod chrome;
pub mod dtrace;
pub mod log;
pub mod metrics;
pub mod phase;

pub use dtrace::{current_tid, unix_nanos, DistSpan, SpanStore, TraceContext};
pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram, Registry, ValueFormat};
pub use phase::{Phase, PhaseTotals};
