//! Shared helpers for the smrseek benchmark suite.
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `experiments` — one benchmark per entry of
//!   `smrseek_sim::experiments::ALL` (`experiments/table1`,
//!   `experiments/fig2`, ..., `experiments/zones`), each regenerating the
//!   result end-to-end. Every report is also printed once, so
//!   `cargo bench` doubles as the figure regenerator.
//! * `micro` — substrate micro-benchmarks: extent-map insert/lookup, LRU
//!   and range-cache operations, Zipf sampling, mis-order scanning, and
//!   end-to-end simulator throughput per layer, including the zoned and
//!   finite cleaning logs.
//! * `policy` — the adaptive policy engine's overhead: the fixed
//!   mechanism stack vs the same stack under the engine, plus the raw
//!   classifier's per-record cost.

#![warn(missing_docs)]
use smrseek_sim::experiments::ExpOptions;
use smrseek_trace::TraceRecord;
use smrseek_workloads::profiles;

/// The operation count used by the experiment benchmarks: large enough to be
/// representative, small enough that a full `cargo bench` stays in
/// minutes.
pub const BENCH_OPS: usize = 8_000;

/// Standard options for benchmark runs.
pub fn bench_opts() -> ExpOptions {
    ExpOptions {
        seed: 42,
        ops: BENCH_OPS,
    }
}

/// Generates the stand-in trace of a named profile at benchmark scale.
///
/// # Panics
///
/// Panics if `name` is not a Table-I profile.
pub fn bench_trace(name: &str) -> Vec<TraceRecord> {
    profiles::by_name(name)
        .unwrap_or_else(|| panic!("{name} is not a Table-I profile"))
        .generate_scaled(42, BENCH_OPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_trace_has_requested_scale() {
        let trace = bench_trace("w91");
        assert!(trace.len() >= BENCH_OPS * 9 / 10);
        assert!(trace.len() <= BENCH_OPS * 12 / 10);
    }

    #[test]
    #[should_panic(expected = "not a Table-I profile")]
    fn unknown_profile_panics() {
        bench_trace("nope");
    }
}
