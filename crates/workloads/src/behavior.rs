//! Behaviour knobs and the recipe engine turning them into traces.

use crate::builder::TraceBuilder;
use rand::Rng;
use serde::{Deserialize, Serialize};
use smrseek_trace::{Lba, TraceRecord, MIB, SECTOR_SIZE};

/// The behavioural knob set of one synthetic workload.
///
/// Write-placement fractions (`wr_*`) and read-behaviour fractions (`rd_*`)
/// each sum to at most 1; the remainders fall through to uniform-random
/// writes and reads respectively. Knobs map to the phenomena the paper
/// identifies:
///
/// * `wr_descending` / `wr_interleaved` — mis-ordered writes (Fig 7/8),
/// * `rd_scan` with `scan_repeats` — sequential-read-after-random-write,
///   the worst case for log-structured translation (§III),
/// * `rd_replay` — temporal replay, the log-*friendly* case (§III),
/// * `rd_zipf` / `rd_straddle` — skewed fragment popularity (Fig 10),
/// * `cycles` — diurnal phases (Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Behavior {
    /// Fraction of writes in ascending sequential streams.
    pub wr_sequential: f64,
    /// Fraction of writes in descending chunk bursts (Fig 7a).
    pub wr_descending: f64,
    /// Fraction of writes in interleaved ascending streams (§IV-B).
    pub wr_interleaved: f64,
    /// Fraction of reads that sequentially scan the hot region.
    pub rd_scan: f64,
    /// Fraction of reads replaying recent writes in temporal order.
    pub rd_replay: f64,
    /// Fraction of reads re-reading written ranges, Zipf-skewed.
    pub rd_zipf: f64,
    /// Fraction of reads straddling written ranges (always fragmented
    /// under LS), Zipf-skewed.
    pub rd_straddle: f64,
    /// Zipf exponent for `rd_zipf` / `rd_straddle`.
    pub zipf_theta: f64,
    /// How many times each cycle's scan pass repeats.
    pub scan_repeats: u32,
    /// Hot-region size in MiB.
    pub region_mib: u64,
    /// Diurnal cycles: the write/read phase structure repeats this often.
    pub cycles: u32,
    /// Idle gap inserted between cycles, in microseconds (the quiet phase
    /// of the diurnal pattern; gives idle-time mechanisms something to
    /// work with).
    pub cycle_idle_us: u64,
    /// Stream count for `wr_interleaved`.
    pub interleave_streams: usize,
}

impl Default for Behavior {
    fn default() -> Self {
        Behavior {
            wr_sequential: 0.0,
            wr_descending: 0.0,
            wr_interleaved: 0.0,
            rd_scan: 0.0,
            rd_replay: 0.0,
            rd_zipf: 0.0,
            rd_straddle: 0.0,
            zipf_theta: 1.0,
            scan_repeats: 1,
            region_mib: 256,
            cycles: 4,
            cycle_idle_us: 1_000_000, // a 1 s lull between cycles
            interleave_streams: 4,
        }
    }
}

impl Behavior {
    fn validate(&self) {
        let wr = self.wr_sequential + self.wr_descending + self.wr_interleaved;
        let rd = self.rd_scan + self.rd_replay + self.rd_zipf + self.rd_straddle;
        assert!(
            (0.0..=1.0 + 1e-9).contains(&wr),
            "write fractions sum to {wr}, must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0 + 1e-9).contains(&rd),
            "read fractions sum to {rd}, must be in [0, 1]"
        );
        assert!(self.cycles >= 1, "need at least one cycle");
        assert!(self.region_mib >= 1, "region must be at least 1 MiB");
        assert!(self.interleave_streams >= 1, "need at least one stream");
        assert!(self.scan_repeats >= 1, "scan_repeats must be positive");
    }
}

/// Operation count at which `region_mib` is taken at face value; the
/// region scales linearly with the actual op count so that write density —
/// and therefore fragmentation per read — is invariant under trace scaling.
pub const NOMINAL_OPS: usize = 40_000;

/// Generates a trace from a behaviour and target shape.
///
/// `read_ops`/`write_ops` are the operation counts to emit;
/// `mean_read_sectors`/`mean_write_sectors` the target mean op sizes.
/// Output is time-ordered; each cycle writes first (fragmenting the
/// region), then reads.
///
/// # Panics
///
/// Panics if the behaviour's fractions are out of range (see
/// [`Behavior`]).
pub fn generate(
    behavior: &Behavior,
    read_ops: usize,
    write_ops: usize,
    mean_read_sectors: u32,
    mean_write_sectors: u32,
    seed: u64,
) -> Vec<TraceRecord> {
    behavior.validate();
    let region_start = Lba::new(0);
    let total_ops = (read_ops + write_ops) as u64;
    let region_sectors = (behavior.region_mib * MIB / SECTOR_SIZE)
        .saturating_mul(total_ops.max(1))
        .div_ceil(NOMINAL_OPS as u64)
        .max(2 * MIB / SECTOR_SIZE);
    let cycles = behavior.cycles as usize;
    let ops_per_chunk = ops_per_chunk(mean_write_sectors);

    // Room for exactly the writes the cycles below emit (descending bursts
    // round up to whole chunks), so neither the written ranges nor the
    // Zipf table over them reallocates.
    let writes: usize = (0..cycles)
        .map(|cycle| {
            let [seq, desc, int, rand] =
                split_writes(behavior, per_cycle(write_ops, cycles, cycle));
            seq + desc.div_ceil(ops_per_chunk) * ops_per_chunk + int + rand
        })
        .sum();
    let mut b = TraceBuilder::with_write_capacity(seed, writes);

    // A separate, ever-ascending area for pure sequential write streams so
    // they do not overwrite (defragment) the hot region.
    let mut seq_cursor = Lba::new(region_sectors);

    for cycle in 0..cycles {
        if cycle > 0 && behavior.cycle_idle_us > 0 {
            b.advance_clock(behavior.cycle_idle_us);
        }
        let w = per_cycle(write_ops, cycles, cycle);
        let r = per_cycle(read_ops, cycles, cycle);

        // ---- write phase ----
        let [w_seq, w_desc, w_int, w_rand] = split_writes(behavior, w);
        if w_seq > 0 {
            b.write_sequential(seq_cursor, w_seq, mean_write_sectors);
            seq_cursor += w_seq as u64 * u64::from(mean_write_sectors);
        }
        if w_desc > 0 {
            // Bursts of descending chunks at random bases inside the region.
            let chunks_per_burst = 4;
            let burst = ops_per_chunk * chunks_per_burst;
            let mut left = w_desc;
            while left > 0 {
                let burst_ops = left.min(burst);
                let chunks = burst_ops.div_ceil(ops_per_chunk);
                let span = (burst_ops as u64) * u64::from(mean_write_sectors);
                let base = random_aligned(&mut b, region_sectors.saturating_sub(span));
                b.write_descending_chunks(
                    region_start + base,
                    chunks,
                    ops_per_chunk,
                    mean_write_sectors,
                );
                left -= burst_ops;
            }
        }
        if w_int > 0 {
            let span = (w_int as u64) * u64::from(mean_write_sectors);
            let base = random_aligned(&mut b, region_sectors.saturating_sub(span));
            b.write_interleaved(
                region_start + base,
                behavior.interleave_streams,
                w_int,
                mean_write_sectors,
            );
        }
        if w_rand > 0 {
            b.write_random(region_start, region_sectors, w_rand, mean_write_sectors);
        }

        // ---- read phase ----
        let r_scan = frac(r, behavior.rd_scan);
        let r_replay = frac(r, behavior.rd_replay);
        let r_zipf = frac(r, behavior.rd_zipf);
        let r_strad = frac(r, behavior.rd_straddle);
        let r_rand = r.saturating_sub(r_scan + r_replay + r_zipf + r_strad);

        if r_scan > 0 {
            // Sweep a fixed window `scan_repeats` times; the window is what
            // the op budget divided by the repeat count can cover, capped at
            // the hot region.
            let repeats = behavior.scan_repeats as usize;
            let ops_per_pass = (r_scan / repeats).max(1);
            let span = (ops_per_pass as u64 * u64::from(mean_read_sectors))
                .min(region_sectors)
                .max(u64::from(mean_read_sectors));
            let ops_actual_per_pass = usize::try_from(span.div_ceil(u64::from(mean_read_sectors)))
                .expect("pass op count fits usize");
            let mut emitted = 0;
            while emitted < r_scan {
                b.read_scan(region_start, span, mean_read_sectors);
                emitted += ops_actual_per_pass;
            }
        }
        if r_replay > 0 {
            b.read_replay_recent(r_replay);
        }
        if r_zipf > 0 {
            b.read_zipf_written(r_zipf, behavior.zipf_theta);
        }
        if r_strad > 0 {
            b.read_straddling_written(r_strad, behavior.zipf_theta, 16);
        }
        if r_rand > 0 {
            b.read_random(region_start, region_sectors, r_rand, mean_read_sectors);
        }
    }
    debug_assert_eq!(
        b.written_ranges().len(),
        writes,
        "sized to the emitted writes"
    );
    b.finish()
}

/// A cycle's `w` writes by placement: `[sequential, descending,
/// interleaved, random]`, the remainder of the fractions falling through
/// to random.
fn split_writes(behavior: &Behavior, w: usize) -> [usize; 4] {
    let seq = frac(w, behavior.wr_sequential);
    let desc = frac(w, behavior.wr_descending);
    let int = frac(w, behavior.wr_interleaved);
    [seq, desc, int, w.saturating_sub(seq + desc + int)]
}

/// Writes per descending chunk. Chunk size adapts to the write size so
/// that a chunk boundary's logical successor lands within the 256 KB
/// mis-order window (Fig 8): the volume between a chunk's first write and
/// the op that completes the preceding chunk is (2 * ops_per_chunk - 1)
/// writes.
fn ops_per_chunk(mean_write_sectors: u32) -> usize {
    let write_bytes = u64::from(mean_write_sectors) * SECTOR_SIZE;
    usize::try_from((224 * 1024 / write_bytes.max(1)).div_ceil(2).clamp(1, 6)).expect("small")
}

/// Share of `total` for cycle `i` of `cycles`, distributing remainders to
/// early cycles so the totals add up exactly.
fn per_cycle(total: usize, cycles: usize, i: usize) -> usize {
    total / cycles + usize::from(i < total % cycles)
}

fn frac(total: usize, f: f64) -> usize {
    ((total as f64) * f).round() as usize
}

fn random_aligned(b: &mut TraceBuilder, max: u64) -> u64 {
    if max < 8 {
        return 0;
    }
    b.rng_gen_range(0..max) / 8 * 8
}

impl TraceBuilder {
    /// Draws from the builder's RNG (kept here to avoid exposing the RNG
    /// type in the public builder API).
    fn rng_gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng_mut().gen_range(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::OpKind;

    fn count_ops(trace: &[TraceRecord]) -> (usize, usize) {
        let reads = trace.iter().filter(|r| r.op == OpKind::Read).count();
        (reads, trace.len() - reads)
    }

    #[test]
    fn op_counts_respected() {
        let behavior = Behavior {
            rd_scan: 0.5,
            rd_zipf: 0.3,
            ..Behavior::default()
        };
        let trace = generate(&behavior, 2000, 1000, 16, 16, 1);
        let (reads, writes) = count_ops(&trace);
        assert_eq!(writes, 1000);
        // Scan emission rounds up to whole passes; allow slack.
        assert!((1900..=2300).contains(&reads), "reads = {reads}");
    }

    #[test]
    fn deterministic() {
        let behavior = Behavior {
            wr_descending: 0.5,
            rd_straddle: 0.5,
            ..Behavior::default()
        };
        let a = generate(&behavior, 500, 500, 16, 16, 9);
        let c = generate(&behavior, 500, 500, 16, 16, 9);
        assert_eq!(a, c);
    }

    #[test]
    fn timestamps_monotone() {
        let behavior = Behavior {
            rd_scan: 1.0,
            wr_interleaved: 1.0,
            cycles: 3,
            ..Behavior::default()
        };
        let trace = generate(&behavior, 300, 300, 16, 16, 2);
        assert!(trace
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn cycles_split_evenly() {
        assert_eq!(per_cycle(10, 4, 0), 3);
        assert_eq!(per_cycle(10, 4, 1), 3);
        assert_eq!(per_cycle(10, 4, 2), 2);
        assert_eq!(per_cycle(10, 4, 3), 2);
        let total: usize = (0..4).map(|i| per_cycle(10, 4, i)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn pure_sequential_writes_ascend() {
        let behavior = Behavior {
            wr_sequential: 1.0,
            cycles: 1,
            ..Behavior::default()
        };
        let trace = generate(&behavior, 0, 100, 16, 16, 3);
        assert!(
            trace.windows(2).all(|w| w[0].end() == w[1].lba),
            "sequential stream broken"
        );
    }

    #[test]
    #[should_panic(expected = "write fractions")]
    fn overfull_write_fractions_panic() {
        let behavior = Behavior {
            wr_sequential: 0.8,
            wr_descending: 0.8,
            ..Behavior::default()
        };
        generate(&behavior, 10, 10, 8, 8, 0);
    }

    #[test]
    #[should_panic(expected = "read fractions")]
    fn overfull_read_fractions_panic() {
        let behavior = Behavior {
            rd_scan: 0.9,
            rd_zipf: 0.9,
            ..Behavior::default()
        };
        generate(&behavior, 10, 10, 8, 8, 0);
    }

    #[test]
    fn cycle_idle_gaps_appear_in_timestamps() {
        let behavior = Behavior {
            rd_scan: 0.5,
            cycles: 4,
            cycle_idle_us: 10_000_000,
            ..Behavior::default()
        };
        let trace = generate(&behavior, 400, 400, 16, 16, 5);
        let mut big_gaps = 0;
        for w in trace.windows(2) {
            if w[1].timestamp_us - w[0].timestamp_us >= 10_000_000 {
                big_gaps += 1;
            }
        }
        assert_eq!(big_gaps, 3, "one idle gap between each pair of cycles");
    }

    #[test]
    fn zero_ops_yield_empty_trace() {
        let trace = generate(&Behavior::default(), 0, 0, 8, 8, 0);
        assert!(trace.is_empty());
    }
}
