//! Deeper trace analyses behind the paper's workload observations.
//!
//! Three lenses that explain *why* a workload is log-friendly or
//! log-sensitive before any simulation runs, all measured by [`summarize`]
//! in one pass over the trace:
//!
//! * overwrite intervals — how quickly written data is overwritten (short
//!   intervals ⇒ churn the log absorbs; §III's write-intensive MSR
//!   workloads),
//! * working-set size per window (the diurnal phases of Fig 3 show up here
//!   as WSS swings),
//! * the read-after-write fraction — how much read traffic targets data
//!   written earlier in the trace (the reads that can be fragmented at
//!   all; reads of pre-trace data always come from the identity area).

use crate::record::{OpKind, TraceRecord};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Analysis granularity: one 4 KiB block = 8 sectors.
const BLOCK_SECTORS: u64 = 8;

/// Operations per working-set window.
const WSS_WINDOW_OPS: usize = 1000;

fn blocks_of(rec: &TraceRecord) -> impl Iterator<Item = u64> {
    let first = rec.lba.sector() / BLOCK_SECTORS;
    let last = (rec.end().sector().saturating_sub(1)) / BLOCK_SECTORS;
    first..=last
}

/// Fibonacci hashing of a block number: one multiply by 2^64 / φ (odd),
/// as `RangeCache` places its buckets. The product's high half is the
/// well-mixed one and the table indexes by the hash's low bits, so the
/// halves are swapped. Block numbers come from trace files, so a crafted
/// trace can make them collide; that slows a local `characterize` or
/// `analyze` down without changing its answer, and the daemon never
/// summarizes.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("block numbers hash as u64");
    }

    fn write_u64(&mut self, block: u64) {
        self.0 = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// What the pass remembers of one 4 KiB block.
struct Block {
    /// The write count of the trace when the block was last written, or
    /// [`NEVER`].
    last_write: u64,
    /// The last working-set window that touched the block, or [`NEVER`].
    window: u64,
}

const NEVER: u64 = u64::MAX;

/// Summary of the three analyses, for reports.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct AnalysisSummary {
    /// Number of overwrite events: writes of a 4 KiB block written earlier
    /// in the trace, counted per block.
    pub overwrites: usize,
    /// Median overwrite interval (`None` without overwrites): the number of
    /// *write operations* since the overwritten block was last written,
    /// the upper median of an even count. Short intervals mean hot churn.
    pub median_overwrite_interval: Option<u64>,
    /// Mean working-set size per 1000-op window, in 4 KiB blocks: the
    /// distinct blocks read or written in each consecutive window (the
    /// last one possibly shorter).
    pub mean_wss_blocks: f64,
    /// Peak working-set size, in 4 KiB blocks.
    pub peak_wss_blocks: u64,
    /// Fraction of read bytes, counted in 4 KiB blocks, that target blocks
    /// written earlier in the trace, in `[0, 1]`. Only these reads can be
    /// fragmented by log-structured translation; the remainder always
    /// reads from the identity area.
    pub read_after_write: f64,
}

/// Computes the [`AnalysisSummary`] in one pass, with one table entry per
/// 4 KiB block touched.
pub fn summarize(records: &[TraceRecord]) -> AnalysisSummary {
    let mut blocks: HashMap<u64, Block, BuildHasherDefault<BlockHasher>> = HashMap::default();
    let mut intervals = Vec::new();
    let mut writes = 0u64;
    let (mut read_blocks, mut read_after_write_blocks) = (0u64, 0u64);
    let (mut wss, mut wss_total, mut peak_wss_blocks) = (0u64, 0u64, 0u64);
    for (i, rec) in records.iter().enumerate() {
        if i % WSS_WINDOW_OPS == 0 {
            wss_total += wss;
            peak_wss_blocks = peak_wss_blocks.max(wss);
            wss = 0;
        }
        let window = (i / WSS_WINDOW_OPS) as u64;
        for block in blocks_of(rec) {
            let seen = blocks.entry(block).or_insert(Block {
                last_write: NEVER,
                window: NEVER,
            });
            if seen.window != window {
                seen.window = window;
                wss += 1;
            }
            match rec.op {
                OpKind::Write => {
                    if seen.last_write != NEVER {
                        intervals.push(writes - seen.last_write);
                    }
                    seen.last_write = writes;
                }
                OpKind::Read => {
                    read_blocks += 1;
                    read_after_write_blocks += u64::from(seen.last_write != NEVER);
                }
            }
        }
        writes += u64::from(rec.op == OpKind::Write);
    }
    wss_total += wss;
    peak_wss_blocks = peak_wss_blocks.max(wss);
    let windows = records.len().div_ceil(WSS_WINDOW_OPS);
    let mid = intervals.len() / 2;
    let median_overwrite_interval =
        (!intervals.is_empty()).then(|| *intervals.select_nth_unstable(mid).1);
    AnalysisSummary {
        overwrites: intervals.len(),
        median_overwrite_interval,
        mean_wss_blocks: if windows == 0 {
            0.0
        } else {
            wss_total as f64 / windows as f64
        },
        peak_wss_blocks,
        read_after_write: if read_blocks == 0 {
            0.0
        } else {
            read_after_write_blocks as f64 / read_blocks as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Lba;

    fn w(t: u64, lba: u64, sectors: u32) -> TraceRecord {
        TraceRecord::write(t, Lba::new(lba), sectors)
    }
    fn r(t: u64, lba: u64, sectors: u32) -> TraceRecord {
        TraceRecord::read(t, Lba::new(lba), sectors)
    }

    #[test]
    fn no_overwrites_in_append_only_trace() {
        let trace: Vec<_> = (0..10).map(|i| w(i, i * 8, 8)).collect();
        let s = summarize(&trace);
        assert_eq!(s.overwrites, 0);
        assert_eq!(s.median_overwrite_interval, None);
    }

    #[test]
    fn overwrite_interval_counts_intervening_writes() {
        let trace = vec![
            w(0, 0, 8),   // write block 0  (write #0)
            w(1, 80, 8),  // unrelated      (write #1)
            w(2, 160, 8), // unrelated      (write #2)
            w(3, 0, 8),   // overwrite block 0 at write #3: interval 3
        ];
        let s = summarize(&trace);
        assert_eq!(s.overwrites, 1);
        assert_eq!(s.median_overwrite_interval, Some(3));
    }

    #[test]
    fn sub_block_writes_count_once_per_block() {
        let trace = vec![
            w(0, 0, 16), // blocks 0 and 1
            w(1, 4, 8),  // straddles blocks 0 and 1: two overwrite events
        ];
        let s = summarize(&trace);
        assert_eq!(s.overwrites, 2);
        assert_eq!(s.median_overwrite_interval, Some(1));
    }

    #[test]
    fn reads_do_not_advance_write_clock() {
        let trace = vec![w(0, 0, 8), r(1, 0, 8), r(2, 0, 8), w(3, 0, 8)];
        let s = summarize(&trace);
        assert_eq!(s.overwrites, 1);
        assert_eq!(s.median_overwrite_interval, Some(1));
    }

    #[test]
    fn wss_counts_distinct_blocks_per_window() {
        let tail = [
            r(1000, 80, 16), // blocks 10, 11
            w(1001, 800, 8),
        ];
        // One window: blocks 0, 10, 11 and 100.
        let s = summarize(&[w(0, 0, 8), w(1, 0, 8), tail[0], tail[1]]);
        assert_eq!((s.mean_wss_blocks, s.peak_wss_blocks), (4.0, 4));
        // Window 0 rewrites block 0 a thousand times (1 distinct block),
        // window 1 touches 3.
        let mut trace: Vec<_> = (0..1000).map(|t| w(t, 0, 8)).collect();
        trace.extend(tail);
        let s = summarize(&trace);
        assert_eq!((s.mean_wss_blocks, s.peak_wss_blocks), (2.0, 3));
    }

    #[test]
    fn read_after_write_fraction_splits_correctly() {
        let trace = vec![
            w(0, 0, 8),   // block 0 written
            r(1, 0, 8),   // read of written data
            r(2, 800, 8), // read of pre-trace data
        ];
        assert!((summarize(&trace).read_after_write - 0.5).abs() < 1e-12);
        assert_eq!(summarize(&[w(0, 0, 8)]).read_after_write, 0.0);
    }

    #[test]
    fn order_matters_for_read_after_write() {
        // A read *before* the write targets pre-trace data.
        let trace = vec![r(0, 0, 8), w(1, 0, 8), r(2, 0, 8)];
        assert!((summarize(&trace).read_after_write - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_is_consistent() {
        let trace: Vec<_> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    w(i, (i % 10) * 8, 8)
                } else {
                    r(i, (i % 10) * 8, 8)
                }
            })
            .collect();
        let s = summarize(&trace);
        assert!(s.overwrites > 0);
        assert!(s.median_overwrite_interval.is_some());
        assert!(s.mean_wss_blocks > 0.0);
        assert!(s.peak_wss_blocks >= s.mean_wss_blocks as u64);
        assert!((0.0..=1.0).contains(&s.read_after_write));
    }
}
