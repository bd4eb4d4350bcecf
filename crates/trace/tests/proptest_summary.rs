//! Differential test of [`summarize`]: its one pass must equal, field for
//! field and bit for bit, a naive reference that makes three separate
//! passes (overwrite intervals, working-set series, read-after-write
//! fraction), each over its own table, with a full sort for the median.
//!
//! Records straddle 4 KiB blocks, have zero sectors, or sit at the top of
//! the LBA space; traces cross the 1000-op window boundary, and are mixed,
//! write-only, read-only or empty.

use proptest::prelude::*;
use smrseek_trace::{summarize, AnalysisSummary, Lba, OpKind, TraceRecord};
use std::collections::{HashMap, HashSet};

const BLOCK_SECTORS: u64 = 8;

fn blocks_of(rec: &TraceRecord) -> impl Iterator<Item = u64> {
    let first = rec.lba.sector() / BLOCK_SECTORS;
    let last = (rec.end().sector().saturating_sub(1)) / BLOCK_SECTORS;
    first..=last
}

/// Per overwritten block of each write, the writes since that block's
/// last write.
fn overwrite_intervals(records: &[TraceRecord]) -> Vec<u64> {
    let mut last_write: HashMap<u64, u64> = HashMap::new();
    let mut intervals = Vec::new();
    let mut write_index = 0u64;
    for rec in records {
        if rec.op != OpKind::Write {
            continue;
        }
        for block in blocks_of(rec) {
            if let Some(prev) = last_write.insert(block, write_index) {
                intervals.push(write_index - prev);
            }
        }
        write_index += 1;
    }
    intervals
}

/// Distinct blocks touched in each consecutive window of `window_ops`.
fn wss_series(records: &[TraceRecord], window_ops: usize) -> Vec<u64> {
    records
        .chunks(window_ops)
        .map(|window| {
            let blocks: HashSet<u64> = window.iter().flat_map(blocks_of).collect();
            blocks.len() as u64
        })
        .collect()
}

/// Share of read blocks written earlier in the trace.
fn read_after_write_fraction(records: &[TraceRecord]) -> f64 {
    let mut written: HashSet<u64> = HashSet::new();
    let mut read_blocks = 0u64;
    let mut read_after_write_blocks = 0u64;
    for rec in records {
        match rec.op {
            OpKind::Write => written.extend(blocks_of(rec)),
            OpKind::Read => {
                for block in blocks_of(rec) {
                    read_blocks += 1;
                    if written.contains(&block) {
                        read_after_write_blocks += 1;
                    }
                }
            }
        }
    }
    if read_blocks == 0 {
        0.0
    } else {
        read_after_write_blocks as f64 / read_blocks as f64
    }
}

fn reference(records: &[TraceRecord]) -> AnalysisSummary {
    let mut intervals = overwrite_intervals(records);
    intervals.sort_unstable();
    let median = (!intervals.is_empty()).then(|| intervals[intervals.len() / 2]);
    let wss = wss_series(records, 1000);
    let mean_wss = if wss.is_empty() {
        0.0
    } else {
        wss.iter().sum::<u64>() as f64 / wss.len() as f64
    };
    AnalysisSummary {
        overwrites: intervals.len(),
        median_overwrite_interval: median,
        mean_wss_blocks: mean_wss,
        peak_wss_blocks: wss.iter().copied().max().unwrap_or(0),
        read_after_write: read_after_write_fraction(records),
    }
}

/// Any record a parser accepts (`lba + sectors` fits in u64): mostly
/// short requests over a small space so blocks recur, some zero-sector
/// ones, some long ones, and some ending at the very top of the space.
fn record() -> impl Strategy<Value = TraceRecord> {
    let sectors = prop_oneof![
        1 => Just(0u32),
        8 => 1u32..=32,
        1 => 33u32..=2048,
    ];
    (
        0u64..=u64::MAX,
        prop::bool::ANY,
        prop::bool::ANY,
        0u64..600,
        sectors,
    )
        .prop_map(|(timestamp_us, read, top, offset, sectors)| {
            let lba = if top {
                u64::MAX - u64::from(sectors) - offset
            } else {
                offset
            };
            let op = if read { OpKind::Read } else { OpKind::Write };
            TraceRecord::new(timestamp_us, op, Lba::new(lba), sectors)
        })
}

/// Mixed, write-only or read-only traces of up to 2600 records: short
/// ones, and ones ending near the second or third window.
fn trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    let records = prop_oneof![
        prop::collection::vec(record(), 0..40),
        prop::collection::vec(record(), 990..1010),
        prop::collection::vec(record(), 1990..2600),
    ];
    (records, 0u8..3).prop_map(|(mut records, mode)| {
        for rec in &mut records {
            match mode {
                1 => rec.op = OpKind::Write,
                2 => rec.op = OpKind::Read,
                _ => {}
            }
        }
        records
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_pass_matches_three_passes(records in trace()) {
        prop_assert_eq!(summarize(&records), reference(&records));
    }
}

#[test]
fn empty_trace_summarizes_to_zeros() {
    assert_eq!(summarize(&[]), reference(&[]));
    assert_eq!(summarize(&[]).mean_wss_blocks, 0.0);
}

#[test]
fn block_straddling_records_across_window_boundaries() {
    // Every record straddles two blocks; 2500 records make three windows,
    // the last one short.
    let records: Vec<TraceRecord> = (0..2500u64)
        .map(|i| {
            let lba = Lba::new((i * 37) % 400 * 8 + 4);
            if i % 3 == 0 {
                TraceRecord::read(i, lba, 8)
            } else {
                TraceRecord::write(i, lba, 8)
            }
        })
        .collect();
    let got = summarize(&records);
    assert_eq!(got, reference(&records));
    assert!(got.overwrites > 0 && got.read_after_write > 0.0);
}
