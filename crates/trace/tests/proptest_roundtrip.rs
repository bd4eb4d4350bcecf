//! Property tests: every serialization format round-trips arbitrary
//! traces losslessly (modulo each format's documented normalizations).

use proptest::prelude::*;
use smrseek_trace::binary::{
    read_binary, top_sector, write_binary, write_binary_v2, BinaryRecordIter,
};
use smrseek_trace::parse::{parse_reader, CpParser, MsrParser};
use smrseek_trace::writer::{write_cp_csv, write_msr_csv, CHUNK_BYTES, MSR_MAX_TIMESTAMP_US};
use smrseek_trace::{characterize, Lba, OpKind, TraceRecord};
use std::io::{self, Write};

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..1 << 40,   // timestamp_us
        prop::bool::ANY, // is_read
        0u64..1 << 35,   // lba sector
        1u32..1 << 16,   // sectors
    )
        .prop_map(|(ts, is_read, lba, sectors)| {
            let op = if is_read { OpKind::Read } else { OpKind::Write };
            TraceRecord::new(ts, op, Lba::new(lba), sectors)
        })
}

/// Traces whose timestamps are sorted (like real captures).
fn trace_strategy() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(record_strategy(), 0..200).prop_map(|mut v| {
        v.sort_by_key(|r| r.timestamp_us);
        v
    })
}

/// Reference CloudPhysics CSV through `fmt`, the writers' original form.
fn cp_reference(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    writeln!(out, "timestamp_us,op,offset_bytes,length_bytes").unwrap();
    for rec in records {
        let op = match rec.op {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
        };
        let (ts, off, len) = (rec.timestamp_us, rec.lba.to_bytes(), rec.len_bytes());
        writeln!(out, "{ts},{op},{off},{len}").unwrap();
    }
    out
}

/// Reference MSR CSV through `fmt`, the writers' original form.
fn msr_reference(records: &[TraceRecord], hostname: &str, disk: u32) -> Vec<u8> {
    const EPOCH_TICKS: u64 = 128_166_372_000_000_000;
    let mut out = Vec::new();
    for rec in records {
        let ticks = EPOCH_TICKS + rec.timestamp_us * 10;
        let ty = match rec.op {
            OpKind::Read => "Read",
            OpKind::Write => "Write",
        };
        let (off, len) = (rec.lba.to_bytes(), rec.len_bytes());
        writeln!(out, "{ticks},{hostname},{disk},{ty},{off},{len},0").unwrap();
    }
    out
}

/// Records biased towards the edges of every field the writers format:
/// zero, one digit, and the largest value each schema can carry.
fn edge_record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        prop_oneof![
            Just(0u64),
            0u64..10,
            0u64..=MSR_MAX_TIMESTAMP_US,
            MSR_MAX_TIMESTAMP_US - 100..=MSR_MAX_TIMESTAMP_US,
        ],
        prop::bool::ANY,
        prop_oneof![
            Just(0u64),
            0u64..10,
            0u64..=u64::MAX / 512,
            Just(u64::MAX / 512)
        ],
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..10, 0u32..=u32::MAX],
    )
        .prop_map(|(ts, is_read, lba, sectors)| {
            let op = if is_read { OpKind::Read } else { OpKind::Write };
            TraceRecord::new(ts, op, Lba::new(lba), sectors)
        })
}

/// Printable-ASCII hostnames of 0–40 bytes.
fn hostname_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..=40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ASCII"))
}

fn disk_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..=u32::MAX]
}

/// A sink that accepts `left` bytes, then fails every write.
struct FailAfter {
    written: Vec<u8>,
    left: usize,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("sink full"));
        }
        let n = buf.len().min(self.left);
        self.written.extend_from_slice(&buf[..n]);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both writers emit exactly the bytes of the `fmt` reference, at the
    /// edges of every field.
    #[test]
    fn writers_match_fmt_reference(
        trace in prop::collection::vec(edge_record_strategy(), 0..64),
        hostname in hostname_strategy(),
        disk in disk_strategy(),
    ) {
        let mut cp = Vec::new();
        write_cp_csv(&mut cp, &trace).expect("vec write cannot fail");
        prop_assert_eq!(cp, cp_reference(&trace));
        let mut msr = Vec::new();
        write_msr_csv(&mut msr, &trace, &hostname, disk).expect("vec write cannot fail");
        prop_assert_eq!(msr, msr_reference(&trace, &hostname, disk));
    }

    /// A sink that fails after `limit` bytes makes the writers return an
    /// error (never panic) unless the whole trace fit, and what reached it
    /// is a prefix of the reference.
    #[test]
    fn writers_report_sink_failures(
        trace in prop::collection::vec(edge_record_strategy(), 0..1_500),
        limit in prop_oneof![0usize..200, 0usize..3 * CHUNK_BYTES],
    ) {
        let expected = cp_reference(&trace);
        let mut sink = FailAfter { written: Vec::new(), left: limit };
        let result = write_cp_csv(&mut sink, &trace);
        prop_assert_eq!(result.is_ok(), limit >= expected.len());
        prop_assert!(expected.starts_with(&sink.written));

        let expected = msr_reference(&trace, "host", 7);
        let mut sink = FailAfter { written: Vec::new(), left: limit };
        let result = write_msr_csv(&mut sink, &trace, "host", 7);
        prop_assert_eq!(result.is_ok(), limit >= expected.len());
        prop_assert!(expected.starts_with(&sink.written));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Traces long enough to cross several chunk boundaries still match
    /// the reference byte for byte.
    #[test]
    fn long_traces_match_fmt_reference(
        trace in prop::collection::vec(edge_record_strategy(), 4_000..6_000),
        hostname in hostname_strategy(),
    ) {
        let mut cp = Vec::new();
        write_cp_csv(&mut cp, &trace).expect("vec write cannot fail");
        let expected = cp_reference(&trace);
        prop_assert!(expected.len() > 2 * CHUNK_BYTES);
        prop_assert_eq!(cp, expected);
        let mut msr = Vec::new();
        write_msr_csv(&mut msr, &trace, &hostname, u32::MAX).expect("vec write cannot fail");
        prop_assert_eq!(msr, msr_reference(&trace, &hostname, u32::MAX));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_roundtrip(trace in trace_strategy()) {
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).expect("vec write cannot fail");
        let parsed = read_binary(&buf[..]).expect("own output parses");
        prop_assert_eq!(parsed, trace);
    }

    #[test]
    fn cp_csv_roundtrip(trace in trace_strategy()) {
        let mut buf = Vec::new();
        write_cp_csv(&mut buf, &trace).expect("vec write cannot fail");
        let parsed = parse_reader(&buf[..], CpParser::new()).expect("own output parses");
        prop_assert_eq!(parsed, trace);
    }

    /// MSR timestamps are normalized to the first record; everything else
    /// is exact.
    #[test]
    fn msr_csv_roundtrip_modulo_epoch(trace in trace_strategy()) {
        let mut buf = Vec::new();
        write_msr_csv(&mut buf, &trace, "host", 1).expect("vec write cannot fail");
        let parsed = parse_reader(&buf[..], MsrParser::with_disk(1)).expect("own output parses");
        prop_assert_eq!(parsed.len(), trace.len());
        let t0 = trace.first().map_or(0, |r| r.timestamp_us);
        for (p, o) in parsed.iter().zip(&trace) {
            prop_assert_eq!(p.timestamp_us, o.timestamp_us - t0);
            prop_assert_eq!(p.op, o.op);
            prop_assert_eq!(p.lba, o.lba);
            prop_assert_eq!(p.sectors, o.sectors);
        }
    }

    /// The v2 format round-trips through both readers — whole-trace
    /// [`read_binary`] and streaming [`BinaryRecordIter`] — with the header
    /// carrying the correct `top_sector` (one past the highest touched
    /// LBA).
    #[test]
    fn v2_roundtrip_via_read_and_iter(trace in trace_strategy()) {
        let mut buf = Vec::new();
        write_binary_v2(&mut buf, &trace).expect("vec write cannot fail");

        let mut iter = BinaryRecordIter::new(&buf[..]).expect("own header parses");
        prop_assert_eq!(iter.header().version, 2);
        prop_assert_eq!(iter.header().count, trace.len() as u64);
        prop_assert_eq!(iter.header().top_sector, Some(top_sector(&trace)));
        let streamed: Vec<TraceRecord> = (&mut iter)
            .collect::<Result<_, _>>()
            .expect("own records decode");
        prop_assert_eq!(&streamed, &trace);
        prop_assert_eq!(read_binary(&buf[..]).expect("own image parses"), trace);
    }

    /// Converting a trace to binary is transparent: records parsed from
    /// CloudPhysics CSV and the same records read back from a v2 image
    /// are identical.
    #[test]
    fn csv_parse_equals_binary_replay(trace in trace_strategy()) {
        let mut csv = Vec::new();
        write_cp_csv(&mut csv, &trace).expect("vec write cannot fail");
        let parsed = parse_reader(&csv[..], CpParser::new()).expect("own output parses");

        let mut bin = Vec::new();
        write_binary_v2(&mut bin, &parsed).expect("vec write cannot fail");
        let replayed = read_binary(&bin[..]).expect("own image parses");
        prop_assert_eq!(replayed, parsed);
    }

    /// Characterization is invariant under serialization roundtrips.
    #[test]
    fn characterization_stable_across_formats(trace in trace_strategy()) {
        let direct = characterize(&trace);
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).expect("vec write cannot fail");
        let via_binary = characterize(&read_binary(&buf[..]).expect("parses"));
        prop_assert_eq!(direct, via_binary);
    }

    /// Characterization invariants on arbitrary traces.
    #[test]
    fn characterization_invariants(trace in trace_strategy()) {
        let stats = characterize(&trace);
        prop_assert_eq!(stats.total_ops() as usize, trace.len());
        prop_assert!(stats.contiguous_ops <= stats.total_ops());
        let touched: u64 = trace.iter().map(|r| u64::from(r.sectors)).sum();
        prop_assert!(stats.footprint_sectors <= touched.max(1));
        if let Some(max) = stats.max_lba {
            for r in &trace {
                prop_assert!(r.end().sector() - 1 <= max.sector());
            }
        } else {
            prop_assert!(trace.is_empty());
        }
        prop_assert!((0.0..=1.0).contains(&stats.write_ratio()));
        prop_assert!((0.0..=1.0).contains(&stats.sequentiality()));
    }
}
