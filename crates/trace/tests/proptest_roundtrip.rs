//! Property tests: every serialization format round-trips arbitrary
//! traces losslessly (modulo each format's documented normalizations).

use proptest::prelude::*;
use smrseek_trace::binary::{
    read_binary, top_sector, write_binary, write_binary_v2, BinaryRecordIter,
};
use smrseek_trace::parse::{parse_reader, CpParser, MsrParser};
use smrseek_trace::writer::{write_cp_csv, write_msr_csv};
use smrseek_trace::{characterize, Lba, OpKind, TraceRecord};

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
