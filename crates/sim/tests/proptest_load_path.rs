//! Property test of the one trace load path: a trace written as CSV and the
//! same trace converted to `.smrt` (the `convert` command's writer) both
//! load through [`sniff_path`] + [`parse_path`] and must replay to
//! byte-identical reports — the standard-sweep SAF table the `simulate`
//! command serializes, and a single-config [`RunReport`] with seek
//! distances recorded, as a daemon single-config job returns it.
//!
//! Replay derives the log-structured frontier from the records alone, so
//! equal records replay to equal reports whatever file they came from.

use proptest::prelude::*;
use smrseek_sim::runner::RunMatrix;
use smrseek_sim::{saf, tracecache, RunReport, SimConfig, TraceSource};
use smrseek_trace::parse::{parse_path, sniff_path, DetectedFormat};
use smrseek_trace::writer::{write_cp_csv, write_msr_csv};
use smrseek_trace::{Lba, OpKind, TraceRecord};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ordinary requests and multi-MiB ones (2048 sectors = 1 MiB), at LBAs
/// that stay dense enough for reads to hit earlier writes.
fn record() -> impl Strategy<Value = TraceRecord> {
    let sectors = prop_oneof![
        6 => 1u32..256,
        1 => 2048u32..=32_768,
    ];
    (0u64..1 << 20, prop::bool::ANY, 0u64..1 << 16, sectors).prop_map(|(ts, read, lba, sectors)| {
        let op = if read { OpKind::Read } else { OpKind::Write };
        TraceRecord::new(ts, op, Lba::new(lba * 8), sectors)
    })
}

/// Non-empty traces (a CSV with no data lines has no format to sniff),
/// sorted by timestamp like real captures.
fn trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(record(), 1..160).prop_map(|mut v| {
        v.sort_by_key(|r| r.timestamp_us);
        v
    })
}

/// A fresh path in the temp directory, unique per process and call.
fn tmp_path(ext: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "smrseek_load_path_{}_{n}.{ext}",
        std::process::id()
    ))
}

/// Sniffs and loads `path` the way the CLI and the daemon do.
fn load(path: &Path) -> (DetectedFormat, Vec<TraceRecord>) {
    let format = sniff_path(path).expect("own file sniffs");
    (format, parse_path(path, format).expect("own file parses"))
}

/// The `simulate --json` document: the standard sweep's SAF table.
fn sweep_json(records: Vec<TraceRecord>) -> String {
    let source = TraceSource::from_records("t", records);
    let outcomes =
        RunMatrix::cross(&[source], &SimConfig::standard_sweep()).execute(NonZeroUsize::MIN);
    serde_json::to_string(&saf::sweep_safs(&outcomes)).expect("SAF table serializes")
}

/// One configuration replayed with seek distances recorded.
fn single_json(records: Vec<TraceRecord>, config: SimConfig) -> String {
    let source = TraceSource::from_records("t", records);
    let outcomes =
        RunMatrix::cross(&[source], &[config.with_distances()]).execute(NonZeroUsize::MIN);
    let report: &RunReport = &outcomes[0].report;
    serde_json::to_string(report).expect("report serializes")
}

fn configs() -> [SimConfig; 7] {
    let [nols, ls, defrag, prefetch, cache] = SimConfig::standard_sweep();
    [
        nols,
        ls,
        defrag,
        prefetch,
        cache,
        SimConfig::ls_adaptive(),
        SimConfig::log_structured().with_fragment_tracking(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csv_and_converted_smrt_replay_byte_identically(
        trace in trace(),
        msr in prop::bool::ANY,
        config in 0usize..7,
    ) {
        let csv = tmp_path("csv");
        let smrt = tmp_path("smrt");
        let mut file = std::fs::File::create(&csv).expect("csv created");
        if msr {
            write_msr_csv(&mut file, &trace, "host", 0).expect("csv written");
        } else {
            write_cp_csv(&mut file, &trace).expect("csv written");
        }
        drop(file);

        let (csv_format, via_csv) = load(&csv);
        prop_assert_ne!(csv_format, DetectedFormat::Binary);
        tracecache::write_smrt(&smrt, &via_csv).expect("smrt written");
        let (smrt_format, via_smrt) = load(&smrt);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&smrt).ok();
        prop_assert_eq!(smrt_format, DetectedFormat::Binary);
        prop_assert_eq!(&via_smrt, &via_csv);

        prop_assert_eq!(sweep_json(via_csv.clone()), sweep_json(via_smrt.clone()));
        let config = configs()[config];
        prop_assert_eq!(single_json(via_csv, config), single_json(via_smrt, config));
    }
}
