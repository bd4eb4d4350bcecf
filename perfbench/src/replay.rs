//! The two replay workloads: `sweep-large` (the `smrseek simulate` flow on
//! a large MSR CSV trace) and `table1-matrix` (the `smrseek adaptive`
//! flow over all 21 Table-I profiles in memory).

use crate::stats::median;
use crate::{host_cpus, Args, Report};
use smrseek_sim::engine::LayerChoice;
use smrseek_sim::{
    saf, RunMatrix, RunOutcome, RunReport, Saf, ShardPolicy, SimConfig, Simulation, TraceSource,
};
use smrseek_trace::parse::{parse_reader, MsrParser};
use smrseek_trace::{stream, OpKind, TraceRecord};
use smrseek_workloads::profiles::{self, Profile};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Table-I profile `sweep-large` replays: read-heavy, with a footprint far
/// beyond the 64 MB selective cache.
pub const SWEEP_PROFILE: &str = "w91";
/// Operations `sweep-large` asks the generator for.
pub const SWEEP_OPS: usize = 500_000;
/// Operations per profile in `table1-matrix`.
pub const TABLE1_OPS: usize = 30_000;
/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;
/// Fewest timed repetitions a replay run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// The configurations `table1-matrix` crosses every profile with: the
/// standard sweep plus the adaptive policy engine.
fn table1_configs() -> Vec<SimConfig> {
    let mut configs = SimConfig::standard_sweep().to_vec();
    configs.push(SimConfig::ls_adaptive());
    configs
}

/// Looks up a Table-I profile by name.
pub fn profile(name: &str) -> Result<Profile, String> {
    profiles::by_name(name).ok_or_else(|| format!("unknown profile {name}"))
}

/// A scratch directory removed, with its contents, when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `<out>/work-<pid>`.
    pub fn new(out: &Path) -> Result<ScratchDir, String> {
        let dir = out.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes `records` as an MSR-format CSV.
pub fn write_csv(path: &Path, records: &[TraceRecord]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    smrseek_trace::writer::write_msr_csv(&mut writer, records, "perfbench", 0)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    writer
        .flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Opens and parses an MSR CSV trace — the `trace` layer's entry point.
pub fn parse_csv(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    parse_reader(BufReader::new(file), MsrParser::new())
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The parser keeps everything but the timestamp epoch, so a round trip
/// must preserve every record's op, address and length.
pub fn same_records(parsed: &[TraceRecord], generated: &[TraceRecord]) -> bool {
    parsed.len() == generated.len()
        && parsed
            .iter()
            .zip(generated)
            .all(|(a, b)| a.op == b.op && a.lba == b.lba && a.sectors == b.sectors)
}

/// NoLS read and write seeks counted directly with the paper's §II rule:
/// the head rests one past the previous operation (sector 0 at the
/// start), and an operation that starts anywhere else is one seek. NoLS
/// places every logical sector at the same physical sector.
fn nols_seeks(records: &[TraceRecord]) -> (u64, u64) {
    let (mut reads, mut writes, mut head) = (0, 0, 0u64);
    for rec in records {
        let start = rec.lba.sector();
        if start != head {
            match rec.op {
                OpKind::Read => reads += 1,
                OpKind::Write => writes += 1,
            }
        }
        head = start + u64::from(rec.sectors);
    }
    (reads, writes)
}

/// The frontier bound a random-access replay derives for `records`.
pub fn frontier_top(records: &[TraceRecord]) -> u64 {
    stream::max_lba(records).map_or(0, |l| l.sector() + 1)
}

/// One cell replayed serially on this thread through the streaming
/// engine entry point — the reference the parallel matrix must match.
fn serial_report(records: &[TraceRecord], config: &SimConfig) -> RunReport {
    let config = match config.layer {
        LayerChoice::Ls { .. } => config.with_frontier_hint(frontier_top(records)),
        LayerChoice::NoLs => *config,
    };
    Simulation::new(&config).run(records.iter().copied())
}

/// The SAF document of one trace's reports, baseline first — the JSON
/// `smrseek simulate --json` writes.
fn saf_doc(reports: &[&RunReport]) -> String {
    let base = reports[0].seeks;
    let safs: Vec<(String, Saf)> = reports
        .iter()
        .map(|r| (r.layer_name.clone(), Saf::from_stats(&r.seeks, &base)))
        .collect();
    serde_json::to_string_pretty(&safs).expect("SAF documents serialize")
}

/// The serial single-thread reference documents of `traces` × `configs`.
fn reference_docs(traces: &[Vec<TraceRecord>], configs: &[SimConfig]) -> Vec<String> {
    traces
        .iter()
        .map(|records| {
            let reports: Vec<RunReport> =
                configs.iter().map(|c| serial_report(records, c)).collect();
            saf_doc(&reports.iter().collect::<Vec<_>>())
        })
        .collect()
}

/// Checks one trace's matrix outcomes: every cell replayed every record
/// and the NoLS cell's seeks equal the independent count. Returns the
/// failures found.
fn check_cells(outcomes: &[RunOutcome], records: usize, nols: (u64, u64)) -> Vec<String> {
    let mut failures = Vec::new();
    for o in outcomes {
        if o.report.logical_ops != records as u64 {
            failures.push(format!(
                "{} replayed {} of {records} records",
                o.label, o.report.logical_ops
            ));
        }
    }
    let seeks = outcomes[0].report.seeks;
    if (seeks.read_seeks, seeks.write_seeks) != nols {
        failures.push(format!(
            "NoLS seeks {}/{} differ from the independent count {}/{}",
            seeks.read_seeks, seeks.write_seeks, nols.0, nols.1
        ));
    }
    failures
}

/// Timing of one repetition.
struct Rep {
    seconds: f64,
    records: u64,
    /// Summed replay time of the repetition's cells (`RunMetrics::wall`).
    cell_seconds: f64,
    failures: Vec<String>,
}

/// Fills the report shared by both replay workloads.
fn replay_report(report: &mut Report, setup: &[f64], reps: &[Rep], reference_s: f64) {
    report.attempted = reps.len() as u64;
    report.failed = reps.iter().filter(|r| !r.failures.is_empty()).count() as u64;
    for failure in reps.iter().flat_map(|r| &r.failures).take(5) {
        report.line(format!("CHECK FAILED: {failure}"));
    }
    let rates: Vec<f64> = reps.iter().map(|r| r.records as f64 / r.seconds).collect();
    let times: Vec<f64> = reps.iter().map(|r| r.seconds * 1e3).collect();
    report.metric("setup_s", median(setup).expect("set-up ran"));
    report.metric("records_per_s", median(&rates).expect("reps ran"));
    report.metric("op_p50_ms", median(&times).expect("reps ran"));
    report.peak_rss();
    report.line(format!(
        "{} timed repetitions; op times (ms): {}",
        reps.len(),
        times
            .iter()
            .map(|t| format!("{t:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.line(format!(
        "summed cell replay time (s): {}",
        reps.iter()
            .map(|r| format!("{:.2}", r.cell_seconds))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.line(format!(
        "set-up times (s): {}; serial reference replay: {reference_s:.3} s (checks only, not in setup_s)",
        setup
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.line(format!(
        "checks: {} of {} repetitions passed (cells replay every record, NoLS seeks = §II count, SAF documents = serial reference)",
        reps.len() - report.failed as usize,
        reps.len()
    ));
}

/// Repeats `op` until `seconds` have passed (and at least [`MIN_REPS`]).
fn timed_reps(
    seconds: f64,
    mut op: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(op()?);
    }
    Ok(reps)
}

/// `sweep-large`: parse a w91 MSR trace, run the five-config sweep on
/// every host CPU, build the SAF documents.
pub fn sweep_large(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let profile = profile(SWEEP_PROFILE)?;
    let scratch = ScratchDir::new(&args.out_dir)?;
    let csv = scratch.0.join(format!("{SWEEP_PROFILE}.csv"));
    let mut setup = Vec::new();
    let mut records = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        records = profile.generate_scaled(args.seed, SWEEP_OPS);
        write_csv(&csv, &records)?;
        setup.push(t.elapsed().as_secs_f64());
    }

    let t = Instant::now();
    let parsed = parse_csv(&csv)?;
    if !same_records(&parsed, &records) {
        return Err("the CSV round trip changed the generated records".to_owned());
    }
    let configs = SimConfig::standard_sweep();
    let reference = reference_docs(std::slice::from_ref(&parsed), &configs).remove(0);
    let nols = nols_seeks(&parsed);
    let reference_s = t.elapsed().as_secs_f64();
    let n = parsed.len();
    drop((parsed, records));

    let threads = host_cpus();
    let reps = timed_reps(args.seconds, || {
        let t = Instant::now();
        let parsed = parse_csv(&csv)?;
        let source = TraceSource::from_records(SWEEP_PROFILE, parsed);
        let outcomes =
            RunMatrix::cross(&[source], &configs).execute_with(threads, ShardPolicy::Auto);
        let doc = serde_json::to_string_pretty(&saf::sweep_safs(&outcomes))
            .map_err(|e| format!("SAF document: {e}"))?;
        let seconds = t.elapsed().as_secs_f64();
        let mut failures = check_cells(&outcomes, n, nols);
        if doc != reference {
            failures.push("SAF document differs from the serial reference".to_owned());
        }
        Ok(Rep {
            seconds,
            records: outcomes.iter().map(|o| o.report.logical_ops).sum(),
            cell_seconds: outcomes.iter().map(|o| o.metrics.wall.as_secs_f64()).sum(),
            failures,
        })
    })?;
    report.line(format!(
        "{SWEEP_PROFILE}: {n} records, 5 configs on {threads} threads (ShardPolicy::Auto)"
    ));
    replay_report(&mut report, &setup, &reps, reference_s);
    Ok(report)
}

/// Generates every Table-I profile at [`TABLE1_OPS`] operations.
fn table1_traces(seed: u64) -> Vec<(&'static str, Vec<TraceRecord>)> {
    profiles::all()
        .iter()
        .map(|p| (p.name, p.generate_scaled(seed, TABLE1_OPS)))
        .collect()
}

/// `table1-matrix`: all 21 Table-I profiles × six configs (126 cells) on
/// every host CPU, SAF documents per profile.
pub fn table1_matrix(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        traces = table1_traces(args.seed);
        setup.push(t.elapsed().as_secs_f64());
    }
    let configs = table1_configs();

    let t = Instant::now();
    let records: Vec<Vec<TraceRecord>> = traces.iter().map(|(_, r)| r.clone()).collect();
    let reference = reference_docs(&records, &configs);
    let nols: Vec<(u64, u64)> = records.iter().map(|r| nols_seeks(r)).collect();
    let reference_s = t.elapsed().as_secs_f64();
    let lens: Vec<usize> = records.iter().map(Vec::len).collect();
    drop(records);

    let sources: Vec<TraceSource> = traces
        .into_iter()
        .map(|(name, records)| TraceSource::from_records(name, records))
        .collect();
    let threads = host_cpus();
    let reps = timed_reps(args.seconds, || {
        let t = Instant::now();
        let outcomes =
            RunMatrix::cross(&sources, &configs).execute_with(threads, ShardPolicy::Auto);
        let docs: Vec<String> = outcomes
            .chunks(configs.len())
            .map(|cells| serde_json::to_string_pretty(&saf::sweep_safs(cells)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("SAF document: {e}"))?;
        let seconds = t.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        for (i, cells) in outcomes.chunks(configs.len()).enumerate() {
            failures.extend(check_cells(cells, lens[i], nols[i]));
            if docs[i] != reference[i] {
                failures.push(format!(
                    "{}: SAF document differs from the serial reference",
                    sources[i].name()
                ));
            }
        }
        Ok(Rep {
            seconds,
            records: outcomes.iter().map(|o| o.report.logical_ops).sum(),
            cell_seconds: outcomes.iter().map(|o| o.metrics.wall.as_secs_f64()).sum(),
            failures,
        })
    })?;
    report.line(format!(
        "{} profiles x {} configs = {} cells, {} records per pass, on {threads} threads",
        sources.len(),
        configs.len(),
        sources.len() * configs.len(),
        lens.iter().sum::<usize>() * configs.len()
    ));
    replay_report(&mut report, &setup, &reps, reference_s);
    Ok(report)
}
