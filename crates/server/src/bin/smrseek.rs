//! The `smrseek` command-line interface.
//!
//! Regenerates every table and figure of *"Minimizing Read Seeks for SMR
//! Disk"* (IISWC 2018) from the synthetic Table-I workload profiles, and
//! can characterize or simulate external traces in the MSR or
//! CloudPhysics CSV formats.
//!
//! ```text
//! smrseek <command> [--ops N] [--seed S] [--threads N] [--json FILE]
//!
//! commands:
//!   table1 | fig2 | fig3 | fig4 | fig5 | fig7 | fig8 | fig10 | fig11
//!   classify               log-friendly / agnostic / sensitive taxonomy
//!   analyze                trace-level analysis vs seek class
//!   frag                   static vs dynamic fragmentation (§IV-A)
//!   ablate                 run the parameter-sweep ablations
//!   adaptive               adaptive policy engine vs each fixed mechanism
//!   timeamp                extension: seek-time amplification
//!   hostcache              extension: host buffer-cache interaction
//!   clean                  extension: finite-log cleaning sweep
//!   reorder                extension: NCQ elevator vs prefetching
//!   zones                  extension: SAF robustness to ZBC zone backing
//!   plotdata [--out DIR]   write plot-ready CSV series for every figure
//!   all                    run every experiment in order
//!   characterize <file>    Table-I style stats for an external trace
//!   simulate <file>        NoLS/LS/mechanism SAF for an external trace
//!   bench                  ingest + serial replay throughput per config
//!   convert <in> <out>     convert any trace to the v2 binary format
//!   gen <profile>          emit a synthetic trace as CloudPhysics CSV
//!   list                   list the 21 workload profiles
//!   serve                  run the smrseekd HTTP daemon (see crate docs)
//!   bench-daemon           drive a running daemon with concurrent
//!                          submissions; p50/p99/p999 latency + drops
//!   snapshot <trace> <dir> checkpoint the sweep --at N records into <dir>
//!   resume <trace> <dir>   run the sweep, resuming from <dir>'s checkpoints
//!   profile <trace>        replay the sweep under span recording and write
//!                          a Chrome trace-event JSON (`--out`, default
//!                          trace.json) viewable in Perfetto
//!   trace <trace-id>       fetch a distributed trace from a daemon
//!                          (`--addr`) or a whole fleet (`--peers`),
//!                          stitch the spans, and write a Chrome
//!                          trace-event JSON (`--out`, default
//!                          trace.json) viewable in Perfetto
//! ```
//!
//! Diagnostics go through the `smrseek-obs` leveled logger: quiet (warn)
//! by default, `-v`/`--verbose` or `SMRSEEK_LOG=debug` restores the
//! progress chatter, `--log-json` switches stderr to JSON lines.
//!
//! Trace files may be MSR CSV, CloudPhysics CSV, blkparse text, or the
//! compact binary format (`--format msr|cp|blktrace|binary`, auto-sniffed
//! by default — binary files are recognized by their `SMRT` magic).
//! `--cache` stages traces through mmapped `.smrt` sidecars so repeat
//! runs replay with zero parse cost.

use smrseek_sim::checkpoint::checkpoint_config_key;
use smrseek_sim::experiments::{
    ablation, adaptive, analyze, classify, cleaning, fig10, fig11, fig2, fig3, fig4, fig5, fig7,
    fig8, fragmentation, host_cache, reorder, table1, time_amp, zones, ExpOptions,
};
use smrseek_sim::runner::{self, parallel_map, MatrixStats, RunCell, RunMatrix};
use smrseek_sim::{
    saf, tracecache, CheckpointStore, SimConfig, Simulation, TextTable, TraceSource,
};
use smrseek_trace::binary::{self, MmapTrace};
use smrseek_trace::parse::{parse_reader, BlktraceParser, CpParser, MsrParser};
use smrseek_trace::writer::write_cp_csv;
use smrseek_trace::{characterize, TraceRecord};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read as _, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// A CLI failure, classified so the exit code can tell misuse (2), bad
/// trace data (65, `EX_DATAERR`) and I/O failure (74, `EX_IOERR`) apart.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// Bad command line: unknown command/flag, missing operand.
    Usage(String),
    /// The environment failed us: open/create/read/write errors.
    Io(String),
    /// The input was readable but malformed: trace or format errors.
    Parse(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 65,
            CliError::Io(_) => 74,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Every usage failure prints the usage string exactly once,
            // whether or not the originating site embedded it.
            CliError::Usage(msg) if msg.contains("usage:") => write!(f, "{msg}"),
            CliError::Usage(msg) => write!(f, "{msg}\n{}", usage()),
            CliError::Io(msg) => write!(f, "error: {msg}"),
            CliError::Parse(msg) => write!(f, "error: {msg}"),
        }
    }
}

struct Args {
    command: String,
    file: Option<String>,
    file2: Option<String>,
    opts: ExpOptions,
    json: Option<String>,
    out: Option<String>,
    format: TraceFormat,
    threads: NonZeroUsize,
    cache: bool,
    addr: String,
    workers: usize,
    queue_depth: usize,
    peers: Vec<String>,
    requests: usize,
    concurrency: usize,
    distinct: usize,
    at: Option<u64>,
    ops_explicit: bool,
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    verbose: bool,
    log_json: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum TraceFormat {
    Auto,
    Msr,
    Cp,
    Blktrace,
    Binary,
}

fn usage() -> String {
    "usage: smrseek <table1|fig2|...|fig11|ablate|adaptive|timeamp|hostcache|clean|all|list> \
     [--ops N] [--seed S] [--threads N] [--cache] [--json FILE]\n       \
     smrseek <characterize|simulate> <trace> [--format msr|cp|blktrace|binary] [--cache] \
     [--json FILE]\n       \
     smrseek bench [--ops N] [--seed S] [--json FILE]\n       \
     smrseek convert <trace> <out.smrt> [--format msr|cp|blktrace|binary]\n       \
     smrseek gen <profile> [--ops N] [--seed S] [--out FILE]\n       \
     smrseek serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--threads N] \
     [--checkpoint-dir DIR] [--checkpoint-every N] [--peers ADDR,ADDR,...]\n       \
     smrseek bench-daemon [--addr HOST:PORT] [--requests N] [--concurrency N] \
     [--distinct N] [--ops N] [--json FILE]\n       \
     smrseek snapshot <trace> <dir> --at N [--format ...] [--cache]\n       \
     smrseek resume <trace> <dir> [--format ...] [--cache] [--json FILE]\n       \
     smrseek profile <trace> [--out trace.json] [--format ...] [--cache] [--threads N]\n       \
     smrseek trace <trace-id> [--addr HOST:PORT] [--peers ADDR,ADDR,...] [--out trace.json]\n       \
     smrseek --version\n\
     global flags: -v/--verbose (or SMRSEEK_LOG=debug) for progress chatter, \
     --log-json for JSON-lines stderr\n\
     threads: --threads N workers run matrix cells in parallel, each cell replaying its \
     trace serially; SMRSEEK_THREADS overrides the default (host parallelism). Reports \
     never depend on the thread count."
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let mut it = argv.iter();
    let command = it.next().ok_or_else(|| CliError::usage(usage()))?.clone();
    let mut args = Args {
        command,
        file: None,
        file2: None,
        opts: ExpOptions::default(),
        json: None,
        out: None,
        format: TraceFormat::Auto,
        threads: runner::default_threads(),
        cache: false,
        addr: "127.0.0.1:7070".to_owned(),
        workers: 2,
        queue_depth: 64,
        peers: Vec::new(),
        requests: 2000,
        concurrency: 256,
        distinct: 16,
        at: None,
        ops_explicit: false,
        checkpoint_dir: None,
        checkpoint_every: 100_000,
        verbose: false,
        log_json: false,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ops" => {
                args.opts.ops = it
                    .next()
                    .ok_or_else(|| CliError::usage("--ops needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--ops must be an integer"))?;
                args.ops_explicit = true;
            }
            "--seed" => {
                args.opts.seed = it
                    .next()
                    .ok_or_else(|| CliError::usage("--seed needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--seed must be an integer"))?;
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or_else(|| CliError::usage("--threads needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--threads must be a positive integer"))?;
            }
            "--json" => {
                args.json = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--json needs a path"))?
                        .clone(),
                );
            }
            "--out" => {
                args.out = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--out needs a path"))?
                        .clone(),
                );
            }
            "--format" => {
                args.format = match it
                    .next()
                    .ok_or_else(|| CliError::usage("--format needs msr|cp|blktrace|binary"))?
                    .as_str()
                {
                    "msr" => TraceFormat::Msr,
                    "cp" => TraceFormat::Cp,
                    "blktrace" => TraceFormat::Blktrace,
                    "binary" | "smrt" => TraceFormat::Binary,
                    other => return Err(CliError::usage(format!("unknown format {other:?}"))),
                };
            }
            "--cache" => {
                args.cache = true;
            }
            "-v" | "--verbose" => {
                args.verbose = true;
            }
            "--log-json" => {
                args.log_json = true;
            }
            "--addr" => {
                args.addr = it
                    .next()
                    .ok_or_else(|| CliError::usage("--addr needs host:port"))?
                    .clone();
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .ok_or_else(|| CliError::usage("--workers needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--workers must be an integer"))?;
            }
            "--queue-depth" => {
                args.queue_depth = it
                    .next()
                    .ok_or_else(|| CliError::usage("--queue-depth needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--queue-depth must be an integer"))?;
            }
            "--peers" => {
                args.peers = it
                    .next()
                    .ok_or_else(|| CliError::usage("--peers needs addr,addr,..."))?
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--requests" => {
                args.requests = it
                    .next()
                    .ok_or_else(|| CliError::usage("--requests needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--requests must be an integer"))?;
            }
            "--concurrency" => {
                args.concurrency = it
                    .next()
                    .ok_or_else(|| CliError::usage("--concurrency needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--concurrency must be a positive integer"))?;
            }
            "--distinct" => {
                args.distinct = it
                    .next()
                    .ok_or_else(|| CliError::usage("--distinct needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--distinct must be a positive integer"))?;
            }
            "--at" => {
                args.at = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--at needs a record count"))?
                        .parse()
                        .map_err(|_| CliError::usage("--at must be an integer"))?,
                );
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--checkpoint-dir needs a path"))?
                        .clone(),
                );
            }
            "--checkpoint-every" => {
                args.checkpoint_every = it
                    .next()
                    .ok_or_else(|| CliError::usage("--checkpoint-every needs a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--checkpoint-every must be an integer"))?;
            }
            other if args.file.is_none() && !other.starts_with("--") => {
                args.file = Some(other.to_owned());
            }
            other if args.file2.is_none() && !other.starts_with("--") => {
                args.file2 = Some(other.to_owned());
            }
            other => {
                return Err(CliError::usage(format!(
                    "unknown argument {other:?}\n{}",
                    usage()
                )))
            }
        }
    }
    Ok(args)
}

fn load_trace(path: &str, format: TraceFormat) -> Result<Vec<TraceRecord>, CliError> {
    let format = match format {
        TraceFormat::Auto => sniff_format(path)?,
        other => other,
    };
    if format == TraceFormat::Binary {
        return Ok(open_mmap(path)?.iter().collect());
    }
    let file = File::open(path).map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
    let reader = BufReader::new(file);
    let parsed = match format {
        TraceFormat::Msr => parse_reader(reader, MsrParser::new()),
        TraceFormat::Cp => parse_reader(reader, CpParser::new()),
        TraceFormat::Blktrace => parse_reader(reader, BlktraceParser::new()),
        TraceFormat::Auto | TraceFormat::Binary => unreachable!("resolved above"),
    };
    parsed.map_err(|e| match e {
        smrseek_trace::Error::Io(e) => CliError::Io(format!("{path}: {e}")),
        other => CliError::Parse(format!("{path}: {other}")),
    })
}

/// Maps a binary `.smrt` trace read-only, classifying failures for the
/// exit code.
fn open_mmap(path: &str) -> Result<MmapTrace, CliError> {
    MmapTrace::open(Path::new(path)).map_err(|e| match e {
        smrseek_trace::Error::Io(e) => CliError::Io(format!("{path}: {e}")),
        other => CliError::Parse(format!("{path}: {other}")),
    })
}

/// Binary traces carry the `SMRT` magic in their first bytes; MSR lines
/// have 7 comma-separated fields; CloudPhysics lines have 4; blkparse
/// lines are whitespace-separated with a `+` before the count. The magic
/// is checked first so a binary file is never mistaken for CSV.
fn sniff_format(path: &str) -> Result<TraceFormat, CliError> {
    let mut file =
        File::open(path).map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
    let mut prefix = [0u8; 6];
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) => return Err(CliError::Io(format!("{path}: {e}"))),
        }
    }
    if binary::sniff_magic(&prefix[..filled]).is_some() {
        return Ok(TraceFormat::Binary);
    }
    let file = File::open(path).map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with("timestamp_us") {
            continue;
        }
        if t.split_whitespace().any(|f| f == "+") {
            return Ok(TraceFormat::Blktrace);
        }
        return Ok(if t.split(',').count() >= 7 {
            TraceFormat::Msr
        } else {
            TraceFormat::Cp
        });
    }
    Err(CliError::Parse(format!(
        "{path}: no data lines to sniff the format from"
    )))
}

/// The trace supply for `simulate`: binary inputs are mmapped directly;
/// with `--cache` a `.smrt` sidecar next to the trace is mmapped when
/// present and populated (then mmapped) after the first parse; otherwise
/// the trace is parsed into memory. Cache failures degrade to the parsed
/// path with a stderr note, never failing the run.
fn simulate_source(path: &str, format: TraceFormat, cache: bool) -> Result<TraceSource, CliError> {
    let format = match format {
        TraceFormat::Auto => sniff_format(path)?,
        other => other,
    };
    if format == TraceFormat::Binary {
        return Ok(TraceSource::from_mmap(path, Arc::new(open_mmap(path)?)));
    }
    if !cache {
        return Ok(TraceSource::from_records(path, load_trace(path, format)?));
    }
    let sidecar = tracecache::sidecar_path(Path::new(path));
    if sidecar.exists() {
        match MmapTrace::open(&sidecar) {
            Ok(map) => {
                smrseek_obs::info!("cache: replaying {}", sidecar.display());
                return Ok(TraceSource::from_mmap(path, Arc::new(map)));
            }
            Err(e) => {
                smrseek_obs::warn!("cache: ignoring {}: {e}; reparsing", sidecar.display());
            }
        }
    }
    let records = load_trace(path, format)?;
    match tracecache::write_sidecar(&sidecar, &records) {
        Ok(()) => smrseek_obs::info!("cache: wrote {}", sidecar.display()),
        Err(e) => smrseek_obs::warn!("cache: {e}"),
    }
    Ok(TraceSource::from_records(path, records))
}

/// The synthetic-profile cache directory implied by `--cache`.
fn cache_dir(args: &Args) -> Option<PathBuf> {
    args.cache
        .then(|| PathBuf::from(tracecache::DEFAULT_CACHE_DIR))
}

fn maybe_write_json<T: serde::Serialize>(json: &Option<String>, value: &T) -> Result<(), CliError> {
    if let Some(path) = json {
        let text =
            serde_json::to_string_pretty(value).map_err(|e| CliError::Parse(e.to_string()))?;
        let mut f =
            File::create(path).map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
        f.write_all(text.as_bytes())
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        smrseek_obs::info!("wrote {path}");
    }
    Ok(())
}

/// Set by the `SIGINT`/`SIGTERM` handler; the serve loop polls it.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs `request_shutdown` for `SIGINT` (2) and `SIGTERM` (15) via
/// `signal(2)`, declared raw like `mmap(2)` in the trace crate — the
/// build environment has no libc crate. Setting a flag is all the
/// handler does, which is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, request_shutdown as *const () as usize);
        signal(SIGTERM, request_shutdown as *const () as usize);
    }
}

/// `smrseek profile <trace>`: replays the standard sweep with span
/// recording and phase accounting on, checkpointing a few times per cell
/// so checkpoint I/O shows up too, and writes the spans as Chrome
/// trace-event JSON (open in Perfetto or `chrome://tracing`). Each
/// per-cell span gets synthetic `phase:*` children laying out where the
/// cell's replay time went.
fn run_profile(args: &Args) -> Result<String, CliError> {
    let path = args
        .file
        .as_ref()
        .ok_or_else(|| CliError::usage("profile needs a trace file"))?;
    let out_path = args.out.clone().unwrap_or_else(|| "trace.json".to_owned());
    let source = simulate_source(path, args.format, args.cache)?;
    let records = source.records().len() as u64;
    if records == 0 {
        return Err(CliError::Parse(format!("{path}: empty trace")));
    }
    let digest = source.digest().as_u128();
    // Checkpoints land in a throwaway store: the point is to exercise
    // (and time) checkpoint I/O, not to persist anything.
    let dir = std::env::temp_dir().join(format!("smrseek-profile-{}", std::process::id()));
    let store = CheckpointStore::new(&dir);
    let labels = ["NoLS", "LS", "LS+defrag", "LS+prefetch", "LS+cache"];
    let every = (records / 3).max(1);
    let mut matrix = RunMatrix::new();
    for (config, label) in SimConfig::standard_sweep().iter().zip(labels) {
        matrix.push(
            RunCell::new(source.clone(), config.with_checkpoint_every(every)).with_label(label),
        );
    }
    smrseek_obs::set_phase_accounting(true);
    smrseek_obs::span::start_recording(1 << 18);
    let (outcomes, _usage) = matrix.execute_checkpointed(args.threads, &store, digest);
    smrseek_obs::span::stop_recording();
    let (mut events, dropped) = smrseek_obs::span::take_events();
    smrseek_obs::set_phase_accounting(false);
    std::fs::remove_dir_all(&dir).ok();
    // Lay each cell's phase totals out as children of its span.
    let by_span: HashMap<String, &smrseek_obs::PhaseTotals> = outcomes
        .iter()
        .map(|o| (format!("cell:{}", o.label), &o.metrics.phases))
        .collect();
    let mut children = Vec::new();
    for event in &events {
        if let Some(phases) = by_span.get(&event.name) {
            children.extend(smrseek_obs::chrome::phase_children(event, phases));
        }
    }
    events.extend(children);
    let file = File::create(&out_path)
        .map_err(|e| CliError::Io(format!("cannot create {out_path}: {e}")))?;
    let mut writer = BufWriter::new(file);
    smrseek_obs::chrome::write_trace(&mut writer, &events)
        .and_then(|()| writer.flush())
        .map_err(|e| CliError::Io(format!("cannot write {out_path}: {e}")))?;
    let mut merged = smrseek_obs::PhaseTotals::default();
    for outcome in &outcomes {
        merged.merge(&outcome.metrics.phases);
    }
    let mut table = TextTable::new(vec!["phase", "calls", "seconds"]);
    for phase in smrseek_obs::Phase::ALL {
        table.row(vec![
            phase.label().to_owned(),
            merged.calls(phase).to_string(),
            format!("{:.6}", merged.seconds(phase)),
        ]);
    }
    if dropped > 0 {
        smrseek_obs::warn!("profile: span buffer overflowed, {dropped} span(s) dropped");
    }
    Ok(format!(
        "{path}: {records} ops, {} span(s) -> {out_path}\n{table}",
        events.len()
    ))
}

/// `smrseek bench` replays `--ops` records (default 10 million — large
/// enough that per-record overheads dominate any constant cost) of a
/// deterministic mixed read/write workload through the NoLS baseline and
/// three log-structured configs, and reports ingest bandwidth off the
/// binary format plus serial replay throughput for each. The host's CPU
/// count is reported alongside so numbers from different machines compare
/// honestly.
fn run_bench(args: &Args) -> Result<String, CliError> {
    #[derive(serde::Serialize)]
    struct BenchPhase {
        seconds: f64,
        records_per_s: f64,
    }
    #[derive(serde::Serialize)]
    struct BenchConfigRun {
        config: &'static str,
        serial: BenchPhase,
    }
    #[derive(serde::Serialize)]
    struct BenchReport {
        records: usize,
        trace_bytes: usize,
        host_cpus: usize,
        default_threads: usize,
        ingest_mib_per_s: f64,
        ingest: BenchPhase,
        configs: Vec<BenchConfigRun>,
    }

    let n = if args.ops_explicit {
        args.opts.ops
    } else {
        10_000_000
    };
    let seed = args.opts.seed | 1;
    smrseek_obs::info!("bench: generating {n} records");
    let records: Vec<TraceRecord> = (0..n as u64)
        .map(|i| {
            // A multiplicative scramble over a 16 GiB span: almost every
            // record seeks, so the seek model is fully exercised.
            let lba = smrseek_trace::Lba::new(
                i.wrapping_mul(seed).wrapping_mul(2654435761) % (1 << 22) * 8,
            );
            if i % 3 == 0 {
                TraceRecord::read(i, lba, 8)
            } else {
                TraceRecord::write(i, lba, 16)
            }
        })
        .collect();
    let mut buf = Vec::new();
    binary::write_binary_v2(&mut buf, &records).map_err(|e| CliError::Io(e.to_string()))?;
    let trace_bytes = buf.len();
    drop(records);
    let map = MmapTrace::from_bytes(buf).map_err(|e| CliError::Parse(e.to_string()))?;

    let phase = |seconds: f64| BenchPhase {
        seconds,
        records_per_s: n as f64 / seconds,
    };
    // Ingest: one block-decode pass over the mapped bytes, no simulation.
    let start = Instant::now();
    let mut blocks = map.blocks();
    let mut decoded = 0usize;
    while let Some(block) = blocks.next_block() {
        decoded += block.len();
    }
    let ingest_s = start.elapsed().as_secs_f64();
    if decoded != n {
        return Err(CliError::Parse(format!(
            "bench decoded {decoded} of {n} records"
        )));
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    // The NoLS baseline, plain log-structured translation, and the full
    // mechanism stack with and without the adaptive policy engine — the
    // last pair reads off the engine's end-to-end overhead.
    let fixed_stack = {
        let mut c = SimConfig::ls_adaptive();
        c.policy = None;
        c.flash_cache_bytes = None;
        c
    };
    let bench_configs = [
        ("NoLS", SimConfig::no_ls()),
        ("LS", SimConfig::log_structured()),
        ("LS+fixed", fixed_stack),
        ("LS+adaptive", SimConfig::ls_adaptive()),
    ];
    let mut configs = Vec::with_capacity(bench_configs.len());
    for (name, config) in bench_configs {
        let replay = || {
            let start = Instant::now();
            let report = Simulation::new(&config).run_trace(&map);
            (start.elapsed().as_secs_f64(), report.logical_ops)
        };
        // Warm the page cache and branch predictors off the books.
        replay();
        let (serial_s, serial_ops) = replay();
        if serial_ops != n as u64 {
            return Err(CliError::Parse(format!(
                "bench replayed {serial_ops} of {n} records"
            )));
        }
        smrseek_obs::info!("bench: {name} serial: {:.0} records/s", n as f64 / serial_s);
        configs.push(BenchConfigRun {
            config: name,
            serial: phase(serial_s),
        });
    }

    let report = BenchReport {
        records: n,
        trace_bytes,
        host_cpus,
        default_threads: runner::default_threads().get(),
        ingest_mib_per_s: trace_bytes as f64 / (1 << 20) as f64 / ingest_s,
        ingest: phase(ingest_s),
        configs,
    };
    maybe_write_json(&args.json, &report)?;

    let mut table = TextTable::new(vec!["stage", "seconds", "records/s"]);
    table.row(vec![
        "ingest".into(),
        format!("{:.3}", report.ingest.seconds),
        format!("{:.0}", report.ingest.records_per_s),
    ]);
    for run in &report.configs {
        table.row(vec![
            format!("{} serial", run.config),
            format!("{:.3}", run.serial.seconds),
            format!("{:.0}", run.serial.records_per_s),
        ]);
    }
    Ok(format!(
        "bench: {n} records ({:.1} MiB binary), {host_cpus} host CPU(s)\n{table}",
        trace_bytes as f64 / (1 << 20) as f64
    ))
}

/// Runs the daemon until a termination signal, then drains gracefully.
fn run_serve(args: &Args) -> Result<String, CliError> {
    let config = smrseek_server::ServerConfig {
        addr: args.addr.clone(),
        queue_depth: args.queue_depth,
        workers: args.workers,
        job_threads: args.threads,
        checkpoint_dir: args.checkpoint_dir.as_ref().map(PathBuf::from),
        checkpoint_every: args.checkpoint_every,
        peers: args.peers.clone(),
        ..smrseek_server::ServerConfig::default()
    };
    let handle = smrseek_server::start(config)
        .map_err(|e| CliError::Io(format!("cannot bind {}: {e}", args.addr)))?;
    // The address line goes to stdout (and is flushed) so scripts that
    // bind port 0 can learn the real port before talking to the daemon.
    println!("smrseekd listening on http://{}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Io(format!("cannot write startup line: {e}")))?;
    install_signal_handlers();
    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    smrseek_obs::info!("smrseekd: signal received, draining running jobs");
    let (hits, misses) = handle.state().metrics.cache_counts();
    handle.shutdown();
    Ok(format!(
        "smrseekd: clean shutdown ({hits} cache hits, {misses} misses)\n"
    ))
}

/// `smrseek bench-daemon`: drives `--requests` submissions at a running
/// daemon with up to `--concurrency` in flight and reports completion,
/// drop, and backpressure counts plus the p50/p99/p999 latency tail.
/// The daemon must already be listening on `--addr` (typically
/// `smrseek serve` in another process).
fn run_bench_daemon(args: &Args) -> Result<String, CliError> {
    let addr = args
        .addr
        .parse()
        .map_err(|e| CliError::usage(format!("--addr must be a literal host:port: {e}")))?;
    let config = smrseek_server::loadgen::LoadConfig {
        addr,
        requests: args.requests,
        concurrency: args.concurrency.max(1),
        distinct: args.distinct.max(1),
        ops: if args.ops_explicit {
            args.opts.ops as u64
        } else {
            smrseek_server::loadgen::LoadConfig::default().ops
        },
        ..smrseek_server::loadgen::LoadConfig::default()
    };
    let report = smrseek_server::loadgen::run(&config)
        .map_err(|e| CliError::Io(format!("load generator failed: {e}")))?;
    maybe_write_json(&args.json, &report.to_json())?;
    Ok(format!(
        "bench-daemon: {} requests at concurrency {} against {addr}\n{}",
        args.requests,
        config.concurrency,
        report.render_text()
    ))
}

/// One `GET /v1/trace/<id>` against a daemon, relayed as `(status, body)`.
fn fetch_trace(addr: &str, id: &str) -> Result<(u16, Vec<u8>), CliError> {
    let timeout = std::time::Duration::from_secs(5);
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Io(format!("connect to {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let head = format!("GET /v1/trace/{id} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| CliError::Io(format!("send to {addr}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| CliError::Io(format!("read from {addr}: {e}")))?;
    smrseek_server::http::parse_response(&raw)
        .map_err(|e| CliError::Parse(format!("bad response from {addr}: {e}")))
}

/// Decodes a `GET /v1/trace/<id>` body into [`smrseek_obs::DistSpan`]s.
fn parse_trace_body(body: &[u8]) -> Result<Vec<smrseek_obs::DistSpan>, String> {
    use serde::Value;
    fn hex_span_id(value: &Value) -> Option<u64> {
        value.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
    }
    fn number(span: &Value, key: &str) -> Result<u64, String> {
        span.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("span is missing {key}"))
    }
    let text = std::str::from_utf8(body).map_err(|_| "trace body is not UTF-8".to_owned())?;
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("trace body is not JSON: {e}"))?;
    let trace_id = root
        .get("trace_id")
        .and_then(Value::as_str)
        .and_then(smrseek_obs::dtrace::parse_trace_id)
        .ok_or("trace body has no trace_id")?;
    let spans = root
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("trace body has no spans array")?;
    spans
        .iter()
        .map(|span| {
            Ok(smrseek_obs::DistSpan {
                trace_id,
                span_id: span
                    .get("span_id")
                    .and_then(hex_span_id)
                    .ok_or("span is missing span_id")?,
                parent_span_id: span.get("parent_span_id").and_then(hex_span_id),
                name: span
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("span is missing name")?
                    .to_owned(),
                request_id: span
                    .get("request_id")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                start_unix_ns: number(span, "start_unix_ns")?,
                dur_ns: number(span, "dur_ns")?,
                pid: u32::try_from(number(span, "pid")?).map_err(|_| "pid overflows u32")?,
                tid: number(span, "tid")?,
            })
        })
        .collect()
}

/// `smrseek trace`: fetches `GET /v1/trace/<trace-id>` from a daemon
/// (`--addr`) or every member of a fleet (`--peers`), stitches the spans
/// into one timeline, and writes a Chrome trace-event JSON (loadable in
/// Perfetto) to `--out`. Daemons that answer 404 simply never touched
/// the trace — a forwarded job leaves spans on exactly two fleet
/// members — so 404s are skipped, not fatal; only a trace no daemon
/// holds is an error.
fn run_trace_fetch(args: &Args) -> Result<String, CliError> {
    let id = args
        .file
        .as_ref()
        .ok_or_else(|| CliError::usage("trace needs a trace id (32 lowercase hex digits)"))?;
    if smrseek_obs::dtrace::parse_trace_id(id).is_none() {
        return Err(CliError::usage(format!(
            "{id:?} is not a trace id (expected 32 lowercase hex digits, \
             e.g. from a POST /v1/jobs x-smrseek-trace response header)"
        )));
    }
    let addrs: &[String] = if args.peers.is_empty() {
        std::slice::from_ref(&args.addr)
    } else {
        &args.peers
    };
    let mut spans: Vec<smrseek_obs::DistSpan> = Vec::new();
    let mut processes: Vec<(u32, String)> = Vec::new();
    let mut holders = 0usize;
    for addr in addrs {
        let (status, body) = fetch_trace(addr, id)?;
        match status {
            200 => {}
            404 => continue,
            other => {
                return Err(CliError::Io(format!(
                    "daemon {addr} answered {other} for trace {id}: {}",
                    String::from_utf8_lossy(&body).trim()
                )))
            }
        }
        holders += 1;
        let parsed =
            parse_trace_body(&body).map_err(|e| CliError::Parse(format!("{addr}: {e}")))?;
        for span in parsed {
            if !processes.iter().any(|&(pid, _)| pid == span.pid) {
                processes.push((span.pid, format!("smrseekd {addr} (pid {})", span.pid)));
            }
            // `--addr` may also appear in `--peers`; keep one copy of
            // each span rather than double-drawing its slice.
            if !spans
                .iter()
                .any(|s| s.span_id == span.span_id && s.pid == span.pid)
            {
                spans.push(span);
            }
        }
    }
    if spans.is_empty() {
        return Err(CliError::Io(format!(
            "no daemon at {} holds trace {id} (traces are evicted FIFO; re-run the job?)",
            addrs.join(", ")
        )));
    }
    spans.sort_by_key(|s| (s.start_unix_ns, s.span_id));
    let out = args.out.clone().unwrap_or_else(|| "trace.json".to_owned());
    let file = File::create(&out).map_err(|e| CliError::Io(format!("cannot create {out}: {e}")))?;
    let mut writer = BufWriter::new(file);
    smrseek_obs::chrome::write_dist_trace(&mut writer, &spans, &processes)
        .and_then(|()| writer.flush())
        .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "trace {id}: {} span(s) across {} process(es) from {holders} daemon(s) -> {out}\n",
        spans.len(),
        processes.len()
    ))
}

fn run_experiment(args: &Args) -> Result<String, CliError> {
    let opts = &args.opts;
    Ok(match args.command.as_str() {
        "table1" => {
            let cache = cache_dir(args);
            let rows = table1::run_cached(opts, args.threads, cache.as_deref());
            maybe_write_json(&args.json, &rows)?;
            table1::render(&rows)
        }
        "fig2" => {
            let cache = cache_dir(args);
            let (rows, stats) = fig2::run_cached(opts, args.threads, cache.as_deref());
            smrseek_obs::info!("{}", stats.summary("fig2"));
            maybe_write_json(&args.json, &rows)?;
            fig2::render(&rows)
        }
        "fig3" => {
            let series = fig3::run(opts);
            maybe_write_json(&args.json, &series)?;
            fig3::render(&series)
        }
        "fig4" => {
            let cdfs = fig4::run(opts);
            maybe_write_json(&args.json, &cdfs)?;
            fig4::render(&cdfs)
        }
        "fig5" => {
            let dists = fig5::run(opts);
            maybe_write_json(&args.json, &dists)?;
            fig5::render(&dists)
        }
        "fig7" => {
            let patterns = fig7::run(opts);
            maybe_write_json(&args.json, &patterns)?;
            fig7::render(&patterns)
        }
        "fig8" => {
            let rows = fig8::run(opts);
            maybe_write_json(&args.json, &rows)?;
            fig8::render(&rows)
        }
        "fig10" => {
            let stats = fig10::run(opts);
            maybe_write_json(&args.json, &stats)?;
            fig10::render(&stats)
        }
        "fig11" => {
            let rows = fig11::run(opts);
            maybe_write_json(&args.json, &rows)?;
            fig11::render(&rows)
        }
        "ablate" => {
            let (sweeps, stats) = ablation::run_with_threads(opts, args.threads);
            smrseek_obs::info!("{}", stats.summary("ablate"));
            maybe_write_json(&args.json, &sweeps)?;
            ablation::render(&sweeps)
        }
        "adaptive" => {
            let cache = cache_dir(args);
            let (report, stats) = adaptive::run_cached(opts, args.threads, cache.as_deref());
            smrseek_obs::info!("{}", stats.summary("adaptive"));
            maybe_write_json(&args.json, &report)?;
            adaptive::render(&report)
        }
        "analyze" => {
            let rows = analyze::run(opts);
            maybe_write_json(&args.json, &rows)?;
            analyze::render(&rows)
        }
        "frag" => {
            let rows = fragmentation::run(opts);
            maybe_write_json(&args.json, &rows)?;
            fragmentation::render(&rows)
        }
        "classify" => {
            let rows = classify::run(opts);
            maybe_write_json(&args.json, &rows)?;
            classify::render(&rows)
        }
        "timeamp" => {
            let rows = time_amp::run(opts);
            maybe_write_json(&args.json, &rows)?;
            time_amp::render(&rows)
        }
        "hostcache" => {
            let sweeps = host_cache::run(opts);
            maybe_write_json(&args.json, &sweeps)?;
            host_cache::render(&sweeps)
        }
        "clean" => {
            let points = cleaning::run(opts);
            let policies = cleaning::compare_policies(opts);
            maybe_write_json(&args.json, &(&points, &policies))?;
            format!(
                "{}\n{}",
                cleaning::render(&points),
                cleaning::render_policies(&policies)
            )
        }
        "zones" => {
            let rows = zones::run(opts);
            maybe_write_json(&args.json, &rows)?;
            zones::render(&rows)
        }
        "reorder" => {
            let rows = reorder::run(opts);
            maybe_write_json(&args.json, &rows)?;
            reorder::render(&rows)
        }
        "all" => {
            // Every section becomes one cell of work for `parallel_map`:
            // output text and JSON are assembled in this fixed order, so
            // stdout and `--json` are byte-identical for any --threads.
            use serde::{Serialize, Value};
            use std::time::Duration;
            type Section = (&'static str, Box<dyn Fn() -> (String, Value) + Sync>);
            let o = *opts;
            let table1_cache = cache_dir(args);
            let fig2_cache = cache_dir(args);
            let sections: Vec<Section> = vec![
                (
                    "table1",
                    Box::new(move || {
                        let r = table1::run_cached(&o, NonZeroUsize::MIN, table1_cache.as_deref());
                        (format!("{}\n", table1::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig2",
                    Box::new(move || {
                        let r = fig2::run_cached(&o, NonZeroUsize::MIN, fig2_cache.as_deref()).0;
                        (fig2::render(&r), r.to_value())
                    }),
                ),
                (
                    "fig3",
                    Box::new(move || {
                        let r = fig3::run(&o);
                        (format!("{}\n", fig3::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig4",
                    Box::new(move || {
                        let r = fig4::run(&o);
                        (format!("{}\n", fig4::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig5",
                    Box::new(move || {
                        let r = fig5::run(&o);
                        (format!("{}\n", fig5::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig7",
                    Box::new(move || {
                        let r = fig7::run(&o);
                        (format!("{}\n", fig7::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig8",
                    Box::new(move || {
                        let r = fig8::run(&o);
                        (format!("{}\n", fig8::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig10",
                    Box::new(move || {
                        let r = fig10::run(&o);
                        (format!("{}\n", fig10::render(&r)), r.to_value())
                    }),
                ),
                (
                    "fig11",
                    Box::new(move || {
                        let r = fig11::run(&o);
                        (fig11::render(&r), r.to_value())
                    }),
                ),
                (
                    "classify",
                    Box::new(move || {
                        let r = classify::run(&o);
                        (format!("{}\n", classify::render(&r)), r.to_value())
                    }),
                ),
                (
                    "analyze",
                    Box::new(move || {
                        let r = analyze::run(&o);
                        (format!("{}\n", analyze::render(&r)), r.to_value())
                    }),
                ),
                (
                    "frag",
                    Box::new(move || {
                        let r = fragmentation::run(&o);
                        (format!("{}\n", fragmentation::render(&r)), r.to_value())
                    }),
                ),
                (
                    "ablate",
                    Box::new(move || {
                        let r = ablation::run(&o);
                        (ablation::render(&r), r.to_value())
                    }),
                ),
                (
                    "adaptive",
                    Box::new(move || {
                        let r = adaptive::run(&o);
                        (adaptive::render(&r), r.to_value())
                    }),
                ),
                (
                    "timeamp",
                    Box::new(move || {
                        let r = time_amp::run(&o);
                        (format!("{}\n", time_amp::render(&r)), r.to_value())
                    }),
                ),
                (
                    "hostcache",
                    Box::new(move || {
                        let r = host_cache::run(&o);
                        (host_cache::render(&r), r.to_value())
                    }),
                ),
                (
                    "clean",
                    Box::new(move || {
                        let r = cleaning::run(&o);
                        (format!("{}\n", cleaning::render(&r)), r.to_value())
                    }),
                ),
                (
                    "reorder",
                    Box::new(move || {
                        let r = reorder::run(&o);
                        (format!("{}\n", reorder::render(&r)), r.to_value())
                    }),
                ),
                (
                    "zones",
                    Box::new(move || {
                        let r = zones::run(&o);
                        (zones::render(&r), r.to_value())
                    }),
                ),
            ];
            let results: Vec<(String, Value, Duration)> =
                parallel_map(&sections, args.threads, |(_, job)| {
                    let t = Instant::now();
                    let (text, value) = job();
                    (text, value, t.elapsed())
                });
            let mut out = String::new();
            let mut doc = Vec::with_capacity(results.len());
            let mut busy = Duration::ZERO;
            for ((name, _), (text, value, wall)) in sections.iter().zip(results) {
                smrseek_obs::info!("all: {name} {:.2}s", wall.as_secs_f64());
                busy += wall;
                out.push_str(&text);
                doc.push(((*name).to_owned(), value));
            }
            smrseek_obs::info!(
                "all: {} experiments, {:.2}s of sim time on {} thread(s)",
                doc.len(),
                busy.as_secs_f64(),
                args.threads
            );
            maybe_write_json(&args.json, &Value::Object(doc))?;
            out
        }
        "plotdata" => {
            let dir = args.out.clone().unwrap_or_else(|| "plotdata".to_owned());
            let written = smrseek_sim::plotdata::export_all(opts, std::path::Path::new(&dir))
                .map_err(CliError::Io)?;
            let mut out = format!("wrote {} CSV files to {dir}/:\n", written.len());
            for p in written {
                out.push_str(&format!("  {}\n", p.display()));
            }
            out
        }
        "list" => {
            let mut table = TextTable::new(vec!["name", "family", "reads", "writes", "guest OS"]);
            for p in smrseek_workloads::profiles::all() {
                table.row(vec![
                    p.name.to_owned(),
                    p.family.to_string(),
                    p.row.read_count.to_string(),
                    p.row.write_count.to_string(),
                    p.row.os.to_owned(),
                ]);
            }
            format!("Table-I workload profiles\n{table}")
        }
        "gen" => {
            let name = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("gen needs a profile name"))?;
            let profile = smrseek_workloads::profiles::by_name(name).ok_or_else(|| {
                CliError::usage(format!("unknown profile {name:?} (try `smrseek list`)"))
            })?;
            let trace = profile.generate_scaled(opts.seed, opts.ops);
            match &args.out {
                Some(path) => {
                    let mut f = File::create(path)
                        .map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
                    write_cp_csv(&mut f, &trace)
                        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                    format!("wrote {} records to {path}\n", trace.len())
                }
                None => {
                    let mut buf = Vec::new();
                    write_cp_csv(&mut buf, &trace).map_err(|e| CliError::Io(e.to_string()))?;
                    String::from_utf8(buf).expect("CSV is UTF-8")
                }
            }
        }
        "characterize" => {
            let path = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("characterize needs a trace file"))?;
            let trace = load_trace(path, args.format)?;
            let stats = characterize(&trace);
            let analysis = smrseek_trace::summarize(&trace);
            maybe_write_json(&args.json, &(&stats, &analysis))?;
            format!(
                "{path}: {stats}\n  sequentiality {:.1}%, footprint {:.1} MiB\n  {} overwrites (median interval {}), read-after-write {:.1}%\n  WSS mean {:.0} / peak {} blocks of 4 KiB\n",
                100.0 * stats.sequentiality(),
                stats.footprint_sectors as f64 / 2048.0,
                analysis.overwrites,
                analysis
                    .median_overwrite_interval
                    .map_or_else(|| "n/a".to_owned(), |v| v.to_string()),
                100.0 * analysis.read_after_write,
                analysis.mean_wss_blocks,
                analysis.peak_wss_blocks,
            )
        }
        "simulate" => {
            let path = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("simulate needs a trace file"))?;
            let source = simulate_source(path, args.format, args.cache)?;
            let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
            let outcomes = matrix.execute(args.threads);
            smrseek_obs::info!(
                "{}",
                MatrixStats::from_outcomes(&outcomes).summary("simulate")
            );
            let ops = outcomes[0].report.logical_ops;
            let safs = saf::sweep_safs(&outcomes);
            let mut table = TextTable::new(vec!["layer", "read seeks", "write seeks", "SAF"]);
            for (outcome, (layer, saf)) in outcomes.iter().zip(&safs) {
                table.row(vec![
                    layer.clone(),
                    outcome.report.seeks.read_seeks.to_string(),
                    outcome.report.seeks.write_seeks.to_string(),
                    format!("{:.2}", saf.total),
                ]);
            }
            maybe_write_json(&args.json, &safs)?;
            format!("{path}: {ops} ops\n{table}")
        }
        "bench" => run_bench(args)?,
        "serve" => run_serve(args)?,
        "bench-daemon" => run_bench_daemon(args)?,
        "profile" => run_profile(args)?,
        "trace" => run_trace_fetch(args)?,
        "snapshot" => {
            let path = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("snapshot needs a trace file"))?;
            let dir = args
                .file2
                .as_ref()
                .ok_or_else(|| CliError::usage("snapshot needs a checkpoint directory"))?;
            let at = args
                .at
                .ok_or_else(|| CliError::usage("snapshot needs --at N (records into the trace)"))?;
            if at == 0 {
                return Err(CliError::usage("--at must be positive"));
            }
            let source = simulate_source(path, args.format, args.cache)?;
            let records = source.records();
            if at as usize > records.len() {
                return Err(CliError::usage(format!(
                    "--at {at} exceeds the trace's {} records",
                    records.len()
                )));
            }
            let digest = source.digest().as_u128();
            let top = source.top_sector();
            let store = CheckpointStore::new(dir);
            let configs = SimConfig::standard_sweep();
            // Replay only the prefix under each sweep config, with the
            // cadence set to fire exactly once — at record `at`.
            let saved: Vec<(String, Result<PathBuf, String>)> =
                parallel_map(&configs, args.threads, |config| {
                    let run = config.with_frontier_hint(top).with_checkpoint_every(at);
                    let mut written = Err("no checkpoint emitted".to_owned());
                    let report = Simulation::new(&run)
                        .checkpoint_sink(|snap: &smrseek_sim::EngineSnapshot| {
                            if snap.logical_ops == at {
                                written = store
                                    .save(digest, &checkpoint_config_key(config, top), snap)
                                    .map_err(|e| e.to_string());
                            }
                        })
                        .run(records[..at as usize].iter().copied());
                    (report.layer_name, written)
                });
            let mut out = format!(
                "{path}: checkpointed {at} of {} records (digest {digest:032x})\n",
                records.len()
            );
            for (layer, written) in saved {
                let file = written.map_err(CliError::Io)?;
                out.push_str(&format!("  {layer}: {}\n", file.display()));
            }
            out
        }
        "resume" => {
            let path = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("resume needs a trace file"))?;
            let dir = args
                .file2
                .as_ref()
                .ok_or_else(|| CliError::usage("resume needs a checkpoint directory"))?;
            let source = simulate_source(path, args.format, args.cache)?;
            let digest = source.digest().as_u128();
            let store = CheckpointStore::new(dir);
            let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
            let (outcomes, usage) = matrix.execute_checkpointed(args.threads, &store, digest);
            smrseek_obs::info!(
                "resume: {} checkpoint hit(s), {} miss(es), {} record(s) skipped",
                usage.hits,
                usage.misses,
                usage.records_skipped
            );
            // Everything below matches `simulate` exactly: resuming from a
            // checkpoint must never change output bytes.
            let ops = outcomes[0].report.logical_ops;
            let safs = saf::sweep_safs(&outcomes);
            let mut table = TextTable::new(vec!["layer", "read seeks", "write seeks", "SAF"]);
            for (outcome, (layer, saf)) in outcomes.iter().zip(&safs) {
                table.row(vec![
                    layer.clone(),
                    outcome.report.seeks.read_seeks.to_string(),
                    outcome.report.seeks.write_seeks.to_string(),
                    format!("{:.2}", saf.total),
                ]);
            }
            maybe_write_json(&args.json, &safs)?;
            format!("{path}: {ops} ops\n{table}")
        }
        "convert" => {
            let input = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("convert needs <trace> <out.smrt>"))?;
            let out = args
                .file2
                .as_ref()
                .ok_or_else(|| CliError::usage("convert needs an output path"))?;
            let records = load_trace(input, args.format)?;
            tracecache::write_sidecar(Path::new(out), &records).map_err(CliError::Io)?;
            format!(
                "wrote {} records to {out} (binary v2, top sector {})\n",
                records.len(),
                binary::top_sector(&records)
            )
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown command {other:?}\n{}",
                usage()
            )))
        }
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        println!("smrseek {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::from(err.exit_code());
        }
    };
    // Threshold first from the environment, then `-v` raises it to debug
    // (never lowers); `--log-json` switches stderr to JSON lines.
    smrseek_obs::log::init_from_env();
    if args.verbose && smrseek_obs::log::level() < smrseek_obs::Level::Debug {
        smrseek_obs::log::set_level(smrseek_obs::Level::Debug);
    }
    if args.log_json {
        smrseek_obs::log::set_json(true);
    }
    let started = Instant::now();
    match run_experiment(&args) {
        Ok(output) => {
            print!("{output}");
            smrseek_obs::info!(
                "{}: done in {:.2}s ({} thread(s))",
                args.command,
                started.elapsed().as_secs_f64(),
                args.threads
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(err.exit_code())
        }
    }
}
