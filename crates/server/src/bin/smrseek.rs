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
//!   <experiment>           one table/figure/extension; the names are the
//!                          entries of `smrseek_sim::experiments::ALL`,
//!                          listed by the usage message
//!   all                    run every experiment in order
//!   plotdata [--out DIR]   write plot-ready CSV series for every figure
//!   characterize <file>    Table-I style stats for an external trace
//!   simulate <file>        NoLS/LS/mechanism SAF for an external trace
//!   convert <in> <out>     convert any trace to the binary `.smrt` format
//!   gen <profile>          emit a synthetic trace as CloudPhysics CSV
//!   list                   list the 21 workload profiles
//!   serve                  run the smrseekd HTTP daemon (see crate docs)
//!   profile <trace>        replay the sweep and write its cells, phases and
//!                          serve time as a Chrome trace-event JSON
//!                          (`--out`, default trace.json) viewable in
//!                          Perfetto
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
//! by default — binary files are recognized by their `SMRT` magic). Every
//! format loads into one in-memory record vector; `convert` rewrites a
//! text trace as `.smrt` once so later runs skip text parsing.

use smrseek_sim::experiments::{self, ExpOptions, Experiment};
use smrseek_sim::runner::{self, parallel_map, MatrixStats, RunCell, RunMatrix};
use smrseek_sim::{saf, tracecache, SimConfig, TextTable, TraceSource};
use smrseek_trace::parse::{parse_path, sniff_path, DetectedFormat};
use smrseek_trace::writer::write_cp_csv;
use smrseek_trace::{characterize, TraceRecord};
use smrseek_workloads::profiles::MAX_OPS;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;
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
    /// `None` sniffs the format from the file.
    format: Option<DetectedFormat>,
    threads: NonZeroUsize,
    addr: String,
    workers: usize,
    queue_depth: usize,
    peers: Vec<String>,
    verbose: bool,
    log_json: bool,
}

fn usage() -> String {
    let experiments: Vec<&str> = experiments::ALL.iter().map(|e| e.name).collect();
    format!(
        "usage: smrseek <{}|all> [--ops N] [--seed S] [--threads N] [--json FILE]\n       \
     smrseek plotdata [--ops N] [--seed S] [--threads N] [--out DIR]\n       \
     smrseek list\n       \
     smrseek <characterize|simulate> <trace> [--format msr|cp|blktrace|binary] \
     [--json FILE]\n       \
     smrseek convert <trace> <out.smrt> [--format msr|cp|blktrace|binary]\n       \
     smrseek gen <profile> [--ops N] [--seed S] [--out FILE]\n       \
     smrseek serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--threads N] \
     [--peers ADDR,ADDR,...]\n       \
     smrseek profile <trace> [--out trace.json] [--format ...] [--threads N]\n       \
     smrseek trace <trace-id> [--addr HOST:PORT] [--peers ADDR,ADDR,...] [--out trace.json]\n       \
     smrseek --version\n\
     global flags: -v/--verbose (or SMRSEEK_LOG=debug) for progress chatter, \
     --log-json for JSON-lines stderr\n\
     threads: --threads N workers run an experiment's cells (workloads, configs, sweep \
     points) in parallel, each cell's trace translated serially; with fewer translation \
     groups than twice N (N >= 2), a group's selective-cache lanes replay apart from it, \
     served by whichever of the N workers is free (never more than N replay threads); \
     the default is the host's parallelism. Reports never depend on the thread count.",
        experiments.join("|")
    )
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
        format: None,
        threads: runner::default_threads(),
        addr: "127.0.0.1:7070".to_owned(),
        workers: 2,
        queue_depth: 64,
        peers: Vec::new(),
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
                if args.opts.ops > MAX_OPS {
                    return Err(CliError::usage(format!("--ops must be at most {MAX_OPS}")));
                }
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
                let name = it
                    .next()
                    .ok_or_else(|| CliError::usage("--format needs msr|cp|blktrace|binary"))?;
                args.format = Some(match name.as_str() {
                    "msr" => DetectedFormat::Msr,
                    "cp" => DetectedFormat::Cloudphysics,
                    "blktrace" => DetectedFormat::Blktrace,
                    "binary" | "smrt" => DetectedFormat::Binary,
                    other => return Err(CliError::usage(format!("unknown format {other:?}"))),
                });
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

/// Loads the trace at `path` into memory in `format` (sniffed when
/// `None`), classifying failures for the exit code.
fn read_trace(path: &str, format: Option<DetectedFormat>) -> Result<Vec<TraceRecord>, CliError> {
    let file = Path::new(path);
    format
        .map_or_else(|| sniff_path(file), Ok)
        .and_then(|format| parse_path(file, format))
        .map_err(|e| match e {
            smrseek_trace::Error::Io(e) => CliError::Io(format!("{path}: {e}")),
            other => CliError::Parse(format!("{path}: {other}")),
        })
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
/// `signal(2)`, declared raw because the build environment has no libc
/// crate. Setting a flag is all the handler does, which is
/// async-signal-safe.
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

/// `smrseek profile <trace>`: replays the standard sweep and writes one
/// `cell:*` span per cell as Chrome trace-event JSON (open in Perfetto or
/// `chrome://tracing`). Each cell span gets synthetic `phase:*` children,
/// linked to it by span id, laying out where the cell's replay time went;
/// a worker's time serving other groups' split lanes is a `serve` span
/// after its group's cells.
fn run_profile(args: &Args) -> Result<String, CliError> {
    let path = args
        .file
        .as_ref()
        .ok_or_else(|| CliError::usage("profile needs a trace file"))?;
    let out_path = args.out.clone().unwrap_or_else(|| "trace.json".to_owned());
    let trace = read_trace(path, args.format)?;
    let records = trace.len() as u64;
    if records == 0 {
        return Err(CliError::Parse(format!("{path}: empty trace")));
    }
    let source = TraceSource::from_records(path, trace);
    let labels = ["NoLS", "LS", "LS+defrag", "LS+prefetch", "LS+cache"];
    let mut matrix = RunMatrix::new();
    for (config, label) in SimConfig::standard_sweep().iter().zip(labels) {
        matrix.push(RunCell::new(source.clone(), *config).with_label(label));
    }
    let outcomes = matrix.execute(args.threads);
    // One span per cell, each followed by its phase totals laid out as
    // children; a group's time serving other groups' split lanes follows
    // its last cell as one `serve` span on the same thread.
    let trace = smrseek_obs::TraceContext::mint();
    let nanos = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let span = |name: String, start_unix_ns: u64, dur_ns: u64, tid: u64| smrseek_obs::DistSpan {
        trace_id: trace.trace_id,
        span_id: trace.child().span_id,
        parent_span_id: None,
        name,
        request_id: "profile".to_owned(),
        start_unix_ns,
        dur_ns,
        pid: std::process::id(),
        tid,
    };
    let mut spans = Vec::new();
    for outcome in &outcomes {
        let m = &outcome.metrics;
        let cell = span(
            format!("cell:{}", outcome.label),
            m.start_unix_ns,
            nanos(m.wall),
            m.tid,
        );
        let children = smrseek_obs::chrome::phase_children(&cell, &m.phases);
        let end = cell.start_unix_ns.saturating_add(cell.dur_ns);
        spans.push(cell);
        spans.extend(children);
        if !m.served.is_zero() {
            spans.push(span("serve".to_owned(), end, nanos(m.served), m.tid));
        }
    }
    let file = File::create(&out_path)
        .map_err(|e| CliError::Io(format!("cannot create {out_path}: {e}")))?;
    let mut writer = BufWriter::new(file);
    smrseek_obs::chrome::write_dist_trace(&mut writer, &spans, &[])
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
    Ok(format!(
        "{path}: {records} ops, {} span(s) -> {out_path}\n{table}",
        spans.len()
    ))
}

/// Runs the daemon until a termination signal, then drains gracefully.
fn run_serve(args: &Args) -> Result<String, CliError> {
    let config = smrseek_server::ServerConfig {
        addr: args.addr.clone(),
        queue_depth: args.queue_depth,
        workers: args.workers,
        job_threads: args.threads,
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

/// One `GET /v1/trace/<id>` against a daemon, relayed as `(status, body)`.
fn fetch_trace(addr: &str, id: &str) -> Result<(u16, Vec<u8>), CliError> {
    let target = format!("/v1/trace/{id}");
    smrseek_net::fetch(
        addr,
        "GET",
        &target,
        &[],
        &[],
        std::time::Duration::from_secs(5),
    )
    .map_err(|e| {
        if e.is_io() {
            CliError::Io(e.to_string())
        } else {
            CliError::Parse(e.to_string())
        }
    })
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
        let parsed = smrseek_server::tracebody::decode(&body)
            .map_err(|e| CliError::Parse(format!("{addr}: {e}")))?;
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

/// Runs one entry of [`experiments::ALL`]: prints its text, writes its
/// JSON for `--json`, and logs its run-matrix summary.
fn run_experiment(args: &Args, experiment: &Experiment) -> Result<String, CliError> {
    let output = (experiment.run)(&args.opts, args.threads);
    if let Some(stats) = &output.stats {
        smrseek_obs::info!("{}", stats.summary(experiment.name));
    }
    maybe_write_json(&args.json, &output.json)?;
    Ok(output.text)
}

/// `smrseek all`: every experiment, one per worker and each on one thread.
/// Output text and JSON are assembled in [`experiments::ALL`] order, so
/// stdout and `--json` are byte-identical for any `--threads`; each
/// section is followed by one blank line, the last by none.
fn run_all(args: &Args) -> Result<String, CliError> {
    let results = parallel_map(&experiments::ALL, args.threads, |e| {
        let start = Instant::now();
        let output = (e.run)(&args.opts, NonZeroUsize::MIN);
        (output, start.elapsed())
    });
    let mut sections = Vec::with_capacity(results.len());
    let mut doc = Vec::with_capacity(results.len());
    let mut busy = std::time::Duration::ZERO;
    for (experiment, (output, wall)) in experiments::ALL.iter().zip(results) {
        smrseek_obs::info!("all: {} {:.2}s", experiment.name, wall.as_secs_f64());
        busy += wall;
        sections.push(format!("{}\n", output.text.trim_end_matches('\n')));
        doc.push((experiment.name.to_owned(), output.json));
    }
    smrseek_obs::info!(
        "all: {} experiments, {:.2}s of sim time on {} thread(s)",
        doc.len(),
        busy.as_secs_f64(),
        args.threads
    );
    maybe_write_json(&args.json, &serde::Value::Object(doc))?;
    Ok(sections.join("\n"))
}

fn run_command(args: &Args) -> Result<String, CliError> {
    let opts = &args.opts;
    Ok(match args.command.as_str() {
        "all" => run_all(args)?,
        "plotdata" => {
            let dir = args.out.clone().unwrap_or_else(|| "plotdata".to_owned());
            let written =
                smrseek_sim::plotdata::export_all(opts, args.threads, std::path::Path::new(&dir))
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
                    // The writer hands the file 64 KiB chunks: no `BufWriter`.
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
            let trace = read_trace(path, args.format)?;
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
            let source = TraceSource::from_records(path, read_trace(path, args.format)?);
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
        "serve" => run_serve(args)?,
        "profile" => run_profile(args)?,
        "trace" => run_trace_fetch(args)?,
        "convert" => {
            let input = args
                .file
                .as_ref()
                .ok_or_else(|| CliError::usage("convert needs <trace> <out.smrt>"))?;
            let out = args
                .file2
                .as_ref()
                .ok_or_else(|| CliError::usage("convert needs an output path"))?;
            let records = read_trace(input, args.format)?;
            tracecache::write_smrt(Path::new(out), &records).map_err(CliError::Io)?;
            format!("wrote {} records to {out} (binary)\n", records.len())
        }
        other => match experiments::find(other) {
            Some(experiment) => run_experiment(args, experiment)?,
            None => {
                return Err(CliError::usage(format!(
                    "unknown command {other:?}\n{}",
                    usage()
                )))
            }
        },
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
    match run_command(&args) {
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
