//! The smrseek benchmark program.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's inputs from the seed, measures for the given
//! number of seconds, checks every output, and prints a human-readable
//! report followed by one JSON result line (always the last line of
//! stdout). `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the separate traced probes and reports the per-layer metrics. See
//! `README.md` next to this crate for the workloads and metrics.

mod fleet;
mod probes;
mod replay;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: every untraced run reports exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "rec/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every traced run reports exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.parse_ns_per_rec", "ns"),
    ("workloads.gen_ns_per_rec", "ns"),
    ("extent.insert_ns", "ns"),
    ("extent.lookup_ns", "ns"),
    ("extent.segments_per_lookup", "count"),
    ("extent.segments_peak", "count"),
    ("stl.apply_ns_per_rec.ls", "ns"),
    ("stl.apply_ns_per_rec.ls_defrag", "ns"),
    ("stl.apply_ns_per_rec.ls_prefetch", "ns"),
    ("stl.apply_ns_per_rec.ls_cache", "ns"),
    ("stl.apply_ns_per_rec.ls_adaptive", "ns"),
    ("stl.phys_ios_per_rec.ls", "ratio"),
    ("stl.phys_ios_per_rec.ls_defrag", "ratio"),
    ("stl.phys_ios_per_rec.ls_prefetch", "ratio"),
    ("stl.phys_ios_per_rec.ls_cache", "ratio"),
    ("stl.phys_ios_per_rec.ls_adaptive", "ratio"),
    ("stl.fragmented_read_frac", "ratio"),
    ("stl.defrag_sectors_per_write_sector", "ratio"),
    ("stl.prefetch_hit_frac", "ratio"),
    ("cache.hit_frac", "ratio"),
    ("cache.flash_hit_frac", "ratio"),
    ("cache.demoted_sectors", "count"),
    ("policy.observe_ns", "ns"),
    ("policy.gate_flips", "count"),
    ("disk.observe_ns_per_io", "ns"),
    ("sim.cell_s.nols", "s"),
    ("sim.cell_s.ls", "s"),
    ("sim.cell_s.ls_defrag", "s"),
    ("sim.cell_s.ls_prefetch", "s"),
    ("sim.cell_s.ls_cache", "s"),
    ("sim.busy_frac", "ratio"),
    ("server.dispatch_ms", "ms"),
    ("server.forward_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.queue_p95_ms", "ms"),
    ("server.replay_ms", "ms"),
    ("server.result_hit_frac", "ratio"),
    ("net.wire_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `smrseek simulate` on a large read-heavy MSR CSV trace.
    SweepLarge,
    /// All 21 Table-I profiles × six configs, in memory.
    Table1Matrix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("sweep-large", Workload::SweepLarge),
        ("table1-matrix", Workload::Table1Matrix),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Run the traced per-layer probes instead of the timed run.
    pub trace: bool,
    /// Directory for outputs (Perfetto traces) and scratch inputs,
    /// relative to the repository root the benchmark runs from.
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from("perfbench/out"),
    })
}

/// What one run measured: operation counts, named metrics, and the
/// human-readable detail printed above the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sweeps, matrix runs, or traced-run checks).
    pub attempted: u64,
    /// Operations that failed a check, got a non-2xx answer, or timed out.
    pub failed: u64,
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Detail lines (sample counts, tails, check results).
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric; the unit is looked up in the metric tables.
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push((name.to_owned(), unit, value));
    }

    /// Adds a detail line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Adds the process's peak resident set size as `peak_rss_mib`.
    pub fn peak_rss(&mut self) {
        self.metric("peak_rss_mib", peak_rss_mib());
    }
}

/// The process's peak resident set size (`VmHWM`) in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads the replay runner and the daemons may use: the host's CPUs.
pub fn host_cpus() -> std::num::NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(std::num::NonZeroUsize::MIN)
}

/// FNV-1a digest of the workspace sources the benchmark links
/// (`crates/`, the root manifest and lock file), so results from
/// checkouts without git history still name the code they measured.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in name.as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    )
}

/// Checks that a report carries exactly the declared metric set, each
/// name well-formed and each value finite.
fn validate(report: &Report, trace: bool) -> Result<(), String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    if names != expected {
        return Err(format!("metric set {names:?} differs from {expected:?}"));
    }
    for (name, _, value) in &report.metrics {
        if !stats::valid_metric_name(name) {
            return Err(format!("malformed metric name {name:?}"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
    }
    if report.attempted == 0 {
        return Err("no operation was attempted".to_owned());
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    if args.trace {
        return probes::run(args);
    }
    match args.workload {
        Workload::SweepLarge => replay::sweep_large(args),
        Workload::Table1Matrix => replay::table1_matrix(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&args).and_then(|r| validate(&r, args.trace).map(|()| r)) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context: host_cpus={} rustc=\"{}\" git_rev={} source_digest={}",
        host_cpus(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_revision(),
        source_digest(Path::new("."))
    );
    for line in &report.lines {
        println!("  {line}");
    }
    for (name, unit, value) in &report.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let declared = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), declared(END_TO_END));
        assert_eq!(names("per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_owned()
            })
            .collect();
        assert_eq!(
            workloads,
            Workload::ALL.map(|(n, _)| n.to_owned()).to_vec(),
            "BENCHMARK.json lists this program's workloads in order"
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload sweep-large --seed 3 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::SweepLarge);
        assert_eq!(a.seed, 3);
        assert!(a.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep-large --seed 1 --seconds 0 --trace 0",
            "--workload sweep-large --seed 1 --seconds 1 --trace 2",
            "--workload sweep-large --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("setup_s", 0.5);
        let line = result_json(&report);
        let doc: serde::Value = serde_json::from_str(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
