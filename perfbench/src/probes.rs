//! The traced run (`--trace 1`): times calls into each layer's public
//! entry points from outside, in engine order, and reports per-layer
//! metrics. It runs in its own process, separate from the timed run.
//!
//! Order matters: the replay probes run first, the daemon fleet last,
//! because `smrseek_server::start` turns engine phase accounting on for
//! the whole process.
//!
//! Every workload's traced run reports every layer: the replay probes use
//! the workload's own records (the daemon workloads' job traces), and the
//! daemon probes use one mixed miss/hit fleet session.

use crate::fleet::{self, blocking_get, key_seed, latency_lines, Fleet, JobSample, ResultLog};
use crate::replay::{
    self, frontier_top, parse_csv, profile, same_records, write_csv, ScratchDir, SWEEP_OPS,
    SWEEP_PROFILE,
};
use crate::spans::{covered_ns, nanos, Tracer};
use crate::stats::{median, percentile, tail_reportable, SplitMix};
use crate::{host_cpus, Args, Report, Workload};
use smrseek_cache::TierStats;
use smrseek_disk::{PhysIo, SeekCounter, SeekStats};
use smrseek_extent::ExtentMap;
use smrseek_policy::{PolicyEngine, PolicyStats};
use smrseek_sim::engine::LayerChoice;
use smrseek_sim::{RunMatrix, RunReport, ShardPolicy, SimConfig, Simulation, TraceSource};
use smrseek_stl::{LogStructured, LsConfig, LsStats};
use smrseek_trace::parse::{parse_reader, MsrParser};
use smrseek_trace::{OpKind, Pba, TraceRecord};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Sampled spans kept in memory for the Perfetto export.
const SPAN_SAMPLE: usize = 50_000;
/// One record in this many gets its full span tree sampled.
const SAMPLE_EVERY: usize = 4096;
/// Fleet session shape: batches of new keys and repeats of earlier keys;
/// between batches the span stores are read while every trace is still
/// retained (each daemon keeps its latest 256 traces).
const FLEET_BATCHES: usize = 9;
const BATCH_NEW: u64 = 30;
const BATCH_HITS: u64 = 30;

/// The five log-structured configurations, with their metric suffixes.
fn ls_configs() -> [(&'static str, SimConfig); 5] {
    [
        ("ls", SimConfig::log_structured()),
        ("ls_defrag", SimConfig::ls_defrag()),
        ("ls_prefetch", SimConfig::ls_prefetch()),
        ("ls_cache", SimConfig::ls_cache()),
        ("ls_adaptive", SimConfig::ls_adaptive()),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The traced run of `args.workload`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new(SPAN_SAMPLE);
    let mut report = Report::default();
    let scratch = ScratchDir::new(&args.out_dir)?;

    let sets = inputs(args, &mut tracer, &mut report, &scratch)?;
    drop(scratch);
    extent_probe(&sets, &mut tracer, &mut report);
    let fidelity_checks = replay_probes(&sets, &mut tracer, &mut report)?;
    matrix_probe(&sets, &mut tracer, &mut report);
    let (mut samples, log) = fleet_probe(args.seed, &mut tracer, &mut report)?;
    let (_, bad_keys) = log.check()?;
    for s in samples
        .iter_mut()
        .filter(|s| s.error.is_none() && bad_keys.contains(&s.key))
    {
        s.error = Some(format!(
            "key {}: result differs from worker::run_job",
            s.key
        ));
    }
    report.attempted = fidelity_checks + samples.len() as u64;
    report.failed += samples.iter().filter(|s| s.error.is_some()).count() as u64;
    for e in samples.iter().filter_map(|s| s.error.as_ref()).take(5) {
        report.line(format!("FAILED: {e}"));
    }
    report.line(format!(
        "fidelity: composed stl/policy/disk probes reproduced the engine's RunReport \
         (seeks, ls_stats, policy, cache_tiers, peak segments) for {fidelity_checks} config x trace pairs"
    ));

    report.line("self time per layer (sampled calls are exported; totals cover every call):");
    for (name, calls, total, own) in tracer.self_times() {
        report.line(format!(
            "  {name:<22} calls={calls:<10} total={:.3} ms self={:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    let path = args.out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    tracer.write_chrome(&path)?;
    let (kept, dropped) = tracer.sample_size();
    report.line(format!(
        "{kept} sampled spans ({dropped} beyond the sample) written to {} (loads in Perfetto)",
        path.display()
    ));
    Ok(report)
}

/// Generates (and for `sweep-large` writes and parses) the workload's
/// records, timing the `workloads` and `trace` layers.
fn inputs(
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
    scratch: &ScratchDir,
) -> Result<Vec<(String, Vec<TraceRecord>)>, String> {
    let specs: Vec<(String, smrseek_workloads::profiles::Profile, u64, usize)> = match args.workload
    {
        Workload::SweepLarge => vec![(
            SWEEP_PROFILE.to_owned(),
            profile(SWEEP_PROFILE)?,
            args.seed,
            SWEEP_OPS,
        )],
        Workload::Table1Matrix => smrseek_workloads::profiles::all()
            .into_iter()
            .map(|p| (p.name.to_owned(), p, args.seed, replay::TABLE1_OPS))
            .collect(),
    };
    let (mut gen_ns, mut parse_ns, mut total) = (0u64, 0u64, 0usize);
    let mut sets = Vec::new();
    for (name, p, seed, ops) in specs {
        let (records, ns) = tracer.time("workloads.generate", || p.generate_scaled(seed, ops));
        gen_ns += ns;
        // `sweep-large` parses from a file, the others from memory.
        let (parsed, ns) = if args.workload == Workload::SweepLarge {
            let csv = scratch.0.join(format!("{name}.csv"));
            write_csv(&csv, &records)?;
            tracer.time("trace.parse", || parse_csv(&csv))
        } else {
            let mut csv = Vec::new();
            smrseek_trace::writer::write_msr_csv(&mut csv, &records, "perfbench", 0)
                .map_err(|e| format!("CSV: {e}"))?;
            tracer.time("trace.parse", || {
                parse_reader(&csv[..], MsrParser::new()).map_err(|e| format!("parse: {e}"))
            })
        };
        let parsed = parsed?;
        parse_ns += ns;
        if !same_records(&parsed, &records) {
            return Err(format!("{name}: the CSV round trip changed the records"));
        }
        total += parsed.len();
        sets.push((name, parsed));
    }
    report.metric(
        "workloads.gen_ns_per_rec",
        ratio(gen_ns as f64, total as f64),
    );
    report.metric(
        "trace.parse_ns_per_rec",
        ratio(parse_ns as f64, total as f64),
    );
    report.line(format!("{} record sets, {total} records", sets.len()));
    Ok(sets)
}

/// A bare `ExtentMap` fed each set's records in plain-LS order: writes
/// insert at a monotone frontier, reads look up every segment.
fn extent_probe(sets: &[(String, Vec<TraceRecord>)], tracer: &mut Tracer, report: &mut Report) {
    let (mut insert_ns, mut inserts, mut lookup_ns, mut lookups, mut segments, mut peak) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0usize);
    for (_, records) in sets {
        let probe_start = Instant::now();
        let probe = tracer.open("extent.probe", None, probe_start);
        let mut map = ExtentMap::new();
        let mut frontier = LsConfig::above_sector(frontier_top(records)).frontier_start;
        for (i, rec) in records.iter().enumerate() {
            let sectors = u64::from(rec.sectors);
            let t0 = Instant::now();
            let name = match rec.op {
                OpKind::Write => {
                    map.insert(rec.lba, sectors, frontier);
                    frontier = Pba::new(frontier.sector() + sectors);
                    let t1 = Instant::now();
                    insert_ns += nanos(t0, t1);
                    inserts += 1;
                    peak = peak.max(map.len());
                    if i % SAMPLE_EVERY == 0 {
                        tracer.span("extent.insert", Some(probe), t0, t1);
                    }
                    continue;
                }
                OpKind::Read => "extent.lookup_each",
            };
            let mut segs = 0u64;
            map.lookup_each(rec.lba, sectors, |_| segs += 1);
            let t1 = Instant::now();
            lookup_ns += nanos(t0, t1);
            lookups += 1;
            segments += segs;
            if i % SAMPLE_EVERY == 0 {
                tracer.span(name, Some(probe), t0, t1);
            }
        }
        tracer.close(probe, probe_start);
        tracer.add("extent.probe", None, 1, nanos(probe_start, Instant::now()));
    }
    tracer.add("extent.insert", Some("extent.probe"), inserts, insert_ns);
    tracer.add(
        "extent.lookup_each",
        Some("extent.probe"),
        lookups,
        lookup_ns,
    );
    report.metric("extent.insert_ns", ratio(insert_ns as f64, inserts as f64));
    report.metric("extent.lookup_ns", ratio(lookup_ns as f64, lookups as f64));
    report.metric(
        "extent.segments_per_lookup",
        ratio(segments as f64, lookups as f64),
    );
    report.metric("extent.segments_peak", peak as f64);
}

/// What the composed probe of one config on one trace observed.
#[derive(Default)]
struct Composed {
    seeks: SeekStats,
    ls: LsStats,
    policy: Option<PolicyStats>,
    tiers: Option<TierStats>,
    peak: u64,
    wall_ns: u64,
    apply_ns: u64,
    observe_ns: u64,
    feedback_ns: u64,
    disk_ns: u64,
    ios: u64,
}

/// Replays `records` through the layers the engine composes, in engine
/// order per record: `PolicyEngine::observe` → `set_gates` →
/// `LogStructured::apply_into` → policy feedback → `SeekCounter::observe`.
fn composed(records: &[TraceRecord], config: &SimConfig, tracer: &mut Tracer) -> Composed {
    let LayerChoice::Ls {
        defrag,
        prefetch,
        cache,
    } = config.layer
    else {
        unreachable!("only log-structured configs are probed")
    };
    let mut ls_config = LsConfig::above_sector(frontier_top(records));
    ls_config.defrag = defrag;
    ls_config.prefetch = prefetch;
    ls_config.cache = cache;
    ls_config.flash_cache_bytes = config.flash_cache_bytes;
    let mut ls = LogStructured::new(ls_config);
    let mut policy = config.policy.map(|p| {
        let mut engine = PolicyEngine::new(p);
        engine.set_cache_present(cache.is_some());
        engine
    });
    let mut counter = SeekCounter::new();
    let mut ios: Vec<PhysIo> = Vec::with_capacity(8);
    let mut out = Composed::default();
    let probe_start = Instant::now();
    let probe = tracer.open("sim.probe", None, probe_start);
    for (i, rec) in records.iter().enumerate() {
        let t0 = Instant::now();
        let before = policy.as_ref().map(|_| {
            let s = ls.stats();
            (s.fragmented_reads, s.phys_reads)
        });
        let mut t1 = t0;
        if let Some(engine) = &mut policy {
            ls.set_gates(engine.observe(rec.lba.sector(), rec.op.is_read()));
            t1 = Instant::now();
        }
        ios.clear();
        ls.apply_into(rec, &mut |io| ios.push(io));
        let t2 = Instant::now();
        let mut t3 = t2;
        if let (Some(engine), Some((frag, phys))) = (&mut policy, before) {
            let s = ls.stats();
            if s.fragmented_reads > frag {
                if s.phys_reads > phys {
                    engine.record_fragmented(rec.lba.sector());
                } else {
                    engine.record_cache_absorbed(rec.lba.sector());
                }
            }
            t3 = Instant::now();
        }
        for io in &ios {
            counter.observe(io);
        }
        out.peak = out.peak.max(ls.map().len() as u64);
        let t4 = Instant::now();
        out.observe_ns += nanos(t0, t1);
        out.apply_ns += nanos(t1, t2);
        out.feedback_ns += nanos(t2, t3);
        out.disk_ns += nanos(t3, t4);
        out.ios += ios.len() as u64;
        if i % SAMPLE_EVERY == 0 {
            let record = tracer.span("sim.record", Some(probe), t0, t4);
            if policy.is_some() {
                tracer.span("policy.observe", Some(record), t0, t1);
                tracer.span("policy.feedback", Some(record), t2, t3);
            }
            tracer.span("stl.apply_into", Some(record), t1, t2);
            tracer.span("disk.observe", Some(record), t3, t4);
        }
    }
    let end = Instant::now();
    tracer.close(probe, probe_start);
    out.wall_ns = nanos(probe_start, end);
    let n = records.len() as u64;
    tracer.add("sim.probe", None, 1, out.wall_ns);
    tracer.add(
        "sim.record",
        Some("sim.probe"),
        n,
        out.observe_ns + out.apply_ns + out.feedback_ns + out.disk_ns,
    );
    tracer.add("stl.apply_into", Some("sim.record"), n, out.apply_ns);
    tracer.add("disk.observe", Some("sim.record"), out.ios, out.disk_ns);
    if policy.is_some() {
        tracer.add("policy.observe", Some("sim.record"), n, out.observe_ns);
        tracer.add("policy.feedback", Some("sim.record"), n, out.feedback_ns);
    }
    out.seeks = counter.stats();
    out.ls = ls.stats();
    out.policy = policy.map(|p| p.stats());
    out.tiers = ls.tier_stats();
    out
}

/// The first field where the composed probe and the engine disagree.
fn mismatch(c: &Composed, r: &RunReport) -> Option<&'static str> {
    if c.seeks != r.seeks {
        Some("seeks")
    } else if Some(c.ls) != r.ls_stats {
        Some("ls_stats")
    } else if c.policy != r.policy {
        Some("policy")
    } else if c.tiers != r.cache_tiers {
        Some("cache_tiers")
    } else if c.peak != r.peak_extent_segments {
        Some("peak_extent_segments")
    } else {
        None
    }
}

/// Untraced engine replays, then composed probes, of the five LS configs
/// on every set; refuses (errors) unless every probe reproduces its
/// engine report. Returns the number of pairs compared.
fn replay_probes(
    sets: &[(String, Vec<TraceRecord>)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<u64, String> {
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let (mut observe_ns, mut observe_calls, mut flips) = (0u64, 0u64, 0u64);
    let (mut disk_ns, mut ios) = (0u64, 0u64);
    let write_sectors: u64 = sets
        .iter()
        .flat_map(|(_, r)| r)
        .filter(|r| r.op == OpKind::Write)
        .map(|r| u64::from(r.sectors))
        .sum();
    let records: u64 = sets.iter().map(|(_, r)| r.len() as u64).sum();
    let mut checked = 0;
    for (key, config) in ls_configs() {
        let (mut apply_ns, mut ls, mut tiers) = (0u64, LsStats::default(), TierStats::default());
        for (name, set) in sets {
            let t = Instant::now();
            let engine = Simulation::new(&config).run_trace(&set[..]);
            untraced_ns += nanos(t, Instant::now());
            let probe = composed(set, &config, tracer);
            if let Some(field) = mismatch(&probe, &engine) {
                return Err(format!(
                    "refusing to report: the composed {key} probe on {name} differs from the engine's RunReport in {field}"
                ));
            }
            checked += 1;
            traced_ns += probe.wall_ns;
            apply_ns += probe.apply_ns;
            disk_ns += probe.disk_ns;
            ios += probe.ios;
            ls.merge(&probe.ls);
            if let Some(t) = &probe.tiers {
                tiers.merge(t);
            }
            if let Some(p) = &probe.policy {
                observe_ns += probe.observe_ns;
                observe_calls += set.len() as u64;
                flips += p.total_flips();
            }
        }
        report.metric(
            &format!("stl.apply_ns_per_rec.{key}"),
            ratio(apply_ns as f64, records as f64),
        );
        report.metric(
            &format!("stl.phys_ios_per_rec.{key}"),
            ratio((ls.phys_reads + ls.phys_writes) as f64, records as f64),
        );
        match key {
            "ls" => report.metric(
                "stl.fragmented_read_frac",
                ratio(ls.fragmented_reads as f64, ls.logical_reads as f64),
            ),
            "ls_defrag" => report.metric(
                "stl.defrag_sectors_per_write_sector",
                ratio(ls.defrag_sectors as f64, write_sectors as f64),
            ),
            "ls_prefetch" => report.metric(
                "stl.prefetch_hit_frac",
                ratio(
                    ls.prefetch_hit_fragments as f64,
                    (ls.prefetch_hit_fragments + ls.phys_reads) as f64,
                ),
            ),
            "ls_cache" => report.metric("cache.hit_frac", ls.cache_hit_rate()),
            _ => {
                report.metric(
                    "cache.flash_hit_frac",
                    ratio(
                        tiers.flash_hits as f64,
                        (tiers.ram_hits + tiers.flash_hits + tiers.misses) as f64,
                    ),
                );
                report.metric("cache.demoted_sectors", tiers.demoted_sectors as f64);
            }
        }
    }
    report.metric(
        "policy.observe_ns",
        ratio(observe_ns as f64, observe_calls as f64),
    );
    report.metric("policy.gate_flips", flips as f64);
    report.metric("disk.observe_ns_per_io", ratio(disk_ns as f64, ios as f64));
    report.metric(
        "obs.trace_overhead_frac",
        ratio(traced_ns as f64, untraced_ns as f64) - 1.0,
    );
    report.line(format!(
        "five LS configs: untraced engine {:.3} s, composed traced probes {:.3} s",
        untraced_ns as f64 / 1e9,
        traced_ns as f64 / 1e9
    ));
    Ok(checked)
}

/// The standard sweep over every set through `RunMatrix` on every host
/// CPU: per-config cell time and how busy the workers were.
fn matrix_probe(sets: &[(String, Vec<TraceRecord>)], tracer: &mut Tracer, report: &mut Report) {
    let sources: Vec<TraceSource> = sets
        .iter()
        .map(|(name, records)| TraceSource::from_records(name.clone(), records.clone()))
        .collect();
    let configs = SimConfig::standard_sweep();
    let threads = host_cpus();
    let start = Instant::now();
    let outcomes = RunMatrix::cross(&sources, &configs).execute_with(threads, ShardPolicy::Auto);
    let wall = start.elapsed().as_secs_f64();
    tracer.add("sim.matrix", None, 1, nanos(start, Instant::now()));
    let keys = ["nols", "ls", "ls_defrag", "ls_prefetch", "ls_cache"];
    let mut busy = 0.0;
    for (c, key) in keys.iter().enumerate() {
        let walls: Vec<f64> = outcomes
            .iter()
            .skip(c)
            .step_by(configs.len())
            .map(|o| o.metrics.wall.as_secs_f64())
            .collect();
        busy += walls.iter().sum::<f64>();
        report.metric(
            &format!("sim.cell_s.{key}"),
            walls.iter().sum::<f64>() / walls.len() as f64,
        );
    }
    report.metric("sim.busy_frac", busy / (threads.get() as f64 * wall));
    report.line(format!(
        "matrix: {} cells on {threads} threads in {wall:.3} s",
        outcomes.len()
    ));
}

/// One daemon span from `GET /v1/trace/<id>`.
#[derive(Debug, Clone)]
struct DaemonSpan {
    daemon: usize,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: u64,
    dur: u64,
}

fn parse_spans(daemon: usize, body: &[u8]) -> Result<Vec<DaemonSpan>, String> {
    let doc: serde::Value = serde_json::from_str(&String::from_utf8_lossy(body))
        .map_err(|e| format!("trace body: {e}"))?;
    let hex = |v: Option<&serde::Value>| {
        v.and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
    };
    doc.get("spans")
        .and_then(|v| v.as_array())
        .ok_or("trace body has no spans")?
        .iter()
        .map(|s| {
            Ok(DaemonSpan {
                daemon,
                id: hex(s.get("span_id")).ok_or("span without id")?,
                parent: hex(s.get("parent_span_id")),
                name: s
                    .get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_owned(),
                start: s
                    .get("start_unix_ns")
                    .and_then(|v| v.as_u64())
                    .ok_or("span without start")?,
                dur: s
                    .get("dur_ns")
                    .and_then(|v| v.as_u64())
                    .ok_or("span without duration")?,
            })
        })
        .collect()
}

/// `(result-cache hits, misses, connections reaped)` summed over the
/// fleet's `/metrics`.
fn scrape(addrs: &[SocketAddr]) -> Result<[u64; 3], String> {
    let mut sums = [0u64; 3];
    for &addr in addrs {
        let response = blocking_get(addr, "/metrics")?;
        for line in String::from_utf8_lossy(&response.body).lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let base = name.split('{').next().unwrap_or(name);
            let slot = match base {
                "smrseekd_result_cache_hits_total" => 0,
                "smrseekd_result_cache_misses_total" => 1,
                "smrseekd_connections_reaped_total" => 2,
                _ => continue,
            };
            sums[slot] += value.trim().parse::<f64>().unwrap_or(0.0) as u64;
        }
    }
    Ok(sums)
}

/// A mixed fleet session: batches of new keys (misses) and repeats of
/// finished keys (hits), with every job's spans read from both daemons
/// and `/metrics` diffed around the session.
fn fleet_probe(
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Vec<JobSample>, ResultLog), String> {
    let fleet = Fleet::start()?;
    let addrs = fleet.addrs.clone();
    let outcome = fleet_session(seed, &addrs, tracer, report);
    fleet.stop();
    outcome
}

fn fleet_session(
    seed: u64,
    addrs: &[SocketAddr],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Vec<JobSample>, ResultLog), String> {
    let before = scrape(addrs)?;
    let mut rng = SplitMix::new(seed ^ 0x7ace);
    let (mut finished, mut next) = (Vec::new(), 0u64);
    let mut samples = Vec::new();
    let mut log = ResultLog::default();
    let mut spans: Vec<(usize, Vec<DaemonSpan>)> = Vec::new();
    for batch in 0..FLEET_BATCHES {
        let mut plan = Vec::new();
        for i in 0..BATCH_NEW.max(BATCH_HITS) {
            if i < BATCH_NEW {
                plan.push((key_seed(seed, (1 << 18) + next), rng.below(2) as usize));
                next += 1;
            }
            if batch > 0 && i < BATCH_HITS {
                let key = finished[rng.below(finished.len() as u64) as usize];
                plan.push((key, rng.below(2) as usize));
            }
        }
        let mut jobs = plan.into_iter();
        let mut done = Vec::new();
        fleet::drive(
            addrs,
            host_cpus().get(),
            || jobs.next(),
            |mut sample, result| {
                if sample.error.is_none() && !log.record(sample.key, result) {
                    sample.error = Some(format!(
                        "key {}: result bytes differ between jobs",
                        sample.key
                    ));
                }
                done.push(sample);
            },
        )?;
        for (i, sample) in done.iter().enumerate() {
            if !sample.hit {
                finished.push(sample.key);
            }
            let Some(tid) = sample.trace_id else {
                continue;
            };
            let mut job_spans = Vec::new();
            for (d, &addr) in addrs.iter().enumerate() {
                let response = blocking_get(addr, &format!("/v1/trace/{tid:032x}"))?;
                if response.status == 200 {
                    job_spans.extend(parse_spans(d, &response.body)?);
                }
            }
            spans.push((samples.len() + i, job_spans));
        }
        samples.extend(done);
    }
    let after = scrape(addrs)?;

    let (mut dispatch, mut forward, mut queue, mut replay, mut wire) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (sample, job_spans) in &spans {
        let sample = &samples[*sample];
        let children = |id: u64| -> Vec<(u64, u64)> {
            job_spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| (c.start, c.dur))
                .collect()
        };
        for s in job_spans {
            let own = (s.dur - covered_ns(s.start, s.dur, &children(s.id))) as f64 / 1e6;
            match s.name.as_str() {
                "dispatch" => {
                    dispatch.push(own);
                    if s.parent.is_none() && sample.error.is_none() {
                        wire.push(sample.post_ms - s.dur as f64 / 1e6);
                    }
                }
                "forward" => forward.push(own),
                "queue" => queue.push(s.dur as f64 / 1e6),
                "replay" => replay.push(s.dur as f64 / 1e6),
                _ => {}
            }
        }
        export_spans(tracer, job_spans);
    }
    for (name, values) in [
        ("server.dispatch", &dispatch),
        ("server.forward", &forward),
        ("server.queue", &queue),
        ("server.replay", &replay),
        ("net.wire", &wire),
    ] {
        if values.is_empty() {
            return Err(format!("the fleet session recorded no {name} spans"));
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        report.line(format!(
            "{name}: n={} self-time p50={:.4} ms",
            sorted.len(),
            percentile(&sorted, 0.5).unwrap_or(0.0)
        ));
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    report.metric("server.dispatch_ms", med(&dispatch));
    report.metric("server.forward_ms", med(&forward));
    report.metric("server.queue_ms", med(&queue));
    let mut sorted = queue.clone();
    sorted.sort_by(f64::total_cmp);
    report.metric(
        "server.queue_p95_ms",
        percentile(&sorted, 0.95).unwrap_or(0.0),
    );
    if !tail_reportable(sorted.len(), 0.95) {
        report.line(format!(
            "note: server.queue_p95_ms rests on {} samples, fewer than 10 beyond p95",
            sorted.len()
        ));
    }
    report.metric("server.replay_ms", med(&replay));
    report.metric("net.wire_ms", med(&wire));
    let (hits, misses, reaped) = (
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    );
    report.metric(
        "server.result_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.line(format!(
        "fleet session: {} jobs ({} forwarded), /metrics: {hits} result-cache hits, {misses} misses, {reaped} connections reaped",
        samples.len(),
        samples.iter().filter(|s| s.forwarded).count()
    ));
    for (label, hit) in [("miss job latency", false), ("hit job latency", true)] {
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| s.error.is_none() && s.hit == hit)
            .map(|s| s.latency_ms)
            .collect();
        report.line(latency_lines(label, &latencies));
    }
    if reaped != 0 {
        report.failed += 1;
        report.line(format!(
            "FAILED: {reaped} connections were reaped (must be 0)"
        ));
    }
    Ok((samples, log))
}

/// Adds a job's daemon spans to the export, parents linked.
fn export_spans(tracer: &mut Tracer, job_spans: &[DaemonSpan]) {
    let mut order: Vec<&DaemonSpan> = job_spans.iter().collect();
    order.sort_by_key(|s| s.start);
    let mut ids: HashMap<u64, u64> = HashMap::new();
    for s in order {
        let parent = s.parent.and_then(|p| ids.get(&p).copied());
        let id = tracer.push(
            &format!("server.{}", s.name),
            parent,
            s.start,
            s.dur,
            2,
            s.daemon as u64 + 1,
        );
        ids.insert(s.id, id);
    }
}
