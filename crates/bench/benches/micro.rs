//! Substrate micro-benchmarks: the data structures on the simulator's hot
//! paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smrseek_bench::{bench_trace, BENCH_OPS};
use smrseek_cache::{ByteLru, RangeCache};
use smrseek_extent::ExtentMap;
use smrseek_sim::{SimConfig, Simulation};
use smrseek_stl::{
    count_misordered_writes, CleanerConfig, CleaningLog, LogStructured, LsConfig, TranslationLayer,
};
use smrseek_trace::binary::{read_binary, write_binary_v2};
use smrseek_trace::parse::{parse_reader, CpParser};
use smrseek_trace::writer::write_cp_csv;
use smrseek_trace::{Lba, Pba, TraceRecord, MIB};
use smrseek_workloads::Zipf;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};

fn extent_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("extent_map");
    let ops: Vec<(u64, u64, u64)> = {
        let mut rng = StdRng::seed_from_u64(1);
        (0..10_000u64)
            .map(|i| (rng.gen_range(0..1 << 20), rng.gen_range(1..64), i * 64))
            .collect()
    };
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.bench_function("insert_10k_random", |b| {
        b.iter(|| {
            let mut map = ExtentMap::new();
            for &(lba, len, pba) in &ops {
                map.insert(Lba::new(lba), len, Pba::new(1 << 30 | pba));
            }
            black_box(map.len())
        })
    });

    let mut map = ExtentMap::new();
    for &(lba, len, pba) in &ops {
        map.insert(Lba::new(lba), len, Pba::new(1 << 30 | pba));
    }
    group.throughput(Throughput::Elements(1000));
    group.bench_function("lookup_1k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let queries: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..1 << 20)).collect();
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += map.lookup(Lba::new(q), 128).len();
            }
            black_box(total)
        })
    });
    // Same queries as lookup_1k, through the non-allocating visitor: the
    // delta between the two is the per-lookup Vec cost on the hot path.
    group.bench_function("lookup_each_1k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let queries: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..1 << 20)).collect();
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                map.lookup_each(Lba::new(q), 128, |_| total += 1);
            }
            black_box(total)
        })
    });
    group.bench_function("fragments_in_1k", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let queries: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..1 << 20)).collect();
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += map.fragments_in(Lba::new(q), 128);
            }
            black_box(total)
        })
    });
    group.finish();
}

fn caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("caches");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("byte_lru_insert_10k", |b| {
        b.iter(|| {
            let mut lru = ByteLru::new(64 * MIB);
            for i in 0..10_000u64 {
                lru.insert(i % 4096, 16 * 1024);
            }
            black_box(lru.len())
        })
    });
    group.bench_function("range_cache_mixed_10k", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let ops: Vec<(u64, bool)> = (0..10_000)
            .map(|_| (rng.gen_range(0..1u64 << 24), rng.gen_bool(0.5)))
            .collect();
        b.iter(|| {
            let mut cache = RangeCache::with_capacity_bytes(64 * MIB);
            let mut hits = 0u64;
            for &(pba, is_query) in &ops {
                if is_query {
                    hits += u64::from(cache.covers(Pba::new(pba), 32));
                } else {
                    cache.insert(Pba::new(pba), 32);
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    let zipf = Zipf::new(100_000, 1.0);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("zipf_sample_100k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(zipf.sample(&mut rng));
            }
            black_box(acc)
        })
    });
    group.throughput(Throughput::Elements(BENCH_OPS as u64));
    group.bench_function("profile_w91_generate", |b| {
        b.iter(|| black_box(bench_trace("w91").len()))
    });
    group.finish();
}

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    let trace = bench_trace("w91");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, config) in [
        ("nols", SimConfig::no_ls()),
        ("ls", SimConfig::log_structured()),
        ("ls_defrag", SimConfig::ls_defrag()),
        ("ls_prefetch", SimConfig::ls_prefetch()),
        ("ls_cache", SimConfig::ls_cache()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("replay_w91", name),
            &config,
            |b, config| b.iter(|| black_box(Simulation::new(config).run_trace(&trace).seeks)),
        );
    }
    group.finish();
}

/// Replay throughput of the two extension layers (the zoned log and the
/// finite cleaning log), for comparison with the `simulator` group.
fn extension_layer_throughput(c: &mut Criterion) {
    let trace = bench_trace("w91");
    let mut group = c.benchmark_group("extension_layers");
    group.bench_function("zoned_log_replay_w91", |b| {
        b.iter(|| {
            let mut ls = LogStructured::new(
                LsConfig::for_trace(&trace).with_zones(256 * 1024 * 2), // 256 MiB zones
            );
            let mut ops = 0usize;
            for rec in &trace {
                ops += ls.apply(rec).len();
            }
            black_box(ops)
        })
    });
    group.bench_function("cleaning_log_replay_synthetic", |b| {
        b.iter(|| {
            let mut log = CleaningLog::new(CleanerConfig::new(Pba::new(1 << 30), 2048, 64));
            let mut ops = 0usize;
            for i in 0..4000u64 {
                let rec = TraceRecord::write(i, Lba::new((i % 64) * 512), 64);
                ops += log.apply(&rec).len();
            }
            black_box(ops)
        })
    });
    group.finish();
}

/// Trace ingestion: records/sec of CSV parsing vs reading the same trace
/// back from its `.smrt` conversion — what `smrseek convert` saves every
/// later load of an external trace.
fn trace_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_ingest");
    let trace = bench_trace("w91");
    let dir = std::env::temp_dir();
    let csv_path = dir.join(format!("smrseek_bench_{}.csv", std::process::id()));
    let bin_path = dir.join(format!("smrseek_bench_{}.smrt", std::process::id()));
    {
        let mut f = BufWriter::new(std::fs::File::create(&csv_path).expect("csv temp"));
        write_cp_csv(&mut f, &trace).expect("csv written");
    }
    {
        let mut f = BufWriter::new(std::fs::File::create(&bin_path).expect("bin temp"));
        write_binary_v2(&mut f, &trace).expect("binary written");
    }
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("csv_parse_w91", |b| {
        b.iter(|| {
            let f = std::fs::File::open(&csv_path).expect("open csv");
            let parsed = parse_reader(BufReader::new(f), CpParser::new()).expect("parses");
            black_box(parsed.len())
        })
    });
    group.bench_function("binary_read_w91", |b| {
        b.iter(|| {
            let f = std::fs::File::open(&bin_path).expect("open binary");
            let records = read_binary(BufReader::new(f)).expect("reads");
            black_box(records.len())
        })
    });
    group.finish();
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&bin_path).ok();
}

/// Observability overhead: registry handle updates and a full engine
/// replay with coarse phase accounting on — the price the daemon pays
/// for `/metrics` phase breakdowns. The `simulator` group above is the
/// accounting-off baseline for the same replay.
fn obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.throughput(Throughput::Elements(100_000));
    // Registry handle hot paths: what the daemon pays per request to
    // bump a counter or feed a latency histogram. Both are single
    // relaxed atomic RMWs (the histogram adds a leading_zeros bucket
    // pick), so they should sit within a few ns per update.
    let registry = smrseek_obs::Registry::new();
    let counter = registry.counter("bench_requests_total", "Bench counter.");
    group.bench_function("registry_counter_100k", |b| {
        b.iter(|| {
            for _ in 0..100_000 {
                counter.inc();
            }
            black_box(counter.get())
        })
    });
    let histogram =
        registry.labeled_histogram("bench_latency_us", "Bench histogram.", "endpoint", "jobs");
    group.bench_function("registry_histogram_100k", |b| {
        let mut us = 0u64;
        b.iter(|| {
            for _ in 0..100_000 {
                us = us.wrapping_add(977) & 0xffff;
                histogram.observe(us);
            }
            black_box(histogram.count())
        })
    });
    let trace = bench_trace("w91");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("replay_w91_ls_phases_on", |b| {
        smrseek_obs::set_phase_accounting(true);
        b.iter(|| {
            black_box(
                Simulation::new(&SimConfig::log_structured())
                    .run_trace(&trace)
                    .seeks,
            )
        });
        smrseek_obs::set_phase_accounting(false);
    });
    group.finish();
}

fn misorder_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("misorder");
    let trace = bench_trace("src2_2");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("count_misordered_src2_2", |b| {
        b.iter(|| black_box(count_misordered_writes(&trace, 256 * 1024)))
    });
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = extent_map, caches, generators, simulator_throughput, extension_layer_throughput,
        trace_ingest, obs_overhead, misorder_scan,
}
criterion_main!(micro);
