//! One Criterion benchmark per entry of `smrseek_sim::experiments::ALL`:
//! every paper table/figure, the ablation sweeps and the extensions. Each
//! benchmark regenerates its result end-to-end on one thread, and the
//! rendered report is printed once first, so
//! `cargo bench -p smrseek-bench --bench experiments` both measures and
//! reproduces the evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use smrseek_bench::bench_opts;
use smrseek_sim::experiments::ALL;
use std::hint::black_box;
use std::num::NonZeroUsize;

fn experiments(c: &mut Criterion) {
    let opts = bench_opts();
    let mut group = c.benchmark_group("experiments");
    for experiment in &ALL {
        println!("\n{}", (experiment.run)(&opts, NonZeroUsize::MIN).text);
        group.bench_function(experiment.name, |b| {
            b.iter(|| black_box((experiment.run)(&opts, NonZeroUsize::MIN)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = experiments,
}
criterion_main!(benches);
