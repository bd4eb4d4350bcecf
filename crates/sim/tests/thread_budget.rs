//! A matrix on `N` threads runs `N` replay threads, never more: while a
//! two-thread standard sweep replays (its LS group split, so its cache
//! lane is served from forwarded blocks), the process has exactly two
//! threads beyond the ones it had before and the one sampling them.

#![cfg(target_os = "linux")]

use smrseek_sim::{RunMatrix, SimConfig, TraceSource};
use smrseek_workloads::profiles;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

#[test]
fn a_two_thread_split_matrix_runs_two_replay_threads() {
    let trace = profiles::by_name("w91")
        .expect("w91 is a profile")
        .generate_scaled(1, 60_000);
    let source = TraceSource::from_records("w91", trace);
    let matrix = RunMatrix::cross(&[source], &SimConfig::standard_sweep());
    let two = NonZeroUsize::new(2).expect("nonzero");
    let before = tasks();
    let done = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                peak.fetch_max(tasks(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let outcomes = matrix.execute(two);
        done.store(true, Ordering::SeqCst);
        assert_eq!(outcomes.len(), 5);
    });
    // The sampler is one thread; the matrix's workers are the rest.
    let workers = peak.into_inner() - before - 1;
    assert_eq!(workers, 2, "replay threads beyond the two workers");
}
