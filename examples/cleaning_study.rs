//! The trade-off the paper's infinite-disk model side-steps: on a finite
//! log, cleaning cost explodes with utilization (the classic LFS result),
//! while the archival regime — never overwrite, never clean — keeps WAF at
//! exactly 1. This study reproduces both regimes with the finite
//! `CleaningLog` and compares seeks with the infinite-disk layer.
//!
//! ```sh
//! cargo run --release --example cleaning_study
//! ```

use smrseek::sim::experiments::{cleaning, ExpOptions};
use smrseek::stl::{CleanerConfig, CleaningLog, TranslationLayer};
use smrseek::trace::{Lba, Pba, TraceRecord};
use std::num::NonZeroUsize;

fn main() {
    // Part 1: utilization sweep under steady random overwrites.
    let opts = ExpOptions {
        seed: 42,
        ops: 6_000,
    };
    print!(
        "{}",
        cleaning::render(&cleaning::run(&opts, NonZeroUsize::MIN))
    );
    println!();

    // Part 2: the archival regime — append-only ingest never cleans.
    let mut log = CleaningLog::new(CleanerConfig::new(Pba::new(1 << 30), 2048, 64));
    let capacity = 64 * 2048u64;
    let mut written = 0u64;
    let mut t = 0u64;
    // Ingest until ~70% of the effective capacity, never overwriting.
    while written < capacity * 6 / 10 {
        t += 1;
        log.apply(&TraceRecord::write(t, Lba::new(written), 256));
        written += 256;
    }
    println!("archival regime (append-only ingest, no overwrites):");
    println!(
        "  utilization {:.0}%, WAF {:.2}, cleanings {}",
        100.0 * log.utilization(),
        log.stats().waf(),
        log.stats().cleanings
    );
    assert_eq!(log.stats().cleanings, 0, "append-only must never clean");
    println!();
    println!("Steady overwrites force copying that grows sharply with utilization,");
    println!("while archival ingest stays at WAF 1.00 with zero cleanings — the");
    println!("regime in which the paper's seek-reduction techniques can remove the");
    println!("last SMR performance penalty.");
}
