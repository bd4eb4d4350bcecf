//! Regenerates the paper's evaluation tables and figures, plus the
//! extensions, in one shot as a library-level example (the `smrseek` CLI
//! offers the same per experiment).
//!
//! ```sh
//! cargo run --release --example paper_figures            # quick (8k ops)
//! cargo run --release --example paper_figures -- 40000   # paper scale
//! ```

use smrseek::sim::experiments::{ExpOptions, ALL};
use smrseek::sim::runner::default_threads;

fn main() {
    let ops = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);
    let opts = ExpOptions { seed: 42, ops };
    eprintln!("running all experiments at {ops} ops per workload...");
    for experiment in &ALL {
        println!("{}", (experiment.run)(&opts, default_threads()).text);
    }
}
