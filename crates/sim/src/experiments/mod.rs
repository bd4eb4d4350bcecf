//! One module per table/figure of the paper's evaluation.
//!
//! Each module exposes one structured `run(opts, threads)` returning the
//! data behind the figure plus a `render(...)` producing the text table
//! the CLI prints. [`ALL`] lists every experiment once, in the order
//! `smrseek all` prints them; the CLI, the smoke tests and the
//! `paper_figures` example all iterate it. The experiment index in
//! `DESIGN.md` maps figures to these modules.

pub mod ablation;
pub mod adaptive;
pub mod analyze;
pub mod classify;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fragmentation;
pub mod host_cache;
pub mod table1;

use crate::runner::MatrixStats;
use serde::{Deserialize, Serialize, Value};
use std::num::NonZeroUsize;

/// Common options for experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpOptions {
    /// Seed for the synthetic workload generators.
    pub seed: u64,
    /// Operations per workload trace.
    pub ops: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 42,
            ops: smrseek_workloads::profiles::DEFAULT_OPS,
        }
    }
}

/// What one experiment produces. `text` and `json` depend only on the
/// options, never on the thread count.
#[derive(Debug)]
pub struct Output {
    /// The rendered text report.
    pub text: String,
    /// The data behind the report (what `--json` writes).
    pub json: Value,
    /// Per-cell metrics, for experiments that replay through a
    /// [`RunMatrix`](crate::runner::RunMatrix).
    pub stats: Option<MatrixStats>,
}

impl Output {
    /// Renders `data` and keeps it as the JSON document.
    fn of<T: Serialize + ?Sized>(render: fn(&T) -> String, data: &T) -> Self {
        Output {
            text: render(data),
            json: data.to_value(),
            stats: None,
        }
    }

    fn with_stats(self, stats: MatrixStats) -> Self {
        Output {
            stats: Some(stats),
            ..self
        }
    }
}

/// One experiment: its CLI command name and how to run it on up to
/// `threads` workers.
#[derive(Debug)]
pub struct Experiment {
    /// The `smrseek` command (and the key in `smrseek all --json`).
    pub name: &'static str,
    /// Runs the experiment and renders its report.
    pub run: fn(&ExpOptions, NonZeroUsize) -> Output,
}

/// Every experiment, in the order `smrseek all` prints them.
pub static ALL: [Experiment; 15] = [
    Experiment {
        name: "table1",
        run: |o, t| Output::of(table1::render, &table1::run(o, t)),
    },
    Experiment {
        name: "fig2",
        run: |o, t| {
            let (rows, stats) = fig2::run(o, t);
            Output::of(fig2::render, &rows).with_stats(stats)
        },
    },
    Experiment {
        name: "fig3",
        run: |o, t| Output::of(fig3::render, &fig3::run(o, t)),
    },
    Experiment {
        name: "fig4",
        run: |o, t| Output::of(fig4::render, &fig4::run(o, t)),
    },
    Experiment {
        name: "fig5",
        run: |o, t| Output::of(fig5::render, &fig5::run(o, t)),
    },
    Experiment {
        name: "fig7",
        run: |o, t| Output::of(fig7::render, &fig7::run(o, t)),
    },
    Experiment {
        name: "fig8",
        run: |o, t| Output::of(fig8::render, &fig8::run(o, t)),
    },
    Experiment {
        name: "fig10",
        run: |o, t| Output::of(fig10::render, &fig10::run(o, t)),
    },
    Experiment {
        name: "fig11",
        run: |o, t| Output::of(fig11::render, &fig11::run(o, t)),
    },
    Experiment {
        name: "classify",
        run: |o, t| Output::of(classify::render, &classify::run(o, t)),
    },
    Experiment {
        name: "analyze",
        run: |o, t| Output::of(analyze::render, &analyze::run(o, t)),
    },
    Experiment {
        name: "frag",
        run: |o, t| Output::of(fragmentation::render, &fragmentation::run(o, t)),
    },
    Experiment {
        name: "ablate",
        run: |o, t| {
            let (sweeps, stats) = ablation::run(o, t);
            Output::of(ablation::render, &sweeps).with_stats(stats)
        },
    },
    Experiment {
        name: "adaptive",
        run: |o, t| {
            let (report, stats) = adaptive::run(o, t);
            Output::of(adaptive::render, &report).with_stats(stats)
        },
    },
    Experiment {
        name: "hostcache",
        run: |o, t| Output::of(host_cache::render, &host_cache::run(o, t)),
    },
];

/// Looks up an experiment by its command name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, exp) in ALL.iter().enumerate() {
            assert!(
                ALL[..i].iter().all(|e| e.name != exp.name),
                "{} listed twice",
                exp.name
            );
            assert_eq!(find(exp.name).map(|e| e.name), Some(exp.name));
        }
        assert!(find("all").is_none());
    }
}
