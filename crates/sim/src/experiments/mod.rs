//! One module per table/figure of the paper's evaluation.
//!
//! Each module exposes one structured `run(opts, threads)` returning the
//! data behind the figure plus a `render(...)` producing the text table
//! the CLI prints. Every experiment that replays traces through the
//! engine does so through one [`RunMatrix`], and its `run` returns that
//! matrix's [`MatrixStats`] beside the data; most build the matrix with
//! the private `replay` (profiles × configs). [`ALL`] lists every
//! experiment once, in the order `smrseek all` prints them; the CLI, the
//! smoke tests and the `paper_figures` example all iterate it. The
//! experiment index in `DESIGN.md` maps figures to these modules.

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
pub mod table1;

use crate::engine::SimConfig;
use crate::runner::{MatrixStats, RunMatrix, RunOutcome, TraceSource};
use serde::{Deserialize, Serialize, Value};
use smrseek_workloads::profiles::{self, Profile};
use std::borrow::Borrow;
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
    /// Per-cell metrics of the experiment's [`RunMatrix`]: every
    /// experiment that replays traces through the engine does so through
    /// one matrix. `None` for those that only analyze traces (`table1`,
    /// `fig7`, `fig8`, `frag`).
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

    /// [`of`](Self::of) for a run's data, keeping its matrix's stats.
    fn replayed<T, D>(render: fn(&T) -> String, (data, stats): (D, MatrixStats)) -> Self
    where
        T: Serialize + ?Sized,
        D: Borrow<T>,
    {
        Output {
            stats: Some(stats),
            ..Output::of(render, data.borrow())
        }
    }
}

/// The Table-I profiles named by `names`, in order.
fn named(names: &[&str]) -> Vec<Profile> {
    names
        .iter()
        .map(|name| profiles::by_name(name).unwrap_or_else(|| panic!("no profile {name}")))
        .collect()
}

/// Replays every profile under every config as one
/// [`RunMatrix::cross`] on up to `threads` workers, and makes each
/// profile's outcomes, in config order, into a `row`; returns the rows
/// and the matrix's stats.
fn replay<R>(
    profiles: &[Profile],
    configs: &[SimConfig],
    opts: &ExpOptions,
    threads: NonZeroUsize,
    row: impl Fn(&Profile, Vec<RunOutcome>) -> R,
) -> (Vec<R>, MatrixStats) {
    let sources: Vec<TraceSource> = profiles
        .iter()
        .map(|p| TraceSource::from_profile(p, opts))
        .collect();
    let outcomes = RunMatrix::cross(&sources, configs).execute(threads);
    let stats = MatrixStats::from_outcomes(&outcomes);
    let mut cells = outcomes.into_iter();
    let rows = profiles
        .iter()
        .map(|p| row(p, cells.by_ref().take(configs.len()).collect()))
        .collect();
    (rows, stats)
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
pub static ALL: [Experiment; 14] = [
    Experiment {
        name: "table1",
        run: |o, t| Output::of(table1::render, &table1::run(o, t)),
    },
    Experiment {
        name: "fig2",
        run: |o, t| Output::replayed(fig2::render, fig2::run(o, t)),
    },
    Experiment {
        name: "fig3",
        run: |o, t| Output::replayed(fig3::render, fig3::run(o, t)),
    },
    Experiment {
        name: "fig4",
        run: |o, t| Output::replayed(fig4::render, fig4::run(o, t)),
    },
    Experiment {
        name: "fig5",
        run: |o, t| Output::replayed(fig5::render, fig5::run(o, t)),
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
        run: |o, t| Output::replayed(fig10::render, fig10::run(o, t)),
    },
    Experiment {
        name: "fig11",
        run: |o, t| Output::replayed(fig11::render, fig11::run(o, t)),
    },
    Experiment {
        name: "classify",
        run: |o, t| Output::replayed(classify::render, classify::run(o, t)),
    },
    Experiment {
        name: "analyze",
        run: |o, t| Output::replayed(analyze::render, analyze::run(o, t)),
    },
    Experiment {
        name: "frag",
        run: |o, t| Output::of(fragmentation::render, &fragmentation::run(o, t)),
    },
    Experiment {
        name: "ablate",
        run: |o, t| Output::replayed(ablation::render, ablation::run(o, t)),
    },
    Experiment {
        name: "adaptive",
        run: |o, t| Output::replayed(adaptive::render, adaptive::run(o, t)),
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
