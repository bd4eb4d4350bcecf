//! Fig 2: read and write seek counts under non-log-structured (NoLS) and
//! log-structured (LS) translation for every workload.
//!
//! Expected shape (§III): write seeks collapse under LS for every
//! workload; read seeks grow modestly for log-friendly workloads
//! (`src2_2`, `wdev_0`, `w36`), hugely for log-sensitive ones
//! (`w91`, `w33`, `w20` — up to ~5x net), and in between for `hm_1`,
//! `w93`, `w55`.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::MatrixStats;
use serde::Serialize;
use smrseek_disk::SeekStats;
use smrseek_workloads::profiles::{self, Family};
use std::num::NonZeroUsize;

/// Seek counts of one workload under both translations.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// Workload name.
    pub workload: String,
    /// Trace family.
    pub family: Family,
    /// Seeks under conventional translation.
    pub nols: SeekStats,
    /// Seeks under log-structured translation.
    pub ls: SeekStats,
}

impl Fig2Row {
    /// Net total-seek change, `ls.total() / nols.total()`.
    pub fn net_ratio(&self) -> f64 {
        self.ls.total() as f64 / self.nols.total().max(1) as f64
    }

    /// Read-seek growth, `ls.read / nols.read`.
    pub fn read_ratio(&self) -> f64 {
        self.ls.read_seeks as f64 / self.nols.read_seeks.max(1) as f64
    }
}

/// Simulates every Table-I workload (Fig 2a + 2b) through the parallel
/// run matrix: two cells (NoLS, LS) per workload, executed on up to
/// `threads` workers. Rows do not depend on the thread count.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<Fig2Row>, MatrixStats) {
    let configs = [SimConfig::no_ls(), SimConfig::log_structured()];
    super::replay(
        &profiles::all(),
        &configs,
        opts,
        threads,
        |profile, pair| Fig2Row {
            workload: profile.name.to_owned(),
            family: profile.family,
            nols: pair[0].report.seeks,
            ls: pair[1].report.seeks,
        },
    )
}

/// Renders the text analogue of Fig 2's stacked bars.
pub fn render(rows: &[Fig2Row]) -> String {
    let mut out = String::new();
    for family in [Family::Msr, Family::CloudPhysics] {
        let mut table = TextTable::new(vec![
            "workload", "NoLS rd", "NoLS wr", "LS rd", "LS wr", "net",
        ]);
        for row in rows.iter().filter(|r| r.family == family) {
            table.row(vec![
                row.workload.clone(),
                row.nols.read_seeks.to_string(),
                row.nols.write_seeks.to_string(),
                row.ls.read_seeks.to_string(),
                row.ls.write_seeks.to_string(),
                format!("{:.2}x", row.net_ratio()),
            ]);
        }
        out.push_str(&format!(
            "Fig 2{} — seek counts, NoLS vs LS ({} workloads)\n",
            if family == Family::Msr { "a" } else { "b" },
            family
        ));
        out.push_str(&table.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared run at the test scale; each test picks its rows by
    /// workload name.
    fn rows() -> &'static [Fig2Row] {
        static ROWS: OnceLock<Vec<Fig2Row>> = OnceLock::new();
        ROWS.get_or_init(|| run(&ExpOptions { seed: 5, ops: 6000 }, NonZeroUsize::MIN).0)
    }

    fn row(name: &str) -> &'static Fig2Row {
        rows()
            .iter()
            .find(|r| r.workload == name)
            .unwrap_or_else(|| panic!("no {name} row"))
    }

    #[test]
    fn write_seeks_collapse_under_ls_everywhere() {
        for row in rows() {
            assert!(
                row.ls.write_seeks * 5 <= row.nols.write_seeks.max(5),
                "{}: LS write seeks {} vs NoLS {}",
                row.workload,
                row.ls.write_seeks,
                row.nols.write_seeks
            );
        }
    }

    #[test]
    fn read_seeks_grow_for_log_sensitive() {
        for name in ["w91", "w20", "usr_1"] {
            let row = row(name);
            assert!(
                row.read_ratio() > 2.0,
                "{name}: LS read seeks must grow, ratio {:.2}",
                row.read_ratio()
            );
        }
    }

    #[test]
    fn net_reduction_for_log_friendly() {
        for name in ["src2_2", "wdev_0", "w36", "mds_0"] {
            let row = row(name);
            assert!(
                row.net_ratio() < 1.0,
                "{name}: net ratio {:.2} should be below 1",
                row.net_ratio()
            );
        }
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let o = ExpOptions { seed: 5, ops: 1500 };
        let (serial, _) = run(&o, NonZeroUsize::MIN);
        let (parallel, stats) = run(&o, NonZeroUsize::new(4).expect("nonzero"));
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(stats.cells.len(), 2 * serial.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.nols, b.nols, "{}: NoLS seeks differ", a.workload);
            assert_eq!(a.ls, b.ls, "{}: LS seeks differ", a.workload);
        }
    }

    #[test]
    fn render_shows_both_panels() {
        let text = render(&[row("hm_1").clone(), row("w36").clone()]);
        assert!(text.contains("Fig 2a"));
        assert!(text.contains("Fig 2b"));
    }
}
