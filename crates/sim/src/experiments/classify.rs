//! §III's taxonomy made executable: each workload is classified as
//! **log-friendly** (net seek decrease), **log-agnostic** (small or no
//! change) or **log-sensitive** (significant amplification), and compared
//! against the classification the paper's own Figures 2 and 11 imply.

use super::ExpOptions;
use crate::engine::SimConfig;
use crate::report::TextTable;
use crate::runner::MatrixStats;
use crate::saf::Saf;
use serde::{Deserialize, Serialize};
use smrseek_workloads::profiles;
use std::fmt;
use std::num::NonZeroUsize;

/// One workload's seek-behaviour class under log-structured translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeekClass {
    /// Net seek reduction (SAF below [`FRIENDLY_BELOW`]).
    LogFriendly,
    /// Small or no change.
    LogAgnostic,
    /// Significant amplification (SAF above [`SENSITIVE_ABOVE`]).
    LogSensitive,
}

impl fmt::Display for SeekClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeekClass::LogFriendly => f.write_str("log-friendly"),
            SeekClass::LogAgnostic => f.write_str("log-agnostic"),
            SeekClass::LogSensitive => f.write_str("log-sensitive"),
        }
    }
}

/// SAF below this is a net win.
pub const FRIENDLY_BELOW: f64 = 0.9;
/// SAF above this is significant amplification.
pub const SENSITIVE_ABOVE: f64 = 1.25;

/// Classifies a total SAF.
pub fn classify_saf(saf: f64) -> SeekClass {
    if saf < FRIENDLY_BELOW {
        SeekClass::LogFriendly
    } else if saf <= SENSITIVE_ABOVE {
        SeekClass::LogAgnostic
    } else {
        SeekClass::LogSensitive
    }
}

/// The classification the paper implies for each workload (§III's
/// discussion of Fig 2 plus Fig 11's bars), or `None` where the paper is
/// not explicit.
pub fn paper_class(workload: &str) -> Option<SeekClass> {
    match workload {
        // §V: all MSR except usr_1, hm_1 have SAF < 1.
        "usr_0" | "src2_2" | "web_0" | "wdev_0" | "mds_0" | "rsrch_0" | "ts_0" => {
            Some(SeekClass::LogFriendly)
        }
        "usr_1" | "hm_1" => Some(SeekClass::LogSensitive),
        // §III on Fig 2: huge increases for w91, w33, w20; modest for w36.
        "w91" | "w20" => Some(SeekClass::LogSensitive),
        "w36" | "w76" | "w84" | "w106" => Some(SeekClass::LogFriendly),
        // "significant but not overwhelming": hm_1, w93, w55 — w93/w55
        // straddle the boundary.
        _ => None,
    }
}

/// One classified workload.
#[derive(Debug, Clone, Serialize)]
pub struct ClassifyRow {
    /// Workload name.
    pub workload: String,
    /// Measured SAF of plain LS.
    pub saf: Saf,
    /// Measured class.
    pub measured: SeekClass,
    /// The paper's implied class, where explicit.
    pub paper: Option<SeekClass>,
}

impl ClassifyRow {
    /// Whether the measured class matches the paper (true when the paper
    /// is silent).
    pub fn agrees(&self) -> bool {
        self.paper.is_none_or(|p| p == self.measured)
    }
}

/// Classifies every Table-I workload from its NoLS and LS replays, as one
/// run matrix on up to `threads` workers.
pub fn run(opts: &ExpOptions, threads: NonZeroUsize) -> (Vec<ClassifyRow>, MatrixStats) {
    let configs = [SimConfig::no_ls(), SimConfig::log_structured()];
    super::replay(
        &profiles::all(),
        &configs,
        opts,
        threads,
        |profile, pair| {
            let saf = Saf::from_stats(&pair[1].report.seeks, &pair[0].report.seeks);
            ClassifyRow {
                workload: profile.name.to_owned(),
                saf,
                measured: classify_saf(saf.total),
                paper: paper_class(profile.name),
            }
        },
    )
}

/// Renders the classification table.
pub fn render(rows: &[ClassifyRow]) -> String {
    let mut table = TextTable::new(vec!["workload", "SAF", "measured", "paper", "agree"]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.2}", row.saf.total),
            row.measured.to_string(),
            row.paper.map_or_else(|| "—".to_owned(), |c| c.to_string()),
            if row.agrees() { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    let agreements = rows.iter().filter(|r| r.agrees()).count();
    format!(
        "Workload classification under log-structured translation\n{table}\
         agreement with the paper: {agreements}/{} workloads\n",
        rows.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_partition_the_line() {
        assert_eq!(classify_saf(0.1), SeekClass::LogFriendly);
        assert_eq!(classify_saf(0.89), SeekClass::LogFriendly);
        assert_eq!(classify_saf(1.0), SeekClass::LogAgnostic);
        assert_eq!(classify_saf(1.25), SeekClass::LogAgnostic);
        assert_eq!(classify_saf(1.26), SeekClass::LogSensitive);
        assert_eq!(classify_saf(5.0), SeekClass::LogSensitive);
    }

    #[test]
    fn paper_classification_reproduced() {
        let opts = ExpOptions { seed: 6, ops: 6000 };
        let (rows, _) = run(&opts, NonZeroUsize::MIN);
        assert_eq!(rows.len(), 21);
        let explicit: Vec<&ClassifyRow> = rows.iter().filter(|r| r.paper.is_some()).collect();
        let agreements = explicit.iter().filter(|r| r.agrees()).count();
        assert_eq!(
            agreements,
            explicit.len(),
            "disagreements: {:?}",
            explicit
                .iter()
                .filter(|r| !r.agrees())
                .map(|r| (&r.workload, r.saf.total))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_three_classes_present() {
        let opts = ExpOptions { seed: 6, ops: 6000 };
        let (rows, _) = run(&opts, NonZeroUsize::MIN);
        for class in [
            SeekClass::LogFriendly,
            SeekClass::LogAgnostic,
            SeekClass::LogSensitive,
        ] {
            assert!(
                rows.iter().any(|r| r.measured == class),
                "no workload classified {class}"
            );
        }
    }

    #[test]
    fn render_reports_agreement() {
        let opts = ExpOptions { seed: 6, ops: 2000 };
        let text = render(&run(&opts, NonZeroUsize::MIN).0);
        assert!(text.contains("agreement with the paper"));
        assert!(text.contains("log-sensitive"));
    }
}
