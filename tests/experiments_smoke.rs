//! Smoke test: every experiment runs end-to-end at a tiny scale and
//! renders non-empty output. Guards the full experiment surface (the
//! per-module tests check correctness; this checks nothing is wired up
//! wrong across the workspace).

use smrseek::sim::experiments::{ExpOptions, ALL};
use std::num::NonZeroUsize;

fn opts() -> ExpOptions {
    ExpOptions { seed: 1, ops: 1200 }
}

#[test]
fn every_experiment_runs_and_renders() {
    for experiment in &ALL {
        let output = (experiment.run)(&opts(), NonZeroUsize::MIN);
        let (name, text) = (experiment.name, &output.text);
        assert!(
            text.lines().count() >= 3,
            "{name}: suspiciously short output:\n{text}"
        );
        assert!(!text.contains("NaN"), "{name}: NaN leaked into output");
    }
}

#[test]
fn json_serialization_of_every_result_type() {
    // Every experiment result must serialize (the CLI's --json path).
    for experiment in &ALL {
        let output = (experiment.run)(&opts(), NonZeroUsize::MIN);
        serde_json::to_string(&output.json)
            .unwrap_or_else(|e| panic!("{}: JSON does not serialize: {e}", experiment.name));
    }
}

#[test]
fn plotdata_exports_from_the_facade() {
    let dir = std::env::temp_dir().join(format!("smrseek_smoke_{}", std::process::id()));
    let files =
        smrseek::sim::plotdata::export_all(&opts(), NonZeroUsize::MIN, &dir).expect("export");
    assert_eq!(files.len(), 8);
    std::fs::remove_dir_all(&dir).ok();
}
