//! Smoke test: every experiment runs end-to-end at a tiny scale and
//! renders non-empty output. Guards the full experiment surface (the
//! per-module tests check correctness; this checks nothing is wired up
//! wrong across the workspace).

use smrseek::sim::experiments::{ExpOptions, ALL};
use std::num::NonZeroUsize;

fn opts() -> ExpOptions {
    ExpOptions { seed: 1, ops: 1200 }
}

/// Per `ALL` entry, in order: its name and the 64-bit FNV-1a digests of
/// its text and of its compact JSON at [`opts`]. A change that moves any
/// byte of any report fails here and must re-pin on purpose.
const DIGESTS: [(&str, &str, &str); 14] = [
    ("table1", "3504a38ff6c1aea7", "61516f1117cd9d35"),
    ("fig2", "0b02dbce5ac65ad3", "3151dfe0cbe1417c"),
    ("fig3", "e7ab64a7f946e960", "3456d799d490877f"),
    ("fig4", "aaedd58317380dd4", "c24cf6c1ef19b014"),
    ("fig5", "5c17a6c1fd6d7522", "e73a62275b1b2f49"),
    ("fig7", "a05851bb8a4943cd", "5f028bbb001ff425"),
    ("fig8", "bd0ece4c2e236768", "b0456ab61d172fe8"),
    ("fig10", "8612edf4f2dc5405", "02979f5a91b27405"),
    ("fig11", "6847b92ef4991740", "c0bb60d5ef865b95"),
    ("classify", "f4dd9dee8977f774", "8a7ae4354976bf67"),
    ("analyze", "6aa96f21c3044570", "270d8edafee7d96f"),
    ("frag", "6eb10ee29e1bf69d", "148125ef2e8950d8"),
    ("ablate", "a40f02d399e69221", "eaa479f5927722e0"),
    ("adaptive", "57a95ea7567edefb", "dfe5a8357ddeaad4"),
];

fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    format!("{hash:016x}")
}

#[test]
fn every_experiment_runs_and_renders() {
    let mut seen = Vec::new();
    for experiment in &ALL {
        let output = (experiment.run)(&opts(), NonZeroUsize::MIN);
        let (name, text) = (experiment.name, &output.text);
        assert!(
            text.lines().count() >= 3,
            "{name}: suspiciously short output:\n{text}"
        );
        assert!(!text.contains("NaN"), "{name}: NaN leaked into output");
        let json = serde_json::to_string(&output.json).expect("JSON serializes");
        seen.push((name, digest(text.as_bytes()), digest(json.as_bytes())));
    }
    let pinned: Vec<(&str, String, String)> = DIGESTS
        .iter()
        .map(|&(name, text, json)| (name, text.to_owned(), json.to_owned()))
        .collect();
    assert_eq!(seen, pinned, "report bytes moved");
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
