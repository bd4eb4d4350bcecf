//! End-to-end tests of the `smrseek` binary: argument handling, figure
//! commands, JSON output, trace generation and ingestion.

use std::path::PathBuf;
use std::process::{Command, Output};

fn smrseek(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smrseek"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn smrseek_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smrseek"));
    cmd.args(args);
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smrseek_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = smrseek(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_fails() {
    let out = smrseek(&["fig99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn list_shows_all_profiles() {
    let out = smrseek(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in ["usr_1", "w91", "ts_0", "w106"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn fig11_runs_small() {
    let out = smrseek(&["fig11", "--ops", "1500", "--seed", "3"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Fig 11a"));
    assert!(text.contains("Fig 11b"));
    assert!(text.contains("LS+cache"));
}

#[test]
fn fig8_json_output_is_valid() {
    let json_path = tmp("fig8.json");
    let out = smrseek(&[
        "fig8",
        "--ops",
        "1500",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let data = std::fs::read_to_string(&json_path).expect("json written");
    let value: serde_json::Value = serde_json::from_str(&data).expect("valid JSON");
    assert_eq!(value.as_array().expect("array of rows").len(), 21);
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn gen_characterize_simulate_pipeline() {
    let csv_path = tmp("w95.csv");
    let out = smrseek(&[
        "gen",
        "w95",
        "--ops",
        "1200",
        "--out",
        csv_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = smrseek(&["characterize", csv_path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("reads"));

    let out = smrseek(&["simulate", csv_path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("NoLS"));
    assert!(text.contains("LS+cache"));
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn gen_without_out_prints_csv() {
    let out = smrseek(&["gen", "hm_1", "--ops", "200"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("timestamp_us,op,offset_bytes,length_bytes"));
    assert!(text.lines().count() > 100);
}

#[test]
fn gen_unknown_profile_fails() {
    let out = smrseek(&["gen", "bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown profile"));
}

#[test]
fn simulate_blktrace_format() {
    let blk_path = tmp("t.blk");
    std::fs::write(
        &blk_path,
        "  8,0 1 1 0.000000000 1 Q W 0 + 64 [x]\n  8,0 1 2 0.100000000 1 Q R 0 + 64 [x]\n",
    )
    .expect("write temp");
    // Auto-sniffed.
    let out = smrseek(&["characterize", blk_path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("1 reads / 1 writes"));
    // Explicit format flag.
    let out = smrseek(&[
        "characterize",
        blk_path.to_str().unwrap(),
        "--format",
        "blktrace",
    ]);
    assert!(out.status.success());
    std::fs::remove_file(&blk_path).ok();
}

#[test]
fn binary_trace_sniffed_by_magic_not_mistaken_for_csv() {
    // Regression: a binary `.smrt` file fed to simulate/characterize used
    // to fall through to the line-based sniffer and mis-detect as CSV.
    // The magic check must win, for v1 and v2 images alike.
    use smrseek_trace::binary::{write_binary, write_binary_v2};
    use smrseek_trace::{Lba, TraceRecord};
    let records = vec![
        TraceRecord::write(0, Lba::new(0), 8),
        TraceRecord::read(10, Lba::new(64), 16),
    ];
    let mut v1 = Vec::new();
    write_binary(&mut v1, &records).expect("vec write cannot fail");
    let mut v2 = Vec::new();
    write_binary_v2(&mut v2, &records).expect("vec write cannot fail");
    for (version, buf) in [("v1", v1), ("v2", v2)] {
        let path = tmp(&format!("magic.{version}.smrt"));
        std::fs::write(&path, &buf).expect("write temp");
        for command in ["characterize", "simulate"] {
            let out = smrseek(&[command, path.to_str().unwrap()]);
            assert!(
                out.status.success(),
                "{version} {command}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = smrseek(&["characterize", path.to_str().unwrap()]);
        assert!(stdout(&out).contains("1 reads / 1 writes"), "{version}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn convert_then_simulate_matches_csv_run() {
    let csv = tmp("convert.csv");
    let smrt = tmp("convert.smrt");
    let out = smrseek(&["gen", "w91", "--ops", "800", "--out", csv.to_str().unwrap()]);
    assert!(out.status.success());
    let out = smrseek(&["convert", csv.to_str().unwrap(), smrt.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("binary v2"));
    let from_csv = smrseek(&["simulate", csv.to_str().unwrap()]);
    let from_bin = smrseek(&["simulate", smrt.to_str().unwrap()]);
    assert!(from_csv.status.success() && from_bin.status.success());
    // Same seek table (first stdout line differs only in the path shown).
    let table = |out: &Output| stdout(out).lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(table(&from_csv), table(&from_bin));
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&smrt).ok();
}

#[test]
fn simulate_cache_is_byte_identical_and_replays_sidecar() {
    let csv = tmp("cached.csv");
    let sidecar = tmp("cached.csv.smrt");
    std::fs::remove_file(&sidecar).ok();
    let out = smrseek(&[
        "gen",
        "hm_1",
        "--ops",
        "600",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let j = |n: &str| tmp(n).to_str().unwrap().to_owned();
    let (ju, j1, j2) = (j("cached_u.json"), j("cached_1.json"), j("cached_2.json"));
    let uncached = smrseek(&["simulate", csv.to_str().unwrap(), "--json", &ju]);
    let first = smrseek(&["simulate", csv.to_str().unwrap(), "--cache", "--json", &j1]);
    assert!(sidecar.exists(), "first cached run writes the sidecar");
    // `-v` so the cache chatter (info level) reaches stderr.
    let second = smrseek(&[
        "simulate",
        csv.to_str().unwrap(),
        "--cache",
        "--json",
        &j2,
        "-v",
    ]);
    assert!(uncached.status.success() && first.status.success() && second.status.success());
    assert_eq!(
        stdout(&uncached),
        stdout(&first),
        "--cache must not change stdout"
    );
    assert_eq!(stdout(&uncached), stdout(&second));
    let read = |p: &str| std::fs::read(p).expect("json written");
    assert_eq!(read(&ju), read(&j1), "--cache must not change JSON");
    assert_eq!(read(&ju), read(&j2));
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("cache: replaying"),
        "second run replays the mmapped sidecar"
    );
    for p in [ju, j1, j2] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&sidecar).ok();
}

#[test]
fn simulate_json_handles_zero_baseline_trace() {
    // A fully sequential trace incurs zero NoLS seeks, making SAF
    // components infinite. JSON output must still succeed (components
    // serialize as null), not die on a non-finite float.
    let path = tmp("seq.csv");
    let mut csv = String::from("timestamp_us,op,offset_bytes,length_bytes\n");
    for i in 0..64u64 {
        csv.push_str(&format!("{},W,{},4096\n", i * 10, i * 4096));
    }
    std::fs::write(&path, csv).expect("write temp");
    let json_path = tmp("seq.json");
    let out = smrseek(&[
        "simulate",
        path.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read_to_string(&json_path).expect("json written");
    let value: serde_json::Value = serde_json::from_str(&data).expect("valid JSON");
    assert!(
        value.as_array().is_some_and(|rows| !rows.is_empty()),
        "layer rows present"
    );
    assert!(data.contains("null"), "infinite SAF components become null");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn characterize_missing_file_fails_cleanly() {
    let out = smrseek(&["characterize", "/nonexistent/trace.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn bad_flag_values_rejected() {
    for args in [
        &["fig2", "--ops", "abc"][..],
        &["fig2", "--seed"][..],
        &["fig2", "--format", "weird"][..],
    ] {
        let out = smrseek(args);
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

#[test]
fn sniffs_msr_csv() {
    // 7 comma-separated fields: Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime.
    let path = tmp("sniff.msr.csv");
    std::fs::write(
        &path,
        "128166372003061629,hm,1,Read,2449920,4096,1339\n\
         128166372016853766,hm,1,Write,2449920,4096,231\n",
    )
    .expect("write temp");
    let out = smrseek(&["characterize", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("1 reads / 1 writes"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sniffs_cp_csv() {
    // 4 comma-separated fields, with the CloudPhysics header line.
    let path = tmp("sniff.cp.csv");
    std::fs::write(
        &path,
        "timestamp_us,op,offset_bytes,length_bytes\n\
         0,R,4096,4096\n\
         100,W,8192,8192\n",
    )
    .expect("write temp");
    let out = smrseek(&["characterize", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("1 reads / 1 writes"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sniffs_blkparse_text() {
    // Whitespace-separated with a "+" sector-count field.
    let path = tmp("sniff.blk");
    std::fs::write(
        &path,
        "  8,0 1 1 0.000000000 1 Q R 128 + 8 [fio]\n  8,0 1 2 0.000200000 1 Q W 136 + 8 [fio]\n",
    )
    .expect("write temp");
    let out = smrseek(&["characterize", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("1 reads / 1 writes"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn misdetected_format_fails_cleanly_not_panics() {
    // Looks like a CloudPhysics CSV to the sniffer (few comma fields) but
    // the fields are garbage: the parser must report a parse error (exit
    // code 65), not panic, and stderr must name the offending file.
    let path = tmp("sniff.garbage");
    std::fs::write(&path, "hello,world\nthis,is,not,a,trace\n").expect("write temp");
    let out = smrseek(&["characterize", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(65), "parse errors exit with 65");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "clean message, got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_ending_past_the_sector_limit_is_a_parse_error() {
    // Line 2 ends past u64::MAX; replaying it used to panic on overflow.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/end_overflow.blktrace"
    );
    let out = smrseek(&["simulate", path]);
    assert_eq!(out.status.code(), Some(65), "parse errors exit with 65");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "names the record, got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn sniff_empty_file_fails_cleanly() {
    let path = tmp("sniff.empty");
    std::fs::write(&path, "# only a comment\n\n").expect("write temp");
    let out = smrseek(&["characterize", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(65));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no data lines"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn exit_codes_distinguish_usage_from_io() {
    // Bad usage: exit 2.
    let out = smrseek(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let out = smrseek(&["fig2", "--ops", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    // I/O failure: exit 74 (EX_IOERR).
    let out = smrseek(&["characterize", "/nonexistent/trace.csv"]);
    assert_eq!(out.status.code(), Some(74));
}

#[test]
fn all_smoke_test_runs_every_experiment() {
    let out = smrseek(&["all", "--ops", "2000", "-v"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    for heading in ["Table I", "Fig 2a", "Fig 11b", "Extension"] {
        assert!(text.contains(heading), "missing {heading}");
    }
    // The per-run timing summary goes to stderr, never stdout.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("19 experiments"), "timing summary on stderr");
    assert!(!text.contains("experiments,"), "stdout stays clean");
}

#[test]
fn all_json_is_byte_identical_across_thread_counts() {
    let p1 = tmp("all_t1.json");
    let p4 = tmp("all_t4.json");
    let out1 = smrseek(&[
        "all",
        "--ops",
        "1000",
        "--threads",
        "1",
        "--json",
        p1.to_str().unwrap(),
    ]);
    let out4 = smrseek(&[
        "all",
        "--ops",
        "1000",
        "--threads",
        "4",
        "--json",
        p4.to_str().unwrap(),
    ]);
    assert!(out1.status.success() && out4.status.success());
    assert_eq!(
        stdout(&out1),
        stdout(&out4),
        "stdout must not depend on --threads"
    );
    let j1 = std::fs::read(&p1).expect("json written");
    let j4 = std::fs::read(&p4).expect("json written");
    assert!(!j1.is_empty());
    assert_eq!(j1, j4, "JSON must be byte-identical for any --threads");
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p4).ok();
}

#[test]
fn snapshot_then_resume_matches_simulate_bytes() {
    let csv = tmp("resume.csv");
    let ckpt = tmp("resume_ckpts");
    std::fs::remove_dir_all(&ckpt).ok();
    let out = smrseek(&[
        "gen",
        "usr_1",
        "--ops",
        "900",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let j = |n: &str| tmp(n).to_str().unwrap().to_owned();
    let (js, jr, jc) = (j("resume_s.json"), j("resume_r.json"), j("resume_c.json"));

    // The straight-through truth: stdout and JSON of plain `simulate`.
    let sim = smrseek(&["simulate", csv.to_str().unwrap(), "--json", &js]);
    assert!(sim.status.success());

    // Checkpoint the sweep partway in, then resume from the stored state.
    let snap = smrseek(&[
        "snapshot",
        csv.to_str().unwrap(),
        ckpt.to_str().unwrap(),
        "--at",
        "250",
    ]);
    assert!(
        snap.status.success(),
        "{}",
        String::from_utf8_lossy(&snap.stderr)
    );
    let snap_text = stdout(&snap);
    assert!(
        snap_text.contains("checkpointed 250 of"),
        "snapshot names its cut point: {snap_text}"
    );
    assert_eq!(
        snap_text.matches(".smrs").count(),
        5,
        "one checkpoint file per sweep config: {snap_text}"
    );

    let resumed = smrseek(&[
        "resume",
        csv.to_str().unwrap(),
        ckpt.to_str().unwrap(),
        "--json",
        &jr,
        "-v",
    ]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("5 checkpoint hit(s), 0 miss(es)"),
        "all five cells resumed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        stdout(&sim),
        stdout(&resumed),
        "resume stdout is byte-identical to simulate"
    );
    let read = |p: &str| std::fs::read(p).expect("json written");
    assert_eq!(read(&js), read(&jr), "resume JSON is byte-identical");

    // Resuming against an empty store degrades to a cold run, same bytes.
    let empty = tmp("resume_empty_ckpts");
    std::fs::remove_dir_all(&empty).ok();
    let cold = smrseek(&[
        "resume",
        csv.to_str().unwrap(),
        empty.to_str().unwrap(),
        "--json",
        &jc,
        "-v",
    ]);
    assert!(cold.status.success());
    assert!(
        String::from_utf8_lossy(&cold.stderr).contains("0 checkpoint hit(s), 5 miss(es)"),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(stdout(&sim), stdout(&cold));
    assert_eq!(read(&js), read(&jc));

    // Misuse is a usage error, not a crash.
    let no_at = smrseek(&["snapshot", csv.to_str().unwrap(), ckpt.to_str().unwrap()]);
    assert_eq!(no_at.status.code(), Some(2), "snapshot without --at");
    let too_deep = smrseek(&[
        "snapshot",
        csv.to_str().unwrap(),
        ckpt.to_str().unwrap(),
        "--at",
        "99999999",
    ]);
    assert_eq!(too_deep.status.code(), Some(2), "--at beyond the trace");

    for p in [js, jr, jc] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&csv).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn threads_flag_rejects_zero() {
    let out = smrseek(&["fig2", "--threads", "0"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn extension_commands_run() {
    for command in ["timeamp", "hostcache", "clean"] {
        let out = smrseek(&[command, "--ops", "1000"]);
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout(&out).contains("Extension"));
    }
}

#[test]
fn stderr_is_quiet_by_default_and_env_restores_chatter() {
    // Successful runs print nothing to stderr at the default (warn)
    // threshold; SMRSEEK_LOG=debug restores the progress lines.
    let quiet = smrseek_env(&["fig3", "--ops", "500"], &[("SMRSEEK_LOG", "warn")]);
    assert!(quiet.status.success());
    assert_eq!(
        String::from_utf8_lossy(&quiet.stderr),
        "",
        "no chatter at the default level"
    );
    let chatty = smrseek_env(&["fig3", "--ops", "500"], &[("SMRSEEK_LOG", "debug")]);
    assert!(chatty.status.success());
    assert!(
        String::from_utf8_lossy(&chatty.stderr).contains("fig3: done in"),
        "{}",
        String::from_utf8_lossy(&chatty.stderr)
    );
    assert_eq!(
        stdout(&quiet),
        stdout(&chatty),
        "logging never touches stdout"
    );
}

#[test]
fn log_json_emits_structured_lines() {
    let out = smrseek(&["fig3", "--ops", "500", "-v", "--log-json"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let mut saw_done = false;
    for line in err.lines() {
        let value: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("stderr line is not JSON ({e}): {line}"));
        assert!(value.get("ts_us").is_some(), "{line}");
        assert!(value.get("level").is_some(), "{line}");
        let msg = value
            .get("msg")
            .and_then(serde_json::Value::as_str)
            .expect("msg field");
        saw_done |= msg.contains("fig3: done in");
    }
    assert!(saw_done, "timing line present as JSON: {err}");
}

#[test]
fn profile_writes_valid_chrome_trace_with_nested_phases() {
    let csv = tmp("profile.csv");
    let json = tmp("profile.json");
    let out = smrseek(&[
        "gen",
        "hm_1",
        "--ops",
        "800",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = smrseek(&[
        "profile",
        csv.to_str().unwrap(),
        "--out",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("span(s)"), "{text}");
    for phase in ["ingest", "lookup", "seek", "checkpoint"] {
        assert!(text.contains(phase), "phase table lists {phase}: {text}");
    }
    let data = std::fs::read_to_string(&json).expect("trace written");
    let value: serde_json::Value = serde_json::from_str(&data).expect("valid Chrome trace JSON");
    let events = value
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    // One complete event per sweep cell, each with phase children that
    // nest inside the parent (same tid, time-contained).
    let span = |e: &serde_json::Value| -> (String, f64, f64, i64) {
        (
            e.get("name")
                .and_then(serde_json::Value::as_str)
                .expect("name")
                .to_owned(),
            e.get("ts").and_then(serde_json::Value::as_f64).expect("ts"),
            e.get("dur")
                .and_then(serde_json::Value::as_f64)
                .expect("dur"),
            e.get("tid")
                .and_then(serde_json::Value::as_i64)
                .expect("tid"),
        )
    };
    let cells: Vec<_> = events
        .iter()
        .map(span)
        .filter(|(name, ..)| name.starts_with("cell:"))
        .collect();
    assert_eq!(cells.len(), 5, "one span per sweep cell: {data}");
    let phases: Vec<_> = events
        .iter()
        .map(span)
        .filter(|(name, ..)| name.starts_with("phase:"))
        .collect();
    assert!(
        phases
            .iter()
            .any(|(name, _, dur, _)| name == "phase:lookup" && *dur > 0.0),
        "non-zero lookup phase: {data}"
    );
    for phase in ["phase:ingest", "phase:seek", "phase:checkpoint"] {
        assert!(
            phases.iter().any(|(name, ..)| name == phase),
            "{phase} present: {data}"
        );
    }
    for (name, ts, dur, tid) in &phases {
        let eps = 1e-6;
        assert!(
            cells.iter().any(|(_, cts, cdur, ctid)| {
                ctid == tid && *ts + eps >= *cts && ts + dur <= cts + cdur + eps
            }),
            "{name} nests inside a cell span"
        );
    }
    // `ph:"X"` complete events throughout.
    for e in events {
        assert_eq!(
            e.get("ph").and_then(serde_json::Value::as_str),
            Some("X"),
            "{e:?}"
        );
    }
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn profile_without_trace_is_a_usage_error() {
    let out = smrseek(&["profile"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("profile needs a trace file"));
}

#[test]
fn bench_emits_throughput_json() {
    let json = tmp("bench.json");
    let out = smrseek(&["bench", "--ops", "50000", "--json", json.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("ingest") && text.contains("serial"));
    assert!(
        !text.contains("shard"),
        "bench reports serial replay only: {text}"
    );
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("json written"))
            .expect("bench JSON parses");
    let text = serde_json::to_string(&parsed).expect("re-serializes");
    assert!(text.contains("\"records\":50000"));
    let configs = parsed
        .get("configs")
        .and_then(serde_json::Value::as_array)
        .expect("configs array");
    assert_eq!(configs.len(), 4, "NoLS, LS, LS+fixed, LS+adaptive");
    for config in configs {
        let rate = config
            .get("serial")
            .and_then(|s| s.get("records_per_s"))
            .and_then(serde_json::Value::as_f64);
        assert!(rate.is_some_and(|r| r > 0.0), "{config:?}");
        assert!(
            config.get("sharded").is_none(),
            "no sharded rows: {config:?}"
        );
    }
    std::fs::remove_file(&json).ok();
}
