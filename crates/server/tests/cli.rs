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
fn gen_out_file_matches_stdout() {
    let path = tmp("hm_1.csv");
    let printed = smrseek(&["gen", "hm_1", "--ops", "2000"]);
    assert!(printed.status.success());
    let out = smrseek(&[
        "gen",
        "hm_1",
        "--ops",
        "2000",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read(&path).expect("gen wrote the file");
    std::fs::remove_file(&path).ok();
    assert_eq!(written, printed.stdout);
}

#[test]
fn gen_out_write_failure_is_an_io_error() {
    // Every write to /dev/full fails with ENOSPC.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = smrseek(&["gen", "hm_1", "--ops", "2000", "--out", "/dev/full"]);
    assert_eq!(out.status.code(), Some(74));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write /dev/full"));
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
    use smrseek_trace::binary::write_binary;
    use smrseek_trace::{Lba, TraceRecord};
    let records = vec![
        TraceRecord::write(0, Lba::new(0), 8),
        TraceRecord::read(10, Lba::new(64), 16),
    ];
    let mut v1 = Vec::new();
    write_binary(&mut v1, &records).expect("vec write cannot fail");
    // A v2 image as older writers laid it out: the v2 magic, the count,
    // one more word (one past the highest touched sector, here 80), then
    // the same records.
    let mut v2 = b"SMRT2\0".to_vec();
    v2.extend_from_slice(&v1[6..14]);
    v2.extend_from_slice(&80u64.to_le_bytes());
    v2.extend_from_slice(&v1[14..]);
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
    let records = std::fs::read_to_string(&csv)
        .expect("csv readable")
        .lines()
        .count()
        - 1; // the header line
    assert_eq!(
        stdout(&out),
        format!("wrote {records} records to {} (binary)\n", smrt.display())
    );
    let simulate = |trace: &PathBuf, json: &PathBuf| {
        let out = smrseek(&[
            "simulate",
            trace.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read(json).expect("json written");
        (out, json)
    };
    let (csv_json, smrt_json) = (tmp("convert.csv.json"), tmp("convert.smrt.json"));
    let (from_csv, csv_doc) = simulate(&csv, &csv_json);
    let (from_bin, smrt_doc) = simulate(&smrt, &smrt_json);
    // Same seek table (first stdout line differs only in the path shown)
    // and the same JSON document, byte for byte.
    let table = |out: &Output| stdout(out).lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(table(&from_csv), table(&from_bin));
    assert_eq!(csv_doc, smrt_doc);
    for path in [csv, smrt, csv_json, smrt_json] {
        std::fs::remove_file(&path).ok();
    }
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
fn non_utf8_line_is_a_parse_error_at_its_line() {
    let path = tmp("non_utf8.csv");
    let mut csv = b"128166372003061629,h,0,Read,0,512,0\n".to_vec();
    csv.extend_from_slice(b"\xff\n128166372003061630,h,0,Read,0,512,0\n");
    std::fs::write(&path, csv).expect("write temp");
    let out = smrseek(&["simulate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(65), "malformed data, not I/O");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2: line is not UTF-8"), "got: {err}");
    // The sniffer reports a non-UTF-8 first line the same way.
    std::fs::write(&path, b"\xff\n").expect("write temp");
    let out = smrseek(&["characterize", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(65));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1: line is not UTF-8"), "got: {err}");
    std::fs::remove_file(&path).ok();
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
    // There is no trace-cache flag: `convert` once, then replay the `.smrt`.
    let out = smrseek(&["simulate", "t.csv", "--cache"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("[--cache]"));
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
    for heading in ["Table I", "Fig 2a", "Fig 11b", "Adaptive policy"] {
        assert!(text.contains(heading), "missing {heading}");
    }
    // The per-run timing summary goes to stderr, never stdout.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("14 experiments"), "timing summary on stderr");
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
fn every_experiment_is_byte_identical_across_thread_counts() {
    for experiment in &smrseek_sim::experiments::ALL {
        let name = experiment.name;
        let run = |threads: &str| {
            let json = tmp(&format!("{name}_t{threads}.json"));
            let out = smrseek(&[
                name,
                "--ops",
                "600",
                "--threads",
                threads,
                "--json",
                json.to_str().unwrap(),
            ]);
            assert!(
                out.status.success(),
                "{name} --threads {threads}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let doc = std::fs::read(&json).expect("json written");
            std::fs::remove_file(&json).ok();
            (stdout(&out), doc)
        };
        let (text1, json1) = run("1");
        let (text2, json2) = run("2");
        assert!(
            !text1.is_empty() && !json1.is_empty(),
            "{name}: empty output"
        );
        assert_eq!(text1, text2, "{name}: stdout must not depend on --threads");
        assert!(json1 == json2, "{name}: JSON must not depend on --threads");
    }
}

#[test]
fn usage_names_every_experiment() {
    let out = smrseek(&[]);
    let err = String::from_utf8_lossy(&out.stderr);
    let first = err.lines().next().expect("usage line");
    let list = first
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(list, _)| list)
        .expect("usage lists the experiment commands");
    let names: Vec<&str> = list.split('|').collect();
    for experiment in &smrseek_sim::experiments::ALL {
        assert!(
            names.contains(&experiment.name),
            "usage is missing {}: {first}",
            experiment.name
        );
    }
}

#[test]
fn readme_command_list_names_every_command() {
    // Every command the usage text lists (`smrseek <a|b> …` lines; flags
    // like `--version` aside) and every experiment must appear in the
    // README's "full command set" paragraph.
    let out = smrseek(&[]);
    let err = String::from_utf8_lossy(&out.stderr);
    let mut commands: Vec<String> = Vec::new();
    for line in err.lines() {
        let Some((_, rest)) = line.split_once("smrseek ") else {
            continue;
        };
        let word = rest.split_whitespace().next().unwrap_or_default();
        let word = word.trim_start_matches('<').trim_end_matches('>');
        commands.extend(
            word.split('|')
                .filter(|c| !c.starts_with('-'))
                .map(str::to_owned),
        );
    }
    assert!(commands.iter().any(|c| c == "serve"), "{err}");
    commands.extend(
        smrseek_sim::experiments::ALL
            .iter()
            .map(|e| e.name.to_owned()),
    );
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README readable");
    let list = readme
        .split_once("The full command set:")
        .and_then(|(_, rest)| rest.split_once(" — "))
        .map(|(list, _)| list)
        .expect("README has the full command set");
    let listed: Vec<&str> = list.split('`').skip(1).step_by(2).collect();
    for command in &commands {
        assert!(
            listed.contains(&command.as_str()),
            "README's command set is missing `{command}`: {listed:?}"
        );
    }
}

#[test]
fn ops_over_the_profile_cap_is_a_usage_error() {
    // 10 billion records once reached the generator and aborted on a
    // 43 GB allocation; the cap stops it at argument parsing.
    for args in [
        &["gen", "w91", "--ops", "10000000000"][..],
        &["fig2", "--ops", "50000001"],
    ] {
        let out = smrseek(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--ops must be at most 50000000"),
            "{stderr}"
        );
    }
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
    let out = smrseek(&["ablate", "--ops", "1000"]);
    assert!(
        out.status.success(),
        "ablate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("Ablation"));
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
fn every_replaying_experiment_logs_its_matrix_summary() {
    // Each experiment that replays traces does so through one run matrix,
    // whose per-cell summary `-v` logs: one run per (trace, config) cell.
    for (name, runs) in [
        ("fig2", 42),
        ("fig3", 8),
        ("fig4", 8),
        ("fig5", 4),
        ("fig10", 8),
        ("fig11", 105),
        ("classify", 42),
        ("analyze", 42),
        ("ablate", 45),
        ("adaptive", 126),
    ] {
        let out = smrseek(&[name, "--ops", "500", "-v"]);
        assert!(out.status.success(), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{name}: {runs} runs,")),
            "{name}: {err}"
        );
    }
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
fn profile_timeline_adds_up_on_every_thread() {
    // On two threads the sweep's LS group splits LS+cache off, and the
    // worker of NoLS and LS+defrag serves its blocks between its own: that
    // time is a `serve` span after its group's cells, so per thread the
    // top-level spans never overlap and leave no gap.
    let csv = tmp("timeline.csv");
    let json = tmp("timeline.json");
    let gen = ["gen", "w91", "--ops", "30000", "--out"];
    let out = smrseek(&[&gen[..], &[csv.to_str().unwrap()]].concat());
    assert!(out.status.success());
    let out = smrseek(&[
        "profile",
        csv.to_str().unwrap(),
        "--threads",
        "2",
        "--out",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read_to_string(&json).expect("trace written");
    let value: serde_json::Value = serde_json::from_str(&data).expect("valid Chrome trace JSON");
    let events = value
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    // (ts, end) in µs of every top-level span, per tid.
    let mut by_tid: std::collections::BTreeMap<i64, Vec<(f64, f64)>> = Default::default();
    for e in events {
        let name = e
            .get("name")
            .and_then(serde_json::Value::as_str)
            .expect("name");
        if !(name.starts_with("cell:") || name == "serve") {
            continue;
        }
        let field = |k: &str| e.get(k).and_then(serde_json::Value::as_f64).expect(k);
        let tid = e
            .get("tid")
            .and_then(serde_json::Value::as_i64)
            .expect("tid");
        by_tid
            .entry(tid)
            .or_default()
            .push((field("ts"), field("ts") + field("dur")));
    }
    assert!(!by_tid.is_empty(), "{data}");
    for (tid, spans) in &mut by_tid {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 + 1.0 >= pair[0].1,
                "tid {tid}: {:?} overlaps {:?}: {data}",
                pair[0],
                pair[1]
            );
        }
        let first = spans[0].0;
        let last = spans.iter().map(|s| s.1).fold(first, f64::max);
        let covered: f64 = spans.iter().map(|s| s.1 - s.0).sum();
        assert!(
            covered >= 0.9 * (last - first),
            "tid {tid}: spans cover {covered} of {} µs: {data}",
            last - first
        );
    }
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&json).ok();
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
    for phase in ["lookup", "seek"] {
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
    assert!(
        phases.iter().any(|(name, ..)| name == "phase:seek"),
        "phase:seek present: {data}"
    );
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
    // Every phase names its cell explicitly: its parent_span_id is the
    // span_id of a cell event on the same tid.
    let arg = |e: &serde_json::Value, key: &str| -> Option<String> {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(serde_json::Value::as_str)
            .map(str::to_owned)
    };
    let name_of = |e: &serde_json::Value| span(e).0;
    let cell_ids: Vec<_> = events
        .iter()
        .filter(|e| name_of(e).starts_with("cell:"))
        .map(|e| (arg(e, "span_id"), span(e).3))
        .collect();
    for e in events.iter().filter(|e| name_of(e).starts_with("phase:")) {
        let parent = arg(e, "parent_span_id");
        assert!(parent.is_some(), "{e:?} has a parent link");
        assert!(
            cell_ids.contains(&(parent, span(e).3)),
            "{e:?} links to a cell on its tid"
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
