//! JSON request parsing and cache-key derivation for the `/v1` API.
//!
//! A job submission names a trace — by file path or as a synthetic
//! Table-I profile — and optionally a single [`SimConfig`]; with no
//! config the job runs the standard five-layer sweep and its result is
//! the exact document `smrseek simulate --json` writes offline.
//!
//! ```json
//! {"trace": {"path": "/traces/web_2.csv"}}
//! {"trace": {"profile": "hm_1", "ops": 20000, "seed": 7},
//!  "config": {"layer": "ls_cache", "record_distances": true}}
//! ```
//!
//! Parsing is strict: unknown config knobs are rejected rather than
//! ignored, because a silently-dropped knob would make two *different*
//! requests share a cache key — precisely the staleness the
//! content-addressed cache exists to prevent.

use serde::Value;
use smrseek_policy::PolicyConfig;
use smrseek_sim::SimConfig;
use smrseek_workloads::profiles::MAX_OPS;
use std::path::PathBuf;

/// Where a job's records come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRef {
    /// An on-disk trace (any supported format; loaded through the shared
    /// registry and identified by content digest).
    Path(PathBuf),
    /// A synthetic Table-I workload, identified by its generator inputs.
    Profile {
        /// Profile name (`smrseek list`).
        name: String,
        /// Generator seed.
        seed: u64,
        /// Operation count.
        ops: usize,
    },
}

/// One parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The trace to replay.
    pub trace: TraceRef,
    /// A single configuration, or `None` for the standard sweep.
    pub config: Option<SimConfig>,
}

/// Parses a `POST /v1/jobs` body.
///
/// # Errors
///
/// Returns a client-facing message (served as HTTP 400) for malformed
/// JSON, a missing/ambiguous trace reference, or an invalid config.
pub fn parse_job_request(body: &[u8]) -> Result<JobRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let trace = value
        .get("trace")
        .ok_or_else(|| "missing field `trace`".to_owned())?;
    let trace = parse_trace_ref(trace)?;
    let config = match value.get("config") {
        None => None,
        Some(Value::Null) => None,
        Some(config) => Some(parse_config(config)?),
    };
    Ok(JobRequest { trace, config })
}

fn parse_trace_ref(v: &Value) -> Result<TraceRef, String> {
    match (v.get("path"), v.get("profile")) {
        (Some(path), None) => {
            let path = path
                .as_str()
                .ok_or_else(|| "`trace.path` must be a string".to_owned())?;
            Ok(TraceRef::Path(PathBuf::from(path)))
        }
        (None, Some(profile)) => {
            let name = profile
                .as_str()
                .ok_or_else(|| "`trace.profile` must be a string".to_owned())?;
            let seed = match v.get("seed") {
                None => 42, // ExpOptions::default() — matches the CLI
                Some(s) => s
                    .as_u64()
                    .ok_or_else(|| "`trace.seed` must be an unsigned integer".to_owned())?,
            };
            let ops = match v.get("ops") {
                None => return Err("`trace.ops` is required for profile traces".to_owned()),
                Some(o) => o
                    .as_u64()
                    .ok_or_else(|| "`trace.ops` must be an unsigned integer".to_owned())?,
            };
            if ops > MAX_OPS as u64 {
                return Err(format!("`trace.ops` must be at most {MAX_OPS}"));
            }
            let ops = ops as usize;
            Ok(TraceRef::Profile {
                name: name.to_owned(),
                seed,
                ops,
            })
        }
        (Some(_), Some(_)) => Err("`trace` must name either `path` or `profile`, not both".into()),
        (None, None) => Err("`trace` must contain `path` or `profile`".into()),
    }
}

/// Parses a `config` object into a [`SimConfig`].
///
/// The `layer` field selects a constructor (`nols`, `ls`, `ls_defrag`,
/// `ls_prefetch`, `ls_cache`, `ls_adaptive`, all at paper defaults); every
/// other knob is optional and maps 1:1 onto a [`SimConfig`] field.
pub fn parse_config(v: &Value) -> Result<SimConfig, String> {
    let entries = v
        .as_object()
        .ok_or_else(|| "`config` must be an object".to_owned())?;
    let layer = v.get("layer").and_then(Value::as_str).ok_or_else(|| {
        "`config.layer` must be one of nols|ls|ls_defrag|ls_prefetch|ls_cache|ls_adaptive"
            .to_owned()
    })?;
    let mut config = match layer {
        "nols" => SimConfig::no_ls(),
        "ls" => SimConfig::log_structured(),
        "ls_defrag" => SimConfig::ls_defrag(),
        "ls_prefetch" => SimConfig::ls_prefetch(),
        "ls_cache" => SimConfig::ls_cache(),
        "ls_adaptive" => SimConfig::ls_adaptive(),
        other => return Err(format!("unknown layer {other:?}")),
    };
    // The knobs edit the preset, and `SimConfig::validate` then rejects
    // zero-byte caches, a policy with nothing to gate or out of range, and
    // a flash tier without its front cache, before any worker sees them.
    for (key, value) in entries {
        let uint = || {
            value
                .as_u64()
                .ok_or_else(|| format!("`{key}` must be an unsigned integer"))
        };
        let flag = || {
            value
                .as_bool()
                .ok_or_else(|| format!("`{key}` must be a bool"))
        };
        // `false` and a zero bucket width keep the preset's value: off.
        match key.as_str() {
            "layer" => {}
            "record_distances" => config.record_distances |= flag()?,
            "track_fragments" => config.track_fragments |= flag()?,
            "longseek_bucket_ops" => match uint()? {
                0 => {}
                bucket_ops => config.longseek_bucket_ops = bucket_ops,
            },
            "flash_cache_bytes" => config.flash_cache_bytes = Some(uint()?),
            "policy" => config.policy = Some(parse_policy(value)?),
            other => return Err(format!("unknown config field {other:?}")),
        }
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Parses a `config.policy` object into a [`PolicyConfig`]. Starts from
/// the paper-default configuration; every field is optional and unknown
/// fields are rejected (same staleness argument as [`parse_config`]).
fn parse_policy(v: &Value) -> Result<PolicyConfig, String> {
    let entries = v
        .as_object()
        .ok_or_else(|| "`config.policy` must be an object".to_owned())?;
    let mut policy = PolicyConfig::default();
    for (key, value) in entries {
        let int = |name: &str| {
            value
                .as_i64()
                .and_then(|i| i32::try_from(i).ok())
                .ok_or_else(|| format!("`policy.{name}` must be an integer"))
        };
        match key.as_str() {
            "region_sectors" => {
                policy.region_sectors = value.as_u64().ok_or_else(|| {
                    "`policy.region_sectors` must be an unsigned integer".to_owned()
                })?;
            }
            "ewma_shift" => {
                policy.ewma_shift = value
                    .as_u64()
                    .and_then(|u| u32::try_from(u).ok())
                    .ok_or_else(|| "`policy.ewma_shift` must be an unsigned integer".to_owned())?;
            }
            "frag_weight" => policy.frag_weight = int("frag_weight")?,
            "write_weight" => policy.write_weight = int("write_weight")?,
            "hot_enter" => policy.hot_enter = int("hot_enter")?,
            "hot_exit" => policy.hot_exit = int("hot_exit")?,
            "score_clamp" => policy.score_clamp = int("score_clamp")?,
            other => return Err(format!("unknown policy field {other:?}")),
        }
    }
    Ok(policy)
}

/// The content identity of a trace reference: file traces use their
/// record digest (format- and path-independent); synthetic traces use
/// their generator inputs, which fully determine the records.
pub fn trace_key(trace: &TraceRef, digest: Option<smrseek_trace::TraceDigest>) -> String {
    match (trace, digest) {
        (TraceRef::Path(_), Some(digest)) => format!("trace:{digest}"),
        (TraceRef::Path(path), None) => format!("path:{}", path.display()),
        (TraceRef::Profile { name, seed, ops }, _) => {
            format!("profile:{name}:s{seed}:o{ops}")
        }
    }
}

/// The result-cache key of a job: trace identity plus either the fixed
/// sweep marker or the canonicalized single config (see
/// [`SimConfig::cache_key`]).
pub fn result_key(trace_key: &str, top: Option<u64>, config: Option<&SimConfig>) -> String {
    match config {
        None => format!("{trace_key}|sweep"),
        Some(config) => format!("{trace_key}|{}", config.cache_key(top)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_sim::LayerChoice;

    #[test]
    fn parses_path_sweep_request() {
        let req = parse_job_request(br#"{"trace": {"path": "/tmp/t.csv"}}"#).expect("parses");
        assert_eq!(req.trace, TraceRef::Path(PathBuf::from("/tmp/t.csv")));
        assert!(req.config.is_none());
    }

    #[test]
    fn parses_profile_single_config_request() {
        let req = parse_job_request(
            br#"{"trace": {"profile": "hm_1", "ops": 500, "seed": 7},
                 "config": {"layer": "ls_cache", "record_distances": true,
                            "flash_cache_bytes": 1048576}}"#,
        )
        .expect("parses");
        assert_eq!(
            req.trace,
            TraceRef::Profile {
                name: "hm_1".into(),
                seed: 7,
                ops: 500
            }
        );
        let config = req.config.expect("has config");
        assert!(config.record_distances);
        assert_eq!(config.flash_cache_bytes, Some(1048576));
        assert!(matches!(
            config.layer,
            LayerChoice::Ls { cache: Some(_), .. }
        ));
    }

    #[test]
    fn profile_seed_defaults_to_cli_default() {
        let req =
            parse_job_request(br#"{"trace": {"profile": "w91", "ops": 10}}"#).expect("parses");
        assert_eq!(
            req.trace,
            TraceRef::Profile {
                name: "w91".into(),
                seed: 42,
                ops: 10
            }
        );
    }

    #[test]
    fn parses_adaptive_config_request() {
        let req = parse_job_request(
            br#"{"trace": {"profile": "hm_1", "ops": 500},
                 "config": {"layer": "ls_adaptive",
                            "policy": {"region_sectors": 512, "hot_enter": 6},
                            "flash_cache_bytes": 1048576}}"#,
        )
        .expect("parses");
        let config = req.config.expect("has config");
        let policy = config.policy.expect("has policy");
        assert_eq!(policy.region_sectors, 512);
        assert_eq!(policy.hot_enter, 6);
        assert_eq!(
            policy.ewma_shift,
            PolicyConfig::default().ewma_shift,
            "unset knobs keep paper defaults"
        );
        assert_eq!(config.flash_cache_bytes, Some(1048576));
        // The adaptive knobs change the cache key: the same trace under a
        // different policy must never share a cached result.
        let base = result_key("t", Some(100), Some(&SimConfig::ls_adaptive()));
        assert_ne!(base, result_key("t", Some(100), Some(&config)));
        assert_ne!(
            base,
            result_key("t", Some(100), Some(&SimConfig::ls_cache()))
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        // The JSON parser stops at upstream serde_json's nesting limit
        // (127 levels parse, the 128th fails) instead of recursing once
        // per byte; 10,000 `[` once overflowed the parsing thread's stack.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let (deep, deeper, deepest) = (nested(127), nested(128), "[".repeat(10_000));
        let profile_ops = |ops| format!(r#"{{"trace": {{"profile": "usr_1", "ops": {ops}}}}}"#);
        assert!(parse_job_request(profile_ops(MAX_OPS).as_bytes()).is_ok());
        let over_cap = profile_ops(MAX_OPS + 1);
        for (body, needle) in [
            (deep.as_bytes(), "missing field `trace`"),
            (deeper.as_bytes(), "recursion limit"),
            (deepest.as_bytes(), "recursion limit"),
            (over_cap.as_bytes(), "`trace.ops` must be at most 50000000"),
            (
                br#"{"trace": {"profile": "w91", "ops": 10000000000}}"#,
                "`trace.ops` must be at most",
            ),
            (&b"not json"[..], "not valid JSON"),
            (br#"{}"#, "missing field `trace`"),
            (br#"{"trace": {}}"#, "`path` or `profile`"),
            (
                br#"{"trace": {"path": "a", "profile": "b", "ops": 1}}"#,
                "not both",
            ),
            (
                br#"{"trace": {"profile": "w91"}}"#,
                "`trace.ops` is required",
            ),
            (
                br#"{"trace": {"path": "a"}, "config": {"layer": "warp"}}"#,
                "unknown layer",
            ),
            (
                br#"{"trace": {"path": "a"}, "config": {"layer": "ls", "typo_knob": 1}}"#,
                "unknown config field",
            ),
            (
                br#"{"trace": {"path": "a"}, "config": {"layer": "ls", "zone_sectors": 8}}"#,
                "unknown config field \"zone_sectors\"",
            ),
            (
                br#"{"trace": {"path": "a"}, "config": {"layer": "ls", "frontier_hint": 0}}"#,
                "unknown config field \"frontier_hint\"",
            ),
            (
                br#"{"trace": {"path": "a"}, "config": {"layer": "ls", "host_cache_bytes": 0}}"#,
                "unknown config field \"host_cache_bytes\"",
            ),
            (
                br#"{"trace": {"path": "a"},
                     "config": {"layer": "ls_cache", "flash_cache_bytes": 0}}"#,
                "flash tier",
            ),
            (
                br#"{"trace": {"path": "a"},
                     "config": {"layer": "ls_adaptive", "policy": {"warp": 1}}}"#,
                "unknown policy field",
            ),
            (
                br#"{"trace": {"path": "a"},
                     "config": {"layer": "nols", "policy": {}}}"#,
                "NoLS",
            ),
            (
                br#"{"trace": {"path": "a"},
                     "config": {"layer": "ls", "policy": {}}}"#,
                "mechanism",
            ),
            (
                br#"{"trace": {"path": "a"},
                     "config": {"layer": "ls_defrag", "flash_cache_bytes": 1024}}"#,
                "selective cache",
            ),
        ] {
            let err = parse_job_request(body).expect_err("must reject");
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        // Every out-of-range policy field is named in the message.
        for policy in [
            r#"{"region_sectors": 0}"#,
            r#"{"ewma_shift": 32}"#,
            r#"{"score_clamp": -1}"#,
            r#"{"frag_weight": 2147483647, "score_clamp": 2147483647}"#,
            r#"{"write_weight": -2147483648, "score_clamp": 0}"#,
        ] {
            let body = format!(
                r#"{{"trace": {{"path": "a"}}, "config": {{"layer": "ls_adaptive", "policy": {policy}}}}}"#
            );
            let err = parse_job_request(body.as_bytes()).expect_err("must reject");
            let field = policy.split('"').nth(1).unwrap_or_default();
            assert!(
                err.starts_with(&format!("invalid policy: `{field}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn keys_separate_traces_and_configs() {
        let sweep_a = result_key("trace:abc", Some(100), None);
        let sweep_b = result_key("trace:def", Some(100), None);
        assert_ne!(sweep_a, sweep_b);
        let single = result_key("trace:abc", Some(100), Some(&SimConfig::ls_cache()));
        assert_ne!(sweep_a, single);
        // Derived-vs-explicit frontier hints canonicalize together.
        let explicit = SimConfig::log_structured().with_frontier_hint(100);
        assert_eq!(
            result_key("t", Some(100), Some(&SimConfig::log_structured())),
            result_key("t", None, Some(&explicit)),
        );
    }

    #[test]
    fn profile_key_is_generator_addressed() {
        let profile = TraceRef::Profile {
            name: "hm_1".into(),
            seed: 7,
            ops: 500,
        };
        assert_eq!(trace_key(&profile, None), "profile:hm_1:s7:o500");
        let other = TraceRef::Profile {
            name: "hm_1".into(),
            seed: 8,
            ops: 500,
        };
        assert_ne!(trace_key(&profile, None), trace_key(&other, None));
    }
}
