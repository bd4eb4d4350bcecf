//! A promtool-style lint for the daemon's Prometheus text exposition.
//!
//! `GET /metrics` output is consumed by scrapers that silently drop
//! malformed families, so the format is a compatibility surface worth
//! testing like one: every series must carry `# HELP`/`# TYPE` before its
//! first sample, label values must be well-formed (escaped quotes,
//! backslashes, no stray characters), and histogram buckets must be
//! cumulative and terminated by `le="+Inf"`. The lint runs against the
//! real exposition (both a bare `Metrics::render` and the in-process
//! `/metrics` route) and against hand-broken expositions to prove it
//! actually bites.

use smrseek_net::{Action, Request};
use smrseek_server::metrics::{Endpoint, Metrics};
use smrseek_server::{route, ServerState};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Parses a `{key="value",...}` label block, enforcing escape rules.
fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = block.chars().peekable();
    loop {
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?} in {block:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} value not quoted in {block:?}"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('\\' | '"' | 'n') => value.push(c),
                    other => {
                        return Err(format!("bad escape \\{other:?} in label {key:?}"));
                    }
                },
                c => value.push(c),
            }
        }
        if !closed {
            return Err(format!("unterminated value for label {key:?} in {block:?}"));
        }
        labels.push((key, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => {}
            Some(c) => return Err(format!("expected ',' between labels, got {c:?}")),
        }
    }
}

/// Lints one exposition; returns every violation found (empty = clean).
fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    // (histogram base, labels minus `le`) -> buckets in exposition order.
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), Some(_)) => {
                    helped.insert(name.to_owned());
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    typed.insert(name.to_owned(), kind.to_owned());
                }
                _ => errors.push(format!("malformed comment: {line}")),
            }
            continue;
        }
        // A sample: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => {
                errors.push(format!("sample has no value: {line}"));
                continue;
            }
        };
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            v => match v.parse() {
                Ok(v) => v,
                Err(_) => {
                    errors.push(format!("non-numeric value {value:?}: {line}"));
                    continue;
                }
            },
        };
        let (name, labels) = match series.split_once('{') {
            None => (series, Vec::new()),
            Some((name, rest)) => match rest.strip_suffix('}') {
                None => {
                    errors.push(format!("unclosed label block: {line}"));
                    continue;
                }
                Some(block) => match parse_labels(block) {
                    Ok(labels) => (name, labels),
                    Err(e) => {
                        errors.push(format!("{e}: {line}"));
                        continue;
                    }
                },
            },
        };
        // Histogram samples document their base family's HELP/TYPE.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let stripped = name.strip_suffix(suffix)?;
                (typed.get(stripped).map(String::as_str) == Some("histogram")).then_some(stripped)
            })
            .unwrap_or(name);
        if !helped.contains(base) {
            errors.push(format!("sample before # HELP {base}: {line}"));
        }
        if !typed.contains_key(base) {
            errors.push(format!("sample before # TYPE {base}: {line}"));
        }
        if name.ends_with("_bucket") && typed.get(base).map(String::as_str) == Some("histogram") {
            let le = labels.iter().find(|(k, _)| k == "le");
            match le {
                None => errors.push(format!("bucket without le label: {line}")),
                Some((_, le)) => {
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap_or(f64::NAN)
                    };
                    let others: Vec<String> = labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect();
                    buckets
                        .entry((base.to_owned(), others.join(",")))
                        .or_default()
                        .push((le, value));
                }
            }
        }
    }
    for ((base, labels), series) in &buckets {
        let who = format!("{base}{{{labels}}}");
        for pair in series.windows(2) {
            if pair[1].0 <= pair[0].0 {
                errors.push(format!("{who}: le bounds not increasing"));
            }
            if pair[1].1 < pair[0].1 {
                errors.push(format!("{who}: bucket counts not cumulative"));
            }
        }
        if series.last().map(|(le, _)| *le) != Some(f64::INFINITY) {
            errors.push(format!("{who}: buckets do not end with le=\"+Inf\""));
        }
    }
    errors
}

#[test]
fn real_exposition_is_lint_clean() {
    let m = Metrics::new();
    // Populate every family: request latencies across endpoints (the
    // histogram), cache counters, engine phases.
    for (i, endpoint) in Endpoint::ALL.iter().enumerate() {
        for us in [3, 900, 40_000] {
            m.observe(*endpoint, Duration::from_micros(us + i as u64));
        }
    }
    m.cache_hit();
    m.cache_miss();
    m.rejected();
    m.replayed(12345);
    let mut phases = smrseek_obs::PhaseTotals::default();
    phases.record(smrseek_obs::Phase::Lookup, Duration::from_millis(7));
    phases.record(smrseek_obs::Phase::Seek, Duration::from_nanos(3));
    m.engine_phases(&phases);
    let text = m.render(&smrseek_server::jobs::JobSnapshot::default(), 2);
    let errors = lint(&text);
    assert!(errors.is_empty(), "lint violations: {errors:#?}\n{text}");
}

#[test]
fn metrics_route_is_lint_clean() {
    let state = ServerState::new(4, 0);
    // Exercise the route machinery a few times so endpoint histograms
    // have data, then lint what a scraper would actually receive.
    for _ in 0..3 {
        state
            .metrics
            .observe(Endpoint::Metrics, Duration::from_micros(250));
    }
    let request = Request {
        method: "GET".to_owned(),
        target: "/metrics".to_owned(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let Action::Respond(response) = route(&state, None, &request, "rq-lint").1 else {
        panic!("/metrics streamed");
    };
    assert_eq!(response.status, 200);
    let text = String::from_utf8(response.body().to_vec()).expect("utf8 exposition");
    let errors = lint(&text);
    assert!(errors.is_empty(), "lint violations: {errors:#?}\n{text}");
}

#[test]
fn lint_catches_missing_help_and_type() {
    let errors = lint("m_total 1\n");
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].contains("# HELP"), "{errors:?}");
    assert!(errors[1].contains("# TYPE"), "{errors:?}");
    // HELP alone is not enough.
    let errors = lint("# HELP m_total x\nm_total 1\n");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("# TYPE"), "{errors:?}");
    // Comments after the sample do not count.
    let errors = lint("m_total 1\n# HELP m_total x\n# TYPE m_total counter\n");
    assert_eq!(errors.len(), 2, "order matters: {errors:?}");
}

#[test]
fn lint_catches_broken_histograms() {
    let head = "# HELP h x\n# TYPE h histogram\n";
    // Counts that go down are not cumulative.
    let errors = lint(&format!(
        "{head}h_bucket{{le=\"1\"}} 5\nh_bucket{{le=\"2\"}} 3\nh_bucket{{le=\"+Inf\"}} 5\n"
    ));
    assert!(
        errors.iter().any(|e| e.contains("not cumulative")),
        "{errors:?}"
    );
    // A histogram that never closes with +Inf.
    let errors = lint(&format!(
        "{head}h_bucket{{le=\"1\"}} 5\nh_bucket{{le=\"2\"}} 7\n"
    ));
    assert!(errors.iter().any(|e| e.contains("+Inf")), "{errors:?}");
    // Unordered le bounds.
    let errors = lint(&format!(
        "{head}h_bucket{{le=\"2\"}} 3\nh_bucket{{le=\"1\"}} 5\nh_bucket{{le=\"+Inf\"}} 5\n"
    ));
    assert!(
        errors.iter().any(|e| e.contains("not increasing")),
        "{errors:?}"
    );
    // Distinct label sets are tracked independently: both must close.
    let errors = lint(&format!(
        "{head}h_bucket{{e=\"a\",le=\"1\"}} 1\nh_bucket{{e=\"a\",le=\"+Inf\"}} 2\n\
         h_bucket{{e=\"b\",le=\"1\"}} 1\n"
    ));
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("e=b"), "{errors:?}");
}

#[test]
fn lint_catches_malformed_labels() {
    let head = "# HELP m x\n# TYPE m gauge\n";
    for bad in [
        "m{l=\"a} 1",      // unterminated value (quote swallowed by `}`)
        "m{l=a\"} 1",      // unquoted value
        "m{l=\"a\\x\"} 1", // invalid escape
        "m{l=\"a\" b} 1",  // junk between labels
        "m{le=\"1\"",      // unclosed block
    ] {
        let errors = lint(&format!("{head}{bad}\n"));
        assert!(!errors.is_empty(), "lint accepted {bad:?}");
    }
    // Properly escaped values pass.
    let errors = lint(&format!("{head}m{{l=\"quote \\\" backslash \\\\\"}} 1\n"));
    assert!(errors.is_empty(), "{errors:?}");
}
