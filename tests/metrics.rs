//! Observability integration suite: the `/metrics` exposition, the
//! `/debug/requests` trace ring, the `/v1` `"trace"` flag, sampled
//! request logging, the `tpn stats` subcommand — and the golden-capture
//! guarantee that instrumenting the pipeline changed **no pre-existing
//! byte**: `tests/fixtures/golden/stats.json` was captured from the
//! pre-instrumentation daemon, and the same request sequence must
//! reproduce it exactly.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;

use timed_petri::obs::validate::validate;
use timed_petri::service::{LogConfig, RequestKind, Service, ServiceConfig};

mod common;
use common::{fig1_text, fixture_dir, http, start_server};

fn golden(name: &str) -> String {
    let path = format!("{}/golden/{name}", fixture_dir());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The spec JSON plus a `"net"` member, assembled without re-encoding
/// the spec — exactly how the golden `/stats` fixture was captured.
fn with_net(spec: &str, net: &str) -> String {
    let trimmed = spec.trim_end();
    let without_brace = trimmed
        .strip_suffix('}')
        .expect("spec is a JSON object")
        .trim_end();
    format!(
        "{without_brace}, \"net\": {}}}",
        timed_petri::service::json::escape(net)
    )
}

/// Like `common::http`, but returning the raw head too (for
/// Content-Type assertions).
fn http_raw(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("status line in {response:?}"));
    let (head, payload) = response.split_once("\r\n\r\n").expect("head/body split");
    (status, head.to_string(), payload.to_string())
}

/// Replay the capture sequence the golden `/stats` fixture was made
/// with: two analyzes (miss + hit), a graph, a sweep, an optimize, and
/// a two-perturbation what-if (one 200 entry, and one 422 entry whose
/// perturbed net fails to analyse).
fn replay_capture_sequence(addr: SocketAddr) {
    let net = fig1_text();
    let (s, _) = http(addr, "POST", "/analyze", &net);
    assert_eq!(s, 200);
    let (s, _) = http(addr, "POST", "/analyze", &net);
    assert_eq!(s, 200);
    let (s, _) = http(addr, "POST", "/graph", &net);
    assert_eq!(s, 200);
    let (s, body) = http(
        addr,
        "POST",
        "/sweep",
        &with_net(&golden("sweep_spec.json"), &net),
    );
    assert_eq!(s, 200, "{body}");
    let (s, body) = http(
        addr,
        "POST",
        "/optimize",
        &with_net(&golden("optimize_spec.json"), &net),
    );
    assert_eq!(s, 200, "{body}");
    let whatif = format!(
        "{{\"requests\":[\"analyze\"],\"perturbations\":[{{\"E(t3)\":\"500\"}},{{\"E(t3)\":\"100\"}}],\"net\":{}}}",
        timed_petri::service::json::escape(&net)
    );
    let (s, body) = http(addr, "POST", "/whatif", &whatif);
    assert_eq!(s, 200, "{body}");
    assert!(body.contains("\"status\":200"), "{body}");
    assert!(body.contains("\"status\":422"), "{body}");
    assert!(body.contains("\"code\":\"analysis\""), "{body}");
}

/// The tentpole's byte-compatibility contract: the `/stats` document
/// after the capture sequence is byte-identical to the one the
/// pre-instrumentation daemon produced for the same sequence.
#[test]
fn stats_document_matches_pre_instrumentation_bytes() {
    let (handle, addr) = start_server();
    replay_capture_sequence(addr);
    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    // PR 8 appends a `"process"` object as the document's LAST member;
    // every byte before it must still match the golden capture.
    let full = golden("stats.json");
    let prefix = full.strip_suffix('}').expect("golden is a JSON object");
    assert!(
        stats.starts_with(prefix),
        "/stats drifted from the pre-instrumentation bytes\n--- live ---\n{stats}\n--- golden prefix ---\n{prefix}"
    );
    let tail = &stats[prefix.len()..];
    assert!(
        tail.starts_with(",\"process\":{\"version\":"),
        "unexpected /stats tail: {tail}"
    );
    for key in [
        "\"start_time_ms\":",
        "\"uptime_seconds\":",
        "\"rss_bytes\":",
        "\"open_fds\":",
        "\"os_threads\":",
    ] {
        assert!(tail.contains(key), "missing {key} in {tail}");
    }
    assert!(tail.ends_with("}}"), "tail must close both objects: {tail}");
    handle.shutdown();
}

/// The family skeleton of a `/metrics` document: every `# HELP` and
/// `# TYPE` line in order, plus every unlabelled integer sample. The
/// process clock gauges change between scrapes, and the open-connection
/// gauge and connection-lifetime histogram race the listener's close
/// accounting of the previous exchange, so their samples are left out.
fn metrics_families(text: &str) -> String {
    const VOLATILE: [&str; 4] = [
        "tpn_process_uptime_seconds ",
        "tpn_process_start_time_seconds ",
        "tpn_connections_open ",
        "tpn_connection_lifetime_seconds_",
    ];
    let mut out = String::new();
    for line in text.lines() {
        let keep = if line.starts_with('#') {
            line.starts_with("# HELP ") || line.starts_with("# TYPE ")
        } else {
            let (series, value) = line.rsplit_once(' ').unwrap_or((line, ""));
            !series.contains('{')
                && !value.is_empty()
                && value.bytes().all(|b| b.is_ascii_digit())
                && !VOLATILE.iter().any(|v| line.starts_with(v))
        };
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The retention ring's counter and gauge column names, one per line —
/// the names alert rules' `counter_rate(...)`/`gauge(...)` resolve.
fn ring_columns(service: &Service) -> String {
    let schema = service.series().schema();
    let mut out = String::new();
    for name in &schema.counters {
        out.push_str(&format!("counter {name}\n"));
    }
    for name in &schema.gauges {
        out.push_str(&format!("gauge {name}\n"));
    }
    out
}

/// `/metrics` family order, HELP/TYPE text and every scalar counter and
/// gauge after the capture sequence, plus the ring's column names —
/// all byte-identical to the goldens captured before the counter
/// registry replaced the hand-written lists.
#[test]
fn metrics_families_and_ring_columns_match_golden() {
    let (handle, addr, service) = common::start_server_with(ServiceConfig::default());
    replay_capture_sequence(addr);
    let (status, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let live = metrics_families(&text);
    assert_eq!(
        live,
        golden("metrics_families.txt"),
        "/metrics families drifted\n--- document ---\n{text}"
    );
    assert_eq!(ring_columns(&service), golden("ring_columns.txt"));
    handle.shutdown();
}

#[test]
fn metrics_document_validates_and_covers_every_stats_counter() {
    let (handle, addr) = start_server();
    replay_capture_sequence(addr);
    let (status, head, text) = http_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    validate(&text).unwrap_or_else(|e| panic!("{e}\n--- document ---\n{text}"));

    // Request counters carry endpoint and status labels.
    assert!(
        text.contains("tpn_requests_total{endpoint=\"analyze\",status=\"200\"} 2\n"),
        "{text}"
    );
    assert!(
        text.contains("tpn_requests_total{endpoint=\"whatif\",status=\"200\"} 1\n"),
        "{text}"
    );
    // Every /stats scalar has a tpn_* family (the golden capture fixes
    // their values, so assert exact samples).
    for expected in [
        "tpn_service_requests_total 6\n",
        "tpn_cache_hits_total 1\n",
        "tpn_cache_misses_total 8\n",
        "tpn_cache_computations_total 8\n",
        "tpn_sweeps_total 1\n",
        "tpn_sweep_compiles_total 1\n",
        "tpn_sweep_points_total 12\n",
        "tpn_optimizes_total 1\n",
        "tpn_optimize_certified_total 1\n",
        "tpn_whatifs_total 1\n",
        "tpn_whatif_perturbations_total 2\n",
        "tpn_whatif_rejects_total 1\n",
        "tpn_v1_envelopes_total 0\n",
        "tpn_session_hits_total 4\n",
        "tpn_session_misses_total 3\n",
        "tpn_sessions 3\n",
        "tpn_threads 4\n",
        "tpn_queue_cap 64\n",
        // fig1, then one TRG per what-if perturbation.
        "tpn_artifact_demands_total{stage=\"trg\",event=\"build\"} 3\n",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }

    // Latency histograms: the analyze endpoint saw 2 requests, and its
    // _count equals its +Inf bucket (the validator checks this too —
    // here we pin the actual count so p99 is derivable from buckets).
    assert!(
        text.contains("tpn_request_duration_seconds_count{endpoint=\"analyze\"} 2\n"),
        "{text}"
    );
    assert!(
        text.contains("tpn_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 2\n"),
        "{text}"
    );
    // Stage build histograms render for all six stages, with one
    // build sample per pipeline execution.
    assert!(
        text.contains("tpn_stage_build_seconds_count{stage=\"trg\"} 3\n"),
        "{text}"
    );
    // What-if perturbations run ordinary sessions: every stage label is
    // one of the six pipeline stages.
    let stages: Vec<&str> = timed_petri::session::STAGES
        .iter()
        .map(|s| s.name())
        .collect();
    for line in text.lines().filter(|l| l.contains("{stage=\"")) {
        let label = line
            .split("{stage=\"")
            .nth(1)
            .and_then(|r| r.split('"').next());
        assert!(
            label.is_some_and(|l| stages.contains(&l)),
            "unknown stage in {line}"
        );
    }
    handle.shutdown();
}

#[test]
fn debug_requests_returns_recent_traces_with_pipeline_spans() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    let (s, _) = http(addr, "POST", "/analyze", &net);
    assert_eq!(s, 200);
    let (s, _) = http(addr, "POST", "/analyze", &net);
    assert_eq!(s, 200);
    let (status, head, body) = http_raw(addr, "GET", "/debug/requests?n=2", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: application/x-ndjson"),
        "{head}"
    );
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "{body}");
    for line in &lines {
        // Each line is one JSON document with the stable fields.
        let doc = timed_petri::service::Json::parse(line).expect("NDJSON line parses");
        assert_eq!(
            doc.get("endpoint").and_then(|j| j.as_str()),
            Some("analyze")
        );
        assert_eq!(
            doc.get("status").and_then(|j| j.as_num()),
            Some("200"),
            "{line}"
        );
        assert!(doc.get("spans").is_some(), "{line}");
    }
    // Most recent first: the second (cache-hit) request leads. Hits
    // carry the synthesized root and the parse span but *no* cache
    // span — a cache span means the cache had to work.
    assert!(lines[0].contains("\"name\":\"analyze\""), "{}", lines[0]);
    assert!(lines[0].contains("\"name\":\"parse\""), "{}", lines[0]);
    assert!(!lines[0].contains("\"name\":\"cache\""), "{}", lines[0]);
    let cold = lines[1];
    for span in [
        "analyze", "parse", "session", "cache", "render", "trg", "rates",
    ] {
        assert!(cold.contains(&format!("\"name\":\"{span}\"")), "{cold}");
    }
    // The ring also serves fewer than asked when less happened.
    let (status, body) = http(addr, "GET", "/debug/requests?n=1000", "");
    assert_eq!(status, 200);
    assert!(body.lines().count() >= 3, "{body}");
    handle.shutdown();
}

#[test]
fn v1_trace_flag_appends_spans_without_disturbing_untraced_bytes() {
    let service = Service::new(ServiceConfig::default());
    let net = fig1_text();
    let plain = format!(
        "{{\"net\":{},\"requests\":[{{\"kind\":\"analyze\"}}]}}",
        timed_petri::service::json::escape(&net)
    );
    let traced = format!(
        "{{\"net\":{},\"trace\":true,\"requests\":[{{\"kind\":\"analyze\"}}]}}",
        timed_petri::service::json::escape(&net)
    );
    let (s1, untraced_body) = service.respond_v1(&plain);
    assert_eq!(s1, 200);
    assert!(!untraced_body.contains("\"trace\""), "{untraced_body}");
    let (s2, traced_body) = service.respond_v1(&traced);
    assert_eq!(s2, 200);
    // The traced document is the untraced one plus a trailing "trace"
    // member — the flag may not perturb a single earlier byte.
    let prefix = &untraced_body[..untraced_body.len() - 1];
    assert!(traced_body.starts_with(prefix), "{traced_body}");
    assert!(traced_body.contains(",\"trace\":[{"), "{traced_body}");
    // The closed pipeline spans are there; the plain request already
    // warmed the cache, so the traced run is a hit and records no
    // cache span (spans mark work, not lookups).
    assert!(traced_body.contains("\"name\":\"parse\""), "{traced_body}");
    assert!(!traced_body.contains("\"name\":\"cache\""), "{traced_body}");
    assert!(traced_body.contains("\"depth\":"), "{traced_body}");

    // trace:false is accepted and byte-identical to the flag's absence.
    let off = format!(
        "{{\"net\":{},\"trace\":false,\"requests\":[{{\"kind\":\"analyze\"}}]}}",
        timed_petri::service::json::escape(&net)
    );
    let (s3, off_body) = service.respond_v1(&off);
    assert_eq!(s3, 200);
    assert_eq!(*off_body, *untraced_body);
}

#[test]
fn request_log_writes_sampled_ndjson_lines() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tpn-test-log-{}.ndjson", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();
    let _ = std::fs::remove_file(&path);

    // Sample 1: every request logged.
    let config = ServiceConfig {
        log: Some(LogConfig {
            path: Some(path_str.clone()),
            sample: 1,
        }),
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    let net = fig1_text();
    let (s, _) = service.respond(RequestKind::Analyze, &net);
    assert_eq!(s, 200);
    let (s, _) = service.respond(RequestKind::Graph, &net);
    assert_eq!(s, 200);
    let logged = std::fs::read_to_string(&path).expect("log file written");
    let lines: Vec<&str> = logged.lines().collect();
    assert_eq!(lines.len(), 2, "{logged}");
    for (line, endpoint) in lines.iter().zip(["analyze", "graph"]) {
        let doc = timed_petri::service::Json::parse(line).expect("log line parses");
        assert_eq!(doc.get("endpoint").and_then(|j| j.as_str()), Some(endpoint));
        assert_eq!(doc.get("status").and_then(|j| j.as_num()), Some("200"));
        assert!(doc.get("ts_ms").is_some(), "{line}");
        assert!(doc.get("duration_ns").is_some(), "{line}");
        assert!(doc.get("bytes").is_some(), "{line}");
    }

    // Sample 3: only every third request reaches the file.
    let _ = std::fs::remove_file(&path);
    let config = ServiceConfig {
        log: Some(LogConfig {
            path: Some(path_str),
            sample: 3,
        }),
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    for _ in 0..6 {
        let (s, _) = service.respond(RequestKind::Analyze, &net);
        assert_eq!(s, 200);
    }
    let logged = std::fs::read_to_string(&path).expect("log file written");
    assert_eq!(logged.lines().count(), 2, "{logged}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disabled_metrics_records_nothing_but_keeps_serving() {
    let config = ServiceConfig {
        metrics: false,
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    let net = fig1_text();
    let (s, _) = service.respond(RequestKind::Analyze, &net);
    assert_eq!(s, 200);
    assert!(!service.metrics().enabled());
    assert_eq!(
        service
            .metrics()
            .requests_total(timed_petri::service::Endpoint::Analyze, 200),
        0
    );
    assert!(service.debug_requests_text(16).is_empty());
    // The exposition stays well-formed (stage and /stats families still
    // render; request families are merely empty).
    let text = service.metrics_text();
    validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(text.contains("tpn_service_requests_total 1\n"), "{text}");
    assert!(!text.contains("tpn_requests_total{"), "{text}");
}

#[test]
fn stats_cli_fetches_both_views_from_a_running_daemon() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    let (s, _) = http(addr, "POST", "/analyze", &net);
    assert_eq!(s, 200);

    let table = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["stats", &addr.to_string()])
        .output()
        .expect("run tpn stats");
    assert!(
        table.status.success(),
        "{}",
        String::from_utf8_lossy(&table.stderr)
    );
    let out = String::from_utf8(table.stdout).expect("utf-8 table");
    for row in [
        "requests",
        "computations",
        "sessions.entries",
        "artifacts.trg.artifact_builds",
        "threads",
    ] {
        assert!(out.lines().any(|l| l.starts_with(row)), "{row} in:\n{out}");
    }

    let raw = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["stats", &format!("http://{addr}"), "--metrics"])
        .output()
        .expect("run tpn stats --metrics");
    assert!(
        raw.status.success(),
        "{}",
        String::from_utf8_lossy(&raw.stderr)
    );
    let text = String::from_utf8(raw.stdout).expect("utf-8 exposition");
    validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(
        text.contains("tpn_requests_total{endpoint=\"analyze\",status=\"200\"} 1\n"),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn legacy_routes_keep_their_content_type_and_new_routes_declare_theirs() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    let (status, head, _) = http_raw(addr, "POST", "/analyze", &net);
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"), "{head}");
    let (status, head, _) = http_raw(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"), "{head}");
    // Method misuse of the new routes is a JSON 405, like the old ones.
    let (status, head, body) = http_raw(addr, "POST", "/metrics", "");
    assert_eq!(status, 405, "{body}");
    assert!(head.contains("Content-Type: application/json"), "{head}");
    let (status, _, body) = http_raw(addr, "GET", "/debug/requests?n=bogus", "");
    assert_eq!(status, 400, "{body}");
    handle.shutdown();
}
