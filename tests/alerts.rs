//! Acceptance suite for the alerting engine (PR 9): declarative rules
//! evaluated at sampler cadence over the retention ring must fire and
//! resolve through the hysteresis state machine, publish their state
//! through `GET /alerts` (deterministically — identical engine state
//! renders identical bytes), notify a webhook with NDJSON transitions
//! without ever blocking the sampler or the request path, honor
//! silences, and surface `tpn_alerts_*` families in `/metrics`. Also
//! covers this PR's satellites: the `/metrics/history` `series=`
//! filter, the `/debug/{requests,slow}` `n` cap, and the `tpn alerts`
//! subcommand.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use timed_petri::obs::validate::validate;
use timed_petri::service::{AlertsConfig, Json, ServiceConfig};

mod common;
use common::{fig1_text, http, start_server, start_server_with};

/// A config whose retention ring (and so the alert evaluator) is
/// driven manually via `Service::sample_now` — deterministic tick
/// timelines for the tests below.
fn manual_sampling() -> ServiceConfig {
    ServiceConfig {
        sample_interval_ms: 0,
        ..ServiceConfig::default()
    }
}

/// An alerting policy with one always-fireable rule: the windowed
/// analyze p50 over a 1s window against a sub-nanosecond threshold.
/// Any analyze traffic inside the window fires it on the next tick
/// (`for_s` 0); a tick whose window holds no traffic resolves it
/// (`resolve_s` 0 — the quantile of an empty window is NaN, which
/// satisfies no comparison).
fn trip_wire(webhook: Option<(u16, u32)>) -> AlertsConfig {
    let hook = match webhook {
        Some((port, retries)) => format!(
            r#""webhook": {{"url": "http://127.0.0.1:{port}/hook", "retries": {retries}}},"#
        ),
        None => String::new(),
    };
    AlertsConfig::from_json(&format!(
        r#"{{"defaults": false, {hook}
            "rules": [{{"name": "analyze_slow", "signal": "quantile",
                        "series": "analyze", "q": 0.5, "threshold_ms": 0.000001,
                        "window_s": 1, "severity": "page"}}]}}"#
    ))
    .expect("trip-wire config parses")
}

/// A loopback webhook sink: accepts each POST, records its NDJSON
/// body, and answers 200. Returns the port and the received lines.
fn webhook_sink() -> (u16, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let port = listener.local_addr().expect("sink addr").port();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            // Read the head, then exactly Content-Length body bytes
            // (the notifier holds its end open awaiting our status).
            let body = loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break None,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
                let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                    continue;
                };
                let head = String::from_utf8_lossy(&buf[..head_end]).to_lowercase();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                if buf.len() >= head_end + 4 + len {
                    break Some(
                        String::from_utf8_lossy(&buf[head_end + 4..head_end + 4 + len])
                            .into_owned(),
                    );
                }
            };
            if let Some(body) = body {
                for line in body.lines().filter(|l| !l.is_empty()) {
                    sink.lock().expect("sink lock").push(line.to_string());
                }
            }
            let _ = stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
        }
    });
    (port, lines)
}

/// Poll until `pred` holds or the deadline passes.
fn eventually(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Acceptance: a rule fires after its condition holds, resolves once
/// the window goes quiet, the `/alerts` document tracks every phase
/// with its transition history, and the webhook receives one NDJSON
/// line per transition (counted as sent in `/metrics`).
#[test]
fn alert_fires_resolves_and_notifies_webhook() {
    let (port, received) = webhook_sink();
    let mut config = manual_sampling();
    config.alerts = trip_wire(Some((port, 3)));
    let (handle, addr, service) = start_server_with(config);

    service.sample_now(); // baseline: idle window, rule inactive
    let (s, body) = http(addr, "GET", "/alerts", "");
    assert_eq!(s, 200, "{body}");
    assert!(body.contains(r#""rules":["analyze_slow"]"#), "{body}");
    assert!(body.contains(r#""severity":["page"]"#), "{body}");
    assert!(body.contains(r#""state":["inactive"]"#), "{body}");
    assert!(
        body.contains(r#""value":[null]"#),
        "idle quantile is null: {body}"
    );
    assert!(body.contains(r#""history":[]"#), "{body}");

    // Identical engine state renders identical bytes: the document is
    // a pure function of the evaluator's frame clock, not the wall.
    let (_, again) = http(addr, "GET", "/alerts", "");
    assert_eq!(body, again, "alerts document must be deterministic");

    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(1_050));
    service.sample_now(); // window holds the analyze latency → firing
    let (s, body) = http(addr, "GET", "/alerts", "");
    assert_eq!(s, 200);
    assert!(body.contains(r#""firing":1"#), "{body}");
    assert!(body.contains(r#""state":["firing"]"#), "{body}");
    assert!(body.contains(r#""event":"firing""#), "{body}");

    // The next tick's window starts after the traffic: quantile of an
    // empty delta is NaN, no comparison holds, the rule resolves.
    std::thread::sleep(Duration::from_millis(1_100));
    service.sample_now();
    let (s, body) = http(addr, "GET", "/alerts", "");
    assert_eq!(s, 200);
    assert!(body.contains(r#""firing":0"#), "{body}");
    assert!(body.contains(r#""state":["inactive"]"#), "{body}");
    assert!(body.contains(r#""event":"resolved""#), "{body}");

    // Both transitions arrive at the webhook as NDJSON objects.
    eventually("webhook transitions", || {
        let lines = received.lock().expect("sink lock");
        lines.iter().any(|l| l.contains(r#""event":"firing""#))
            && lines.iter().any(|l| l.contains(r#""event":"resolved""#))
    });
    let lines = received.lock().expect("sink lock").clone();
    let firing = lines
        .iter()
        .find(|l| l.contains(r#""event":"firing""#))
        .expect("firing line");
    let doc = Json::parse(firing).expect("notification line parses");
    assert_eq!(doc.get("rule").and_then(Json::as_str), Some("analyze_slow"));
    assert_eq!(doc.get("severity").and_then(Json::as_str), Some("page"));
    assert!(
        doc.get("ts_ms").is_some() && doc.get("threshold").is_some(),
        "{firing}"
    );

    eventually("sent counter", || {
        let (_, text) = http(addr, "GET", "/metrics", "");
        text.lines().any(|l| {
            l.starts_with(r#"tpn_alert_notifications_total{result="sent"}"#) && !l.ends_with(" 0")
        })
    });
    handle.shutdown();
}

/// A dead webhook endpoint (connection refused) must cost nothing but
/// a failure counter: the sampler tick and the serving path stay fast
/// because notification I/O lives entirely on the notifier thread.
#[test]
fn dead_webhook_never_blocks_sampling_or_serving() {
    // Bind-then-drop: a loopback port with nothing listening.
    let port = TcpListener::bind("127.0.0.1:0")
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port();
    let mut config = manual_sampling();
    config.alerts = trip_wire(Some((port, 0)));
    let (handle, addr, service) = start_server_with(config);

    service.sample_now();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(1_050));

    let tick = Instant::now();
    service.sample_now(); // fires → enqueues toward the dead endpoint
    assert!(
        tick.elapsed() < Duration::from_millis(500),
        "sampler tick blocked on webhook I/O: {:?}",
        tick.elapsed()
    );
    let serve = Instant::now();
    for _ in 0..5 {
        let (s, _) = http(addr, "GET", "/healthz", "");
        assert_eq!(s, 200);
    }
    assert!(
        serve.elapsed() < Duration::from_secs(2),
        "request path degraded by webhook failures: {:?}",
        serve.elapsed()
    );
    eventually("failed counter", || {
        let (_, text) = http(addr, "GET", "/metrics", "");
        text.lines().any(|l| {
            l.starts_with(r#"tpn_alert_notifications_total{result="failed"}"#) && !l.ends_with(" 0")
        })
    });
    handle.shutdown(); // dropping the notifier joins its worker promptly
}

/// Silences: validation of the `POST /alerts/silence` contract, the
/// `silenced` column of `/alerts`, and suppression — a silenced rule
/// still records transitions in the history but notifies nothing.
#[test]
fn silences_suppress_notifications_but_keep_history() {
    let (port, received) = webhook_sink();
    let mut config = manual_sampling();
    config.alerts = trip_wire(Some((port, 3)));
    let (handle, addr, service) = start_server_with(config);
    service.sample_now();

    for (bad, why) in [
        ("not json", "malformed body"),
        (r#"{"rule": "nope", "ttl_s": 60}"#, "unknown rule"),
        (r#"{"rule": "analyze_slow", "ttl_s": 0}"#, "zero TTL"),
        (
            r#"{"rule": "analyze_slow", "ttl_s": 90000}"#,
            "TTL over a day",
        ),
        (r#"{"ttl_s": 60}"#, "missing rule"),
    ] {
        let (s, body) = http(addr, "POST", "/alerts/silence", bad);
        assert_eq!(s, 400, "{why} should be rejected: {body}");
        assert!(body.contains("\"error\""), "{body}");
    }

    let (s, body) = http(
        addr,
        "POST",
        "/alerts/silence",
        r#"{"rule": "analyze_slow", "ttl_s": 600, "comment": "maintenance"}"#,
    );
    assert_eq!(s, 200, "{body}");
    assert!(body.contains(r#""id":1"#), "{body}");
    assert!(body.contains(r#""rule":"analyze_slow""#), "{body}");

    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(1_050));
    service.sample_now(); // fires — but silenced

    let (s, body) = http(addr, "GET", "/alerts", "");
    assert_eq!(s, 200);
    assert!(body.contains(r#""state":["firing"]"#), "{body}");
    assert!(body.contains(r#""silenced":[true]"#), "{body}");
    assert!(
        body.contains(r#""event":"firing""#),
        "history still records: {body}"
    );
    assert!(body.contains(r#""comment":"maintenance""#), "{body}");

    // Nothing reaches the webhook, and nothing was even queued.
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        received.lock().expect("sink lock").is_empty(),
        "silenced transition was notified"
    );
    let (_, text) = http(addr, "GET", "/metrics", "");
    for family in ["sent", "dropped", "failed"] {
        let line = format!(r#"tpn_alert_notifications_total{{result="{family}"}} 0"#);
        assert!(text.contains(&line), "missing {line} in\n{text}");
    }
    handle.shutdown();
}

/// Golden exposition contract for the alert families: the `/metrics`
/// document stays validator-clean with `tpn_alerts_firing`,
/// `tpn_alerts_pending` and all three `tpn_alert_notifications_total`
/// results rendered in a fixed order regardless of activity.
#[test]
fn metrics_carries_alert_families_in_canonical_order() {
    let (handle, addr, service) = start_server_with(manual_sampling());
    service.sample_now();
    let (_, text) = http(addr, "GET", "/metrics", "");
    validate(&text).unwrap_or_else(|e| panic!("{e}\n--- document ---\n{text}"));
    let expected = [
        "# TYPE tpn_alerts_firing gauge",
        "tpn_alerts_firing 0",
        "# TYPE tpn_alerts_pending gauge",
        "tpn_alerts_pending 0",
        "# TYPE tpn_alert_notifications_total counter",
        r#"tpn_alert_notifications_total{result="sent"} 0"#,
        r#"tpn_alert_notifications_total{result="dropped"} 0"#,
        r#"tpn_alert_notifications_total{result="failed"} 0"#,
    ];
    let mut at = 0;
    for needle in expected {
        let found = text[at..]
            .find(needle)
            .unwrap_or_else(|| panic!("{needle} missing or out of order in\n{text}"));
        at += found + needle.len();
    }
    handle.shutdown();
}

/// The default policy derives one burn-rate rule per SLO objective, so
/// a plain server already serves a populated rule table.
#[test]
fn default_rules_cover_every_slo_objective() {
    let (handle, addr) = start_server();
    let (s, body) = http(addr, "GET", "/alerts", "");
    assert_eq!(s, 200);
    let doc = Json::parse(&body).expect("alerts document parses");
    let rules = doc.get("rules").and_then(|r| r.as_arr()).expect("rules");
    assert!(rules.len() >= 9, "{body}");
    let names: Vec<&str> = rules.iter().filter_map(Json::as_str).collect();
    assert!(names.contains(&"slo_burn:analyze"), "{names:?}");
    assert!(names.contains(&"slo_burn:v1"), "{names:?}");
    // Columnar arrays stay parallel to the rule list.
    for column in [
        "severity",
        "state",
        "since_ms",
        "value",
        "threshold",
        "silenced",
    ] {
        let col = doc.get(column).and_then(|c| c.as_arr()).expect(column);
        assert_eq!(col.len(), rules.len(), "{column} not parallel in {body}");
    }
    handle.shutdown();
}

/// Satellite: `/metrics/history` accepts a `series=` name filter that
/// prunes every unselected leaf column, and rejects unknown names with
/// the known set in the message.
#[test]
fn history_series_filter_selects_columns() {
    let (handle, addr, service) = start_server_with(manual_sampling());
    service.sample_now();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(1_050));
    service.sample_now();

    let (s, body) = http(
        addr,
        "GET",
        "/metrics/history?window=300&step=1&series=req_s,p99_ns",
        "",
    );
    assert_eq!(s, 200, "{body}");
    let doc = Json::parse(&body).expect("filtered history parses");
    assert!(
        doc.get("service").and_then(|s| s.get("req_s")).is_some(),
        "{body}"
    );
    assert!(
        doc.get("service")
            .and_then(|s| s.get("cache_hit_ratio"))
            .is_none(),
        "cache_hit_ratio not filtered out: {body}"
    );
    assert!(
        doc.get("process")
            .and_then(|p| p.get("rss_bytes"))
            .is_none(),
        "rss_bytes not filtered out: {body}"
    );
    let analyze = doc
        .get("endpoints")
        .and_then(|e| e.get("analyze"))
        .expect("analyze");
    assert!(analyze.get("p99_ns").is_some(), "{body}");
    assert!(analyze.get("p50_ns").is_none(), "{body}");
    // Unfiltered documents keep every column.
    let (_, full) = http(addr, "GET", "/metrics/history?window=300&step=1", "");
    let full = Json::parse(&full).expect("full history parses");
    assert!(full
        .get("service")
        .and_then(|s| s.get("cache_hit_ratio"))
        .is_some());

    let (s, body) = http(addr, "GET", "/metrics/history?series=req_s,nope", "");
    assert_eq!(s, 400, "{body}");
    assert!(body.contains("nope"), "{body}");
    assert!(body.contains("req_s") && body.contains("p99_ns"), "{body}");
    handle.shutdown();
}

/// Satellite: `/debug/requests` and `/debug/slow` cap `n` at their
/// ring capacities instead of allocating for absurd requests.
#[test]
fn debug_rings_cap_requested_depth() {
    let (handle, addr) = start_server();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    for (target, cap) in [
        ("/debug/requests?n=18446744073709551615", 256),
        ("/debug/slow?n=18446744073709551615", 64),
    ] {
        let (s, body) = http(addr, "GET", target, "");
        assert_eq!(s, 200, "{target}: {body}");
        assert!(
            body.lines().count() <= cap,
            "{target} returned more than its ring holds"
        );
    }
    handle.shutdown();
}

/// `/alerts` is GET-only and `/alerts/silence` POST-only — both are
/// known paths, so the wrong method is 405, not 404.
#[test]
fn alerts_routes_reject_wrong_methods() {
    let (handle, addr) = start_server();
    let (s, body) = http(addr, "POST", "/alerts", "{}");
    assert_eq!(s, 405, "{body}");
    let (s, body) = http(addr, "GET", "/alerts/silence", "");
    assert_eq!(s, 405, "{body}");
    handle.shutdown();
}

/// `tpn alerts <addr>` renders one aligned frame of the rule table
/// from `/alerts` — and the `tpn top` banner appears once something
/// fires.
#[test]
fn tpn_alerts_cli_renders_rule_table() {
    let mut config = manual_sampling();
    config.alerts = trip_wire(None);
    let (handle, addr, service) = start_server_with(config);
    service.sample_now();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(1_050));
    service.sample_now(); // firing

    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["alerts", &addr.to_string()])
        .output()
        .expect("tpn alerts runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}\n{:?}", out);
    assert!(text.contains("tpn alerts —"), "{text}");
    assert!(text.contains("1 firing"), "{text}");
    assert!(text.contains("analyze_slow"), "{text}");
    assert!(text.contains("page"), "{text}");
    assert!(text.contains("firing"), "{text}");
    assert!(text.contains("recent transitions"), "{text}");
    assert!(!text.contains('\u{1b}'), "{text}");

    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args([
            "top",
            &addr.to_string(),
            "--ticks",
            "1",
            "--window",
            "60",
            "--interval",
            "1",
        ])
        .output()
        .expect("tpn top runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}\n{:?}", out);
    assert!(text.contains("ALERTS: 1 firing — analyze_slow"), "{text}");
    handle.shutdown();
}

/// `tpn serve --alerts <file>` loads the policy (bad files fail fast
/// with the offending path) and announces the new endpoints.
#[test]
fn serve_flag_loads_alerts_config() {
    let dir = std::env::temp_dir().join(format!("tpn-alerts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, r#"{"history": 0}"#).expect("write bad config");
    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["serve", "127.0.0.1:0", "--alerts", bad.to_str().unwrap()])
        .output()
        .expect("tpn serve runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad.json") && err.contains("history"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
