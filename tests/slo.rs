//! Acceptance suite for the retention/SLO layer (PR 8): the
//! `/metrics/history` document must reconstruct request rates and
//! windowed quantiles from the retention ring to match client-side
//! measurement; the graded `/healthz` must transition
//! `ok → degraded → ok` (and ride 503 when unhealthy) as injected
//! latency burns an objective's budget, with the offending trace
//! captured in `/debug/slow`; `GET /slo` publishes the policy; and
//! the `tpn top` / `tpn stats --watch` dashboards render it all.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::process::Command;
use std::time::{Duration, Instant};

use timed_petri::obs::{Objective, BUCKET_BOUNDS_NS};
use timed_petri::service::{Endpoint, Json, ServiceConfig, SloConfig};

mod common;
use common::{fig1_text, http, start_server, start_server_with};

/// A config whose retention ring is driven manually (no sampler
/// thread): deterministic frame timelines for the tests below.
fn manual_sampling() -> ServiceConfig {
    ServiceConfig {
        sample_interval_ms: 0,
        ..ServiceConfig::default()
    }
}

/// The histogram bucket a latency falls in — quantiles interpolate
/// inside one bucket, so "within one bucket" is the resolution at
/// which server-side and client-side measurements can be compared.
fn bucket_index(ns: u64) -> usize {
    BUCKET_BOUNDS_NS.partition_point(|&bound| bound < ns)
}

/// A numeric column of the history document as `f64`s (nulls → None).
fn column(doc: &Json, endpoint: &str, key: &str) -> Vec<Option<f64>> {
    doc.get("endpoints")
        .and_then(|e| e.get(endpoint))
        .and_then(|e| e.get(key))
        .and_then(|c| c.as_arr())
        .unwrap_or_else(|| panic!("endpoints.{endpoint}.{key} missing"))
        .iter()
        .map(|v| v.as_num().and_then(|n| n.parse().ok()))
        .collect()
}

/// Acceptance: rates and quantiles served by `/metrics/history` are
/// reconstructed from ring deltas, and they match what the client
/// measured — exactly for request counts (`req_s × dt_s` sums back to
/// the number of requests sent), within one histogram bucket for the
/// windowed p99.
#[test]
fn history_reconstructs_rates_and_windowed_p99() {
    let (handle, addr, service) = start_server_with(manual_sampling());
    let net = fig1_text();
    service.sample_now(); // baseline frame

    for _ in 0..20 {
        let (s, _) = http(addr, "POST", "/analyze", &net);
        assert_eq!(s, 200);
    }
    // /simulate runs long enough (one cold million-event run) that
    // loopback overhead cannot move the client-side p99 more than a
    // neighbouring bucket from the server-side histogram.
    let mut client_ns: Vec<u64> = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let (s, _) = http(addr, "POST", "/simulate", &net);
        assert_eq!(s, 200);
        client_ns.push(started.elapsed().as_nanos() as u64);
    }
    // The decimator keeps frames at least one step apart — space the
    // second frame a full second from the baseline.
    std::thread::sleep(Duration::from_millis(1_050));
    service.sample_now(); // frame holding all the traffic

    let (s, body) = http(addr, "GET", "/metrics/history?window=300&step=1", "");
    assert_eq!(s, 200, "{body}");
    let doc = Json::parse(&body).expect("history parses");
    let dt_s: Vec<f64> = doc
        .get("dt_s")
        .and_then(|d| d.as_arr())
        .expect("dt_s")
        .iter()
        .map(|v| v.as_num().unwrap().parse().unwrap())
        .collect();
    assert!(!dt_s.is_empty(), "{body}");

    // req/s × interval length reconstructs the exact request counts.
    for (endpoint, sent) in [("analyze", 20.0), ("simulate", 5.0)] {
        let total: f64 = column(&doc, endpoint, "req_s")
            .iter()
            .zip(&dt_s)
            .map(|(r, dt)| r.unwrap_or(0.0) * dt)
            .sum();
        assert!(
            (total - sent).abs() < 0.01,
            "{endpoint}: reconstructed {total}, sent {sent}\n{body}"
        );
    }

    // Windowed p99 vs the client's own p99 (max of 5 samples): the
    // same request dominates both, so they land within one bucket.
    let server_p99 = column(&doc, "simulate", "p99_ns")
        .iter()
        .rev()
        .flatten()
        .next()
        .copied()
        .unwrap_or_else(|| panic!("no simulate p99 in {body}"));
    client_ns.sort_unstable();
    let client_p99 = *client_ns.last().unwrap();
    let (sb, cb) = (bucket_index(server_p99 as u64), bucket_index(client_p99));
    assert!(
        cb >= sb && cb - sb <= 1,
        "server p99 {server_p99}ns (bucket {sb}) vs client p99 {client_p99}ns (bucket {cb})"
    );
    handle.shutdown();
}

/// Acceptance: injecting latency past an endpoint's objective turns
/// `/healthz` from `ok` to `degraded` (burn thresholds configured so
/// it cannot reach `unhealthy`), the offending trace lands in
/// `/debug/slow` with its threshold and digest, and once the burn
/// windows move past the bad period health returns to `ok` — with the
/// byte-stable pre-SLO body.
#[test]
fn healthz_degrades_and_recovers_with_injected_latency() {
    let mut config = manual_sampling();
    config.slo = SloConfig {
        fast_window_s: 1,
        slow_window_s: 1,
        degraded_burn: 0.5,
        unhealthy_burn: 1e12,
        ..SloConfig::default()
    };
    // A 1ns latency objective: every /analyze is over budget.
    config.slo.overrides.push((
        Endpoint::Analyze,
        Some(Objective {
            latency_ns: 1,
            latency_target: 0.99,
            error_target: 0.01,
        }),
    ));
    let (handle, addr, service) = start_server_with(config);
    service.sample_now();

    let (s, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((s, body.as_str()), (200, r#"{"status":"ok"}"#));

    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    let (s, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(s, 200, "degraded is not an outage: {body}");
    assert!(body.contains(r#""status":"degraded""#), "{body}");
    assert!(body.contains(r#""endpoint":"analyze""#), "{body}");
    assert!(body.contains(r#""dimension":"latency""#), "{body}");
    assert!(body.contains(r#""fast_burn":"#), "{body}");

    // The watchdog captured the offending request with its threshold
    // and the net digest it was annotated with.
    let (s, slow) = http(addr, "GET", "/debug/slow", "");
    assert_eq!(s, 200);
    assert!(slow.contains(r#""endpoint":"analyze""#), "{slow}");
    assert!(slow.contains(r#""threshold_ns":1"#), "{slow}");
    assert!(slow.contains(r#""digest":""#), "{slow}");
    assert!(slow.contains(r#""spans":"#), "{slow}");

    // A post-incident frame plus one window length of quiet: both
    // burn windows now start after the slow request, health recovers.
    service.sample_now();
    std::thread::sleep(Duration::from_millis(1_100));
    let (s, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((s, body.as_str()), (200, r#"{"status":"ok"}"#));
    handle.shutdown();
}

/// With the default burn thresholds a total budget blowout (every
/// request over the objective) breaches both windows at once:
/// `unhealthy`, riding HTTP 503 so load balancers can act unparsed.
#[test]
fn healthz_unhealthy_rides_503() {
    let mut config = manual_sampling();
    config.slo.overrides.push((
        Endpoint::Analyze,
        Some(Objective {
            latency_ns: 1,
            latency_target: 0.99,
            error_target: 0.01,
        }),
    ));
    let (handle, addr, service) = start_server_with(config);
    service.sample_now();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    let (s, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(s, 503, "{body}");
    assert!(body.contains(r#""status":"unhealthy""#), "{body}");
    handle.shutdown();
}

/// `GET /slo` publishes the policy and per-endpoint objectives with
/// their current windowed burns.
#[test]
fn slo_document_lists_policy_and_objectives() {
    let (handle, addr) = start_server();
    let (s, body) = http(addr, "GET", "/slo", "");
    assert_eq!(s, 200);
    for expected in [
        r#""status":"ok""#,
        r#""fast_window_s":300"#,
        r#""slow_window_s":3600"#,
        r#""degraded_burn":6"#,
        r#""unhealthy_burn":14.4"#,
        r#""endpoint":"analyze""#,
        r#""latency_ms":250"#,
        r#""latency_target":0.99"#,
        r#""error_target":0.01"#,
        r#""latency_burn":"#,
        r#""error_burn":"#,
    ] {
        assert!(body.contains(expected), "missing {expected} in {body}");
    }
    // Every objective carries both windows.
    assert!(body.contains(r#""fast":{"requests":"#), "{body}");
    assert!(body.contains(r#""slow":{"requests":"#), "{body}");
    handle.shutdown();
}

/// `/metrics/history` document shape over a live server, plus the
/// parameter validation contract: window in 1..=86400, step in
/// 1..=window, at most 2000 intervals, numeric values only.
#[test]
fn history_document_shape_and_param_validation() {
    let (handle, addr, service) = start_server_with(manual_sampling());
    service.sample_now();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    service.sample_now();

    let (s, body) = http(addr, "GET", "/metrics/history", "");
    assert_eq!(s, 200, "{body}");
    let doc = Json::parse(&body).expect("history parses");
    for key in [
        "now_ms",
        "window_s",
        "step_s",
        "samples",
        "t_ms",
        "dt_s",
        "service",
        "process",
        "endpoints",
    ] {
        assert!(doc.get(key).is_some(), "missing {key} in {body}");
    }
    // Defaults: 5-minute window at 5s steps.
    assert!(body.contains(r#""window_s":300"#), "{body}");
    assert!(body.contains(r#""step_s":5"#), "{body}");
    let service_cols = doc.get("service").unwrap();
    assert!(service_cols.get("req_s").is_some(), "{body}");
    assert!(service_cols.get("cache_hit_ratio").is_some(), "{body}");
    let process = doc.get("process").unwrap();
    for key in ["rss_bytes", "open_fds", "threads"] {
        assert!(process.get(key).is_some(), "missing process.{key}");
    }

    for bad in [
        "/metrics/history?window=0",
        "/metrics/history?window=90000",
        "/metrics/history?window=10&step=20",
        "/metrics/history?window=10&step=0",
        "/metrics/history?window=86400&step=1",
        "/metrics/history?window=abc",
        "/metrics/history?step=xyz",
    ] {
        let (s, body) = http(addr, "GET", bad, "");
        assert_eq!(s, 400, "{bad} should be rejected: {body}");
    }
    handle.shutdown();
}

/// `tpn top --ticks 1` renders one dashboard frame: headline
/// sparklines plus an aligned per-endpoint table fed by
/// `/metrics/history` and `/slo`.
#[test]
fn tpn_top_renders_one_dashboard_frame() {
    let (handle, addr, service) = start_server_with(manual_sampling());
    service.sample_now();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(1_050));
    service.sample_now();

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
    assert!(text.contains("tpn top —"), "{text}");
    assert!(text.contains("status ok"), "{text}");
    assert!(text.contains("req/s"), "{text}");
    assert!(text.contains("cache hit"), "{text}");
    assert!(text.contains("rss"), "{text}");
    // The endpoint table names the analyze traffic with its quantiles
    // and burn columns.
    assert!(text.contains("endpoint"), "{text}");
    assert!(text.contains("analyze"), "{text}");
    assert!(text.contains("p99"), "{text}");
    assert!(text.contains("fast"), "{text}");
    // Piped output carries no ANSI clear codes.
    assert!(!text.contains('\u{1b}'), "{text}");
    handle.shutdown();
}

/// `tpn stats --watch N --ticks K` shares the redraw loop: K frames
/// of the aligned counter table on one process run.
#[test]
fn tpn_stats_watch_redraws_frames() {
    let (handle, addr) = start_server();
    let (s, _) = http(addr, "POST", "/analyze", &fig1_text());
    assert_eq!(s, 200);

    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["stats", &addr.to_string(), "--watch", "1", "--ticks", "2"])
        .output()
        .expect("tpn stats --watch runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}\n{:?}", out);
    // Two frames → the per-frame keys render exactly twice.
    assert_eq!(text.matches("process.version").count(), 2, "{text}");
    assert_eq!(text.matches("process.uptime_seconds").count(), 2, "{text}");
    assert!(!text.contains('\u{1b}'), "{text}");
    handle.shutdown();
}
