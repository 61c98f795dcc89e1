//! Route-table conformance. Every route answers its own method only: any
//! other method is a JSON 405 counted under the `other` endpoint, and a
//! path no route names is a JSON 404. Every request that reaches a
//! route is counted under that route's label. Each plain analysis kind
//! name resolves to one analysis on every surface that takes a kind
//! name: its HTTP path, a `/v1` entry's `kind`, a `/whatif` `requests`
//! list (which refuses `simulate`) and `tpn batch`.
//!
//! The expected table below is written out independently of the
//! service's own, so a change to either shows up here.

// The daemon serves on Linux only.
#![cfg(target_os = "linux")]

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Duration;

use common::{fig1_text, fixture_dir, http, json_counter, start_server};
use timed_petri::service::{self, json::escape};

/// Every route: method, path and `endpoint` label.
const ROUTES: [(&str, &str, &str); 18] = [
    ("POST", "/analyze", "analyze"),
    ("POST", "/graph", "graph"),
    ("POST", "/correctness", "correctness"),
    ("POST", "/invariants", "invariants"),
    ("POST", "/simulate", "simulate"),
    ("POST", "/sweep", "sweep"),
    ("POST", "/optimize", "optimize"),
    ("POST", "/whatif", "whatif"),
    ("POST", "/v1", "v1"),
    ("GET", "/healthz", "healthz"),
    ("GET", "/stats", "stats"),
    ("GET", "/metrics", "metrics"),
    ("GET", "/debug/requests", "debug_requests"),
    ("GET", "/metrics/history", "metrics_history"),
    ("GET", "/slo", "slo"),
    ("GET", "/debug/slow", "debug_slow"),
    ("GET", "/alerts", "alerts"),
    ("POST", "/alerts/silence", "alerts_silence"),
];

/// The plain analyses: a `.tpn` body, no spec.
const PLAIN: [&str; 5] = ["analyze", "graph", "correctness", "invariants", "simulate"];

/// Paths no route names, each answered 404 whatever the method. The
/// empty path comes from a request line with an empty target.
const UNKNOWN: [&str; 8] = [
    "",
    "/",
    "/nope",
    "/analyze/",
    "/Analyze",
    "/v2",
    "/metrics/history/x",
    "/other",
];

#[test]
fn the_service_declares_exactly_these_routes() {
    let declared: Vec<(&str, &str, &str)> = service::ROUTES
        .iter()
        .filter(|r| r.endpoint != service::Endpoint::Other)
        .map(|r| (r.method, r.path, r.label))
        .collect();
    assert_eq!(declared, ROUTES);
    let plain: Vec<&str> = service::ROUTES
        .iter()
        .filter(|r| r.kind.is_some())
        .map(|r| r.label)
        .collect();
    assert_eq!(plain, PLAIN);
}

/// One `Connection: close` exchange: status, `Content-Type` and body.
fn exchange(addr: SocketAddr, method: &str, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read to EOF");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head and body");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("status line in {raw:?}"));
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_else(|| panic!("Content-Type in {raw:?}"))
        .to_string();
    (status, content_type, body.to_string())
}

/// The `tpn_requests_total` sample for one endpoint and status, 0 when
/// the exposition has none.
fn requests_total(metrics: &str, endpoint: &str, status: &str) -> u64 {
    let prefix = format!("tpn_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |n| n.parse().expect("numeric sample"))
}

#[test]
fn wrong_methods_are_405_and_unknown_paths_404_counted_as_other() {
    let (handle, addr) = start_server();
    let mut refused = 0;
    for (method, path, label) in ROUTES {
        let other = if method == "POST" { "GET" } else { "POST" };
        for wrong in [other, "PUT", "DELETE"] {
            let (status, content_type, body) = exchange(addr, wrong, path);
            assert_eq!(status, 405, "{wrong} {path} ({label}): {body}");
            assert_eq!(content_type, "application/json", "{wrong} {path}");
            assert_eq!(
                body,
                format!(r#"{{"error":"method {wrong} not allowed"}}"#),
                "{wrong} {path}"
            );
            refused += 1;
        }
    }
    let mut unknown = 0;
    for path in UNKNOWN {
        for method in ["GET", "POST"] {
            let (status, content_type, body) = exchange(addr, method, path);
            assert_eq!(status, 404, "{method} {path:?}: {body}");
            assert_eq!(content_type, "application/json", "{method} {path:?}");
            assert_eq!(
                body,
                format!(r#"{{"error":"no such endpoint {path}"}}"#),
                "{method} {path:?}"
            );
            unknown += 1;
        }
    }
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(
        requests_total(&metrics, "other", "405"),
        refused,
        "{metrics}"
    );
    assert_eq!(
        requests_total(&metrics, "other", "404"),
        unknown,
        "{metrics}"
    );
    for (_, _, label) in ROUTES {
        assert!(
            !metrics.contains(&format!("tpn_requests_total{{endpoint=\"{label}\"")),
            "a refused request was counted under {label}:\n{metrics}"
        );
    }
    handle.shutdown();
}

#[test]
fn every_route_counts_its_requests_under_its_label() {
    let (handle, addr) = start_server();
    for (method, path, _) in ROUTES {
        let (status, _) = http(addr, method, path, "");
        assert!(status != 404 && status != 405, "{method} {path}: {status}");
    }
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    for (method, path, label) in ROUTES {
        let prefix = format!("tpn_requests_total{{endpoint=\"{label}\",");
        let counted: Vec<&str> = metrics.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(
            counted.len(),
            1,
            "{method} {path} under {label}:\n{metrics}"
        );
        assert!(counted[0].ends_with(" 1"), "{}", counted[0]);
    }
    assert!(
        !metrics.contains("tpn_requests_total{endpoint=\"other\""),
        "{metrics}"
    );
    handle.shutdown();
}

/// One `tpn batch` line over the fixtures directory, which holds one
/// net (Figure 1).
fn batch(kind: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["batch", &fixture_dir(), kind])
        .output()
        .expect("tpn runs")
}

#[test]
fn plain_kind_names_resolve_to_one_analysis_on_every_surface() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    let stats = || http(addr, "GET", "/stats", "").1;
    for kind in PLAIN {
        // The HTTP path: simulate at its default events and seed.
        let (status, body) = http(addr, "POST", &format!("/{kind}"), &net);
        assert_eq!(status, 200, "/{kind}: {body}");
        assert!(
            body.starts_with(&format!(r#"{{"kind":"{kind}","#)),
            "{body}"
        );

        // A /v1 entry names the same cache line: a hit, the same bytes.
        let hits = json_counter(&stats(), "hits");
        let envelope = format!(
            r#"{{"net":{},"requests":[{{"kind":"{kind}"}}]}}"#,
            escape(&net)
        );
        let (status, v1) = http(addr, "POST", "/v1", &envelope);
        assert_eq!(status, 200, "{v1}");
        assert!(
            v1.contains(&format!(
                r#""results":[{{"kind":"{kind}","status":200,"body":{body}}}]"#
            )),
            "/v1 {kind}: {v1}"
        );
        assert_eq!(json_counter(&stats(), "hits"), hits + 1, "/v1 {kind}");

        // A /whatif batch: a perturbation to the base timing is the base
        // net, so its entry carries the same body.
        let spec = format!(
            r#"{{"net":{},"requests":["{kind}"],"perturbations":[{{"E(t3)":"1000"}}]}}"#,
            escape(&net)
        );
        let (status, whatif) = http(addr, "POST", "/whatif", &spec);
        if kind == "simulate" {
            assert_eq!(status, 400, "{whatif}");
            assert_eq!(
                whatif,
                r#"{"code":"bad_request","message":"unknown whatif request kind \"simulate\" (expected analyze, graph, correctness or invariants)"}"#
            );
        } else {
            assert_eq!(status, 200, "{whatif}");
            assert!(
                whatif.contains(&format!(r#""requests":["{kind}"]"#)),
                "{whatif}"
            );
            assert!(
                whatif.contains(&format!(
                    r#""results":[{{"kind":"{kind}","status":200,"body":{body}}}]"#
                )),
                "/whatif {kind}: {whatif}"
            );
        }

        // `tpn batch` computes in its own process: the same bytes.
        let out = batch(kind);
        assert!(out.status.success(), "tpn batch {kind}: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("{{\"file\":\"fig1.tpn\",\"result\":{body}}}\n"),
            "tpn batch {kind}"
        );
    }

    // Simulate's parameters mean the same on the path and in /v1.
    let (status, body) = http(addr, "POST", "/simulate?events=2000&seed=7", &net);
    assert_eq!(status, 200, "{body}");
    let envelope = format!(
        r#"{{"net":{},"requests":[{{"kind":"simulate","events":2000,"seed":7}}]}}"#,
        escape(&net)
    );
    let (_, v1) = http(addr, "POST", "/v1", &envelope);
    assert!(v1.contains(&format!(r#""body":{body}}}]"#)), "{v1}");

    // Labels that are not analysis kinds are refused where kinds are named.
    for name in ["v1", "healthz", "other", "stats", "frobnicate"] {
        let envelope = format!(
            r#"{{"net":{},"requests":[{{"kind":"{name}"}}]}}"#,
            escape(&net)
        );
        let (status, body) = http(addr, "POST", "/v1", &envelope);
        assert_eq!(status, 400, "{body}");
        assert_eq!(
            body,
            format!(
                r#"{{"code":"bad_request","message":"unknown request kind \"{name}\" (expected analyze, graph, correctness, invariants, simulate, sweep, optimize or whatif)"}}"#
            )
        );
        assert!(!batch(name).status.success(), "tpn batch {name}");
    }
    for name in ["sweep", "v1", "other"] {
        let spec = format!(
            r#"{{"net":{},"requests":["{name}"],"perturbations":[{{"E(t3)":"1"}}]}}"#,
            escape(&net)
        );
        let (status, body) = http(addr, "POST", "/whatif", &spec);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("unknown whatif request kind"), "{body}");
    }
    handle.shutdown();
}
