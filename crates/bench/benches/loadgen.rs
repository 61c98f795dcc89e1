//! E13 — serving-tier load test on the epoll reactor.
//!
//! Not a Criterion bench: throughput under high connection counts is a
//! systems measurement, not a microbenchmark, so this binary drives the
//! in-process server with the epoll load generator
//! (`tpn_bench::loadgen`) and reports req/s plus the server-side p50
//! and p99 from its own `/metrics` histograms (client-side latency
//! would fold in loadgen scheduling noise; the server histogram
//! brackets exactly the accept-to-flush path).
//!
//! `TPN_LOADGEN_CONNS` (default 10 000) concurrent keep-alive
//! connections share `TPN_LOADGEN_REQS` (default 100 000) `GET /slo`
//! requests.
//!
//! Quiet-host numbers are recorded in `BENCH_9.json`. CI runs the
//! 512-connection smoke via `tests/aio.rs` instead of this binary.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tpn_bench::loadgen::{self, LoadConfig, RequestSpec};
use tpn_service::{spawn, Service, ServiceConfig};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Fetch `/metrics` over one throwaway close-mode connection.
fn fetch_metrics(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("dial /metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("send /metrics");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read /metrics");
    let body_at = raw.find("\r\n\r\n").expect("header terminator") + 4;
    raw[body_at..].to_string()
}

/// Server-side request-duration quantile from the Prometheus
/// histogram: first bucket whose cumulative count reaches q of the
/// total. Upper-bound estimate, same as any promql `histogram_quantile`.
fn histogram_quantile(metrics: &str, family: &str, q: f64) -> f64 {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    let mut total = 0u64;
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(&format!("{family}_bucket{{")) {
            let le = rest
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("le label");
            let count: u64 = rest
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("bucket count");
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("bucket bound")
            };
            buckets.push((bound, count));
            total = total.max(count);
        }
    }
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let want = (total as f64 * q).ceil() as u64;
    for (bound, count) in &buckets {
        if *count >= want {
            return *bound;
        }
    }
    f64::INFINITY
}

fn main() {
    // `cargo bench` forwards harness flags like `--bench`; ignore them.
    let conns = env_usize("TPN_LOADGEN_CONNS", 10_000);
    let requests = env_usize("TPN_LOADGEN_REQS", 100_000) as u64;

    let service = Arc::new(Service::new(ServiceConfig::default()));
    let handle = spawn(Arc::clone(&service), "127.0.0.1:0").expect("spawn server");
    let addr = handle.addr();

    let cfg = LoadConfig {
        connections: conns,
        requests,
        // `/slo` is unconditionally 200 (unlike `/healthz`, which
        // flips to 503 when the burn-rate engine fires under load).
        mix: vec![RequestSpec::new("GET", "/slo", "")],
        deadline: Duration::from_secs(300),
    };
    let report = loadgen::run(addr, &cfg).expect("loadgen run");
    let metrics = fetch_metrics(addr);
    let p50 = histogram_quantile(&metrics, "tpn_request_duration_seconds", 0.50);
    let p99 = histogram_quantile(&metrics, "tpn_request_duration_seconds", 0.99);
    println!(
        "epoll: conns={conns} requests={requests} ok={} non_2xx={} errors={} \
         elapsed={:.2}s req_per_sec={:.0} server_p50<={p50}s server_p99<={p99}s",
        report.ok,
        report.non_2xx,
        report.errors,
        report.elapsed.as_secs_f64(),
        report.req_per_sec(),
    );
    handle.shutdown();
}
