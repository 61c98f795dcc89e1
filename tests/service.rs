//! Loopback integration tests for the `tpn-service` HTTP daemon.
//!
//! A real server is bound to an ephemeral port and exercised with raw
//! `TcpStream` HTTP/1.1 requests. The load-bearing assertions:
//!
//! * two *concurrent* `POST /analyze` of the paper's Figure-1 net
//!   return byte-identical JSON carrying the paper's t7 throughput
//!   (≈ 0.002852 firings/ms), and `/stats` shows **exactly one**
//!   pipeline computation — the second request either coalesced onto
//!   the first or hit the cache;
//! * a cache hit is byte-identical to the miss that populated it, and
//!   both match the library/CLI JSON rendering (`tpn batch` shares the
//!   same serializer).

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;

use timed_petri::service::RequestKind;

mod common;
use common::{fig1_text, http, json_counter, start_server};

#[test]
fn concurrent_analyzes_coalesce_to_one_computation() {
    let (handle, addr) = start_server();
    let net = fig1_text();

    // Two concurrent POST /analyze of the same net.
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let net = net.clone();
                scope.spawn(move || http(addr, "POST", "/analyze", &net))
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(bodies[0].0, 200);
    assert_eq!(bodies[1].0, 200);
    assert_eq!(bodies[0].1, bodies[1].1, "concurrent responses identical");
    // the paper's §4 throughput: t7 ≈ 0.0028518 firings per millisecond
    assert!(
        bodies[0].1.contains(r#""transition":"t7","exact":"#)
            && bodies[0].1.contains(r#""approx":0.002852"#),
        "paper throughput in response: {}",
        bodies[0].1
    );

    // Exactly one pipeline computation across both requests: the second
    // either coalesced onto the in-flight first or hit the cache.
    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(json_counter(&stats, "computations"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "requests"), 2, "{stats}");

    // Subsequent identical requests are cache hits.
    let hits_before = json_counter(&stats, "hits");
    let (status, third) = http(addr, "POST", "/analyze", &net);
    assert_eq!(status, 200);
    assert_eq!(third, bodies[0].1, "cache hit is byte-identical");
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(
        json_counter(&stats, "computations"),
        1,
        "still one: {stats}"
    );
    assert_eq!(json_counter(&stats, "hits"), hits_before + 1, "{stats}");

    handle.shutdown();
}

#[test]
fn server_json_matches_the_cli_pipeline_on_hit_and_miss() {
    let (handle, addr) = start_server();
    let net = fig1_text();

    // Miss (first request) and hit (second request) must be
    // byte-identical…
    let (_, miss) = http(addr, "POST", "/analyze", &net);
    let (_, hit) = http(addr, "POST", "/analyze", &net);
    assert_eq!(miss, hit);

    // …and equal to the shared JSON layer's rendering, which is what
    // the CLI uses.
    let parsed = timed_petri::net::parse_tpn(&net).unwrap();
    let expected = timed_petri::service::run(&parsed, RequestKind::Analyze).unwrap();
    assert_eq!(miss, expected);

    // `tpn batch` on the fixtures directory embeds the very same bytes.
    let fixtures = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["batch", &fixtures])
        .output()
        .expect("tpn batch runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.contains("\"file\":\"fig1.tpn\""))
        .expect("fig1 line in batch output");
    assert!(
        line.contains(&miss),
        "batch line embeds the server body verbatim:\n{line}\nvs\n{miss}"
    );

    handle.shutdown();
}

#[test]
fn all_analysis_endpoints_serve_fig1() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    for (target, needle) in [
        ("/graph", r#""states":18"#),
        ("/correctness", r#""deadlock_free":"#),
        ("/invariants", r#""p_semiflows":"#),
        ("/simulate?events=20000&seed=7", r#""seed":7"#),
    ] {
        let (status, body) = http(addr, "POST", target, &net);
        assert_eq!(status, 200, "{target}: {body}");
        assert!(body.contains(needle), "{target}: {body}");
    }
    // simulation responses are cached per (events, seed)
    let (_, a) = http(addr, "POST", "/simulate?events=20000&seed=7", &net);
    let (_, b) = http(addr, "POST", "/simulate?events=20000&seed=8", &net);
    assert_ne!(a, b, "different seed is a different cache key");
    handle.shutdown();
}

#[test]
fn expect_100_continue_is_answered_before_the_body() {
    // curl sends `Expect: 100-continue` for bodies over ~1 KiB and
    // waits for the interim response before transmitting the body.
    let (handle, addr) = start_server();
    let net = fig1_text();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /analyze HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                net.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // the interim response must arrive while the body is still unsent
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).unwrap();
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(net.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains(r#""approx":0.002852"#), "{response}");
    handle.shutdown();
}

#[test]
fn protocol_errors_map_to_statuses() {
    let (handle, addr) = start_server();
    // liveness + stats endpoints
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
    // unparseable body
    let (status, body) = http(addr, "POST", "/analyze", "this is not a net");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("parse error"), "{body}");
    // parses but has no steady-state cycle
    let dead = "net d\nplace a init 1\nplace b\ntrans t in a out b firing 1";
    let (status, body) = http(addr, "POST", "/analyze", dead);
    assert_eq!(status, 422, "{body}");
    // unknown route and bad method
    let (status, _) = http(addr, "POST", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/analyze", "");
    assert_eq!(status, 405);
    // bad query parameter
    let (status, body) = http(addr, "POST", "/simulate?events=lots", "net x");
    assert_eq!(status, 400, "{body}");
    // an event budget over the configured cap is rejected before any
    // work happens
    let (status, body) = http(
        addr,
        "POST",
        "/simulate?events=18446744073709551615",
        "net x",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exceeds the limit"), "{body}");
    // chunked transfer encoding is explicitly unimplemented, not
    // silently served against an empty body
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\
              Connection: close\r\n\r\n",
        )
        .unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 501"), "{resp}");
    assert!(resp.contains("not supported"), "{resp}");
    handle.shutdown();
}
