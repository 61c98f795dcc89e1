//! Tests for the epoll serving tier (`crates/aio` + `aio_server`).
//! The oracle is frozen wire bytes: `tests/fixtures/golden/wire/`
//! holds raw responses (status line, headers, body) captured from the
//! thread-per-connection listener this one replaced, and every
//! deterministic exchange must still come back **byte-identical** to
//! them. On top of that: keep-alive, pipelining, chunked streaming,
//! slow-client deadlines, the connection cap, and graceful drain.

// The daemon serves on Linux only.
#![cfg(target_os = "linux")]

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{fig1_text, http, json_counter, start_server_with};
use timed_petri::aio::http1::{Response, ResponseParser};
use timed_petri::obs::validate::validate;
use timed_petri::service::{AioConfig, Json, RequestKind, ServerHandle, Service, ServiceConfig};
use tpn_bench::loadgen::{self, LoadConfig, RequestSpec};

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fixture(name: &str) -> String {
    String::from_utf8(fixture_bytes(&format!("golden/{name}"))).expect("UTF-8 fixture")
}

/// A captured raw response under `tests/fixtures/golden/wire/`.
fn wire(name: &str) -> Vec<u8> {
    fixture_bytes(&format!("golden/wire/{name}.http"))
}

/// The sweep spec fixture with the net text embedded in-body, the
/// shape `POST /sweep` takes (same splice as `tests/metrics.rs`).
fn sweep_body() -> String {
    let spec = fixture("sweep_spec.json");
    let without_brace = spec
        .trim_end()
        .strip_suffix('}')
        .unwrap()
        .trim_end()
        .to_string();
    format!(
        "{without_brace}, \"net\": {}}}",
        timed_petri::service::json::escape(&fig1_text())
    )
}

fn epoll_server(aio: AioConfig) -> (ServerHandle, SocketAddr, Arc<Service>) {
    start_server_with(ServiceConfig {
        aio,
        ..ServiceConfig::default()
    })
}

/// One `Connection: close` exchange, returning the **raw response
/// bytes** (status line, headers, body) — the byte-identity probe.
fn raw_close_exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read to EOF");
    raw
}

fn close_request(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A blocking keep-alive client over the shared response parser.
struct KeepAlive {
    stream: TcpStream,
    parser: ResponseParser,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        KeepAlive {
            stream,
            parser: ResponseParser::new(),
        }
    }

    fn send(&mut self, method: &str, target: &str, body: &str) {
        let req = format!(
            "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes()).expect("send");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send raw");
    }

    fn read_response(&mut self) -> Response {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.parser.poll().expect("parse response") {
                Some(resp) if resp.status / 100 == 1 => continue,
                Some(resp) => return resp,
                None => {}
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "connection closed mid-response");
            self.parser.feed(&chunk[..n]);
        }
    }
}

/// Wait (bounded) for the reactor's open-connection gauge to settle
/// at `want` — client-side socket drops reach the server a beat later.
fn await_open(service: &Service, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if service.connections().scalars().open == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open gauge stuck at {} (want {want})",
            service.connections().scalars().open
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------
// Byte identity against the captured wire goldens
// ---------------------------------------------------------------------

/// Assert one exchange's raw response equals its captured golden.
fn assert_wire(golden: &str, request: &[u8], got: &[u8]) {
    let want = wire(golden);
    assert_eq!(
        want,
        got,
        "{golden}.http diverges for request:\n{}\ncaptured:\n{}\nepoll:\n{}",
        String::from_utf8_lossy(request),
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(got),
    );
}

#[test]
fn epoll_serves_captured_wire_goldens_byte_identical() {
    let (epoll, eaddr, _) = epoll_server(AioConfig::default());

    let fig1 = fig1_text();
    let exchanges: Vec<(&str, Vec<u8>)> = vec![
        ("analyze_fig1", close_request("POST", "/analyze", &fig1)),
        ("graph_fig1", close_request("POST", "/graph", &fig1)),
        ("correctness_fig1", close_request("POST", "/correctness", &fig1)),
        ("invariants_fig1", close_request("POST", "/invariants", &fig1)),
        ("sweep_fig1", close_request("POST", "/sweep", &sweep_body())),
        (
            "sweep_without_net",
            close_request("POST", "/sweep", &fixture("sweep_spec.json")),
        ),
        (
            "analyze_unparseable",
            close_request("POST", "/analyze", "not a petri net"),
        ),
        ("no_such_route", close_request("GET", "/no/such/route", "")),
        // Parser-level rejections keep their historical error strings.
        ("bogus_request_line", b"BOGUS\r\n\r\n".to_vec()),
        (
            "duplicate_content_length",
            b"GET /analyze HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 7\r\nConnection: close\r\n\r\nabcd".to_vec(),
        ),
    ];
    for (golden, request) in &exchanges {
        assert_wire(golden, request, &raw_close_exchange(eaddr, request));
    }

    epoll.shutdown();
}

// ---------------------------------------------------------------------
// Keep-alive and pipelining
// ---------------------------------------------------------------------

#[test]
fn keep_alive_pipelined_requests_share_one_connection() {
    let (handle, addr, service) = epoll_server(AioConfig::default());

    let mut client = KeepAlive::connect(addr);
    // Two requests in a single write: the parser must peel them off
    // the same buffer and the responses must come back in order.
    let fig1 = fig1_text();
    let mut pipelined = Vec::new();
    pipelined.extend_from_slice(
        &format!(
            "POST /analyze HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{fig1}",
            fig1.len()
        )
        .into_bytes(),
    );
    pipelined.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    client.send_raw(&pipelined);

    let first = client.read_response();
    assert_eq!(first.status, 200);
    assert!(!first.close, "keep-alive response must not close");
    assert!(
        String::from_utf8_lossy(&first.body).contains("\"kind\":\"analyze\""),
        "responses out of order: first must be the analyze reply"
    );

    let second = client.read_response();
    assert_eq!(second.status, 200);
    assert!(!second.close);

    // The connection is still usable afterwards — proof nothing closed.
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    assert_eq!(service.connections().scalars().accepted, 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn max_requests_per_conn_sends_connection_close() {
    let (handle, addr, _) = epoll_server(AioConfig {
        max_requests_per_conn: 2,
        ..AioConfig::default()
    });

    let mut client = KeepAlive::connect(addr);
    client.send("GET", "/healthz", "");
    let first = client.read_response();
    assert!(!first.close, "first response still under the cap");

    client.send("GET", "/healthz", "");
    let second = client.read_response();
    assert!(second.close, "request cap must force Connection: close");

    // And the server actually hangs up.
    let mut rest = Vec::new();
    client.stream.read_to_end(&mut rest).expect("EOF after cap");
    assert!(rest.is_empty());
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Streaming writes
// ---------------------------------------------------------------------

#[test]
fn streamed_sweep_reassembles_to_the_captured_body() {
    // Force the chunked path: the golden sweep body (~2 KB) is far
    // above a 256-byte threshold, and a 64-byte frame size forces many
    // partial-write round trips through the bounded out-buffer.
    let (epoll, eaddr, _) = epoll_server(AioConfig {
        stream_threshold: 256,
        write_chunk: 64,
        ..AioConfig::default()
    });

    let spec = sweep_body();
    let mut client = KeepAlive::connect(eaddr);
    client.send("POST", "/sweep", &spec);
    let streamed = client.read_response();
    assert_eq!(streamed.status, 200);
    assert!(streamed.chunked, "body over threshold must stream chunked");
    assert!(!streamed.close, "streaming must not cost keep-alive");

    let text = String::from_utf8(wire("sweep_fig1")).unwrap();
    let captured_body = &text[text.find("\r\n\r\n").unwrap() + 4..];
    assert_eq!(
        String::from_utf8(streamed.body).unwrap(),
        captured_body,
        "de-chunked stream must reassemble to the captured body"
    );

    // The same connection serves a follow-up request after streaming.
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    epoll.shutdown();
}

// ---------------------------------------------------------------------
// Admission control and deadlines
// ---------------------------------------------------------------------

#[test]
fn slow_loris_is_cut_by_the_read_deadline() {
    let (handle, addr, service) = epoll_server(AioConfig {
        read_deadline_ms: 200,
        ..AioConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A request that never finishes: partial request line, then silence.
    stream.write_all(b"GET /anal").expect("partial send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 400 "),
        "slow client must get 400, got:\n{text}"
    );
    assert!(text.contains("request read deadline exceeded"), "{text}");
    assert!(service.connections().scalars().timeouts >= 1);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_overflow_with_503() {
    let (handle, addr, service) = epoll_server(AioConfig {
        max_connections: 2,
        ..AioConfig::default()
    });

    // Fill the cap with two live keep-alive connections; completing a
    // request on each proves both are registered with the reactor.
    let mut first = KeepAlive::connect(addr);
    first.send("GET", "/healthz", "");
    assert_eq!(first.read_response().status, 200);
    let mut second = KeepAlive::connect(addr);
    second.send("GET", "/healthz", "");
    assert_eq!(second.read_response().status, 200);

    // The third is turned away at accept, before any request bytes.
    let mut overflow = TcpStream::connect(addr).expect("connect");
    overflow
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    overflow.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
    assert!(text.contains("connection limit reached"), "{text}");
    let scalars = service.connections().scalars();
    assert_eq!(scalars.rejected, 1);
    assert_eq!(scalars.accepted, 2, "rejects must not count as accepts");

    // Freeing a slot readmits new connections.
    drop(first);
    await_open(&service, 1);
    let mut third = KeepAlive::connect(addr);
    third.send("GET", "/healthz", "");
    assert_eq!(third.read_response().status, 200);
    handle.shutdown();
}

#[test]
fn shutdown_drains_idle_connections() {
    let (handle, addr, service) = epoll_server(AioConfig::default());

    let mut idle = KeepAlive::connect(addr);
    idle.send("GET", "/healthz", "");
    assert_eq!(idle.read_response().status, 200);

    handle.shutdown();
    let scalars = service.connections().scalars();
    assert_eq!(scalars.open, 0, "drain must close every connection");
    assert!(scalars.drained >= 1, "idle connection counts as drained");

    // The client observes a clean EOF, not a mid-response cut.
    let mut rest = Vec::new();
    idle.stream.read_to_end(&mut rest).expect("EOF at drain");
    assert!(rest.is_empty());
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

#[test]
fn connection_stats_surface_on_stats_and_metrics() {
    let (handle, addr, _) = epoll_server(AioConfig::default());

    let mut client = KeepAlive::connect(addr);
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    client.send("GET", "/stats", "");
    let stats = client.read_response();
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(
        stats_body.contains("\"connections\":{\"open\":"),
        "{stats_body}"
    );
    assert!(stats_body.contains("\"accepted\":1"), "{stats_body}");

    client.send("GET", "/metrics", "");
    let metrics = client.read_response();
    let text = String::from_utf8(metrics.body).unwrap();
    validate(&text).unwrap_or_else(|e| panic!("{e}\n--- document ---\n{text}"));
    for family in [
        "tpn_connections_open",
        "tpn_connections_accepted_total",
        "tpn_connections_rejected_total",
        "tpn_connection_timeouts_total",
        "tpn_connections_drained_total",
        "tpn_connection_lifetime_seconds_bucket",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------

/// The `tpn_requests_total{endpoint="analyze",status="200"}` sample of
/// a `/metrics` document (absent before the first success).
fn analyze_200_total(metrics: &str) -> u64 {
    let series = "tpn_requests_total{endpoint=\"analyze\",status=\"200\"} ";
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series))
        .map_or(0, |n| n.parse().expect("integer sample"))
}

#[test]
fn panicking_pipeline_answers_500_and_releases_its_connection() {
    // One worker, so every later request reuses the thread the panic
    // unwound through.
    let (epoll, eaddr, service) = start_server_with(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    });
    let baseline = service.connections().scalars().open;

    // lossy2's exact rates overflow i128, so the pipeline panics.
    let lossy2 = String::from_utf8(fixture_bytes("overflow/lossy2.tpn")).expect("UTF-8 net");
    let request = close_request("POST", "/analyze", &lossy2);
    let reply = raw_close_exchange(eaddr, &request);
    assert_wire("analyze_lossy2_panic", &request, &reply);
    await_open(&service, baseline);

    // The worker's trace collector was closed on the panic path, so
    // later requests on it are observed and counted again.
    const K: u64 = 3;
    let before = analyze_200_total(&service.metrics_text());
    let fig1 = close_request("POST", "/analyze", &fig1_text());
    for _ in 0..K {
        let reply = String::from_utf8(raw_close_exchange(eaddr, &fig1)).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    }
    let metrics = raw_close_exchange(eaddr, &close_request("GET", "/metrics", ""));
    let text = String::from_utf8(metrics).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    assert_eq!(analyze_200_total(&text), before + K, "{text}");
    await_open(&service, baseline);
    epoll.shutdown();
}

// ---------------------------------------------------------------------
// Body-cache hits answered on the reactor
// ---------------------------------------------------------------------

/// One keep-alive request, as raw bytes.
fn keep_alive_request(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn inline_hits_answer_3000_pipelined_requests_in_order() {
    // Each answered hit lets the reactor parse the connection's next
    // pipelined request; answering it from inside that parse would
    // recurse once per request the client sent ahead.
    const N: usize = 3_000;
    let (handle, addr, service) = epoll_server(AioConfig {
        max_requests_per_conn: 10_000,
        ..AioConfig::default()
    });
    let fig1 = fig1_text();
    let (status, analyze) = service.respond(RequestKind::Analyze, &fig1);
    assert_eq!(status, 200);
    let (status, correctness) = service.respond(RequestKind::Correctness, &fig1);
    assert_eq!(status, 200);
    // Every tenth request asks for /correctness instead, so the order
    // of the replies is observable.
    let targets: Vec<&str> = (0..N)
        .map(|i| {
            if i % 10 == 9 {
                "/correctness"
            } else {
                "/analyze"
            }
        })
        .collect();

    let mut client = KeepAlive::connect(addr);
    let mut writer = client.stream.try_clone().expect("clone the socket");
    let requests: Vec<Vec<u8>> = targets
        .iter()
        .map(|target| keep_alive_request(target, &fig1))
        .collect();
    let sender = std::thread::spawn(move || {
        for batch in requests.chunks(100) {
            writer.write_all(&batch.concat()).expect("send a batch");
        }
    });
    for (i, target) in targets.iter().enumerate() {
        let reply = client.read_response();
        assert_eq!(reply.status, 200, "reply {i}");
        assert!(!reply.close, "reply {i} closed the connection");
        let want = if *target == "/analyze" {
            &analyze
        } else {
            &correctness
        };
        assert_eq!(reply.body, want.as_bytes(), "reply {i} ({target})");
    }
    sender.join().expect("sender thread");
    drop(client);

    // The daemon still serves a fresh connection.
    let (status, body) = http(addr, "POST", "/analyze", &fig1);
    assert_eq!(status, 200);
    assert_eq!(body, *analyze);
    handle.shutdown();
}

#[test]
fn inline_hit_is_not_stuck_behind_a_busy_pool() {
    let (handle, addr, service) = start_server_with(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    });
    let fig1 = fig1_text();
    let (status, analyze) = service.respond(RequestKind::Analyze, &fig1);
    assert_eq!(status, 200);

    // A simulation no cache holds, sized to keep the only worker busy
    // for over a second in either build.
    let events = if cfg!(debug_assertions) {
        1_000_000
    } else {
        4_000_000
    };
    let slow_target = format!("/simulate?events={events}&seed=11");
    let slow_started = Instant::now();
    let slow = {
        let fig1 = fig1.clone();
        std::thread::spawn(move || http(addr, "POST", &slow_target, &fig1))
    };
    // The simulation's cache lookup has missed: its job is queued or
    // running on the only worker.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.cache().stats().misses < 2 {
        assert!(Instant::now() < deadline, "the simulation never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    let (status, body) = http(addr, "POST", "/analyze", &fig1);
    let waited = started.elapsed();
    assert_eq!(status, 200);
    assert_eq!(body, *analyze);

    let (status, _) = slow.join().expect("slow client");
    let slow_took = slow_started.elapsed();
    assert_eq!(status, 200);
    // Queued behind the simulation, the hit would wait out nearly all
    // of it.
    assert!(
        waited < slow_took / 2,
        "the hit took {waited:?}, the simulation {slow_took:?}"
    );
    handle.shutdown();
}

#[test]
fn inline_hits_keep_observation_parity() {
    let (handle, addr, _) = epoll_server(AioConfig::default());
    let fig1 = fig1_text();
    for _ in 0..4 {
        assert_eq!(http(addr, "POST", "/analyze", &fig1).0, 200);
    }

    let (status, traces) = http(addr, "GET", "/debug/requests?n=4", "");
    assert_eq!(status, 200);
    let traces: Vec<Json> = traces
        .lines()
        .map(|line| Json::parse(line).expect("NDJSON line parses"))
        .collect();
    assert_eq!(traces.len(), 4, "{traces:?}");
    let num = |doc: &Json, key: &str| -> u64 {
        let value = doc.get(key).and_then(Json::as_num);
        value.unwrap_or_else(|| panic!("{key}")).parse().unwrap()
    };
    let span_names = |doc: &Json| -> Vec<String> {
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        spans
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    for trace in &traces {
        assert_eq!(
            trace.get("endpoint").and_then(Json::as_str),
            Some("analyze")
        );
        assert_eq!(num(trace, "status"), 200);
    }
    // Most recent first: three hits (the root and the parse, nothing
    // else), then the miss, whose trace crossed to a pool worker.
    for hit in &traces[..3] {
        assert_eq!(span_names(hit), ["analyze", "parse"]);
    }
    let miss = &traces[3];
    let names = span_names(miss);
    for name in ["parse", "cache", "session", "trg", "rates", "render"] {
        assert!(names.iter().any(|n| n == name), "{name} in {names:?}");
    }
    let spans = miss.get("spans").and_then(Json::as_arr).unwrap();
    let top_level: u64 = spans
        .iter()
        .filter(|s| num(s, "depth") == 2)
        .map(|s| num(s, "duration_ns"))
        .sum();
    assert!(
        num(miss, "duration_ns") >= top_level,
        "the miss's duration covers its spans: {miss:?}"
    );

    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(json_counter(&stats, "hits"), 3, "{stats}");
    assert_eq!(json_counter(&stats, "misses"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "computations"), 1, "{stats}");
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(analyze_200_total(&metrics), 4, "{metrics}");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Loadgen smoke (the CI gate: zero drops, clean drain)
// ---------------------------------------------------------------------

#[test]
fn loadgen_smoke_512_connections_zero_drops_clean_drain() {
    let (handle, addr, service) = epoll_server(AioConfig::default());
    let cfg = LoadConfig {
        connections: 512,
        requests: 2048,
        // `/slo` is unconditionally 200; `/healthz` flips to 503
        // when the burn-rate engine fires, which load can cause.
        mix: vec![RequestSpec::new("GET", "/slo", "")],
        deadline: Duration::from_secs(120),
    };
    let report = loadgen::run(addr, &cfg).expect("loadgen run");
    assert_eq!(report.errors, 0, "no request may be dropped: {report:?}");
    assert_eq!(report.ok, 2048, "every request answered 200: {report:?}");

    // All 512 sockets drop with the loadgen; the reactor must reap
    // every one — the open gauge returns to zero before shutdown.
    await_open(&service, 0);
    let scalars = service.connections().scalars();
    assert!(scalars.accepted >= 512, "scalars: {scalars:?}");
    assert_eq!(scalars.rejected, 0, "scalars: {scalars:?}");
    handle.shutdown();
    assert_eq!(service.connections().scalars().open, 0);
}
