//! Shared helpers for the loopback integration suites (`service`,
//! `sweep`, `optimize`, `session`, `legacy_shim`): the raw HTTP/1.1
//! client, server bootstrap, fixture loading and flat-JSON counter
//! extraction. Each suite compiles its own copy (`mod common;`), so
//! unused items are expected per suite.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use timed_petri::service::{spawn, ServerHandle, Service, ServiceConfig};

/// The integration fixtures directory (`tests/fixtures`).
pub fn fixture_dir() -> String {
    format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"))
}

/// The paper's Figure-1 `.tpn` text.
pub fn fig1_text() -> String {
    std::fs::read_to_string(format!("{}/fig1.tpn", fixture_dir())).expect("fixture readable")
}

/// A default-config server on an ephemeral loopback port.
pub fn start_server() -> (ServerHandle, SocketAddr) {
    let (handle, addr, _) = start_server_with(ServiceConfig::default());
    (handle, addr)
}

/// Like [`start_server`] but with a caller-built config, also handing
/// back the shared [`Service`] so tests can drive in-process hooks
/// (e.g. manual retention-ring ticks via `Service::sample_now`).
pub fn start_server_with(config: ServiceConfig) -> (ServerHandle, SocketAddr, Arc<Service>) {
    let service = Arc::new(Service::new(config));
    let handle = spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr, service)
}

/// A minimal HTTP/1.1 client: one request, one `Connection: close`
/// response read to EOF. Returns (status, body).
pub fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
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
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// Pull an unsigned counter out of a flat JSON document (first match).
pub fn json_counter(doc: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat).unwrap_or_else(|| panic!("{key} in {doc}")) + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric counter")
}

/// Pull one stage's artifact counter out of the `/stats` document.
pub fn artifact_counter(stats: &str, stage: &str, which: &str) -> u64 {
    let pat = format!("\"{stage}\":{{");
    let start = stats
        .find(&pat)
        .unwrap_or_else(|| panic!("{stage} in {stats}"));
    let section = &stats[start..stats[start..].find('}').map(|e| start + e).unwrap()];
    json_counter(section, which)
}
