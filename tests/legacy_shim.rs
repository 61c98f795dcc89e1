//! Legacy-route shim equivalence: after the Session redesign, every
//! pre-redesign endpoint must keep serving **byte-identical** bodies.
//!
//! The files under `tests/fixtures/golden/` were captured from the
//! pre-Session daemon (PR 4 head) running against the Figure-1 fixture
//! — response bodies of every legacy endpoint, the canonical
//! sweep/optimize specs they used, and the two error shapes. This
//! suite replays the same requests against the current server (real
//! loopback HTTP), the in-process API and the CLI, and compares bytes.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::process::Command;

mod common;
use common::{fig1_text, fixture_dir, http, start_server};

fn golden(name: &str) -> String {
    let path = format!("{}/golden/{name}", fixture_dir());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The spec JSON plus a `"net"` member, assembled without re-encoding
/// the spec (the goldens were captured exactly this way).
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

#[test]
fn analysis_endpoints_match_pre_redesign_bytes() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    for (target, golden_name) in [
        ("/analyze", "analyze.json"),
        ("/graph", "graph.json"),
        ("/correctness", "correctness.json"),
        ("/invariants", "invariants.json"),
        ("/simulate?events=20000&seed=7", "simulate_20000_7.json"),
    ] {
        let (status, body) = http(addr, "POST", target, &net);
        assert_eq!(status, 200, "{target}: {body}");
        assert_eq!(
            body,
            golden(golden_name),
            "{target} drifted from the pre-redesign bytes"
        );
    }
    handle.shutdown();
}

#[test]
fn sweep_and_optimize_endpoints_match_pre_redesign_bytes() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    for (target, spec_name, golden_name) in [
        ("/sweep", "sweep_spec.json", "sweep.json"),
        ("/optimize", "optimize_spec.json", "optimize.json"),
    ] {
        let body = with_net(&golden(spec_name), &net);
        let (status, reply) = http(addr, "POST", target, &body);
        assert_eq!(status, 200, "{target}: {reply}");
        assert_eq!(
            reply,
            golden(golden_name),
            "{target} drifted from the pre-redesign bytes"
        );
    }
    handle.shutdown();
}

#[test]
fn error_bodies_match_pre_redesign_bytes() {
    let (handle, addr) = start_server();
    // .tpn parse failure: 400 with the parser's message
    let (status, body) = http(addr, "POST", "/analyze", "this is not a net");
    assert_eq!(status, 400);
    assert_eq!(body, golden("error_parse.json"));
    // parses but deadlocks: 422 with the analysis message
    let dead = "net d\nplace a init 1\nplace b\ntrans t in a out b firing 1";
    let (status, body) = http(addr, "POST", "/analyze", dead);
    assert_eq!(status, 422);
    assert_eq!(body, golden("error_analysis.json"));
    handle.shutdown();
}

#[test]
fn in_process_run_matches_pre_redesign_bytes() {
    use timed_petri::service::{run, RequestKind};
    let net = timed_petri::net::parse_tpn(&fig1_text()).unwrap();
    assert_eq!(
        run(&net, RequestKind::Analyze).unwrap(),
        golden("analyze.json")
    );
    assert_eq!(run(&net, RequestKind::Graph).unwrap(), golden("graph.json"));
    assert_eq!(
        run(
            &net,
            RequestKind::Simulate {
                events: 20000,
                seed: 7
            }
        )
        .unwrap(),
        golden("simulate_20000_7.json")
    );
}

#[test]
fn cli_sweep_and_optimize_match_pre_redesign_bytes() {
    let fig1 = format!("{}/fig1.tpn", fixture_dir());
    for (cmd, spec_name, golden_name) in [
        ("sweep", "sweep_spec.json", "sweep.json"),
        ("optimize", "optimize_spec.json", "optimize.json"),
    ] {
        let spec_path = format!("{}/golden/{spec_name}", fixture_dir());
        let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
            .args([cmd, &fig1, &spec_path])
            .output()
            .expect("tpn runs");
        assert!(
            out.status.success(),
            "tpn {cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(
            stdout.trim_end(),
            golden(golden_name),
            "tpn {cmd} drifted from the pre-redesign bytes"
        );
    }
}
