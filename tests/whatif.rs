//! Acceptance suite for the what-if surface: `POST /whatif`, the `/v1`
//! `whatif` request kind, and `tpn whatif` — one base net, a batch of
//! timing perturbations, each answered by an ordinary session over the
//! perturbed net.
//!
//! The load-bearing property throughout is **byte-identity**: each
//! entry must equal, byte for byte, what a cold analysis of the
//! perturbed net produces — its body on success, its error otherwise.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

mod common;

use common::{fig1_text, http, json_counter, start_server};

use timed_petri::net::TimingAssignment;
use timed_petri::prelude::*;
use timed_petri::service::{run_with_session, WhatifSpec};
use tpn_service::Json;

fn fig1_net() -> TimedPetriNet {
    timed_petri::net::parse_tpn(&fig1_text()).unwrap()
}

fn whatif_body(perturbations: &str) -> String {
    format!(
        r#"{{"net":{},"perturbations":{perturbations}}}"#,
        timed_petri::service::json::escape(&fig1_text())
    )
}

#[test]
fn whatif_envelope_over_http() {
    let (handle, addr) = start_server();
    let (status, body) = http(
        addr,
        "POST",
        "/whatif",
        &whatif_body(r#"[{"E(t3)":"500"},{"E(t3)":"2000"}]"#),
    );
    assert_eq!(status, 200, "{body}");
    let net = fig1_net();
    assert!(
        body.starts_with(r#"{"kind":"whatif","net":"simple-protocol""#),
        "{body}"
    );
    assert!(
        body.contains(&format!(
            r#""structural_digest":"{}""#,
            net.structural_digest().to_hex()
        )),
        "{body}"
    );
    assert!(
        body.contains(&format!(r#""base_digest":"{}""#, net.digest().to_hex())),
        "{body}"
    );
    assert!(body.contains(r#""requests":["analyze"]"#), "{body}");
    // Two entries, each echoing its delta and carrying the perturbed
    // net's full digest + timing hash.
    assert!(
        body.contains(r#"{"perturbation":{"E(t3)":"500"},"status":200,"body":{"digest":""#),
        "{body}"
    );
    assert!(
        body.contains(r#"{"perturbation":{"E(t3)":"2000"},"status":200,"body":{"digest":""#),
        "{body}"
    );
    let perturbed = net
        .with_timing(&TimingAssignment::new().with("E(t3)", Rational::from_int(500)))
        .unwrap();
    assert!(
        body.contains(&format!(r#""digest":"{}""#, perturbed.digest().to_hex())),
        "{body}"
    );
    assert!(
        body.contains(&format!(r#""timing":"{}""#, perturbed.timing().hash_hex())),
        "{body}"
    );
    handle.shutdown();
}

#[test]
fn whatif_bodies_are_byte_identical_to_cold_analyses() {
    let svc = Service::new(ServiceConfig::default());
    let spec = WhatifSpec::from_json(
        &Json::parse(
            r#"{"requests":["analyze","correctness"],
                "perturbations":[{"E(t3)":"500"},{"E(t3)":"750","F(t6)":"27/2"}]}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let envelope = svc.respond_whatif_spec(fig1_net(), &spec);
    for delta in &spec.perturbations {
        let perturbed = fig1_net().with_timing(delta).unwrap();
        let cold = Session::new(perturbed, svc.config().session_options());
        for kind in [RequestKind::Analyze, RequestKind::Correctness] {
            let cold_body = run_with_session(&cold, kind).unwrap();
            assert!(
                envelope.contains(cold_body.as_str()),
                "re-timed {} body for {delta} is not byte-identical to the cold body",
                kind.name()
            );
        }
    }
}

#[test]
fn whatif_failures_are_isolated_per_perturbation() {
    let (handle, addr) = start_server();
    let (status, body) = http(
        addr,
        "POST",
        "/whatif",
        // valid · unknown attribute · a net that fails to analyse
        // (E(t3)=100 flips fig1's timeout/ACK race)
        &whatif_body(r#"[{"E(t3)":"500"},{"E(nope)":"1"},{"E(t3)":"100"}]"#),
    );
    assert_eq!(
        status, 200,
        "the envelope succeeds; entries fail alone: {body}"
    );
    assert!(
        body.contains(r#"{"perturbation":{"E(t3)":"500"},"status":200,"#),
        "{body}"
    );
    assert!(
        body.contains(r#"{"perturbation":{"E(nope)":"1"},"status":400,"error":{"code":"bad_request","message":""#),
        "{body}"
    );
    // The failing entry carries the very error /v1 returns for the
    // perturbed net.
    let error = r#"{"code":"analysis","message":"transition \"t4\" would fire more than once at the same instant in state 13 (conflict-set restriction violated)"}"#;
    assert!(
        body.contains(&format!(
            r#"{{"perturbation":{{"E(t3)":"100"}},"status":422,"error":{error}}}"#
        )),
        "{body}"
    );
    let perturbed = fig1_net()
        .with_timing(&TimingAssignment::new().with("E(t3)", Rational::from_int(100)))
        .unwrap();
    let (status, v1) = http(
        addr,
        "POST",
        "/v1",
        &format!(
            r#"{{"net":{},"requests":[{{"kind":"analyze"}}]}}"#,
            timed_petri::service::json::escape(&perturbed.to_tpn())
        ),
    );
    assert_eq!(status, 200, "{v1}");
    assert!(
        v1.contains(&format!(
            r#"{{"kind":"analyze","status":422,"body":{error}}}"#
        )),
        "{v1}"
    );
    // Spec-shaped problems are a single structured 400.
    let (status, body) = http(addr, "POST", "/whatif", &whatif_body("[]"));
    assert_eq!(status, 400, "{body}");
    assert!(
        body.starts_with(r#"{"code":"bad_request","message":""#),
        "{body}"
    );
    handle.shutdown();
}

#[test]
fn whatif_entries_are_cached_across_batches() {
    let svc = Service::new(ServiceConfig::default());
    let spec = |text: &str| WhatifSpec::from_json(&Json::parse(text).unwrap()).unwrap();
    let first = spec(r#"{"perturbations":[{"E(t3)":"500"},{"E(t3)":"750"}]}"#);
    let a = svc.respond_whatif_spec(fig1_net(), &first);
    let b = svc.respond_whatif_spec(fig1_net(), &first);
    assert_eq!(a, b, "a repeated batch must be byte-identical");
    let stats = svc.stats_json();
    assert!(stats.contains(r#""whatifs":2"#), "{stats}");
    assert!(stats.contains(r#""whatif_perturbations":4"#), "{stats}");
    assert!(stats.contains(r#""whatif_hits":2"#), "{stats}");
    assert!(stats.contains(r#""whatif_rejects":0"#), "{stats}");
    // One session per perturbed net: the base net's plus one miss per
    // distinct timing point, built only on the first batch.
    assert_eq!(svc.cache().stats().sessions.misses, 3);
    // A different batch sharing one timing point hits that entry: the
    // cache key is (structural digest, timing, requests), not the batch.
    let second = spec(r#"{"perturbations":[{"E(t3)":"750"},{"E(t3)":"1250"}]}"#);
    svc.respond_whatif_spec(fig1_net(), &second);
    let stats = svc.stats_json();
    assert!(stats.contains(r#""whatif_hits":3"#), "{stats}");
    assert_eq!(svc.cache().stats().sessions.misses, 4);
}

#[test]
fn whatif_entries_are_shared_across_base_nets() {
    // Two structurally identical bases that differ only in E(t3) merge
    // the same perturbation to the same timing point: the second batch
    // hits the first one's entry and builds no session for the
    // perturbed net.
    let svc = Service::new(ServiceConfig::default());
    let spec =
        WhatifSpec::from_json(&Json::parse(r#"{"perturbations":[{"E(t3)":"500"}]}"#).unwrap())
            .unwrap();
    let other = fig1_net()
        .with_timing(&TimingAssignment::new().with("E(t3)", Rational::from_int(2000)))
        .unwrap();
    svc.respond_whatif_spec(fig1_net(), &spec);
    assert!(svc.stats_json().contains(r#""whatif_hits":0"#));
    // The second base's own session, resolved up front so the count
    // below sees only what the batch builds.
    svc.session_for(other.clone());
    let misses = svc.cache().stats().sessions.misses;
    svc.respond_whatif_spec(other, &spec);
    let stats = svc.stats_json();
    assert!(stats.contains(r#""whatif_hits":1"#), "{stats}");
    assert_eq!(svc.cache().stats().sessions.misses, misses);
}

#[test]
fn whatif_shares_cache_lines_with_plain_analyses() {
    // An /analyze of the perturbed net after a what-if over the base
    // net is a body-tier cache hit: the entry's inner analyses are
    // cached under the perturbed net's full (digest, kind) key.
    let svc = Service::new(ServiceConfig::default());
    let spec =
        WhatifSpec::from_json(&Json::parse(r#"{"perturbations":[{"E(t3)":"500"}]}"#).unwrap())
            .unwrap();
    svc.respond_whatif_spec(fig1_net(), &spec);
    let before = svc.cache().stats();
    let perturbed = fig1_net()
        .with_timing(&TimingAssignment::new().with("E(t3)", Rational::from_int(500)))
        .unwrap();
    let (status, _) = svc.respond(RequestKind::Analyze, &format!("{perturbed}"));
    assert_eq!(status, 200);
    let after = svc.cache().stats();
    assert_eq!(after.hits, before.hits + 1);
    // ... answered without touching the session tier: no session was
    // looked up or created, so no pipeline stage re-ran either.
    assert_eq!(after.sessions, before.sessions);
    assert_eq!(after.computations, before.computations);
}

#[test]
fn v1_whatif_kind_matches_post_whatif() {
    let (handle, addr) = start_server();
    let perturbations = r#"[{"E(t3)":"500"},{"E(t3)":"100"}]"#;
    let spec = format!(r#"{{"perturbations":{perturbations}}}"#);
    let (status, standalone) = http(addr, "POST", "/whatif", &whatif_body(perturbations));
    assert_eq!(status, 200, "{standalone}");
    let envelope = format!(
        r#"{{"net":{},"requests":[{{"kind":"whatif","spec":{spec}}}]}}"#,
        timed_petri::service::json::escape(&fig1_text())
    );
    let (status, v1) = http(addr, "POST", "/v1", &envelope);
    assert_eq!(status, 200, "{v1}");
    assert!(
        v1.contains(&format!(
            r#"{{"kind":"whatif","status":200,"body":{standalone}}}"#
        )),
        "the /v1 whatif entry must wrap the exact POST /whatif body\n{v1}"
    );
    // /stats reports the what-if surface.
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(json_counter(&stats, "whatifs"), 2);
    assert_eq!(json_counter(&stats, "whatif_perturbations"), 4);
    assert_eq!(json_counter(&stats, "whatif_rejects"), 2);
    handle.shutdown();
}

#[test]
fn whatif_cli_is_byte_identical_to_the_server() {
    let (handle, addr) = start_server();
    let spec = r#"{"requests":["analyze","invariants"],"perturbations":[{"E(t3)":"500"},{"F(t4)":"1067/5"}]}"#;
    let with_net = format!(
        r#"{{"net":{},"requests":["analyze","invariants"],"perturbations":[{{"E(t3)":"500"}},{{"F(t4)":"1067/5"}}]}}"#,
        timed_petri::service::json::escape(&fig1_text())
    );
    let (status, server_body) = http(addr, "POST", "/whatif", &with_net);
    assert_eq!(status, 200, "{server_body}");
    handle.shutdown();

    let dir = std::env::temp_dir().join(format!("tpn-whatif-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec).unwrap();
    let net_path = format!("{}/fig1.tpn", common::fixture_dir());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tpn"))
        .arg("whatif")
        .arg(&net_path)
        .arg(&spec_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{server_body}\n"),
        "tpn whatif must print the exact server body"
    );
    std::fs::remove_dir_all(&dir).ok();
}
