//! Acceptance tests for the parameter-sweep subsystem on the paper's
//! Figure-1 protocol:
//!
//! * a ≥1000-point grid over the symbolic throughput expression where
//!   the compiled `f64` backend matches exact evaluation to 1e-9
//!   relative error at every point;
//! * the daemon's `POST /sweep` response is byte-identical to the
//!   `tpn sweep` CLI output for the same net and spec (two different
//!   processes — this also pins down that compilation order does not
//!   depend on symbol interning order);
//! * `/stats` exposes the sweep counters, and a repeated sweep is a
//!   cache hit with no recompilation.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::process::Command;
use std::sync::Arc;

use timed_petri::prelude::*;
use timed_petri::service::{json, spawn, Json, Service, ServiceConfig, SweepSpec};
use tpn_net::symbols;

mod common;
use common::{fig1_text, http, json_counter};

/// The spec used throughout: 251 timeout values (300..2050 in steps
/// of 7, so the paper's E(t3)=1000 is on the grid) × 4 packet-loss
/// weights = 1004 grid points over the t7 throughput.
fn spec_text(backend: &str) -> String {
    format!(
        r#"{{"targets":["throughput:t7"],"sweep":[{{"symbol":"E(t3)","from":"300","to":"2050","steps":251}},{{"symbol":"f(t5)","values":["1/100","1/20","1/10","1/5"]}}],"backend":"{backend}"}}"#
    )
}

fn parse_spec(backend: &str) -> SweepSpec {
    SweepSpec::from_json(&Json::parse(&spec_text(backend)).unwrap()).unwrap()
}

/// Pull `(coordinates, values)` out of a response document.
fn rows_of(body: &str) -> Vec<(Vec<Rational>, Vec<Json>)> {
    let doc = Json::parse(body).expect("response is valid JSON");
    doc.get("rows")
        .and_then(Json::as_arr)
        .expect("rows array")
        .iter()
        .map(|row| {
            let pair = row.as_arr().expect("row is [coords, values]");
            let coords = pair[0]
                .as_arr()
                .unwrap()
                .iter()
                .map(|c| c.as_str().unwrap().parse::<Rational>().unwrap())
                .collect();
            (coords, pair[1].as_arr().unwrap().to_vec())
        })
        .collect()
}

#[test]
fn f64_backend_matches_exact_to_1e9_on_a_1000_point_grid() {
    let net = tpn_net::parse_tpn(&fig1_text()).unwrap();
    let (fast_body, fast_points) = timed_petri::service::sweep_json(
        &timed_petri::session::Session::new(
            net.clone(),
            timed_petri::session::SessionOptions::new()
                .threads(4)
                .max_points(1_000_000),
        ),
        &parse_spec("f64"),
    )
    .unwrap();
    let (exact_body, _) = timed_petri::service::sweep_json(
        &timed_petri::session::Session::new(
            net.clone(),
            timed_petri::session::SessionOptions::new()
                .threads(4)
                .max_points(1_000_000),
        ),
        &parse_spec("exact"),
    )
    .unwrap();
    assert_eq!(fast_points, 1004, "acceptance requires a ≥1000-point grid");
    let fast = rows_of(&fast_body);
    let exact = rows_of(&exact_body);
    assert_eq!(fast.len(), 1004);
    assert_eq!(exact.len(), 1004);
    for ((fc, fv), (ec, ev)) in fast.iter().zip(&exact) {
        assert_eq!(fc, ec, "same grid in both backends");
        let approx: f64 = fv[0].as_num().expect("f64 value").parse().unwrap();
        let truth = ev[0]
            .as_str()
            .expect("exact value")
            .parse::<Rational>()
            .unwrap()
            .to_f64();
        assert!(
            (approx - truth).abs() <= 1e-9 * truth.abs(),
            "at {fc:?}: {approx} vs {truth}"
        );
    }
}

#[test]
fn exact_rows_agree_with_the_symbolic_expression() {
    // Independent ground truth: derive the lifted throughput expression
    // directly and evaluate it with RatFn::eval at a few grid points.
    let net = tpn_net::parse_tpn(&fig1_text()).unwrap();
    let e3 = symbols::enabling("t3");
    let f5 = symbols::frequency("t5");
    let domain = LiftedDomain::new(&net, &[e3, f5]).unwrap();
    let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
    let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
    let rates = solve_rates(&dg, 0).unwrap();
    let perf = Performance::new(&dg, rates, &domain).unwrap();
    let t7 = net.transition_by_name("t7").unwrap();
    let expr = perf.export_expr(&dg, &trg, &domain, ExprTarget::Throughput(t7));

    let (exact_body, _) = timed_petri::service::sweep_json(
        &timed_petri::session::Session::new(
            net.clone(),
            timed_petri::session::SessionOptions::new()
                .threads(2)
                .max_points(1_000_000),
        ),
        &parse_spec("exact"),
    )
    .unwrap();
    let rows = rows_of(&exact_body);
    for (coords, values) in rows.iter().step_by(97) {
        let at = Assignment::new().with(e3, coords[0]).with(f5, coords[1]);
        let want = expr.eval(&at).expect("expression defined on the grid");
        let got = values[0].as_str().unwrap().parse::<Rational>().unwrap();
        assert_eq!(got, want, "at {coords:?}");
    }
    // At the paper's own operating point the throughput must be the
    // paper's number (E(t3)=1000 is on the grid; f(t5)=1/20 is too).
    let paper = rows
        .iter()
        .find(|(c, _)| c[0] == Rational::from_int(1000) && c[1] == Rational::new(1, 20))
        .expect("paper point on the grid");
    assert_eq!(
        paper.1[0].as_str().unwrap().parse::<Rational>().unwrap(),
        Rational::new(1805, 632922),
        "18.05/6329.22 messages per millisecond"
    );
}

#[test]
fn server_sweep_is_byte_identical_to_cli_and_counted_in_stats() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let handle = spawn(service, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    // POST /sweep: the spec object plus the net text in-body.
    let net_text = fig1_text();
    let mut body = spec_text("f64");
    body.insert_str(1, &format!("\"net\":{},", json::escape(&net_text)));
    let (status, server_out) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200, "{server_out}");
    assert!(
        server_out.contains(r#""points":1004"#),
        "{}",
        &server_out[..200.min(server_out.len())]
    );
    // The recorded validity region mentions the timeout symbol: the
    // derivation froze comparisons involving E(t3).
    assert!(server_out.contains(r#""region":["#), "{server_out}");
    assert!(server_out.contains("E(t3)"), "region names the timeout");

    // The same spec through the CLI binary (a different process with a
    // different symbol-interning history) must print the same bytes.
    let spec_path =
        std::env::temp_dir().join(format!("tpn_sweep_spec_{}.json", std::process::id()));
    std::fs::write(&spec_path, spec_text("f64")).unwrap();
    let fixture = format!("{}/tests/fixtures/fig1.tpn", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["sweep", &fixture, spec_path.to_str().unwrap()])
        .output()
        .expect("tpn binary runs");
    std::fs::remove_file(&spec_path).ok();
    assert!(
        out.status.success(),
        "tpn sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli_out = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        cli_out.trim_end_matches('\n'),
        server_out,
        "server and CLI sweep output must be byte-identical"
    );

    // Counters: one sweep evaluated, 1000 points; the repeat is a hit.
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(json_counter(&stats, "sweeps"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "sweep_compiles"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "sweep_points"), 1004, "{stats}");
    assert_eq!(json_counter(&stats, "sweep_hits"), 0, "{stats}");
    let (status, again) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200);
    assert_eq!(again, server_out, "cache hit must be byte-identical");
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(json_counter(&stats, "sweeps"), 2, "{stats}");
    assert_eq!(json_counter(&stats, "sweep_compiles"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "sweep_hits"), 1, "{stats}");

    handle.shutdown();
}

#[test]
fn rows_carry_an_exact_in_region_flag() {
    // Sweep the timeout *across* the paper's constraint (1) boundary
    // (E(t3) > 226.9 ms): rows at 100/150/200 are outside the frozen
    // region (the graph would change shape there), 250/300 inside.
    let net = tpn_net::parse_tpn(&fig1_text()).unwrap();
    let spec = SweepSpec::from_json(
        &Json::parse(
            r#"{"targets":["throughput:t7"],"sweep":[{"symbol":"E(t3)","from":"100","to":"300","steps":5}]}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let (body, points) = timed_petri::service::sweep_json(
        &timed_petri::session::Session::new(
            net.clone(),
            timed_petri::session::SessionOptions::new()
                .threads(2)
                .max_points(1000),
        ),
        &spec,
    )
    .unwrap();
    assert_eq!(points, 5);
    let doc = Json::parse(&body).unwrap();
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    let mut flags = Vec::new();
    for row in rows {
        let row = row.as_arr().unwrap();
        assert_eq!(row.len(), 3, "rows are [[coords],[values],in_region]");
        let coord = row[0].as_arr().unwrap()[0].as_str().unwrap().to_string();
        let flag = match &row[2] {
            Json::Bool(b) => *b,
            other => panic!("in_region must be a bool, got {other:?}"),
        };
        flags.push((coord, flag));
    }
    assert_eq!(
        flags,
        vec![
            ("100".to_string(), false),
            ("150".to_string(), false),
            ("200".to_string(), false),
            ("250".to_string(), true),
            ("300".to_string(), true),
        ],
        "{body}"
    );
    // The flag is consistent with checking the rendered region by hand:
    // every strict constraint of the region holds at 250 and 300 only.
    let region = doc.get("region").and_then(Json::as_arr).unwrap();
    assert!(
        !region.is_empty(),
        "lifting the timeout records comparisons"
    );
}

#[test]
fn sweep_errors_map_to_statuses() {
    let service = Arc::new(Service::new(ServiceConfig {
        max_sweep_points: 100,
        ..ServiceConfig::default()
    }));
    let handle = spawn(service, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    // no net member
    let (status, body) = http(addr, "POST", "/sweep", &spec_text("f64"));
    assert_eq!(status, 400, "{body}");
    // net text does not parse
    let mut bad_net = spec_text("f64");
    bad_net.insert_str(1, "\"net\":\"not a net\",");
    let (status, body) = http(addr, "POST", "/sweep", &bad_net);
    assert_eq!(status, 400);
    assert!(body.contains("parse error"), "{body}");
    // grid over the configured cap
    let mut over = spec_text("f64");
    over.insert_str(1, &format!("\"net\":{},", json::escape(&fig1_text())));
    let (status, body) = http(addr, "POST", "/sweep", &over);
    assert_eq!(status, 400);
    assert!(body.contains("1004 points"), "{body}");
    // wrong method
    let (status, _) = http(addr, "GET", "/sweep", "");
    assert_eq!(status, 405);
    handle.shutdown();
}
