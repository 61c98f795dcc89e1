//! Acceptance tests for the parameter-synthesis subsystem on the
//! paper's Figure-1 protocol:
//!
//! * `tpn optimize` / `POST /optimize` find the timeout that maximises
//!   the t7 throughput with an **exact certificate** (the derivative's
//!   sign is certified on the whole feasible interval), and the answer
//!   matches a 10 000-point sweep argmax to within one grid cell;
//! * the `f64` refiner run on the same problem agrees with the exact
//!   engine within tolerance;
//! * the daemon's `POST /optimize` response is byte-identical to the
//!   `tpn optimize` CLI output (two different processes), a repeat is
//!   a cache hit, and `/stats` exposes the optimize counters.

// These tests drive the daemon over loopback; it serves on Linux only.
#![cfg(target_os = "linux")]

use std::process::Command;
use std::sync::Arc;

use timed_petri::prelude::*;
use timed_petri::service::{
    json, optimize_json, spawn, Json, OptimizeSpec, Service, ServiceConfig,
};
use tpn_net::symbols;

mod common;
use common::{fig1_text, http, json_counter};

/// The spec used throughout: maximise the acknowledged-message
/// throughput over the timeout E(t3) ∈ [300, 2050].
fn spec_text() -> String {
    r#"{"target":"throughput:t7","goal":"max","box":[{"symbol":"E(t3)","from":"300","to":"2050"}]}"#
        .to_string()
}

fn parse_spec() -> OptimizeSpec {
    OptimizeSpec::from_json(&Json::parse(&spec_text()).unwrap()).unwrap()
}

/// Derive the lifted t7-throughput closed form and the validity region
/// directly — the independent ground truth the endpoints must match.
fn fig1_objective() -> (RatFn, Vec<tpn_symbolic::Constraint>, Symbol) {
    let net = tpn_net::parse_tpn(&fig1_text()).unwrap();
    let e3 = symbols::enabling("t3");
    let domain = LiftedDomain::new(&net, &[e3]).unwrap();
    let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
    let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
    let rates = solve_rates(&dg, 0).unwrap();
    let perf = Performance::new(&dg, rates, &domain).unwrap();
    let t7 = net.transition_by_name("t7").unwrap();
    let expr = perf.export_expr(&dg, &trg, &domain, ExprTarget::Throughput(t7));
    (expr, domain.region_constraints(), e3)
}

#[test]
fn fig1_timeout_optimum_is_certified_and_matches_a_10k_sweep_argmax() {
    let net = tpn_net::parse_tpn(&fig1_text()).unwrap();
    let (body, certified) = optimize_json(
        &timed_petri::session::Session::new(
            net.clone(),
            timed_petri::session::SessionOptions::new()
                .threads(4)
                .max_points(1_000_000),
        ),
        &parse_spec(),
    )
    .unwrap();
    assert!(certified, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("certified"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("engine").and_then(Json::as_str),
        Some("exact-univariate")
    );
    // The throughput is strictly decreasing in the timeout across the
    // whole feasible interval, so the certified optimum is the box's
    // lower edge with a negative-derivative boundary certificate.
    let point = doc.get("point").unwrap();
    let x_opt: Rational = point
        .get("E(t3)")
        .and_then(Json::as_str)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(x_opt, Rational::from_int(300));
    let cert = doc.get("certificate").unwrap();
    assert_eq!(cert.get("kind").and_then(Json::as_str), Some("boundary"));
    assert_eq!(cert.get("end").and_then(Json::as_str), Some("lower"));
    assert_eq!(
        cert.get("derivative_sign").and_then(Json::as_num),
        Some("-1"),
        "{body}"
    );
    // The region names the paper's constraint (1): timeout > 226.9 ms.
    assert!(body.contains("-2269/10 + E(t3) > 0"), "{body}");

    // Exact objective value at the optimum, cross-checked against the
    // independently derived closed form.
    let value: Rational = doc
        .get("value")
        .and_then(Json::as_str)
        .unwrap()
        .parse()
        .unwrap();
    let (expr, _, e3) = fig1_objective();
    let at = Assignment::new().with(e3, x_opt);
    assert_eq!(expr.eval(&at), Some(value));

    // A 10 000-point exhaustive sweep over the same interval must
    // agree to within one grid cell (here: exactly, the argmax is the
    // shared lower endpoint).
    let spec = timed_petri::service::SweepSpec::from_json(
        &Json::parse(
            r#"{"targets":["throughput:t7"],"sweep":[{"symbol":"E(t3)","from":"300","to":"2050","steps":10000}]}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let (sweep_body, points) = timed_petri::service::sweep_json(
        &timed_petri::session::Session::new(
            net.clone(),
            timed_petri::session::SessionOptions::new()
                .threads(4)
                .max_points(1_000_000),
        ),
        &spec,
    )
    .unwrap();
    assert_eq!(points, 10_000);
    let sweep_doc = Json::parse(&sweep_body).unwrap();
    let rows = sweep_doc.get("rows").and_then(Json::as_arr).unwrap();
    let mut best: Option<(Rational, f64)> = None;
    for row in rows {
        let row = row.as_arr().unwrap();
        let coord: Rational = row[0].as_arr().unwrap()[0]
            .as_str()
            .unwrap()
            .parse()
            .unwrap();
        let Some(v) = row[1].as_arr().unwrap()[0]
            .as_num()
            .and_then(|n| n.parse::<f64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| v > *b) {
            best = Some((coord, v));
        }
    }
    let (argmax, grid_best) = best.expect("sweep has defined rows");
    let cell = Rational::new(2050 - 300, 9999);
    let gap = if argmax > x_opt {
        argmax - x_opt
    } else {
        x_opt - argmax
    };
    assert!(gap <= cell, "argmax {argmax} vs certified {x_opt}");
    // And the certified exact value dominates the grid's best.
    assert!(
        value.to_f64() >= grid_best - 1e-12,
        "{value} vs {grid_best}"
    );
}

#[test]
fn f64_refiner_agrees_with_the_exact_engine_within_tolerance() {
    let (expr, region, e3) = fig1_objective();
    let axes = [(e3, Rational::from_int(300), Rational::from_int(2050))];
    let exact = timed_petri::opt::optimize_univariate(
        &expr,
        e3,
        Rational::from_int(300),
        Rational::from_int(2050),
        &region,
        OptGoal::Maximize,
        Rational::new(1, 1 << 20),
    )
    .unwrap();
    assert!(exact.certified());
    let refined = timed_petri::opt::optimize_multivariate(
        &expr,
        &axes,
        &region,
        OptGoal::Maximize,
        &OptOptions::default(),
    )
    .unwrap();
    assert!(!refined.certified(), "the refiner never claims a proof");
    // Same point (the boundary is a seed-grid point, so the refiner
    // lands on it exactly) and matching values within f64 tolerance.
    let dx = (refined.point[0].1.to_f64() - exact.point[0].1.to_f64()).abs();
    assert!(dx <= 1e-9, "{dx}");
    let dv = (refined.value_f64 - exact.value_f64).abs();
    assert!(dv <= 1e-12 * exact.value_f64.abs().max(1.0), "{dv}");
}

#[test]
fn server_optimize_is_byte_identical_to_cli_and_counted_in_stats() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let handle = spawn(service, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    // POST /optimize: the spec object plus the net text in-body.
    let net_text = fig1_text();
    let mut body = spec_text();
    body.insert_str(1, &format!("\"net\":{},", json::escape(&net_text)));
    let (status, server_out) = http(addr, "POST", "/optimize", &body);
    assert_eq!(status, 200, "{server_out}");
    assert!(server_out.contains(r#""certified":true"#), "{server_out}");

    // The same spec through the CLI binary (a different process with a
    // different symbol-interning history) must print the same bytes.
    let spec_path = std::env::temp_dir().join(format!("tpn_opt_spec_{}.json", std::process::id()));
    std::fs::write(&spec_path, spec_text()).unwrap();
    let fixture = format!("{}/tests/fixtures/fig1.tpn", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(["optimize", &fixture, spec_path.to_str().unwrap()])
        .output()
        .expect("tpn binary runs");
    std::fs::remove_file(&spec_path).ok();
    assert!(
        out.status.success(),
        "tpn optimize failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli_out = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        cli_out.trim_end_matches('\n'),
        server_out,
        "server and CLI optimize output must be byte-identical"
    );

    // Counters: one solve (certified); the repeat is a cache hit.
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(json_counter(&stats, "optimizes"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "optimize_solves"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "optimize_certified"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "optimize_hits"), 0, "{stats}");
    let (status, again) = http(addr, "POST", "/optimize", &body);
    assert_eq!(status, 200);
    assert_eq!(again, server_out, "cache hit must be byte-identical");
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(json_counter(&stats, "optimizes"), 2, "{stats}");
    assert_eq!(json_counter(&stats, "optimize_solves"), 1, "{stats}");
    assert_eq!(json_counter(&stats, "optimize_hits"), 1, "{stats}");

    handle.shutdown();
}

#[test]
fn optimize_errors_map_to_statuses() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let handle = spawn(service, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    // no net member
    let (status, body) = http(addr, "POST", "/optimize", &spec_text());
    assert_eq!(status, 400, "{body}");
    // net text does not parse
    let mut bad_net = spec_text();
    bad_net.insert_str(1, "\"net\":\"not a net\",");
    let (status, body) = http(addr, "POST", "/optimize", &bad_net);
    assert_eq!(status, 400);
    assert!(body.contains("parse error"), "{body}");
    // unknown box symbol names the culprit
    let mut unknown =
        r#"{"target":"throughput:t7","box":[{"symbol":"E(zz)","from":"1","to":"2"}]}"#.to_string();
    unknown.insert_str(1, &format!("\"net\":{},", json::escape(&fig1_text())));
    let (status, body) = http(addr, "POST", "/optimize", &unknown);
    assert_eq!(status, 400);
    assert!(body.contains("E(zz)"), "{body}");
    // wrong method
    let (status, _) = http(addr, "GET", "/optimize", "");
    assert_eq!(status, 405);
    handle.shutdown();
}
