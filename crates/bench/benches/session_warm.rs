//! E12 — the cached session's warm path: a `/sweep` served by a service
//! that already holds the net's session (and therefore its lifted
//! domain + compiled program) vs. the same sweep against a cold
//! service.
//!
//! Both sides measure the full in-process `/sweep` request path on the
//! paper's Figure-1 net with a 256-point grid over the timeout `E(t3)`.
//! To isolate the session's *artifacts* from its cached *bodies*,
//! every request uses a fresh grid (the `from` endpoint is perturbed
//! per iteration), so the `(digest, spec-hash)` body key never repeats:
//!
//! * `cold` uses a fresh `Service` per iteration — the sweep pays
//!   lift + TRG + decision graph + rates + export + compile + evaluate;
//! * `warm` reuses one `Service` whose session was primed by a single
//!   `/analyze` + first `/sweep` — the per-iteration cost is
//!   spec parse + compile (new shape per spec? no: same axes/targets,
//!   so the *lift* is shared; only the grid evaluation and JSON differ).
//!
//! The warm/cold request-rate ratio is what the cached session buys a
//! deployment where clients iterate on grids over the same net;
//! `BENCH_4.json` records it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tpn_service::{RequestKind, Service, ServiceConfig};

const FIG1: &str = include_str!("../../../tests/fixtures/fig1.tpn");

/// A sweep request body over `E(t3)` whose `from` endpoint varies per
/// iteration — same axes and targets (same lift artifact), distinct
/// spec hash (no body-cache hit).
fn sweep_body(from: u64) -> String {
    format!(
        r#"{{"net":{},"targets":["throughput:t7"],"sweep":[{{"symbol":"E(t3)","from":"{from}","to":"2050","steps":256}}]}}"#,
        tpn_service::json::escape(FIG1)
    )
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_warm");
    g.throughput(Throughput::Elements(1));

    // Cold: every iteration pays the whole derivation chain.
    g.bench_function("sweep_cold", |b| {
        let mut i = 300u64;
        b.iter(|| {
            let service = Service::new(ServiceConfig::default());
            i += 1;
            let (status, body) = service.respond_sweep(black_box(&sweep_body(i)));
            assert_eq!(status, 200, "{body}");
            black_box(body);
        });
    });

    // Warm: one service, session primed by /analyze + a first /sweep;
    // each iteration's new grid reuses the memoized lift.
    g.bench_function("sweep_warm_after_analyze", |b| {
        let service = Service::new(ServiceConfig::default());
        let (status, _) = service.respond(RequestKind::Analyze, FIG1);
        assert_eq!(status, 200);
        let (status, _) = service.respond_sweep(&sweep_body(300));
        assert_eq!(status, 200);
        let mut i = 10_000u64;
        b.iter(|| {
            i += 1;
            let (status, body) = service.respond_sweep(black_box(&sweep_body(i)));
            assert_eq!(status, 200, "{body}");
            black_box(body);
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
