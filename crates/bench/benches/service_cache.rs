//! E11 — serving throughput of the analysis daemon: cold misses vs.
//! warm hits of the content-addressed result cache.
//!
//! Both benchmarks measure the *full in-process request path* of
//! `tpn-service` (`Service::respond`: parse → digest → cache →
//! serialize) on a producer–consumer net with buffer capacity 32 — a
//! small `.tpn` document whose reachability graph is large, i.e. the
//! regime a result cache is for:
//!
//! * `cold_miss` appends a fresh (unused) place per request, so every
//!   request is a distinct digest and runs the whole exact pipeline
//!   (TRG → decision graph → exact rational rates → JSON);
//! * `warm_hit` repeats the identical request, so after the first
//!   iteration every request is answered from the cache — the residual
//!   cost is parse + digest + one cache lookup.
//!
//! The hit/miss request-rate ratio is the headroom the cache buys a
//! serving deployment with repeated nets; `BENCH_1.json` records it.
//! The paper's Figure-1 net is included as a small-net reference point
//! (its pipeline is so cheap that parse+digest dominate both sides).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tpn_protocols::families;
use tpn_rational::Rational;
use tpn_service::{RequestKind, Service, ServiceConfig};

const FIG1: &str = include_str!("../../../tests/fixtures/fig1.tpn");

fn bench_one(g: &mut criterion::BenchmarkGroup<'_>, label: &str, src: &str) {
    // Every iteration a fresh digest: an appended unused place changes
    // the content hash without touching the pipeline's behaviour.
    g.bench_with_input(BenchmarkId::new("cold_miss", label), &src, |b, src| {
        let service = Service::new(ServiceConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let unique = format!("{src}\nplace cold_marker_{i}\n");
            let (status, body) = service.respond(RequestKind::Analyze, black_box(&unique));
            assert_eq!(status, 200, "{body}");
            black_box(body)
        })
    });

    // Identical request every iteration: after the first, pure hits.
    g.bench_with_input(BenchmarkId::new("warm_hit", label), &src, |b, src| {
        let service = Service::new(ServiceConfig::default());
        b.iter(|| {
            let (status, body) = service.respond(RequestKind::Analyze, black_box(src));
            assert_eq!(status, 200, "{body}");
            black_box(body)
        })
    });
}

fn bench_service_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("service/analyze_request");
    g.throughput(Throughput::Elements(1));
    let prodcons =
        families::producer_consumer(32, Rational::from_int(2), Rational::from_int(5)).to_tpn();
    bench_one(&mut g, "producer_consumer_32", &prodcons);
    bench_one(&mut g, "fig1", FIG1);
    g.finish();
}

criterion_group!(benches, bench_service_cache);
criterion_main!(benches);
