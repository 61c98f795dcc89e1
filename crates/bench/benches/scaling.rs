//! E10 — scaling ablations beyond the paper's example: how the
//! construction and the rate solvers behave as the model grows.
//!
//! * TRG construction vs. cycle length, fork/join width,
//!   producer–consumer capacity and lossy-chain length;
//! * decision-graph rate solving (GTH reduction over the decision
//!   nodes) on lossy forwarding chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpn_core::{solve_rates, DecisionGraph};
use tpn_protocols::families;
use tpn_rational::Rational;
use tpn_reach::{build_trg, NumericDomain, TrgOptions};

fn bench_trg_scaling(c: &mut Criterion) {
    let domain = NumericDomain::new();
    let opts = TrgOptions::default();
    let mut g = c.benchmark_group("scaling/trg_cycle_length");
    for n in [4usize, 16, 64, 256] {
        let times: Vec<Rational> = (1..=n).map(|i| Rational::from_int(i as i128)).collect();
        let net = families::cycle(&times);
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scaling/trg_fork_join_width");
    for n in [2usize, 4, 8, 12] {
        let net = families::fork_join(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scaling/trg_buffer_capacity");
    for cap in [1u32, 4, 16, 64] {
        let net = families::producer_consumer(cap, Rational::from_int(2), Rational::from_int(5));
        g.bench_with_input(BenchmarkId::from_parameter(cap), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();

    // Many transitions, one token: 2·hops + 1 transitions but at most
    // one clock live per state, the shape where per-state storage
    // proportional to |T| would dominate construction.
    let mut g = c.benchmark_group("scaling/trg_lossy_chain");
    for hops in [8usize, 16, 32] {
        let (net, _) = families::lossy_chain(hops, Rational::new(1, 10), Rational::from_int(2));
        g.bench_with_input(BenchmarkId::from_parameter(hops), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();
}

fn bench_rate_solver(c: &mut Criterion) {
    let domain = NumericDomain::new();
    let opts = TrgOptions::default();
    // Exact rates stay inside the checked-i128 rational substrate up to
    // 38 hops with 1/10 loss probabilities; at 40 hops the coefficient
    // growth overflows (as it did for the edge-level null-space solve
    // this replaced), and so does a net of two independent lossy loops
    // (33 decision nodes).
    let mut g = c.benchmark_group("scaling/rate_solver");
    for hops in [4usize, 16, 32] {
        let (net, _) = families::lossy_chain(hops, Rational::new(1, 10), Rational::from_int(2));
        let trg = build_trg(&net, &domain, &opts).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        eprintln!(
            "[scaling] lossy_chain({hops}): {} states, {} decision nodes, {} decision edges",
            trg.num_states(),
            dg.num_nodes(),
            dg.num_edges()
        );
        g.bench_with_input(BenchmarkId::from_parameter(hops), &dg, |b, dg| {
            b.iter(|| black_box(solve_rates(dg, 0).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_trg_scaling, bench_rate_solver);
criterion_main!(benches);
