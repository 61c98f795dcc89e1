//! `Performance::throughputs` — every transition's throughput in one
//! pass over the decision edges — agrees with the per-transition
//! `Performance::throughput` and with the definition spelled out as
//! repeated addition, `Σₑ Σ{t ∈ fired(e)} rₑ / Σ wᵢ`.

use timed_petri::prelude::*;
use timed_petri::protocols::{abp::abp, families::lossy_chain, simple};
use tpn_linalg::Field;
use tpn_net::TransId;
use tpn_reach::AnalysisDomain;

fn solve<D: AnalysisDomain>(net: &TimedPetriNet, domain: &D) -> (DecisionGraph<D>, Performance<D>)
where
    D::Prob: Field,
{
    let trg = build_trg(net, domain, &TrgOptions::default()).unwrap();
    let dg = DecisionGraph::from_trg(&trg, domain).unwrap();
    let rates = solve_rates(&dg, 0).unwrap();
    let perf = Performance::new(&dg, rates, domain).unwrap();
    (dg, perf)
}

/// One `rₑ` added per firing, in edge order.
fn by_definition<D: AnalysisDomain>(
    dg: &DecisionGraph<D>,
    perf: &Performance<D>,
    t: TransId,
) -> D::Prob
where
    D::Prob: Field,
{
    let mut num = D::Prob::zero();
    for (ei, e) in dg.edges().iter().enumerate() {
        for _ in dg.fired(e).iter().filter(|&&x| x == t) {
            num = num.add(perf.rates().rate(ei));
        }
    }
    num.div(perf.total_weight())
}

/// Asserts the one-pass vector against both references for every
/// transition of `net`, and returns the most firings of one transition
/// along one edge.
fn check<D: AnalysisDomain>(net: &TimedPetriNet, domain: &D) -> usize
where
    D::Prob: Field,
{
    let (dg, perf) = solve(net, domain);
    let all = perf.throughputs(&dg);
    assert!(all.len() <= net.num_transitions());
    for t in net.transitions() {
        let one_pass = all.get(t.index()).cloned().unwrap_or_else(D::Prob::zero);
        assert_eq!(
            one_pass,
            perf.throughput(&dg, t),
            "{}",
            net.transition(t).name()
        );
        assert_eq!(
            one_pass,
            by_definition(&dg, &perf, t),
            "{}",
            net.transition(t).name()
        );
    }
    dg.edges()
        .iter()
        .flat_map(|e| dg.fired(e).iter().map(|&t| dg.firings_of(e, t)))
        .max()
        .unwrap_or(0)
}

#[test]
fn fig1() {
    check(&simple::paper().net, &NumericDomain::new());
}

#[test]
fn fig1_symbolic() {
    let (proto, cs) = simple::symbolic();
    check(&proto.net, &SymbolicDomain::new(&proto.net, cs));
}

#[test]
fn abp_paper_timing() {
    check(&abp(&simple::Params::paper()).net, &NumericDomain::new());
}

#[test]
fn lossy_chain_32() {
    let (net, _) = lossy_chain(32, Rational::new(1, 10), Rational::ONE);
    check(&net, &NumericDomain::new());
}

/// `t` fires twice along each collapsed path: a counter token (`c0` →
/// `c1` → `c0`) sends the token round `t` a second time before the
/// path returns to the decision at `d`.
#[test]
fn one_edge_fires_a_transition_twice() {
    let mut b = NetBuilder::new("twice");
    let d = b.place("d", 1);
    let p = b.place("p", 0);
    let q = b.place("q", 0);
    let c0 = b.place("c0", 1);
    let c1 = b.place("c1", 0);
    b.transition("fast")
        .input(d)
        .output(p)
        .firing_const(1)
        .weight_const(3)
        .add();
    b.transition("slow")
        .input(d)
        .output(p)
        .firing_const(5)
        .weight_const(1)
        .add();
    b.transition("t").input(p).output(q).firing_const(2).add();
    b.transition("again")
        .input(q)
        .input(c0)
        .output(p)
        .output(c1)
        .firing_const(1)
        .add();
    b.transition("exit")
        .input(q)
        .input(c1)
        .output(d)
        .output(c0)
        .firing_const(1)
        .add();
    let net = b.build().unwrap();
    assert_eq!(check(&net, &NumericDomain::new()), 2);
    // Two firings of t per cycle; a cycle takes 3/4·1 + 1/4·5 + 2+1+2+1.
    let (dg, perf) = solve(&net, &NumericDomain::new());
    let t = net.transition_by_name("t").unwrap();
    assert_eq!(perf.throughputs(&dg)[t.index()], Rational::new(1, 4));
}
