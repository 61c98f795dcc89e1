//! Paper-vs-lift oracle: the paper's §3 derivation and the lift agree.
//!
//! The Figure-1 protocol is derived twice:
//!
//! * the paper's way — `simple::symbolic()`, every time and the medium
//!   frequencies unknown, comparisons discharged by the constraints
//!   (1)–(4) ([`SymbolicDomain`]);
//! * the sweep's way — the fully timed `simple::paper()` with the same
//!   attributes lifted back into symbols, `E(t3)`, `F(t1..t9)` and
//!   `f(t4,t5,t8,t9)`, comparisons frozen at the Figure-1b values
//!   ([`LiftedDomain`]).
//!
//! Every transition's throughput and the total weight are exported from
//! both and evaluated exactly at points that satisfy (1)–(4) and the
//! lift's `check_point`: the values must be equal, with no tolerance.

use timed_petri::prelude::*;
use timed_petri::protocols::simple;
use tpn_net::symbols;
use tpn_reach::AnalysisDomain;

/// The lifted symbols: the unknowns of `simple::symbolic()`.
fn swept() -> Vec<Symbol> {
    let mut swept = vec![symbols::enabling("t3")];
    swept.extend((1..=9).map(|i| symbols::firing(&format!("t{i}"))));
    swept.extend([4, 5, 8, 9].map(|i| symbols::frequency(&format!("t{i}"))));
    swept
}

/// One derivation: its decision graph's fired sequences, and the closed
/// forms of every transition's throughput followed by the total weight
/// (rates normalised on edge 0).
fn derive<D: AnalysisDomain<Prob = RatFn>>(
    net: &TimedPetriNet,
    domain: &D,
) -> (Vec<Vec<usize>>, Vec<RatFn>) {
    let trg = build_trg(net, domain, &TrgOptions::default()).unwrap();
    let dg = DecisionGraph::from_trg(&trg, domain).unwrap();
    let rates = solve_rates(&dg, 0).unwrap();
    let perf = Performance::new(&dg, rates, domain).unwrap();
    let shape = dg
        .edges()
        .iter()
        .map(|e| dg.fired(e).iter().map(|t| t.index()).collect())
        .collect();
    let mut exprs: Vec<RatFn> = net
        .transitions()
        .map(|t| perf.export_expr(&dg, &trg, domain, ExprTarget::Throughput(t)))
        .collect();
    exprs.push(perf.export_expr(&dg, &trg, domain, ExprTarget::CycleTime));
    (shape, exprs)
}

/// A point of the protocol's parameter space: `values` binds the
/// [`swept`] symbols in order — `E(t3)`, `F(t1)` … `F(t9)`, then the
/// weights `f(t4)`, `f(t5)`, `f(t8)`, `f(t9)`.
fn point(values: &str) -> Assignment {
    let swept = swept();
    let mut a = Assignment::new();
    for (i, x) in values.split(' ').enumerate() {
        a.set(swept[i], x.parse().unwrap());
    }
    assert_eq!(a.len(), swept.len(), "{values}");
    a
}

/// Points satisfying (1)–(4): the Figure-1b values, a timeout just past
/// the 226.9 ms round trip, unequal sender steps and ACK handling
/// times, lossy and nearly lossless media, and unnormalised weights.
fn points() -> Vec<Assignment> {
    [
        "1000 1 1 1 1067/10 1067/10 27/2 27/2 1067/10 1067/10 19/20 1/20 19/20 1/20",
        "226901/1000 1 1 1 1067/10 1067/10 27/2 27/2 1067/10 1067/10 19/20 1/20 19/20 1/20",
        "500 2 3 5 100 100 10 20 150 150 1/2 1/2 9/10 1/10",
        "40 1/3 1/7 2/9 7 7 11 13 17 17 3 1 5 2",
        "10000 1 1 1 1 1 1 1 1 1 999/1000 1/1000 1/100 99/100",
        "301/2 4 4 8 50 50 1/2 30 99 99 7 7 1 3",
        "2050 3/2 5/2 7/2 300 300 25 27/2 400 400 19/20 1/20 4/5 1/5",
        "800 9 1/9 2 1067/10 1067/10 60 1/2 1067/10 1067/10 1/20 19/20 1/20 19/20",
        "1 1/10 1/10 1/10 1/4 1/4 1/4 1/4 1/4 1/4 1 1 1 1",
    ]
    .into_iter()
    .map(point)
    .collect()
}

#[test]
fn paper_and_lift_derive_equal_measures_inside_both_regions() {
    let (sproto, cs) = simple::symbolic();
    let paper_domain = SymbolicDomain::new(&sproto.net, cs);
    let (paper_shape, paper) = derive(&sproto.net, &paper_domain);
    let lproto = simple::paper();
    let lift_domain = LiftedDomain::new(&lproto.net, &swept()).unwrap();
    let (lift_shape, lift) = derive(&lproto.net, &lift_domain);
    // The same decision-graph edges in the same order, so the total
    // weight's normalisation on edge 0 means the same thing in both.
    assert_eq!(paper_shape, lift_shape);
    assert_eq!(paper.len(), lift.len());
    let points = points();
    assert!(points.len() >= 8);
    assert_eq!(points[0], simple::paper_assignment());
    for (k, at) in points.iter().enumerate() {
        // (1)–(4) plus the implicit positivity of every unknown time,
        // then the lift's region and shape conditions.
        assert_eq!(
            paper_domain.constraints().check(at),
            Some(true),
            "point {k}"
        );
        lift_domain.check_point(at).unwrap();
        for (i, (p, l)) in paper.iter().zip(&lift).enumerate() {
            let value = p.eval(at);
            assert!(value.is_some(), "point {k}, measure {i}: {p}");
            assert_eq!(value, l.eval(at), "point {k}, measure {i}");
        }
    }
}

#[test]
fn a_timeout_inside_the_round_trip_leaves_both_regions() {
    // E(t3) = F(t4) + F(t6) + F(t8) = 226.9 exactly: constraint (1)
    // fails, and so does the lift's frozen comparison of the timeout
    // against the ACK's arrival.
    let (sproto, cs) = simple::symbolic();
    let paper_domain = SymbolicDomain::new(&sproto.net, cs);
    let lproto = simple::paper();
    let lift_domain = LiftedDomain::new(&lproto.net, &swept()).unwrap();
    build_trg(&lproto.net, &lift_domain, &TrgOptions::default()).unwrap();
    let at = point("2269/10 1 1 1 1067/10 1067/10 27/2 27/2 1067/10 1067/10 19/20 1/20 19/20 1/20");
    assert_eq!(paper_domain.constraints().check(&at), Some(false));
    assert!(lift_domain.check_point(&at).is_err());
}
