//! The TRG state invariants, checked on every state of every graph of a
//! corpus: a RET entry for `t` exists **iff** the marking covers `I(t)`,
//! and no RFT entry is zero.
//!
//! The builder re-tests only the transitions a step can enable or
//! disable (the previous RET plus the consumers of places that gained
//! tokens). This suite checks the result against the definition, over
//! nets with self-loops, input multiplicities, shared input places and
//! zero firing times.

use timed_petri::prelude::*;
use timed_petri::protocols::{abp, families, fig2, simple};
use timed_petri::reach::AnalysisDomain;

mod common;
use common::fixture_dir;

/// Build the TRG of `net` under `domain` and check both invariants on
/// every state. Returns the number of states.
fn assert_invariants<D: AnalysisDomain>(name: &str, net: &TimedPetriNet, domain: &D) -> usize {
    let trg =
        build_trg(net, domain, &TrgOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    for s in trg.state_ids() {
        let state = trg.state(s);
        for t in net.transitions() {
            let enabled = state.marking().covers(net.transition(t).input());
            assert_eq!(
                state.ret(t).is_some(),
                enabled,
                "{name}: {s}: RET entry of {} vs enabled = {enabled}",
                net.transition(t).name()
            );
        }
        for t in state.firing() {
            let rft = state.rft(t).expect("a firing transition has an RFT");
            assert!(
                !domain.is_zero(rft),
                "{name}: {s}: zero RFT for {}",
                net.transition(t).name()
            );
        }
    }
    trg.num_states()
}

/// Two tokens in `pool`, one in `ready`. `take1`/`take1b` each hold one
/// pool token through a self-loop and return `ready` through the
/// zero-time `ret1`; `take2` needs both pool tokens (multiplicity 2) and
/// returns them through `ret2`. All three share `pool` and `ready`, and
/// `take2`'s enabling time lets its clock run while `take1`/`take1b`
/// win and disable it.
fn pool_net() -> TimedPetriNet {
    let mut b = NetBuilder::new("pool");
    let pool = b.place("pool", 2);
    let ready = b.place("ready", 1);
    let back1 = b.place("back1", 0);
    let back2 = b.place("back2", 0);
    b.transition("take1")
        .input(pool)
        .input(ready)
        .output(pool)
        .output(back1)
        .firing_const(2)
        .weight_const(3)
        .add();
    b.transition("take1b")
        .input(pool)
        .input(ready)
        .output(pool)
        .output(back1)
        .firing_const(5)
        .weight_const(1)
        .add();
    b.transition("take2")
        .input_n(pool, 2)
        .input(ready)
        .output_n(back2, 2)
        .enabling_const(1)
        .firing_const(3)
        .add();
    b.transition("ret1")
        .input(back1)
        .output(ready)
        .firing_const(0)
        .add();
    b.transition("ret2")
        .input_n(back2, 2)
        .output_n(pool, 2)
        .output(ready)
        .firing_const(1)
        .add();
    b.build().unwrap()
}

/// A zero-time hand-off: `a` moves the `gate` token to `mid` in zero
/// time, enabling `b` in the same step, and `b` returns it. `timeout`
/// shares `gate` with `a`: its clock starts whenever `gate` refills and
/// is dropped when `a` takes the token.
fn relay_net() -> TimedPetriNet {
    let mut b = NetBuilder::new("relay");
    let gate = b.place("gate", 1);
    let mid = b.place("mid", 0);
    let sink = b.place("sink", 0);
    b.transition("a")
        .input(gate)
        .output(mid)
        .firing_const(0)
        .weight_const(1)
        .add();
    b.transition("timeout")
        .input(gate)
        .output(sink)
        .enabling_const(10)
        .firing_const(1)
        .weight_const(1)
        .add();
    b.transition("b")
        .input(mid)
        .output(gate)
        .firing_const(4)
        .add();
    b.transition("drain")
        .input(sink)
        .output(gate)
        .firing_const(1)
        .add();
    b.build().unwrap()
}

fn load(path: &str) -> TimedPetriNet {
    let path = format!("{}/{path}", fixture_dir());
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    timed_petri::net::parse_tpn(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The numeric corpus: `(name, net)`.
fn corpus() -> Vec<(&'static str, TimedPetriNet)> {
    let stages: Vec<Rational> = (1..=5).map(Rational::from_int).collect();
    let r = Rational::from_int;
    vec![
        ("fig1.tpn", load("fig1.tpn")),
        ("lossy2.tpn", load("overflow/lossy2.tpn")),
        ("simple::paper", simple::paper().net),
        ("abp", abp::abp(&simple::Params::paper()).net),
        ("fig2", fig2::fig2().net),
        ("cycle_5", families::cycle(&stages)),
        ("fork_join_4", families::fork_join(4)),
        (
            "producer_consumer_8",
            families::producer_consumer(8, r(2), r(5)),
        ),
        (
            "lossy_chain_8",
            families::lossy_chain(8, Rational::new(1, 10), r(2)).0,
        ),
        ("pool", pool_net()),
        ("relay", relay_net()),
    ]
}

#[test]
fn ret_tracks_enablement_and_rft_is_positive_in_every_state() {
    let domain = NumericDomain::new();
    for (name, net) in corpus() {
        assert!(assert_invariants(name, &net, &domain) > 1, "{name}");
    }
}

#[test]
fn the_invariants_hold_for_symbolic_clocks() {
    let (proto, constraints) = simple::symbolic();
    let domain = SymbolicDomain::new(&proto.net, constraints);
    assert_eq!(
        assert_invariants("simple::symbolic", &proto.net, &domain),
        18
    );
}

#[test]
fn the_corpus_exercises_every_enablement_path() {
    // The custom nets reach what the families do not: a transition
    // disabled by a competitor's removal while its clock runs, and a
    // zero-time completion enabling a consumer in the same step.
    let domain = NumericDomain::new();
    let net = pool_net();
    let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
    let take2 = net.transition_by_name("take2").unwrap();
    let ret1 = net.transition_by_name("ret1").unwrap();
    let take1 = net.transition_by_name("take1").unwrap();
    let mut disabled_while_running = false;
    let mut zero_time_enables = false;
    for e in trg.all_edges() {
        let (from, to) = (trg.state(e.from), trg.state(e.to));
        disabled_while_running |= from.ret(take2).is_some() && to.ret(take2).is_none();
        zero_time_enables |= trg.completed(e).contains(&ret1)
            && from.ret(take1).is_none()
            && to.ret(take1).is_some();
    }
    assert!(disabled_while_running, "take2 is never disabled mid-clock");
    assert!(zero_time_enables, "ret1 never enables take1 in one step");
}
