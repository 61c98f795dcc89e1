//! E9 — Figure 2: the semantic point of §1. In a *Timed* Petri Net a
//! transition with enabling time `E` must stay continuously enabled for
//! `E` before it fires; a competitor that becomes firable earlier can
//! absorb the shared token and disable it. The paper's Figure-2a
//! scenario: `t1` (E=3, F=7) is racing a token that arrives at time 2
//! and instantly enables `t2` — `t2` must win, deterministically.

use timed_petri::prelude::*;
use timed_petri::protocols::fig2::fig2;
use tpn_reach::EdgeKind;

#[test]
fn t2_preempts_t1_deterministically() {
    let f = fig2();
    let domain = NumericDomain::new();
    let trg = build_trg(&f.net, &domain, &TrgOptions::default()).unwrap();
    // No decisions anywhere: the race is resolved by time, not chance.
    assert!(trg.decision_states().is_empty());
    // t1 never begins firing; t2 does exactly once.
    let mut fired_t1 = 0;
    let mut fired_t2 = 0;
    for e in trg.all_edges() {
        fired_t1 += trg.fired(e).iter().filter(|&&t| t == f.t1).count();
        fired_t2 += trg.fired(e).iter().filter(|&&t| t == f.t2).count();
    }
    assert_eq!(
        fired_t1, 0,
        "t1 must be disabled before its enabling time elapses"
    );
    assert_eq!(fired_t2, 1);
}

#[test]
fn timeline_matches_the_narrative() {
    // t = 0: feeder starts (F=2); t1's enabling clock runs (E=3).
    // t = 2: token arrives; t2 firable instantly; t1 disabled at 2 < 3.
    // t = 3: t2 completes (F=1).
    let f = fig2();
    let domain = NumericDomain::new();
    let trg = build_trg(&f.net, &domain, &TrgOptions::default()).unwrap();
    let mut s = trg.initial();
    let mut elapsed = Rational::ZERO;
    let mut t2_fired_at = None;
    loop {
        let es = trg.edges_from(s);
        if es.is_empty() {
            break;
        }
        let e = &es[0];
        if e.kind == EdgeKind::Fire && trg.fired(e).contains(&f.t2) {
            t2_fired_at = Some(elapsed);
        }
        elapsed += e.delay;
        s = e.to;
    }
    assert_eq!(t2_fired_at, Some(Rational::from_int(2)));
    assert_eq!(elapsed, Rational::from_int(3), "t2 completes at t=3");
}

#[test]
fn simulation_agrees() {
    let f = fig2();
    let stats = tpn_sim::simulate(&f.net, &SimOptions::default()).unwrap();
    assert!(stats.deadlocked());
    let t1 = f.t1;
    let t2 = f.t2;
    assert_eq!(stats.firings(t1), 0);
    assert_eq!(stats.firings(t2), 1);
    assert_eq!(stats.measured_time(), &Rational::from_int(3));
}

#[test]
fn without_the_race_t1_fires_after_its_enabling_time() {
    // Remove the feeder token: t1 is unopposed and fires at t=3,
    // completing at t=10.
    let mut b = NetBuilder::new("fig2-solo");
    let shared = b.place("P1", 1);
    let out1 = b.place("out", 0);
    b.transition("t1")
        .input(shared)
        .output(out1)
        .enabling_const(3)
        .firing_const(7)
        .add();
    let net = b.build().unwrap();
    let stats = tpn_sim::simulate(&net, &SimOptions::default()).unwrap();
    assert_eq!(stats.measured_time(), &Rational::from_int(10));
    let t1 = net.transition_by_name("t1").unwrap();
    assert_eq!(stats.completions(t1), 1);
}
