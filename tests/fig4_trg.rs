//! E2 — Figure 4: the numeric timed reachability graph of the simple
//! protocol, built from the Figure-1b times. The paper reports 18
//! states; we additionally pin the edge delays and the two decision
//! nodes, and cross-check characteristic RET values from Figure 4b
//! (893.3, 879.8, 773.1).

use timed_petri::prelude::*;
use timed_petri::protocols::simple;
use tpn_reach::EdgeKind;

fn r(s: &str) -> Rational {
    s.parse().unwrap()
}

#[test]
fn eighteen_states_two_decisions() {
    let proto = simple::paper();
    let trg = build_trg(&proto.net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
    assert_eq!(trg.num_states(), 18, "paper Figure 4 has 18 states");
    assert_eq!(
        trg.decision_states().len(),
        2,
        "states 3 and 11 of the paper"
    );
    assert!(
        trg.terminal_states().is_empty(),
        "the protocol never deadlocks"
    );
    // 18 states, each non-decision state has 1 successor, the two
    // decision states have 2: 16 + 4 = 20 edges.
    assert_eq!(trg.num_edges(), 20);
}

#[test]
fn edge_delays_match_figure_4a() {
    let proto = simple::paper();
    let trg = build_trg(&proto.net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
    // Collect the multiset of non-zero elapse delays.
    let mut delays: Vec<Rational> = trg
        .all_edges()
        .filter(|e| e.kind == EdgeKind::Elapse)
        .map(|e| e.delay)
        .collect();
    delays.sort();
    let expect: Vec<Rational> = [
        "1", "1", "1", // t2, t3, t1 completions (both loss paths share the t3 state)
        "13.5", "13.5", // t6, t7
        "106.7", "106.7", "106.7", "106.7", // t4, t5, t8, t9
        "773.1", // residual timeout after ACK loss
        "893.3", // residual timeout after packet loss
    ]
    .iter()
    .map(|s| r(s))
    .collect();
    let mut expect = expect;
    expect.sort();
    assert_eq!(delays, expect, "Figure 4a delay multiset");
}

#[test]
fn characteristic_timeout_residues_present() {
    // Figure 4b shows RET(t3) values 1000, 893.3, 879.8, 773.1.
    let proto = simple::paper();
    let trg = build_trg(&proto.net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
    let t3 = proto.t[2];
    let mut residues: Vec<Rational> = trg
        .state_ids()
        .filter_map(|s| trg.state(s).ret(t3).copied())
        .collect();
    residues.sort();
    residues.dedup();
    for want in ["773.1", "879.8", "893.3", "1000"] {
        assert!(
            residues.contains(&r(want)),
            "expected RET(t3) residue {want} in {residues:?}"
        );
    }
}

#[test]
fn decision_probabilities_are_five_percent_splits() {
    let proto = simple::paper();
    let trg = build_trg(&proto.net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
    for d in trg.decision_states() {
        let es = trg.edges_from(d);
        assert_eq!(es.len(), 2);
        let mut probs: Vec<Rational> = es.iter().map(|e| e.prob).collect();
        probs.sort();
        assert_eq!(probs, vec![r("0.05"), r("0.95")]);
    }
}

#[test]
fn timeout_never_fires_when_ack_is_present() {
    // Conflict set 2 {t3: 0, t7: 1}: whenever both are firable the ACK
    // receipt must win. In the whole graph t3 begins firing only on the
    // loss paths.
    let proto = simple::paper();
    let trg = build_trg(&proto.net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
    let t3 = proto.t[2];
    let t7 = proto.t[6];
    for e in trg.all_edges() {
        if trg.fired(e).contains(&t3) {
            // t3 fires only from states where p6 (ack delivered) is empty
            let src = trg.state(e.from);
            assert_eq!(
                src.marking().tokens(proto.p[5]),
                0,
                "t3 fired despite delivered ACK"
            );
            assert!(!trg.fired(e).contains(&t7));
        }
    }
}

#[test]
fn safeness_of_reachable_markings() {
    // The paper's restriction relies on 1-safeness of this net; verify
    // every reachable marking is safe.
    let proto = simple::paper();
    let trg = build_trg(&proto.net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
    for s in trg.state_ids() {
        assert!(trg.state(s).marking().is_safe(), "unsafe marking at {s}");
    }
}
