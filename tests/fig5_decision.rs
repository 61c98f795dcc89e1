//! E3 — Figure 5: the numeric decision graph. Two decision nodes (the
//! paper's states 3 and 11) and four collapsed edges:
//!
//! * edge 1 (packet lost, timeout):  p = 0.05, d = 1002 ms
//! * edge 3 (packet delivered):      p = 0.95, d = 120.2 ms
//! * edge 2 (ACK delivered):         p = 0.95, d = 122.2 ms
//! * edge 4 (ACK lost, timeout):     p = 0.05, d = 881.8 ms

use timed_petri::prelude::*;
use timed_petri::protocols::simple;

fn r(s: &str) -> Rational {
    s.parse().unwrap()
}

struct Fig5 {
    proto: simple::SimpleProtocol,
    dg: DecisionGraph<NumericDomain>,
    // edge indices in paper order [e1, e2, e3, e4]
    e: [usize; 4],
}

fn build() -> Fig5 {
    let proto = simple::paper();
    let domain = NumericDomain::new();
    let trg = build_trg(&proto.net, &domain, &TrgOptions::default()).unwrap();
    let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
    // Identify nodes: the "packet" decision node fires t4/t5, the "ACK"
    // node fires t8/t9.
    let [_, _, _, t4, t5, _, _, t8, t9] = proto.t;
    let node3 = dg.nodes()[dg.edges()[dg
        .edge_firing_first(dg.nodes()[0], t4)
        .or_else(|| dg.edge_firing_first(dg.nodes()[1], t4))
        .unwrap()]
    .from];
    let node11 = dg.nodes()[dg.edges()[dg
        .edge_firing_first(dg.nodes()[0], t8)
        .or_else(|| dg.edge_firing_first(dg.nodes()[1], t8))
        .unwrap()]
    .from];
    let e1 = dg.edge_firing_first(node3, t5).expect("loss edge");
    let e3 = dg.edge_firing_first(node3, t4).expect("delivery edge");
    let e2 = dg.edge_firing_first(node11, t8).expect("ack edge");
    let e4 = dg.edge_firing_first(node11, t9).expect("ack-loss edge");
    Fig5 {
        proto,
        dg,
        e: [e1, e2, e3, e4],
    }
}

#[test]
fn four_edges_two_nodes() {
    let f = build();
    assert_eq!(f.dg.num_nodes(), 2);
    assert_eq!(f.dg.num_edges(), 4);
}

#[test]
fn probabilities_match_figure_5() {
    let f = build();
    let [e1, e2, e3, e4] = f.e;
    assert_eq!(f.dg.edges()[e1].prob, r("0.05"));
    assert_eq!(f.dg.edges()[e2].prob, r("0.95"));
    assert_eq!(f.dg.edges()[e3].prob, r("0.95"));
    assert_eq!(f.dg.edges()[e4].prob, r("0.05"));
}

#[test]
fn delays_match_figure_5() {
    let f = build();
    let [e1, e2, e3, e4] = f.e;
    // d1 = F5 + (E3−F5) + F3 + F2 = 1000 + 1 + 1
    assert_eq!(f.dg.edges()[e1].delay, r("1002"));
    // d2 = F8 + F7 + F1 + F2 = 106.7 + 13.5 + 1 + 1
    assert_eq!(f.dg.edges()[e2].delay, r("122.2"));
    // d3 = F4 + F6 = 106.7 + 13.5
    assert_eq!(f.dg.edges()[e3].delay, r("120.2"));
    // d4 = F9 + (E3−F4−F6−F9) + F3 + F2 = 1000 − 120.2 + 2
    assert_eq!(f.dg.edges()[e4].delay, r("881.8"));
}

#[test]
fn edge_topology_matches_figure_5() {
    // e3 goes from node 3 to node 11; e1 loops on node 3; e2 and e4
    // return from node 11 to node 3.
    let f = build();
    let [e1, e2, e3, e4] = f.e;
    let edges = f.dg.edges();
    assert_eq!(
        edges[e1].from, edges[e1].to,
        "loss edge loops at the send decision"
    );
    assert_eq!(edges[e3].from, edges[e1].from);
    assert_eq!(edges[e3].to, edges[e2].from);
    assert_eq!(edges[e2].to, edges[e1].from);
    assert_eq!(edges[e4].from, edges[e2].from);
    assert_eq!(edges[e4].to, edges[e1].from);
}

#[test]
fn collapsed_paths_follow_the_paper() {
    // Edge 2's path is 11-13-15-16-17-18-1-2-3: 9 states; edge 3's path
    // is 3-4-9-10-11: 5 states.
    let f = build();
    let [e1, e2, e3, e4] = f.e;
    assert_eq!(f.dg.path(&f.dg.edges()[e3]).len(), 5);
    assert_eq!(f.dg.path(&f.dg.edges()[e2]).len(), 9);
    assert_eq!(f.dg.path(&f.dg.edges()[e1]).len(), 8); // 3-5-6-7-8-1-2-3
    assert_eq!(f.dg.path(&f.dg.edges()[e4]).len(), 8); // 11-12-14-7-8-1-2-3
                                                       // edge 2 fires t8 (ack transmit), t7 (ack receipt), t1, t2
    let names: Vec<&str> =
        f.dg.fired(&f.dg.edges()[e2])
            .iter()
            .map(|t| f.proto.net.transition(*t).name())
            .collect();
    assert_eq!(names, vec!["t8", "t7", "t1", "t2"]);
}
