//! Collapsing a timed reachability graph into a decision graph
//! (paper §2, Figure 5; symbolically §4, Figure 8).

use std::collections::HashMap;
use std::fmt::Write as _;

use tpn_net::{TimedPetriNet, TransId};
use tpn_reach::{AnalysisDomain, StateId, TimedReachabilityGraph};

use crate::CoreError;

/// An edge of the decision graph: a maximal deterministic path of the
/// TRG starting with one branching choice at a decision node.
#[derive(Debug, Clone)]
pub struct DecisionEdge<D: AnalysisDomain> {
    /// Index of the source decision node (into [`DecisionGraph::nodes`]).
    pub from: usize,
    /// Index of the target decision node.
    pub to: usize,
    /// The branching probability taken at the source node.
    pub prob: D::Prob,
    /// Total delay accumulated along the collapsed path.
    pub delay: D::Time,
    /// The TRG states visited, source and target included.
    pub path: Vec<StateId>,
    /// Every transition that *begins firing* somewhere along the path,
    /// with multiplicity. Used to attribute throughput events to edges.
    pub fired: Vec<TransId>,
    /// Dwell times: `(state, duration)` for each elapse step along the
    /// path. Used for utilisation measures.
    pub dwell: Vec<(StateId, D::Time)>,
}

impl<D: AnalysisDomain> DecisionEdge<D> {
    /// How many times `t` begins firing along this edge.
    pub fn firings_of(&self, t: TransId) -> usize {
        self.fired.iter().filter(|&&x| x == t).count()
    }
}

/// The decision graph: decision nodes of the TRG plus collapsed edges.
///
/// When the TRG has *no* decision node (a fully deterministic cycle),
/// the graph degenerates gracefully: the first state of the recurrent
/// cycle is used as the single anchor node, with one self-edge of
/// probability one, so the rate/measure machinery applies unchanged.
#[derive(Debug, Clone)]
pub struct DecisionGraph<D: AnalysisDomain> {
    nodes: Vec<StateId>,
    edges: Vec<DecisionEdge<D>>,
    out: Vec<Vec<usize>>, // per node: indices into `edges`
}

impl<D: AnalysisDomain> DecisionGraph<D> {
    /// Collapse a TRG into its decision graph.
    pub fn from_trg(
        trg: &TimedReachabilityGraph<D>,
        domain: &D,
    ) -> Result<DecisionGraph<D>, CoreError> {
        let mut nodes = trg.decision_states();
        if nodes.is_empty() {
            // Deterministic net: anchor at the first state of the
            // recurrent cycle (walk until a state repeats).
            nodes = vec![find_cycle_anchor(trg)?];
        }
        let node_of: HashMap<StateId, usize> =
            nodes.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let mut edges: Vec<DecisionEdge<D>> = Vec::new();
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (ni, &n) in nodes.iter().enumerate() {
            for first in trg.edges_from(n) {
                let mut delay = first.delay.clone();
                let mut fired = first.fired.clone();
                let mut path = vec![n];
                let mut dwell: Vec<(StateId, D::Time)> = Vec::new();
                if !domain.is_zero(&first.delay) {
                    dwell.push((n, first.delay.clone()));
                }
                let mut cur = first.to;
                loop {
                    path.push(cur);
                    if let Some(&ti) = node_of.get(&cur) {
                        let idx = edges.len();
                        edges.push(DecisionEdge {
                            from: ni,
                            to: ti,
                            prob: first.prob.clone(),
                            delay,
                            path,
                            fired,
                            dwell,
                        });
                        out[ni].push(idx);
                        break;
                    }
                    let nexts = trg.edges_from(cur);
                    if nexts.is_empty() {
                        // Terminal state: no steady-state cycle through
                        // this branch.
                        return Err(CoreError::NoCycle);
                    }
                    debug_assert_eq!(nexts.len(), 1, "non-decision nodes have one successor");
                    let e = &nexts[0];
                    if path.contains(&e.to) && !node_of.contains_key(&e.to) {
                        return Err(CoreError::AbsorbingCycle {
                            state: e.to.index(),
                        });
                    }
                    if !domain.is_zero(&e.delay) {
                        dwell.push((cur, e.delay.clone()));
                    }
                    delay = domain.add(&delay, &e.delay);
                    fired.extend_from_slice(&e.fired);
                    cur = e.to;
                }
            }
        }
        Ok(DecisionGraph { nodes, edges, out })
    }

    /// The decision nodes (TRG state ids).
    pub fn nodes(&self) -> &[StateId] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[DecisionEdge<D>] {
        &self.edges
    }

    /// Outgoing edge indices of a node.
    pub fn edges_from(&self, node: usize) -> &[usize] {
        &self.out[node]
    }

    /// Edge indices entering a node.
    pub fn edges_into(&self, node: usize) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.to == node)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Index of the edge whose collapsed path starts at TRG state `from`
    /// by firing transition `t` first, if any. Convenient for naming the
    /// paper's edges ("edge 2 corresponds to path 11-13-15-…").
    pub fn edge_firing_first(&self, from: StateId, t: TransId) -> Option<usize> {
        self.edges
            .iter()
            .position(|e| self.nodes[e.from] == from && e.fired.first() == Some(&t))
    }

    /// Human-readable rendering in the style of the paper's Figure 5/8:
    /// one line per edge with probability, delay and collapsed path.
    pub fn describe(&self, net: &TimedPetriNet) -> String {
        let mut outs = String::new();
        for (i, e) in self.edges.iter().enumerate() {
            let path: Vec<String> = e.path.iter().map(|s| s.to_string()).collect();
            let fired: Vec<&str> = e.fired.iter().map(|t| net.transition(*t).name()).collect();
            let _ = writeln!(
                outs,
                "edge {i}: {} -> {}  p = {}  d = {}  path {}  fires [{}]",
                self.nodes[e.from],
                self.nodes[e.to],
                e.prob,
                e.delay,
                path.join("-"),
                fired.join(", "),
            );
        }
        outs
    }
}

/// Walk unique successors from the initial state until a state repeats;
/// that repeated state anchors the recurrent cycle.
fn find_cycle_anchor<D: AnalysisDomain>(
    trg: &TimedReachabilityGraph<D>,
) -> Result<StateId, CoreError> {
    let mut seen = vec![false; trg.num_states()];
    let mut cur = trg.initial();
    loop {
        if seen[cur.index()] {
            return Ok(cur);
        }
        seen[cur.index()] = true;
        let nexts = trg.edges_from(cur);
        if nexts.is_empty() {
            return Err(CoreError::NoCycle);
        }
        cur = nexts[0].to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::NetBuilder;
    use tpn_rational::Rational;
    use tpn_reach::{build_trg, NumericDomain, TrgOptions};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn deterministic_cycle_collapses_to_anchor() {
        let net = tpn_protocols_cycle();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap();
        assert_eq!(dg.num_nodes(), 1);
        assert_eq!(dg.num_edges(), 1);
        let e = &dg.edges()[0];
        assert_eq!(e.prob, Rational::ONE);
        assert_eq!(e.delay, r(5, 1)); // 2 + 3
        assert_eq!(e.fired.len(), 2);
        assert_eq!(e.dwell.len(), 2);
    }

    fn tpn_protocols_cycle() -> tpn_net::TimedPetriNet {
        let mut b = NetBuilder::new("c");
        let pa = b.place("pa", 1);
        let pb = b.place("pb", 0);
        b.transition("go")
            .input(pa)
            .output(pb)
            .firing_const(2)
            .add();
        b.transition("back")
            .input(pb)
            .output(pa)
            .firing_const(3)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn branching_cycle() {
        // One decision: succeed (p=3/4, delay 1) and restart, or retry
        // (p=1/4, delay 2) and restart.
        let mut b = NetBuilder::new("branch");
        let p = b.place("p", 1);
        b.transition("succeed")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(3)
            .add();
        b.transition("retry")
            .input(p)
            .output(p)
            .firing_const(2)
            .weight_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap();
        assert_eq!(dg.num_nodes(), 1);
        assert_eq!(dg.num_edges(), 2);
        let probs: Vec<Rational> = dg.edges().iter().map(|e| e.prob).collect();
        assert!(probs.contains(&r(3, 4)));
        assert!(probs.contains(&r(1, 4)));
        // both edges return to the sole node
        assert!(dg.edges().iter().all(|e| e.to == 0 && e.from == 0));
        // edges_into/edges_from agree
        assert_eq!(dg.edges_into(0).len(), 2);
        assert_eq!(dg.edges_from(0).len(), 2);
    }

    #[test]
    fn acyclic_graph_is_rejected() {
        let mut b = NetBuilder::new("acyclic");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("once")
            .input(p)
            .output(q)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(
            DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap_err(),
            CoreError::NoCycle
        );
    }

    #[test]
    fn terminal_branch_is_rejected() {
        // A decision node where one branch deadlocks.
        let mut b = NetBuilder::new("leak");
        let p = b.place("p", 1);
        let dead = b.place("dead", 0);
        b.transition("loop")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("die")
            .input(p)
            .output(dead)
            .firing_const(1)
            .weight_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(
            DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap_err(),
            CoreError::NoCycle
        );
    }

    #[test]
    fn edge_lookup_and_describe() {
        let mut b = NetBuilder::new("branch2");
        let p = b.place("p", 1);
        b.transition("a")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("z")
            .input(p)
            .output(p)
            .firing_const(2)
            .weight_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap();
        let a = net.transition_by_name("a").unwrap();
        let anchor = dg.nodes()[0];
        let ia = dg.edge_firing_first(anchor, a).unwrap();
        assert_eq!(dg.edges()[ia].fired, vec![a]);
        let text = dg.describe(&net);
        assert!(text.contains("edge 0"), "{text}");
        assert!(text.contains("fires"), "{text}");
    }
}
