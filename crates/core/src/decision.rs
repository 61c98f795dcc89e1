//! Collapsing a timed reachability graph into a decision graph
//! (paper §2, Figure 5; symbolically §4, Figure 8).

use std::fmt::Write as _;
use std::ops::Range;

use tpn_net::{TimedPetriNet, TransId};
use tpn_reach::{AnalysisDomain, StateId, TimedReachabilityGraph};

use crate::CoreError;

/// An edge of the decision graph: a maximal deterministic path of the
/// TRG starting with one branching choice at a decision node.
///
/// The collapsed path, the transitions fired along it and its dwell
/// times are ranges into three arrays shared by all edges of the
/// [`DecisionGraph`]; read them with [`DecisionGraph::path`],
/// [`DecisionGraph::fired`] and [`DecisionGraph::dwell`].
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
    path: Range<u32>,
    fired: Range<u32>,
    dwell: Range<u32>,
}

/// `v[r]` for a `u32` range.
fn slice<'a, X>(v: &'a [X], r: &Range<u32>) -> &'a [X] {
    &v[r.start as usize..r.end as usize]
}

/// Marks a TRG state that is not a decision node.
const NOT_A_NODE: u32 = u32::MAX;

/// The decision graph: decision nodes of the TRG plus collapsed edges.
///
/// When the TRG has *no* decision node (a fully deterministic cycle),
/// the graph degenerates gracefully: the first state of the recurrent
/// cycle is used as the single anchor node, with one self-edge of
/// probability one, so the rate/measure machinery applies unchanged.
#[derive(Debug, Clone)]
pub struct DecisionGraph<D: AnalysisDomain> {
    nodes: Vec<StateId>,
    /// Edges grouped by source node, in node order.
    edges: Vec<DecisionEdge<D>>,
    /// `nodes.len() + 1` offsets into `edges`.
    out: Vec<u32>,
    /// Every edge's collapsed path.
    paths: Vec<StateId>,
    /// Every edge's fired transitions.
    fired: Vec<TransId>,
    /// Every edge's dwell times.
    dwell: Vec<(StateId, D::Time)>,
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
        let mut node_of = vec![NOT_A_NODE; trg.num_states()];
        for (i, s) in nodes.iter().enumerate() {
            node_of[s.index()] = i as u32;
        }
        // Per TRG state: the last walk that visited it, so a walk
        // detects a revisit in constant time.
        let mut seen = vec![0u32; trg.num_states()];
        let mut walk = 0u32;
        let mut dg = DecisionGraph {
            nodes,
            edges: Vec::new(),
            out: vec![0],
            paths: Vec::new(),
            fired: Vec::new(),
            dwell: Vec::new(),
        };
        for ni in 0..dg.nodes.len() {
            let n = dg.nodes[ni];
            for first in trg.edges_from(n) {
                walk += 1;
                let (path, fired, dwell) = (
                    dg.paths.len() as u32,
                    dg.fired.len() as u32,
                    dg.dwell.len() as u32,
                );
                let mut delay = first.delay.clone();
                dg.fired.extend_from_slice(trg.fired(first));
                dg.paths.push(n);
                seen[n.index()] = walk;
                if !domain.is_zero(&first.delay) {
                    dg.dwell.push((n, first.delay.clone()));
                }
                let mut cur = first.to;
                loop {
                    dg.paths.push(cur);
                    seen[cur.index()] = walk;
                    let to = node_of[cur.index()];
                    if to != NOT_A_NODE {
                        dg.edges.push(DecisionEdge {
                            from: ni,
                            to: to as usize,
                            prob: first.prob.clone(),
                            delay,
                            path: path..dg.paths.len() as u32,
                            fired: fired..dg.fired.len() as u32,
                            dwell: dwell..dg.dwell.len() as u32,
                        });
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
                    if seen[e.to.index()] == walk && node_of[e.to.index()] == NOT_A_NODE {
                        return Err(CoreError::AbsorbingCycle {
                            state: e.to.index(),
                        });
                    }
                    if !domain.is_zero(&e.delay) {
                        dg.dwell.push((cur, e.delay.clone()));
                    }
                    delay = domain.add(&delay, &e.delay);
                    dg.fired.extend_from_slice(trg.fired(e));
                    cur = e.to;
                }
            }
            dg.out.push(dg.edges.len() as u32);
        }
        Ok(dg)
    }

    /// The decision nodes (TRG state ids).
    pub fn nodes(&self) -> &[StateId] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[DecisionEdge<D>] {
        &self.edges
    }

    /// The TRG states an edge of this graph visits, source and target
    /// included.
    pub fn path(&self, edge: &DecisionEdge<D>) -> &[StateId] {
        slice(&self.paths, &edge.path)
    }

    /// Every transition that *begins firing* somewhere along an edge of
    /// this graph, with multiplicity. Used to attribute throughput
    /// events to edges.
    pub fn fired(&self, edge: &DecisionEdge<D>) -> &[TransId] {
        slice(&self.fired, &edge.fired)
    }

    /// Dwell times of an edge of this graph: `(state, duration)` for
    /// each elapse step along its path. Used for utilisation measures.
    pub fn dwell(&self, edge: &DecisionEdge<D>) -> &[(StateId, D::Time)] {
        slice(&self.dwell, &edge.dwell)
    }

    /// How many times `t` begins firing along an edge of this graph.
    pub fn firings_of(&self, edge: &DecisionEdge<D>, t: TransId) -> usize {
        self.fired(edge).iter().filter(|&&x| x == t).count()
    }

    /// Outgoing edge indices of a node.
    pub fn edges_from(&self, node: usize) -> Range<usize> {
        self.out[node] as usize..self.out[node + 1] as usize
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
            .position(|e| self.nodes[e.from] == from && self.fired(e).first() == Some(&t))
    }

    /// Human-readable rendering in the style of the paper's Figure 5/8:
    /// one line per edge with probability, delay and collapsed path.
    pub fn describe(&self, net: &TimedPetriNet) -> String {
        let mut outs = String::new();
        for (i, e) in self.edges.iter().enumerate() {
            let path: Vec<String> = self.path(e).iter().map(|s| s.to_string()).collect();
            let fired: Vec<&str> = self
                .fired(e)
                .iter()
                .map(|t| net.transition(*t).name())
                .collect();
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
        assert_eq!(dg.fired(e).len(), 2);
        assert_eq!(dg.dwell(e).len(), 2);
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
    fn absorbing_cycle_is_rejected_where_it_closes() {
        // At the decision node `stay` loops back, but `leave` enters a
        // two-stage ring that never returns: the walk along `leave`
        // revisits a ring state before reaching any decision node.
        let mut b = NetBuilder::new("trap");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        b.transition("stay")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("leave")
            .input(p)
            .output(q)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("spin")
            .input(q)
            .output(r)
            .firing_const(2)
            .add();
        b.transition("spun")
            .input(r)
            .output(q)
            .firing_const(3)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let err = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap_err();
        assert_eq!(err, CoreError::AbsorbingCycle { state: 3 });
        // s3 is where the ring starts: the token sits in `q`.
        let s3 = trg.state(trg.state_ids().nth(3).unwrap());
        assert_eq!(s3.marking().as_slice(), [0, 1, 0]);
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
        assert_eq!(dg.fired(&dg.edges()[ia]), [a]);
        let text = dg.describe(&net);
        assert!(text.contains("edge 0"), "{text}");
        assert!(text.contains("fires"), "{text}");
    }
}
