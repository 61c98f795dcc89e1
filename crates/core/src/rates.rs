//! Traversal-rate equations over the decision graph (paper §4).
//!
//! *"The rate at which an outgoing edge is traversed is a function of
//! the branching probability for that edge and of the rate at which the
//! incoming edges are traversed"*:
//!
//! ```text
//! rₑ = pₑ · Σ { rₑ′ : e′ enters src(e) }
//! ```
//!
//! The system is homogeneous; for an ergodic cycle its solution space is
//! one-dimensional, and the paper fixes the scale by "assuming rⱼ = 1"
//! for a chosen reference edge. [`solve_rates`] reproduces exactly that.
//!
//! # From edges to nodes
//!
//! The sum on the right depends only on the source node, so write
//! `xₙ = Σ { rₑ′ : e′ enters n }` for the inflow of node `n`. The edge
//! equations then say `rₑ = pₑ · x_src(e)`, and summing them over the
//! edges entering `v` gives
//!
//! ```text
//! x_v = Σ { pₑ · x_src(e) : e enters v } = Σᵤ x_u · P[u][v],
//! P[u][v] = Σ { pₑ : e goes from u to v }.
//! ```
//!
//! Conversely every solution of `x = x·P` yields edge rates
//! `rₑ = pₑ · x_src(e)` whose inflows are `x` again, so the edge system
//! and `x = x·P` have solution spaces of the same dimension. `P` is
//! stochastic — the branching probabilities at a decision node sum to
//! one — so `x = x·P` is the stationary equation of a Markov chain on the
//! decision nodes, with one unknown per node instead of one per edge.
//!
//! Its solution space has one dimension per *closed* (bottom) strongly
//! connected class of the chain, and transient nodes carry zero inflow.
//! Ergodicity is therefore decided from structure alone, before any
//! arithmetic: exactly one closed class must exist, and the reference
//! edge must leave it. The closed class is then solved by GTH state
//! reduction (Grassmann, Taksar and Heyman, 1985), which uses only
//! additions, multiplications and divisions by sums of probabilities —
//! no subtraction, so no cancellation and the smallest coefficient growth
//! exact arithmetic allows.

use std::collections::{BTreeMap, BTreeSet};

use tpn_linalg::Field;
use tpn_reach::AnalysisDomain;

use crate::{CoreError, DecisionGraph};

/// Normalised traversal rates, one per decision-graph edge.
#[derive(Debug, Clone)]
pub struct Rates<P> {
    rates: Vec<P>,
    reference: usize,
}

impl<P: Clone> Rates<P> {
    /// The rate of edge `e` (same indexing as
    /// [`DecisionGraph::edges`]).
    pub fn rate(&self, e: usize) -> &P {
        &self.rates[e]
    }

    /// All rates in edge order.
    pub fn as_slice(&self) -> &[P] {
        &self.rates
    }

    /// The edge whose rate was normalised to one.
    pub fn reference_edge(&self) -> usize {
        self.reference
    }
}

/// Solve the traversal-rate equations of `dg`, normalising the rate of
/// `reference_edge` to one. The edge equations are reduced to one
/// unknown per decision node, its inflow, and solved by GTH state
/// reduction; the `rates` module documentation derives the reduction.
///
/// Errors: [`CoreError::NotErgodic`] if the decision graph does not have
/// exactly one closed class (`kernel_dim` is the number of closed
/// classes, the dimension of the equations' solution space),
/// [`CoreError::ZeroReferenceRate`] if the reference edge leaves a
/// transient node, [`CoreError::NoSuchEdge`] for a bad index.
pub fn solve_rates<D: AnalysisDomain>(
    dg: &DecisionGraph<D>,
    reference_edge: usize,
) -> Result<Rates<D::Prob>, CoreError> {
    let Some(reference) = dg.edges().get(reference_edge) else {
        return Err(CoreError::NoSuchEdge {
            edge: reference_edge,
        });
    };
    let n = dg.num_nodes();
    debug_assert!(
        (0..n).all(|u| {
            let out = dg.edges_from(u);
            out.fold(D::Prob::zero(), |acc, e| acc.add(&dg.edges()[e].prob)) == D::Prob::one()
        }),
        "the branching probabilities at every decision node sum to one"
    );
    // The chain's transitions between distinct nodes. Self-loops never
    // enter GTH (a node's own probability is implied by the sum of its
    // outgoing ones), and every edge has a non-zero probability: the
    // TRG drops zero-probability branches.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in dg.edges() {
        if e.from != e.to {
            succ[e.from].push(e.to);
        }
    }
    let class = closed_class(&succ)?;
    // Each closed-class node's index within the class; transient nodes
    // carry no flow.
    let mut local = vec![None; n];
    for (i, &node) in class.iter().enumerate() {
        local[node] = Some(i);
    }
    let Some(reference_node) = local[reference.from] else {
        return Err(CoreError::ZeroReferenceRate {
            edge: reference_edge,
        });
    };
    let mut chain = Chain::new(class.len());
    for e in dg.edges() {
        if let (Some(u), Some(v)) = (local[e.from], local[e.to]) {
            if u != v {
                chain.add(u, v, &e.prob);
            }
        }
    }
    let x = chain.stationary();

    // rₑ = pₑ · x_src(e), scaled so the reference edge's rate is one.
    let scale = reference.prob.mul(&x[reference_node]);
    let inflow: Vec<D::Prob> = x.iter().map(|xi| xi.div(&scale)).collect();
    let rates = dg
        .edges()
        .iter()
        .map(|e| match local[e.from] {
            Some(u) => e.prob.mul(&inflow[u]),
            None => D::Prob::zero(),
        })
        .collect();
    Ok(Rates {
        rates,
        reference: reference_edge,
    })
}

/// The nodes of the unique closed strongly connected class of the graph
/// `succ`, in ascending order, or `NotErgodic` with the number of closed
/// classes found when there is not exactly one.
fn closed_class(succ: &[Vec<usize>]) -> Result<Vec<usize>, CoreError> {
    let (component, count) = tarjan(succ);
    let mut closed = vec![true; count];
    for (u, targets) in succ.iter().enumerate() {
        if targets.iter().any(|&v| component[v] != component[u]) {
            closed[component[u]] = false;
        }
    }
    let closed_classes: Vec<usize> = (0..count).filter(|&c| closed[c]).collect();
    let &[only] = closed_classes.as_slice() else {
        return Err(CoreError::NotErgodic {
            kernel_dim: closed_classes.len(),
        });
    };
    Ok((0..succ.len()).filter(|&u| component[u] == only).collect())
}

/// Tarjan's strongly connected components, iterative so deep graphs
/// cannot exhaust the stack. Returns each node's component index and
/// the number of components.
fn tarjan(succ: &[Vec<usize>]) -> (Vec<usize>, usize) {
    const UNVISITED: usize = usize::MAX;
    let n = succ.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<usize> = Vec::new();
    // (node, position of the next successor to visit)
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let (mut next_index, mut count) = (0usize, 0usize);
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (u, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[u] = next_index;
                low[u] = next_index;
                next_index += 1;
                stack.push(u);
                on_stack[u] = true;
            }
            if let Some(&v) = succ[u].get(*pos) {
                *pos += 1;
                if index[v] == UNVISITED {
                    frames.push((v, 0));
                } else if on_stack[v] {
                    low[u] = low[u].min(index[v]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[u]);
            }
            if low[u] == index[u] {
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component[w] = count;
                    if w == u {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    (component, count)
}

/// The off-diagonal transition probabilities of an irreducible chain,
/// stored sparsely in both directions for elimination.
struct Chain<F> {
    /// `out[u][v] = P[u][v]` for every non-zero entry with `u ≠ v`.
    out: Vec<BTreeMap<usize, F>>,
    /// `into[v]`: the nodes `u` with a non-zero `P[u][v]`, `u ≠ v`.
    into: Vec<BTreeSet<usize>>,
}

impl<F: Field> Chain<F> {
    fn new(n: usize) -> Chain<F> {
        Chain {
            out: vec![BTreeMap::new(); n],
            into: vec![BTreeSet::new(); n],
        }
    }

    /// `P[u][v] += p` for `u ≠ v` and a probability `p > 0`.
    fn add(&mut self, u: usize, v: usize, p: &F) {
        match self.out[u].get_mut(&v) {
            Some(q) => *q = q.add(p),
            None => {
                self.out[u].insert(v, p.clone());
                self.into[v].insert(u);
            }
        }
    }

    /// The stationary vector `x = x·P`, scaled so the last node left by
    /// the elimination has `x = 1`.
    ///
    /// GTH state reduction: eliminating node `k` with outgoing sum
    /// `s = Σⱼ P[k][j]` reroutes every path through `k`, setting
    /// `P[i][j] += (P[i][k] / s) · P[k][j]`, and back-substitution
    /// recovers `x_k = Σᵢ x_i · P[i][k] / s` over the nodes still present
    /// when `k` went. Nodes go in min-degree order (fewest in × out
    /// neighbours, ties to the lower index), which keeps fill-in — and
    /// with it the coefficient growth of exact arithmetic — small.
    fn stationary(mut self) -> Vec<F> {
        let n = self.out.len();
        let mut alive: BTreeSet<usize> = (0..n).collect();
        // Per eliminated node, in order: (node, [(i, P[i][k] / s)]).
        let mut eliminated: Vec<(usize, Vec<(usize, F)>)> = Vec::with_capacity(n);
        while alive.len() > 1 {
            let k = *alive
                .iter()
                .min_by_key(|&&u| (self.into[u].len() * self.out[u].len(), u))
                .expect("more than one node alive");
            alive.remove(&k);
            let row = std::mem::take(&mut self.out[k]);
            let sum = row.values().fold(F::zero(), |acc, p| acc.add(p));
            let mut factors = Vec::with_capacity(self.into[k].len());
            for i in std::mem::take(&mut self.into[k]) {
                let p_ik = self.out[i].remove(&k).expect("into mirrors out");
                let a = p_ik.div(&sum);
                for (&j, p_kj) in &row {
                    if j != i {
                        self.add(i, j, &a.mul(p_kj));
                    }
                }
                factors.push((i, a));
            }
            for &j in row.keys() {
                self.into[j].remove(&k);
            }
            eliminated.push((k, factors));
        }
        let mut x = vec![F::zero(); n];
        x[*alive.first().expect("a closed class has a node")] = F::one();
        for (k, factors) in eliminated.into_iter().rev() {
            x[k] = factors
                .iter()
                .fold(F::zero(), |acc, (i, a)| acc.add(&x[*i].mul(a)));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_linalg::Matrix;
    use tpn_net::NetBuilder;
    use tpn_rational::Rational;
    use tpn_reach::{build_trg, NumericDomain, TrgOptions};

    use crate::DecisionGraph;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// retry loop: succeed with p=3/4 (delay 1) or retry with p=1/4
    /// (delay 2); expected rates relative to "succeed": retry = 1/3.
    fn retry_dg() -> (tpn_net::TimedPetriNet, DecisionGraph<NumericDomain>) {
        let mut b = NetBuilder::new("retry");
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
        (net, dg)
    }

    #[test]
    fn rates_of_retry_loop() {
        let (net, dg) = retry_dg();
        let succeed = net.transition_by_name("succeed").unwrap();
        let anchor = dg.nodes()[0];
        let is_ = dg.edge_firing_first(anchor, succeed).unwrap();
        let rates = solve_rates(&dg, is_).unwrap();
        assert_eq!(rates.reference_edge(), is_);
        assert_eq!(*rates.rate(is_), Rational::ONE);
        let other = 1 - is_;
        assert_eq!(*rates.rate(other), r(1, 3));
        // the rates satisfy the defining equations: r_e = p_e · inflow
        for (ei, e) in dg.edges().iter().enumerate() {
            let inflow: Rational = dg.edges_into(e.from).iter().map(|&i| *rates.rate(i)).sum();
            assert_eq!(*rates.rate(ei), e.prob * inflow);
        }
    }

    #[test]
    fn deterministic_cycle_rate_is_one() {
        let mut b = NetBuilder::new("det");
        let p = b.place("p", 1);
        b.transition("go").input(p).output(p).firing_const(5).add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap();
        let rates = solve_rates(&dg, 0).unwrap();
        assert_eq!(rates.as_slice(), &[Rational::ONE]);
    }

    #[test]
    fn bad_reference_rejected() {
        let (_, dg) = retry_dg();
        assert_eq!(
            solve_rates(&dg, 99).unwrap_err(),
            CoreError::NoSuchEdge { edge: 99 }
        );
    }

    /// A first choice `left`/`right` (weights 1:2) leads into one of two
    /// separate retry loops, each with its own decision node.
    fn two_loops() -> tpn_net::TimedPetriNet {
        let mut b = NetBuilder::new("two-loops");
        let start = b.place("start", 1);
        for (side, weight) in [("left", 1), ("right", 2)] {
            let p = b.place(side, 0);
            b.transition(side)
                .input(start)
                .output(p)
                .firing_const(1)
                .weight_const(weight)
                .add();
            for (name, w) in [("ok", 3), ("retry", 1)] {
                b.transition(&format!("{side}_{name}"))
                    .input(p)
                    .output(p)
                    .firing_const(2)
                    .weight_const(w)
                    .add();
            }
        }
        b.build().unwrap()
    }

    /// The numeric and the lifted (frequencies swept) decision graphs.
    fn both_paths(
        net: &tpn_net::TimedPetriNet,
    ) -> (
        DecisionGraph<NumericDomain>,
        DecisionGraph<tpn_reach::LiftedDomain>,
    ) {
        let (numeric, opts) = (NumericDomain::new(), TrgOptions::default());
        let trg = build_trg(net, &numeric, &opts).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &numeric).unwrap();
        let swept: Vec<_> = net
            .transitions()
            .map(|t| tpn_net::symbols::frequency(net.transition(t).name()))
            .collect();
        let lifted = tpn_reach::LiftedDomain::new(net, &swept).unwrap();
        let trg = build_trg(net, &lifted, &opts).unwrap();
        let ldg = DecisionGraph::from_trg(&trg, &lifted).unwrap();
        (dg, ldg)
    }

    #[test]
    fn two_closed_classes_are_not_ergodic_on_both_paths() {
        let (dg, ldg) = both_paths(&two_loops());
        let expect = CoreError::NotErgodic { kernel_dim: 2 };
        assert_eq!(solve_rates(&dg, 0).unwrap_err(), expect);
        assert_eq!(solve_rates(&ldg, 0).unwrap_err(), expect);
    }

    #[test]
    fn reference_edge_leaving_a_transient_node_has_zero_rate() {
        // `left` and `right` both lead into the same retry loop: one
        // closed class, but edge 0 leaves the transient start node.
        let mut b = NetBuilder::new("funnel");
        let start = b.place("start", 1);
        let p = b.place("p", 0);
        for (name, w) in [("left", 1), ("right", 2)] {
            b.transition(name)
                .input(start)
                .output(p)
                .firing_const(1)
                .weight_const(w)
                .add();
        }
        for (name, w) in [("ok", 3), ("retry", 1)] {
            b.transition(name)
                .input(p)
                .output(p)
                .firing_const(2)
                .weight_const(w)
                .add();
        }
        let (dg, ldg) = both_paths(&b.build().unwrap());
        assert_eq!(dg.nodes()[dg.edges()[0].from], dg.nodes()[0]);
        let expect = CoreError::ZeroReferenceRate { edge: 0 };
        assert_eq!(solve_rates(&dg, 0).unwrap_err(), expect);
        assert_eq!(solve_rates(&ldg, 0).unwrap_err(), expect);
        // Normalised on an edge of the loop instead, the start edges
        // carry no flow.
        let loop_edge = dg.edges_from(1).start;
        let rates = solve_rates(&dg, loop_edge).unwrap();
        for e in dg.edges_from(0) {
            assert!(rates.rate(e).is_zero());
        }
    }

    #[test]
    fn gth_matches_the_null_space_of_a_dense_chain() {
        // A fully connected 4-node chain with uneven probabilities: the
        // reduction must agree with the kernel of (I − P)ᵀ exactly.
        let p = [
            [r(1, 5), r(1, 5), r(1, 2), r(1, 10)],
            [r(1, 3), r(0, 1), r(1, 3), r(1, 3)],
            [r(1, 7), r(2, 7), r(3, 7), r(1, 7)],
            [r(1, 2), r(1, 4), r(1, 8), r(1, 8)],
        ];
        let mut chain = Chain::new(4);
        let mut a = Matrix::<Rational>::zeros(4, 4);
        for (u, row) in p.iter().enumerate() {
            for (v, puv) in row.iter().enumerate() {
                if u != v && !puv.is_zero() {
                    chain.add(u, v, puv);
                }
                let identity = if u == v {
                    Rational::ONE
                } else {
                    Rational::ZERO
                };
                a.set(v, u, identity - *puv);
            }
        }
        let x = chain.stationary();
        let kernel = a.null_space();
        assert_eq!(kernel.len(), 1);
        let scale = kernel[0][0] / x[0];
        let expect: Vec<Rational> = kernel[0].iter().map(|k| *k / scale).collect();
        assert_eq!(x, expect);
    }
}
