//! Performance measures over a solved decision graph (paper §4).
//!
//! With traversal rates `rᵢ` and accumulated delays `dᵢ`, the *relative
//! time spent* on edge `i` is `wᵢ = rᵢ·dᵢ`, and any event rate divides
//! by the total `Σ wᵢ`: the paper's protocol throughput is
//! `r₂ / Σᵢ wᵢ` because edge 2 is the one whose path acknowledges a
//! message. [`Performance`] generalises this: the throughput of *any*
//! transition is the rate-weighted count of its firings per unit time,
//! and place utilisation weighs the dwell times of the states marking
//! the place.
//!
//! In matrix form the throughputs are `θ = Cᵀr / Σ wᵢ`, where `C[e][t]`
//! counts how often transition `t` begins firing along edge `e`.
//! [`Performance::throughputs`] computes all of them in one pass over
//! the edges' `fired` lists, adding `C[e][t]·rₑ` as a single product;
//! [`Performance::throughput`] computes one entry.

use tpn_linalg::Field;
use tpn_net::{PlaceId, TimedPetriNet, TransId};
use tpn_reach::{AnalysisDomain, TimedReachabilityGraph};

use crate::{CoreError, DecisionGraph, Rates};

/// Solved steady-state measures for a decision graph.
#[derive(Debug, Clone)]
pub struct Performance<D: AnalysisDomain> {
    weights: Vec<D::Prob>,
    total_weight: D::Prob,
    rates: Rates<D::Prob>,
}

impl<D: AnalysisDomain> Performance<D> {
    /// Combine a decision graph with solved rates into measures.
    pub fn new(
        dg: &DecisionGraph<D>,
        rates: Rates<D::Prob>,
        domain: &D,
    ) -> Result<Performance<D>, CoreError> {
        let weights: Vec<D::Prob> = dg
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| rates.rate(i).mul(&domain.time_as_prob(&e.delay)))
            .collect();
        let total_weight = weights.iter().fold(D::Prob::zero(), |acc, w| acc.add(w));
        if total_weight.is_zero() {
            return Err(CoreError::ZeroCycleTime);
        }
        Ok(Performance {
            weights,
            total_weight,
            rates,
        })
    }

    /// The edge weights `wᵢ = rᵢ·dᵢ`.
    pub fn weights(&self) -> &[D::Prob] {
        &self.weights
    }

    /// The total weight `Σ wᵢ` — the mean recurrence time of the
    /// reference edge, in net time units per reference-edge traversal.
    pub fn total_weight(&self) -> &D::Prob {
        &self.total_weight
    }

    /// The normalised traversal rates.
    pub fn rates(&self) -> &Rates<D::Prob> {
        &self.rates
    }

    /// The fraction of time spent on edge `e`: `wₑ / Σ wᵢ`.
    pub fn time_share(&self, e: usize) -> Result<D::Prob, CoreError> {
        let w = self
            .weights
            .get(e)
            .ok_or(CoreError::NoSuchEdge { edge: e })?;
        Ok(w.div(&self.total_weight))
    }

    /// Throughput of transition `t`: firings per unit time,
    /// `Σₑ count(t, e)·rₑ / Σ wᵢ`. For the paper's protocol with `t7`
    /// (the sender receives the acknowledgement — one firing per
    /// *successfully acknowledged* message) this is exactly the paper's
    /// throughput expression `r₂ / Σ wᵢ`. To read every transition's
    /// throughput, [`Performance::throughputs`] does it in one pass.
    pub fn throughput(&self, dg: &DecisionGraph<D>, t: TransId) -> D::Prob {
        let mut num = D::Prob::zero();
        for (ei, e) in dg.edges().iter().enumerate() {
            let k = dg.firings_of(e, t);
            if k > 0 {
                num = num.add(&scaled(k, self.rates.rate(ei)));
            }
        }
        num.div(&self.total_weight)
    }

    /// Every transition's throughput at once, `θ = Cᵀr / Σ wᵢ` with
    /// `C[e][t]` the number of times `t` begins firing along edge `e`:
    /// one pass over the edges' `fired` lists instead of one per
    /// transition. Indexed by [`TransId::index`]; the vector ends at the
    /// last transition that fires on some edge, and every transition
    /// past its end has throughput zero. Each entry equals
    /// [`Performance::throughput`].
    pub fn throughputs(&self, dg: &DecisionGraph<D>) -> Vec<D::Prob> {
        let mut num: Vec<D::Prob> = Vec::new();
        for (ei, e) in dg.edges().iter().enumerate() {
            let fired = dg.fired(e);
            for (i, &t) in fired.iter().enumerate() {
                if fired[..i].contains(&t) {
                    continue; // counted at its first occurrence
                }
                let k = 1 + fired[i + 1..].iter().filter(|&&x| x == t).count();
                if num.len() <= t.index() {
                    num.resize(t.index() + 1, D::Prob::zero());
                }
                num[t.index()] = num[t.index()].add(&scaled(k, self.rates.rate(ei)));
            }
        }
        num.iter().map(|n| n.div(&self.total_weight)).collect()
    }

    /// Mean time between traversals of edge `e` (infinite — an error —
    /// if the edge is never traversed).
    pub fn mean_recurrence_time(&self, e: usize) -> Result<D::Prob, CoreError> {
        let r = self
            .rates
            .as_slice()
            .get(e)
            .ok_or(CoreError::NoSuchEdge { edge: e })?;
        if r.is_zero() {
            return Err(CoreError::ZeroReferenceRate { edge: e });
        }
        Ok(self.total_weight.div(r))
    }

    /// Utilisation of place `p`: the steady-state fraction of time the
    /// place holds at least one token, computed from the dwell times of
    /// the collapsed paths.
    pub fn place_utilization(
        &self,
        dg: &DecisionGraph<D>,
        trg: &TimedReachabilityGraph<D>,
        domain: &D,
        p: PlaceId,
    ) -> D::Prob {
        self.dwell_weighted(dg, domain, |s| trg.state(s).marking().tokens(p) > 0)
    }

    /// Utilisation of transition `t`: the fraction of time `t` is
    /// actively firing (its RFT is tracked).
    pub fn transition_utilization(
        &self,
        dg: &DecisionGraph<D>,
        trg: &TimedReachabilityGraph<D>,
        domain: &D,
        t: TransId,
    ) -> D::Prob {
        self.dwell_weighted(dg, domain, |s| trg.state(s).rft(t).is_some())
    }

    fn dwell_weighted(
        &self,
        dg: &DecisionGraph<D>,
        domain: &D,
        pred: impl Fn(tpn_reach::StateId) -> bool,
    ) -> D::Prob {
        let mut num = D::Prob::zero();
        for (ei, e) in dg.edges().iter().enumerate() {
            let mut acc = D::Prob::zero();
            for (s, d) in dg.dwell(e) {
                if pred(*s) {
                    acc = acc.add(&domain.time_as_prob(d));
                }
            }
            num = num.add(&self.rates.rate(ei).mul(&acc));
        }
        num.div(&self.total_weight)
    }

    /// Render rates, weights and shares in the spirit of the paper's
    /// Figure 8 derivation.
    pub fn describe(&self, net: &TimedPetriNet, dg: &DecisionGraph<D>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, e) in dg.edges().iter().enumerate() {
            let fired: Vec<&str> = dg
                .fired(e)
                .iter()
                .map(|t| net.transition(*t).name())
                .collect();
            let _ = writeln!(
                out,
                "edge {i} ({} -> {}): r = {}  d = {}  w = {}  [{}]",
                dg.nodes()[e.from],
                dg.nodes()[e.to],
                self.rates.rate(i),
                e.delay,
                self.weights[i],
                fired.join(", ")
            );
        }
        let _ = writeln!(out, "total weight Σw = {}", self.total_weight);
        out
    }
}

/// `k·r`: one multiply (none when `k` is 1) instead of `k` additions.
fn scaled<F: Field>(k: usize, r: &F) -> F {
    if k == 1 {
        r.clone()
    } else {
        F::from_int(k as i128).mul(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_rates;
    use tpn_net::NetBuilder;
    use tpn_rational::Rational;
    use tpn_reach::{build_trg, NumericDomain, TrgOptions};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// succeed (p=3/4, total delay 1) vs retry (p=1/4, total delay 2).
    fn setup() -> (
        tpn_net::TimedPetriNet,
        TimedReachabilityGraph<NumericDomain>,
        DecisionGraph<NumericDomain>,
        Performance<NumericDomain>,
    ) {
        let mut b = NetBuilder::new("m");
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
        let d = NumericDomain::new();
        let trg = build_trg(&net, &d, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &d).unwrap();
        let succeed = net.transition_by_name("succeed").unwrap();
        let anchor = dg.nodes()[0];
        let is_ = dg.edge_firing_first(anchor, succeed).unwrap();
        let rates = solve_rates(&dg, is_).unwrap();
        let perf = Performance::new(&dg, rates, &d).unwrap();
        (net, trg, dg, perf)
    }

    #[test]
    fn weights_and_total() {
        let (net, _trg, dg, perf) = setup();
        let succeed = net.transition_by_name("succeed").unwrap();
        let anchor = dg.nodes()[0];
        let is_ = dg.edge_firing_first(anchor, succeed).unwrap();
        let ir = 1 - is_;
        // r_succeed = 1 (d=1, w=1); r_retry = 1/3 (d=2, w=2/3); Σw = 5/3
        assert_eq!(perf.weights()[is_], Rational::ONE);
        assert_eq!(perf.weights()[ir], r(2, 3));
        assert_eq!(*perf.total_weight(), r(5, 3));
        assert_eq!(perf.time_share(is_).unwrap(), r(3, 5));
        assert_eq!(perf.time_share(ir).unwrap(), r(2, 5));
        assert!(perf.time_share(9).is_err());
    }

    #[test]
    fn throughput_and_recurrence() {
        let (net, _trg, dg, perf) = setup();
        let succeed = net.transition_by_name("succeed").unwrap();
        let retry = net.transition_by_name("retry").unwrap();
        // throughput(succeed) = 1 / (5/3) = 3/5 per time unit
        assert_eq!(perf.throughput(&dg, succeed), r(3, 5));
        assert_eq!(perf.throughput(&dg, retry), r(1, 5));
        // sanity: time shares sum to one
        let total: Rational = (0..dg.num_edges())
            .map(|e| perf.time_share(e).unwrap())
            .sum();
        assert_eq!(total, Rational::ONE);
        // mean recurrence of the reference edge = Σw
        let anchor = dg.nodes()[0];
        let is_ = dg.edge_firing_first(anchor, succeed).unwrap();
        assert_eq!(perf.mean_recurrence_time(is_).unwrap(), r(5, 3));
    }

    #[test]
    fn utilizations() {
        let (net, trg, dg, perf) = setup();
        let d = NumericDomain::new();
        let succeed = net.transition_by_name("succeed").unwrap();
        let retry = net.transition_by_name("retry").unwrap();
        // "succeed" is firing 1·r_s of the cycle's 5/3: 3/5 of the time.
        assert_eq!(perf.transition_utilization(&dg, &trg, &d, succeed), r(3, 5));
        assert_eq!(perf.transition_utilization(&dg, &trg, &d, retry), r(2, 5));
        // the place "p" is empty while either transition fires (tokens
        // absorbed), so utilisation 0.
        let p = net.place_by_name("p").unwrap();
        assert_eq!(perf.place_utilization(&dg, &trg, &d, p), Rational::ZERO);
    }

    #[test]
    fn describe_renders() {
        let (net, _trg, dg, perf) = setup();
        let text = perf.describe(&net, &dg);
        assert!(text.contains("edge 0"), "{text}");
        assert!(text.contains("Σw"), "{text}");
    }
}
