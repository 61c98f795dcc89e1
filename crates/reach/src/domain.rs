//! Analysis domains: what "time" and "probability" mean.
//!
//! The Figure-3 successor procedure is identical for the numeric
//! analysis of Section 2 and the symbolic analysis of Section 3; only
//! the interpretation of times (exact rationals vs. affine expressions
//! under timing constraints) and probabilities (rationals vs. rational
//! functions of frequency symbols) differs. [`AnalysisDomain`] captures
//! that interface, so the graph construction in [`crate::build_trg`] is
//! written once. The paper's envisioned extensions (e.g. ranges of
//! firing times, §Conclusion) would slot in as further domains.

use std::fmt;
use std::hash::Hash;

use tpn_net::{symbols, Frequency, TimeValue, TimedPetriNet, TransId};
use tpn_rational::Rational;
use tpn_symbolic::{ConstraintSet, LinExpr, Poly, RatFn, Relation};

use crate::ReachError;

/// The time/probability interpretation used by a reachability analysis.
pub trait AnalysisDomain {
    /// Representation of delays (RET/RFT entries, edge delays).
    type Time: Clone + Eq + Hash + fmt::Debug + fmt::Display;
    /// Representation of branching probabilities.
    type Prob: Clone + Eq + fmt::Debug + fmt::Display;

    /// The enabling time `E(t)`.
    fn enabling_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Self::Time, ReachError>;

    /// The firing time `F(t)`.
    fn firing_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Self::Time, ReachError>;

    /// The zero delay.
    fn zero(&self) -> Self::Time;

    /// Decide whether a delay is zero. For the symbolic domain this must
    /// be *decidable* under the constraints (an invariant of the
    /// construction: every stored delay is decidably zero or positive).
    fn is_zero(&self, t: &Self::Time) -> bool;

    /// `a − b`. Callers guarantee `a ≥ b` is entailed.
    fn sub(&self, a: &Self::Time, b: &Self::Time) -> Self::Time;

    /// `a + b` (used when collapsing paths into decision-graph edges).
    fn add(&self, a: &Self::Time, b: &Self::Time) -> Self::Time;

    /// Embed a time into the probability domain, so that expressions
    /// mixing rates and delays (`w = r·d`, throughputs, utilizations)
    /// can be formed. Numeric: identity. Symbolic: affine time
    /// expressions embed into rational functions.
    fn time_as_prob(&self, t: &Self::Time) -> Self::Prob;

    /// Index of a provably-minimal element of `candidates` (non-empty).
    fn min_index(&self, candidates: &[Self::Time], state: usize) -> Result<usize, ReachError>;

    /// Decide `a == b` (callers use this to detect simultaneous
    /// completions after subtracting the minimum). Must be exact.
    fn time_eq(&self, a: &Self::Time, b: &Self::Time, state: usize) -> Result<bool, ReachError>;

    /// The probability 1.
    fn prob_one(&self) -> Self::Prob;

    /// Branching probabilities for the firable members of one conflict
    /// set, in the order given. Implements the paper's rule: zero-
    /// frequency members are excluded when any positive-frequency member
    /// is firable; a lone firable member gets probability 1.
    fn probabilities(
        &self,
        net: &TimedPetriNet,
        firable: &[TransId],
    ) -> Result<Vec<Self::Prob>, ReachError>;

    /// Product of probabilities (for selector cross products).
    fn prob_mul(&self, a: &Self::Prob, b: &Self::Prob) -> Self::Prob;

    /// `true` iff a probability is identically zero. Zero-probability
    /// selectors (a zero-frequency transition losing to a prioritised
    /// competitor) are omitted from the graph, exactly as in the paper's
    /// Figure 4.
    fn prob_is_zero(&self, p: &Self::Prob) -> bool;
}

/// Section-2 analysis: every time and frequency is known a priori.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumericDomain;

impl NumericDomain {
    /// Create the numeric domain.
    pub fn new() -> NumericDomain {
        NumericDomain
    }

    fn known(
        v: &TimeValue,
        net: &TimedPetriNet,
        t: TransId,
        which: &'static str,
    ) -> Result<Rational, ReachError> {
        v.known()
            .copied()
            .ok_or_else(|| ReachError::UnknownAttribute {
                transition: net.transition(t).name().to_string(),
                which,
            })
    }
}

impl AnalysisDomain for NumericDomain {
    type Time = Rational;
    type Prob = Rational;

    fn enabling_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        Self::known(net.transition(t).enabling(), net, t, "enabling time")
    }

    fn firing_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        Self::known(net.transition(t).firing(), net, t, "firing time")
    }

    fn zero(&self) -> Rational {
        Rational::ZERO
    }

    fn is_zero(&self, t: &Rational) -> bool {
        t.is_zero()
    }

    fn sub(&self, a: &Rational, b: &Rational) -> Rational {
        a - b
    }

    fn add(&self, a: &Rational, b: &Rational) -> Rational {
        a + b
    }

    fn time_as_prob(&self, t: &Rational) -> Rational {
        *t
    }

    fn min_index(&self, candidates: &[Rational], _state: usize) -> Result<usize, ReachError> {
        let mut best = 0usize;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c < &candidates[best] {
                best = i;
            }
        }
        Ok(best)
    }

    fn time_eq(&self, a: &Rational, b: &Rational, _state: usize) -> Result<bool, ReachError> {
        Ok(a == b)
    }

    fn prob_one(&self) -> Rational {
        Rational::ONE
    }

    fn probabilities(
        &self,
        net: &TimedPetriNet,
        firable: &[TransId],
    ) -> Result<Vec<Rational>, ReachError> {
        let weights: Result<Vec<Rational>, ReachError> = firable
            .iter()
            .map(|&t| match net.transition(t).frequency() {
                Frequency::Weight(w) => Ok(*w),
                Frequency::Unknown => Err(ReachError::UnknownAttribute {
                    transition: net.transition(t).name().to_string(),
                    which: "frequency",
                }),
            })
            .collect();
        let weights = weights?;
        Ok(split_weights_numeric(&weights))
    }

    fn prob_mul(&self, a: &Rational, b: &Rational) -> Rational {
        a * b
    }

    fn prob_is_zero(&self, p: &Rational) -> bool {
        p.is_zero()
    }
}

/// Apply the paper's conflict-resolution rule to known weights.
fn split_weights_numeric(weights: &[Rational]) -> Vec<Rational> {
    if weights.len() == 1 {
        // "If only one transition is firable, the probability of firing
        // it is 1, regardless of firing frequency."
        return vec![Rational::ONE];
    }
    let any_positive = weights.iter().any(|w| w.is_positive());
    if any_positive {
        let total: Rational = weights.iter().copied().sum();
        weights.iter().map(|w| w / total).collect()
    } else {
        // All firable members have frequency zero: the paper leaves this
        // open; we document a uniform choice.
        let n = Rational::from_int(weights.len() as i128);
        weights.iter().map(|_| Rational::ONE / n).collect()
    }
}

/// Section-3 analysis: unknown times become symbols `E(t)`/`F(t)`
/// constrained by a [`ConstraintSet`]; unknown frequencies become
/// symbols `f(t)`.
///
/// Two implicit assumptions are added automatically, mirroring the
/// paper's reading of the model:
///
/// * every *unknown* enabling/firing time is strictly positive (give the
///   net a `Known(0)` value — the paper's constraint (2) — or an explicit
///   constraint if you need something weaker);
/// * every *unknown* frequency is strictly positive (a zero frequency is
///   a structural priority statement and must be written as
///   `Frequency::Weight(0)`).
#[derive(Debug, Clone)]
pub struct SymbolicDomain {
    constraints: ConstraintSet,
}

impl SymbolicDomain {
    /// Build the domain for a net from user-supplied timing constraints,
    /// adding the implicit positivity assumptions for unknown times.
    pub fn new(net: &TimedPetriNet, user_constraints: ConstraintSet) -> SymbolicDomain {
        let mut constraints = user_constraints;
        for t in net.transitions() {
            let tr = net.transition(t);
            if tr.enabling().known().is_none() {
                let sym = LinExpr::symbol(symbols::enabling(tr.name()));
                constraints.assume(sym, Relation::Gt);
            }
            if tr.firing().known().is_none() {
                let sym = LinExpr::symbol(symbols::firing(tr.name()));
                constraints.assume(sym, Relation::Gt);
            }
        }
        SymbolicDomain { constraints }
    }

    /// The effective constraint set (user constraints plus implicit
    /// positivity assumptions).
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    fn time_expr(v: &TimeValue, sym: tpn_symbolic::Symbol) -> LinExpr {
        match v {
            TimeValue::Known(r) => LinExpr::constant(*r),
            TimeValue::Unknown => LinExpr::symbol(sym),
        }
    }
}

impl AnalysisDomain for SymbolicDomain {
    type Time = LinExpr;
    type Prob = RatFn;

    fn enabling_time(&self, net: &TimedPetriNet, t: TransId) -> Result<LinExpr, ReachError> {
        let tr = net.transition(t);
        Ok(Self::time_expr(tr.enabling(), symbols::enabling(tr.name())))
    }

    fn firing_time(&self, net: &TimedPetriNet, t: TransId) -> Result<LinExpr, ReachError> {
        let tr = net.transition(t);
        Ok(Self::time_expr(tr.firing(), symbols::firing(tr.name())))
    }

    fn zero(&self) -> LinExpr {
        LinExpr::zero()
    }

    fn is_zero(&self, t: &LinExpr) -> bool {
        // Construction invariant: stored delays are either syntactically
        // zero or entailed positive, so a syntactic test suffices.
        t.is_zero()
    }

    fn sub(&self, a: &LinExpr, b: &LinExpr) -> LinExpr {
        a.clone() - b
    }

    fn add(&self, a: &LinExpr, b: &LinExpr) -> LinExpr {
        a.clone() + b
    }

    fn time_as_prob(&self, t: &LinExpr) -> RatFn {
        RatFn::from_poly(Poly::from_linexpr(t))
    }

    fn min_index(&self, candidates: &[LinExpr], state: usize) -> Result<usize, ReachError> {
        match self.constraints.min_of(candidates) {
            Ok(i) => Ok(i),
            Err(tpn_symbolic::ConstraintError::AmbiguousMinimum { left, right }) => {
                Err(ReachError::AmbiguousComparison {
                    left: left.to_string(),
                    right: right.to_string(),
                    state,
                })
            }
            Err(e) => Err(ReachError::Constraint(e)),
        }
    }

    fn time_eq(&self, a: &LinExpr, b: &LinExpr, state: usize) -> Result<bool, ReachError> {
        if a == b {
            return Ok(true);
        }
        match self.constraints.compare(a, b)? {
            tpn_symbolic::Cmp::Equal => Ok(true),
            tpn_symbolic::Cmp::Less | tpn_symbolic::Cmp::Greater => Ok(false),
            _ => Err(ReachError::AmbiguousComparison {
                left: a.to_string(),
                right: b.to_string(),
                state,
            }),
        }
    }

    fn prob_one(&self) -> RatFn {
        RatFn::one()
    }

    fn probabilities(
        &self,
        net: &TimedPetriNet,
        firable: &[TransId],
    ) -> Result<Vec<RatFn>, ReachError> {
        if firable.len() == 1 {
            return Ok(vec![RatFn::one()]);
        }
        // Weight polynomials: known weights are constants, unknown ones
        // symbols. A transition with *known zero* weight is excluded when
        // any other member could have positive weight (symbols are
        // assumed positive).
        let mut weights: Vec<Poly> = Vec::with_capacity(firable.len());
        let mut any_nonzero = false;
        for &t in firable {
            let tr = net.transition(t);
            let w = match tr.frequency() {
                Frequency::Weight(w) => Poly::constant(*w),
                Frequency::Unknown => Poly::symbol(symbols::frequency(tr.name())),
            };
            if !w.is_zero() {
                any_nonzero = true;
            }
            weights.push(w);
        }
        if !any_nonzero {
            let n = Rational::from_int(firable.len() as i128);
            return Ok(vec![RatFn::constant(Rational::ONE / n); firable.len()]);
        }
        let total: Poly = weights.iter().fold(Poly::zero(), |acc, w| &acc + w);
        Ok(weights
            .into_iter()
            .map(|w| RatFn::new(w, total.clone()))
            .collect())
    }

    fn prob_mul(&self, a: &RatFn, b: &RatFn) -> RatFn {
        a * b
    }

    fn prob_is_zero(&self, p: &RatFn) -> bool {
        p.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::NetBuilder;

    fn conflict_net() -> TimedPetriNet {
        let mut b = NetBuilder::new("dom-test");
        let p = b.place("shared", 1);
        b.transition("hi")
            .input(p)
            .weight(Rational::new(19, 20))
            .firing_const(1)
            .add();
        b.transition("lo")
            .input(p)
            .weight(Rational::new(1, 20))
            .firing_const(1)
            .add();
        b.transition("pri")
            .input(p)
            .weight_const(0)
            .firing_const(1)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn numeric_probabilities() {
        let net = conflict_net();
        let d = NumericDomain::new();
        let hi = net.transition_by_name("hi").unwrap();
        let lo = net.transition_by_name("lo").unwrap();
        let pri = net.transition_by_name("pri").unwrap();
        // zero-frequency member among positive ones: gets probability 0
        let ps = d.probabilities(&net, &[hi, lo, pri]).unwrap();
        assert_eq!(ps[0], Rational::new(19, 20));
        assert_eq!(ps[1], Rational::new(1, 20));
        assert_eq!(ps[2], Rational::ZERO);
        // singleton fires with probability 1 even at frequency 0
        assert_eq!(d.probabilities(&net, &[pri]).unwrap(), vec![Rational::ONE]);
        // all-zero: uniform
        let mut b = NetBuilder::new("zz");
        let p = b.place("s", 1);
        b.transition("a").input(p).weight_const(0).add();
        b.transition("z").input(p).weight_const(0).add();
        let net2 = b.build().unwrap();
        let a = net2.transition_by_name("a").unwrap();
        let z = net2.transition_by_name("z").unwrap();
        let ps2 = d.probabilities(&net2, &[a, z]).unwrap();
        assert_eq!(ps2, vec![Rational::new(1, 2), Rational::new(1, 2)]);
    }

    #[test]
    fn numeric_rejects_unknowns() {
        let mut b = NetBuilder::new("unk");
        let p = b.place("s", 1);
        let t = b.transition("t").input(p).firing_unknown().add();
        let net = b.build().unwrap();
        let d = NumericDomain::new();
        assert!(matches!(
            d.firing_time(&net, t),
            Err(ReachError::UnknownAttribute {
                which: "firing time",
                ..
            })
        ));
        assert!(d.enabling_time(&net, t).is_ok()); // enabling defaulted to 0
    }

    #[test]
    fn numeric_min_and_eq() {
        let d = NumericDomain::new();
        let xs = [
            Rational::from_int(5),
            Rational::from_int(3),
            Rational::from_int(9),
        ];
        assert_eq!(d.min_index(&xs, 0), Ok(1));
        assert_eq!(d.time_eq(&xs[0], &xs[0], 0), Ok(true));
        assert_eq!(d.time_eq(&xs[0], &xs[1], 0), Ok(false));
        assert_eq!(d.sub(&xs[2], &xs[1]), Rational::from_int(6));
    }

    #[test]
    fn symbolic_time_expressions() {
        let mut b = NetBuilder::new("symdom");
        let p = b.place("s", 1);
        let t = b
            .transition("work")
            .input(p)
            .enabling_const(0)
            .firing_unknown()
            .add();
        let net = b.build().unwrap();
        let d = SymbolicDomain::new(&net, ConstraintSet::new());
        // known enabling time is a constant expression
        assert!(d.enabling_time(&net, t).unwrap().is_zero());
        // unknown firing time is the canonical symbol, assumed positive
        let ft = d.firing_time(&net, t).unwrap();
        assert_eq!(ft, LinExpr::symbol(symbols::firing("work")));
        assert_eq!(
            d.constraints().entails(&ft, Relation::Gt),
            Ok(true),
            "implicit positivity assumption"
        );
    }

    #[test]
    fn symbolic_probabilities() {
        let mut b = NetBuilder::new("symprob");
        let p = b.place("s", 1);
        b.transition("u").input(p).weight_unknown().add();
        b.transition("v").input(p).weight_unknown().add();
        b.transition("w0").input(p).weight_const(0).add();
        let net = b.build().unwrap();
        let d = SymbolicDomain::new(&net, ConstraintSet::new());
        let u = net.transition_by_name("u").unwrap();
        let v = net.transition_by_name("v").unwrap();
        let w0 = net.transition_by_name("w0").unwrap();
        let ps = d.probabilities(&net, &[u, v, w0]).unwrap();
        // p(u) = f(u) / (f(u) + f(v)); w0 contributes nothing
        let fu = Poly::symbol(symbols::frequency("u"));
        let fv = Poly::symbol(symbols::frequency("v"));
        assert_eq!(ps[0], RatFn::new(fu.clone(), &fu + &fv));
        assert_eq!(ps[1], RatFn::new(fv.clone(), &fu + &fv));
        assert!(ps[2].is_zero());
        // probabilities sum to one
        let sum = ps.iter().fold(RatFn::zero(), |acc, p| acc + p.clone());
        assert!(sum.is_one());
        // singleton
        assert_eq!(d.probabilities(&net, &[w0]).unwrap(), vec![RatFn::one()]);
    }

    #[test]
    fn symbolic_min_uses_constraints() {
        let mut b = NetBuilder::new("symmin");
        let p = b.place("s", 1);
        b.transition("slow")
            .input(p)
            .enabling_unknown()
            .firing_unknown()
            .add();
        b.transition("fast").input(p).firing_unknown().add();
        let net = b.build().unwrap();
        let slow_e = LinExpr::symbol(symbols::enabling("slow"));
        let fast_f = LinExpr::symbol(symbols::firing("fast"));
        let mut cs = ConstraintSet::new();
        cs.assume_gt(slow_e.clone(), fast_f.clone());
        let d = SymbolicDomain::new(&net, cs);
        assert_eq!(d.min_index(&[slow_e.clone(), fast_f.clone()], 7), Ok(1));
        // without the ordering constraint: ambiguous, naming the state
        let d2 = SymbolicDomain::new(&net, ConstraintSet::new());
        match d2.min_index(&[slow_e.clone(), fast_f.clone()], 7) {
            Err(ReachError::AmbiguousComparison { state: 7, .. }) => {}
            other => panic!("expected ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_eq_decidability() {
        let net = {
            let mut b = NetBuilder::new("symeq");
            let p = b.place("s", 1);
            b.transition("a").input(p).firing_unknown().add();
            b.transition("z").input(p).firing_unknown().add();
            b.build().unwrap()
        };
        let fa = LinExpr::symbol(symbols::firing("a"));
        let fz = LinExpr::symbol(symbols::firing("z"));
        let mut cs = ConstraintSet::new();
        cs.assume_eq(fa.clone(), fz.clone());
        let d = SymbolicDomain::new(&net, cs);
        assert_eq!(d.time_eq(&fa, &fz, 0), Ok(true));
        let d2 = SymbolicDomain::new(&net, ConstraintSet::new());
        assert!(d2.time_eq(&fa, &fz, 0).is_err());
        assert_eq!(d2.time_eq(&fa, &fa, 0), Ok(true));
    }
}
