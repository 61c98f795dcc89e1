//! Analysis domains: what "time" and "probability" mean.
//!
//! The Figure-3 successor procedure is identical for the numeric
//! analysis of Section 2 and the symbolic analysis of Section 3; only
//! the interpretation of times (exact rationals vs. affine expressions)
//! and probabilities (rationals vs. rational functions of frequency
//! symbols) differs. [`AnalysisDomain`] captures that interface, so the
//! graph construction in [`crate::build_trg`] is written once, and the
//! paper's conflict-resolution rule is stated once, over any [`Field`].

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

use tpn_linalg::Field;
use tpn_net::{symbols, TimedPetriNet, TransId};
use tpn_rational::Rational;
use tpn_symbolic::{ConstraintSet, LinExpr, Poly, RatFn, Relation, Symbol};

use crate::ReachError;

/// The time/probability interpretation used by a reachability analysis.
///
/// The branching probabilities of a decision state follow from the
/// members' [`weight`](AnalysisDomain::weight)s by the paper's rule,
/// applied to each firable conflict set on its own:
///
/// * a lone firable member fires with probability 1, whatever its
///   frequency;
/// * otherwise each member gets its weight over the set's total, so a
///   zero-frequency member loses to any positive one (probability 0:
///   the selector is omitted, as in the paper's Figure 4);
/// * if every firable member has frequency zero — a case the paper
///   leaves open — the choice is uniform.
pub trait AnalysisDomain {
    /// Representation of delays (RET/RFT entries, edge delays).
    type Time: Clone + Eq + Hash + fmt::Debug + fmt::Display;
    /// Representation of branching probabilities.
    type Prob: Field + Eq + fmt::Display;

    /// The enabling time `E(t)`.
    fn enabling_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Self::Time, ReachError>;

    /// The firing time `F(t)`.
    fn firing_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Self::Time, ReachError>;

    /// The relative firing frequency `f(t)`, the weight the paper's rule
    /// (see the trait docs) turns into branching probabilities. Every
    /// firable member's weight is looked up, a lone member's included.
    fn weight(&self, net: &TimedPetriNet, t: TransId) -> Result<Self::Prob, ReachError>;

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
}

/// Append to `out` the branching probability of each member of
/// `firable`, the firable members of one conflict set in order, by the
/// rule stated on [`AnalysisDomain`].
pub(crate) fn branch_probabilities<D: AnalysisDomain>(
    domain: &D,
    net: &TimedPetriNet,
    firable: &[TransId],
    out: &mut Vec<D::Prob>,
) -> Result<(), ReachError> {
    let start = out.len();
    for &t in firable {
        out.push(domain.weight(net, t)?);
    }
    let probs = &mut out[start..];
    if let [lone] = probs {
        *lone = D::Prob::one();
    } else if probs.iter().all(Field::is_zero) {
        probs.fill(D::Prob::one().div(&D::Prob::from_int(probs.len() as i128)));
    } else {
        let total = probs.iter().fold(D::Prob::zero(), |acc, w| acc.add(w));
        for p in probs {
            *p = p.div(&total);
        }
    }
    Ok(())
}

/// One of the three per-transition attributes of the paper's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attribute {
    Enabling,
    Firing,
    Frequency,
}

impl Attribute {
    pub(crate) const ALL: [Attribute; 3] =
        [Attribute::Enabling, Attribute::Firing, Attribute::Frequency];

    /// The attribute's canonical symbol for transition `name`.
    pub(crate) fn symbol(self, name: &str) -> Symbol {
        match self {
            Attribute::Enabling => symbols::enabling(name),
            Attribute::Firing => symbols::firing(name),
            Attribute::Frequency => symbols::frequency(name),
        }
    }

    /// `t`'s value of the attribute, or [`ReachError::UnknownAttribute`]
    /// if `net` leaves it unknown.
    pub(crate) fn known(self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        let tr = net.transition(t);
        let (value, which) = match self {
            Attribute::Enabling => (tr.enabling().known(), "enabling time"),
            Attribute::Firing => (tr.firing().known(), "firing time"),
            Attribute::Frequency => (tr.frequency().weight(), "frequency"),
        };
        value.copied().ok_or_else(|| ReachError::UnknownAttribute {
            transition: tr.name().to_string(),
            which,
        })
    }
}

/// Section-2 analysis: every time and frequency is known a priori.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumericDomain;

impl NumericDomain {
    /// Create the numeric domain.
    pub fn new() -> NumericDomain {
        NumericDomain
    }
}

impl AnalysisDomain for NumericDomain {
    type Time = Rational;
    type Prob = Rational;

    fn enabling_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        Attribute::Enabling.known(net, t)
    }

    fn firing_time(&self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        Attribute::Firing.known(net, t)
    }

    fn weight(&self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        Attribute::Frequency.known(net, t)
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
}

/// How a [`Symbolic`] domain decides the comparisons between delays
/// that the Figure-3 procedure asks for.
pub trait Comparisons: fmt::Debug {
    /// Decide whether a stored delay is zero (see
    /// [`AnalysisDomain::is_zero`]).
    fn is_zero(&self, t: &LinExpr) -> bool;

    /// Index of the minimal element of `candidates` (non-empty).
    fn min_index(&self, candidates: &[LinExpr], state: usize) -> Result<usize, ReachError>;

    /// Decide `a == b`.
    fn time_eq(&self, a: &LinExpr, b: &LinExpr, state: usize) -> Result<bool, ReachError>;
}

/// A symbolic analysis domain: times are affine expressions
/// ([`LinExpr`]) and probabilities rational functions ([`RatFn`]) over
/// the `E(t)`, `F(t)` and `f(t)` symbols.
///
/// An attribute is its canonical symbol if the domain's symbol set holds
/// it, and its known value otherwise (an attribute that is neither is
/// [`ReachError::UnknownAttribute`]). The policy `C` decides every
/// comparison; see [`SymbolicDomain`] and
/// [`LiftedDomain`](crate::LiftedDomain) for the two readings.
#[derive(Debug, Clone)]
pub struct Symbolic<C> {
    pub(crate) symbols: BTreeSet<Symbol>,
    pub(crate) policy: C,
}

impl<C> Symbolic<C> {
    /// `t`'s attribute as an affine expression.
    fn attribute(
        &self,
        net: &TimedPetriNet,
        t: TransId,
        attr: Attribute,
    ) -> Result<LinExpr, ReachError> {
        let sym = attr.symbol(net.transition(t).name());
        if self.symbols.contains(&sym) {
            return Ok(LinExpr::symbol(sym));
        }
        attr.known(net, t).map(LinExpr::constant)
    }
}

impl<C: Comparisons> AnalysisDomain for Symbolic<C> {
    type Time = LinExpr;
    type Prob = RatFn;

    fn enabling_time(&self, net: &TimedPetriNet, t: TransId) -> Result<LinExpr, ReachError> {
        self.attribute(net, t, Attribute::Enabling)
    }

    fn firing_time(&self, net: &TimedPetriNet, t: TransId) -> Result<LinExpr, ReachError> {
        self.attribute(net, t, Attribute::Firing)
    }

    fn weight(&self, net: &TimedPetriNet, t: TransId) -> Result<RatFn, ReachError> {
        Ok(self.time_as_prob(&self.attribute(net, t, Attribute::Frequency)?))
    }

    fn zero(&self) -> LinExpr {
        LinExpr::zero()
    }

    fn is_zero(&self, t: &LinExpr) -> bool {
        self.policy.is_zero(t)
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
        self.policy.min_index(candidates, state)
    }

    fn time_eq(&self, a: &LinExpr, b: &LinExpr, state: usize) -> Result<bool, ReachError> {
        self.policy.time_eq(a, b, state)
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
pub type SymbolicDomain = Symbolic<Entailment>;

/// The §3 comparison policy: a comparison is decided only when the
/// constraint set entails its outcome.
#[derive(Debug, Clone)]
pub struct Entailment {
    constraints: ConstraintSet,
}

impl SymbolicDomain {
    /// Build the domain for a net from user-supplied timing constraints,
    /// adding the implicit positivity assumptions for unknown times.
    pub fn new(net: &TimedPetriNet, mut constraints: ConstraintSet) -> SymbolicDomain {
        let mut symbols = BTreeSet::new();
        for t in net.transitions() {
            for attr in Attribute::ALL {
                if attr.known(net, t).is_err() {
                    let sym = attr.symbol(net.transition(t).name());
                    if attr != Attribute::Frequency {
                        constraints.assume(LinExpr::symbol(sym), Relation::Gt);
                    }
                    symbols.insert(sym);
                }
            }
        }
        let policy = Entailment { constraints };
        Symbolic { symbols, policy }
    }

    /// The effective constraint set (user constraints plus implicit
    /// positivity assumptions).
    pub fn constraints(&self) -> &ConstraintSet {
        &self.policy.constraints
    }
}

impl Comparisons for Entailment {
    fn is_zero(&self, t: &LinExpr) -> bool {
        // Construction invariant: stored delays are either syntactically
        // zero or entailed positive, so a syntactic test suffices.
        t.is_zero()
    }

    fn min_index(&self, candidates: &[LinExpr], state: usize) -> Result<usize, ReachError> {
        self.constraints.min_of(candidates).map_err(|e| match e {
            tpn_symbolic::ConstraintError::AmbiguousMinimum { left, right } => {
                ReachError::AmbiguousComparison {
                    left: left.to_string(),
                    right: right.to_string(),
                    state,
                }
            }
            e => ReachError::Constraint(e),
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::NetBuilder;

    /// Four firable conflict sets: `{hi 19/20, lo 1/20, pri 0}`,
    /// `{a 0, z 0}`, `{u 1, v 3, w0 0}` and `{succeed 3, retry 1}`. The
    /// transitions in `unknown` get an unknown frequency instead.
    fn rule_net(unknown: &[&str]) -> TimedPetriNet {
        let mut b = NetBuilder::new("rule");
        let sets: [&[(&str, Rational)]; 4] = [
            &[("hi", r(19, 20)), ("lo", r(1, 20)), ("pri", r(0, 1))],
            &[("a", r(0, 1)), ("z", r(0, 1))],
            &[("u", r(1, 1)), ("v", r(3, 1)), ("w0", r(0, 1))],
            &[("succeed", r(3, 1)), ("retry", r(1, 1))],
        ];
        for (i, set) in sets.iter().enumerate() {
            let p = b.place(&format!("s{i}"), 1);
            for &(name, w) in set.iter() {
                let t = b.transition(name).input(p).firing_const(1);
                if unknown.contains(&name) {
                    t.weight_unknown().add();
                } else {
                    t.weight(w).add();
                }
            }
        }
        b.build().unwrap()
    }

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// The rule applied by `d` to the named firable members.
    fn rule<D: AnalysisDomain>(d: &D, net: &TimedPetriNet, names: &[&str]) -> Vec<D::Prob> {
        let firable: Vec<TransId> = names
            .iter()
            .map(|n| net.transition_by_name(n).unwrap())
            .collect();
        let mut out = Vec::new();
        branch_probabilities(d, net, &firable, &mut out).unwrap();
        out
    }

    /// The numeric probabilities of each case of the weight rule, as
    /// every domain yields them (symbolic ones evaluated at the base).
    #[test]
    fn numeric_probabilities() {
        let timed = rule_net(&[]);
        let paper = rule_net(&["u", "v"]);
        let swept = [
            symbols::frequency("u"),
            symbols::frequency("v"),
            symbols::frequency("retry"),
        ];
        let interval = crate::IntervalDomain::from_net(&timed).unwrap();
        let section3 = SymbolicDomain::new(&paper, ConstraintSet::new());
        let lifted = crate::LiftedDomain::new(&timed, &swept).unwrap();
        let base = lifted.base();
        let cases: [(&[&str], Vec<Rational>); 5] = [
            // a lone firable member fires with probability 1, even at
            // frequency 0
            (&["pri"], vec![Rational::ONE]),
            // a zero-frequency member among positive ones gets 0
            (
                &["hi", "lo", "pri"],
                vec![r(19, 20), r(1, 20), Rational::ZERO],
            ),
            // all zero: uniform
            (&["a", "z"], vec![r(1, 2), r(1, 2)]),
            // §3 unknown frequencies f(u), f(v)
            (&["u", "v", "w0"], vec![r(1, 4), r(3, 4), Rational::ZERO]),
            // a lifted frequency f(retry)
            (&["succeed", "retry"], vec![r(3, 4), r(1, 4)]),
        ];
        let at_base = |ps: Vec<RatFn>| -> Vec<Rational> {
            ps.iter().map(|p| p.eval(base).unwrap()).collect()
        };
        for (names, numeric) in &cases {
            assert_eq!(
                rule(&NumericDomain::new(), &timed, names),
                *numeric,
                "{names:?}"
            );
            assert_eq!(rule(&interval, &timed, names), *numeric, "{names:?}");
            assert_eq!(
                at_base(rule(&section3, &paper, names)),
                *numeric,
                "{names:?}"
            );
            assert_eq!(at_base(rule(&lifted, &timed, names)), *numeric, "{names:?}");
        }
    }

    #[test]
    fn symbolic_probabilities() {
        let paper = rule_net(&["u", "v"]);
        let section3 = SymbolicDomain::new(&paper, ConstraintSet::new());
        // §3: p(u) = f(u) / (f(u) + f(v)); w0 contributes nothing, and
        // the probabilities sum to one
        let fu = Poly::symbol(symbols::frequency("u"));
        let fv = Poly::symbol(symbols::frequency("v"));
        let ps = rule(&section3, &paper, &["u", "v", "w0"]);
        assert_eq!(ps[0], RatFn::new(fu.clone(), &fu + &fv));
        assert_eq!(ps[1], RatFn::new(fv.clone(), &fu + &fv));
        assert!(ps[2].is_zero());
        assert!(ps
            .iter()
            .fold(RatFn::zero(), |acc, p| acc + p.clone())
            .is_one());
        assert_eq!(rule(&section3, &paper, &["w0"]), vec![RatFn::one()]);
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
