//! Numerically guided symbolic lifting of a fully timed net.
//!
//! The paper's §3 reading ([`SymbolicDomain`](crate::SymbolicDomain))
//! needs a designer-supplied constraint set to discharge every timing
//! comparison — which exists for the paper's protocol, but not for an
//! arbitrary `.tpn` document posted to the analysis daemon (the text
//! format has no constraint syntax). [`LiftedDomain`] closes that gap
//! for the parameter-sweep workload: starting from a **fully timed**
//! net, a chosen subset of its attributes (`E(t)`, `F(t)`, `f(t)`
//! symbols) is *lifted* back into symbols while every timing comparison
//! is resolved **at the base point** — the numeric values the net was
//! written with. It is the same [`Symbolic`] domain as §3's, with the
//! [`FrozenAtBase`] comparison policy.
//!
//! The derived performance expressions are therefore exact closed
//! forms in the lifted symbols, valid on the *region* of parameter
//! space where every frozen comparison keeps the outcome it has at the
//! base point (ties included: two delays equal at the base are treated
//! as identically equal, exactly as the paper's constraints (3)/(4)
//! equate packet-loss and packet-delivery times). The domain records
//! every comparison whose outcome depends on a lifted symbol;
//! [`LiftedDomain::region`] renders the resulting validity conditions
//! so callers can report how far a sweep may be trusted.

use std::collections::BTreeSet;
use std::sync::Mutex;

use tpn_net::TimedPetriNet;
use tpn_rational::Rational;
use tpn_symbolic::{Assignment, Constraint, LinExpr, Relation, Symbol};

use crate::domain::{Attribute, Comparisons, Symbolic};
use crate::ReachError;

/// A fully timed net with a subset of its attributes lifted to symbols
/// and all comparisons frozen at the base point.
pub type LiftedDomain = Symbolic<FrozenAtBase>;

/// The lift's comparison policy: every comparison is decided by the
/// values at the base point, and recorded when its outcome depends on a
/// lifted symbol.
#[derive(Debug)]
pub struct FrozenAtBase {
    /// Base value of every lifted symbol.
    base: Assignment,
    /// Comparisons involving lifted symbols, stored structurally as
    /// constraints `expr ⋈ 0` — the machine-evaluable validity region
    /// ([`LiftedDomain::region_constraints`]), from which the rendered
    /// form ([`LiftedDomain::region`]) derives.
    region: Mutex<BTreeSet<Constraint>>,
    /// Shape conditions that [`LiftedDomain::region`] historically does
    /// *not* report: strict positivity of every non-constant delay that
    /// was non-zero at the base point. A perturbation driving such a
    /// delay to zero (or negative) changes which steps are
    /// instantaneous — i.e. the skeleton itself — without flipping any
    /// recorded comparison, so [`LiftedDomain::check_point`] tests the
    /// union of both sets before a skeleton is reused.
    shape: Mutex<BTreeSet<Constraint>>,
}

impl LiftedDomain {
    /// Lift `swept` out of `net`'s attributes. Every symbol must name
    /// an attribute of the net in the canonical
    /// [`tpn_net::symbols`] grammar (`E(t)`, `F(t)`, `f(t)`), the
    /// attribute must be known (the net fully timed), and its base
    /// value must be strictly positive — a zero enabling time or a
    /// zero frequency is a structural statement (immediacy, priority)
    /// whose lifting would change the shape of the reachability graph,
    /// not just its labels.
    pub fn new(net: &TimedPetriNet, swept: &[Symbol]) -> Result<LiftedDomain, ReachError> {
        let mut base = Assignment::new();
        for &sym in swept {
            if base.contains(sym) {
                return Err(ReachError::BadLift {
                    symbol: sym.name(),
                    reason: "listed more than once".to_string(),
                });
            }
            let value = lookup_attribute(net, sym)?;
            if !value.is_positive() {
                return Err(ReachError::BadLift {
                    symbol: sym.name(),
                    reason: format!(
                        "base value {value} is not strictly positive; zero times and \
                         frequencies are structural and cannot be swept"
                    ),
                });
            }
            base.set(sym, value);
        }
        Ok(Symbolic {
            symbols: swept.iter().copied().collect(),
            policy: FrozenAtBase {
                base,
                region: Mutex::new(BTreeSet::new()),
                shape: Mutex::new(BTreeSet::new()),
            },
        })
    }

    /// The base value of every lifted symbol.
    pub fn base(&self) -> &Assignment {
        &self.policy.base
    }

    /// The recorded validity region: every comparison made during graph
    /// construction whose outcome involved a lifted symbol, rendered as
    /// a condition (`"expr > 0"` or `"expr = 0"`) on the lifted
    /// parameters. Expressions derived through this domain are exact on
    /// the set of parameter values satisfying all conditions; outside
    /// it the graph itself may change shape.
    pub fn region(&self) -> Vec<String> {
        self.region_entries()
            .into_iter()
            .map(|(text, _)| text)
            .collect()
    }

    /// The validity region in machine-evaluable form: one
    /// [`Constraint`] (`expr > 0` or `expr = 0`) per recorded frozen
    /// comparison, in the same order as the rendered [`LiftedDomain::region`]
    /// strings. [`Constraint::check`] evaluates membership of a
    /// parameter point exactly; the optimizer and the sweep endpoint's
    /// `in_region` flag both consume this form.
    pub fn region_constraints(&self) -> Vec<Constraint> {
        self.region_entries().into_iter().map(|(_, c)| c).collect()
    }

    /// The region as `(rendered text, constraint)` pairs, sorted by the
    /// rendered text (the historical output order of
    /// [`LiftedDomain::region`]). Callers that need both forms — the
    /// analysis endpoints render the strings *and* evaluate the
    /// constraints — should take this once instead of paying the
    /// lock/clone/format/sort twice.
    pub fn region_entries(&self) -> Vec<(String, Constraint)> {
        let mut out: Vec<(String, Constraint)> = self
            .policy
            .region
            .lock()
            .expect("region lock")
            .iter()
            .map(|c| (c.to_string(), c.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Check that `point` stays inside the validity region *and*
    /// preserves the graph shape, i.e. the skeleton built at the base
    /// point is exact when re-evaluated there. Tests the recorded
    /// region entries plus the shape conditions [`LiftedDomain::region`]
    /// does not report (strict positivity of every delay the skeleton
    /// treats as a real wait). Every lifted symbol must be bound in
    /// `point`; a violated or unevaluable condition yields
    /// [`ReachError::OutOfRegion`] naming it.
    pub fn check_point(&self, point: &Assignment) -> Result<(), ReachError> {
        let policy = &self.policy;
        for (sym, _) in policy.base.iter() {
            if !point.contains(sym) {
                return Err(ReachError::OutOfRegion {
                    constraint: format!("{} is bound", sym.name()),
                });
            }
        }
        for set in [&policy.region, &policy.shape] {
            for c in set.lock().expect("constraint lock").iter() {
                if c.check(point) != Some(true) {
                    return Err(ReachError::OutOfRegion {
                        constraint: c.to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl FrozenAtBase {
    /// Value of `e` at the base point (every symbol in any expression
    /// this domain produces is a lifted symbol, hence bound).
    fn at_base(&self, e: &LinExpr) -> Rational {
        e.eval(&self.base)
            .expect("lifted expressions only use lifted symbols")
    }

    /// `diff ⋈ 0`, oriented by the sign of `diff` at the base point.
    fn frozen(&self, diff: LinExpr) -> Constraint {
        let (expr, rel) = match self.at_base(&diff).signum() {
            0 => (diff, Relation::Eq),
            1 => (diff, Relation::Gt),
            _ => (diff.scale(&-Rational::ONE), Relation::Gt),
        };
        Constraint { expr, rel }
    }

    /// Record the outcome of comparing `a` against `b` if it involves a
    /// lifted symbol.
    fn record(&self, a: &LinExpr, b: &LinExpr) {
        let diff = a.clone() - b;
        if diff.is_constant() {
            return; // outcome independent of the lifted parameters
        }
        let entry = self.frozen(diff);
        self.region.lock().expect("region lock").insert(entry);
    }
}

impl Comparisons for FrozenAtBase {
    fn is_zero(&self, t: &LinExpr) -> bool {
        if t.is_constant() {
            return t.is_zero();
        }
        // Zero at the base point: a tie frozen into an equality of the
        // validity region. Otherwise the skeleton treats the delay as a
        // real wait; its sign is a shape condition, so a point that
        // collapses it to zero (making the step instantaneous) falls
        // outside the region.
        let entry = self.frozen(t.clone());
        let zero = entry.rel == Relation::Eq;
        let set = if zero { &self.region } else { &self.shape };
        set.lock().expect("constraint lock").insert(entry);
        zero
    }

    fn min_index(&self, candidates: &[LinExpr], _state: usize) -> Result<usize, ReachError> {
        let mut best = 0usize;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if self.at_base(c) < self.at_base(&candidates[best]) {
                best = i;
            }
        }
        for (i, c) in candidates.iter().enumerate() {
            if i != best {
                self.record(c, &candidates[best]);
            }
        }
        Ok(best)
    }

    fn time_eq(&self, a: &LinExpr, b: &LinExpr, _state: usize) -> Result<bool, ReachError> {
        if a == b {
            return Ok(true);
        }
        self.record(a, b);
        Ok(self.at_base(a) == self.at_base(b))
    }
}

/// Resolve a canonical attribute symbol against the net.
fn lookup_attribute(net: &TimedPetriNet, sym: Symbol) -> Result<Rational, ReachError> {
    for t in net.transitions() {
        let name = net.transition(t).name();
        if let Some(attr) = Attribute::ALL.into_iter().find(|a| a.symbol(name) == sym) {
            return attr.known(net, t);
        }
    }
    Err(ReachError::BadLift {
        symbol: sym.name(),
        reason: "no transition attribute of the net has this canonical name \
                 (expected E(t), F(t) or f(t) for a transition t)"
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_trg, AnalysisDomain, NumericDomain, TrgOptions};
    use tpn_net::{symbols, NetBuilder};
    use tpn_symbolic::{Poly, RatFn};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// succeed (w=3, d=1) vs retry (w=1, d=2) on a shared place.
    fn two_way() -> TimedPetriNet {
        let mut b = NetBuilder::new("lift");
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
        b.build().unwrap()
    }

    #[test]
    fn lifted_graph_matches_numeric_shape() {
        let net = two_way();
        let d = LiftedDomain::new(&net, &[symbols::firing("retry")]).unwrap();
        let trg = build_trg(&net, &d, &TrgOptions::default()).unwrap();
        let numeric = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(trg.num_states(), numeric.num_states());
        assert_eq!(trg.num_edges(), numeric.num_edges());
    }

    #[test]
    fn lifting_a_frequency_yields_symbolic_probabilities() {
        let net = two_way();
        let fr = symbols::frequency("retry");
        let d = LiftedDomain::new(&net, &[fr]).unwrap();
        let s = net.transition_by_name("succeed").unwrap();
        let t = net.transition_by_name("retry").unwrap();
        let mut ps = Vec::new();
        crate::domain::branch_probabilities(&d, &net, &[s, t], &mut ps).unwrap();
        // p(succeed) = 3 / (3 + f(retry))
        let three = Poly::constant(r(3, 1));
        let expect = RatFn::new(three.clone(), &three + &Poly::symbol(fr));
        assert_eq!(ps[0], expect);
        let at = Assignment::new().with(fr, r(1, 1));
        assert_eq!(ps[0].eval(&at), Some(r(3, 4)));
    }

    #[test]
    fn rejects_unknown_and_nonpositive_symbols() {
        let net = two_way();
        let bogus = Symbol::intern("F(nonexistent)");
        assert!(matches!(
            LiftedDomain::new(&net, &[bogus]),
            Err(ReachError::BadLift { .. })
        ));
        // enabling times default to zero: not sweepable
        let e = symbols::enabling("succeed");
        let err = LiftedDomain::new(&net, &[e]).unwrap_err();
        assert!(matches!(err, ReachError::BadLift { .. }), "{err}");
        // duplicate listing
        let f = symbols::firing("succeed");
        assert!(matches!(
            LiftedDomain::new(&net, &[f, f]),
            Err(ReachError::BadLift { .. })
        ));
    }

    #[test]
    fn comparisons_are_frozen_and_recorded() {
        let net = two_way();
        let f_retry = symbols::firing("retry");
        let d = LiftedDomain::new(&net, &[f_retry]).unwrap();
        let a = LinExpr::symbol(f_retry); // base 2
        let b = LinExpr::constant(r(1, 1));
        // min picks the constant 1 and records F(retry) - 1 > 0
        assert_eq!(d.min_index(&[a.clone(), b.clone()], 0), Ok(1));
        assert_eq!(d.time_eq(&a, &b, 0), Ok(false));
        let region = d.region();
        assert!(
            region
                .iter()
                .any(|c| c.contains("F(retry)") && c.contains("> 0")),
            "{region:?}"
        );
        // a tie freezes into an equality
        let c2 = LinExpr::constant(r(2, 1));
        assert_eq!(d.time_eq(&a, &c2, 0), Ok(true));
        assert!(
            d.region().iter().any(|c| c.ends_with("= 0")),
            "{:?}",
            d.region()
        );
    }

    #[test]
    fn check_point_accepts_in_region_and_rejects_violations() {
        // A fork-join: the next-event choice min(1, F(slow)) freezes
        // F(slow) - 1 > 0 into the region, and the join resynchronizes
        // the branches so no other comparison constrains F(slow).
        let mut b = NetBuilder::new("forkjoin");
        let s = b.place("s", 1);
        let pa = b.place("a", 0);
        let pb = b.place("b", 0);
        let pa2 = b.place("a2", 0);
        let pb2 = b.place("b2", 0);
        b.transition("fork").input(s).output(pa).output(pb).add();
        b.transition("fast")
            .input(pa)
            .output(pa2)
            .firing_const(1)
            .add();
        b.transition("slow")
            .input(pb)
            .output(pb2)
            .firing_const(2)
            .add();
        b.transition("join")
            .input(pa2)
            .input(pb2)
            .output(s)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let f_slow = symbols::firing("slow");
        let d = LiftedDomain::new(&net, &[f_slow]).unwrap();
        build_trg(&net, &d, &TrgOptions::default()).unwrap();
        // Inside: any F(slow) > 1 keeps every frozen comparison.
        d.check_point(&Assignment::new().with(f_slow, r(3, 2)))
            .unwrap();
        // Unbound lifted symbol.
        let err = d.check_point(&Assignment::new()).unwrap_err();
        assert!(matches!(err, ReachError::OutOfRegion { .. }), "{err}");
        // Outside the recorded region (flips the min choice).
        let err = d
            .check_point(&Assignment::new().with(f_slow, r(1, 2)))
            .unwrap_err();
        assert!(matches!(err, ReachError::OutOfRegion { .. }), "{err}");
    }

    #[test]
    fn check_point_uses_shape_conditions_beyond_the_reported_region() {
        // A single lifted transition records no comparisons — the
        // rendered region is empty — yet collapsing its delay to zero
        // would make the step instantaneous and change the skeleton.
        let mut b = NetBuilder::new("single");
        let p = b.place("p", 1);
        b.transition("t").input(p).output(p).firing_const(5).add();
        let net = b.build().unwrap();
        let ft = symbols::firing("t");
        let d = LiftedDomain::new(&net, &[ft]).unwrap();
        build_trg(&net, &d, &TrgOptions::default()).unwrap();
        assert!(d.region().is_empty(), "{:?}", d.region());
        d.check_point(&Assignment::new().with(ft, r(7, 1))).unwrap();
        let err = d
            .check_point(&Assignment::new().with(ft, Rational::ZERO))
            .unwrap_err();
        assert!(matches!(err, ReachError::OutOfRegion { .. }), "{err}");
    }

    #[test]
    fn structured_region_is_machine_evaluable_and_matches_rendering() {
        let net = two_way();
        let f_retry = symbols::firing("retry");
        let d = LiftedDomain::new(&net, &[f_retry]).unwrap();
        let a = LinExpr::symbol(f_retry); // base 2
        let one = LinExpr::constant(r(1, 1));
        let two = LinExpr::constant(r(2, 1));
        d.min_index(&[a.clone(), one], 0).unwrap(); // F(retry) - 1 > 0
        d.time_eq(&a, &two, 0).unwrap(); // F(retry) - 2 = 0
        let rendered = d.region();
        let constraints = d.region_constraints();
        assert_eq!(rendered.len(), constraints.len());
        // Same order: constraint i renders as string i.
        for (text, c) in rendered.iter().zip(&constraints) {
            let shown = match c.rel {
                tpn_symbolic::Relation::Eq => format!("{} = 0", c.expr),
                _ => format!("{} > 0", c.expr),
            };
            assert_eq!(*text, shown);
        }
        // The base point satisfies every recorded constraint; a point
        // outside (F(retry) = 1/2) violates the strict one.
        let base = Assignment::new().with(f_retry, r(2, 1));
        let outside = Assignment::new().with(f_retry, r(1, 2));
        assert!(constraints.iter().all(|c| c.check(&base) == Some(true)));
        assert!(constraints.iter().any(|c| c.check(&outside) == Some(false)));
    }
}
