//! Timing-constraint sets and their decision procedure.
//!
//! Section 3 of the paper: *"the model must include sufficient timing
//! constraints to guarantee that all vertices which do not involve
//! decisions have at most one successor each. This is the case when
//! timing constraints are sufficiently specific to identify the smallest
//! non-zero RET and RFT for every state in the graph."*
//!
//! A [`ConstraintSet`] is a conjunction of linear constraints
//! `expr ⋈ 0` with `⋈ ∈ {=, ≥, >}` over the time symbols. The key
//! operation is **entailment**: does the conjunction logically imply
//! another linear constraint? We decide this by refutation — add the
//! negation and test for infeasibility with **Fourier–Motzkin
//! elimination**, which is sound *and complete* for linear arithmetic
//! over the rationals. All arithmetic is exact, so there are no
//! tolerance knobs and no false positives.

use std::collections::BTreeSet;
use std::fmt;

use tpn_rational::Rational;

use crate::{Assignment, LinExpr, Symbol};

/// Relation of a constraint's expression to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Relation {
    /// `expr = 0`
    Eq,
    /// `expr ≥ 0`
    Ge,
    /// `expr > 0`
    Gt,
}

/// A single linear constraint `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Constraint {
    /// The left-hand side (the right-hand side is always zero).
    pub expr: LinExpr,
    /// How `expr` relates to zero.
    pub rel: Relation,
}

impl Constraint {
    /// Normalise for deduplication: scale so that coefficients are
    /// integers with content 1 (preserving sign).
    fn normalised(&self) -> Constraint {
        let mut denom_lcm: i128 = 1;
        let mut numer_gcd: i128 = 0;
        for (_, c) in self.expr.terms() {
            denom_lcm = tpn_rational::lcm(denom_lcm, c.denom()).unwrap_or(denom_lcm);
        }
        denom_lcm =
            tpn_rational::lcm(denom_lcm, self.expr.constant_part().denom()).unwrap_or(denom_lcm);
        for (_, c) in self.expr.terms() {
            numer_gcd = tpn_rational::gcd(numer_gcd, (c * Rational::from_int(denom_lcm)).numer());
        }
        numer_gcd = tpn_rational::gcd(
            numer_gcd,
            (self.expr.constant_part() * Rational::from_int(denom_lcm)).numer(),
        );
        if numer_gcd == 0 {
            return self.clone();
        }
        let scale = Rational::new(denom_lcm, numer_gcd);
        Constraint {
            expr: self.expr.scale(&scale),
            rel: self.rel,
        }
    }

    /// Evaluate the constraint under a numeric assignment.
    pub fn check(&self, a: &Assignment) -> Option<bool> {
        let v = self.expr.eval(a)?;
        Some(match self.rel {
            Relation::Eq => v.is_zero(),
            Relation::Ge => !v.is_negative(),
            Relation::Gt => v.is_positive(),
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = match self.rel {
            Relation::Eq => "=",
            Relation::Ge => "≥",
            Relation::Gt => ">",
        };
        write!(f, "{} {rel} 0", self.expr)
    }
}

/// Result of a three-way symbolic comparison under a constraint set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a = b` is entailed.
    Equal,
    /// `a < b` is entailed.
    Less,
    /// `a > b` is entailed.
    Greater,
    /// `a ≤ b` is entailed, but neither `a < b` nor `a = b` is.
    LessEq,
    /// `a ≥ b` is entailed, but neither `a > b` nor `a = b` is.
    GreaterEq,
    /// No ordering is entailed by the constraints.
    Unknown,
}

/// Errors from the constraint decision procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// Fourier–Motzkin elimination exceeded the working-set limit.
    ///
    /// Elimination is worst-case exponential; this error bounds it. The
    /// timing-constraint systems arising from protocol nets are tiny, so
    /// hitting this limit indicates a degenerate model.
    TooComplex {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// No expression in the candidate set is entailed to be minimal; the
    /// two named expressions cannot be ordered. This is the structured
    /// form of the paper's "prompt designers for timing constraints at
    /// the necessary points".
    AmbiguousMinimum {
        /// One candidate of the undecidable pair.
        left: LinExpr,
        /// The other candidate.
        right: LinExpr,
    },
    /// `min_of` was called with no candidates.
    EmptyCandidates,
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::TooComplex { limit } => {
                write!(
                    f,
                    "Fourier–Motzkin elimination exceeded {limit} working constraints"
                )
            }
            ConstraintError::AmbiguousMinimum { left, right } => write!(
                f,
                "timing constraints are insufficient to order ({left}) against ({right}); \
                 add a constraint relating them"
            ),
            ConstraintError::EmptyCandidates => write!(f, "minimum of an empty set of expressions"),
        }
    }
}

impl std::error::Error for ConstraintError {}

/// Maximum number of working constraints during elimination.
const FM_LIMIT: usize = 50_000;

/// A conjunction of linear timing constraints with an exact entailment
/// decision procedure.
///
/// # Examples
///
/// The paper's constraint (1), *"the timeout period must be greater than
/// the round-trip delay"*:
///
/// ```
/// use tpn_symbolic::{ConstraintSet, LinExpr, Symbol};
///
/// let e3 = LinExpr::symbol(Symbol::intern("E(t3)"));
/// let f4 = LinExpr::symbol(Symbol::intern("F(t4)"));
/// let f6 = LinExpr::symbol(Symbol::intern("F(t6)"));
/// let f8 = LinExpr::symbol(Symbol::intern("F(t8)"));
///
/// let mut cs = ConstraintSet::new();
/// for t in [&f4, &f6, &f8] {
///     cs.assume_ge(t.clone(), LinExpr::zero()); // times are non-negative
/// }
/// cs.assume_gt(e3.clone(), f4.clone() + &f6 + &f8); // constraint (1)
///
/// // It follows that the timeout exceeds the one-way delay alone:
/// assert_eq!(cs.entails_gt(&e3, &f4), Ok(true));
/// // ... but nothing orders F(t4) against F(t6):
/// assert_eq!(cs.entails_ge(&f4, &f6), Ok(false));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// The empty (always-satisfiable) constraint set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Assume `expr ⋈ 0`.
    pub fn assume(&mut self, expr: LinExpr, rel: Relation) -> &mut Self {
        self.constraints.push(Constraint { expr, rel });
        self
    }

    /// Assume `a = b`.
    pub fn assume_eq(&mut self, a: LinExpr, b: LinExpr) -> &mut Self {
        self.assume(a - b, Relation::Eq)
    }

    /// Assume `a ≥ b`.
    pub fn assume_ge(&mut self, a: LinExpr, b: LinExpr) -> &mut Self {
        self.assume(a - b, Relation::Ge)
    }

    /// Assume `a > b`.
    pub fn assume_gt(&mut self, a: LinExpr, b: LinExpr) -> &mut Self {
        self.assume(a - b, Relation::Gt)
    }

    /// Assume `a ≤ b`.
    pub fn assume_le(&mut self, a: LinExpr, b: LinExpr) -> &mut Self {
        self.assume(b - a, Relation::Ge)
    }

    /// Assume `a < b`.
    pub fn assume_lt(&mut self, a: LinExpr, b: LinExpr) -> &mut Self {
        self.assume(b - a, Relation::Gt)
    }

    /// Is the conjunction satisfiable over the rationals?
    pub fn is_feasible(&self) -> Result<bool, ConstraintError> {
        feasible(self.constraints.clone())
    }

    /// Does the conjunction entail `expr ⋈ 0`?
    ///
    /// Decided by refutation; complete over the rationals. Note that an
    /// *infeasible* constraint set entails everything.
    pub fn entails(&self, expr: &LinExpr, rel: Relation) -> Result<bool, ConstraintError> {
        match rel {
            Relation::Eq => Ok(self.entails(expr, Relation::Ge)?
                && self.entails(&(-expr.clone()), Relation::Ge)?),
            Relation::Ge => {
                // ¬(expr ≥ 0) ≡ −expr > 0
                let mut work = self.constraints.clone();
                work.push(Constraint {
                    expr: -expr.clone(),
                    rel: Relation::Gt,
                });
                Ok(!feasible(work)?)
            }
            Relation::Gt => {
                // ¬(expr > 0) ≡ −expr ≥ 0
                let mut work = self.constraints.clone();
                work.push(Constraint {
                    expr: -expr.clone(),
                    rel: Relation::Ge,
                });
                Ok(!feasible(work)?)
            }
        }
    }

    /// Does the conjunction entail `a ≥ b`?
    pub fn entails_ge(&self, a: &LinExpr, b: &LinExpr) -> Result<bool, ConstraintError> {
        self.entails(&(a.clone() - b), Relation::Ge)
    }

    /// Does the conjunction entail `a > b`?
    pub fn entails_gt(&self, a: &LinExpr, b: &LinExpr) -> Result<bool, ConstraintError> {
        self.entails(&(a.clone() - b), Relation::Gt)
    }

    /// Does the conjunction entail `a = b`?
    pub fn entails_eq(&self, a: &LinExpr, b: &LinExpr) -> Result<bool, ConstraintError> {
        self.entails(&(a.clone() - b), Relation::Eq)
    }

    /// Three-way comparison of two expressions under the constraints.
    pub fn compare(&self, a: &LinExpr, b: &LinExpr) -> Result<Cmp, ConstraintError> {
        let diff = a.clone() - b;
        // Fast path: syntactically equal or constant difference.
        if diff.is_zero() {
            return Ok(Cmp::Equal);
        }
        if diff.is_constant() {
            let c = diff.constant_part();
            return Ok(if c.is_zero() {
                Cmp::Equal
            } else if c.is_negative() {
                Cmp::Less
            } else {
                Cmp::Greater
            });
        }
        if self.entails(&diff, Relation::Eq)? {
            return Ok(Cmp::Equal);
        }
        if self.entails(&(-diff.clone()), Relation::Gt)? {
            return Ok(Cmp::Less);
        }
        if self.entails(&diff, Relation::Gt)? {
            return Ok(Cmp::Greater);
        }
        if self.entails(&(-diff.clone()), Relation::Ge)? {
            return Ok(Cmp::LessEq);
        }
        if self.entails(&diff, Relation::Ge)? {
            return Ok(Cmp::GreaterEq);
        }
        Ok(Cmp::Unknown)
    }

    /// Find an index `i` such that `candidates[i] ≤ candidates[j]` is
    /// entailed for every `j`. Returns [`ConstraintError::AmbiguousMinimum`]
    /// naming an undecidable pair when the constraints are insufficient —
    /// the paper's "prompt the designer" point.
    pub fn min_of(&self, candidates: &[LinExpr]) -> Result<usize, ConstraintError> {
        if candidates.is_empty() {
            return Err(ConstraintError::EmptyCandidates);
        }
        'outer: for (i, ci) in candidates.iter().enumerate() {
            for cj in candidates.iter() {
                if std::ptr::eq(ci, cj) {
                    continue;
                }
                if !self.entails_ge(cj, ci)? {
                    continue 'outer;
                }
            }
            return Ok(i);
        }
        // No candidate is provably minimal: find an undecidable pair for
        // the error message.
        for (i, ci) in candidates.iter().enumerate() {
            for cj in candidates.iter().skip(i + 1) {
                if !self.entails_ge(cj, ci)? && !self.entails_ge(ci, cj)? {
                    return Err(ConstraintError::AmbiguousMinimum {
                        left: ci.clone(),
                        right: cj.clone(),
                    });
                }
            }
        }
        // All pairs are ordered but no global minimum was found — this
        // cannot happen for a total preorder; defensive fallback.
        Err(ConstraintError::AmbiguousMinimum {
            left: candidates[0].clone(),
            right: candidates[candidates.len() - 1].clone(),
        })
    }

    /// Check every constraint under a numeric assignment (for testing and
    /// for validating concrete instantiations). `None` if some symbol is
    /// unbound.
    pub fn check(&self, a: &Assignment) -> Option<bool> {
        for c in &self.constraints {
            if !c.check(a)? {
                return Some(false);
            }
        }
        Some(true)
    }

    /// All symbols mentioned by the constraints.
    pub fn symbols(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = Vec::new();
        for c in &self.constraints {
            for s in c.expr.symbols() {
                if let Err(pos) = out.binary_search(&s) {
                    out.insert(pos, s);
                }
            }
        }
        out
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Fourier–Motzkin feasibility test.
fn feasible(mut work: Vec<Constraint>) -> Result<bool, ConstraintError> {
    // Phase 1: use equalities as substitutions.
    loop {
        let mut subst: Option<(Symbol, LinExpr)> = None;
        let mut infeasible = false;
        work.retain(|c| {
            if subst.is_some() || infeasible || c.rel != Relation::Eq {
                return true;
            }
            match c.expr.symbols().next() {
                Some(s) => {
                    // c·s + rest = 0  =>  s = −rest/c
                    let coeff = c.expr.coeff(s);
                    let mut rest = c.expr.clone();
                    rest.add_term(-coeff, s);
                    let replacement = rest.scale(&(-coeff.recip()));
                    subst = Some((s, replacement));
                    false
                }
                None => {
                    if !c.expr.constant_part().is_zero() {
                        infeasible = true;
                    }
                    false
                }
            }
        });
        if infeasible {
            return Ok(false);
        }
        match subst {
            Some((s, replacement)) => {
                for c in &mut work {
                    c.expr = c.expr.substitute(s, &replacement);
                }
            }
            None => break,
        }
    }
    // Phase 2: eliminate variables from the inequalities.
    loop {
        // Drop constant constraints, checking them.
        let mut still = Vec::with_capacity(work.len());
        for c in work {
            if c.expr.is_constant() {
                let v = c.expr.constant_part();
                let ok = match c.rel {
                    Relation::Ge => !v.is_negative(),
                    Relation::Gt => v.is_positive(),
                    Relation::Eq => v.is_zero(),
                };
                if !ok {
                    return Ok(false);
                }
            } else {
                still.push(c);
            }
        }
        work = dedupe(still);
        if work.is_empty() {
            return Ok(true);
        }
        // Pick the variable minimising |P|·|N| (Fourier–Motzkin heuristic).
        let mut vars: BTreeSet<Symbol> = BTreeSet::new();
        for c in &work {
            vars.extend(c.expr.symbols());
        }
        let mut best: Option<(Symbol, usize)> = None;
        for &v in &vars {
            let mut pos = 0usize;
            let mut neg = 0usize;
            for c in &work {
                let coeff = c.expr.coeff(v);
                if coeff.is_positive() {
                    pos += 1;
                } else if coeff.is_negative() {
                    neg += 1;
                }
            }
            let cost = pos * neg + pos + neg;
            if best.map(|(_, b)| cost < b).unwrap_or(true) {
                best = Some((v, cost));
            }
        }
        let (x, _) = best.expect("non-constant constraints mention variables");
        let mut lowers: Vec<Constraint> = Vec::new(); // coeff(x) > 0
        let mut uppers: Vec<Constraint> = Vec::new(); // coeff(x) < 0
        let mut rest: Vec<Constraint> = Vec::new();
        for c in work {
            let coeff = c.expr.coeff(x);
            if coeff.is_positive() {
                lowers.push(c);
            } else if coeff.is_negative() {
                uppers.push(c);
            } else {
                rest.push(c);
            }
        }
        if lowers.len() * uppers.len() + rest.len() > FM_LIMIT {
            return Err(ConstraintError::TooComplex { limit: FM_LIMIT });
        }
        for lo in &lowers {
            let cl = lo.expr.coeff(x); // > 0
            for up in &uppers {
                let cu = up.expr.coeff(x); // < 0
                                           // cl·up.expr − cu·lo.expr eliminates x with positive
                                           // multipliers (cl and −cu).
                let combined = up.expr.scale(&cl) - lo.expr.scale(&cu);
                debug_assert!(combined.coeff(x).is_zero());
                let rel = if lo.rel == Relation::Gt || up.rel == Relation::Gt {
                    Relation::Gt
                } else {
                    Relation::Ge
                };
                rest.push(Constraint {
                    expr: combined,
                    rel,
                });
            }
        }
        work = rest;
        if work.len() > FM_LIMIT {
            return Err(ConstraintError::TooComplex { limit: FM_LIMIT });
        }
    }
}

/// Normalise and deduplicate, keeping the strictest relation per
/// expression.
fn dedupe(work: Vec<Constraint>) -> Vec<Constraint> {
    let mut map: std::collections::BTreeMap<LinExpr, Relation> = std::collections::BTreeMap::new();
    for c in work {
        let n = c.normalised();
        map.entry(n.expr)
            .and_modify(|r| {
                if n.rel > *r {
                    *r = n.rel;
                }
            })
            .or_insert(n.rel);
    }
    map.into_iter()
        .map(|(expr, rel)| Constraint { expr, rel })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: &str) -> LinExpr {
        LinExpr::symbol(Symbol::intern(n))
    }

    fn c(n: i128) -> LinExpr {
        LinExpr::constant(Rational::from_int(n))
    }

    #[test]
    fn empty_set_is_feasible_entails_nothing() {
        let cs = ConstraintSet::new();
        assert_eq!(cs.is_feasible(), Ok(true));
        let x = sym("cs_x");
        assert_eq!(cs.entails_ge(&x, &LinExpr::zero()), Ok(false));
        // ... but tautologies hold
        assert_eq!(cs.entails_ge(&x, &x), Ok(true));
        assert_eq!(cs.entails_eq(&x, &x), Ok(true));
        assert_eq!(cs.entails_gt(&(x.clone() + c(1)), &x), Ok(true));
    }

    #[test]
    fn basic_transitivity() {
        let (a, b, d) = (sym("cs_t1"), sym("cs_t2"), sym("cs_t3"));
        let mut cs = ConstraintSet::new();
        cs.assume_gt(a.clone(), b.clone());
        cs.assume_ge(b.clone(), d.clone());
        assert_eq!(cs.entails_gt(&a, &d), Ok(true));
        assert_eq!(cs.entails_ge(&a, &d), Ok(true));
        assert_eq!(cs.entails_gt(&b, &d), Ok(false)); // only ≥ was assumed
        assert_eq!(cs.entails_ge(&d, &a), Ok(false));
    }

    #[test]
    fn equalities_substitute() {
        let (a, b) = (sym("cs_e1"), sym("cs_e2"));
        let mut cs = ConstraintSet::new();
        cs.assume_eq(a.clone(), b.clone() + c(3));
        assert_eq!(cs.entails_gt(&a, &b), Ok(true));
        assert_eq!(cs.entails_eq(&(a.clone() - b.clone()), &c(3)), Ok(true));
    }

    #[test]
    fn infeasibility_detected() {
        let a = sym("cs_i1");
        let mut cs = ConstraintSet::new();
        cs.assume_gt(a.clone(), c(5));
        cs.assume_lt(a.clone(), c(3));
        assert_eq!(cs.is_feasible(), Ok(false));
        // Infeasible sets entail everything (ex falso).
        assert_eq!(cs.entails_ge(&c(0), &c(1)), Ok(true));
    }

    #[test]
    fn strictness_tracked() {
        let a = sym("cs_s1");
        let mut cs = ConstraintSet::new();
        cs.assume_ge(a.clone(), c(5));
        cs.assume_le(a.clone(), c(5));
        // a = 5 exactly: feasible, and a > 4 entailed, a > 5 not.
        assert_eq!(cs.is_feasible(), Ok(true));
        assert_eq!(cs.entails_gt(&a, &c(4)), Ok(true));
        assert_eq!(cs.entails_gt(&a, &c(5)), Ok(false));
        assert_eq!(cs.entails_eq(&a, &c(5)), Ok(true));
        // strict pair on the same point is infeasible
        let mut cs2 = ConstraintSet::new();
        cs2.assume_gt(a.clone(), c(5));
        cs2.assume_le(a.clone(), c(5));
        assert_eq!(cs2.is_feasible(), Ok(false));
    }

    #[test]
    fn paper_constraint_one() {
        // E(t3) > F(t4) + F(t6) + F(t8), all times ≥ 0
        // ⟹ E(t3) > F(t4), E(t3) > F(t4) + F(t6), etc.
        let e3 = sym("cs_E3");
        let f4 = sym("cs_F4");
        let f6 = sym("cs_F6");
        let f8 = sym("cs_F8");
        let mut cs = ConstraintSet::new();
        for t in [&f4, &f6, &f8] {
            cs.assume_ge(t.clone(), LinExpr::zero());
        }
        cs.assume_gt(e3.clone(), f4.clone() + &f6 + &f8);
        assert_eq!(cs.entails_gt(&e3, &f4), Ok(true));
        assert_eq!(cs.entails_gt(&e3, &(f4.clone() + &f6)), Ok(true));
        assert_eq!(
            cs.entails_gt(&(e3.clone() - f4.clone() - &f6), &f8),
            Ok(true)
        );
        // but F(t4) vs F(t6) is open
        assert_eq!(cs.compare(&f4, &f6), Ok(Cmp::Unknown));
    }

    #[test]
    fn compare_all_outcomes() {
        let (a, b) = (sym("cs_c1"), sym("cs_c2"));
        let mut cs = ConstraintSet::new();
        cs.assume_lt(a.clone(), b.clone());
        assert_eq!(cs.compare(&a, &b), Ok(Cmp::Less));
        assert_eq!(cs.compare(&b, &a), Ok(Cmp::Greater));
        assert_eq!(cs.compare(&a, &a), Ok(Cmp::Equal));

        let (x, y) = (sym("cs_c3"), sym("cs_c4"));
        let mut cs2 = ConstraintSet::new();
        cs2.assume_le(x.clone(), y.clone());
        assert_eq!(cs2.compare(&x, &y), Ok(Cmp::LessEq));
        assert_eq!(cs2.compare(&y, &x), Ok(Cmp::GreaterEq));

        let mut cs3 = ConstraintSet::new();
        cs3.assume_eq(x.clone(), y.clone());
        assert_eq!(cs3.compare(&x, &y), Ok(Cmp::Equal));

        assert_eq!(ConstraintSet::new().compare(&x, &y), Ok(Cmp::Unknown));
        // constant fast path
        assert_eq!(ConstraintSet::new().compare(&c(2), &c(3)), Ok(Cmp::Less));
        assert_eq!(ConstraintSet::new().compare(&c(3), &c(3)), Ok(Cmp::Equal));
        assert_eq!(ConstraintSet::new().compare(&c(4), &c(3)), Ok(Cmp::Greater));
    }

    #[test]
    fn min_of_finds_entailed_minimum() {
        let e3 = sym("cs_m1");
        let f4 = sym("cs_m2");
        let mut cs = ConstraintSet::new();
        cs.assume_ge(f4.clone(), LinExpr::zero());
        cs.assume_gt(e3.clone(), f4.clone());
        let cands = [e3.clone(), f4.clone()];
        assert_eq!(cs.min_of(&cands), Ok(1));
        let cands2 = [f4.clone(), e3.clone()];
        assert_eq!(cs.min_of(&cands2), Ok(0));
        // singleton
        assert_eq!(cs.min_of(std::slice::from_ref(&e3)), Ok(0));
        // empty
        assert_eq!(cs.min_of(&[]), Err(ConstraintError::EmptyCandidates));
    }

    #[test]
    fn min_of_reports_ambiguous_pair() {
        let a = sym("cs_a1");
        let b = sym("cs_a2");
        let cs = ConstraintSet::new();
        match cs.min_of(&[a.clone(), b.clone()]) {
            Err(ConstraintError::AmbiguousMinimum { left, right }) => {
                assert!((left == a && right == b) || (left == b && right == a));
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn min_of_with_ties() {
        let a = sym("cs_tie1");
        let b = sym("cs_tie2");
        let mut cs = ConstraintSet::new();
        cs.assume_eq(a.clone(), b.clone());
        // Either index is acceptable; both are entailed ≤ the other.
        let idx = cs.min_of(&[a.clone(), b.clone()]).unwrap();
        assert!(idx == 0 || idx == 1);
    }

    #[test]
    fn numeric_check() {
        let a = Symbol::intern("cs_n1");
        let b = Symbol::intern("cs_n2");
        let mut cs = ConstraintSet::new();
        cs.assume_gt(LinExpr::symbol(a), LinExpr::symbol(b));
        let good = Assignment::new()
            .with(a, Rational::from_int(5))
            .with(b, Rational::from_int(3));
        let bad = Assignment::new()
            .with(a, Rational::from_int(3))
            .with(b, Rational::from_int(5));
        assert_eq!(cs.check(&good), Some(true));
        assert_eq!(cs.check(&bad), Some(false));
        assert_eq!(cs.check(&Assignment::new()), None);
    }

    #[test]
    fn chained_elimination() {
        // x1 ≤ x2 ≤ ... ≤ x6, x1 ≥ 10 entails x6 ≥ 10.
        let xs: Vec<LinExpr> = (0..6).map(|i| sym(&format!("cs_chain{i}"))).collect();
        let mut cs = ConstraintSet::new();
        for w in xs.windows(2) {
            cs.assume_le(w[0].clone(), w[1].clone());
        }
        cs.assume_ge(xs[0].clone(), c(10));
        assert_eq!(cs.entails_ge(&xs[5], &c(10)), Ok(true));
        assert_eq!(cs.entails_gt(&xs[5], &c(10)), Ok(false));
        assert_eq!(cs.min_of(&xs.clone()), Ok(0));
    }

    #[test]
    fn symbols_listed() {
        let mut cs = ConstraintSet::new();
        cs.assume_ge(sym("cs_sym_a"), sym("cs_sym_b"));
        let syms = cs.symbols();
        assert_eq!(syms.len(), 2);
    }

    #[test]
    fn display() {
        let mut cs = ConstraintSet::new();
        cs.assume_gt(sym("cs_d_x"), LinExpr::zero());
        let shown = cs.to_string();
        assert!(shown.contains("cs_d_x"), "{shown}");
        assert!(shown.contains("> 0"), "{shown}");
    }
}
