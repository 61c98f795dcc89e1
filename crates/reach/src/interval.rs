//! Interval (range-of-delays) analysis — the paper's stated future work.
//!
//! *"We are currently exploring techniques for constructing and
//! analyzing Timed Reachability Graphs for nets which allow ranges of
//! firing times"* (paper, Conclusion). This module prototypes exactly
//! that, reusing the Figure-3 machinery unchanged: the time domain is a
//! closed interval `[lo, hi]` of exact rationals.
//!
//! Semantics and soundness:
//!
//! * a delay interval means the true delay is some fixed but unknown
//!   value inside the range (the paper's §3 reading of uncertainty, not
//!   Merlin–Farber nondeterminism);
//! * the minimum of a candidate set is decided only when one interval's
//!   upper bound is at most every competitor's lower bound; overlapping
//!   candidates abort with [`ReachError::AmbiguousComparison`] — the
//!   interval analogue of an insufficient timing-constraint set;
//! * subtracting the elapsed minimum uses interval arithmetic, which
//!   *loses the correlation* between the two occurrences of the elapsed
//!   time: residual ranges widen by the minimum's width. The analysis
//!   is therefore a sound over-approximation: every concrete behaviour
//!   is covered, but repeated uncertainty compounds and may eventually
//!   force an ambiguity error. Point intervals reproduce the numeric
//!   domain exactly.
//!
//! Probabilities stay numeric; edge delays are intervals, and
//! [`Interval::midpoint`] is used when a performance measure needs a
//! scalar (so measures of interval models are centre estimates bracketed
//! by [`Interval::lo`]/[`Interval::hi`] evaluations).

use std::fmt;

use tpn_net::{TimedPetriNet, TransId};
use tpn_rational::Rational;

use crate::domain::Attribute;
use crate::{AnalysisDomain, ReachError};

/// A closed interval `[lo, hi]` of exact rationals, `lo ≤ hi`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: Rational,
    hi: Rational,
}

impl Interval {
    /// Construct an interval.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: Rational, hi: Rational) -> Interval {
        assert!(lo <= hi, "Interval::new: lo > hi");
        Interval { lo, hi }
    }

    /// The degenerate point interval `[x, x]`.
    pub fn point(x: Rational) -> Interval {
        Interval { lo: x, hi: x }
    }

    /// Lower bound.
    pub fn lo(&self) -> &Rational {
        &self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> &Rational {
        &self.hi
    }

    /// `true` iff the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Width `hi − lo`.
    pub fn width(&self) -> Rational {
        self.hi - self.lo
    }

    /// Midpoint `(lo + hi)/2`.
    pub fn midpoint(&self) -> Rational {
        (self.lo + self.hi) / Rational::from_int(2)
    }

    /// `true` iff the intervals share no point.
    pub fn disjoint(&self, other: &Interval) -> bool {
        self.hi < other.lo || other.hi < self.lo
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Analysis domain where every delay is an [`Interval`].
///
/// Build with [`IntervalDomain::from_net`] (point intervals from the
/// net's known times) and widen individual transitions with
/// [`IntervalDomain::set_firing`]/[`IntervalDomain::set_enabling`].
#[derive(Debug, Clone)]
pub struct IntervalDomain {
    enabling: Vec<Interval>,
    firing: Vec<Interval>,
}

impl IntervalDomain {
    /// Start from a fully timed net: every delay becomes a point
    /// interval.
    pub fn from_net(net: &TimedPetriNet) -> Result<IntervalDomain, ReachError> {
        let mut enabling = Vec::with_capacity(net.num_transitions());
        let mut firing = Vec::with_capacity(net.num_transitions());
        for t in net.transitions() {
            enabling.push(Interval::point(Attribute::Enabling.known(net, t)?));
            firing.push(Interval::point(Attribute::Firing.known(net, t)?));
        }
        Ok(IntervalDomain { enabling, firing })
    }

    /// Replace a transition's firing-time interval.
    pub fn set_firing(&mut self, t: TransId, iv: Interval) -> &mut Self {
        self.firing[t.index()] = iv;
        self
    }

    /// Replace a transition's enabling-time interval.
    pub fn set_enabling(&mut self, t: TransId, iv: Interval) -> &mut Self {
        self.enabling[t.index()] = iv;
        self
    }
}

impl AnalysisDomain for IntervalDomain {
    type Time = Interval;
    type Prob = Rational;

    fn enabling_time(&self, _net: &TimedPetriNet, t: TransId) -> Result<Interval, ReachError> {
        Ok(self.enabling[t.index()].clone())
    }

    fn firing_time(&self, _net: &TimedPetriNet, t: TransId) -> Result<Interval, ReachError> {
        Ok(self.firing[t.index()].clone())
    }

    fn weight(&self, net: &TimedPetriNet, t: TransId) -> Result<Rational, ReachError> {
        Attribute::Frequency.known(net, t)
    }

    fn zero(&self) -> Interval {
        Interval::point(Rational::ZERO)
    }

    fn is_zero(&self, t: &Interval) -> bool {
        t.is_point() && t.lo.is_zero()
    }

    fn sub(&self, a: &Interval, b: &Interval) -> Interval {
        // Callers guarantee b (the elapsed minimum) satisfies
        // b.hi ≤ a.lo, so the lower bound stays non-negative. The
        // correlation between occurrences of the elapsed time is lost:
        // the result widens by b.width().
        Interval::new(a.lo - b.hi, a.hi - b.lo)
    }

    fn add(&self, a: &Interval, b: &Interval) -> Interval {
        Interval::new(a.lo + b.lo, a.hi + b.hi)
    }

    fn time_as_prob(&self, t: &Interval) -> Rational {
        t.midpoint()
    }

    fn min_index(&self, candidates: &[Interval], state: usize) -> Result<usize, ReachError> {
        'outer: for (i, ci) in candidates.iter().enumerate() {
            for (j, cj) in candidates.iter().enumerate() {
                if i == j {
                    continue;
                }
                if ci.hi > cj.lo {
                    continue 'outer;
                }
            }
            return Ok(i);
        }
        // No certainly-minimal candidate: report an overlapping pair.
        for (i, ci) in candidates.iter().enumerate() {
            for cj in candidates.iter().skip(i + 1) {
                if !ci.disjoint(cj) && ci != cj {
                    return Err(ReachError::AmbiguousComparison {
                        left: ci.to_string(),
                        right: cj.to_string(),
                        state,
                    });
                }
            }
        }
        Err(ReachError::AmbiguousComparison {
            left: candidates[0].to_string(),
            right: candidates[candidates.len() - 1].to_string(),
            state,
        })
    }

    fn time_eq(&self, a: &Interval, b: &Interval, state: usize) -> Result<bool, ReachError> {
        if a == b {
            // Identical intervals reaching this point are the elapsed
            // minimum itself (competitors would have failed min_index),
            // or genuinely equal point values.
            return Ok(true);
        }
        if a.disjoint(b) {
            return Ok(false);
        }
        Err(ReachError::AmbiguousComparison {
            left: a.to_string(),
            right: b.to_string(),
            state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_trg, NumericDomain, TrgOptions};
    use tpn_net::NetBuilder;

    fn r(n: i128) -> Rational {
        Rational::from_int(n)
    }

    fn iv(lo: i128, hi: i128) -> Interval {
        Interval::new(r(lo), r(hi))
    }

    #[test]
    fn interval_basics() {
        let a = iv(2, 5);
        assert_eq!(*a.lo(), r(2));
        assert_eq!(*a.hi(), r(5));
        assert!(!a.is_point());
        assert_eq!(a.width(), r(3));
        assert_eq!(a.midpoint(), Rational::new(7, 2));
        assert!(a.disjoint(&iv(6, 7)));
        assert!(!a.disjoint(&iv(5, 7)));
        assert_eq!(a.to_string(), "[2, 5]");
        assert_eq!(Interval::point(r(4)).to_string(), "4");
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn invalid_interval_rejected() {
        let _ = iv(5, 2);
    }

    #[test]
    fn point_intervals_reproduce_numeric_graph() {
        let mut b = NetBuilder::new("iv-cycle");
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
        let net = b.build().unwrap();
        let idom = IntervalDomain::from_net(&net).unwrap();
        let itrg = build_trg(&net, &idom, &TrgOptions::default()).unwrap();
        let ntrg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(itrg.num_states(), ntrg.num_states());
        assert_eq!(itrg.num_edges(), ntrg.num_edges());
        let idelays: Vec<Interval> = itrg.all_edges().map(|e| e.delay.clone()).collect();
        let ndelays: Vec<Rational> = ntrg.all_edges().map(|e| e.delay).collect();
        for (i, n) in idelays.iter().zip(&ndelays) {
            assert_eq!(i, &Interval::point(*n));
        }
    }

    #[test]
    fn disjoint_ranges_resolve() {
        // go ∈ [2, 3] always completes before back's pending timer? No
        // timer competition here — a fork: two parallel branches with
        // disjoint ranges [1,2] and [5,6]; the first always completes
        // first, leaving the second with a widened residual [3, 5].
        let mut b = NetBuilder::new("iv-par");
        let p1 = b.place("p1", 1);
        let q1 = b.place("q1", 0);
        let p2 = b.place("p2", 1);
        let q2 = b.place("q2", 0);
        let fast = b
            .transition("fast")
            .input(p1)
            .output(q1)
            .firing_const(1)
            .add();
        let slow = b
            .transition("slow")
            .input(p2)
            .output(q2)
            .firing_const(5)
            .add();
        let net = b.build().unwrap();
        let mut dom = IntervalDomain::from_net(&net).unwrap();
        dom.set_firing(fast, iv(1, 2));
        dom.set_firing(slow, iv(5, 6));
        let trg = build_trg(&net, &dom, &TrgOptions::default()).unwrap();
        // fire both → elapse [1,2] (fast completes) → elapse residual
        let e0 = &trg.edges_from(trg.initial())[0];
        let e1 = &trg.edges_from(e0.to)[0];
        assert_eq!(e1.delay, iv(1, 2));
        assert_eq!(trg.completed(e1).len(), 1);
        let e2 = &trg.edges_from(e1.to)[0];
        // residual of slow: [5−2, 6−1] = [3, 5] — widened by fast's width
        assert_eq!(e2.delay, iv(3, 5));
        assert!(trg.terminal_states().len() == 1);
    }

    #[test]
    fn overlapping_ranges_are_ambiguous() {
        let mut b = NetBuilder::new("iv-amb");
        let p1 = b.place("p1", 1);
        let q1 = b.place("q1", 0);
        let p2 = b.place("p2", 1);
        let q2 = b.place("q2", 0);
        let a = b.transition("a").input(p1).output(q1).firing_const(1).add();
        let z = b.transition("z").input(p2).output(q2).firing_const(5).add();
        let net = b.build().unwrap();
        let mut dom = IntervalDomain::from_net(&net).unwrap();
        dom.set_firing(a, iv(1, 4));
        dom.set_firing(z, iv(3, 6)); // overlaps [1,4]
        let err = build_trg(&net, &dom, &TrgOptions::default()).unwrap_err();
        match err {
            ReachError::AmbiguousComparison { left, right, .. } => {
                assert!(left.contains('['), "{left} vs {right}");
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn protocol_tolerates_a_narrow_jitter_band() {
        // Widen the packet transmission time of the paper's protocol to
        // [106.7−5, 106.7+5]: constraint (1) still separates every
        // comparison, so the 18-state graph survives with interval
        // delays (and the throughput midpoint brackets the exact one).
        let proto = tpn_protocols_simple_paper();
        let t4 = proto.net.transition_by_name("t4").unwrap();
        let mut dom = IntervalDomain::from_net(&proto.net).unwrap();
        let lo = Rational::new(1017, 10);
        let hi = Rational::new(1117, 10);
        dom.set_firing(t4, Interval::new(lo, hi));
        let trg = build_trg(&proto.net, &dom, &TrgOptions::default()).unwrap();
        assert_eq!(trg.num_states(), 18);
    }

    fn tpn_protocols_simple_paper() -> SimpleLike {
        // Local copy of the paper protocol to avoid a dev-dependency
        // cycle with tpn-protocols.
        let mut b = NetBuilder::new("simple-protocol");
        let p1 = b.place("sender_ready", 1);
        let p2 = b.place("packet_in_medium", 0);
        let p3 = b.place("packet_delivered", 0);
        let p4 = b.place("awaiting_ack", 0);
        let p5 = b.place("ack_accepted", 0);
        let p6 = b.place("ack_delivered", 0);
        let p7 = b.place("ack_in_medium", 0);
        let p8 = b.place("receiver_ready", 1);
        let ms = |n: i128, d: i128| Rational::new(n, d);
        b.transition("t1")
            .input(p5)
            .output(p1)
            .firing_const(1)
            .add();
        b.transition("t2")
            .input(p1)
            .output(p2)
            .output(p4)
            .firing_const(1)
            .add();
        b.transition("t3")
            .input(p4)
            .output(p1)
            .enabling_const(1000)
            .firing_const(1)
            .weight_const(0)
            .add();
        b.transition("t4")
            .input(p2)
            .output(p3)
            .firing(ms(1067, 10))
            .weight(ms(19, 20))
            .add();
        b.transition("t5")
            .input(p2)
            .firing(ms(1067, 10))
            .weight(ms(1, 20))
            .add();
        b.transition("t6")
            .input(p3)
            .input(p8)
            .output(p7)
            .output(p8)
            .firing(ms(27, 2))
            .add();
        b.transition("t7")
            .input(p4)
            .input(p6)
            .output(p5)
            .firing(ms(27, 2))
            .add();
        b.transition("t8")
            .input(p7)
            .output(p6)
            .firing(ms(1067, 10))
            .weight(ms(19, 20))
            .add();
        b.transition("t9")
            .input(p7)
            .firing(ms(1067, 10))
            .weight(ms(1, 20))
            .add();
        SimpleLike {
            net: b.build().unwrap(),
        }
    }

    struct SimpleLike {
        net: tpn_net::TimedPetriNet,
    }
}
