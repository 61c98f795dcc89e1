//! Timed states: marking + RET + RFT, with sparse clocks.

use std::fmt;
use std::hash::Hash;

use tpn_net::{Marking, TransId};

/// A state of a timed reachability graph, parameterised by the time
/// representation `T` ([`tpn_rational::Rational`] for the numeric
/// domain, [`tpn_symbolic::LinExpr`] for the symbolic one).
///
/// The paper's state is (marking, RET, RFT), with a RET and an RFT
/// entry per transition. Only *enabled* transitions carry a remaining
/// enabling time and only *firing* ones a remaining firing time, so
/// both vectors are stored sparsely: `(transition, time)` pairs sorted
/// by transition, one per live clock. A state of a net with many
/// transitions and few tokens therefore costs its marking plus a
/// handful of entries, and the derived `Eq`/`Hash` stay canonical
/// because the lists are sorted.
///
/// Invariants maintained by the construction:
///
/// * a RET entry for `t` exists **iff** the marking covers `I(t)` (the
///   paper's "reset RET to 0 when disabled", with an absent entry
///   playing the role of the paper's 0-for-disabled); a value of zero
///   means *firable now*;
/// * an RFT entry for `t` exists **iff** `t` is currently firing; the
///   value is always strictly positive (completions are processed
///   eagerly).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TimedState<T> {
    pub(crate) marking: Marking,
    pub(crate) ret: Vec<(TransId, T)>,
    pub(crate) rft: Vec<(TransId, T)>,
}

/// The clock of `t` in a sorted sparse clock list.
fn lookup<T>(clocks: &[(TransId, T)], t: TransId) -> Option<&T> {
    clocks
        .binary_search_by_key(&t, |(u, _)| *u)
        .ok()
        .map(|i| &clocks[i].1)
}

impl<T: Clone + Eq + Hash> TimedState<T> {
    /// The marking component.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The remaining enabling time of a transition (`None` when the
    /// transition is not enabled).
    pub fn ret(&self, t: TransId) -> Option<&T> {
        lookup(&self.ret, t)
    }

    /// The remaining firing time of a transition (`None` when the
    /// transition is not firing).
    pub fn rft(&self, t: TransId) -> Option<&T> {
        lookup(&self.rft, t)
    }

    /// Transitions currently enabled (RET tracked), in transition order.
    pub fn enabled(&self) -> impl Iterator<Item = TransId> + '_ {
        self.ret.iter().map(|(t, _)| *t)
    }

    /// Transitions currently firing, in transition order.
    pub fn firing(&self) -> impl Iterator<Item = TransId> + '_ {
        self.rft.iter().map(|(t, _)| *t)
    }

    /// `true` iff no transition is enabled or firing (a dead state).
    pub fn is_terminal(&self) -> bool {
        self.ret.is_empty() && self.rft.is_empty()
    }
}

impl<T: fmt::Display> TimedState<T> {
    /// Render in the style of the paper's Figure 4b/6b rows:
    /// `marking | RET: t2=…, … | RFT: t4=…, …`.
    pub fn describe(&self, trans_name: impl Fn(TransId) -> String) -> String {
        let mut out = format!("{}", self.marking);
        let fmt_clocks = |clocks: &[(TransId, T)]| {
            if clocks.is_empty() {
                return "-".to_string();
            }
            let parts: Vec<String> = clocks
                .iter()
                .map(|(t, x)| format!("{}={}", trans_name(*t), x))
                .collect();
            parts.join(", ")
        };
        out.push_str(" | RET: ");
        out.push_str(&fmt_clocks(&self.ret));
        out.push_str(" | RFT: ");
        out.push_str(&fmt_clocks(&self.rft));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_rational::Rational;

    fn t(i: usize) -> TransId {
        TransId::from_index(i)
    }

    #[test]
    fn accessors() {
        let s = TimedState {
            marking: Marking::from_vec(vec![1, 0]),
            ret: vec![(t(0), Rational::from_int(5))],
            rft: vec![(t(1), Rational::from_int(3))],
        };
        assert_eq!(s.ret(t(0)), Some(&Rational::from_int(5)));
        assert_eq!(s.ret(t(1)), None);
        assert_eq!(s.rft(t(1)), Some(&Rational::from_int(3)));
        assert_eq!(s.enabled().collect::<Vec<_>>(), vec![t(0)]);
        assert_eq!(s.firing().collect::<Vec<_>>(), vec![t(1)]);
        assert!(!s.is_terminal());
    }

    #[test]
    fn lookups_before_between_and_after_live_entries() {
        // Live clocks at t2, t5 (RET) and t3, t7 (RFT) of a 9-transition
        // net: every other transition must read as absent.
        let s = TimedState {
            marking: Marking::from_vec(vec![1, 1]),
            ret: vec![(t(2), Rational::from_int(4)), (t(5), Rational::from_int(9))],
            rft: vec![(t(3), Rational::new(1, 2)), (t(7), Rational::from_int(6))],
        };
        let ret: Vec<Option<Rational>> = (0..9).map(|i| s.ret(t(i)).copied()).collect();
        let rft: Vec<Option<Rational>> = (0..9).map(|i| s.rft(t(i)).copied()).collect();
        let (four, nine) = (Some(Rational::from_int(4)), Some(Rational::from_int(9)));
        let (half, six) = (Some(Rational::new(1, 2)), Some(Rational::from_int(6)));
        assert_eq!(ret, [None, None, four, None, None, nine, None, None, None]);
        assert_eq!(rft, [None, None, None, half, None, None, None, six, None]);
        assert_eq!(s.enabled().collect::<Vec<_>>(), vec![t(2), t(5)]);
        assert_eq!(s.firing().collect::<Vec<_>>(), vec![t(3), t(7)]);
    }

    #[test]
    fn terminal_detection() {
        let s: TimedState<Rational> = TimedState {
            marking: Marking::from_vec(vec![0]),
            ret: Vec::new(),
            rft: Vec::new(),
        };
        assert!(s.is_terminal());
    }

    #[test]
    fn describe_format() {
        let s = TimedState {
            marking: Marking::from_vec(vec![1]),
            ret: vec![(t(0), Rational::from_int(1000))],
            rft: vec![(t(1), Rational::new(1067, 10))],
        };
        let d = s.describe(|t| format!("t{}", t.index() + 1));
        assert!(d.contains("RET: t1=1000"), "{d}");
        assert!(d.contains("RFT: t2=1067/10"), "{d}");
        let idle: TimedState<Rational> = TimedState {
            marking: Marking::from_vec(vec![0]),
            ret: Vec::new(),
            rft: Vec::new(),
        };
        assert!(idle
            .describe(|_| String::new())
            .ends_with("| RET: - | RFT: -"));
    }
}
