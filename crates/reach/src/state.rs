//! Timed states: marking + RET + RFT, as views into a graph's flat
//! arrays.

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
/// by transition, one per live clock. A graph owns no per-state
/// allocation: every state's tokens sit in one flat `u32` array
/// (`num_places` per state) and every state's clocks in one shared
/// `(TransId, T)` array, RET entries then RFT entries, found through
/// per-state offsets. A `TimedState` is a borrowed view over those
/// slices; the derived `Eq`/`Hash` compare and hash the slices, and
/// stay canonical because the clock lists are sorted.
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
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TimedState<'a, T> {
    pub(crate) marking: Marking<&'a [u32]>,
    pub(crate) ret: &'a [(TransId, T)],
    pub(crate) rft: &'a [(TransId, T)],
}

impl<T> Clone for TimedState<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for TimedState<'_, T> {}

/// The clock of `t` in a sorted sparse clock list.
fn lookup<T>(clocks: &[(TransId, T)], t: TransId) -> Option<&T> {
    clocks
        .binary_search_by_key(&t, |(u, _)| *u)
        .ok()
        .map(|i| &clocks[i].1)
}

impl<'a, T> TimedState<'a, T> {
    /// A view over a token slice and two sorted clock lists.
    pub(crate) fn new(tokens: &'a [u32], ret: &'a [(TransId, T)], rft: &'a [(TransId, T)]) -> Self {
        TimedState {
            marking: Marking::from_slice(tokens),
            ret,
            rft,
        }
    }

    /// The marking component.
    pub fn marking(&self) -> Marking<&'a [u32]> {
        self.marking
    }

    /// The remaining enabling time of a transition (`None` when the
    /// transition is not enabled).
    pub fn ret(&self, t: TransId) -> Option<&'a T> {
        lookup(self.ret, t)
    }

    /// The remaining firing time of a transition (`None` when the
    /// transition is not firing).
    pub fn rft(&self, t: TransId) -> Option<&'a T> {
        lookup(self.rft, t)
    }

    /// Transitions currently enabled (RET tracked), in transition order.
    pub fn enabled(&self) -> impl Iterator<Item = TransId> + 'a {
        self.ret.iter().map(|(t, _)| *t)
    }

    /// Transitions currently firing, in transition order.
    pub fn firing(&self) -> impl Iterator<Item = TransId> + 'a {
        self.rft.iter().map(|(t, _)| *t)
    }

    /// `true` iff no transition is enabled or firing (a dead state).
    pub fn is_terminal(&self) -> bool {
        self.ret.is_empty() && self.rft.is_empty()
    }
}

impl<T: fmt::Display> TimedState<'_, T> {
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
        out.push_str(&fmt_clocks(self.ret));
        out.push_str(" | RFT: ");
        out.push_str(&fmt_clocks(self.rft));
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
        let ret = [(t(0), Rational::from_int(5))];
        let rft = [(t(1), Rational::from_int(3))];
        let s = TimedState::new(&[1, 0], &ret, &rft);
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
        let ret = [(t(2), Rational::from_int(4)), (t(5), Rational::from_int(9))];
        let rft = [(t(3), Rational::new(1, 2)), (t(7), Rational::from_int(6))];
        let s = TimedState::new(&[1, 1], &ret, &rft);
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
        let s: TimedState<Rational> = TimedState::new(&[0], &[], &[]);
        assert!(s.is_terminal());
    }

    #[test]
    fn views_compare_by_contents() {
        let (a, b) = ([(t(0), Rational::ONE)], [(t(0), Rational::ONE)]);
        let tokens = vec![1, 0];
        assert_eq!(
            TimedState::new(&tokens, &a, &[]),
            TimedState::new(&[1, 0], &b, &[])
        );
        assert_ne!(
            TimedState::new(&tokens, &a, &[]),
            TimedState::new(&tokens, &[], &b)
        );
    }

    #[test]
    fn describe_format() {
        let ret = [(t(0), Rational::from_int(1000))];
        let rft = [(t(1), Rational::new(1067, 10))];
        let s = TimedState::new(&[1], &ret, &rft);
        let d = s.describe(|t| format!("t{}", t.index() + 1));
        assert!(d.contains("RET: t1=1000"), "{d}");
        assert!(d.contains("RFT: t2=1067/10"), "{d}");
        let idle: TimedState<Rational> = TimedState::new(&[0], &[], &[]);
        assert!(idle
            .describe(|_| String::new())
            .ends_with("| RET: - | RFT: -"));
    }
}
