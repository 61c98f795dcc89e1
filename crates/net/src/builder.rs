//! Fluent construction of validated nets.

use tpn_rational::Rational;

use crate::bag::canonicalize;
use crate::net::{sort_by_name, Span};
use crate::transition::TransRecord;
use crate::{Frequency, Marking, NetError, PlaceId, TimeValue, TimedPetriNet, TransId};

/// Builder for a [`TimedPetriNet`].
///
/// The builder appends straight into the net's flat arrays: a name goes
/// into the one arena, a transition's bags into the one arc array. The
/// in-flight transition's bags are collected in two scratch vectors
/// reused across transitions, then sorted and merged exactly as
/// [`crate::Bag::insert`] would have.
///
/// # Examples
///
/// ```
/// use tpn_net::NetBuilder;
///
/// let mut b = NetBuilder::new("handshake");
/// let idle = b.place("idle", 1);
/// let busy = b.place("busy", 0);
/// b.transition("start").input(idle).output(busy).firing_const(2).add();
/// b.transition("finish").input(busy).output(idle).firing_const(3).add();
/// let net = b.build().unwrap();
/// assert_eq!(net.num_places(), 2);
/// assert_eq!(net.num_transitions(), 2);
/// ```
#[derive(Debug, Default)]
pub struct NetBuilder {
    names: String,
    name: Span,
    place_names: Vec<Span>,
    initial: Vec<u32>,
    transitions: Vec<TransRecord>,
    arcs: Vec<(PlaceId, u32)>,
    /// The in-flight transition's input and output pairs.
    scratch: [Vec<(PlaceId, u32)>; 2],
}

/// Room to reserve up front, so each of a builder's arrays is
/// allocated once.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Capacity {
    pub(crate) places: usize,
    pub(crate) transitions: usize,
    pub(crate) arcs: usize,
    /// Bytes of every name, the net's included.
    pub(crate) name_bytes: usize,
}

impl NetBuilder {
    /// Start building a net with the given name.
    pub fn new(name: &str) -> NetBuilder {
        NetBuilder::with_capacity(name, Capacity::default())
    }

    pub(crate) fn with_capacity(name: &str, cap: Capacity) -> NetBuilder {
        let mut b = NetBuilder {
            names: String::with_capacity(cap.name_bytes.max(name.len())),
            name: Span::default(),
            place_names: Vec::with_capacity(cap.places),
            initial: Vec::with_capacity(cap.places),
            transitions: Vec::with_capacity(cap.transitions),
            arcs: Vec::with_capacity(cap.arcs),
            scratch: [Vec::with_capacity(8), Vec::with_capacity(8)],
        };
        b.name = b.push_name(name);
        b
    }

    fn push_name(&mut self, name: &str) -> Span {
        let start = self.names.len();
        self.names.push_str(name);
        let offset = |at: usize| u32::try_from(at).expect("name arena overflow");
        Span {
            start: offset(start),
            end: offset(self.names.len()),
        }
    }

    /// Add a place with an initial token count, returning its id.
    pub fn place(&mut self, name: &str, initial_tokens: u32) -> PlaceId {
        let id = PlaceId::from_index(self.place_names.len());
        let span = self.push_name(name);
        self.place_names.push(span);
        self.initial.push(initial_tokens);
        id
    }

    /// Start describing a transition. Call [`TransitionBuilder::add`] to
    /// attach it to the net.
    pub fn transition<'a>(&'a mut self, name: &str) -> TransitionBuilder<'a> {
        for bag in &mut self.scratch {
            bag.clear();
        }
        let name = self.push_name(name);
        TransitionBuilder {
            net: self,
            name,
            enabling: TimeValue::zero(),
            firing: TimeValue::zero(),
            frequency: Frequency::one(),
        }
    }

    /// Validate and build the net.
    pub fn build(self) -> Result<TimedPetriNet, NetError> {
        let mut net = TimedPetriNet {
            names: self.names,
            name: self.name,
            place_names: self.place_names,
            initial: Marking::from_vec(self.initial),
            transitions: self.transitions,
            arcs: self.arcs,
            conflict_members: Vec::new(),
            conflict_bounds: Vec::new(),
            conflict_of: Vec::new(),
            places_by_name: Vec::new(),
            transitions_by_name: Vec::new(),
        };
        let (places, duplicate) = sort_by_name(net.places(), |p| net.place_name(p));
        if let Some(p) = duplicate {
            return Err(NetError::DuplicatePlace {
                name: net.place_name(p).to_string(),
            });
        }
        let (transitions, duplicate) =
            sort_by_name(net.transitions(), |t| net.transition(t).name());
        for t in net.transitions() {
            let tr = net.transition(t);
            let name = || tr.name().to_string();
            if Some(t) == duplicate {
                return Err(NetError::DuplicateTransition { name: name() });
            }
            if tr.input().is_empty() {
                return Err(NetError::EmptyInputBag { transition: name() });
            }
            if let Some(e) = tr.enabling().known() {
                if e.is_negative() {
                    return Err(NetError::NegativeTime {
                        transition: name(),
                        which: "enabling",
                    });
                }
            }
            if let Some(fi) = tr.firing().known() {
                if fi.is_negative() {
                    return Err(NetError::NegativeTime {
                        transition: name(),
                        which: "firing",
                    });
                }
            }
            if let Some(w) = tr.frequency().weight() {
                if w.is_negative() {
                    return Err(NetError::NegativeFrequency { transition: name() });
                }
            }
        }
        net.places_by_name = places;
        net.transitions_by_name = transitions;
        net.compute_conflict_sets();
        Ok(net)
    }
}

/// In-flight transition description; see [`NetBuilder::transition`].
#[derive(Debug)]
pub struct TransitionBuilder<'a> {
    net: &'a mut NetBuilder,
    name: Span,
    enabling: TimeValue,
    firing: TimeValue,
    frequency: Frequency,
}

impl<'a> TransitionBuilder<'a> {
    fn arc(self, which: usize, p: PlaceId, n: u32) -> Self {
        if n > 0 {
            self.net.scratch[which].push((p, n));
        }
        self
    }

    /// Add one occurrence of `p` to the input bag.
    pub fn input(self, p: PlaceId) -> Self {
        self.arc(0, p, 1)
    }

    /// Add `n` occurrences of `p` to the input bag.
    pub fn input_n(self, p: PlaceId, n: u32) -> Self {
        self.arc(0, p, n)
    }

    /// Add one occurrence of `p` to the output bag.
    pub fn output(self, p: PlaceId) -> Self {
        self.arc(1, p, 1)
    }

    /// Add `n` occurrences of `p` to the output bag.
    pub fn output_n(self, p: PlaceId, n: u32) -> Self {
        self.arc(1, p, n)
    }

    /// Set the enabling time to an exact value.
    pub fn enabling(mut self, e: Rational) -> Self {
        self.enabling = TimeValue::Known(e);
        self
    }

    /// Set the enabling time to an integer constant (convenience).
    pub fn enabling_const(self, e: i64) -> Self {
        self.enabling(Rational::from_int(e as i128))
    }

    /// Mark the enabling time as unknown (symbolic).
    pub fn enabling_unknown(mut self) -> Self {
        self.enabling = TimeValue::Unknown;
        self
    }

    /// Set the firing time to an exact value.
    pub fn firing(mut self, f: Rational) -> Self {
        self.firing = TimeValue::Known(f);
        self
    }

    /// Set the firing time to an integer constant (convenience).
    pub fn firing_const(self, f: i64) -> Self {
        self.firing(Rational::from_int(f as i128))
    }

    /// Mark the firing time as unknown (symbolic).
    pub fn firing_unknown(mut self) -> Self {
        self.firing = TimeValue::Unknown;
        self
    }

    /// Set the relative firing frequency.
    pub fn weight(mut self, w: Rational) -> Self {
        self.frequency = Frequency::Weight(w);
        self
    }

    /// Set the frequency to an integer constant (convenience).
    pub fn weight_const(self, w: i64) -> Self {
        self.weight(Rational::from_int(w as i128))
    }

    /// Mark the frequency as unknown (symbolic).
    pub fn weight_unknown(mut self) -> Self {
        self.frequency = Frequency::Unknown;
        self
    }

    /// Attach the transition to the net, returning its id.
    pub fn add(self) -> TransId {
        let net = self.net;
        let id = TransId::from_index(net.transitions.len());
        let offset = |at: usize| u32::try_from(at).expect("arc array overflow");
        let mut arcs = [offset(net.arcs.len()); 3];
        for (which, bag) in net.scratch.iter_mut().enumerate() {
            canonicalize(bag);
            net.arcs.extend_from_slice(bag);
            arcs[which + 1] = offset(net.arcs.len());
        }
        net.transitions.push(TransRecord {
            name: self.name,
            arcs,
            enabling: self.enabling,
            firing: self.firing,
            frequency: self.frequency,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_net() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", 2);
        let c = b.place("c", 0);
        let t = b
            .transition("go")
            .input_n(a, 2)
            .output(c)
            .enabling_const(5)
            .firing(Rational::new(27, 2))
            .weight_const(3)
            .add();
        let net = b.build().unwrap();
        let tr = net.transition(t);
        assert_eq!(tr.input().count(a), 2);
        assert_eq!(tr.output().count(c), 1);
        assert_eq!(tr.enabling().known(), Some(&Rational::from_int(5)));
        assert_eq!(tr.firing().known(), Some(&Rational::new(27, 2)));
        assert_eq!(tr.frequency().weight(), Some(&Rational::from_int(3)));
        assert_eq!(net.initial_marking().tokens(a), 2);
    }

    #[test]
    fn duplicate_place_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", 0);
        b.place("a", 0);
        let p = b.place("c", 1);
        b.transition("t").input(p).add();
        assert_eq!(
            b.build().unwrap_err(),
            NetError::DuplicatePlace { name: "a".into() }
        );
    }

    /// Of several repeated names, the first repeat in declaration
    /// order is reported.
    #[test]
    fn first_repeated_name_is_reported() {
        let mut b = NetBuilder::new("n");
        let ids: Vec<PlaceId> = ["b", "a", "b", "a"].iter().map(|n| b.place(n, 1)).collect();
        for t in ["y", "x", "x", "y"] {
            b.transition(t).input(ids[0]).add();
        }
        assert_eq!(
            b.build().unwrap_err(),
            NetError::DuplicatePlace { name: "b".into() }
        );
        let mut b = NetBuilder::new("n");
        let p = b.place("a", 1);
        for t in ["y", "x", "x", "y"] {
            b.transition(t).input(p).add();
        }
        assert_eq!(
            b.build().unwrap_err(),
            NetError::DuplicateTransition { name: "x".into() }
        );
    }

    #[test]
    fn duplicate_transition_rejected() {
        let mut b = NetBuilder::new("n");
        let p = b.place("a", 1);
        b.transition("t").input(p).add();
        b.transition("t").input(p).add();
        assert_eq!(
            b.build().unwrap_err(),
            NetError::DuplicateTransition { name: "t".into() }
        );
    }

    #[test]
    fn empty_input_rejected() {
        let mut b = NetBuilder::new("n");
        let p = b.place("a", 0);
        b.transition("src").output(p).add();
        assert_eq!(
            b.build().unwrap_err(),
            NetError::EmptyInputBag {
                transition: "src".into()
            }
        );
    }

    #[test]
    fn negative_values_rejected() {
        let mut b = NetBuilder::new("n");
        let p = b.place("a", 1);
        b.transition("t")
            .input(p)
            .firing(Rational::from_int(-1))
            .add();
        assert!(matches!(
            b.build(),
            Err(NetError::NegativeTime {
                which: "firing",
                ..
            })
        ));

        let mut b2 = NetBuilder::new("n");
        let p2 = b2.place("a", 1);
        b2.transition("t")
            .input(p2)
            .enabling(Rational::from_int(-2))
            .add();
        assert!(matches!(
            b2.build(),
            Err(NetError::NegativeTime {
                which: "enabling",
                ..
            })
        ));

        let mut b3 = NetBuilder::new("n");
        let p3 = b3.place("a", 1);
        b3.transition("t")
            .input(p3)
            .weight(Rational::from_int(-1))
            .add();
        assert!(matches!(
            b3.build(),
            Err(NetError::NegativeFrequency { .. })
        ));
    }

    #[test]
    fn unknown_attributes_allowed() {
        let mut b = NetBuilder::new("n");
        let p = b.place("a", 1);
        b.transition("t")
            .input(p)
            .enabling_unknown()
            .firing_unknown()
            .weight_unknown()
            .add();
        let net = b.build().unwrap();
        assert!(!net.is_fully_timed());
    }
}
