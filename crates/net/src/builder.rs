//! Fluent construction of validated nets.

use std::collections::HashMap;

use tpn_rational::Rational;

use crate::{
    Bag, Frequency, Marking, NetError, PlaceId, TimeValue, TimedPetriNet, TransId, Transition,
};

/// Builder for a [`TimedPetriNet`].
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
    name: String,
    place_names: Vec<String>,
    initial: Vec<u32>,
    transitions: Vec<Transition>,
}

impl NetBuilder {
    /// Start building a net with the given name.
    pub fn new(name: &str) -> NetBuilder {
        NetBuilder {
            name: name.to_string(),
            ..NetBuilder::default()
        }
    }

    /// Add a place with an initial token count, returning its id.
    pub fn place(&mut self, name: &str, initial_tokens: u32) -> PlaceId {
        let id = PlaceId::from_index(self.place_names.len());
        self.place_names.push(name.to_string());
        self.initial.push(initial_tokens);
        id
    }

    /// Start describing a transition. Call [`TransitionBuilder::add`] to
    /// attach it to the net.
    pub fn transition<'a>(&'a mut self, name: &str) -> TransitionBuilder<'a> {
        TransitionBuilder {
            net: self,
            trans: Transition {
                name: name.to_string(),
                input: Bag::new(),
                output: Bag::new(),
                enabling: TimeValue::zero(),
                firing: TimeValue::zero(),
                frequency: Frequency::one(),
            },
        }
    }

    /// Validate and build the net.
    pub fn build(self) -> Result<TimedPetriNet, NetError> {
        let mut place_index = HashMap::with_capacity(self.place_names.len());
        for (i, name) in self.place_names.iter().enumerate() {
            if place_index
                .insert(name.clone(), PlaceId::from_index(i))
                .is_some()
            {
                return Err(NetError::DuplicatePlace { name: name.clone() });
            }
        }
        let mut trans_index = HashMap::with_capacity(self.transitions.len());
        for (i, t) in self.transitions.iter().enumerate() {
            if trans_index
                .insert(t.name.clone(), TransId::from_index(i))
                .is_some()
            {
                return Err(NetError::DuplicateTransition {
                    name: t.name.clone(),
                });
            }
            if t.input.is_empty() {
                return Err(NetError::EmptyInputBag {
                    transition: t.name.clone(),
                });
            }
            if let Some(e) = t.enabling.known() {
                if e.is_negative() {
                    return Err(NetError::NegativeTime {
                        transition: t.name.clone(),
                        which: "enabling",
                    });
                }
            }
            if let Some(fi) = t.firing.known() {
                if fi.is_negative() {
                    return Err(NetError::NegativeTime {
                        transition: t.name.clone(),
                        which: "firing",
                    });
                }
            }
            if let Some(w) = t.frequency.weight() {
                if w.is_negative() {
                    return Err(NetError::NegativeFrequency {
                        transition: t.name.clone(),
                    });
                }
            }
        }
        let (conflict_sets, conflict_of) =
            TimedPetriNet::compute_conflict_sets(&self.transitions, self.place_names.len());
        Ok(TimedPetriNet {
            name: self.name,
            initial: Marking::from_vec(self.initial),
            place_names: self.place_names,
            transitions: self.transitions,
            conflict_sets,
            conflict_of,
            place_index,
            trans_index,
        })
    }
}

/// In-flight transition description; see [`NetBuilder::transition`].
#[derive(Debug)]
pub struct TransitionBuilder<'a> {
    net: &'a mut NetBuilder,
    trans: Transition,
}

impl<'a> TransitionBuilder<'a> {
    /// Add one occurrence of `p` to the input bag.
    pub fn input(mut self, p: PlaceId) -> Self {
        self.trans.input.insert(p, 1);
        self
    }

    /// Add `n` occurrences of `p` to the input bag.
    pub fn input_n(mut self, p: PlaceId, n: u32) -> Self {
        self.trans.input.insert(p, n);
        self
    }

    /// Add one occurrence of `p` to the output bag.
    pub fn output(mut self, p: PlaceId) -> Self {
        self.trans.output.insert(p, 1);
        self
    }

    /// Add `n` occurrences of `p` to the output bag.
    pub fn output_n(mut self, p: PlaceId, n: u32) -> Self {
        self.trans.output.insert(p, n);
        self
    }

    /// Set the enabling time to an exact value.
    pub fn enabling(mut self, e: Rational) -> Self {
        self.trans.enabling = TimeValue::Known(e);
        self
    }

    /// Set the enabling time to an integer constant (convenience).
    pub fn enabling_const(self, e: i64) -> Self {
        self.enabling(Rational::from_int(e as i128))
    }

    /// Mark the enabling time as unknown (symbolic).
    pub fn enabling_unknown(mut self) -> Self {
        self.trans.enabling = TimeValue::Unknown;
        self
    }

    /// Set the firing time to an exact value.
    pub fn firing(mut self, f: Rational) -> Self {
        self.trans.firing = TimeValue::Known(f);
        self
    }

    /// Set the firing time to an integer constant (convenience).
    pub fn firing_const(self, f: i64) -> Self {
        self.firing(Rational::from_int(f as i128))
    }

    /// Mark the firing time as unknown (symbolic).
    pub fn firing_unknown(mut self) -> Self {
        self.trans.firing = TimeValue::Unknown;
        self
    }

    /// Set the relative firing frequency.
    pub fn weight(mut self, w: Rational) -> Self {
        self.trans.frequency = Frequency::Weight(w);
        self
    }

    /// Set the frequency to an integer constant (convenience).
    pub fn weight_const(self, w: i64) -> Self {
        self.weight(Rational::from_int(w as i128))
    }

    /// Mark the frequency as unknown (symbolic).
    pub fn weight_unknown(mut self) -> Self {
        self.trans.frequency = Frequency::Unknown;
        self
    }

    /// Attach the transition to the net, returning its id.
    pub fn add(self) -> TransId {
        let id = TransId::from_index(self.net.transitions.len());
        self.net.transitions.push(self.trans);
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
