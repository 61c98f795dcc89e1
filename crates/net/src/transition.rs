//! Transitions and their timing/frequency attributes.

use std::fmt;

use tpn_rational::Rational;

use crate::net::Span;
use crate::{Bag, PlaceId, TimedPetriNet};

/// A time attribute of a transition: either a known exact value or
/// "unknown, treat symbolically".
///
/// The paper's Section 2 (Zuberek's numeric analysis) requires every
/// time to be [`TimeValue::Known`]; Section 3 (the paper's contribution)
/// admits [`TimeValue::Unknown`] values governed by timing constraints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TimeValue {
    /// An exact, a-priori-known delay.
    Known(Rational),
    /// Unknown; symbolic analyses introduce a symbol for it.
    Unknown,
}

impl TimeValue {
    /// Zero delay.
    pub fn zero() -> TimeValue {
        TimeValue::Known(Rational::ZERO)
    }

    /// The known value, if any.
    pub fn known(&self) -> Option<&Rational> {
        match self {
            TimeValue::Known(r) => Some(r),
            TimeValue::Unknown => None,
        }
    }

    /// `true` iff the value is known to be exactly zero.
    pub fn is_known_zero(&self) -> bool {
        matches!(self, TimeValue::Known(r) if r.is_zero())
    }
}

impl fmt::Display for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeValue::Known(r) => write!(f, "{r}"),
            TimeValue::Unknown => write!(f, "?"),
        }
    }
}

/// A transition's relative firing frequency within its conflict set.
///
/// When several conflicting transitions are firable, each fires with
/// probability `fᵢ / Σ fⱼ` over the firable members. A frequency of
/// **zero** means the other firable members always have priority (the
/// paper models the timeout this way). [`Frequency::Unknown`] makes the
/// probability symbolic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frequency {
    /// A known non-negative relative weight.
    Weight(Rational),
    /// Unknown; symbolic analyses introduce a (positive) symbol for it.
    Unknown,
}

impl Frequency {
    /// The default frequency: weight one.
    pub fn one() -> Frequency {
        Frequency::Weight(Rational::ONE)
    }

    /// The known weight, if any.
    pub fn weight(&self) -> Option<&Rational> {
        match self {
            Frequency::Weight(w) => Some(w),
            Frequency::Unknown => None,
        }
    }

    /// `true` iff this is a known zero weight (pure priority victim).
    pub fn is_zero(&self) -> bool {
        matches!(self, Frequency::Weight(w) if w.is_zero())
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Frequency::Weight(w) => write!(f, "{w}"),
            Frequency::Unknown => write!(f, "?"),
        }
    }
}

/// One transition's row of a flat net: where its name and arcs lie in
/// the net's arrays, and its timing.
#[derive(Debug, Clone)]
pub(crate) struct TransRecord {
    pub(crate) name: Span,
    /// The input bag is `arcs[a[0]..a[1]]`, the output bag
    /// `arcs[a[1]..a[2]]`, each in canonical form.
    pub(crate) arcs: [u32; 3],
    pub(crate) enabling: TimeValue,
    pub(crate) firing: TimeValue,
    pub(crate) frequency: Frequency,
}

/// A transition of a net: name, input/output bags, enabling time,
/// firing time and conflict-resolution frequency.
///
/// A `Copy` view into the net's flat arrays, returned by
/// [`TimedPetriNet::transition`]; every getter borrows from the net,
/// not from the view. Two views are equal when their attributes are,
/// whichever nets they belong to.
#[derive(Clone, Copy)]
pub struct Transition<'a> {
    pub(crate) net: &'a TimedPetriNet,
    pub(crate) record: &'a TransRecord,
}

impl<'a> Transition<'a> {
    /// The transition's name (unique within its net).
    pub fn name(&self) -> &'a str {
        self.net.text(self.record.name)
    }

    /// The input bag `I(t)`.
    pub fn input(&self) -> Bag<&'a [(PlaceId, u32)]> {
        self.bag(0)
    }

    /// The output bag `O(t)`.
    pub fn output(&self) -> Bag<&'a [(PlaceId, u32)]> {
        self.bag(1)
    }

    fn bag(&self, which: usize) -> Bag<&'a [(PlaceId, u32)]> {
        let a = &self.record.arcs;
        Bag::from_canonical(&self.net.arcs[a[which] as usize..a[which + 1] as usize])
    }

    /// The enabling time `E(t)`.
    pub fn enabling(&self) -> &'a TimeValue {
        &self.record.enabling
    }

    /// The firing time `F(t)`.
    pub fn firing(&self) -> &'a TimeValue {
        &self.record.firing
    }

    /// The relative firing frequency.
    pub fn frequency(&self) -> &'a Frequency {
        &self.record.frequency
    }
}

impl PartialEq for Transition<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.input() == other.input()
            && self.output() == other.output()
            && self.record.enabling == other.record.enabling
            && self.record.firing == other.record.firing
            && self.record.frequency == other.record.frequency
    }
}

impl Eq for Transition<'_> {}

impl fmt::Debug for Transition<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transition")
            .field("name", &self.name())
            .field("input", &self.input())
            .field("output", &self.output())
            .field("enabling", self.enabling())
            .field("firing", self.firing())
            .field("frequency", self.frequency())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_value() {
        assert!(TimeValue::zero().is_known_zero());
        assert!(!TimeValue::Unknown.is_known_zero());
        assert_eq!(
            TimeValue::Known(Rational::ONE).known(),
            Some(&Rational::ONE)
        );
        assert_eq!(TimeValue::Unknown.known(), None);
        assert_eq!(TimeValue::Unknown.to_string(), "?");
        assert_eq!(
            TimeValue::Known(Rational::new(1067, 10)).to_string(),
            "1067/10"
        );
    }

    #[test]
    fn frequency() {
        assert_eq!(Frequency::one().weight(), Some(&Rational::ONE));
        assert!(Frequency::Weight(Rational::ZERO).is_zero());
        assert!(!Frequency::one().is_zero());
        assert!(!Frequency::Unknown.is_zero());
        assert_eq!(Frequency::Unknown.weight(), None);
        assert_eq!(Frequency::Unknown.to_string(), "?");
    }
}
