//! Markings: token distributions over places.

use std::fmt;

use crate::{Bag, PlaceId};

/// A marking `μ : P → ℕ`, stored densely by place index.
///
/// Markings are the first component of a timed reachability-graph state;
/// they are hashable so states can be deduplicated. The storage `S` is
/// an owned `Vec<u32>` by default; a graph that keeps every state's
/// tokens in one flat array hands out `Marking<&[u32]>` views over its
/// slices, with the same read-only API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking<S = Vec<u32>> {
    tokens: S,
}

impl Marking {
    /// The empty marking over `num_places` places.
    pub fn empty(num_places: usize) -> Marking {
        Marking {
            tokens: vec![0; num_places],
        }
    }

    /// Construct from a dense token vector.
    pub fn from_vec(tokens: Vec<u32>) -> Marking {
        Marking { tokens }
    }

    /// Overwrite every token count with `tokens`, reusing the storage.
    pub fn copy_from(&mut self, tokens: &[u32]) {
        self.tokens.clear();
        self.tokens.extend_from_slice(tokens);
    }

    /// Set the token count of a place.
    pub fn set_tokens(&mut self, p: PlaceId, n: u32) {
        self.tokens[p.index()] = n;
    }

    /// Remove the tokens of `bag` (the absorb-at-firing-start step).
    ///
    /// # Panics
    /// Panics (in debug builds underflow-checks) if the bag is not
    /// covered; callers check [`Marking::covers`] first.
    pub fn subtract<'b>(&mut self, bag: impl Into<Bag<&'b [(PlaceId, u32)]>>) {
        for (p, n) in bag.into().iter() {
            let slot = &mut self.tokens[p.index()];
            debug_assert!(*slot >= n, "subtracting an uncovered bag");
            *slot -= n;
        }
    }

    /// Add the tokens of `bag` (the deposit-at-firing-end step).
    pub fn add<'b>(&mut self, bag: impl Into<Bag<&'b [(PlaceId, u32)]>>) {
        for (p, n) in bag.into().iter() {
            self.tokens[p.index()] += n;
        }
    }
}

impl<'a> Marking<&'a [u32]> {
    /// A view over a dense token slice.
    pub fn from_slice(tokens: &'a [u32]) -> Self {
        Marking { tokens }
    }
}

impl<S: AsRef<[u32]>> Marking<S> {
    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.as_slice().len()
    }

    /// Tokens on a place: the paper's `μ(p)`.
    pub fn tokens(&self, p: PlaceId) -> u32 {
        self.as_slice()[p.index()]
    }

    /// Total number of tokens.
    pub fn total_tokens(&self) -> u32 {
        self.as_slice().iter().sum()
    }

    /// The paper's enabling rule: `μ(pᵢ) ≥ #(pᵢ, I(t))` for all `pᵢ`.
    pub fn covers<'b>(&self, bag: impl Into<Bag<&'b [(PlaceId, u32)]>>) -> bool {
        bag.into().iter().all(|(p, n)| self.tokens(p) >= n)
    }

    /// Iterate over (place, tokens) for *marked* places only.
    pub fn marked_places(&self) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (PlaceId::from_index(i), *n))
    }

    /// The dense token vector.
    pub fn as_slice(&self) -> &[u32] {
        self.tokens.as_ref()
    }

    /// `true` iff every place holds at most one token (1-safeness of this
    /// particular marking).
    pub fn is_safe(&self) -> bool {
        self.as_slice().iter().all(|&n| n <= 1)
    }
}

impl<S: AsRef<[u32]>> fmt::Display for Marking<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, n) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    #[test]
    fn basics() {
        let mut m = Marking::empty(3);
        assert_eq!(m.num_places(), 3);
        assert_eq!(m.total_tokens(), 0);
        m.set_tokens(p(1), 2);
        assert_eq!(m.tokens(p(1)), 2);
        assert_eq!(m.total_tokens(), 2);
        assert!(!m.is_safe());
        m.set_tokens(p(1), 1);
        assert!(m.is_safe());
    }

    #[test]
    fn covers_subtract_add() {
        let mut m = Marking::from_vec(vec![2, 1, 0]);
        let bag = Bag::from_pairs([(p(0), 2), (p(1), 1)]);
        assert!(m.covers(&bag));
        m.subtract(&bag);
        assert_eq!(m.as_slice(), &[0, 0, 0]);
        assert!(!m.covers(&bag));
        m.add(&bag);
        assert_eq!(m.as_slice(), &[2, 1, 0]);
        // multiplicity matters
        let big = Bag::from_pairs([(p(0), 3)]);
        assert!(!m.covers(&big));
    }

    #[test]
    fn marked_places_filters_zeros() {
        let m = Marking::from_vec(vec![1, 0, 3]);
        let marked: Vec<_> = m.marked_places().collect();
        assert_eq!(marked, vec![(p(0), 1), (p(2), 3)]);
    }

    #[test]
    fn display() {
        let m = Marking::from_vec(vec![1, 0, 2]);
        assert_eq!(m.to_string(), "[1 0 2]");
    }
}
