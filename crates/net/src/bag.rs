//! Multisets of places (input/output bags).

use std::fmt;

use crate::PlaceId;

/// A bag (multiset) of places, as used for transition input and output
/// functions. The paper writes `#(p, I(t))` for the multiplicity of
/// place `p` in the input bag of `t`; that is [`Bag::count`].
///
/// Stored flat: `(place, multiplicity)` pairs sorted by place, with
/// each place at most once and no zero multiplicities. Bags are small
/// (a transition touches a handful of places), so the enabling test and
/// the token moves of every firing walk contiguous pairs, and a lookup
/// is a binary search. The derived `Eq` and `Hash` rely on that
/// canonical form: equal multisets have equal pairs.
///
/// The storage `S` is an owned `Vec` by default. A net keeps every
/// transition's bags in one arc array and hands out `Bag<&[_]>` views
/// over its slices, with the same read-only API. Functions that read a
/// bag of either kind take `impl Into<Bag<&[(PlaceId, u32)]>>`, which
/// both a view and a `&Bag` satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bag<S = Vec<(PlaceId, u32)>> {
    entries: S, // invariant: sorted, distinct places, no zero counts
}

impl Bag {
    /// The empty bag.
    pub fn new() -> Bag {
        Bag::default()
    }

    /// Build a bag from (place, multiplicity) pairs; multiplicities of
    /// the same place accumulate.
    pub fn from_pairs<I: IntoIterator<Item = (PlaceId, u32)>>(pairs: I) -> Bag {
        let mut entries: Vec<(PlaceId, u32)> = pairs.into_iter().filter(|&(_, n)| n > 0).collect();
        canonicalize(&mut entries);
        Bag { entries }
    }

    /// Add `n` occurrences of `p`.
    pub fn insert(&mut self, p: PlaceId, n: u32) {
        if n == 0 {
            return;
        }
        match self.position(p) {
            Ok(i) => self.entries[i].1 += n,
            Err(i) => self.entries.insert(i, (p, n)),
        }
    }
}

/// Sort non-zero `(place, multiplicity)` pairs by place and merge the
/// multiplicities of a repeated place: the canonical form of a bag.
pub(crate) fn canonicalize(entries: &mut Vec<(PlaceId, u32)>) {
    entries.sort_unstable_by_key(|&(p, _)| p);
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

impl<'a> Bag<&'a [(PlaceId, u32)]> {
    /// A view over pairs already in canonical form.
    pub(crate) fn from_canonical(entries: &'a [(PlaceId, u32)]) -> Self {
        Bag { entries }
    }
}

impl<'a, S: AsRef<[(PlaceId, u32)]>> From<&'a Bag<S>> for Bag<&'a [(PlaceId, u32)]> {
    fn from(bag: &'a Bag<S>) -> Self {
        Bag {
            entries: bag.as_slice(),
        }
    }
}

impl<S: AsRef<[(PlaceId, u32)]>> Bag<S> {
    /// The `(place, multiplicity)` pairs, sorted by place.
    pub(crate) fn as_slice(&self) -> &[(PlaceId, u32)] {
        self.entries.as_ref()
    }

    /// Where `p` is (`Ok`), or where it would go (`Err`). Appending in
    /// place order, as builders usually do, never searches.
    fn position(&self, p: PlaceId) -> Result<usize, usize> {
        let entries = self.as_slice();
        match entries.last() {
            None => Err(0),
            Some(&(last, _)) if last < p => Err(entries.len()),
            _ => entries.binary_search_by_key(&p, |&(q, _)| q),
        }
    }

    /// Multiplicity of `p` (zero if absent).
    pub fn count(&self, p: PlaceId) -> u32 {
        self.position(p).map_or(0, |i| self.as_slice()[i].1)
    }

    /// `true` iff the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Number of *distinct* places.
    pub fn num_distinct(&self) -> usize {
        self.as_slice().len()
    }

    /// Total multiplicity.
    pub fn total(&self) -> u32 {
        self.iter().map(|(_, n)| n).sum()
    }

    /// Iterate over (place, multiplicity) pairs in place order.
    pub fn iter(&self) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.as_slice().iter().copied()
    }

    /// The distinct places.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.as_slice().iter().map(|&(p, _)| p)
    }

    /// `true` iff the two bags share at least one place — the paper's
    /// conflict condition `I(tᵢ) ∩ I(tⱼ) ≠ ∅`.
    pub fn intersects<'b>(&self, other: impl Into<Bag<&'b [(PlaceId, u32)]>>) -> bool {
        let other = other.into();
        // Walk the smaller bag.
        if self.num_distinct() <= other.num_distinct() {
            self.places().any(|p| other.position(p).is_ok())
        } else {
            other.places().any(|p| self.position(p).is_ok())
        }
    }
}

impl FromIterator<PlaceId> for Bag {
    fn from_iter<I: IntoIterator<Item = PlaceId>>(iter: I) -> Bag {
        Bag::from_pairs(iter.into_iter().map(|p| (p, 1)))
    }
}

impl<S: AsRef<[(PlaceId, u32)]>> fmt::Display for Bag<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (p, n)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if n == 1 {
                write!(f, "{p}")?;
            } else {
                write!(f, "{n}×{p}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    #[test]
    fn construction_and_counts() {
        let b = Bag::from_pairs([(p(0), 1), (p(1), 2), (p(0), 1)]);
        assert_eq!(b.count(p(0)), 2);
        assert_eq!(b.count(p(1)), 2);
        assert_eq!(b.count(p(2)), 0);
        assert_eq!(b.total(), 4);
        assert_eq!(b.num_distinct(), 2);
        assert!(!b.is_empty());
        assert!(Bag::new().is_empty());
    }

    #[test]
    fn zero_insert_ignored() {
        let mut b = Bag::new();
        b.insert(p(0), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn intersects() {
        let a: Bag = [p(0), p(1)].into_iter().collect();
        let b: Bag = [p(1), p(2)].into_iter().collect();
        let c: Bag = [p(3)].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!Bag::new().intersects(&a));
    }

    /// The derived `Eq` and `Hash` rest on the canonical sorted form:
    /// any order and any split of the same multiset builds the same bag.
    #[test]
    fn permuted_and_repeated_pairs_build_equal_bags() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash(b: &Bag) -> u64 {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        }
        let reference = Bag::from_pairs([(p(0), 2), (p(3), 1), (p(5), 4)]);
        let variants = [
            Bag::from_pairs([(p(5), 4), (p(0), 2), (p(3), 1)]),
            Bag::from_pairs([(p(3), 1), (p(5), 1), (p(0), 1), (p(5), 3), (p(0), 1)]),
            Bag::from_pairs([(p(5), 2), (p(7), 0), (p(0), 2), (p(5), 2), (p(3), 1)]),
            {
                let mut b = Bag::new();
                for (q, n) in [(p(5), 1), (p(3), 1), (p(0), 1), (p(5), 3), (p(0), 1)] {
                    b.insert(q, n);
                }
                b
            },
        ];
        for b in &variants {
            assert_eq!(b, &reference);
            assert_eq!(hash(b), hash(&reference));
            assert_eq!(
                b.iter().collect::<Vec<_>>(),
                vec![(p(0), 2), (p(3), 1), (p(5), 4)]
            );
            assert_eq!(b.to_string(), "{2×p0, p3, 4×p5}");
            assert_eq!((b.count(p(3)), b.count(p(4)), b.count(p(9))), (1, 0, 0));
        }
        assert_ne!(reference, Bag::from_pairs([(p(0), 2), (p(3), 1)]));
    }

    #[test]
    fn display() {
        let b = Bag::from_pairs([(p(0), 1), (p(1), 2)]);
        assert_eq!(b.to_string(), "{p0, 2×p1}");
        assert_eq!(Bag::new().to_string(), "{}");
        // a view reads exactly like the bag it borrows
        let view: Bag<&[(PlaceId, u32)]> = (&b).into();
        assert_eq!(view.to_string(), "{p0, 2×p1}");
        assert_eq!((view.count(p(1)), view.total()), (2, 3));
    }
}
