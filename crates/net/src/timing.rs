//! The timing half of the structural/timing digest split.
//!
//! A net's [`digest`](TimedPetriNet::digest) covers *everything* that
//! affects behaviour, so editing only a firing time produces a fully
//! new identity — correct for a content-addressed cache, but blind to
//! the fact that Razouk's method derives **closed forms in the timing
//! attributes**: two nets that differ only in E/F/f values share every
//! structural artifact (reachability skeleton, decision-graph shape).
//!
//! This module factors a net's identity accordingly:
//!
//! * [`TimedPetriNet::structural_digest`] — places, arcs, weights-as-
//!   structure (only whether each attribute is known, not its value)
//!   and the initial marking;
//! * [`TimingAssignment`] — the canonical map from attribute names
//!   (`E(t)`, `F(t)`, `f(t)`) to their known values, with its own
//!   128-bit [`hash`](TimingAssignment::hash);
//! * [`TimedPetriNet::with_timing`] — the same structure re-timed.
//!
//! For fully timed nets, `(structural_digest, timing hash)` identifies
//! a net exactly as strongly as the full digest: the what-if endpoint
//! in `tpn-service` keys its entries by the pair so a batch of timing
//! perturbations shares one structural cache line.

use std::collections::BTreeMap;
use std::fmt;

use tpn_rational::Rational;

use crate::digest::record;
use crate::{Frequency, NetDigest, NetError, TimeValue, TimedPetriNet};

/// Which of a transition's three timing attributes a canonical name
/// addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttrKind {
    Enabling,
    Firing,
    Frequency,
}

/// Split a canonical attribute name (`E(t)`, `F(t)`, `f(t)`) into its
/// kind and transition name.
fn parse_attr(name: &str) -> Option<(AttrKind, &str)> {
    let inner = name.strip_suffix(')')?;
    if let Some(t) = inner.strip_prefix("E(") {
        return Some((AttrKind::Enabling, t));
    }
    if let Some(t) = inner.strip_prefix("F(") {
        return Some((AttrKind::Firing, t));
    }
    if let Some(t) = inner.strip_prefix("f(") {
        return Some((AttrKind::Frequency, t));
    }
    None
}

/// A canonical, order-independent map from attribute names to exact
/// values: the timing half of a net's identity.
///
/// Keys use the [`crate::symbols`] grammar — `E(t)` / `F(t)` / `f(t)`
/// for a transition `t`. A `TimingAssignment` can be **total**
/// (extracted from a net via [`TimedPetriNet::timing`], one entry per
/// known attribute) or **partial** (a perturbation naming only the
/// attributes to change, applied via [`TimedPetriNet::with_timing`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingAssignment {
    values: BTreeMap<String, Rational>,
}

impl TimingAssignment {
    /// An empty assignment (perturbs nothing).
    pub fn new() -> TimingAssignment {
        TimingAssignment::default()
    }

    /// Bind `attr` (canonical `E(t)`/`F(t)`/`f(t)` name) to `value`,
    /// replacing any previous binding.
    pub fn set(&mut self, attr: impl Into<String>, value: Rational) -> &mut Self {
        self.values.insert(attr.into(), value);
        self
    }

    /// Builder-style binding.
    pub fn with(mut self, attr: impl Into<String>, value: Rational) -> Self {
        self.values.insert(attr.into(), value);
        self
    }

    /// Look a binding up by canonical name.
    pub fn get(&self, attr: &str) -> Option<&Rational> {
        self.values.get(attr)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` iff no bindings.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over bindings in canonical (attribute-name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Rational)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// This assignment overlaid with `other` (entries of `other` win).
    pub fn merged(&self, other: &TimingAssignment) -> TimingAssignment {
        let mut out = self.clone();
        for (k, v) in other.iter() {
            out.set(k, *v);
        }
        out
    }

    /// The 128-bit fingerprint of the assignment: the same two-lane
    /// FNV-1a construction as [`NetDigest`], one sorted-folded record
    /// per binding. Together with
    /// [`TimedPetriNet::structural_digest`] this identifies a fully
    /// timed net as strongly as its full [`TimedPetriNet::digest`].
    pub fn hash(&self) -> u128 {
        let records: Vec<[u64; 2]> = self
            .values
            .iter()
            .map(|(name, value)| {
                record(|h| {
                    h.str(name);
                    h.i128(value.numer());
                    h.i128(value.denom());
                })
            })
            .collect();
        // Entries iterate in BTreeMap (canonical) order already.
        let fold = record(|h| {
            h.u64(records.len() as u64);
            for r in &records {
                h.u64(r[0]);
                h.u64(r[1]);
            }
        });
        (u128::from(fold[0]) << 64) | u128::from(fold[1])
    }

    /// The hash as 32 lowercase hex digits (the rendering the service
    /// uses in `whatif` documents).
    pub fn hash_hex(&self) -> String {
        format!("{:032x}", self.hash())
    }
}

impl FromIterator<(String, Rational)> for TimingAssignment {
    fn from_iter<I: IntoIterator<Item = (String, Rational)>>(iter: I) -> Self {
        TimingAssignment {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for TimingAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

impl TimedPetriNet {
    /// The structural half of the digest split: everything
    /// [`TimedPetriNet::digest`] covers **except attribute values** —
    /// for each of E/F/f only whether the attribute is known
    /// contributes (known-vs-unknown is structural: it decides which
    /// analyses apply at all). Two nets differing only in known timing
    /// values share a structural digest; the values live in their
    /// [`TimedPetriNet::timing`] assignments.
    pub fn structural_digest(&self) -> NetDigest {
        let mut records: Vec<[u64; 2]> =
            Vec::with_capacity(self.num_places() + self.num_transitions());
        for p in self.places() {
            records.push(record(|h| {
                h.byte(b'P');
                h.str(self.place_name(p));
                h.u64(u64::from(self.initial_marking().tokens(p)));
            }));
        }
        let mut scratch = Vec::new();
        for t in self.transitions() {
            let tr = self.transition(t);
            records.push(record(|h| {
                h.byte(b'T');
                h.str(tr.name());
                crate::digest::bag_entries(self, tr.input(), h, &mut scratch);
                crate::digest::bag_entries(self, tr.output(), h, &mut scratch);
                h.byte(if tr.enabling().known().is_some() {
                    1
                } else {
                    2
                });
                h.byte(if tr.firing().known().is_some() { 1 } else { 2 });
                h.byte(if tr.frequency().weight().is_some() {
                    1
                } else {
                    2
                });
            }));
        }
        records.sort_unstable();
        let fold = record(|h| {
            // A distinct domain tag keeps the structural digest of a net
            // from ever colliding with its full digest.
            h.byte(b'S');
            h.str(self.name());
            h.u64(records.len() as u64);
            for r in &records {
                h.u64(r[0]);
                h.u64(r[1]);
            }
        });
        NetDigest(fold)
    }

    /// Extract the net's total timing assignment: one entry per *known*
    /// attribute, under its canonical `E(t)`/`F(t)`/`f(t)` name.
    /// `structural_digest() + timing().hash()` identifies a fully timed
    /// net exactly as strongly as `digest()`.
    pub fn timing(&self) -> TimingAssignment {
        let mut out = TimingAssignment::new();
        for t in self.transitions() {
            let tr = self.transition(t);
            let name = tr.name();
            if let Some(v) = tr.enabling().known() {
                out.set(format!("E({name})"), *v);
            }
            if let Some(v) = tr.firing().known() {
                out.set(format!("F({name})"), *v);
            }
            if let Some(v) = tr.frequency().weight() {
                out.set(format!("f({name})"), *v);
            }
        }
        out
    }

    /// The same structure with `timing`'s attribute values substituted
    /// in: a clone whose named E/F/f attributes take the assignment's
    /// values while places, arcs, conflict sets and the initial marking
    /// are untouched (so [`TimedPetriNet::structural_digest`] is
    /// preserved).
    ///
    /// Every entry must name a **known** attribute of an existing
    /// transition in the canonical grammar ([`NetError::UnknownName`]
    /// otherwise — re-timing an unknown attribute would change the
    /// structure, not its labels), and values must be non-negative
    /// ([`NetError::NegativeTime`] / [`NetError::NegativeFrequency`]).
    pub fn with_timing(&self, timing: &TimingAssignment) -> Result<TimedPetriNet, NetError> {
        let mut net = self.clone();
        for (attr, value) in timing.iter() {
            let (kind, tname) = parse_attr(attr).ok_or_else(|| NetError::UnknownName {
                name: attr.to_string(),
            })?;
            let t = net.transition_by_name(tname)?;
            let tr = &mut net.transitions[t.index()];
            match kind {
                AttrKind::Enabling | AttrKind::Firing => {
                    if value.is_negative() {
                        return Err(NetError::NegativeTime {
                            transition: tname.to_string(),
                            which: if kind == AttrKind::Enabling {
                                "enabling"
                            } else {
                                "firing"
                            },
                        });
                    }
                    let slot = if kind == AttrKind::Enabling {
                        &mut tr.enabling
                    } else {
                        &mut tr.firing
                    };
                    match slot {
                        TimeValue::Known(_) => *slot = TimeValue::Known(*value),
                        TimeValue::Unknown => {
                            return Err(NetError::UnknownName {
                                name: attr.to_string(),
                            })
                        }
                    }
                }
                AttrKind::Frequency => {
                    if value.is_negative() {
                        return Err(NetError::NegativeFrequency {
                            transition: tname.to_string(),
                        });
                    }
                    match &mut tr.frequency {
                        Frequency::Weight(_) => tr.frequency = Frequency::Weight(*value),
                        Frequency::Unknown => {
                            return Err(NetError::UnknownName {
                                name: attr.to_string(),
                            })
                        }
                    }
                }
            }
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_tpn;
    use tpn_rational::Rational;

    const NET: &str = "net demo\nplace a init 1\nplace b\n\
        trans go in a out b firing 2 weight 3\n\
        trans back in b out a firing 3 weight 1";

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn structural_digest_ignores_timing_values() {
        let base = parse_tpn(NET).unwrap();
        let perturbed = parse_tpn(&NET.replace("firing 2", "firing 7")).unwrap();
        assert_ne!(base.digest(), perturbed.digest());
        assert_eq!(base.structural_digest(), perturbed.structural_digest());
        // …but known-vs-unknown is structural.
        let symbolic = parse_tpn(&NET.replace("firing 2", "firing ?")).unwrap();
        assert_ne!(base.structural_digest(), symbolic.structural_digest());
        // and arcs/marking/names still matter
        let rewired = parse_tpn(&NET.replace("init 1", "init 2")).unwrap();
        assert_ne!(base.structural_digest(), rewired.structural_digest());
        // the two digest halves never collide with each other
        assert_ne!(base.structural_digest(), base.digest());
    }

    #[test]
    fn timing_extraction_and_hash() {
        let net = parse_tpn(NET).unwrap();
        let t = net.timing();
        // every transition contributes E, F and f
        assert_eq!(t.len(), 6);
        assert_eq!(t.get("F(go)"), Some(&r(2, 1)));
        assert_eq!(t.get("E(go)"), Some(&Rational::ZERO));
        assert_eq!(t.get("f(back)"), Some(&Rational::ONE));
        // hash is value-sensitive and stable
        let perturbed = parse_tpn(&NET.replace("firing 2", "firing 7")).unwrap();
        assert_ne!(t.hash(), perturbed.timing().hash());
        assert_eq!(t.hash(), parse_tpn(NET).unwrap().timing().hash());
        assert_eq!(t.hash_hex().len(), 32);
    }

    #[test]
    fn pair_identifies_like_the_full_digest() {
        // same structure + same timing hash ⇔ same full digest
        let a = parse_tpn(NET).unwrap();
        let b = parse_tpn(&NET.replace("weight 3", "weight 6/2")).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.structural_digest(), b.structural_digest());
        assert_eq!(a.timing().hash(), b.timing().hash());
    }

    #[test]
    fn with_timing_substitutes_values_only() {
        let net = parse_tpn(NET).unwrap();
        let p = TimingAssignment::new()
            .with("F(go)", r(7, 1))
            .with("f(back)", r(1, 2));
        let out = net.with_timing(&p).unwrap();
        assert_eq!(out.structural_digest(), net.structural_digest());
        assert_eq!(out.timing().get("F(go)"), Some(&r(7, 1)));
        assert_eq!(out.timing().get("f(back)"), Some(&r(1, 2)));
        // untouched attributes keep their base values
        assert_eq!(out.timing().get("F(back)"), Some(&r(3, 1)));
        // and the result equals parsing the perturbed text
        let direct = parse_tpn(
            &NET.replace("firing 2 weight 3", "firing 7 weight 3")
                .replace("firing 3 weight 1", "firing 3 weight 1/2"),
        )
        .unwrap();
        assert_eq!(out.digest(), direct.digest());
    }

    #[test]
    fn with_timing_rejects_bad_entries() {
        let net = parse_tpn(NET).unwrap();
        for (attr, value, why) in [
            ("F(nope)", r(1, 1), "unknown transition"),
            ("G(go)", r(1, 1), "unknown attribute kind"),
            ("F(go", r(1, 1), "malformed name"),
            ("F(go)", r(-1, 1), "negative time"),
            ("f(go)", r(-1, 1), "negative frequency"),
        ] {
            let p = TimingAssignment::new().with(attr, value);
            assert!(net.with_timing(&p).is_err(), "{why}");
        }
        // re-timing an unknown attribute is structural, not a label edit
        let symbolic = parse_tpn(&NET.replace("firing 2", "firing ?")).unwrap();
        let p = TimingAssignment::new().with("F(go)", r(1, 1));
        assert!(matches!(
            symbolic.with_timing(&p),
            Err(NetError::UnknownName { .. })
        ));
    }

    #[test]
    fn merged_overlays_entries() {
        let base = TimingAssignment::new()
            .with("F(go)", r(2, 1))
            .with("F(back)", r(3, 1));
        let over = TimingAssignment::new().with("F(go)", r(9, 1));
        let m = base.merged(&over);
        assert_eq!(m.get("F(go)"), Some(&r(9, 1)));
        assert_eq!(m.get("F(back)"), Some(&r(3, 1)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.to_string(), "F(back)=3, F(go)=9");
    }
}
