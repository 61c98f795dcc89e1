//! The validated net type and conflict-set computation.

use std::collections::HashMap;
use std::fmt;

use crate::{Bag, ConflictSetId, Marking, NetError, PlaceId, TransId, Transition};

/// A conflict set: a maximal group of transitions whose input bags
/// (transitively) overlap. The paper requires the partition to be
/// disjoint, which the transitive-closure construction guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictSet {
    pub(crate) members: Vec<TransId>, // sorted
}

impl ConflictSet {
    /// The member transitions, in index order.
    pub fn members(&self) -> &[TransId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the set has a single member (no real conflict).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A validated Timed Petri Net. Construct via [`crate::NetBuilder`] or
/// [`crate::parse_tpn`].
///
/// Equality is structural: same name, places (names and initial
/// tokens), and transitions (names, bags, timings, frequencies), in
/// the same declaration order. For order-*independent* identity use
/// [`TimedPetriNet::digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedPetriNet {
    pub(crate) name: String,
    pub(crate) place_names: Vec<String>,
    pub(crate) transitions: Vec<Transition>,
    pub(crate) initial: Marking,
    pub(crate) conflict_sets: Vec<ConflictSet>,
    pub(crate) conflict_of: Vec<ConflictSetId>, // indexed by transition
    pub(crate) place_index: HashMap<String, PlaceId>,
    pub(crate) trans_index: HashMap<String, TransId>,
}

impl TimedPetriNet {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Iterate over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.place_names.len()).map(PlaceId::from_index)
    }

    /// Iterate over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransId> {
        (0..self.transitions.len()).map(TransId::from_index)
    }

    /// A place's name.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.index()]
    }

    /// A transition's attributes.
    pub fn transition(&self, t: TransId) -> &Transition {
        &self.transitions[t.index()]
    }

    /// Look a place up by name.
    pub fn place_by_name(&self, name: &str) -> Result<PlaceId, NetError> {
        self.place_index
            .get(name)
            .copied()
            .ok_or_else(|| NetError::UnknownName {
                name: name.to_string(),
            })
    }

    /// Look a transition up by name.
    pub fn transition_by_name(&self, name: &str) -> Result<TransId, NetError> {
        self.trans_index
            .get(name)
            .copied()
            .ok_or_else(|| NetError::UnknownName {
                name: name.to_string(),
            })
    }

    /// The initial marking `μ₀`.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial
    }

    /// The conflict-set partition.
    pub fn conflict_sets(&self) -> &[ConflictSet] {
        &self.conflict_sets
    }

    /// The conflict set containing a transition.
    pub fn conflict_set_of(&self, t: TransId) -> ConflictSetId {
        self.conflict_of[t.index()]
    }

    /// Members of a conflict set.
    pub fn conflict_set(&self, id: ConflictSetId) -> &ConflictSet {
        &self.conflict_sets[id.index()]
    }

    /// The paper's enabling rule for `t` under `marking`.
    pub fn is_enabled(&self, t: TransId, marking: &Marking) -> bool {
        marking.covers(self.transition(t).input())
    }

    /// All transitions enabled under `marking`.
    pub fn enabled_transitions(&self, marking: &Marking) -> Vec<TransId> {
        self.transitions()
            .filter(|t| self.is_enabled(*t, marking))
            .collect()
    }

    /// `true` iff every transition has known enabling and firing times
    /// and a known frequency (i.e. Zuberek's Section-2 analysis applies
    /// directly).
    pub fn is_fully_timed(&self) -> bool {
        self.transitions.iter().all(|t| {
            t.enabling.known().is_some()
                && t.firing.known().is_some()
                && t.frequency.weight().is_some()
        })
    }

    /// Compute the conflict-set partition for a set of transitions
    /// (union-find over shared input places).
    pub(crate) fn compute_conflict_sets(
        transitions: &[Transition],
        num_places: usize,
    ) -> (Vec<ConflictSet>, Vec<ConflictSetId>) {
        let n = transitions.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        // Group transitions by input place: any two transitions sharing a
        // place are unioned.
        let mut by_place: Vec<Option<usize>> = vec![None; num_places];
        for (i, t) in transitions.iter().enumerate() {
            for p in t.input.places() {
                match by_place[p.index()] {
                    Some(j) => {
                        let ri = find(&mut parent, i);
                        let rj = find(&mut parent, j);
                        if ri != rj {
                            parent[ri] = rj;
                        }
                    }
                    None => by_place[p.index()] = Some(i),
                }
            }
        }
        // Collect the classes in deterministic (first-member) order.
        let mut class_of_root: Vec<Option<usize>> = vec![None; n];
        let mut sets: Vec<ConflictSet> = Vec::new();
        let mut conflict_of: Vec<ConflictSetId> = Vec::with_capacity(n);
        for i in 0..n {
            let root = find(&mut parent, i);
            let class = *class_of_root[root].get_or_insert_with(|| {
                sets.push(ConflictSet {
                    members: Vec::new(),
                });
                sets.len() - 1
            });
            sets[class].members.push(TransId::from_index(i));
            conflict_of.push(ConflictSetId(class as u32));
        }
        (sets, conflict_of)
    }

    /// Structural statistics, used by diagnostics and benches.
    pub fn stats(&self) -> NetStats {
        NetStats {
            places: self.num_places(),
            transitions: self.num_transitions(),
            conflict_sets: self.conflict_sets.len(),
            nontrivial_conflict_sets: self.conflict_sets.iter().filter(|c| c.len() > 1).count(),
            arcs: self
                .transitions
                .iter()
                .map(|t| t.input.num_distinct() + t.output.num_distinct())
                .sum(),
            initial_tokens: self.initial.total_tokens() as usize,
        }
    }
}

/// Summary statistics of a net's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Number of places.
    pub places: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Number of conflict sets (including singletons).
    pub conflict_sets: usize,
    /// Number of conflict sets with at least two members.
    pub nontrivial_conflict_sets: usize,
    /// Number of arcs (distinct input + output pairs).
    pub arcs: usize,
    /// Tokens in the initial marking.
    pub initial_tokens: usize,
}

impl fmt::Display for TimedPetriNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "net {}", self.name)?;
        for p in self.places() {
            let init = self.initial.tokens(p);
            if init > 0 {
                writeln!(f, "  place {} init {}", self.place_name(p), init)?;
            } else {
                writeln!(f, "  place {}", self.place_name(p))?;
            }
        }
        for t in self.transitions() {
            let tr = self.transition(t);
            write!(f, "  trans {}", tr.name())?;
            write!(f, " in {}", fmt_bag(self, &tr.input))?;
            write!(f, " out {}", fmt_bag(self, &tr.output))?;
            write!(
                f,
                " enabling {} firing {} weight {}",
                tr.enabling, tr.firing, tr.frequency
            )?;
            writeln!(f)?;
        }
        Ok(())
    }
}

fn fmt_bag(net: &TimedPetriNet, bag: &Bag) -> String {
    if bag.is_empty() {
        return "-".to_string();
    }
    let mut parts = Vec::new();
    for (p, n) in bag.iter() {
        if n == 1 {
            parts.push(net.place_name(p).to_string());
        } else {
            parts.push(format!("{}*{}", n, net.place_name(p)));
        }
    }
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;
    use tpn_rational::Rational;

    fn two_conflicting() -> TimedPetriNet {
        let mut b = NetBuilder::new("test");
        let p0 = b.place("a", 1);
        let p1 = b.place("b", 0);
        b.transition("x")
            .input(p0)
            .output(p1)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("y")
            .input(p0)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("z")
            .input(p1)
            .output(p0)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn conflict_partition() {
        let net = two_conflicting();
        assert_eq!(net.conflict_sets().len(), 2);
        let x = net.transition_by_name("x").unwrap();
        let y = net.transition_by_name("y").unwrap();
        let z = net.transition_by_name("z").unwrap();
        assert_eq!(net.conflict_set_of(x), net.conflict_set_of(y));
        assert_ne!(net.conflict_set_of(x), net.conflict_set_of(z));
        let cs = net.conflict_set(net.conflict_set_of(x));
        assert_eq!(cs.members(), &[x, y]);
    }

    #[test]
    fn transitive_conflict_closure() {
        // x shares p0 with y; y shares p1 with z — all three must be in
        // one set even though x and z share no place.
        let mut b = NetBuilder::new("chain");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 1);
        let p2 = b.place("p2", 0);
        b.transition("x").input(p0).output(p2).add();
        b.transition("y").input(p0).input(p1).output(p2).add();
        b.transition("z").input(p1).output(p2).add();
        b.transition("w").input(p2).output(p0).add();
        let net = b.build().unwrap();
        let x = net.transition_by_name("x").unwrap();
        let z = net.transition_by_name("z").unwrap();
        let w = net.transition_by_name("w").unwrap();
        assert_eq!(net.conflict_set_of(x), net.conflict_set_of(z));
        assert_ne!(net.conflict_set_of(x), net.conflict_set_of(w));
        assert_eq!(net.conflict_sets().len(), 2);
    }

    #[test]
    fn enabling_rule() {
        let net = two_conflicting();
        let x = net.transition_by_name("x").unwrap();
        let z = net.transition_by_name("z").unwrap();
        let m = net.initial_marking().clone();
        assert!(net.is_enabled(x, &m));
        assert!(!net.is_enabled(z, &m));
        let enabled = net.enabled_transitions(&m);
        assert_eq!(enabled.len(), 2); // x and y
    }

    #[test]
    fn fully_timed_detection() {
        let net = two_conflicting();
        assert!(net.is_fully_timed());
        let mut b = NetBuilder::new("sym");
        let p0 = b.place("a", 1);
        b.transition("x").input(p0).firing_unknown().add();
        let net2 = b.build().unwrap();
        assert!(!net2.is_fully_timed());
    }

    #[test]
    fn stats() {
        let net = two_conflicting();
        let s = net.stats();
        assert_eq!(s.places, 2);
        assert_eq!(s.transitions, 3);
        assert_eq!(s.conflict_sets, 2);
        assert_eq!(s.nontrivial_conflict_sets, 1);
        assert_eq!(s.initial_tokens, 1);
        assert_eq!(s.arcs, 5);
    }

    #[test]
    fn lookup_errors() {
        let net = two_conflicting();
        assert!(net.place_by_name("nope").is_err());
        assert!(net.transition_by_name("nope").is_err());
        assert_eq!(net.place_name(net.place_by_name("a").unwrap()), "a");
    }

    #[test]
    fn display_roundtrips_structure() {
        let net = two_conflicting();
        let shown = net.to_string();
        assert!(shown.contains("net test"));
        assert!(shown.contains("place a init 1"));
        assert!(shown.contains("trans x"));
        // empty output bag renders as '-'
        assert!(shown.contains(" out -"), "{shown}");
    }

    #[test]
    fn weights_default_to_one() {
        let mut b = NetBuilder::new("w");
        let p0 = b.place("a", 1);
        b.transition("x").input(p0).add();
        let net = b.build().unwrap();
        let x = net.transition_by_name("x").unwrap();
        assert_eq!(net.transition(x).frequency().weight(), Some(&Rational::ONE));
    }
}
