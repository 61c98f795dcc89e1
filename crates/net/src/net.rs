//! The validated net type and conflict-set computation.

use std::fmt;

use crate::transition::TransRecord;
use crate::{Bag, ConflictSetId, Marking, NetError, PlaceId, TransId, Transition};

/// Where a name lies in a net's name arena: `names[start..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// A validated Timed Petri Net. Construct via [`crate::NetBuilder`] or
/// [`crate::parse_tpn`].
///
/// The net is a handful of flat arrays, whatever its size: one name
/// arena, one arc array holding every bag, one record per transition,
/// the conflict sets in CSR form and two name-sorted id indexes. Read
/// it through views: [`TimedPetriNet::transition`] returns a `Copy`
/// [`Transition`] whose bags are [`Bag`]`<&[_]>` slices of the arc
/// array, and a conflict set is a `&[TransId]`.
///
/// Equality is structural: same name, places (names and initial
/// tokens), and transitions (names, bags, timings, frequencies), in
/// the same declaration order. For order-*independent* identity use
/// [`TimedPetriNet::digest`].
#[derive(Debug, Clone)]
pub struct TimedPetriNet {
    /// The net's name, then every place and transition name in
    /// declaration order.
    pub(crate) names: String,
    pub(crate) name: Span,
    pub(crate) place_names: Vec<Span>,
    pub(crate) initial: Marking,
    pub(crate) transitions: Vec<TransRecord>,
    /// Every bag's `(place, multiplicity)` pairs; see [`TransRecord::arcs`].
    pub(crate) arcs: Vec<(PlaceId, u32)>,
    /// Conflict set `c` is `conflict_members[conflict_bounds[c]..conflict_bounds[c + 1]]`.
    pub(crate) conflict_members: Vec<TransId>,
    pub(crate) conflict_bounds: Vec<u32>,
    pub(crate) conflict_of: Vec<ConflictSetId>, // indexed by transition
    /// Place ids sorted by name (see [`name_key`]), for lookup by
    /// binary search.
    pub(crate) places_by_name: Vec<(u64, PlaceId)>,
    /// Transition ids sorted by name.
    pub(crate) transitions_by_name: Vec<(u64, TransId)>,
}

impl TimedPetriNet {
    pub(crate) fn text(&self, span: Span) -> &str {
        &self.names[span.start as usize..span.end as usize]
    }

    /// The net's name.
    pub fn name(&self) -> &str {
        self.text(self.name)
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
    pub fn places(&self) -> impl ExactSizeIterator<Item = PlaceId> {
        (0..self.place_names.len()).map(PlaceId::from_index)
    }

    /// Iterate over all transition ids.
    pub fn transitions(&self) -> impl ExactSizeIterator<Item = TransId> {
        (0..self.transitions.len()).map(TransId::from_index)
    }

    /// A place's name.
    pub fn place_name(&self, p: PlaceId) -> &str {
        self.text(self.place_names[p.index()])
    }

    /// A transition's attributes.
    pub fn transition(&self, t: TransId) -> Transition<'_> {
        Transition {
            net: self,
            record: &self.transitions[t.index()],
        }
    }

    /// Look a place up by name.
    pub fn place_by_name(&self, name: &str) -> Result<PlaceId, NetError> {
        find_by_name(&self.places_by_name, name, |p| self.place_name(p))
    }

    /// Look a transition up by name.
    pub fn transition_by_name(&self, name: &str) -> Result<TransId, NetError> {
        find_by_name(&self.transitions_by_name, name, |t| {
            self.text(self.transitions[t.index()].name)
        })
    }

    /// The initial marking `μ₀`.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial
    }

    /// The conflict-set partition: each set's members in index order,
    /// the sets in order of their first member.
    pub fn conflict_sets(&self) -> impl ExactSizeIterator<Item = &[TransId]> {
        self.conflict_bounds
            .windows(2)
            .map(|w| &self.conflict_members[w[0] as usize..w[1] as usize])
    }

    /// The conflict set containing a transition.
    pub fn conflict_set_of(&self, t: TransId) -> ConflictSetId {
        self.conflict_of[t.index()]
    }

    /// Members of a conflict set, in index order.
    pub fn conflict_set(&self, id: ConflictSetId) -> &[TransId] {
        let (start, end) = (
            self.conflict_bounds[id.index()],
            self.conflict_bounds[id.index() + 1],
        );
        &self.conflict_members[start as usize..end as usize]
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

    /// Compute the conflict-set partition (union-find over shared input
    /// places) into `conflict_members`/`conflict_bounds`/`conflict_of`.
    pub(crate) fn compute_conflict_sets(&mut self) {
        let n = self.transitions.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], i: u32) -> u32 {
            let mut root = i;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut i = i;
            while parent[i as usize] != root {
                i = std::mem::replace(&mut parent[i as usize], root);
            }
            root
        }
        // Group transitions by input place: any two transitions sharing a
        // place are unioned.
        let mut by_place: Vec<u32> = vec![u32::MAX; self.num_places()];
        for (i, t) in self.transitions.iter().enumerate() {
            let i = i as u32;
            for &(p, _) in &self.arcs[t.arcs[0] as usize..t.arcs[1] as usize] {
                match by_place[p.index()] {
                    u32::MAX => by_place[p.index()] = i,
                    j => {
                        let ri = find(&mut parent, i);
                        let rj = find(&mut parent, j);
                        if ri != rj {
                            parent[ri as usize] = rj;
                        }
                    }
                }
            }
        }
        // Number the classes in first-member order, count their
        // members, and lay them out as CSR, members in index order.
        let mut class_of_root: Vec<u32> = vec![u32::MAX; n];
        let mut bounds: Vec<u32> = Vec::with_capacity(n + 1);
        bounds.push(0);
        let mut conflict_of: Vec<ConflictSetId> = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let root = find(&mut parent, i) as usize;
            if class_of_root[root] == u32::MAX {
                class_of_root[root] = bounds.len() as u32 - 1;
                bounds.push(0);
            }
            let class = class_of_root[root];
            bounds[class as usize + 1] += 1;
            conflict_of.push(ConflictSetId(class));
        }
        for c in 1..bounds.len() {
            bounds[c] += bounds[c - 1];
        }
        let mut members: Vec<TransId> = self.transitions().collect();
        members.sort_unstable_by_key(|&t| (conflict_of[t.index()], t));
        self.conflict_members = members;
        self.conflict_bounds = bounds;
        self.conflict_of = conflict_of;
    }

    /// Structural statistics, used by diagnostics and benches.
    pub fn stats(&self) -> NetStats {
        NetStats {
            places: self.num_places(),
            transitions: self.num_transitions(),
            conflict_sets: self.conflict_sets().len(),
            nontrivial_conflict_sets: self.conflict_sets().filter(|c| c.len() > 1).count(),
            arcs: self.arcs.len(),
            initial_tokens: self.initial.total_tokens() as usize,
        }
    }
}

/// A name's first eight bytes, big-endian and zero-padded. Keys order
/// names as the names themselves would, up to ties: a name-sorted
/// index sorts and searches `(key, name)` pairs, and most comparisons
/// end at the integers.
pub(crate) fn name_key(name: &str) -> u64 {
    let mut key = [0u8; 8];
    let len = name.len().min(8);
    key[..len].copy_from_slice(&name.as_bytes()[..len]);
    u64::from_be_bytes(key)
}

/// Binary search of a name-sorted id index.
fn find_by_name<'n, I: Copy>(
    sorted: &[(u64, I)],
    name: &str,
    name_of: impl Fn(I) -> &'n str,
) -> Result<I, NetError> {
    let key = name_key(name);
    sorted
        .binary_search_by(|&(k, id)| k.cmp(&key).then_with(|| name_of(id).cmp(name)))
        .map(|at| sorted[at].1)
        .map_err(|_| NetError::UnknownName {
            name: name.to_string(),
        })
}

/// The name-sorted index of `ids` (ties by id), and the smallest id
/// that repeats the name of a smaller one, if any.
pub(crate) fn sort_by_name<'n, I: Copy + Ord>(
    ids: impl ExactSizeIterator<Item = I>,
    name_of: impl Fn(I) -> &'n str,
) -> (Vec<(u64, I)>, Option<I>) {
    let mut index: Vec<(u64, I)> = Vec::with_capacity(ids.len());
    index.extend(ids.map(|id| (name_key(name_of(id)), id)));
    index.sort_unstable_by(|&(ka, a), &(kb, b)| {
        ka.cmp(&kb)
            .then_with(|| name_of(a).cmp(name_of(b)))
            .then(a.cmp(&b))
    });
    let duplicate = index
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && name_of(w[0].1) == name_of(w[1].1))
        .map(|w| w[1].1)
        .min();
    (index, duplicate)
}

impl PartialEq for TimedPetriNet {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.initial == other.initial
            && self
                .places()
                .all(|p| self.place_name(p) == other.place_name(p))
            && self.num_transitions() == other.num_transitions()
            && self
                .transitions()
                .all(|t| self.transition(t) == other.transition(t))
    }
}

impl Eq for TimedPetriNet {}

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
        writeln!(f, "net {}", self.name())?;
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
            write!(f, " in {}", fmt_bag(self, tr.input()))?;
            write!(f, " out {}", fmt_bag(self, tr.output()))?;
            write!(
                f,
                " enabling {} firing {} weight {}",
                tr.enabling(),
                tr.firing(),
                tr.frequency()
            )?;
            writeln!(f)?;
        }
        Ok(())
    }
}

fn fmt_bag(net: &TimedPetriNet, bag: Bag<&[(PlaceId, u32)]>) -> String {
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
        assert_eq!(cs, &[x, y]);
        let sets: Vec<&[TransId]> = net.conflict_sets().collect();
        assert_eq!(sets, [&[x, y][..], &[z][..]]);
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

    /// Names tied on their first eight bytes, names that prefix one
    /// another and names holding a NUL byte are each found, and nothing
    /// else is.
    #[test]
    fn name_lookup_over_shared_prefixes() {
        let names = [
            "packet_in_medium",
            "packet_in_flight",
            "packet_i",
            "packet",
            "p",
            "a\0",
            "a",
            "a\0b",
            "τ→",
            "τ",
        ];
        let mut b = NetBuilder::new("names");
        let ids: Vec<PlaceId> = names.iter().map(|n| b.place(n, 1)).collect();
        for (n, &p) in names.iter().zip(&ids) {
            b.transition(&format!("{n}!")).input(p).add();
        }
        let net = b.build().unwrap();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(net.place_by_name(n), Ok(ids[i]), "{n:?}");
            assert_eq!(
                net.transition_by_name(&format!("{n}!")),
                Ok(TransId::from_index(i))
            );
        }
        for missing in ["packet_in", "packet_in_mediu", "a\0\0", "", "τ→!!", "q"] {
            assert!(net.place_by_name(missing).is_err(), "{missing:?}");
        }
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
