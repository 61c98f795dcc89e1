//! Construction and queries of timed reachability graphs — the paper's
//! Figure-3 procedure, domain-generic.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hash};

use tpn_net::{ConflictSetId, Marking, TimedPetriNet, TransId};

use crate::{AnalysisDomain, ReachError, TimedState};

/// Index of a state within its graph (discovery order; the initial state
/// is always `StateId(0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What kind of step an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A zero-delay step in which a selector of firable transitions
    /// begins firing (the paper's "the act of beginning to fire is
    /// instantaneous").
    Fire,
    /// A time-elapse step: the minimum non-zero RET/RFT passes.
    Elapse,
}

/// An edge of the timed reachability graph.
#[derive(Debug, Clone)]
pub struct Edge<D: AnalysisDomain> {
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
    /// Step kind.
    pub kind: EdgeKind,
    /// Time elapsing along the edge (zero for [`EdgeKind::Fire`]).
    pub delay: D::Time,
    /// Branching probability (one for [`EdgeKind::Elapse`]).
    pub prob: D::Prob,
    /// Transitions that *begin* firing on this edge (the selector).
    pub fired: Vec<TransId>,
    /// Transitions that *finish* firing on this edge (elapse completions
    /// plus instantaneous zero-firing-time transitions).
    pub completed: Vec<TransId>,
}

/// Audit record of one minimum-delay decision taken during construction,
/// the information the paper tabulates in Figure 7 ("timing constraints
/// used in reachability graph").
#[derive(Debug, Clone)]
pub struct MinResolution<T> {
    /// The state (by index) where the decision was taken.
    pub state: StateId,
    /// The competing candidate delays: `(transition, is_rft, remaining)`.
    /// `is_rft == false` means the entry was a remaining *enabling* time.
    pub candidates: Vec<(TransId, bool, T)>,
    /// Index into `candidates` of the chosen minimum.
    pub chosen: usize,
}

/// Options for graph construction.
#[derive(Debug, Clone)]
pub struct TrgOptions {
    /// Maximum number of states to explore before failing with
    /// [`ReachError::StateLimitExceeded`].
    pub max_states: usize,
}

impl Default for TrgOptions {
    fn default() -> Self {
        TrgOptions {
            max_states: 100_000,
        }
    }
}

/// A fully constructed timed reachability graph.
#[derive(Debug, Clone)]
pub struct TimedReachabilityGraph<D: AnalysisDomain> {
    states: Vec<TimedState<D::Time>>,
    edges: Vec<Vec<Edge<D>>>,
    min_resolutions: Vec<MinResolution<D::Time>>,
}

impl<D: AnalysisDomain> TimedReachabilityGraph<D> {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The initial state's id.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Iterate over all state ids in discovery order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// A state by id.
    pub fn state(&self, id: StateId) -> &TimedState<D::Time> {
        &self.states[id.index()]
    }

    /// Outgoing edges of a state.
    pub fn edges_from(&self, id: StateId) -> &[Edge<D>] {
        &self.edges[id.index()]
    }

    /// Iterate over every edge.
    pub fn all_edges(&self) -> impl Iterator<Item = &Edge<D>> {
        self.edges.iter().flatten()
    }

    /// States with more than one successor — the paper's *decision
    /// nodes*.
    pub fn decision_states(&self) -> Vec<StateId> {
        self.state_ids()
            .filter(|s| self.edges_from(*s).len() > 1)
            .collect()
    }

    /// States with no successors (dead states).
    pub fn terminal_states(&self) -> Vec<StateId> {
        self.state_ids()
            .filter(|s| self.edges_from(*s).is_empty())
            .collect()
    }

    /// The minimum-delay decisions taken during construction (Figure-7
    /// material). Only states with *competing* candidates are recorded.
    pub fn min_resolutions(&self) -> &[MinResolution<D::Time>] {
        &self.min_resolutions
    }

    /// Re-label the graph into another domain by mapping every time and
    /// probability value, keeping the skeleton — states, edges,
    /// transitions fired/completed, min-resolutions — untouched. This
    /// is how a lifted graph is *instantiated* at a concrete parameter
    /// point: evaluate each symbolic label there and the result is the
    /// numeric graph the cold construction would have built, provided
    /// the point stays inside the domain's validity region
    /// ([`LiftedDomain::check_point`](crate::LiftedDomain::check_point)).
    /// Returns `None` if any label fails to map (an unbound symbol).
    pub fn map<D2, FT, FP>(&self, mut time: FT, mut prob: FP) -> Option<TimedReachabilityGraph<D2>>
    where
        D2: AnalysisDomain,
        FT: FnMut(&D::Time) -> Option<D2::Time>,
        FP: FnMut(&D::Prob) -> Option<D2::Prob>,
    {
        let map_clocks = |clocks: &[(TransId, D::Time)], time: &mut FT| {
            clocks
                .iter()
                .map(|(t, x)| Some((*t, time(x)?)))
                .collect::<Option<Vec<_>>>()
        };
        let states = self
            .states
            .iter()
            .map(|s| {
                Some(TimedState {
                    marking: s.marking.clone(),
                    ret: map_clocks(&s.ret, &mut time)?,
                    rft: map_clocks(&s.rft, &mut time)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let edges = self
            .edges
            .iter()
            .map(|es| {
                es.iter()
                    .map(|e| {
                        Some(Edge {
                            from: e.from,
                            to: e.to,
                            kind: e.kind,
                            delay: time(&e.delay)?,
                            prob: prob(&e.prob)?,
                            fired: e.fired.clone(),
                            completed: e.completed.clone(),
                        })
                    })
                    .collect::<Option<Vec<_>>>()
            })
            .collect::<Option<Vec<_>>>()?;
        let min_resolutions = self
            .min_resolutions
            .iter()
            .map(|m| {
                Some(MinResolution {
                    state: m.state,
                    candidates: m
                        .candidates
                        .iter()
                        .map(|(t, is_rft, x)| Some((*t, *is_rft, time(x)?)))
                        .collect::<Option<Vec<_>>>()?,
                    chosen: m.chosen,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(TimedReachabilityGraph {
            states,
            edges,
            min_resolutions,
        })
    }

    /// Render the state table in the style of the paper's Figure 4b/6b.
    pub fn describe_states(&self, net: &TimedPetriNet) -> String {
        let mut out = String::new();
        for id in self.state_ids() {
            let _ = writeln!(
                out,
                "{:>4}  {}",
                id.to_string(),
                self.state(id)
                    .describe(|t| net.transition(t).name().to_string())
            );
        }
        out
    }

    /// Graphviz DOT rendering of the graph (states as nodes, edges
    /// labelled with probability and delay).
    pub fn to_dot(&self, net: &TimedPetriNet) -> String {
        let mut out = String::from("digraph trg {\n  rankdir=LR;\n");
        let decisions: std::collections::HashSet<usize> =
            self.decision_states().iter().map(|s| s.index()).collect();
        for id in self.state_ids() {
            let shape = if decisions.contains(&id.index()) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  {id} [shape={shape}, label=\"{id}\"];");
        }
        for e in self.all_edges() {
            let mut label = String::new();
            match e.kind {
                EdgeKind::Fire => {
                    let names: Vec<&str> =
                        e.fired.iter().map(|t| net.transition(*t).name()).collect();
                    let _ = write!(label, "fire {} p={}", names.join("+"), e.prob);
                }
                EdgeKind::Elapse => {
                    let _ = write!(label, "τ={}", e.delay);
                }
            }
            let _ = writeln!(out, "  {} -> {} [label=\"{}\"];", e.from, e.to, label);
        }
        out.push_str("}\n");
        out
    }
}

/// Build the timed reachability graph of `net` under `domain`, starting
/// from the net's initial marking — the recursive successor calculation
/// of the paper's Figure 3, breadth-first with state deduplication.
pub fn build_trg<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    opts: &TrgOptions,
) -> Result<TimedReachabilityGraph<D>, ReachError> {
    let mut arena = StateArena::new(initial_state(net, domain)?);
    let mut edges: Vec<Vec<Edge<D>>> = vec![Vec::new()];
    let mut min_resolutions = Vec::new();
    let mut queue: VecDeque<StateId> = VecDeque::from([StateId(0)]);

    while let Some(sid) = queue.pop_front() {
        let (successors, resolution) = successors_of(net, domain, &arena.states[sid.index()], sid)?;
        min_resolutions.extend(resolution);
        for (mut edge, succ) in successors {
            let hash = arena.hash_of(&succ);
            let to = match arena.find(hash, &succ) {
                Some(id) => id,
                None => {
                    let id = arena.push(hash, succ, opts.max_states)?;
                    edges.push(Vec::new());
                    queue.push_back(id);
                    id
                }
            };
            edge.from = sid;
            edge.to = to;
            edges[sid.index()].push(edge);
        }
    }

    Ok(TimedReachabilityGraph {
        states: arena.states,
        edges,
        min_resolutions,
    })
}

/// The states discovered so far, each stored once and numbered by its
/// position (`u32` ids in discovery order), plus the index that finds a
/// state's id from its contents.
///
/// The index maps a 64-bit state hash to the newest id with that hash;
/// older ids sharing the hash are chained through `next`. A lookup
/// confirms every candidate against the arena, so a hash collision
/// costs one comparison and never a wrong id. The hash is keyed per
/// build, like a default `HashMap`'s, so a net cannot be crafted to
/// collide. The index is dropped when construction ends: the finished
/// graph keeps only the states.
struct StateArena<T> {
    states: Vec<TimedState<T>>,
    hasher: RandomState,
    heads: HashMap<u64, u32>,
    /// Per id: the next-older id with the same hash, or [`NO_STATE`].
    next: Vec<u32>,
}

/// End of a hash chain in [`StateArena::next`].
const NO_STATE: u32 = u32::MAX;

impl<T: Eq + Hash> StateArena<T> {
    fn new(initial: TimedState<T>) -> Self {
        let hasher = RandomState::new();
        let hash = hasher.hash_one(&initial);
        StateArena {
            states: vec![initial],
            hasher,
            heads: HashMap::from([(hash, 0)]),
            next: vec![NO_STATE],
        }
    }

    fn hash_of(&self, state: &TimedState<T>) -> u64 {
        self.hasher.hash_one(state)
    }

    /// The id of a state equal to `state`, whose hash is `hash`.
    fn find(&self, hash: u64, state: &TimedState<T>) -> Option<StateId> {
        let mut id = *self.heads.get(&hash)?;
        while id != NO_STATE {
            if self.states[id as usize] == *state {
                return Some(StateId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Add a state that [`find`](Self::find) reported absent, failing
    /// once the arena already holds `max_states` states.
    fn push(
        &mut self,
        hash: u64,
        state: TimedState<T>,
        max_states: usize,
    ) -> Result<StateId, ReachError> {
        if self.states.len() >= max_states {
            return Err(ReachError::StateLimitExceeded { limit: max_states });
        }
        let id = self.states.len() as u32;
        self.next
            .push(self.heads.insert(hash, id).unwrap_or(NO_STATE));
        self.states.push(state);
        Ok(StateId(id))
    }
}

/// The initial state: the initial marking with every enabled
/// transition's clock at `E(t)` and nothing firing.
fn initial_state<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
) -> Result<TimedState<D::Time>, ReachError> {
    let marking = net.initial_marking().clone();
    Ok(TimedState {
        ret: refresh_enablement(net, domain, &marking, &[])?,
        marking,
        rft: Vec::new(),
    })
}

/// One successor candidate: the edge label (with placeholder endpoints)
/// and the raw successor state.
type Succ<D> = (Edge<D>, TimedState<<D as AnalysisDomain>::Time>);

/// All successors of one state plus its Figure-7 audit record, if any.
type Successors<D> = (
    Vec<Succ<D>>,
    Option<MinResolution<<D as AnalysisDomain>::Time>>,
);

fn successors_of<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    state: &TimedState<D::Time>,
    sid: StateId,
) -> Result<Successors<D>, ReachError> {
    // Firable = enabled with elapsed RET.
    let firable: Vec<TransId> = state
        .ret
        .iter()
        .filter(|(_, x)| domain.is_zero(x))
        .map(|(t, _)| *t)
        .collect();

    if !firable.is_empty() {
        Ok((fire_successors(net, domain, state, sid, &firable)?, None))
    } else {
        let (succ, resolution) = elapse_successor(net, domain, state, sid)?;
        Ok((succ.into_iter().collect(), resolution))
    }
}

/// The if-branch of Figure 3: one zero-delay successor per selector.
fn fire_successors<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    state: &TimedState<D::Time>,
    sid: StateId,
    firable: &[TransId],
) -> Result<Vec<Succ<D>>, ReachError> {
    // A firable transition that is already firing would constitute a
    // second simultaneous firing: the paper's self-conflict restriction.
    for &t in firable {
        if state.rft(t).is_some() {
            return Err(ReachError::MultipleFiring {
                transition: net.transition(t).name().to_string(),
                state: sid.index(),
            });
        }
    }
    // Partition the firable set into firable conflict sets.
    let mut by_set: BTreeMap<ConflictSetId, Vec<TransId>> = BTreeMap::new();
    for &t in firable {
        by_set.entry(net.conflict_set_of(t)).or_default().push(t);
    }
    // Per-set branching probabilities.
    let mut sets: Vec<(Vec<TransId>, Vec<D::Prob>)> = Vec::with_capacity(by_set.len());
    for members in by_set.into_values() {
        let probs = domain.probabilities(net, &members)?;
        sets.push((members, probs));
    }
    // "Let the set of selectors Sel = cross product of firable conflict
    // sets" — enumerate with an odometer.
    let mut out = Vec::new();
    let mut choice = vec![0usize; sets.len()];
    loop {
        // Selector probability and member list.
        let mut prob = domain.prob_one();
        let mut selector = Vec::with_capacity(sets.len());
        for (si, &ci) in choice.iter().enumerate() {
            prob = domain.prob_mul(&prob, &sets[si].1[ci]);
            selector.push(sets[si].0[ci]);
        }
        if !domain.prob_is_zero(&prob) {
            out.push(apply_selector(net, domain, state, sid, &selector, prob)?);
        }
        // Advance the odometer.
        let mut pos = 0usize;
        loop {
            if pos == choice.len() {
                return Ok(out);
            }
            choice[pos] += 1;
            if choice[pos] < sets[pos].0.len() {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

fn apply_selector<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    state: &TimedState<D::Time>,
    sid: StateId,
    selector: &[TransId],
    prob: D::Prob,
) -> Result<Succ<D>, ReachError> {
    let mut marking = state.marking.clone();
    // "Remove tokens from input places of transitions in s."
    for &t in selector {
        marking.subtract(net.transition(t).input());
    }
    // The paper's conflict-set restriction: firing must disable every
    // other firable member of each chosen set. If any firable member of
    // a chosen set (including the fired one) is *still* enabled, a
    // second same-instant firing would be possible.
    for &t in selector {
        let cs = net.conflict_set(net.conflict_set_of(t));
        for &u in cs.members() {
            let was_firable = matches!(state.ret(u), Some(x) if domain.is_zero(x));
            if was_firable && marking.covers(net.transition(u).input()) {
                return Err(ReachError::MultipleFiring {
                    transition: net.transition(u).name().to_string(),
                    state: sid.index(),
                });
            }
        }
    }
    // "Set the RFT of each transition in s to F(t)." Transitions with a
    // provably zero firing time complete instantaneously (documented
    // extension; the paper's nets have strictly positive firing times).
    let mut rft = state.rft.clone();
    let mut completed = Vec::new();
    for &t in selector {
        let ft = domain.firing_time(net, t)?;
        if domain.is_zero(&ft) {
            marking.add(net.transition(t).output());
            completed.push(t);
        } else {
            // Not already firing (checked above), so this is a new entry.
            let pos = rft.partition_point(|(u, _)| *u < t);
            rft.insert(pos, (t, ft));
        }
    }
    let succ = TimedState {
        ret: refresh_enablement(net, domain, &marking, &state.ret)?,
        marking,
        rft,
    };
    let edge = Edge {
        from: sid,
        to: sid, // patched by the caller
        kind: EdgeKind::Fire,
        delay: domain.zero(),
        prob,
        fired: selector.to_vec(),
        completed,
    };
    Ok((edge, succ))
}

/// The else-branch of Figure 3: let the minimum non-zero RET/RFT elapse.
/// Returns no successor for terminal states; the second component is
/// the Figure-7 audit record when several candidate delays competed.
type Elapse<D> = (
    Option<Succ<D>>,
    Option<MinResolution<<D as AnalysisDomain>::Time>>,
);

fn elapse_successor<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    state: &TimedState<D::Time>,
    sid: StateId,
) -> Result<Elapse<D>, ReachError> {
    // Candidates: every tracked RET, then every tracked RFT, each in
    // transition order (all strictly positive here — a zero RET would
    // have made the state a decision state, and zero RFTs are completed
    // eagerly).
    let clocks = state
        .ret
        .iter()
        .map(|(t, x)| (*t, false, x))
        .chain(state.rft.iter().map(|(t, x)| (*t, true, x)));
    let exprs: Vec<D::Time> = clocks.clone().map(|(_, _, x)| x.clone()).collect();
    if exprs.is_empty() {
        return Ok((None, None)); // terminal state
    }
    let chosen = domain.min_index(&exprs, sid.index())?;
    let tmin = exprs[chosen].clone();
    let resolution = (exprs.len() > 1).then(|| MinResolution {
        state: sid,
        candidates: clocks
            .clone()
            .map(|(t, is_rft, x)| (t, is_rft, x.clone()))
            .collect(),
        chosen,
    });
    // "Generate S' by subtracting Tmin from all non-zero RET and RFT."
    let mut ret = Vec::with_capacity(state.ret.len());
    let mut rft = Vec::with_capacity(state.rft.len());
    let mut completed = Vec::new();
    for (t, is_rft, x) in clocks {
        if domain.time_eq(x, &tmin, sid.index())? {
            if is_rft {
                // "For all transitions whose RFT reaches 0, add tokens to
                // output places" — applied below so newly enabled
                // transitions see the complete marking.
                completed.push(t);
            } else {
                ret.push((t, domain.zero())); // became firable
            }
        } else if is_rft {
            rft.push((t, domain.sub(x, &tmin)));
        } else {
            ret.push((t, domain.sub(x, &tmin)));
        }
    }
    let mut marking = state.marking.clone();
    for &t in &completed {
        marking.add(net.transition(t).output());
    }
    let succ = TimedState {
        ret: refresh_enablement(net, domain, &marking, &ret)?,
        marking,
        rft,
    };
    let edge = Edge {
        from: sid,
        to: sid, // patched by the caller
        kind: EdgeKind::Elapse,
        delay: tmin,
        prob: domain.prob_one(),
        fired: Vec::new(),
        completed,
    };
    Ok((Some((edge, succ)), resolution))
}

/// Restore the RET invariant after a marking change: newly enabled
/// transitions start their enabling clock at `E(t)`; disabled ones are
/// dropped ("reset its RET to 0"); continuously enabled ones keep their
/// remaining time. `ret` is the sorted RET list before the change; the
/// result is the RET list for `marking`, again in transition order.
fn refresh_enablement<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    marking: &Marking,
    ret: &[(TransId, D::Time)],
) -> Result<Vec<(TransId, D::Time)>, ReachError> {
    let mut before = ret.iter().peekable();
    let mut out = Vec::with_capacity(ret.len() + 1);
    for t in net.transitions() {
        let kept = before.next_if(|(u, _)| *u == t);
        if marking.covers(net.transition(t).input()) {
            let clock = match kept {
                Some((_, x)) => x.clone(),
                None => domain.enabling_time(net, t)?,
            };
            out.push((t, clock));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NumericDomain;
    use tpn_net::NetBuilder;
    use tpn_rational::Rational;

    fn r(n: i128) -> Rational {
        Rational::from_int(n)
    }

    /// A 2-transition cycle: a → b → a, firing times 2 and 3.
    fn cycle_net() -> TimedPetriNet {
        let mut b = NetBuilder::new("cycle");
        let pa = b.place("pa", 1);
        let pb = b.place("pb", 0);
        b.transition("go")
            .input(pa)
            .output(pb)
            .firing_const(2)
            .add();
        b.transition("back")
            .input(pb)
            .output(pa)
            .firing_const(3)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn cycle_graph_shape() {
        let net = cycle_net();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        // states: {pa ready} → {go firing} → {pb ready} → {back firing} → …
        assert_eq!(trg.num_states(), 4);
        assert_eq!(trg.num_edges(), 4);
        assert!(trg.decision_states().is_empty());
        assert!(trg.terminal_states().is_empty());
        // alternating fire/elapse edges with the right delays
        let kinds: Vec<(EdgeKind, Rational)> = {
            let mut out = Vec::new();
            let mut s = trg.initial();
            for _ in 0..4 {
                let e = &trg.edges_from(s)[0];
                out.push((e.kind, e.delay));
                s = e.to;
            }
            out
        };
        assert_eq!(
            kinds,
            vec![
                (EdgeKind::Fire, r(0)),
                (EdgeKind::Elapse, r(2)),
                (EdgeKind::Fire, r(0)),
                (EdgeKind::Elapse, r(3)),
            ]
        );
    }

    #[test]
    fn conflict_probabilities_on_edges() {
        let mut b = NetBuilder::new("coin");
        let p = b.place("p", 1);
        let heads = b.place("h", 0);
        let tails = b.place("t", 0);
        b.transition("heads")
            .input(p)
            .output(heads)
            .firing_const(1)
            .weight(Rational::new(19, 20))
            .add();
        b.transition("tails")
            .input(p)
            .output(tails)
            .firing_const(1)
            .weight(Rational::new(1, 20))
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(trg.decision_states(), vec![trg.initial()]);
        let es = trg.edges_from(trg.initial());
        assert_eq!(es.len(), 2);
        let psum: Rational = es.iter().map(|e| e.prob).sum();
        assert_eq!(psum, Rational::ONE);
        // both outcomes end in distinct terminal states
        assert_eq!(trg.terminal_states().len(), 2);
    }

    #[test]
    fn priority_suppresses_zero_frequency_edge() {
        let mut b = NetBuilder::new("prio");
        let p = b.place("p", 1);
        let win = b.place("win", 0);
        let lose = b.place("lose", 0);
        b.transition("preferred")
            .input(p)
            .output(win)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("fallback")
            .input(p)
            .output(lose)
            .firing_const(1)
            .weight_const(0)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        // only the preferred transition appears
        let es = trg.edges_from(trg.initial());
        assert_eq!(es.len(), 1);
        assert_eq!(net.transition(es[0].fired[0]).name(), "preferred");
        assert_eq!(es[0].prob, Rational::ONE);
    }

    #[test]
    fn parallel_firings_cross_product() {
        // Two independent tokens → two independent conflict sets firable
        // at once → a single selector containing both (no interleaving
        // states, matching the cross-product construction).
        let mut b = NetBuilder::new("par");
        let p1 = b.place("p1", 1);
        let p2 = b.place("p2", 0);
        let q1 = b.place("q1", 1);
        let q2 = b.place("q2", 0);
        b.transition("a").input(p1).output(p2).firing_const(2).add();
        b.transition("z").input(q1).output(q2).firing_const(5).add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let es = trg.edges_from(trg.initial());
        assert_eq!(es.len(), 1, "both start in one selector");
        assert_eq!(es[0].fired.len(), 2);
        // the elapse chain: 2 elapses (min 2, then 3)
        let s1 = es[0].to;
        let e1 = &trg.edges_from(s1)[0];
        assert_eq!(e1.kind, EdgeKind::Elapse);
        assert_eq!(e1.delay, r(2));
        assert_eq!(e1.completed.len(), 1);
        let e2 = &trg.edges_from(e1.to)[0];
        assert_eq!(e2.delay, r(3));
        // a multi-candidate minimum was recorded (Figure-7 material)
        assert!(!trg.min_resolutions().is_empty());
    }

    #[test]
    fn enabling_time_delays_firability() {
        // timeout-style: enabling time 10, firing 1.
        let mut b = NetBuilder::new("en");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("timeout")
            .input(p)
            .output(q)
            .enabling_const(10)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        // s0 --elapse 10--> s1 --fire--> s2 --elapse 1--> s3 (terminal)
        let e0 = &trg.edges_from(trg.initial())[0];
        assert_eq!(e0.kind, EdgeKind::Elapse);
        assert_eq!(e0.delay, r(10));
        let e1 = &trg.edges_from(e0.to)[0];
        assert_eq!(e1.kind, EdgeKind::Fire);
        let e2 = &trg.edges_from(e1.to)[0];
        assert_eq!(e2.delay, r(1));
        assert_eq!(trg.terminal_states().len(), 1);
    }

    #[test]
    fn disabled_transition_resets_enabling_clock() {
        // Two transitions conflict on p; "fast" fires at once and removes
        // the token, so "slow" (enabling 10) must never fire even though
        // it was enabled momentarily — and if the token returns, slow
        // restarts from 10 (continuous-enabling rule).
        let mut b = NetBuilder::new("reset");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("fast")
            .input(p)
            .output(q)
            .firing_const(3)
            .weight_const(1)
            .add();
        b.transition("slow")
            .input(p)
            .output(q)
            .enabling_const(10)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("back")
            .input(q)
            .output(p)
            .firing_const(4)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        // "slow" never fires: no edge fires it
        for e in trg.all_edges() {
            for &t in &e.fired {
                assert_ne!(net.transition(t).name(), "slow");
            }
        }
        // the graph is a finite cycle (states repeat)
        assert!(trg.num_states() <= 6);
    }

    #[test]
    fn multiple_firing_violation_detected() {
        // Two tokens in a shared place: firing one member leaves the
        // other firable at the same instant.
        let mut b = NetBuilder::new("viol");
        let p = b.place("p", 2);
        b.transition("a").input(p).firing_const(1).add();
        let net = b.build().unwrap();
        let err = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap_err();
        assert!(matches!(err, ReachError::MultipleFiring { .. }), "{err}");
    }

    #[test]
    fn state_limit_enforced() {
        // An unbounded net: each cycle deposits a token in the sink
        // place `q`, so every lap reaches a fresh state.
        let mut b = NetBuilder::new("unbounded");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("grow")
            .input(p)
            .output(p)
            .output(q)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let err = build_trg(&net, &NumericDomain::new(), &TrgOptions { max_states: 50 });
        assert!(matches!(
            err,
            Err(ReachError::StateLimitExceeded { limit: 50 })
        ));
    }

    #[test]
    fn zero_firing_time_is_instantaneous() {
        let mut b = NetBuilder::new("instant");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let z = b.place("z", 0);
        b.transition("now").input(p).output(q).firing_const(0).add();
        b.transition("later")
            .input(q)
            .output(z)
            .firing_const(5)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let e0 = &trg.edges_from(trg.initial())[0];
        assert_eq!(e0.kind, EdgeKind::Fire);
        assert_eq!(
            e0.completed, e0.fired,
            "zero-time firing completes on the same edge"
        );
        // and "later" is immediately enabled in the successor
        let s1 = trg.state(e0.to);
        let later = net.transition_by_name("later").unwrap();
        assert!(s1.ret(later).is_some());
    }

    #[test]
    fn mapped_lifted_graph_matches_cold_numeric_graph() {
        use crate::LiftedDomain;
        use tpn_net::symbols;
        use tpn_symbolic::Assignment;

        let net = cycle_net(); // go: 2, back: 3
        let sym = symbols::firing("back");
        let lifted = LiftedDomain::new(&net, &[sym]).unwrap();
        let trg = build_trg(&net, &lifted, &TrgOptions::default()).unwrap();
        // Perturb F(back) 3 → 7 and instantiate the lifted skeleton.
        let point = Assignment::new().with(sym, Rational::from_int(7));
        lifted.check_point(&point).unwrap();
        let mapped: TimedReachabilityGraph<NumericDomain> =
            trg.map(|t| t.eval(&point), |p| p.eval(&point)).unwrap();
        // Cold build of the perturbed net.
        let mut b = NetBuilder::new("cycle");
        let pa = b.place("pa", 1);
        let pb = b.place("pb", 0);
        b.transition("go")
            .input(pa)
            .output(pb)
            .firing_const(2)
            .add();
        b.transition("back")
            .input(pb)
            .output(pa)
            .firing_const(7)
            .add();
        let perturbed = b.build().unwrap();
        let cold = build_trg(&perturbed, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(
            mapped.describe_states(&perturbed),
            cold.describe_states(&perturbed)
        );
        assert_eq!(mapped.to_dot(&perturbed), cold.to_dot(&perturbed));
        // An unbound symbol makes the mapping fail, not mislabel.
        let empty = Assignment::new();
        assert!(trg
            .map::<NumericDomain, _, _>(|t| t.eval(&empty), |p| p.eval(&empty))
            .is_none());
    }

    #[test]
    fn mapped_graph_moves_sparse_slots_behind_other_live_clocks() {
        use crate::LiftedDomain;
        use tpn_net::symbols;
        use tpn_symbolic::Assignment;

        // Two rings. Ring `a` is declared first with constant times, so
        // whenever both rings hold a live clock, ring `b`'s symbolic
        // E(b1)/F(b1) clocks sit behind `a`'s in the sparse lists.
        let mut b = NetBuilder::new("rings");
        let pa = b.place("pa", 1);
        let qa = b.place("qa", 0);
        let pb = b.place("pb", 1);
        let qb = b.place("qb", 0);
        b.transition("a1")
            .input(pa)
            .output(qa)
            .enabling_const(1)
            .firing_const(2)
            .add();
        b.transition("a2")
            .input(qa)
            .output(pa)
            .firing_const(2)
            .add();
        b.transition("b1")
            .input(pb)
            .output(qb)
            .enabling_const(2)
            .firing_const(5)
            .add();
        b.transition("b2")
            .input(qb)
            .output(pb)
            .firing_const(3)
            .add();
        let net = b.build().unwrap();
        let (e, f) = (symbols::enabling("b1"), symbols::firing("b1"));
        let lifted = LiftedDomain::new(&net, &[e, f]).unwrap();
        let trg = build_trg(&net, &lifted, &TrgOptions::default()).unwrap();
        // The premise: some symbolic RET and RFT clock is not the first
        // live entry of its list.
        let behind = |rft: bool| {
            trg.states.iter().any(|s| {
                let clocks = if rft { &s.rft } else { &s.ret };
                clocks
                    .iter()
                    .enumerate()
                    .any(|(slot, (_, x))| slot > 0 && !x.is_constant())
            })
        };
        assert!(behind(false), "no symbolic RET behind another clock");
        assert!(behind(true), "no symbolic RFT behind another clock");

        // The rings realign every 10 time units, which pins E+F = 7;
        // move the split between the two clocks.
        let point = Assignment::new()
            .with(e, Rational::new(5, 2))
            .with(f, Rational::new(9, 2));
        lifted.check_point(&point).unwrap();
        let mapped: TimedReachabilityGraph<NumericDomain> =
            trg.map(|t| t.eval(&point), |p| p.eval(&point)).unwrap();
        // A cold build of the perturbed net.
        let timing = tpn_net::TimingAssignment::new()
            .with("E(b1)", Rational::new(5, 2))
            .with("F(b1)", Rational::new(9, 2));
        let perturbed = net.with_timing(&timing).unwrap();
        let cold = build_trg(&perturbed, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        assert_eq!(mapped.num_states(), cold.num_states());
        for id in cold.state_ids() {
            assert_eq!(mapped.state(id), cold.state(id), "{id}");
        }
        assert_eq!(mapped.to_dot(&perturbed), cold.to_dot(&perturbed));
        assert_eq!(mapped.min_resolutions().len(), cold.min_resolutions().len());
        for (a, b) in mapped.min_resolutions().iter().zip(cold.min_resolutions()) {
            assert_eq!(
                (a.state, &a.candidates, a.chosen),
                (b.state, &b.candidates, b.chosen)
            );
        }
        // And the mapped values really moved off the base point.
        let base = lifted.base();
        let at_base: TimedReachabilityGraph<NumericDomain> =
            trg.map(|t| t.eval(base), |p| p.eval(base)).unwrap();
        assert_ne!(at_base.describe_states(&net), mapped.describe_states(&net));
    }

    #[test]
    fn dot_and_describe_render() {
        let net = cycle_net();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dot = trg.to_dot(&net);
        assert!(dot.contains("digraph trg"));
        assert!(dot.contains("fire go"));
        let table = trg.describe_states(&net);
        assert!(table.contains("s0"));
        assert!(table.contains("RET"));
    }
}
