//! Construction and queries of timed reachability graphs — the paper's
//! Figure-3 procedure, domain-generic.
//!
//! # Storage
//!
//! A finished graph is a handful of flat arrays; no state, edge or
//! clock list owns an allocation of its own:
//!
//! * every state's marking sits in one `u32` array, `num_places`
//!   counts per state;
//! * every state's clocks sit in one `(TransId, T)` array, its RET
//!   entries then its RFT entries, located by two offsets per state;
//! * the edges are CSR: one edge array in source-state order plus one
//!   offset per state, so a state's outgoing edges are a slice;
//! * each edge's fired and completed transitions are ranges into one
//!   shared `TransId` array, read through
//!   [`TimedReachabilityGraph::fired`] and
//!   [`TimedReachabilityGraph::completed`];
//! * each Figure-7 [`MinResolution`] is a range into one candidate
//!   array.
//!
//! # Construction
//!
//! States are expanded in id order, which is breadth-first discovery
//! order. Each successor is assembled in scratch buffers reused across
//! the whole build, hashed and looked up; only a state seen for the
//! first time is copied into the arrays.
//!
//! Restoring the RET invariant after a step does not re-test every
//! transition. A step removes tokens only from its selector's input
//! places, and removing tokens can only disable a transition; it adds
//! tokens only to the output places of the transitions that complete.
//! So the transitions that can be enabled afterwards are those of the
//! previous RET plus the consumers of the places that gained tokens,
//! and only those are re-tested. The initial state tests every
//! transition.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasher;
use std::ops::Range;

use tpn_linalg::Field;
use tpn_net::{Marking, TimedPetriNet, TransId};

use crate::domain::branch_probabilities;
use crate::{AnalysisDomain, ReachError, TimedState};

/// Index of a state within its graph (discovery order; the initial state
/// is always `StateId(0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// What every rendering starts with: `StateId(12)` is `s12`.
    const PREFIX: &'static str = "s";

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Append the id's rendering, `s12`, to `out` — the bytes of its
    /// `Display`, without `core::fmt`.
    pub fn push_to(self, out: &mut String) {
        out.push_str(Self::PREFIX);
        tpn_rational::push_u64(out, u64::from(self.0));
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", Self::PREFIX, self.0)
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
///
/// The transitions an edge fires and completes are ranges into the
/// graph's shared transition array: read them with
/// [`TimedReachabilityGraph::fired`] and
/// [`TimedReachabilityGraph::completed`].
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
    fired: Range<u32>,
    completed: Range<u32>,
}

/// Audit record of one minimum-delay decision taken during construction,
/// the information the paper tabulates in Figure 7 ("timing constraints
/// used in reachability graph"). A view into the graph's flat
/// candidate array.
#[derive(Debug)]
pub struct MinResolution<'a, T> {
    /// The state (by index) where the decision was taken.
    pub state: StateId,
    /// The competing candidate delays: `(transition, is_rft, remaining)`.
    /// `is_rft == false` means the entry was a remaining *enabling* time.
    pub candidates: &'a [(TransId, bool, T)],
    /// Index into `candidates` of the chosen minimum.
    pub chosen: usize,
}

/// A stored [`MinResolution`]: its candidates are a range of the
/// graph's candidate array.
#[derive(Debug, Clone)]
struct Resolution {
    state: StateId,
    candidates: Range<u32>,
    chosen: u32,
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

/// `v[r]` for a `u32` range.
fn slice<'a, X>(v: &'a [X], r: &Range<u32>) -> &'a [X] {
    &v[r.start as usize..r.end as usize]
}

/// A fully constructed timed reachability graph, stored in a handful of
/// flat arrays: no state, edge or clock list owns an allocation.
/// [`state`](Self::state) hands out [`TimedState`] views, and an
/// [`Edge`]'s transitions are read through [`fired`](Self::fired) and
/// [`completed`](Self::completed).
#[derive(Debug, Clone)]
pub struct TimedReachabilityGraph<D: AnalysisDomain> {
    num_places: usize,
    /// Every state's marking, `num_places` token counts per state.
    tokens: Vec<u32>,
    /// Every state's RET entries then RFT entries, state after state.
    clocks: Vec<(TransId, D::Time)>,
    /// `2 × num_states + 1` offsets into `clocks`: state `i`'s RET is
    /// `[2i]..[2i+1]` and its RFT `[2i+1]..[2i+2]`.
    clock_offs: Vec<u32>,
    /// All edges, grouped by source state in state order.
    edges: Vec<Edge<D>>,
    /// `num_states + 1` offsets into `edges`.
    edge_offs: Vec<u32>,
    /// The fired and completed transitions of every edge.
    labels: Vec<TransId>,
    resolutions: Vec<Resolution>,
    /// The candidates of every resolution.
    candidates: Vec<(TransId, bool, D::Time)>,
}

impl<D: AnalysisDomain> TimedReachabilityGraph<D> {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.clock_offs.len() / 2
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The initial state's id.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Iterate over all state ids in discovery order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states() as u32).map(StateId)
    }

    /// A state by id.
    pub fn state(&self, id: StateId) -> TimedState<'_, D::Time> {
        let i = id.index();
        let offs = &self.clock_offs[2 * i..2 * i + 3];
        TimedState::new(
            &self.tokens[i * self.num_places..(i + 1) * self.num_places],
            slice(&self.clocks, &(offs[0]..offs[1])),
            slice(&self.clocks, &(offs[1]..offs[2])),
        )
    }

    /// Outgoing edges of a state.
    pub fn edges_from(&self, id: StateId) -> &[Edge<D>] {
        let i = id.index();
        slice(&self.edges, &(self.edge_offs[i]..self.edge_offs[i + 1]))
    }

    /// Iterate over every edge.
    pub fn all_edges(&self) -> impl Iterator<Item = &Edge<D>> {
        self.edges.iter()
    }

    /// The transitions that *begin* firing on an edge of this graph
    /// (the selector).
    pub fn fired(&self, edge: &Edge<D>) -> &[TransId] {
        slice(&self.labels, &edge.fired)
    }

    /// The transitions that *finish* firing on an edge of this graph
    /// (elapse completions plus instantaneous zero-firing-time
    /// transitions).
    pub fn completed(&self, edge: &Edge<D>) -> &[TransId] {
        slice(&self.labels, &edge.completed)
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
    pub fn min_resolutions(&self) -> Vec<MinResolution<'_, D::Time>> {
        self.resolutions
            .iter()
            .map(|r| MinResolution {
                state: r.state,
                candidates: slice(&self.candidates, &r.candidates),
                chosen: r.chosen as usize,
            })
            .collect()
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
        let clocks = self
            .clocks
            .iter()
            .map(|(t, x)| Some((*t, time(x)?)))
            .collect::<Option<Vec<_>>>()?;
        let edges = self
            .edges
            .iter()
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
            .collect::<Option<Vec<_>>>()?;
        let candidates = self
            .candidates
            .iter()
            .map(|(t, is_rft, x)| Some((*t, *is_rft, time(x)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(TimedReachabilityGraph {
            num_places: self.num_places,
            tokens: self.tokens.clone(),
            clocks,
            clock_offs: self.clock_offs.clone(),
            edges,
            edge_offs: self.edge_offs.clone(),
            labels: self.labels.clone(),
            resolutions: self.resolutions.clone(),
            candidates,
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
        for id in self.state_ids() {
            let shape = if self.edges_from(id).len() > 1 {
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
                    let names: Vec<&str> = self
                        .fired(e)
                        .iter()
                        .map(|t| net.transition(*t).name())
                        .collect();
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

    /// An empty graph over `num_places` places.
    fn empty(num_places: usize) -> Self {
        TimedReachabilityGraph {
            num_places,
            tokens: Vec::new(),
            clocks: Vec::new(),
            clock_offs: vec![0],
            edges: Vec::new(),
            edge_offs: vec![0],
            labels: Vec::new(),
            resolutions: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Append a copy of `state` and return its id.
    fn push_state(&mut self, state: TimedState<'_, D::Time>) -> StateId {
        let id = StateId(self.num_states() as u32);
        self.tokens.extend_from_slice(state.marking.as_slice());
        self.clocks.extend_from_slice(state.ret);
        self.clock_offs.push(self.clocks.len() as u32);
        self.clocks.extend_from_slice(state.rft);
        self.clock_offs.push(self.clocks.len() as u32);
        id
    }

    /// Record that the elapse from `state` chose candidate `chosen`
    /// among all of the state's clocks, RET entries first.
    fn push_resolution(&mut self, state: StateId, chosen: usize) {
        let i = state.index();
        let (ret, rft, end) = (
            self.clock_offs[2 * i] as usize,
            self.clock_offs[2 * i + 1] as usize,
            self.clock_offs[2 * i + 2] as usize,
        );
        let start = self.candidates.len() as u32;
        for (k, (t, x)) in self.clocks[ret..end].iter().enumerate() {
            self.candidates.push((*t, ret + k >= rft, x.clone()));
        }
        self.resolutions.push(Resolution {
            state,
            candidates: start..self.candidates.len() as u32,
            chosen: chosen as u32,
        });
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
    let mut builder = Builder::new(net, domain, opts.max_states)?;
    let mut next = 0;
    while next < builder.graph.num_states() {
        builder.expand(StateId(next as u32))?;
        let graph = &mut builder.graph;
        graph.edge_offs.push(graph.edges.len() as u32);
        next += 1;
    }
    Ok(builder.graph)
}

/// The index that finds a state's id from its contents while the graph
/// is built.
///
/// It maps a 64-bit state hash to the newest id with that hash; older
/// ids sharing the hash are chained through `next`. A lookup confirms
/// every candidate against the graph, so a hash collision costs one
/// comparison and never a wrong id. The hash is keyed per build, like a
/// default `HashMap`'s, so a net cannot be crafted to collide. The
/// index is dropped when construction ends: the finished graph keeps
/// only the states.
struct StateIndex {
    hasher: RandomState,
    heads: HashMap<u64, u32>,
    /// Per id: the next-older id with the same hash, or [`NO_STATE`].
    next: Vec<u32>,
}

/// End of a hash chain in [`StateIndex::next`].
const NO_STATE: u32 = u32::MAX;

impl StateIndex {
    /// The id of a state of `graph` equal to `state`, whose hash is
    /// `hash`.
    fn find<D: AnalysisDomain>(
        &self,
        graph: &TimedReachabilityGraph<D>,
        hash: u64,
        state: TimedState<'_, D::Time>,
    ) -> Option<StateId> {
        let mut id = *self.heads.get(&hash)?;
        while id != NO_STATE {
            if graph.state(StateId(id)) == state {
                return Some(StateId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Index the newest state, `id`, under `hash`.
    fn insert(&mut self, hash: u64, id: StateId) {
        debug_assert_eq!(id.index(), self.next.len());
        self.next
            .push(self.heads.insert(hash, id.0).unwrap_or(NO_STATE));
    }
}

/// For every transition `t`, the transitions whose input bag shares a
/// place with `t`'s output bag — the only ones `t`'s completion can
/// enable — as CSR over transition ids, each list sorted.
struct Wakes {
    offs: Vec<u32>,
    targets: Vec<TransId>,
}

impl Wakes {
    fn new(net: &TimedPetriNet) -> Wakes {
        // Consumers per place, as CSR.
        let mut place_offs = vec![0u32; net.num_places() + 1];
        for t in net.transitions() {
            for p in net.transition(t).input().places() {
                place_offs[p.index() + 1] += 1;
            }
        }
        for i in 1..place_offs.len() {
            place_offs[i] += place_offs[i - 1];
        }
        let mut consumers = vec![TransId::from_index(0); place_offs[net.num_places()] as usize];
        let mut fill = place_offs.clone();
        for t in net.transitions() {
            for p in net.transition(t).input().places() {
                consumers[fill[p.index()] as usize] = t;
                fill[p.index()] += 1;
            }
        }
        // Per transition: the union over its output places.
        let mut offs = Vec::with_capacity(net.num_transitions() + 1);
        offs.push(0);
        let (mut targets, mut union) = (Vec::new(), Vec::new());
        for t in net.transitions() {
            union.clear();
            for p in net.transition(t).output().places() {
                let i = p.index();
                union.extend_from_slice(
                    &consumers[place_offs[i] as usize..place_offs[i + 1] as usize],
                );
            }
            union.sort_unstable();
            union.dedup();
            targets.extend_from_slice(&union);
            offs.push(targets.len() as u32);
        }
        Wakes { offs, targets }
    }

    fn of(&self, t: TransId) -> &[TransId] {
        slice(
            &self.targets,
            &(self.offs[t.index()]..self.offs[t.index() + 1]),
        )
    }
}

/// Buffers one successor is assembled in, reused for every successor
/// of the build.
struct Scratch<D: AnalysisDomain> {
    marking: Marking,
    /// The successor's RET.
    ret: Vec<(TransId, D::Time)>,
    /// The RET after an elapse, before newly enabled transitions join.
    elapsed: Vec<(TransId, D::Time)>,
    /// The successor's RFT.
    rft: Vec<(TransId, D::Time)>,
    /// The selector that begins firing.
    fired: Vec<TransId>,
    /// The transitions that finish firing.
    completed: Vec<TransId>,
    /// The transitions whose enablement is re-tested.
    woken: Vec<TransId>,
    /// A decision state's firable transitions, grouped by conflict set.
    firable: Vec<TransId>,
    /// Branching probability of each `firable` entry within its set.
    probs: Vec<D::Prob>,
    /// Where each firable conflict set lies in `firable`.
    sets: Vec<Range<usize>>,
    /// The selector odometer: one member index per firable set.
    choice: Vec<usize>,
    /// An elapse's candidate delays, RET entries first.
    exprs: Vec<D::Time>,
}

/// The state of one [`build_trg`] call.
struct Builder<'n, D: AnalysisDomain> {
    net: &'n TimedPetriNet,
    domain: &'n D,
    max_states: usize,
    graph: TimedReachabilityGraph<D>,
    index: StateIndex,
    wakes: Wakes,
    scratch: Scratch<D>,
}

impl<'n, D: AnalysisDomain> Builder<'n, D> {
    /// A builder whose graph holds the initial state: the initial
    /// marking with every enabled transition's clock at `E(t)` and
    /// nothing firing.
    fn new(net: &'n TimedPetriNet, domain: &'n D, max_states: usize) -> Result<Self, ReachError> {
        let mut scratch = Scratch {
            marking: net.initial_marking().clone(),
            ret: Vec::new(),
            elapsed: Vec::new(),
            rft: Vec::new(),
            fired: Vec::new(),
            completed: Vec::new(),
            woken: net.transitions().collect(),
            firable: Vec::new(),
            probs: Vec::new(),
            sets: Vec::new(),
            choice: Vec::new(),
            exprs: Vec::new(),
        };
        enable(
            net,
            domain,
            &scratch.marking,
            &[],
            &scratch.woken,
            &mut scratch.ret,
        )?;
        let mut graph = TimedReachabilityGraph::empty(net.num_places());
        let mut index = StateIndex {
            hasher: RandomState::new(),
            heads: HashMap::new(),
            next: Vec::new(),
        };
        let initial = TimedState::new(scratch.marking.as_slice(), &scratch.ret, &[]);
        let hash = index.hasher.hash_one(initial);
        index.insert(hash, graph.push_state(initial));
        Ok(Builder {
            net,
            domain,
            max_states,
            graph,
            index,
            wakes: Wakes::new(net),
            scratch,
        })
    }

    /// Add every successor of state `sid` and its edges to the graph.
    fn expand(&mut self, sid: StateId) -> Result<(), ReachError> {
        // Firable = enabled with elapsed RET.
        let domain = self.domain;
        let s = &mut self.scratch;
        s.firable.clear();
        s.firable.extend(
            self.graph
                .state(sid)
                .ret
                .iter()
                .filter(|(_, x)| domain.is_zero(x))
                .map(|(t, _)| *t),
        );
        if s.firable.is_empty() {
            self.elapse(sid)
        } else {
            self.fire(sid)
        }
    }

    /// Add the edge from `from` to the successor assembled in the
    /// scratch buffers, adding that state to the graph if it is new.
    fn add_successor(
        &mut self,
        from: StateId,
        kind: EdgeKind,
        delay: D::Time,
        prob: D::Prob,
    ) -> Result<(), ReachError> {
        let (s, graph) = (&self.scratch, &mut self.graph);
        let state = TimedState::new(s.marking.as_slice(), &s.ret, &s.rft);
        let hash = self.index.hasher.hash_one(state);
        let to = match self.index.find(graph, hash, state) {
            Some(id) => id,
            None if graph.num_states() >= self.max_states => {
                return Err(ReachError::StateLimitExceeded {
                    limit: self.max_states,
                })
            }
            None => {
                let id = graph.push_state(state);
                self.index.insert(hash, id);
                id
            }
        };
        let start = graph.labels.len() as u32;
        if kind == EdgeKind::Fire {
            graph.labels.extend_from_slice(&s.fired);
        }
        let mid = graph.labels.len() as u32;
        graph.labels.extend_from_slice(&s.completed);
        graph.edges.push(Edge {
            from,
            to,
            kind,
            delay,
            prob,
            fired: start..mid,
            completed: mid..graph.labels.len() as u32,
        });
        Ok(())
    }

    /// The if-branch of Figure 3: one zero-delay successor per selector.
    fn fire(&mut self, sid: StateId) -> Result<(), ReachError> {
        let (net, domain) = (self.net, self.domain);
        let s = &mut self.scratch;
        // A firable transition that is already firing would constitute a
        // second simultaneous firing: the paper's self-conflict
        // restriction.
        let state = self.graph.state(sid);
        if let Some(&t) = s.firable.iter().find(|&&t| state.rft(t).is_some()) {
            return Err(ReachError::MultipleFiring {
                transition: net.transition(t).name().to_string(),
                state: sid.index(),
            });
        }
        // Partition the firable set into firable conflict sets, in set
        // order; the stable sort keeps each set's members in transition
        // order. Then the per-set branching probabilities.
        s.firable.sort_by_key(|&t| net.conflict_set_of(t));
        s.probs.clear();
        s.sets.clear();
        let mut start = 0;
        while start < s.firable.len() {
            let set = net.conflict_set_of(s.firable[start]);
            let end = start
                + s.firable[start..]
                    .iter()
                    .take_while(|&&t| net.conflict_set_of(t) == set)
                    .count();
            branch_probabilities(domain, net, &s.firable[start..end], &mut s.probs)?;
            s.sets.push(start..end);
            start = end;
        }
        // "Let the set of selectors Sel = cross product of firable conflict
        // sets" — enumerate with an odometer over one member per set.
        s.choice.clear();
        s.choice.resize(s.sets.len(), 0);
        loop {
            let s = &mut self.scratch;
            let mut prob = D::Prob::one();
            s.fired.clear();
            for (set, &member) in s.sets.iter().zip(&s.choice) {
                prob = prob.mul(&s.probs[set.start + member]);
                s.fired.push(s.firable[set.start + member]);
            }
            if !prob.is_zero() {
                apply_selector(net, domain, &self.wakes, self.graph.state(sid), sid, s)?;
                self.add_successor(sid, EdgeKind::Fire, domain.zero(), prob)?;
            }
            let s = &mut self.scratch;
            if !advance(&mut s.choice, &s.sets) {
                return Ok(());
            }
        }
    }

    /// The else-branch of Figure 3: let the minimum non-zero RET/RFT
    /// elapse. A terminal state gets no successor; a state where
    /// several candidate delays competed gets a Figure-7 record.
    fn elapse(&mut self, sid: StateId) -> Result<(), ReachError> {
        let (net, domain) = (self.net, self.domain);
        let s = &mut self.scratch;
        let state = self.graph.state(sid);
        // Candidates: every tracked RET, then every tracked RFT, each in
        // transition order (all strictly positive here — a zero RET would
        // have made the state a decision state, and zero RFTs are
        // completed eagerly).
        let clocks = state
            .ret
            .iter()
            .map(|(t, x)| (*t, false, x))
            .chain(state.rft.iter().map(|(t, x)| (*t, true, x)));
        s.exprs.clear();
        s.exprs.extend(clocks.clone().map(|(_, _, x)| x.clone()));
        if s.exprs.is_empty() {
            return Ok(()); // terminal state
        }
        let chosen = domain.min_index(&s.exprs, sid.index())?;
        let tmin = s.exprs[chosen].clone();
        // "Generate S' by subtracting Tmin from all non-zero RET and RFT."
        s.elapsed.clear();
        s.rft.clear();
        s.completed.clear();
        for (t, is_rft, x) in clocks {
            if domain.time_eq(x, &tmin, sid.index())? {
                if is_rft {
                    // "For all transitions whose RFT reaches 0, add tokens
                    // to output places" — applied below so newly enabled
                    // transitions see the complete marking.
                    s.completed.push(t);
                } else {
                    s.elapsed.push((t, domain.zero())); // became firable
                }
            } else if is_rft {
                s.rft.push((t, domain.sub(x, &tmin)));
            } else {
                s.elapsed.push((t, domain.sub(x, &tmin)));
            }
        }
        s.marking.copy_from(state.marking.as_slice());
        for &t in &s.completed {
            s.marking.add(net.transition(t).output());
        }
        woken_by(&self.wakes, &s.elapsed, &s.completed, &mut s.woken);
        enable(net, domain, &s.marking, &s.elapsed, &s.woken, &mut s.ret)?;
        if s.exprs.len() > 1 {
            self.graph.push_resolution(sid, chosen);
        }
        self.add_successor(sid, EdgeKind::Elapse, tmin, D::Prob::one())
    }
}

/// Step the selector odometer `choice` (one member index per firable
/// set); `false` once every selector has been visited.
fn advance(choice: &mut [usize], sets: &[Range<usize>]) -> bool {
    for (member, set) in choice.iter_mut().zip(sets) {
        *member += 1;
        if *member < set.len() {
            return true;
        }
        *member = 0;
    }
    false
}

/// Assemble in `s` the successor of `state` in which the selector
/// `s.fired` begins firing.
fn apply_selector<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    wakes: &Wakes,
    state: TimedState<'_, D::Time>,
    sid: StateId,
    s: &mut Scratch<D>,
) -> Result<(), ReachError> {
    s.marking.copy_from(state.marking.as_slice());
    // "Remove tokens from input places of transitions in s."
    for &t in &s.fired {
        s.marking.subtract(net.transition(t).input());
    }
    // The paper's conflict-set restriction: firing must disable every
    // other firable member of each chosen set. If any firable member of
    // a chosen set (including the fired one) is *still* enabled, a
    // second same-instant firing would be possible.
    for &t in &s.fired {
        let cs = net.conflict_set(net.conflict_set_of(t));
        for &u in cs {
            let was_firable = matches!(state.ret(u), Some(x) if domain.is_zero(x));
            if was_firable && s.marking.covers(net.transition(u).input()) {
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
    s.rft.clear();
    s.rft.extend_from_slice(state.rft);
    s.completed.clear();
    for &t in &s.fired {
        let ft = domain.firing_time(net, t)?;
        if domain.is_zero(&ft) {
            s.marking.add(net.transition(t).output());
            s.completed.push(t);
        } else {
            // Not already firing (checked above), so this is a new entry.
            let pos = s.rft.partition_point(|(u, _)| *u < t);
            s.rft.insert(pos, (t, ft));
        }
    }
    woken_by(wakes, state.ret, &s.completed, &mut s.woken);
    enable(net, domain, &s.marking, state.ret, &s.woken, &mut s.ret)
}

/// The transitions whose enablement a step can change, sorted: those of
/// the previous RET `ret` (a step's removals can only disable them)
/// plus the consumers of every place a `completed` transition deposits
/// into (only those can become enabled).
fn woken_by<T>(wakes: &Wakes, ret: &[(TransId, T)], completed: &[TransId], out: &mut Vec<TransId>) {
    out.clear();
    out.extend(ret.iter().map(|(t, _)| *t));
    if !completed.is_empty() {
        for &t in completed {
            out.extend_from_slice(wakes.of(t));
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Restore the RET invariant after a marking change, re-testing the
/// sorted transitions `woken` (a superset of every transition enabled
/// under `marking`): newly enabled transitions start their enabling
/// clock at `E(t)`; disabled ones are dropped ("reset its RET to 0");
/// continuously enabled ones keep their remaining time. `ret` is the
/// sorted RET list before the change; `out` receives the RET list for
/// `marking`, again in transition order.
fn enable<D: AnalysisDomain>(
    net: &TimedPetriNet,
    domain: &D,
    marking: &Marking,
    ret: &[(TransId, D::Time)],
    woken: &[TransId],
    out: &mut Vec<(TransId, D::Time)>,
) -> Result<(), ReachError> {
    out.clear();
    let mut before = ret.iter().peekable();
    for &t in woken {
        let kept = before.next_if(|(u, _)| *u == t);
        if marking.covers(net.transition(t).input()) {
            let clock = match kept {
                Some((_, x)) => x.clone(),
                None => domain.enabling_time(net, t)?,
            };
            out.push((t, clock));
        }
    }
    Ok(())
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

    #[test]
    fn state_id_push_to_matches_display() {
        for i in [0, 7, 12, 99_999, u32::MAX] {
            let mut out = String::from("x");
            StateId(i).push_to(&mut out);
            assert_eq!(out, format!("x{}", StateId(i)));
        }
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
        assert_eq!(net.transition(trg.fired(&es[0])[0]).name(), "preferred");
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
        assert_eq!(trg.fired(&es[0]).len(), 2);
        // the elapse chain: 2 elapses (min 2, then 3)
        let s1 = es[0].to;
        let e1 = &trg.edges_from(s1)[0];
        assert_eq!(e1.kind, EdgeKind::Elapse);
        assert_eq!(e1.delay, r(2));
        assert_eq!(trg.completed(e1).len(), 1);
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
            for &t in trg.fired(e) {
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
            trg.completed(e0),
            trg.fired(e0),
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
            trg.state_ids().any(|id| {
                let s = trg.state(id);
                let clocks = if rft { s.rft } else { s.ret };
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
