//! Correctness analysis over timed reachability graphs.
//!
//! The paper's conclusion argues that timed reachability graphs "reveal
//! all the allowed state transitions, given a set of timing constraints"
//! and can therefore carry the *correctness* proofs that un-timed
//! reachability graphs are classically used for — with the timing
//! constraints pruning interleavings that cannot actually occur. This
//! module implements those checks:
//!
//! * **deadlock freedom** — no terminal states;
//! * **safeness** — every reachable marking is 1-bounded;
//! * **boundedness** — the maximum token count per place;
//! * **liveness (L1)** — every transition fires somewhere in the graph
//!   (dead transitions are reported by name);
//! * **reversibility** — the recurrent behaviour returns to the initial
//!   state (the graph is a single strongly-connected component once
//!   transient states are discarded).

use std::collections::HashSet;

use tpn_net::{TimedPetriNet, TransId};

use crate::{AnalysisDomain, StateId, TimedReachabilityGraph};

/// The result of the correctness checks.
#[derive(Debug, Clone)]
pub struct CorrectnessReport {
    /// Terminal (dead) states, if any.
    pub deadlocks: Vec<StateId>,
    /// States whose marking puts more than one token on some place.
    pub unsafe_states: Vec<StateId>,
    /// Maximum token count observed on any place (the net's bound over
    /// the explored graph).
    pub bound: u32,
    /// Transitions that never begin firing anywhere in the graph.
    pub dead_transitions: Vec<TransId>,
    /// `true` iff every state can reach the initial state again.
    pub reversible: bool,
}

impl CorrectnessReport {
    /// `true` iff there is no deadlock, the net is 1-safe, every
    /// transition can fire, and the behaviour is reversible.
    pub fn is_correct(&self) -> bool {
        self.deadlocks.is_empty()
            && self.unsafe_states.is_empty()
            && self.dead_transitions.is_empty()
            && self.reversible
    }

    /// Human-readable summary naming the offending artifacts.
    pub fn describe(&self, net: &TimedPetriNet) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "deadlock-free: {}",
            if self.deadlocks.is_empty() {
                "yes".into()
            } else {
                format!("no {:?}", self.deadlocks)
            }
        );
        let _ = writeln!(
            out,
            "1-safe: {} (bound = {})",
            if self.unsafe_states.is_empty() {
                "yes"
            } else {
                "no"
            },
            self.bound
        );
        let dead: Vec<&str> = self
            .dead_transitions
            .iter()
            .map(|t| net.transition(*t).name())
            .collect();
        let _ = writeln!(
            out,
            "all transitions fire: {}",
            if dead.is_empty() {
                "yes".into()
            } else {
                format!("no, dead: {}", dead.join(", "))
            }
        );
        let _ = writeln!(
            out,
            "reversible: {}",
            if self.reversible { "yes" } else { "no" }
        );
        out
    }
}

/// Run all correctness checks on a constructed graph.
pub fn analyze<D: AnalysisDomain>(
    trg: &TimedReachabilityGraph<D>,
    net: &TimedPetriNet,
) -> CorrectnessReport {
    let deadlocks = trg.terminal_states();
    let mut unsafe_states = Vec::new();
    let mut bound = 0u32;
    for s in trg.state_ids() {
        let m = trg.state(s).marking();
        let max = (0..m.num_places())
            .map(|p| m.tokens(tpn_net::PlaceId::from_index(p)))
            .max()
            .unwrap_or(0);
        bound = bound.max(max);
        if max > 1 {
            unsafe_states.push(s);
        }
    }
    let mut fired: HashSet<TransId> = HashSet::new();
    for e in trg.all_edges() {
        fired.extend(trg.fired(e).iter().copied());
    }
    let dead_transitions: Vec<TransId> = net.transitions().filter(|t| !fired.contains(t)).collect();
    // Reversibility: every state reachable from the initial state can
    // reach it back. Compute backward reachability from the initial
    // state and compare with the full state set... the initial state may
    // itself be transient (not on the recurrent cycle); in that case
    // check against the set of *recurrent* states: states from which the
    // graph cannot escape re-visiting. We approximate the classical
    // definition: reversible iff the initial state is a home state.
    let n = trg.num_states();
    let mut reaches_initial = vec![false; n];
    // reverse adjacency
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in trg.all_edges() {
        preds[e.to.index()].push(e.from.index());
    }
    let mut stack = vec![trg.initial().index()];
    while let Some(s) = stack.pop() {
        if reaches_initial[s] {
            continue;
        }
        reaches_initial[s] = true;
        stack.extend(preds[s].iter().copied());
    }
    let reversible = reaches_initial.iter().all(|x| *x);
    CorrectnessReport {
        deadlocks,
        unsafe_states,
        bound,
        dead_transitions,
        reversible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_trg, NumericDomain, TrgOptions};
    use tpn_net::NetBuilder;

    #[test]
    fn healthy_cycle_is_correct() {
        let mut b = NetBuilder::new("ok");
        let pa = b.place("pa", 1);
        let pb = b.place("pb", 0);
        b.transition("go")
            .input(pa)
            .output(pb)
            .firing_const(1)
            .add();
        b.transition("back")
            .input(pb)
            .output(pa)
            .firing_const(2)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let rep = analyze(&trg, &net);
        assert!(rep.is_correct(), "{}", rep.describe(&net));
        assert_eq!(rep.bound, 1);
    }

    #[test]
    fn deadlock_reported() {
        let mut b = NetBuilder::new("dead");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("once")
            .input(p)
            .output(q)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let rep = analyze(&trg, &net);
        assert!(!rep.is_correct());
        assert_eq!(rep.deadlocks.len(), 1);
        assert!(!rep.reversible);
        let text = rep.describe(&net);
        assert!(text.contains("deadlock-free: no"), "{text}");
    }

    #[test]
    fn dead_transition_reported() {
        // "never" loses every conflict to "main" (weight 0 priority).
        let mut b = NetBuilder::new("deadt");
        let p = b.place("p", 1);
        b.transition("main")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("never")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(0)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let rep = analyze(&trg, &net);
        assert_eq!(rep.dead_transitions.len(), 1);
        assert_eq!(net.transition(rep.dead_transitions[0]).name(), "never");
        assert!(!rep.is_correct());
    }

    #[test]
    fn bound_reports_multi_tokens() {
        let mut b = NetBuilder::new("2bound");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // one firing deposits two tokens in q, a second transition
        // consumes them both — bounded at 2, not 1-safe.
        b.transition("fill")
            .input(p)
            .output_n(q, 2)
            .firing_const(1)
            .add();
        b.transition("drain")
            .input_n(q, 2)
            .output(p)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let rep = analyze(&trg, &net);
        assert_eq!(rep.bound, 2);
        assert!(!rep.unsafe_states.is_empty());
        assert!(rep.deadlocks.is_empty());
        assert!(rep.reversible);
    }
}
