//! Timed reachability graphs (paper §2–§3).
//!
//! A state of a Timed Petri Net is characterised by (paper §2):
//!
//! 1. a **marking** — the token distribution;
//! 2. a vector of **remaining enabling times** (RET) — how much longer
//!    each enabled transition must stay enabled before it *must* fire;
//! 3. a vector of **remaining firing times** (RFT) — how much longer
//!    each firing transition keeps absorbing time before it deposits its
//!    output tokens.
//!
//! The timed reachability graph (TRG) enumerates all reachable states by
//! the successor procedure of the paper's **Figure 3**:
//!
//! * if any transition is *firable* (enabled with elapsed RET), the state
//!   is a **decision state**: one zero-delay successor per *selector*
//!   (one firable member per firable conflict set, cross product), each
//!   labelled with a branching probability;
//! * otherwise the unique successor is obtained by letting the minimum
//!   non-zero RET/RFT elapse, completing any firings that reach zero.
//!
//! The model is the paper's, stored compactly: a [`TimedState`] keeps
//! RET and RFT as sparse lists sorted by transition, one entry per
//! enabled or firing transition, rather than one slot per transition
//! of the net. [`build_trg`] numbers each discovered state by a
//! [`StateId`], finds repeats through a hash index, and stores the
//! whole graph in a few flat arrays: every marking in one token array,
//! every clock in one clock array, the edges as CSR and their
//! transitions as ranges of one shared array. Each successor's
//! enablement is re-tested only for transitions the step can affect.
//!
//! The construction is generic over an [`AnalysisDomain`]: what a time
//! and a probability are, and each transition's weight, which the
//! paper's conflict rule (stated once, on the trait) turns into
//! branching probabilities.
//!
//! * [`NumericDomain`] — Section 2, every attribute known a priori
//!   (Zuberek's method).
//! * [`Symbolic`] — times affine and probabilities rational in the
//!   `E(t)`, `F(t)`, `f(t)` symbols, with two comparison policies.
//!   [`SymbolicDomain`] (Section 3) decides a comparison when a
//!   [`tpn_symbolic::ConstraintSet`] entails it, and otherwise stops
//!   with [`ReachError::AmbiguousComparison`] naming the pair — the
//!   paper's "prompt the designer for timing constraints at the
//!   necessary points". [`LiftedDomain`] lifts chosen attributes of a
//!   fully timed net and freezes every comparison at the net's values,
//!   recording the region where the derived closed forms hold.
//! * [`IntervalDomain`] — the paper's future work: delays as ranges.

#![allow(clippy::result_large_err)] // diagnostic errors carry rendered expressions by design

pub mod correctness;
mod domain;
mod error;
mod graph;
mod interval;
mod lifted;
mod state;

pub use correctness::{analyze, CorrectnessReport};
pub use domain::{
    AnalysisDomain, Comparisons, Entailment, NumericDomain, Symbolic, SymbolicDomain,
};
pub use error::ReachError;
pub use graph::{
    build_trg, Edge, EdgeKind, MinResolution, StateId, TimedReachabilityGraph, TrgOptions,
};
pub use interval::{Interval, IntervalDomain};
pub use lifted::{FrozenAtBase, LiftedDomain};
pub use state::TimedState;
