//! The Timed Petri Net model of Razouk's paper (§1).
//!
//! A Timed Petri Net is `Γ = (P, T, I, O, E, F, μ₀)`:
//!
//! * `P` — places, `T` — transitions;
//! * `I, O : T → bag(P)` — input and output *bags* (multisets of places);
//! * `E : T → ℝ≥0` — the **enabling time**: how long a transition must be
//!   *continuously enabled* before it becomes firable (used to model
//!   timeouts; `E = 0` for everything else);
//! * `F : T → ℝ≥0` — the **firing time**: when a transition becomes
//!   firable it *must* begin firing instantly, absorbing its input
//!   tokens; `F(t)` later, it finishes and deposits its output tokens;
//! * `μ₀` — the initial marking.
//!
//! Transitions whose input bags overlap are grouped into disjoint
//! **conflict sets**; each transition carries a *relative firing
//! frequency* used to resolve conflicts probabilistically (frequency 0
//! means "the others have priority"). This crate captures the model,
//! its structural validation, a builder, DOT export, and a small
//! line-oriented `.tpn` text format. The *dynamics* (reachability,
//! simulation) live in `tpn-reach` and `tpn-sim`.
//!
//! # Layout
//!
//! A [`TimedPetriNet`] is a fixed handful of flat arrays, however many
//! places and transitions it declares:
//!
//! * one name arena (`String`) holding the net's, every place's and
//!   every transition's name, with a `(start, end)` span per place and
//!   per transition;
//! * one arc array of `(PlaceId, u32)` pairs holding every bag; each
//!   transition's record names its input and output ranges, and each
//!   range is sorted by place with repeated places merged, exactly as
//!   [`Bag::insert`] keeps an owned bag;
//! * one record per transition: its name span, arc ranges and timing
//!   (`E`, `F`, frequency);
//! * the initial marking, the conflict sets in CSR form (one members
//!   array plus offsets) and each transition's set;
//! * two id indexes sorted by name, searched over the arena by
//!   [`TimedPetriNet::place_by_name`] and
//!   [`TimedPetriNet::transition_by_name`].
//!
//! Readers get views, not owned copies: [`TimedPetriNet::transition`]
//! returns a `Copy` [`Transition`] whose [`Transition::input`] and
//! [`Transition::output`] are [`Bag`]`<&[(PlaceId, u32)]>` slices of
//! the arc array, and a conflict set is a `&[TransId]`. [`Marking`]'s
//! `covers`/`add`/`subtract` take a view or a `&Bag` alike.
//! [`NetBuilder`] and [`parse_tpn`] append straight into these arrays,
//! so parsing a document allocates the same few arrays whatever its
//! size.

mod bag;
mod builder;
mod digest;
mod dot;
mod emit;
mod error;
mod ids;
pub mod invariant;
mod marking;
mod net;
mod parse;
mod timing;
mod transition;

pub use bag::Bag;
pub use builder::{NetBuilder, TransitionBuilder};
pub use digest::NetDigest;
pub use dot::to_dot;
pub use error::NetError;
pub use ids::{ConflictSetId, PlaceId, TransId};
pub use marking::Marking;
pub use net::TimedPetriNet;
pub use parse::{parse_tpn, ParseError};
pub use timing::TimingAssignment;
pub use transition::{Frequency, TimeValue, Transition};

/// Canonical symbol names used by the symbolic layers for a transition's
/// enabling time, firing time and firing frequency.
pub mod symbols {
    use tpn_symbolic::Symbol;

    /// The enabling-time symbol `E(name)`.
    pub fn enabling(name: &str) -> Symbol {
        Symbol::intern(&format!("E({name})"))
    }

    /// The firing-time symbol `F(name)`.
    pub fn firing(name: &str) -> Symbol {
        Symbol::intern(&format!("F({name})"))
    }

    /// The firing-frequency symbol `f(name)`.
    pub fn frequency(name: &str) -> Symbol {
        Symbol::intern(&format!("f({name})"))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn canonical_names() {
            assert_eq!(super::enabling("t3").name(), "E(t3)");
            assert_eq!(super::firing("t4").name(), "F(t4)");
            assert_eq!(super::frequency("t4").name(), "f(t4)");
        }
    }
}
