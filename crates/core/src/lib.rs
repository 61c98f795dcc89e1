//! Decision graphs and performance-expression derivation — the paper's
//! primary contribution (§2 numeric, §3–§4 symbolic).
//!
//! Pipeline:
//!
//! 1. Build a timed reachability graph with [`tpn_reach::build_trg`]
//!    (numeric or symbolic domain).
//! 2. Collapse it into a [`DecisionGraph`]: only the *decision nodes*
//!    (states with several successors) remain; the deterministic paths
//!    between them become single edges whose delays are summed —
//!    symbolically when times are symbols (paper Figures 5 and 8).
//! 3. Derive the *traversal rates* `rᵢ`: the rate of an outgoing edge is
//!    its branching probability times the total rate into its source
//!    node. The system is homogeneous and (for an ergodic protocol
//!    cycle) has a one-dimensional solution space; [`solve_rates`]
//!    reduces it to one unknown per decision node, solves that exactly
//!    over the probability field and normalises against a reference
//!    edge, exactly as the paper does with "assuming r = 1".
//! 4. Form performance measures from `wᵢ = rᵢ·dᵢ`: [`Performance`]
//!    exposes throughput of any transition, mean cycle time, edge time
//!    shares and place utilisation. In the symbolic domain every measure
//!    is a closed-form rational function of the enabling/firing-time and
//!    frequency symbols, valid for *all* parameters satisfying the
//!    timing constraints — the paper's throughput expression falls out
//!    of [`Performance::throughput`] for `t6`.

mod decision;
mod error;
mod exprs;
mod measures;
mod opt;
mod rates;

pub use decision::{DecisionEdge, DecisionGraph};
pub use error::CoreError;
pub use exprs::ExprTarget;
pub use measures::Performance;
pub use opt::{OptCertificate, OptGoal, Optimum};
pub use rates::{solve_rates, Rates};
