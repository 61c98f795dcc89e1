//! `timed-petri` — derivation of performance expressions for
//! communication protocols from Timed Petri Net models.
//!
//! A faithful, production-quality Rust implementation of
//!
//! > Rami R. Razouk, *"The Derivation of Performance Expressions for
//! > Communication Protocols from Timed Petri Net Models"*,
//! > ACM SIGCOMM 1984 (UC Irvine ICS TR #211, 1983).
//!
//! This facade crate re-exports the entire workspace. The layering,
//! bottom-up:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`rational`] | `tpn-rational` | exact rational arithmetic |
//! | [`symbolic`] | `tpn-symbolic` | symbols, affine expressions, polynomials, rational functions, Fourier–Motzkin timing constraints |
//! | [`linalg`] | `tpn-linalg` | exact dense linear algebra over generic fields |
//! | [`net`] | `tpn-net` | the Timed Petri Net model, builder, validation, `.tpn` format |
//! | [`reach`] | `tpn-reach` | timed reachability graphs (numeric §2 and symbolic §3) |
//! | [`core`] | `tpn-core` | decision graphs, traversal rates, performance expressions |
//! | [`eval`] | `tpn-eval` | compiled expression evaluation and parallel parameter sweeps |
//! | [`opt`] | `tpn-opt` | parameter synthesis: certified optima of performance expressions |
//! | [`sim`] | `tpn-sim` | discrete-event Monte-Carlo validation |
//! | [`protocols`] | `tpn-protocols` | the paper's nets and parametric families |
//! | [`session`] | `tpn-session` | memoized typed-artifact pipeline: one handle, the whole chain |
//! | [`obs`] | `tpn-obs` | observability: lock-free latency histograms, Prometheus exposition, span traces |
//! | [`service`] | `tpn-service` | analysis daemon: one cache (sessions + response bodies), thread pool, HTTP + JSON |
//!
//! # Quickstart
//!
//! Reproduce the paper's protocol throughput (§4) through a
//! [`Session`](tpn_session::Session) — the derivation chain (net →
//! TRG → decision graph → rates → performance expressions) is computed
//! lazily, memoized, and shared with every later demand:
//!
//! ```
//! use timed_petri::prelude::*;
//!
//! // the paper's Figure-1 protocol with Figure-1b times
//! let proto = timed_petri::protocols::simple::paper();
//! let session = Session::new(proto.net.clone(), SessionOptions::new());
//!
//! assert_eq!(session.trg().unwrap().num_states(), 18); // the paper's Figure 4
//! let dg = session.decision_graph().unwrap();
//! let perf = session.performance().unwrap();
//! let t7 = proto.t[6]; // sender receives the ACK: a successfully
//!                      // acknowledged message (the paper's edge 2)
//! let throughput = perf.throughput(&dg, t7);
//! // ≈ 2.85 messages per second (times are in milliseconds)
//! assert!((throughput.to_f64() * 1000.0 - 2.8518).abs() < 1e-3);
//!
//! // Each stage was built exactly once, and a re-demand is a shared Arc.
//! assert_eq!(session.stage_stats(Stage::Trg).builds, 1);
//! assert!(std::sync::Arc::ptr_eq(&perf, &session.performance().unwrap()));
//! ```
//!
//! The stage-by-stage API (`build_trg`, `DecisionGraph::from_trg`,
//! `solve_rates`, `Performance::new`) remains available for callers
//! that need a single artifact with custom plumbing.

pub use tpn_aio as aio;
pub use tpn_core as core;
pub use tpn_eval as eval;
pub use tpn_linalg as linalg;
pub use tpn_net as net;
pub use tpn_obs as obs;
pub use tpn_opt as opt;
pub use tpn_protocols as protocols;
pub use tpn_rational as rational;
pub use tpn_reach as reach;
pub use tpn_service as service;
pub use tpn_session as session;
pub use tpn_sim as sim;
pub use tpn_symbolic as symbolic;

/// The commonly used names, for glob import.
pub mod prelude {
    pub use tpn_core::{
        solve_rates, DecisionGraph, ExprTarget, OptCertificate, OptGoal, Optimum, Performance,
        Rates,
    };
    pub use tpn_eval::{argbest_f64, sweep_exact, sweep_f64, Axis, Compiled, Grid, SweepOptions};
    pub use tpn_net::{Bag, Marking, NetBuilder, TimedPetriNet, TimingAssignment};
    pub use tpn_opt::{optimize, OptError, OptOptions};
    pub use tpn_rational::Rational;
    pub use tpn_reach::{
        analyze, build_trg, Interval, IntervalDomain, LiftedDomain, NumericDomain, SymbolicDomain,
        TrgOptions,
    };
    pub use tpn_service::{RequestKind, Service, ServiceConfig};
    pub use tpn_session::{Session, SessionError, SessionOptions, Stage, StageCounters};
    pub use tpn_sim::{simulate, SimOptions};
    pub use tpn_symbolic::{Assignment, ConstraintSet, LinExpr, Poly, RatFn, Symbol};
}
