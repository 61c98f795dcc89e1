//! Exact linear algebra over generic fields.
//!
//! The decision-graph traversal-rate equations (paper §4) have branching
//! probabilities as coefficients. In the numeric analysis those are
//! exact rationals; in the *symbolic* analysis they are rational
//! functions of the frequency symbols. Floating-point libraries are
//! useless here because the whole point is to obtain closed-form
//! expressions, so every exact computation is written once against a
//! generic [`Field`].
//!
//! Provided:
//!
//! * [`Field`] — the algebraic interface, implemented for
//!   [`tpn_rational::Rational`] and [`tpn_symbolic::RatFn`]; the rate
//!   solver in `tpn-core` is generic over it;
//! * [`Matrix`] — dense row-major matrices with reduced row-echelon
//!   form, rank, determinant, inverse, [`Matrix::solve`] and
//!   [`Matrix::null_space`], used for P/T-invariants and as the
//!   reference the rate solver is tested against.

#![allow(clippy::needless_range_loop)] // index-based loops mirror the matrix algebra

mod dense;
mod error;
mod field;

pub use dense::Matrix;
pub use error::LinalgError;
pub use field::Field;
