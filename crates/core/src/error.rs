//! Errors from decision-graph analysis.

use std::fmt;

use tpn_linalg::LinalgError;

/// An error during decision-graph construction or rate derivation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A path out of a decision node re-entered itself without passing a
    /// decision node: the system can loop forever with no branching, so
    /// steady-state rates are undefined (livelock from the decision
    /// graph's point of view).
    AbsorbingCycle {
        /// Index (in the TRG) of a state on the offending cycle.
        state: usize,
    },
    /// The reachability graph has no cycle at all (every run reaches a
    /// terminal state), so there is no steady state to analyse.
    NoCycle,
    /// The rate equations do not have a one-dimensional solution space:
    /// the decision graph has several closed classes (independent
    /// recurrent cycles), one solution dimension each.
    NotErgodic {
        /// Dimension of the solution space: the number of closed classes.
        kernel_dim: usize,
    },
    /// The reference edge for normalisation has rate zero.
    ZeroReferenceRate {
        /// The edge index that was requested as reference.
        edge: usize,
    },
    /// An edge index was out of range.
    NoSuchEdge {
        /// The offending index.
        edge: usize,
    },
    /// Total cycle weight is zero (a zero-time cycle), so time-based
    /// measures are undefined.
    ZeroCycleTime,
    /// Underlying linear-algebra failure.
    Linalg(LinalgError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::AbsorbingCycle { state } => write!(
                f,
                "state {state} lies on a cycle that passes no decision node; \
                 steady-state rates are undefined"
            ),
            CoreError::NoCycle => {
                write!(
                    f,
                    "the reachability graph is acyclic: no steady state exists"
                )
            }
            CoreError::NotErgodic { kernel_dim } => write!(
                f,
                "rate equations have a {kernel_dim}-dimensional solution space \
                 (expected 1: a single recurrent cycle)"
            ),
            CoreError::ZeroReferenceRate { edge } => {
                write!(f, "reference edge {edge} has zero traversal rate")
            }
            CoreError::NoSuchEdge { edge } => write!(f, "no decision-graph edge {edge}"),
            CoreError::ZeroCycleTime => write!(f, "total cycle time is zero"),
            CoreError::Linalg(e) => write!(f, "linear algebra: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> CoreError {
        CoreError::Linalg(e)
    }
}
