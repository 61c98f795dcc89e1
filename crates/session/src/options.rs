//! Session configuration.

use tpn_reach::TrgOptions;

/// Every knob of a [`Session`](crate::Session), with a builder API.
///
/// This replaces the per-call option structs the pipeline stages take
/// individually (`TrgOptions`, sweep thread counts, point caps): a
/// session is configured once and every artifact it materialises obeys
/// the same limits. All defaults match the standalone defaults, so a
/// default session computes byte-identical results to the manual
/// call chain.
///
/// ```
/// use tpn_session::SessionOptions;
///
/// let opts = SessionOptions::new()
///     .threads(8)        // sweep/compile evaluation fan-out
///     .max_states(50_000) // TRG exploration limit
///     .max_points(10_000);
/// assert_eq!(opts.threads_or_default(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOptions {
    max_states: usize,
    threads: usize,
    max_points: u64,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            max_states: TrgOptions::default().max_states,
            threads: 4,
            max_points: 1_000_000,
        }
    }
}

impl SessionOptions {
    /// The default configuration (identical to each stage's standalone
    /// defaults).
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Maximum number of TRG states to explore before the `trg` stage
    /// fails (default 100 000).
    pub fn max_states(mut self, n: usize) -> SessionOptions {
        self.max_states = n;
        self
    }

    /// Worker threads for compiled-expression evaluation (sweeps,
    /// optimizer seeding). Output is identical at any count.
    pub fn threads(mut self, n: usize) -> SessionOptions {
        self.threads = n;
        self
    }

    /// Maximum grid points a sweep through this session may evaluate.
    pub fn max_points(mut self, n: u64) -> SessionOptions {
        self.max_points = n;
        self
    }

    /// The configured TRG state limit.
    pub fn max_states_or_default(&self) -> usize {
        self.max_states
    }

    /// The configured evaluation thread count.
    pub fn threads_or_default(&self) -> usize {
        self.threads
    }

    /// The configured sweep point cap.
    pub fn max_points_or_default(&self) -> u64 {
        self.max_points
    }

    /// The `TrgOptions` this session hands to `build_trg`.
    pub fn trg_options(&self) -> TrgOptions {
        TrgOptions {
            max_states: self.max_states,
        }
    }
}
