//! `tpn-session` — the memoized typed-artifact pipeline.
//!
//! The paper's workflow is a fixed derivation chain — net → timed
//! reachability graph → decision graph → traversal rates → performance
//! expressions, and, for parametrised nets, → lifted domain → compiled
//! program. Every consumer of the workspace (library callers, the
//! analysis daemon, the CLI) walks some prefix of that chain, and
//! before this crate each of them re-derived it from scratch per call.
//!
//! A [`Session`] is a thread-safe handle over one [`TimedPetriNet`]
//! that computes each stage **lazily**, **at most once**, and shares
//! the result as an [`Arc`] with every caller:
//!
//! | accessor | artifact |
//! |---|---|
//! | [`Session::trg`] | numeric timed reachability graph |
//! | [`Session::decision_graph`] | collapsed decision graph |
//! | [`Session::rates`] | solved traversal rates |
//! | [`Session::performance`] | assembled performance measures |
//! | [`Session::lifted`] | symbolic lift (per swept-symbol list) |
//! | [`Session::compiled`] | compiled expression program (per request shape) |
//!
//! Under concurrent demand exactly one thread builds a vacant
//! artifact; the others block on the build and receive the same `Arc`.
//! Failures are memoized too: a net whose TRG construction fails keeps
//! failing cheaply instead of re-exploring the state space per request.
//! Per-stage hit/miss/build counters ([`StageCounters`]) make the
//! sharing observable — they feed the daemon's `/stats` endpoint.
//!
//! # Quickstart
//!
//! ```
//! use tpn_session::{Session, SessionOptions};
//!
//! let net = tpn_net::parse_tpn(
//!     "net c\nplace a init 1\nplace b\n\
//!      trans go in a out b firing 2\ntrans back in b out a firing 3",
//! )
//! .unwrap();
//! let session = Session::new(net, SessionOptions::new());
//!
//! // The full chain, each stage computed once and shared:
//! let perf = session.performance().unwrap();
//! let dg = session.decision_graph().unwrap();
//! let go = session.net().transition_by_name("go").unwrap();
//! assert_eq!(perf.throughput(&dg, go).to_string(), "1/5");
//!
//! // A second demand is a cache hit on the same Arc.
//! assert!(std::sync::Arc::ptr_eq(&perf, &session.performance().unwrap()));
//! ```

mod error;
mod options;
mod stats;

pub use error::SessionError;
pub use options::SessionOptions;
pub use stats::{Stage, StageCounters, StageSnapshot, STAGES};

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use tpn_core::{solve_rates, DecisionGraph, ExprTarget, Performance, Rates};
use tpn_eval::Compiled;
use tpn_net::{NetDigest, TimedPetriNet};
use tpn_rational::Rational;
use tpn_reach::{build_trg, LiftedDomain, NumericDomain, TimedReachabilityGraph};
use tpn_symbolic::{RatFn, Symbol};

/// One memoized artifact slot: `OnceLock` gives once-only
/// initialisation with blocking followers, and the stored `Result`
/// memoizes failures alongside successes.
type Cell<T> = OnceLock<Result<Arc<T>, SessionError>>;

/// The lifted derivation chain for one swept-symbol list: domain (with
/// its recorded validity region), TRG, decision graph and performance
/// measures, all over [`LiftedDomain`].
#[derive(Debug)]
pub struct LiftedArtifacts {
    /// The swept symbols, in the order the artifact was demanded with.
    pub swept: Vec<Symbol>,
    /// The lifted domain; holds the base point and validity region.
    pub domain: LiftedDomain,
    /// The symbolic timed reachability graph.
    pub trg: TimedReachabilityGraph<LiftedDomain>,
    /// The collapsed decision graph.
    pub dg: DecisionGraph<LiftedDomain>,
    /// Performance measures with symbolic closed forms.
    pub perf: Performance<LiftedDomain>,
}

/// A compiled expression program for one request shape: the exported
/// closed forms of `targets` in the lifted domain of `swept`, compiled
/// to a shared-subexpression bytecode program (with partial derivatives
/// when `derivatives` was requested).
#[derive(Debug)]
pub struct CompiledArtifacts {
    /// The swept symbols, in demand order.
    pub swept: Vec<Symbol>,
    /// The exported targets, in demand (column) order.
    pub targets: Vec<ExprTarget>,
    /// The lifted chain the exprs were exported from — retained here
    /// so consumers of a compiled hit (which need the validity region
    /// alongside the program) never re-demand the lift, even after the
    /// lifted shape map evicted it.
    pub lifted: Arc<LiftedArtifacts>,
    /// The exported closed forms, one per target.
    pub exprs: Vec<RatFn>,
    /// The compiled program over `exprs`.
    pub program: Compiled,
    /// Whether `program` also evaluates `∂expr/∂symbol` outputs.
    pub derivatives: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CompiledKey {
    swept: Vec<Symbol>,
    targets: Vec<ExprTarget>,
    derivatives: bool,
}

/// Most distinct lifted (swept-symbol-list) artifacts one session
/// retains; the least-recently-demanded shape is dropped beyond this.
/// Keys are demand-order-sensitive and client-chosen, so without a cap
/// a request stream cycling over axis subsets would grow a long-lived
/// session without bound.
const MAX_LIFTED_SHAPES: usize = 32;

/// Most distinct compiled `(swept, targets, derivatives)` shapes one
/// session retains (see [`MAX_LIFTED_SHAPES`]).
const MAX_COMPILED_SHAPES: usize = 64;

/// A bounded keyed cell store: least-recently-demanded shapes are
/// evicted beyond `cap`. Eviction only drops the *map's* handle —
/// in-flight holders keep their `Arc`, and a re-demand of an evicted
/// shape simply rebuilds (counted as a fresh miss + build).
struct ShapeMap<K, T> {
    map: HashMap<K, (Arc<Cell<T>>, u64)>,
    clock: u64,
    cap: usize,
}

impl<K: Clone + Eq + std::hash::Hash, T> ShapeMap<K, T> {
    fn new(cap: usize) -> ShapeMap<K, T> {
        ShapeMap {
            map: HashMap::new(),
            clock: 0,
            cap,
        }
    }

    /// The cell for `key`, created (and LRU-evicting) as needed.
    fn cell(&mut self, key: &K) -> Arc<Cell<T>> {
        self.clock += 1;
        let tick = self.clock;
        if let Some((cell, used)) = self.map.get_mut(key) {
            *used = tick;
            return Arc::clone(cell);
        }
        let cell: Arc<Cell<T>> = Arc::new(OnceLock::new());
        self.map.insert(key.clone(), (Arc::clone(&cell), tick));
        while self.map.len() > self.cap {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            self.map.remove(&victim);
        }
        cell
    }
}

/// A thread-safe, memoizing handle over one net's derivation chain.
/// See the [crate docs](crate) for the artifact table and sharing
/// semantics. Cheap to share: wrap it in an [`Arc`] and hand clones to
/// every consumer of the same net.
pub struct Session {
    net: Arc<TimedPetriNet>,
    /// `net.digest()`, computed at most once per session (or seeded by
    /// a caller that already knows it, see [`Session::with_digest`]).
    digest: OnceLock<NetDigest>,
    options: SessionOptions,
    counters: Arc<StageCounters>,
    domain: NumericDomain,
    trg: Cell<TimedReachabilityGraph<NumericDomain>>,
    dg: Cell<DecisionGraph<NumericDomain>>,
    rates: Cell<Rates<Rational>>,
    perf: Cell<Performance<NumericDomain>>,
    lifted: Mutex<ShapeMap<Vec<Symbol>, LiftedArtifacts>>,
    compiled: Mutex<ShapeMap<CompiledKey, CompiledArtifacts>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("net", &self.net.name())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// The shared demand protocol: hit if the cell is already resolved,
/// otherwise miss and race to build — `OnceLock` guarantees exactly
/// one `build` run; losers block and clone the winner's result. The
/// winning build is timed into the stage's duration histogram and, if
/// the demanding thread is tracing its request, recorded as a span
/// named after the stage.
fn demand<T>(
    counters: &StageCounters,
    stage: Stage,
    cell: &Cell<T>,
    build: impl FnOnce() -> Result<T, SessionError>,
) -> Result<Arc<T>, SessionError> {
    if let Some(resolved) = cell.get() {
        counters.hit(stage);
        return resolved.clone();
    }
    counters.miss(stage);
    cell.get_or_init(|| {
        let _span = tpn_obs::trace::span(stage.name());
        let start = std::time::Instant::now();
        let built = build().map(Arc::new);
        counters.build_timed(stage, start.elapsed());
        built
    })
    .clone()
}

impl Session {
    /// A fresh session over `net` with its own counters.
    pub fn new(net: TimedPetriNet, options: SessionOptions) -> Session {
        Session::with_counters(net, options, Arc::new(StageCounters::new()))
    }

    /// A fresh session whose stage counters are shared with the caller
    /// — the daemon passes one `StageCounters` to every session it
    /// creates so `/stats` aggregates artifact effectiveness
    /// service-wide.
    pub fn with_counters(
        net: TimedPetriNet,
        options: SessionOptions,
        counters: Arc<StageCounters>,
    ) -> Session {
        Session {
            net: Arc::new(net),
            digest: OnceLock::new(),
            options,
            counters,
            domain: NumericDomain::new(),
            trg: OnceLock::new(),
            dg: OnceLock::new(),
            rates: OnceLock::new(),
            perf: OnceLock::new(),
            lifted: Mutex::new(ShapeMap::new(MAX_LIFTED_SHAPES)),
            compiled: Mutex::new(ShapeMap::new(MAX_COMPILED_SHAPES)),
        }
    }

    /// The net this session derives from.
    pub fn net(&self) -> &TimedPetriNet {
        &self.net
    }

    /// The net's content digest, [`TimedPetriNet::digest`], memoized:
    /// every consumer that keys or renders by digest reads this instead
    /// of re-hashing the net.
    pub fn digest(&self) -> NetDigest {
        *self.digest.get_or_init(|| self.net.digest())
    }

    /// Seed the memoized [`Session::digest`] with a digest the caller
    /// has already computed for this session's net (the daemon's
    /// session cache is keyed by it), so the session never hashes the
    /// net again.
    pub fn with_digest(self, digest: NetDigest) -> Session {
        debug_assert_eq!(digest, self.net.digest(), "seeded digest must be the net's");
        let _ = self.digest.set(digest);
        self
    }

    /// The net as a shareable handle.
    pub fn net_arc(&self) -> Arc<TimedPetriNet> {
        Arc::clone(&self.net)
    }

    /// The configuration every artifact of this session obeys.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The stage counters (shared if the session was created with
    /// [`Session::with_counters`]).
    pub fn counters(&self) -> &Arc<StageCounters> {
        &self.counters
    }

    /// One stage's counter snapshot.
    pub fn stage_stats(&self, stage: Stage) -> StageSnapshot {
        self.counters.snapshot(stage)
    }

    /// The numeric timed reachability graph (paper §2), built once.
    pub fn trg(&self) -> Result<Arc<TimedReachabilityGraph<NumericDomain>>, SessionError> {
        demand(&self.counters, Stage::Trg, &self.trg, || {
            build_trg(&self.net, &self.domain, &self.options.trg_options())
                .map_err(|e| SessionError::new(Stage::Trg, e))
        })
    }

    /// The decision graph collapsed from [`Session::trg`].
    pub fn decision_graph(&self) -> Result<Arc<DecisionGraph<NumericDomain>>, SessionError> {
        demand(&self.counters, Stage::DecisionGraph, &self.dg, || {
            let trg = self.trg()?;
            DecisionGraph::from_trg(&trg, &self.domain)
                .map_err(|e| SessionError::new(Stage::DecisionGraph, e))
        })
    }

    /// The traversal rates of [`Session::decision_graph`], normalised
    /// against reference edge 0.
    pub fn rates(&self) -> Result<Arc<Rates<Rational>>, SessionError> {
        demand(&self.counters, Stage::Rates, &self.rates, || {
            let dg = self.decision_graph()?;
            solve_rates(&dg, 0).map_err(|e| SessionError::new(Stage::Rates, e))
        })
    }

    /// The assembled performance measures (throughput, utilisation,
    /// cycle time) over [`Session::rates`].
    pub fn performance(&self) -> Result<Arc<Performance<NumericDomain>>, SessionError> {
        demand(&self.counters, Stage::Performance, &self.perf, || {
            let dg = self.decision_graph()?;
            let rates = self.rates()?;
            Performance::new(&dg, (*rates).clone(), &self.domain)
                .map_err(|e| SessionError::new(Stage::Performance, e))
        })
    }

    /// The lifted derivation chain for `swept`: the named attributes
    /// become symbols, comparisons are frozen at the net's base point,
    /// and the TRG/decision-graph/rates/performance chain is re-derived
    /// symbolically — once per distinct `swept` list, shared by every
    /// sweep and optimize request over it.
    pub fn lifted(&self, swept: &[Symbol]) -> Result<Arc<LiftedArtifacts>, SessionError> {
        let cell = self
            .lifted
            .lock()
            .expect("lifted map lock")
            .cell(&swept.to_vec());
        demand(&self.counters, Stage::Lifted, &cell, || {
            self.build_lifted(swept)
        })
    }

    fn build_lifted(&self, swept: &[Symbol]) -> Result<LiftedArtifacts, SessionError> {
        let err = |e: &dyn std::fmt::Display| SessionError::new(Stage::Lifted, e);
        let domain = LiftedDomain::new(&self.net, swept).map_err(|e| err(&e))?;
        let trg =
            build_trg(&self.net, &domain, &self.options.trg_options()).map_err(|e| err(&e))?;
        let dg = DecisionGraph::from_trg(&trg, &domain).map_err(|e| err(&e))?;
        let rates = solve_rates(&dg, 0).map_err(|e| err(&e))?;
        let perf = Performance::new(&dg, rates, &domain).map_err(|e| err(&e))?;
        Ok(LiftedArtifacts {
            swept: swept.to_vec(),
            domain,
            trg,
            dg,
            perf,
        })
    }

    /// The compiled program for `(swept, targets)`: exports each
    /// target's closed form from [`Session::lifted`] and compiles them
    /// into one shared-subexpression program (with partial derivatives
    /// with respect to every swept symbol when `derivatives` is set).
    /// Memoized per request shape; a `/sweep` and an `/optimize` naming
    /// the same targets share both the lift and the program.
    pub fn compiled(
        &self,
        swept: &[Symbol],
        targets: &[ExprTarget],
        derivatives: bool,
    ) -> Result<Arc<CompiledArtifacts>, SessionError> {
        let key = CompiledKey {
            swept: swept.to_vec(),
            targets: targets.to_vec(),
            derivatives,
        };
        let cell = self.compiled.lock().expect("compiled map lock").cell(&key);
        demand(&self.counters, Stage::Compiled, &cell, || {
            let lifted = self.lifted(swept)?;
            let exprs: Vec<RatFn> = targets
                .iter()
                .map(|&t| {
                    lifted
                        .perf
                        .export_expr(&lifted.dg, &lifted.trg, &lifted.domain, t)
                })
                .collect();
            let program = if derivatives {
                Compiled::compile_with_derivatives(&exprs, swept)
            } else {
                Compiled::compile(&exprs)
            };
            Ok(CompiledArtifacts {
                swept: swept.to_vec(),
                targets: targets.to_vec(),
                lifted,
                exprs,
                program,
                derivatives,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::parse_tpn;

    const CYCLE: &str = "net c\nplace a init 1\nplace b\n\
        trans go in a out b firing 2\ntrans back in b out a firing 3";

    fn session() -> Session {
        Session::new(parse_tpn(CYCLE).unwrap(), SessionOptions::new())
    }

    #[test]
    fn stages_build_once_and_share_arcs() {
        let s = session();
        let trg1 = s.trg().unwrap();
        let trg2 = s.trg().unwrap();
        assert!(Arc::ptr_eq(&trg1, &trg2));
        let snap = s.stage_stats(Stage::Trg);
        assert_eq!((snap.hits, snap.misses, snap.builds), (1, 1, 1));
        // performance demands the whole chain exactly once
        let perf = s.performance().unwrap();
        let dg = s.decision_graph().unwrap();
        let go = s.net().transition_by_name("go").unwrap();
        assert_eq!(perf.throughput(&dg, go).to_string(), "1/5");
        for stage in [Stage::DecisionGraph, Stage::Rates, Stage::Performance] {
            assert_eq!(s.stage_stats(stage).builds, 1, "{stage:?}");
        }
        // the TRG was never rebuilt for the downstream stages
        assert_eq!(s.stage_stats(Stage::Trg).builds, 1);
    }

    #[test]
    fn failures_are_memoized() {
        let dead =
            parse_tpn("net d\nplace a init 1\nplace b\ntrans t in a out b firing 1").unwrap();
        let s = Session::new(dead, SessionOptions::new());
        let e1 = s.rates().unwrap_err();
        let e2 = s.rates().unwrap_err();
        assert_eq!(e1, e2);
        // the chain fails where the acyclicity is discovered
        assert_eq!(e1.stage(), Stage::DecisionGraph);
        // the failed solve ran once; the second demand was a hit
        let snap = s.stage_stats(Stage::Rates);
        assert_eq!((snap.hits, snap.builds), (1, 1));
    }

    #[test]
    fn lifted_and_compiled_memoize_per_shape() {
        let s = session();
        let sym = tpn_net::symbols::firing("go");
        let l1 = s.lifted(&[sym]).unwrap();
        let l2 = s.lifted(&[sym]).unwrap();
        assert!(Arc::ptr_eq(&l1, &l2));
        assert_eq!(s.stage_stats(Stage::Lifted).builds, 1);
        let go = s.net().transition_by_name("go").unwrap();
        let t = ExprTarget::Throughput(go);
        let c1 = s.compiled(&[sym], &[t], false).unwrap();
        let c2 = s.compiled(&[sym], &[t], false).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2));
        // derivatives are a distinct shape
        let c3 = s.compiled(&[sym], &[t], true).unwrap();
        assert!(!Arc::ptr_eq(&c1, &c3));
        let snap = s.stage_stats(Stage::Compiled);
        assert_eq!((snap.hits, snap.builds), (1, 2));
        // both shapes shared the one lift
        assert_eq!(s.stage_stats(Stage::Lifted).builds, 1);
    }

    #[test]
    fn shape_maps_evict_least_recently_demanded_beyond_cap() {
        let mut m: ShapeMap<u32, u32> = ShapeMap::new(2);
        let kept = m.cell(&1);
        let _ = m.cell(&2);
        let _ = m.cell(&1); // touch 1 → 2 becomes the LRU victim
        let _ = m.cell(&3); // over cap: evicts 2
        assert_eq!(m.map.len(), 2);
        assert!(m.map.contains_key(&1) && m.map.contains_key(&3));
        // the evicted shape's in-flight holders keep their Arc; a fresh
        // demand of the evicted key gets a new, unresolved cell
        assert!(m.cell(&2).get().is_none());
        drop(kept);
    }

    #[test]
    fn digest_is_memoized_or_seeded() {
        let s = session();
        let digest = s.net().digest();
        assert_eq!(s.digest(), digest);
        assert_eq!(s.digest(), digest);
        let seeded = Session::new(s.net().clone(), SessionOptions::new()).with_digest(digest);
        assert_eq!(seeded.digest.get(), Some(&digest));
        assert_eq!(seeded.digest(), digest);
    }

    #[test]
    fn options_flow_into_the_trg_build() {
        let net = parse_tpn(CYCLE).unwrap();
        let s = Session::new(net, SessionOptions::new().max_states(1));
        let e = s.trg().unwrap_err();
        assert_eq!(e.stage(), Stage::Trg);
        assert!(e.to_string().contains("exceeded 1 states"), "{e}");
    }
}
