//! Request kinds and their JSON renderings.
//!
//! [`run_with_session`] executes one analysis request against a
//! [`Session`] and renders the result as compact JSON. It is the
//! *only* producer of analysis JSON in the workspace: the HTTP
//! endpoints (legacy and `/v1`), `tpn batch` and the cache all go
//! through it, so a cached response is byte-identical to a freshly
//! computed one, and the CLI's JSON matches the server's. [`run`] is
//! the sessionless convenience wrapper (one-shot session, default
//! options).

use std::{fmt, mem};

use tpn_core::DecisionGraph;
use tpn_net::{invariant, PlaceId, TimedPetriNet, TransId};
use tpn_rational::Rational;
use tpn_reach::NumericDomain;
use tpn_session::{Session, SessionOptions};
use tpn_sim::{simulate, SimOptions};

use crate::json::JsonWriter;
use crate::metrics::{Endpoint, Route, ROUTES};

/// Default event budget for `simulate` when the request does not name
/// one. The `/simulate` row of [`ROUTES`] carries it to every surface
/// that names the kind, and `tpn simulate` uses it too.
pub const DEFAULT_SIM_EVENTS: u64 = 1_000_000;

/// Default PRNG seed for `simulate` (see [`DEFAULT_SIM_EVENTS`]).
pub const DEFAULT_SIM_SEED: u64 = 0x5EED;

/// The analysis a request asks for. Together with the net's content
/// digest this is the cache key: every variant (and every option value)
/// addresses a distinct result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Full pipeline: TRG → decision graph → rates → throughputs.
    Analyze,
    /// Timed reachability graph summary and state table.
    Graph,
    /// Deadlock/safeness/liveness/reversibility report.
    Correctness,
    /// P- and T-semiflows.
    Invariants,
    /// Monte-Carlo simulation with an explicit budget and seed (both are
    /// part of the cache key — runs are deterministic given the seed).
    Simulate {
        /// Maximum number of discrete events to process.
        events: u64,
        /// PRNG seed.
        seed: u64,
    },
    /// A compiled parameter sweep. The variant carries only the 128-bit
    /// [`spec_hash`](crate::sweep::spec_hash) of the canonical grid
    /// spec — enough to address the cache; the spec itself travels with
    /// the request and is handled by
    /// [`Service::respond_sweep`](crate::Service::respond_sweep), not
    /// by [`run`].
    Sweep {
        /// Fingerprint of the canonical spec rendering.
        spec: u128,
    },
    /// A parameter-synthesis request. Like [`RequestKind::Sweep`], the
    /// variant carries only the canonical spec's fingerprint; the spec
    /// travels with the request and is handled by
    /// [`Service::respond_optimize`](crate::Service::respond_optimize).
    Optimize {
        /// Fingerprint of the canonical spec rendering.
        spec: u128,
    },
    /// One perturbation entry of an incremental what-if batch. Unlike
    /// every other variant this one is keyed by the net's **structural**
    /// digest, not its full digest: `timing` pins the perturbed net's
    /// complete [`tpn_net::TimingAssignment`] and `spec` the analysis
    /// list, so any batch perturbing a structurally identical net to
    /// the same timing point shares the cache line. Handled by
    /// [`Service::respond_whatif`](crate::Service::respond_whatif).
    Whatif {
        /// [`tpn_net::TimingAssignment::hash`] of the perturbed net's
        /// total timing assignment.
        timing: u128,
        /// Fingerprint of the canonical analysis-list rendering.
        spec: u128,
    },
}

impl RequestKind {
    /// The plain analysis named `name`, at its defaults: the `kind` of
    /// its route in [`ROUTES`].
    pub fn named(name: &str) -> Option<RequestKind> {
        Route::labelled(name)?.kind
    }

    /// The endpoint serving this kind: a plain analysis's route in
    /// [`ROUTES`], or the endpoint taking a spec-carrying kind's spec.
    pub fn endpoint(self) -> Endpoint {
        let same = |k: RequestKind| mem::discriminant(&k) == mem::discriminant(&self);
        match self {
            RequestKind::Sweep { .. } => Endpoint::Sweep,
            RequestKind::Optimize { .. } => Endpoint::Optimize,
            RequestKind::Whatif { .. } => Endpoint::Whatif,
            _ => ROUTES
                .iter()
                .find(|r| r.kind.is_some_and(same))
                .map_or(Endpoint::Other, |r| r.endpoint),
        }
    }

    /// The kind's name on every surface: its endpoint's label.
    pub fn name(self) -> &'static str {
        self.endpoint().label()
    }

    /// The parameters this kind takes: simulate's event budget and
    /// seed; none for the other plain kinds.
    pub(crate) fn params(self) -> &'static [&'static str] {
        match self {
            RequestKind::Simulate { .. } => &["events", "seed"],
            _ => &[],
        }
    }

    /// This kind with each parameter `param` supplies by name (one it
    /// leaves out keeps its value here), or the 400 for a simulation
    /// over `max_sim_events`: one request may not pin a worker on an
    /// unbounded computation.
    pub(crate) fn with_params(
        self,
        max_sim_events: u64,
        mut param: impl FnMut(&str) -> Result<Option<u64>, ServiceError>,
    ) -> Result<RequestKind, ServiceError> {
        let RequestKind::Simulate { events, seed } = self else {
            return Ok(self);
        };
        let events = param("events")?.unwrap_or(events);
        let seed = param("seed")?.unwrap_or(seed);
        if events > max_sim_events {
            return Err(ServiceError::BadRequest(format!(
                "events {events} exceeds the limit {max_sim_events}"
            )));
        }
        Ok(RequestKind::Simulate { events, seed })
    }
}

/// Why a request could not be served.
///
/// Every variant carries a stable machine-readable [`code`] and an HTTP
/// [`status`](ServiceError::status); the full mapping (shared by every
/// endpoint and documented in the README):
///
/// | code | status | meaning |
/// |---|---|---|
/// | `parse` | 400 | the `.tpn` text does not parse |
/// | `bad_request` | 400 | malformed request: body, spec, query, route |
/// | `analysis` | 422 | the net parses but the analysis fails |
///
/// Legacy routes render errors as `{"error": "<code prefix>: <message>"}`
/// (pinned by golden captures); `/v1` and `/whatif` render the
/// structured `{"code": …, "message": …}` object.
///
/// [`code`]: ServiceError::code
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request body is not a valid `.tpn` document (HTTP 400).
    Parse(String),
    /// The net parsed but the analysis failed, e.g. no steady-state
    /// cycle for `analyze` (HTTP 422).
    Analysis(String),
    /// The request itself is malformed: bad query parameter, bad route,
    /// oversized or non-UTF-8 body (HTTP 400).
    BadRequest(String),
}

impl ServiceError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServiceError::Parse(_) | ServiceError::BadRequest(_) => 400,
            ServiceError::Analysis(_) => 422,
        }
    }

    /// The stable machine-readable error code (the `"code"` member of
    /// structured error bodies).
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Parse(_) => "parse",
            ServiceError::Analysis(_) => "analysis",
            ServiceError::BadRequest(_) => "bad_request",
        }
    }

    /// The bare human-readable message, without the legacy
    /// `Display` prefix (the `"message"` member of structured error
    /// bodies).
    pub fn message(&self) -> &str {
        match self {
            ServiceError::Parse(m) | ServiceError::Analysis(m) | ServiceError::BadRequest(m) => m,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Parse(m) => write!(f, "parse error: {m}"),
            ServiceError::Analysis(m) => write!(f, "analysis error: {m}"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Execute `kind` against a one-shot default-options [`Session`] over
/// `net`. Prefer [`run_with_session`] when serving several requests
/// for the same net — that is the whole point of sessions.
pub fn run(net: &TimedPetriNet, kind: RequestKind) -> Result<String, ServiceError> {
    run_with_session(&Session::new(net.clone(), SessionOptions::new()), kind)
}

/// Execute `kind` against `session` and render the result as one line
/// of compact JSON. Deterministic: identical nets (by content digest)
/// and identical request kinds produce byte-identical documents, which
/// is what makes the result cache safe — and the pipeline artifacts
/// (TRG, decision graph, rates) are demanded through the session, so
/// consecutive requests against the same net share one derivation.
pub fn run_with_session(session: &Session, kind: RequestKind) -> Result<String, ServiceError> {
    let _span = tpn_obs::trace::span("render");
    match kind {
        RequestKind::Analyze => analyze_json(session),
        RequestKind::Graph => graph_json(session),
        RequestKind::Correctness => correctness_json(session),
        RequestKind::Invariants => Ok(invariants_json(session)),
        RequestKind::Simulate { events, seed } => simulate_json(session, events, seed),
        // Sweeps and optimizations need their full spec, which only the
        // hash of travels in the kind; Service::respond_sweep and
        // Service::respond_optimize are the entry points.
        RequestKind::Sweep { .. } => Err(ServiceError::BadRequest(
            "sweep requests carry a grid spec; POST /sweep with a JSON body".to_string(),
        )),
        RequestKind::Optimize { .. } => Err(ServiceError::BadRequest(
            "optimize requests carry a spec; POST /optimize with a JSON body".to_string(),
        )),
        RequestKind::Whatif { .. } => Err(ServiceError::BadRequest(
            "whatif requests carry a perturbation spec; POST /whatif with a JSON body".to_string(),
        )),
    }
}

fn err(e: impl fmt::Display) -> ServiceError {
    ServiceError::Analysis(e.to_string())
}

/// Common document header: kind, net name, content digest.
fn header(w: &mut JsonWriter, session: &Session, endpoint: Endpoint) {
    w.begin_object();
    w.key("kind");
    w.string(endpoint.label());
    w.key("net");
    w.string(session.net().name());
    w.key("digest");
    w.display(session.digest());
}

/// An `/analyze` document's size at most, up to name escapes: its
/// fixed bytes, each edge and throughput entry with its names, and
/// every rational at its longest rendering. The writer allocates this
/// once; the cache trims a body to its length when it admits it.
fn analyze_capacity(session: &Session, dg: &DecisionGraph<NumericDomain>) -> usize {
    // A quoted rational: a sign, 39 + 39 digits and `/`.
    const RATIONAL: usize = 82;
    // `{"from":"s…","to":"s…",…,"fires":[]},` without its rationals.
    const EDGE: usize = 96 + 4 * RATIONAL;
    // `{"transition":"","exact":…,"approx":…},`: 6 decimals of a value
    // below 2¹²⁸ take at most 46 bytes.
    const THROUGHPUT: usize = 40 + RATIONAL + 46;
    // Header, counts and `total_weight`.
    const DOCUMENT: usize = 256 + RATIONAL;
    let net = session.net();
    let fired: usize = dg
        .edges()
        .iter()
        .flat_map(|e| dg.fired(e))
        .map(|&t| net.transition(t).name().len() + 3)
        .sum();
    let names: usize = net
        .transitions()
        .map(|t| net.transition(t).name().len())
        .sum();
    DOCUMENT
        + net.name().len()
        + dg.edges().len() * EDGE
        + fired
        + net.num_transitions() * THROUGHPUT
        + names
}

fn analyze_json(session: &Session) -> Result<String, ServiceError> {
    let net = session.net();
    let trg = session.trg().map_err(err)?;
    let dg = session.decision_graph().map_err(err)?;
    let perf = session.performance().map_err(err)?;

    let mut w = JsonWriter::with_capacity(analyze_capacity(session, &dg));
    header(&mut w, session, Endpoint::Analyze);
    w.key("states");
    w.uint(trg.num_states() as u64);
    w.key("decision_nodes");
    w.uint(dg.num_nodes() as u64);
    w.key("reference_edge");
    w.uint(0);
    w.key("edges");
    w.begin_array();
    for (i, e) in dg.edges().iter().enumerate() {
        w.begin_object();
        w.key("from");
        w.state_id(dg.nodes()[e.from]);
        w.key("to");
        w.state_id(dg.nodes()[e.to]);
        w.key("prob");
        w.rational(&e.prob);
        w.key("delay");
        w.rational(&e.delay);
        w.key("rate");
        w.rational(perf.rates().rate(i));
        w.key("weight");
        w.rational(&perf.weights()[i]);
        w.key("fires");
        w.begin_array();
        for t in dg.fired(e) {
            w.string(net.transition(*t).name());
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("total_weight");
    w.rational(perf.total_weight());
    w.key("throughput");
    w.begin_array();
    let throughputs = perf.throughputs(&dg);
    for t in net.transitions() {
        let th = throughputs
            .get(t.index())
            .copied()
            .unwrap_or(Rational::ZERO);
        w.begin_object();
        w.key("transition");
        w.string(net.transition(t).name());
        w.key("exact");
        w.rational(&th);
        w.key("approx");
        w.fixed(th.to_f64(), 6);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Ok(w.finish())
}

fn graph_json(session: &Session) -> Result<String, ServiceError> {
    let net = session.net();
    let trg = session.trg().map_err(err)?;
    let mut w = JsonWriter::new();
    header(&mut w, session, Endpoint::Graph);
    w.key("states");
    w.uint(trg.num_states() as u64);
    w.key("edges");
    w.uint(trg.num_edges() as u64);
    w.key("decision_states");
    w.begin_array();
    for s in trg.decision_states() {
        w.state_id(s);
    }
    w.end_array();
    w.key("terminal_states");
    w.begin_array();
    for s in trg.terminal_states() {
        w.state_id(s);
    }
    w.end_array();
    w.key("state_table");
    w.begin_array();
    for s in trg.state_ids() {
        w.string(
            &trg.state(s)
                .describe(|t| net.transition(t).name().to_string()),
        );
    }
    w.end_array();
    w.end_object();
    Ok(w.finish())
}

fn correctness_json(session: &Session) -> Result<String, ServiceError> {
    let net = session.net();
    let trg = session.trg().map_err(err)?;
    let report = tpn_reach::analyze(&trg, net);
    let mut w = JsonWriter::new();
    header(&mut w, session, Endpoint::Correctness);
    w.key("deadlock_free");
    w.bool(report.deadlocks.is_empty());
    w.key("deadlocks");
    w.begin_array();
    for &s in &report.deadlocks {
        w.state_id(s);
    }
    w.end_array();
    w.key("safe");
    w.bool(report.unsafe_states.is_empty());
    w.key("bound");
    w.uint(u64::from(report.bound));
    w.key("dead_transitions");
    w.begin_array();
    for t in &report.dead_transitions {
        w.string(net.transition(*t).name());
    }
    w.end_array();
    w.key("reversible");
    w.bool(report.reversible);
    w.key("correct");
    w.bool(report.is_correct());
    w.end_object();
    Ok(w.finish())
}

fn invariants_json(session: &Session) -> String {
    let net = session.net();
    let mut w = JsonWriter::new();
    header(&mut w, session, Endpoint::Invariants);
    w.key("p_semiflows");
    w.begin_array();
    for f in invariant::p_semiflows(net) {
        w.begin_object();
        w.key("weights");
        w.begin_object();
        for p in f.support() {
            w.key(net.place_name(PlaceId::from_index(p)));
            w.int(f.weights[p]);
        }
        w.end_object();
        w.key("conserved");
        w.int(invariant::conserved_quantity(net, &f));
        w.end_object();
    }
    w.end_array();
    w.key("t_semiflows");
    w.begin_array();
    for f in invariant::t_semiflows(net) {
        w.begin_object();
        w.key("weights");
        w.begin_object();
        for t in f.support() {
            w.key(net.transition(TransId::from_index(t)).name());
            w.int(f.weights[t]);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("structurally_bounded");
    w.bool(invariant::covered_by_p_semiflows(net));
    w.end_object();
    w.finish()
}

fn simulate_json(session: &Session, events: u64, seed: u64) -> Result<String, ServiceError> {
    let net = session.net();
    let stats = simulate(
        net,
        &SimOptions {
            seed,
            max_events: events,
            ..SimOptions::default()
        },
    )
    .map_err(err)?;
    let mut w = JsonWriter::new();
    header(&mut w, session, Endpoint::Simulate);
    w.key("events");
    w.uint(stats.events());
    w.key("seed");
    w.uint(seed);
    w.key("measured_time");
    w.rational(stats.measured_time());
    w.key("deadlocked");
    w.bool(stats.deadlocked());
    w.key("transitions");
    w.begin_array();
    for t in net.transitions() {
        w.begin_object();
        w.key("name");
        w.string(net.transition(t).name());
        w.key("started");
        w.uint(stats.firings(t));
        w.key("completed");
        w.uint(stats.completions(t));
        w.key("rate");
        w.fixed(stats.throughput(t), 6);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::parse_tpn;

    const CYCLE: &str = "net c\nplace a init 1\nplace b\n\
        trans go in a out b firing 2\ntrans back in b out a firing 3";

    #[test]
    fn analyze_renders_rates_and_throughput() {
        let net = parse_tpn(CYCLE).unwrap();
        let body = run(&net, RequestKind::Analyze).unwrap();
        assert!(
            body.starts_with(r#"{"kind":"analyze","net":"c","digest":""#),
            "{body}"
        );
        // one deterministic cycle: total weight 5, throughput 1/5
        assert!(body.contains(r#""total_weight":"5""#), "{body}");
        assert!(
            body.contains(r#""transition":"go","exact":"1/5","approx":0.200000"#),
            "{body}"
        );
    }

    #[test]
    fn graph_counts_states() {
        let net = parse_tpn(CYCLE).unwrap();
        let body = run(&net, RequestKind::Graph).unwrap();
        assert!(body.contains(r#""states":4"#), "{body}");
        assert!(body.contains(r#""decision_states":[]"#), "{body}");
    }

    #[test]
    fn correctness_verdict() {
        let net = parse_tpn(CYCLE).unwrap();
        let body = run(&net, RequestKind::Correctness).unwrap();
        assert!(body.contains(r#""correct":true"#), "{body}");
        let dead =
            parse_tpn("net d\nplace a init 1\nplace b\ntrans t in a out b firing 1").unwrap();
        let body = run(&dead, RequestKind::Correctness).unwrap();
        assert!(body.contains(r#""deadlock_free":false"#), "{body}");
    }

    #[test]
    fn invariants_lists_semiflows() {
        let net = parse_tpn(CYCLE).unwrap();
        let body = run(&net, RequestKind::Invariants).unwrap();
        assert!(
            body.contains(r#""p_semiflows":[{"weights":{"a":1,"b":1},"conserved":1}]"#),
            "{body}"
        );
        assert!(body.contains(r#""structurally_bounded":true"#), "{body}");
    }

    #[test]
    fn simulate_is_deterministic_per_seed() {
        let net = parse_tpn(CYCLE).unwrap();
        let kind = RequestKind::Simulate {
            events: 500,
            seed: 7,
        };
        let a = run(&net, kind).unwrap();
        let b = run(&net, kind).unwrap();
        assert_eq!(a, b);
        assert!(a.contains(r#""seed":7"#), "{a}");
        let c = run(
            &net,
            RequestKind::Simulate {
                events: 500,
                seed: 8,
            },
        )
        .unwrap();
        assert_ne!(a, c, "different seed, different trajectory counters");
    }

    #[test]
    fn analysis_errors_are_reported() {
        // a net that deadlocks has no steady-state cycle to analyze
        let net = parse_tpn("net d\nplace a init 1\nplace b\ntrans t in a out b firing 1").unwrap();
        let e = run(&net, RequestKind::Analyze).unwrap_err();
        assert_eq!(e.status(), 422);
        assert!(e.to_string().contains("analysis error"), "{e}");
    }
}
