//! Service-level observability: per-endpoint request metrics, the
//! Prometheus `GET /metrics` document, and the `/debug/requests`
//! trace ring.
//!
//! [`ServiceMetrics`] is the recording half: a fixed
//! `endpoint × status` matrix of relaxed counters, one
//! [`Histogram`] of request durations per endpoint, and a bounded
//! ring of the most recent requests' span traces. Everything on the
//! record path is lock-free except the trace ring push (a short
//! `Mutex`'d `VecDeque` rotation), and the whole layer collapses to a
//! no-op when the service is configured with `metrics: false` — the
//! comparison arm of the overhead bench.
//!
//! `render` (crate-private) is the reading half: it assembles the whole exposition
//! document in one fixed order (build info, uptime, request counters,
//! request-duration histograms, per-stage build histograms, then
//! every `/stats` counter as a `tpn_*` family), so a fixed counter
//! state renders byte-identically and the output is checkable by
//! `tpn_obs::validate`.
//!
//! `COUNTERS` is the registry of monotone service counters: one row
//! per counter with its name (the `/stats` key and retention-ring
//! column), `tpn_*_total` family, HELP text and source (a service-owned atomic,
//! or a body or session counter of the cache). `/stats`, `/metrics` and the
//! ring schema and frames all iterate it. Adding a service-owned
//! counter takes a `Counter` variant, one row, and its increment site
//! (`Service::bump`).
//!
//! [`ROUTES`] is the same for routes: one row per [`Endpoint`] with its
//! method, path and label, and the [`RequestKind`] of a plain analysis.
//! Dispatch, the 404/405 split, the metric labels and every parser of
//! a kind name read it. Adding a route takes an `Endpoint` variant, one
//! row, and its handler in `http::route`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tpn_obs::hist::{Histogram, HistogramSnapshot};
use tpn_obs::trace::Span;
use tpn_obs::Renderer;
use tpn_session::{StageCounters, STAGES};

use crate::analysis::{RequestKind, DEFAULT_SIM_EVENTS, DEFAULT_SIM_SEED};
use crate::cache::CacheStats;
use crate::json::JsonWriter;

/// Every request surface the service distinguishes in its metrics: one
/// variant per row of [`ROUTES`], in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    Analyze,
    Graph,
    Correctness,
    Invariants,
    Simulate,
    Sweep,
    Optimize,
    Whatif,
    /// The envelope itself, not its sub-requests: those are answered
    /// through the same cached paths but belong to the envelope's trace.
    V1,
    Healthz,
    Stats,
    Metrics,
    DebugRequests,
    MetricsHistory,
    Slo,
    DebugSlow,
    Alerts,
    AlertsSilence,
    /// Anything else: unknown paths (404) and disallowed methods (405).
    Other,
}

/// One row of [`ROUTES`]: an endpoint, the request line that reaches
/// it, and its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The endpoint the route's requests are counted under.
    pub endpoint: Endpoint,
    /// The one method the route answers; any other is a 405.
    pub method: &'static str,
    /// The request path, without its query.
    pub path: &'static str,
    /// The stable `endpoint` label value (metrics, the retention ring,
    /// SLO and alert configs). A plain analysis's label is also its
    /// kind name everywhere: the `"kind"` of its bodies, a `/v1` entry's
    /// `kind`, a what-if request and a `tpn batch` KIND.
    pub label: &'static str,
    /// The plain analysis the route serves (a `.tpn` body, no spec),
    /// with simulate's default events and seed.
    pub kind: Option<RequestKind>,
}

const fn route(
    endpoint: Endpoint,
    method: &'static str,
    path: &'static str,
    label: &'static str,
) -> Route {
    Route {
        endpoint,
        method,
        path,
        label,
        kind: None,
    }
}

const fn plain(
    endpoint: Endpoint,
    path: &'static str,
    label: &'static str,
    kind: RequestKind,
) -> Route {
    Route {
        kind: Some(kind),
        ..route(endpoint, "POST", path, label)
    }
}

/// The route table: every endpoint, in the fixed order `/metrics`
/// renders and the retention ring's columns follow. Dispatch, the
/// 404/405 split, the labels and every kind parser derive from it.
#[rustfmt::skip]
pub static ROUTES: [Route; 19] = [
    plain(Endpoint::Analyze, "/analyze", "analyze", RequestKind::Analyze),
    plain(Endpoint::Graph, "/graph", "graph", RequestKind::Graph),
    plain(Endpoint::Correctness, "/correctness", "correctness", RequestKind::Correctness),
    plain(Endpoint::Invariants, "/invariants", "invariants", RequestKind::Invariants),
    plain(Endpoint::Simulate, "/simulate", "simulate", RequestKind::Simulate {
        events: DEFAULT_SIM_EVENTS,
        seed: DEFAULT_SIM_SEED,
    }),
    route(Endpoint::Sweep, "POST", "/sweep", "sweep"),
    route(Endpoint::Optimize, "POST", "/optimize", "optimize"),
    route(Endpoint::Whatif, "POST", "/whatif", "whatif"),
    route(Endpoint::V1, "POST", "/v1", "v1"),
    route(Endpoint::Healthz, "GET", "/healthz", "healthz"),
    route(Endpoint::Stats, "GET", "/stats", "stats"),
    route(Endpoint::Metrics, "GET", "/metrics", "metrics"),
    route(Endpoint::DebugRequests, "GET", "/debug/requests", "debug_requests"),
    route(Endpoint::MetricsHistory, "GET", "/metrics/history", "metrics_history"),
    route(Endpoint::Slo, "GET", "/slo", "slo"),
    route(Endpoint::DebugSlow, "GET", "/debug/slow", "debug_slow"),
    route(Endpoint::Alerts, "GET", "/alerts", "alerts"),
    route(Endpoint::AlertsSilence, "POST", "/alerts/silence", "alerts_silence"),
    // No request line reaches this row: it counts the requests no row
    // above matches.
    route(Endpoint::Other, "", "", "other"),
];

impl Route {
    /// The route at `path`, whatever the method; `None` is a 404.
    pub fn at(path: &str) -> Option<&'static Route> {
        ROUTES[..Endpoint::Other.index()]
            .iter()
            .find(|r| r.path == path)
    }

    /// The route labelled `label`.
    pub fn labelled(label: &str) -> Option<&'static Route> {
        ROUTES.iter().find(|r| r.label == label)
    }
}

impl Endpoint {
    /// This endpoint's row of [`ROUTES`].
    pub fn route(self) -> &'static Route {
        &ROUTES[self.index()]
    }

    /// The stable `endpoint` label value.
    pub fn label(self) -> &'static str {
        self.route().label
    }

    pub(crate) fn index(self) -> usize {
        // Discriminant order matches [`ROUTES`] (pinned by a test
        // below), so the hot path's slot lookup is a plain cast
        // instead of a scan.
        self as usize
    }
}

/// The status codes the server emits, each its own label value; any
/// other code falls into the trailing "other" slot.
const STATUSES: [u16; 8] = [200, 400, 404, 405, 413, 422, 501, 503];

fn status_index(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUSES.len())
}

fn status_label(index: usize) -> &'static str {
    match index {
        0 => "200",
        1 => "400",
        2 => "404",
        3 => "405",
        4 => "413",
        5 => "422",
        6 => "501",
        7 => "503",
        _ => "other",
    }
}

/// Completed requests the `/debug/requests` ring retains.
pub const TRACE_RING_CAP: usize = 256;

/// One completed request's trace: outcome plus the span tree its
/// worker collected (preorder; `depth` reproduces the nesting). The
/// root span is implicit — the header fields *are* its measurement —
/// so `spans` holds only depth ≥ 2 and renderers synthesize the root
/// line.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The serving endpoint's label value.
    pub endpoint: &'static str,
    /// The HTTP status returned.
    pub status: u16,
    /// Completion time as a raw [`tpn_obs::clock::now_ns`] reading;
    /// converted to Unix milliseconds at render time (the hot path
    /// stores the reading it already has and never touches the Unix
    /// base).
    pub end_ns: u64,
    /// Total request duration in nanoseconds.
    pub duration_ns: u64,
    /// Content digest of the net the request resolved, when one was —
    /// the handle that reproduces the request against `/v1` or the
    /// CLI. The two `NetDigest` words packed big-endian; rendered as
    /// 32 hex digits at exposition time (the hot path never formats).
    pub digest: Option<u128>,
    /// Spec hash of the request's sweep/optimize/whatif spec, when
    /// the request carried one. Rendered as 32 hex digits.
    pub spec: Option<u128>,
    /// The collected spans, preorder, excluding the implicit root.
    pub spans: Vec<Span>,
}

/// Completed slow requests the `/debug/slow` ring retains.
pub const SLOW_RING_CAP: usize = 64;

/// One watchdog capture: a request that exceeded its endpoint's SLO
/// latency objective, with the objective it breached.
#[derive(Debug, Clone)]
pub struct SlowTrace {
    /// The captured request trace.
    pub trace: RequestTrace,
    /// The latency objective the request exceeded, nanoseconds.
    pub threshold_ns: u64,
}

/// The trace-collector annotation slot holding the net digest.
pub(crate) const ANNOTATE_DIGEST: usize = 0;
/// The trace-collector annotation slot holding the spec hash.
pub(crate) const ANNOTATE_SPEC: usize = 1;

/// Record the net digest the current request resolved. Rides the
/// trace collector's annotation slots (no-op when no collection is
/// active; first writer wins — a `/whatif` batch resolves many
/// inner digests, but the request is about the base net it started
/// from): one thread-local access, no allocation or formatting.
pub(crate) fn annotate_digest(digest: [u64; 2]) {
    tpn_obs::trace::annotate(
        ANNOTATE_DIGEST,
        (u128::from(digest[0]) << 64) | u128::from(digest[1]),
    );
}

/// Record the spec hash the current request carried. Same slot
/// semantics as [`annotate_digest`].
pub(crate) fn annotate_spec(spec: u128) {
    tpn_obs::trace::annotate(ANNOTATE_SPEC, spec);
}

/// The recording half of service observability. One instance per
/// [`Service`](crate::Service), shared by all workers.
#[derive(Debug)]
pub struct ServiceMetrics {
    enabled: bool,
    /// `requests[endpoint][status-slot]`, relaxed.
    requests: [[AtomicU64; STATUSES.len() + 1]; ROUTES.len()],
    /// Request-duration histogram per endpoint.
    durations: [Histogram; ROUTES.len()],
    /// Most recent completed request traces, oldest first.
    traces: Mutex<VecDeque<RequestTrace>>,
    /// Most recent objective-breaching request traces, oldest first —
    /// the watchdog's evidence ring, separate from `traces` so a burst
    /// of fast requests cannot evict the slow outliers.
    slow: Mutex<VecDeque<SlowTrace>>,
}

impl ServiceMetrics {
    /// A fresh all-zero recorder. With `enabled` false every recording
    /// entry point is skipped at the call site — the no-op
    /// configuration the overhead bench compares against.
    pub fn new(enabled: bool) -> ServiceMetrics {
        ServiceMetrics {
            enabled,
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            durations: std::array::from_fn(|_| Histogram::new()),
            traces: Mutex::new(VecDeque::with_capacity(TRACE_RING_CAP)),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether recording (and tracing, and request logging) is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Count one served request and record its duration.
    pub(crate) fn record(&self, endpoint: Endpoint, status: u16, duration_ns: u64) {
        let e = endpoint.index();
        // The 200 slot is implicit: every request lands in the
        // endpoint's duration histogram, so successes are derived at
        // read time ([`requests_in_slot`]) as histogram count minus
        // the explicit non-200 slots — one less atomic RMW on the
        // (overwhelmingly 200) hot path. The histogram is bumped
        // before the slot so a racing reader can only momentarily
        // over-count successes, never push the subtraction negative.
        self.durations[e].record_ns(duration_ns);
        let slot = status_index(status);
        if slot != 0 {
            self.requests[e][slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests counted for one `(endpoint, status-slot)` pair; the
    /// 200 slot (index 0) is derived, see [`record`](Self::record).
    fn requests_in_slot(&self, e: usize, slot: usize) -> u64 {
        if slot == 0 {
            let non_200: u64 = self.requests[e][1..]
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .sum();
            self.durations[e].snapshot().count().saturating_sub(non_200)
        } else {
            self.requests[e][slot].load(Ordering::Relaxed)
        }
    }

    /// Push one completed trace, evicting the oldest past the cap.
    /// `header` carries everything but the spans (its `spans` must be
    /// empty — `Vec::new()`, no allocation), which are **copied** from
    /// the borrowed slice into the evicted entry's buffer. Once the
    /// ring is full no allocation happens here: the span storage is a
    /// stable set of ring-resident buffers, and the collector keeps
    /// its own (see [`tpn_obs::trace::end_with`]).
    pub(crate) fn push_trace_copying(&self, mut header: RequestTrace, spans: &[Span]) {
        debug_assert!(header.spans.is_empty());
        let mut ring = self.traces.lock().expect("trace ring lock");
        if ring.len() == TRACE_RING_CAP {
            if let Some(evicted) = ring.pop_front() {
                header.spans = evicted.spans;
                header.spans.clear();
            }
        }
        header.spans.extend_from_slice(spans);
        ring.push_back(header);
    }

    /// The `n` most recent completed traces, most recent first.
    pub fn recent_traces(&self, n: usize) -> Vec<RequestTrace> {
        let ring = self.traces.lock().expect("trace ring lock");
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Capture one objective-breaching request into the slow ring. The
    /// trace is a clone (the general ring owns the original), so no
    /// span buffers are recycled from here.
    pub(crate) fn push_slow(&self, capture: SlowTrace) {
        let mut ring = self.slow.lock().expect("slow ring lock");
        if ring.len() == SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(capture);
    }

    /// The `n` most recent slow-request captures, most recent first.
    pub fn recent_slow(&self, n: usize) -> Vec<SlowTrace> {
        let ring = self.slow.lock().expect("slow ring lock");
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Server-error (5xx) responses counted for one endpoint — the
    /// error dimension of its SLO window.
    pub(crate) fn errors_5xx(&self, e: usize) -> u64 {
        STATUSES
            .iter()
            .enumerate()
            .filter(|(_, &s)| s >= 500)
            .map(|(slot, _)| self.requests[e][slot].load(Ordering::Relaxed))
            // The trailing "other" slot holds 500s (and any future
            // 5xx); nothing below 500 falls into it today.
            .chain(std::iter::once(
                self.requests[e][STATUSES.len()].load(Ordering::Relaxed),
            ))
            .sum()
    }

    /// Total requests counted for `(endpoint, status)` — test hook.
    pub fn requests_total(&self, endpoint: Endpoint, status: u16) -> u64 {
        self.requests_in_slot(endpoint.index(), status_index(status))
    }

    /// The request-duration snapshot of one endpoint — test hook.
    pub fn duration_snapshot(&self, endpoint: Endpoint) -> HistogramSnapshot {
        self.durations[endpoint.index()].snapshot()
    }
}

/// Connection-level counters, bumped by the epoll listener from its
/// reactor thread. All relaxed —
/// the open gauge can be momentarily stale to a reader, never to the
/// listener itself.
#[derive(Debug)]
pub struct ConnStats {
    open: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    drained: AtomicU64,
    /// Accepted-to-closed connection lifetime.
    lifetime: Histogram,
}

impl Default for ConnStats {
    fn default() -> ConnStats {
        ConnStats {
            open: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            lifetime: Histogram::new(),
        }
    }
}

/// A plain-number copy of [`ConnStats`], for `/stats` and `tpn top`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnScalars {
    /// Connections currently open (accepted, not yet closed).
    pub open: u64,
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections refused at the hard connection cap (503-and-close).
    pub rejected: u64,
    /// Connections closed by a read/write deadline.
    pub timeouts: u64,
    /// Connections closed by graceful drain at shutdown.
    pub drained: u64,
}

impl ConnStats {
    /// Count one accepted connection (bumps the open gauge).
    pub fn opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one closed connection and record its lifetime. The
    /// histogram is bumped after the gauge so a racing scrape never
    /// sees a lifetime sample for a still-open connection.
    pub fn closed(&self, lifetime_ns: u64) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.lifetime.record_ns(lifetime_ns);
    }

    /// Count one connection refused at the connection cap.
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection closed by a deadline.
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection closed by graceful drain.
    pub fn drain(&self) {
        self.drained.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the scalar counters out.
    pub fn scalars(&self) -> ConnScalars {
        ConnScalars {
            open: self.open.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the connection-lifetime histogram.
    pub fn lifetime(&self) -> HistogramSnapshot {
        self.lifetime.snapshot()
    }
}

/// A counter the [`Service`](crate::Service) owns: the index of its
/// atomic slot. Its row in [`COUNTERS`] names it
/// [`Source::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    Requests,
    Sweeps,
    SweepHits,
    SweepCompiles,
    SweepPoints,
    Optimizes,
    OptimizeHits,
    OptimizeSolves,
    OptimizeCertified,
    Whatifs,
    WhatifPerturbations,
    WhatifHits,
    WhatifRejects,
    V1Envelopes,
}

/// Where a counter's value lives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// The service's own atomic slot.
    Service(Counter),
    /// A body counter of the cache.
    Cache(fn(&CacheStats) -> u64),
    /// A session counter of the cache; `/stats` nests these in its
    /// `"sessions"` object.
    Sessions(fn(&CacheStats) -> u64),
}

/// One row of [`COUNTERS`].
#[derive(Debug)]
pub(crate) struct CounterDef {
    /// The `/stats` key and retention-ring column (the name alert
    /// rules' `counter_rate` series resolve). Inside the `/stats`
    /// `"sessions"` object, session rows drop their `session_` prefix.
    pub name: &'static str,
    /// The `/metrics` counter family.
    pub family: &'static str,
    /// The family's `# HELP` text.
    pub help: &'static str,
    /// Where the value is read from.
    pub source: Source,
}

/// Every monotone service counter, in `/stats`, `/metrics` and ring
/// column order — the one list those three documents iterate. The
/// session rows come last, since `/stats` closes with them inside
/// its `"sessions"` object.
pub(crate) const COUNTERS: [CounterDef; 22] = [
    CounterDef {
        name: "requests",
        family: "tpn_service_requests_total",
        help: "Analysis requests accepted across all surfaces (the /stats \"requests\" counter).",
        source: Source::Service(Counter::Requests),
    },
    CounterDef {
        name: "computations",
        family: "tpn_cache_computations_total",
        help: "Body-cache misses that ran a computation.",
        source: Source::Cache(|s| s.computations),
    },
    CounterDef {
        name: "hits",
        family: "tpn_cache_hits_total",
        help: "Body-cache hits.",
        source: Source::Cache(|s| s.hits),
    },
    CounterDef {
        name: "misses",
        family: "tpn_cache_misses_total",
        help: "Body-cache misses.",
        source: Source::Cache(|s| s.misses),
    },
    CounterDef {
        name: "coalesced",
        family: "tpn_cache_coalesced_total",
        help: "Requests that coalesced onto a concurrent identical computation.",
        source: Source::Cache(|s| s.coalesced),
    },
    CounterDef {
        name: "evictions",
        family: "tpn_cache_evictions_total",
        help: "Body-cache evictions.",
        source: Source::Cache(|s| s.evictions),
    },
    CounterDef {
        name: "sweeps",
        family: "tpn_sweeps_total",
        help: "Sweep requests.",
        source: Source::Service(Counter::Sweeps),
    },
    CounterDef {
        name: "sweep_hits",
        family: "tpn_sweep_hits_total",
        help: "Sweep cache hits.",
        source: Source::Service(Counter::SweepHits),
    },
    CounterDef {
        name: "sweep_compiles",
        family: "tpn_sweep_compiles_total",
        help: "Sweep grid evaluations actually run.",
        source: Source::Service(Counter::SweepCompiles),
    },
    CounterDef {
        name: "sweep_points",
        family: "tpn_sweep_points_total",
        help: "Grid points evaluated by sweeps.",
        source: Source::Service(Counter::SweepPoints),
    },
    CounterDef {
        name: "optimizes",
        family: "tpn_optimizes_total",
        help: "Optimize requests.",
        source: Source::Service(Counter::Optimizes),
    },
    CounterDef {
        name: "optimize_hits",
        family: "tpn_optimize_hits_total",
        help: "Optimize cache hits.",
        source: Source::Service(Counter::OptimizeHits),
    },
    CounterDef {
        name: "optimize_solves",
        family: "tpn_optimize_solves_total",
        help: "Optimizer solves actually run.",
        source: Source::Service(Counter::OptimizeSolves),
    },
    CounterDef {
        name: "optimize_certified",
        family: "tpn_optimize_certified_total",
        help: "Optimizer solves that produced a certificate.",
        source: Source::Service(Counter::OptimizeCertified),
    },
    CounterDef {
        name: "whatifs",
        family: "tpn_whatifs_total",
        help: "What-if batch requests.",
        source: Source::Service(Counter::Whatifs),
    },
    CounterDef {
        name: "whatif_perturbations",
        family: "tpn_whatif_perturbations_total",
        help: "Individual what-if perturbations served.",
        source: Source::Service(Counter::WhatifPerturbations),
    },
    CounterDef {
        name: "whatif_hits",
        family: "tpn_whatif_hits_total",
        help: "What-if perturbations answered from the cache.",
        source: Source::Service(Counter::WhatifHits),
    },
    CounterDef {
        name: "whatif_rejects",
        family: "tpn_whatif_rejects_total",
        help: "What-if perturbations answered with an error object.",
        source: Source::Service(Counter::WhatifRejects),
    },
    CounterDef {
        name: "v1_envelopes",
        family: "tpn_v1_envelopes_total",
        help: "POST /v1 envelopes served.",
        source: Source::Service(Counter::V1Envelopes),
    },
    CounterDef {
        name: "session_hits",
        family: "tpn_session_hits_total",
        help: "Artifact-tier lookups that found a live session.",
        source: Source::Sessions(|s| s.sessions.hits),
    },
    CounterDef {
        name: "session_misses",
        family: "tpn_session_misses_total",
        help: "Artifact-tier lookups that created a session.",
        source: Source::Sessions(|s| s.sessions.misses),
    },
    CounterDef {
        name: "session_evictions",
        family: "tpn_session_evictions_total",
        help: "Sessions evicted from the artifact tier.",
        source: Source::Sessions(|s| s.sessions.evictions),
    },
];

/// The number of [`Counter`]s (`V1Envelopes` is the last).
pub(crate) const OWNED: usize = Counter::V1Envelopes as usize + 1;

/// The ring column (and row) of the counter called `name`. Used in a
/// constant, an unknown name fails the build.
pub(crate) const fn column(name: &str) -> usize {
    let want = name.as_bytes();
    let mut i = 0;
    loop {
        let have = COUNTERS[i].name.as_bytes();
        let mut j = 0;
        while j < have.len() && j < want.len() && have[j] == want[j] {
            j += 1;
        }
        if j == have.len() && j == want.len() {
            return i;
        }
        i += 1;
    }
}

/// Every `/stats` number, copied out for rendering — the bridge
/// between the service's private counters and [`render`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StatsSnapshot {
    /// Every [`COUNTERS`] value, in table order.
    pub counters: [u64; COUNTERS.len()],
    pub entries: u64,
    pub bytes: u64,
    pub session_entries: u64,
    pub threads: u64,
    pub queue_cap: u64,
    pub uptime_seconds: f64,
    pub start_time_seconds: f64,
    pub alerts_firing: u64,
    pub alerts_pending: u64,
    pub notifications_sent: u64,
    pub notifications_dropped: u64,
    pub notifications_failed: u64,
}

/// Assemble the `GET /metrics` document. Families render in one fixed
/// order, endpoints in [`ROUTES`] order, stages in
/// [`STAGES`] order, statuses in [`STATUSES`] order — rendering the
/// same state twice yields identical bytes. Zero-valued request
/// counter series and empty per-endpoint histograms are omitted (the
/// families stay declared), matching Prometheus convention for
/// labelled series that have seen no traffic; the six stage
/// histograms always render, so p99-per-stage is derivable from the
/// first scrape on.
pub(crate) fn render(
    metrics: &ServiceMetrics,
    stats: &StatsSnapshot,
    stages: &StageCounters,
    conn: &ConnStats,
) -> String {
    let mut r = Renderer::new();

    r.header(
        "tpn_build_info",
        "Build metadata of the serving binary; the value is always 1.",
        "gauge",
    );
    r.sample_u64(
        "tpn_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1,
    );

    r.header(
        "tpn_process_uptime_seconds",
        "Seconds since the service was constructed.",
        "gauge",
    );
    r.sample_f64("tpn_process_uptime_seconds", &[], stats.uptime_seconds);

    r.header(
        "tpn_process_start_time_seconds",
        "Unix time the service was constructed, seconds — a change means a restart.",
        "gauge",
    );
    r.sample_f64(
        "tpn_process_start_time_seconds",
        &[],
        stats.start_time_seconds,
    );

    r.header(
        "tpn_requests_total",
        "Requests served, by endpoint and HTTP status.",
        "counter",
    );
    for route in &ROUTES {
        for slot in 0..=STATUSES.len() {
            let n = metrics.requests_in_slot(route.endpoint.index(), slot);
            if n > 0 {
                r.sample_u64(
                    "tpn_requests_total",
                    &[("endpoint", route.label), ("status", status_label(slot))],
                    n,
                );
            }
        }
    }

    r.header(
        "tpn_request_duration_seconds",
        "Request latency by endpoint, wall clock from dispatch to response body.",
        "histogram",
    );
    for route in &ROUTES {
        let snap = metrics.durations[route.endpoint.index()].snapshot();
        if snap.count() > 0 {
            r.histogram(
                "tpn_request_duration_seconds",
                &[("endpoint", route.label)],
                &snap,
            );
        }
    }

    r.header(
        "tpn_stage_build_seconds",
        "Session pipeline stage build durations (one sample per artifact actually built).",
        "histogram",
    );
    for stage in STAGES {
        r.histogram(
            "tpn_stage_build_seconds",
            &[("stage", stage.name())],
            &stages.build_times(stage),
        );
    }

    for (row, value) in COUNTERS.iter().zip(stats.counters) {
        r.header(row.family, row.help, "counter");
        r.sample_u64(row.family, &[], value);
    }

    r.header(
        "tpn_artifact_demands_total",
        "Session pipeline stage demands, by stage and outcome (hit, miss or build).",
        "counter",
    );
    for stage in STAGES {
        let snap = stages.snapshot(stage);
        for (event, value) in [
            ("hit", snap.hits),
            ("miss", snap.misses),
            ("build", snap.builds),
        ] {
            r.sample_u64(
                "tpn_artifact_demands_total",
                &[("stage", stage.name()), ("event", event)],
                value,
            );
        }
    }

    let gauges: [(&str, &str, u64); 5] = [
        (
            "tpn_cache_entries",
            "Live body-cache entries.",
            stats.entries,
        ),
        (
            "tpn_cache_bytes",
            "Bytes held by body-cache entries.",
            stats.bytes,
        ),
        (
            "tpn_sessions",
            "Live sessions in the artifact tier.",
            stats.session_entries,
        ),
        ("tpn_threads", "Configured worker threads.", stats.threads),
        (
            "tpn_queue_cap",
            "Configured connection queue capacity.",
            stats.queue_cap,
        ),
    ];
    for (name, help, value) in gauges {
        r.header(name, help, "gauge");
        r.sample_u64(name, &[], value);
    }

    r.header(
        "tpn_alerts_firing",
        "Alert rules currently in the firing state.",
        "gauge",
    );
    r.sample_u64("tpn_alerts_firing", &[], stats.alerts_firing);

    r.header(
        "tpn_alerts_pending",
        "Alert rules currently waiting out their for-duration.",
        "gauge",
    );
    r.sample_u64("tpn_alerts_pending", &[], stats.alerts_pending);

    r.header(
        "tpn_alert_notifications_total",
        "Webhook notification lines, by result (sent, dropped at the queue, or failed after retries).",
        "counter",
    );
    // All three label values always render (even at zero) so the
    // family's series set — and thus the document bytes — never
    // depends on notifier activity.
    for (result, value) in [
        ("sent", stats.notifications_sent),
        ("dropped", stats.notifications_dropped),
        ("failed", stats.notifications_failed),
    ] {
        r.sample_u64(
            "tpn_alert_notifications_total",
            &[("result", result)],
            value,
        );
    }

    // Connection families come last: the alert tests pin the ordered
    // run of needles ending at tpn_alert_notifications_total, so new
    // families must append after it.
    let conn_scalars = conn.scalars();
    r.header(
        "tpn_connections_open",
        "Connections currently open (accepted, not yet closed).",
        "gauge",
    );
    r.sample_u64("tpn_connections_open", &[], conn_scalars.open);

    let conn_counters: [(&str, &str, u64); 4] = [
        (
            "tpn_connections_accepted_total",
            "Connections accepted since start.",
            conn_scalars.accepted,
        ),
        (
            "tpn_connections_rejected_total",
            "Connections refused at the hard connection cap.",
            conn_scalars.rejected,
        ),
        (
            "tpn_connection_timeouts_total",
            "Connections closed by a read or write deadline.",
            conn_scalars.timeouts,
        ),
        (
            "tpn_connections_drained_total",
            "Connections closed by graceful drain at shutdown.",
            conn_scalars.drained,
        ),
    ];
    for (name, help, value) in conn_counters {
        r.header(name, help, "counter");
        r.sample_u64(name, &[], value);
    }

    r.header(
        "tpn_connection_lifetime_seconds",
        "Accepted-to-closed connection lifetime.",
        "histogram",
    );
    r.histogram("tpn_connection_lifetime_seconds", &[], &conn.lifetime());

    r.finish()
}

/// Render one request trace as a single NDJSON line (no trailing
/// newline — the route joins lines). `threshold_ns` is the breached
/// latency objective on `/debug/slow` lines, absent on the general
/// ring's.
fn trace_line(trace: &RequestTrace, threshold_ns: Option<u64>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ts_ms");
    w.uint(tpn_obs::clock::unix_ms_at(trace.end_ns));
    w.key("endpoint");
    w.string(trace.endpoint);
    w.key("status");
    w.uint(u64::from(trace.status));
    w.key("duration_ns");
    w.uint(trace.duration_ns);
    if let Some(t) = threshold_ns {
        w.key("threshold_ns");
        w.uint(t);
    }
    if let Some(digest) = trace.digest {
        w.key("digest");
        w.string(&format!("{digest:032x}"));
    }
    if let Some(spec) = trace.spec {
        w.key("spec");
        w.string(&format!("{spec:032x}"));
    }
    w.key("spans");
    w.begin_array();
    // The implicit root, synthesized from the header measurement.
    w.begin_object();
    w.key("name");
    w.string(trace.endpoint);
    w.key("depth");
    w.uint(1);
    w.key("start_ns");
    w.uint(0);
    w.key("duration_ns");
    w.uint(trace.duration_ns);
    w.end_object();
    for span in &trace.spans {
        w.begin_object();
        w.key("name");
        w.string(span.name);
        w.key("depth");
        w.uint(u64::from(span.depth));
        w.key("start_ns");
        w.uint(span.start_ns);
        w.key("duration_ns");
        w.uint(span.duration_ns);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The `GET /debug/requests?n=K` body: the K most recent completed
/// request traces, most recent first, one JSON document per line.
pub(crate) fn debug_requests_ndjson(traces: &[RequestTrace]) -> String {
    let mut out = String::new();
    for trace in traces {
        out.push_str(&trace_line(trace, None));
        out.push('\n');
    }
    out
}

/// The `GET /debug/slow?n=K` body: the K most recent watchdog
/// captures, most recent first, one JSON document per line — each the
/// `/debug/requests` shape plus the `threshold_ns` it breached.
pub(crate) fn debug_slow_ndjson(captures: &[SlowTrace]) -> String {
    let mut out = String::new();
    for capture in captures {
        out.push_str(&trace_line(&capture.trace, Some(capture.threshold_ns)));
        out.push('\n');
    }
    out
}

/// Render a span list as a JSON array into an existing writer — the
/// `/v1` envelope's `"trace"` member.
pub(crate) fn write_spans(w: &mut JsonWriter, spans: &[Span]) {
    w.begin_array();
    for span in spans {
        w.begin_object();
        w.key("name");
        w.string(span.name);
        w.key("depth");
        w.uint(u64::from(span.depth));
        w.key("start_ns");
        w.uint(span.start_ns);
        w.key("duration_ns");
        w.uint(span.duration_ns);
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_indices_are_consistent() {
        for (i, route) in ROUTES.iter().enumerate() {
            assert_eq!(route.endpoint.index(), i);
            assert_eq!(Route::labelled(route.label), Some(route), "duplicate label");
            if route.endpoint != Endpoint::Other {
                assert_eq!(Route::at(route.path), Some(route), "duplicate path");
            }
        }
        assert_eq!(Route::at(""), None, "no request line reaches `other`");
    }

    #[test]
    fn status_slots_cover_every_emitted_code() {
        for (i, &s) in STATUSES.iter().enumerate() {
            assert_eq!(status_index(s), i);
            assert_eq!(status_label(i), s.to_string());
        }
        assert_eq!(status_index(500), STATUSES.len());
        assert_eq!(status_label(STATUSES.len()), "other");
    }

    #[test]
    fn record_and_render_roundtrip_validates() {
        let m = ServiceMetrics::new(true);
        m.record(Endpoint::Analyze, 200, 120_000);
        m.record(Endpoint::Analyze, 200, 80_000);
        m.record(Endpoint::Analyze, 422, 40_000);
        m.record(Endpoint::Sweep, 200, 3_000_000);
        let stages = StageCounters::new();
        let mut counters = [0; COUNTERS.len()];
        counters[column("requests")] = 4;
        let stats = StatsSnapshot {
            counters,
            uptime_seconds: 1.25,
            ..StatsSnapshot::default()
        };
        let conn = ConnStats::default();
        conn.opened();
        conn.closed(2_000_000);
        let text = render(&m, &stats, &stages, &conn);
        tpn_obs::validate::validate(&text).unwrap();
        assert!(
            text.contains("tpn_requests_total{endpoint=\"analyze\",status=\"200\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("tpn_requests_total{endpoint=\"analyze\",status=\"422\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tpn_request_duration_seconds_count{endpoint=\"analyze\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("tpn_stage_build_seconds_count{stage=\"trg\"} 0\n"),
            "{text}"
        );
        assert!(text.contains("tpn_build_info{version=\""), "{text}");
        assert!(text.contains("tpn_connections_open 0\n"), "{text}");
        assert!(
            text.contains("tpn_connections_accepted_total 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tpn_connection_lifetime_seconds_count 1\n"),
            "{text}"
        );
        // Deterministic: identical state renders identical bytes.
        assert_eq!(text, render(&m, &stats, &stages, &conn));
    }

    #[test]
    fn trace_ring_keeps_the_most_recent() {
        let m = ServiceMetrics::new(true);
        for i in 0..(TRACE_RING_CAP + 10) {
            m.push_trace_copying(
                RequestTrace {
                    endpoint: "analyze",
                    status: 200,
                    end_ns: i as u64,
                    duration_ns: 1,
                    digest: None,
                    spec: None,
                    spans: Vec::new(),
                },
                &[],
            );
        }
        let recent = m.recent_traces(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].end_ns, (TRACE_RING_CAP + 9) as u64);
        assert!(m.recent_traces(10_000).len() == TRACE_RING_CAP);
        let ndjson = debug_requests_ndjson(&recent);
        assert_eq!(ndjson.lines().count(), 3);
        assert!(ndjson.starts_with("{\"ts_ms\":"), "{ndjson}");
    }

    #[test]
    fn slow_ring_keeps_the_most_recent_and_renders_the_threshold() {
        let m = ServiceMetrics::new(true);
        for i in 0..(SLOW_RING_CAP + 5) {
            m.push_slow(SlowTrace {
                trace: RequestTrace {
                    endpoint: "analyze",
                    status: 200,
                    end_ns: i as u64,
                    duration_ns: 9_000_000,
                    digest: Some((0xabc1 << 64) | 0x23),
                    spec: None,
                    spans: Vec::new(),
                },
                threshold_ns: 5_000_000,
            });
        }
        assert_eq!(m.recent_slow(10_000).len(), SLOW_RING_CAP);
        let recent = m.recent_slow(2);
        assert_eq!(recent[0].trace.end_ns, (SLOW_RING_CAP + 4) as u64);
        let ndjson = debug_slow_ndjson(&recent);
        assert!(ndjson.contains("\"threshold_ns\":5000000"), "{ndjson}");
        assert!(
            ndjson.contains("\"digest\":\"000000000000abc10000000000000023\""),
            "{ndjson}"
        );
    }

    #[test]
    fn errors_5xx_counts_only_server_errors() {
        let m = ServiceMetrics::new(true);
        m.record(Endpoint::Analyze, 200, 1);
        m.record(Endpoint::Analyze, 422, 1);
        m.record(Endpoint::Analyze, 501, 1);
        m.record(Endpoint::Analyze, 503, 1);
        m.record(Endpoint::Analyze, 500, 1); // the "other" slot
        assert_eq!(m.errors_5xx(Endpoint::Analyze.index()), 3);
        assert_eq!(m.errors_5xx(Endpoint::Sweep.index()), 0);
    }

    #[test]
    fn annotations_pack_digest_words_into_the_trace_slots() {
        // Inactive: annotations are dropped.
        annotate_digest([9, 9]);
        assert_eq!(tpn_obs::trace::end_annotated(), None);
        assert!(tpn_obs::trace::begin_rooted(0));
        annotate_digest([1, 2]);
        annotate_digest([3, 4]); // first writer wins
        annotate_spec(0xbeef);
        let (_, annotations) = tpn_obs::trace::end_annotated().unwrap();
        assert_eq!(annotations[ANNOTATE_DIGEST], Some((1 << 64) | 2));
        assert_eq!(annotations[ANNOTATE_SPEC], Some(0xbeef));
    }
}
