//! The hand-rolled HTTP/1.1 front end: the [`Service`], its
//! configuration and the route table.
//!
//! No external dependency and no async runtime. One listener, the
//! edge-triggered epoll reactor in `crate::aio_server` (Linux only),
//! parses requests with the incremental [`tpn_aio::http1`] parser and
//! serves the routes below: keep-alive, pipelining, admission control
//! and chunked streaming of large bodies, with compute on the fixed
//! [`ThreadPool`](crate::ThreadPool). On other targets the [`Service`]
//! and the routes still build; there is no listener.
//!
//! Routes, in the order of the route table
//! [`ROUTES`], which declares each one once
//! (its endpoint, method, path and label); dispatch, the labels and
//! every kind parser derive from it:
//!
//! | method | path | body | reply |
//! |---|---|---|---|
//! | POST | `/analyze` | `.tpn` text | rates, weights, throughputs |
//! | POST | `/graph` | `.tpn` text | TRG summary + state table |
//! | POST | `/correctness` | `.tpn` text | deadlock/safeness/liveness |
//! | POST | `/invariants` | `.tpn` text | P-/T-semiflows |
//! | POST | `/simulate?events=N&seed=S` | `.tpn` text | Monte-Carlo counters |
//! | POST | `/sweep` | JSON: grid spec + `.tpn` text | per-point throughput/utilisation rows |
//! | POST | `/optimize` | JSON: box spec + `.tpn` text | certified optimal parameter point |
//! | POST | `/whatif` | JSON: perturbation batch + `.tpn` text | analyses of each perturbed net |
//! | POST | `/v1` | JSON: `.tpn` text + many requests | one envelope, one shared session |
//! | GET | `/healthz` | — | graded liveness: `ok` \| `degraded` \| `unhealthy` (503) with burn-rate reasons |
//! | GET | `/stats` | — | cache/pool/sweep/optimize/whatif/artifact counters + process gauges |
//! | GET | `/metrics` | — | Prometheus text exposition (counters + latency histograms) |
//! | GET | `/debug/requests?n=K` | — | the K most recent request traces, NDJSON (K capped at the ring size) |
//! | GET | `/metrics/history?window=W&step=S&series=A,B` | — | trailing-window rates and quantiles, columnar JSON |
//! | GET | `/slo` | — | objectives and current multi-window burn rates per endpoint |
//! | GET | `/debug/slow?n=K` | — | the K most recent objective-breaching traces, NDJSON (K capped at the ring size) |
//! | GET | `/alerts` | — | alert rule states, transition history and active silences, columnar JSON |
//! | POST | `/alerts/silence` | JSON: rule + TTL | create a TTL-bounded notification silence |
//!
//! A path no row names is a 404; a row's path with any other method is
//! a 405. Both are counted under the endpoint `other`.
//!
//! Status codes: 200 on success, 400 for malformed requests or `.tpn`
//! parse errors, 404/405 for bad routes, 413 for oversized bodies, 422
//! when the net parses but the analysis fails (or a what-if
//! perturbation leaves the lift's validity region). Legacy routes
//! render errors as `{"error": …}`; `/v1` and `/whatif` use the
//! structured `{"code": …, "message": …}` object — the full mapping
//! lives on [`ServiceError`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub(crate) use tpn_aio::http1::Request;
use tpn_net::{parse_tpn, NetDigest, TimedPetriNet, TimingAssignment};
use tpn_obs::alert::AlertEngine;
use tpn_obs::log::RequestLog;
use tpn_obs::series::SeriesRing;
use tpn_obs::trace::Detached;
use tpn_session::{Session, SessionOptions, STAGES};

use crate::alerts::{self, AlertsConfig, Notifier, NotifyCounters, Silence};
use crate::analysis::{run_with_session, RequestKind, ServiceError};
use crate::cache::{AnalysisCache, CacheKey, Flight, Lookup};
use crate::history;
use crate::json::{error_body, error_object, JsonWriter};
use crate::metrics::{
    self, ConnStats, Counter, CounterDef, Endpoint, RequestTrace, Route, ServiceMetrics, SlowTrace,
    Source, StatsSnapshot, COUNTERS, ROUTES,
};
use crate::slo::{self, SloConfig};
use crate::spec::Spec;
use crate::v1::{parse_envelope, V1Request};
use crate::whatif::WhatifSpec;

/// Server and cache sizing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the pool that runs requests. The listener's
    /// reactor answers body-cache hits of the plain analysis routes
    /// itself; every other request runs on one of these threads.
    pub threads: usize,
    /// Bounded queue of requests waiting for a pool worker — and, with
    /// [`AioConfig::inflight`] at 0, the listener's in-flight budget.
    /// Cache hits answered on the reactor never enter it.
    pub queue_cap: usize,
    /// The cache's byte budget for response bodies (`tpn serve
    /// --cache-bytes`). A body costs its length plus a fixed per-entry
    /// overhead and is cached when that cost fits.
    pub cache_bytes: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum `events` accepted by `/simulate` — one request may not
    /// pin a worker on an unbounded computation.
    pub max_sim_events: u64,
    /// Worker threads one `/sweep` evaluation fans out over (the grid
    /// is chunked across them; the output is identical at any count).
    pub sweep_threads: usize,
    /// Maximum grid points accepted by `/sweep` — the sweep analogue
    /// of `max_sim_events`.
    pub max_sweep_points: u64,
    /// Whether to record request metrics and traces (`/metrics`,
    /// `/debug/requests`). Off, the whole observability layer is a
    /// no-op — the comparison arm of the overhead bench.
    pub metrics: bool,
    /// Sampled NDJSON request logging (off when `None`). Requires
    /// `metrics` — the log is written by the same observation wrapper.
    pub log: Option<LogConfig>,
    /// Milliseconds between retention-ring samples taken by the
    /// sampler thread [`spawn`](crate::spawn) runs (0 disables the
    /// thread; tests and benches drive [`Service::sample_now`]
    /// directly). Requires `metrics`.
    pub sample_interval_ms: u64,
    /// Retention-ring capacity in frames. At the 5s default interval
    /// the 720-frame default covers one trailing hour.
    pub history_frames: usize,
    /// SLO policy: objectives, burn windows and thresholds — drives
    /// the graded `/healthz`, `GET /slo`, and the slow-request
    /// watchdog.
    pub slo: SloConfig,
    /// Alerting policy: rules (merged onto defaults derived from
    /// `slo`), history sizing and the optional webhook sink — drives
    /// `GET /alerts` and the evaluator the sampler ticks. Requires
    /// `metrics`.
    pub alerts: AlertsConfig,
    /// Tuning for the epoll listener.
    pub aio: AioConfig,
}

/// Listener tuning: admission control, deadlines, streaming.
#[derive(Debug, Clone)]
pub struct AioConfig {
    /// Hard cap on concurrently open connections; connections beyond
    /// it are answered `503` and closed immediately.
    pub max_connections: usize,
    /// Keep-alive bound: after this many responses on one connection
    /// the server sends `Connection: close` (0 acts as 1).
    pub max_requests_per_conn: u64,
    /// Deadline for reading one full request (first byte of the
    /// request line to last body byte) — the slow-loris bound.
    pub read_deadline_ms: u64,
    /// Stall deadline while writing a response: the timer re-arms on
    /// every write that makes progress, so a slow-but-moving client
    /// survives while a stalled one is cut.
    pub write_deadline_ms: u64,
    /// How long an idle keep-alive connection may sit between
    /// requests before the server closes it.
    pub idle_deadline_ms: u64,
    /// In-flight request budget: while this many requests sit between
    /// dispatch and response, the listener deregisters itself from
    /// the poller (accept-pause backpressure) instead of accepting
    /// work it cannot queue. `0` means "use `queue_cap`", which also
    /// guarantees the reactor never blocks on the pool's queue.
    pub inflight: usize,
    /// Response bodies strictly larger than this stream out with
    /// `Transfer-Encoding: chunked` through a bounded write buffer
    /// instead of being queued as one contiguous write.
    pub stream_threshold: usize,
    /// Chunk-frame payload size for streamed bodies — the bound on
    /// the per-connection write buffer.
    pub write_chunk: usize,
    /// Graceful-drain budget at shutdown: in-flight requests get this
    /// long to finish flushing before their connections are closed.
    pub drain_ms: u64,
}

impl Default for AioConfig {
    fn default() -> AioConfig {
        AioConfig {
            max_connections: 10_240,
            max_requests_per_conn: 1_000,
            read_deadline_ms: 30_000,
            write_deadline_ms: 10_000,
            idle_deadline_ms: 60_000,
            inflight: 0,
            stream_threshold: 64 * 1024,
            write_chunk: 32 * 1024,
            drain_ms: 5_000,
        }
    }
}

/// Request-log destination and sampling.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Append to this file; `None` writes to standard error.
    pub path: Option<String>,
    /// Write every `sample`-th record (1 = every record, 0 acts as 1).
    pub sample: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            threads: 4,
            queue_cap: 64,
            cache_bytes: 64 * 1024 * 1024,
            max_body_bytes: 1 << 20,
            max_sim_events: 10_000_000,
            sweep_threads: 4,
            max_sweep_points: 1_000_000,
            metrics: true,
            log: None,
            sample_interval_ms: 5_000,
            history_frames: 720,
            slo: SloConfig::default(),
            alerts: AlertsConfig::default(),
            aio: AioConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// The [`SessionOptions`] every session of this service obeys.
    pub fn session_options(&self) -> SessionOptions {
        SessionOptions::new()
            .threads(self.sweep_threads)
            .max_points(self.max_sweep_points)
    }
}

/// The analysis service: parse → digest → session → cached analysis.
/// Usable in-process (the CLI's `batch` mode) or behind the HTTP
/// front end [`spawn`](crate::spawn) starts.
///
/// One [`AnalysisCache`] holds, per net digest, the [`Session`] with
/// the memoized pipeline artifacts (TRG, decision graph, rates, lifted
/// domains, compiled programs) and the response bodies rendered from
/// it, keyed by request kind. Requests of *different* kinds against the
/// same net miss each other's bodies but share the session — that is
/// where the redundant work used to be.
pub struct Service {
    cache: AnalysisCache,
    config: ServiceConfig,
    /// The service-owned counters, indexed by [`Counter`].
    counters: [AtomicU64; metrics::OWNED],
    metrics: ServiceMetrics,
    log: Option<RequestLog>,
    started: Instant,
    /// Unix time the service was constructed, milliseconds — the
    /// `tpn_process_start_time_seconds` gauge and `/stats` restart
    /// detector.
    start_unix_ms: u64,
    /// The retention ring the sampler fills (capacity 1 with metrics
    /// disabled — nothing ever pushes).
    ring: SeriesRing,
    /// Per-endpoint watchdog thresholds, precomputed from the SLO
    /// objectives: a request slower than its endpoint's entry is
    /// captured into the slow ring.
    slow_threshold: [Option<u64>; ROUTES.len()],
    /// The alert evaluator, ticked by the sampler against each pushed
    /// frame. The mutex serializes ticks with `/alerts` renders; both
    /// sides hold it only for in-memory work.
    alerts: Mutex<AlertEngine>,
    /// Active notification silences (expired entries pruned on write).
    silences: Mutex<Vec<Silence>>,
    /// Silence id allocator.
    silence_seq: AtomicU64,
    /// Webhook notification outcome counters (rendered in `/metrics`
    /// whether or not a notifier is configured).
    notify: Arc<NotifyCounters>,
    /// The webhook notifier worker, when configured.
    notifier: Option<Notifier>,
    /// Listener connection counters (open gauge, accept/reject/
    /// timeout/drain counters, lifetime histogram) — updated by the
    /// listener [`spawn`](crate::spawn) built, rendered on `/stats`
    /// and `/metrics`.
    conn: ConnStats,
}

impl Service {
    /// A fresh service with an empty cache.
    pub fn new(config: ServiceConfig) -> Service {
        if config.metrics {
            // Pay the fast clock's one-time TSC calibration spin here,
            // not inside the first observed request.
            tpn_obs::clock::calibrate();
        }
        let metrics = ServiceMetrics::new(config.metrics);
        let log = if config.metrics {
            config.log.as_ref().and_then(|lc| match &lc.path {
                Some(path) => match RequestLog::file(path, lc.sample) {
                    Ok(log) => Some(log),
                    Err(e) => {
                        eprintln!("tpn: cannot open request log {path:?}: {e}");
                        None
                    }
                },
                None => Some(RequestLog::stderr(lc.sample)),
            })
        } else {
            None
        };
        let ring_frames = if config.metrics {
            config.history_frames.max(2)
        } else {
            1
        };
        let ring = SeriesRing::new(history::schema(), ring_frames);
        let slow_threshold =
            ROUTES.map(|r| config.slo.objective_for(r.endpoint).map(|o| o.latency_ns));
        let alerts = Mutex::new(config.alerts.engine(&config.slo));
        let notify = Arc::new(NotifyCounters::default());
        let notifier = if config.metrics {
            config
                .alerts
                .webhook
                .clone()
                .map(|hook| Notifier::spawn(hook, Arc::clone(&notify)))
        } else {
            None
        };
        Service {
            cache: AnalysisCache::new(config.cache_bytes, config.session_options()),
            config,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics,
            log,
            started: Instant::now(),
            start_unix_ms: tpn_obs::unix_ms(),
            ring,
            slow_threshold,
            alerts,
            silences: Mutex::new(Vec::new()),
            silence_seq: AtomicU64::new(0),
            notify,
            notifier,
            conn: ConnStats::default(),
        }
    }

    /// The cache of sessions and response bodies (for inspection in
    /// tests and benches).
    pub fn cache(&self) -> &AnalysisCache {
        &self.cache
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The request-metrics recorder (for inspection in tests/benches).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The listener connection counters — updated by the listener
    /// serving this instance, readable any time.
    pub fn connections(&self) -> &ConnStats {
        &self.conn
    }

    /// Observe one request: time it, count it under
    /// `(endpoint, status)`, collect its span trace into the debug
    /// ring, and write the sampled request log. With metrics disabled —
    /// or when a request surface is reached from inside an
    /// already-observed request (`/v1` sub-requests, `tpn batch`
    /// re-entry) — the wrapper is a pass-through: `trace::begin_rooted`
    /// returns `false` on a thread that is already collecting, which
    /// doubles as the nested-observation guard, so every request is
    /// counted exactly once.
    ///
    /// A panic inside `f` becomes a 500 `{"code":"internal",…}` reply
    /// here, on every path, so the listener and in-process callers
    /// answer it alike.
    ///
    /// No root span is stored at all: the [`RequestTrace`] header
    /// (endpoint, status, duration) *is* the root measurement, taken
    /// with the two clock reads this wrapper needs anyway, and the
    /// renderers synthesize the root line from it. `begin_rooted` only
    /// reserves depth 1 so collected spans nest under it.
    ///
    /// The listener splits this wrapper around an analysis request's
    /// two halves ([`Service::front`], [`Service::back`]): the same
    /// opening, the same guard, and the same recording, with the trace
    /// carried across threads in between.
    fn observed(
        &self,
        endpoint: Endpoint,
        f: impl FnOnce() -> (u16, Arc<String>),
    ) -> (u16, Arc<String>) {
        let rooted = self.observe_begin();
        let (status, body) = guarded(f, panic_reply);
        self.observe_end(endpoint, rooted, status, &body);
        (status, body)
    }

    /// Open a request's observation: its start on the fast clock, if
    /// metrics are on and this thread now collects its trace (`None`
    /// makes [`Service::observe_end`] a no-op).
    #[inline]
    fn observe_begin(&self) -> Option<u64> {
        self.metrics
            .enabled()
            .then(tpn_obs::clock::now_ns)
            .filter(|&start_ns| tpn_obs::trace::begin_rooted(start_ns))
    }

    /// Close an observation [`Service::observe_begin`] opened on this
    /// thread (or one [`trace::attach`](tpn_obs::trace::attach)ed to
    /// it): record the request and end its trace.
    fn observe_end(&self, endpoint: Endpoint, rooted: Option<u64>, status: u16, body: &str) {
        let Some(start_ns) = rooted else {
            return;
        };
        let end_ns = tpn_obs::clock::now_ns();
        let duration_ns = end_ns.saturating_sub(start_ns);
        self.metrics.record(endpoint, status, duration_ns);
        tpn_obs::trace::end_with(|spans, annotations| {
            let header = RequestTrace {
                endpoint: endpoint.label(),
                status,
                end_ns,
                duration_ns,
                digest: annotations[metrics::ANNOTATE_DIGEST],
                spec: annotations[metrics::ANNOTATE_SPEC],
                spans: Vec::new(),
            };
            // The slow-request watchdog: a request past its endpoint's
            // SLO latency objective has its full trace captured into
            // the dedicated slow ring, evidence-first — the general
            // ring may rotate it out long before anyone looks.
            if let Some(threshold_ns) = self.slow_threshold[endpoint.index()] {
                if duration_ns > threshold_ns {
                    self.metrics.push_slow(SlowTrace {
                        trace: RequestTrace {
                            spans: spans.to_vec(),
                            ..header.clone()
                        },
                        threshold_ns,
                    });
                }
            }
            self.metrics.push_trace_copying(header, spans);
        });
        if let Some(log) = &self.log {
            log.record(endpoint.label(), status, duration_ns, body.len());
        }
    }

    /// Add `n` to one service-owned counter.
    fn bump(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Parse a `.tpn` body and digest the net.
    fn parse_net(&self, body: &str) -> Result<(NetDigest, TimedPetriNet), ServiceError> {
        let net = {
            // The parse is the first work of every request that gets
            // here, so the span opens at the collection epoch without
            // paying a clock read.
            let _span = tpn_obs::trace::span_epoch("parse");
            parse_tpn(body).map_err(|e| ServiceError::Parse(e.to_string()))?
        };
        let digest = net.digest();
        metrics::annotate_digest(digest.0);
        Ok((digest, net))
    }

    /// The shared [`Session`] for an already-parsed net — the public
    /// entry point for in-process consumers (`tpn batch` parses each
    /// file once and runs every requested kind against this handle).
    pub fn session_for(&self, net: TimedPetriNet) -> Arc<Session> {
        let digest = net.digest();
        metrics::annotate_digest(digest.0);
        self.cache.session_for(digest, net)
    }

    /// Serve one analysis request: parse the `.tpn` body, digest it,
    /// and answer from the content-addressed cache (computing at most
    /// once per digest across concurrent callers). Returns the HTTP
    /// status and the JSON body — shared, not copied: cache hits hand
    /// out the cached `Arc` so the hot path never clones the body.
    ///
    /// The work splits at the one cache lookup. The *front half*
    /// parses, digests and looks the body up under one lock; it ends
    /// with the answer (a hit, or a parse error) or with the request's
    /// flight — as its leader, when the lookup inserted the empty
    /// slot, or as a follower of another request computing that key.
    /// The *back half* computes and publishes the body, or waits for
    /// it. Here both halves run in one observation on the caller's
    /// thread; the listener runs the front half on its reactor, so a
    /// hit never leaves it, and hands a flight to a pool worker.
    pub fn respond(&self, kind: RequestKind, body: &str) -> (u16, Arc<String>) {
        self.observed(kind.endpoint(), || {
            self.analysis_back(self.analysis_front(kind, body))
        })
    }

    /// The front half of [`Service::respond`]: count, parse, digest and
    /// look the body up.
    fn analysis_front(&self, kind: RequestKind, body: &str) -> Front {
        self.bump(Counter::Requests, 1);
        let (digest, net) = match self.parse_net(body) {
            Ok(parsed) => parsed,
            Err(e) => return Front::done(Err(e)),
        };
        // The body is looked up first: only a miss's leader resolves
        // (or creates) the net's session.
        match self.cache.lookup(CacheKey { digest, kind }) {
            Lookup::Hit(body) => Front::Done(200, body),
            Lookup::Miss(flight) => Front::Back(Analysis {
                kind,
                digest,
                net,
                flight,
            }),
        }
    }

    /// The back half of [`Service::respond`]: compute (or wait for) a
    /// front half's missing body; an answered front half passes
    /// through.
    fn analysis_back(&self, front: Front) -> (u16, Arc<String>) {
        let Analysis {
            kind,
            digest,
            net,
            mut flight,
        } = match front {
            Front::Done(status, body) => return (status, body),
            Front::Back(analysis) => analysis,
        };
        legacy_reply(
            flight.resolve(|| run_with_session(&self.cache.session_for(digest, net), kind)),
        )
    }

    /// The front half of a plain analysis route (`endpoint`, serving
    /// `kind` at its defaults), as the listener's reactor runs it: the
    /// route's own checks, then [`Service::respond`]'s front half,
    /// inside the request's observation and under the same panic guard
    /// as every route. An answered request is recorded here and its
    /// reply returned; a miss or coalesced wait comes back as a
    /// [`Pending`] carrying its still-open observation to
    /// [`Service::back`].
    pub(crate) fn front(
        &self,
        req: &Request,
        endpoint: Endpoint,
        kind: RequestKind,
    ) -> Result<(u16, Arc<String>), Box<Pending>> {
        let rooted = self.observe_begin();
        let front = guarded(
            || self.analysis_route_front(req, kind),
            || {
                let (status, body) = panic_reply();
                Front::Done(status, body)
            },
        );
        match front {
            Front::Done(status, body) => {
                self.observe_end(endpoint, rooted, status, &body);
                Ok((status, body))
            }
            Front::Back(analysis) => Err(Box::new(Pending {
                observation: rooted
                    .and_then(|start_ns| Some((start_ns, tpn_obs::trace::detach()?))),
                analysis,
            })),
        }
    }

    /// The back half of a [`Pending`] request, on a pool worker: resume
    /// its trace, compute or wait, and record it — one request,
    /// observed once, timed from the front half's start (so the pool
    /// queue wait is in its duration).
    pub(crate) fn back(&self, pending: Box<Pending>) -> (u16, Arc<String>) {
        let Pending {
            observation,
            analysis,
        } = *pending;
        let endpoint = analysis.kind.endpoint();
        // A worker thread collects nothing between jobs, so the attach
        // succeeds; were it refused, the request would go unrecorded
        // rather than close another request's trace.
        let rooted = observation
            .and_then(|(start_ns, trace)| tpn_obs::trace::attach(trace).then_some(start_ns));
        let (status, body) = guarded(|| self.analysis_back(Front::Back(analysis)), panic_reply);
        self.observe_end(endpoint, rooted, status, &body);
        (status, body)
    }

    /// The checks a plain analysis route makes before
    /// [`Service::respond`]'s front half: `kind`'s query parameters, the
    /// simulation budget, a UTF-8 body.
    fn analysis_route_front(&self, req: &Request, kind: RequestKind) -> Front {
        let max = self.config.max_sim_events;
        let kind = match kind.with_params(max, |name| query_param(req, name)) {
            Ok(kind) => kind,
            Err(e) => return Front::done(Err(e)),
        };
        match utf8_body(req) {
            Ok(text) => self.analysis_front(kind, text),
            Err((status, body)) => Front::Done(status, body),
        }
    }

    /// Serve several analysis kinds for one `.tpn` body, parsing it
    /// **once** and running every kind against the same shared session
    /// — `tpn batch`'s entry point. Returns one `(status, body)` per
    /// requested kind, in order; a parse failure yields the same 400
    /// body for every kind (exactly what per-kind [`Service::respond`]
    /// calls would have produced).
    pub fn respond_many(&self, kinds: &[RequestKind], body: &str) -> Vec<(u16, Arc<String>)> {
        self.bump(Counter::Requests, kinds.len() as u64);
        match self.parse_net(body) {
            Ok((digest, net)) => {
                let session = self.cache.session_for(digest, net);
                kinds
                    .iter()
                    .map(|&kind| {
                        self.observed(kind.endpoint(), || {
                            legacy_reply(self.analysis_cached(&session, kind))
                        })
                    })
                    .collect()
            }
            Err(e) => {
                let reply = legacy_reply(Err(e));
                kinds
                    .iter()
                    .map(|&kind| self.observed(kind.endpoint(), || reply.clone()))
                    .collect()
            }
        }
    }

    /// The cached execution of one plain analysis against a session —
    /// shared by the legacy routes, `tpn batch`, `/v1` and `/whatif`
    /// (each surface renders errors in its own shape).
    fn analysis_cached(
        &self,
        session: &Session,
        kind: RequestKind,
    ) -> Result<Arc<String>, ServiceError> {
        let key = CacheKey {
            digest: session.digest(),
            kind,
        };
        self.cache
            .get_or_compute(key, || run_with_session(session, kind))
            .map(|(body, _)| body)
    }

    /// A spec-carrying body through the cache, counting a hit under
    /// `hits`: a body from the cache or coalesced onto a concurrent
    /// identical request — no computation ran for this request. An
    /// error is never a hit: a follower of a failing leader got a 4xx.
    fn cached_counting_hits(
        &self,
        key: CacheKey,
        hits: Counter,
        f: impl FnOnce() -> Result<String, ServiceError>,
    ) -> Result<Arc<String>, ServiceError> {
        let (body, computed) = self.cache.get_or_compute(key, f)?;
        if !computed {
            self.bump(hits, 1);
        }
        Ok(body)
    }

    /// Serve one parameter-sweep request. `body` is the spec object of
    /// [`crate::sweep`] plus a `"net"` member with the `.tpn` text.
    /// Results are cached under `(net digest, spec hash)` — a repeated
    /// sweep of the same net and grid is answered from the cache, and
    /// concurrent identical sweeps coalesce into one evaluation.
    pub fn respond_sweep(&self, body: &str) -> (u16, Arc<String>) {
        use crate::sweep::SweepSpec;

        self.observed(Endpoint::Sweep, || {
            self.bump(Counter::Requests, 1);
            self.bump(Counter::Sweeps, 1);
            legacy_reply(
                parse_spec_body(body, SweepSpec::from_json)
                    .and_then(|(net, spec)| self.sweep_cached(&self.session_for(net), &spec)),
            )
        })
    }

    /// The cached execution of one sweep against a session — shared by
    /// `POST /sweep` and `/v1`.
    fn sweep_cached(
        &self,
        session: &Session,
        spec: &crate::sweep::SweepSpec,
    ) -> Result<Arc<String>, ServiceError> {
        use crate::sweep::sweep_json;

        let spec_hash = spec.hash();
        metrics::annotate_spec(spec_hash);
        let key = CacheKey {
            digest: session.digest(),
            kind: RequestKind::Sweep { spec: spec_hash },
        };
        self.cached_counting_hits(key, Counter::SweepHits, || {
            let (body, points) = sweep_json(session, spec)?;
            self.bump(Counter::SweepCompiles, 1);
            self.bump(Counter::SweepPoints, points);
            Ok(body)
        })
    }

    /// Serve one parameter-synthesis request. `body` is the spec object
    /// of [`crate::optimize`] plus a `"net"` member with the `.tpn`
    /// text. Results are cached under `(net digest, spec hash)`; a
    /// repeated request is answered from the cache and concurrent
    /// identical requests coalesce into one solve.
    pub fn respond_optimize(&self, body: &str) -> (u16, Arc<String>) {
        use crate::optimize::OptimizeSpec;

        self.observed(Endpoint::Optimize, || {
            self.bump(Counter::Requests, 1);
            self.bump(Counter::Optimizes, 1);
            legacy_reply(
                parse_spec_body(body, OptimizeSpec::from_json)
                    .and_then(|(net, spec)| self.optimize_cached(&self.session_for(net), &spec)),
            )
        })
    }

    /// The cached execution of one optimize against a session — shared
    /// by `POST /optimize` and `/v1`.
    fn optimize_cached(
        &self,
        session: &Session,
        spec: &crate::optimize::OptimizeSpec,
    ) -> Result<Arc<String>, ServiceError> {
        use crate::optimize::optimize_json;

        let spec_hash = spec.hash();
        metrics::annotate_spec(spec_hash);
        let key = CacheKey {
            digest: session.digest(),
            kind: RequestKind::Optimize { spec: spec_hash },
        };
        self.cached_counting_hits(key, Counter::OptimizeHits, || {
            let (body, certified) = optimize_json(session, spec)?;
            self.bump(Counter::OptimizeSolves, 1);
            if certified {
                self.bump(Counter::OptimizeCertified, 1);
            }
            Ok(body)
        })
    }

    /// Serve one what-if batch. `body` is the spec object of
    /// [`crate::whatif`] plus a `"net"` member with the `.tpn` text.
    /// Unlike the legacy routes, errors render as the structured
    /// `{"code": …, "message": …}` object.
    pub fn respond_whatif(&self, body: &str) -> (u16, Arc<String>) {
        self.observed(Endpoint::Whatif, || {
            self.bump(Counter::Requests, 1);
            self.bump(Counter::Whatifs, 1);
            match parse_spec_body(body, WhatifSpec::from_json) {
                Ok((net, spec)) => (200, self.whatif_cached(&self.session_for(net), &spec)),
                Err(e) => (e.status(), Arc::new(error_object(e.code(), e.message()))),
            }
        })
    }

    /// Serve one what-if batch for an already-parsed net and spec — the
    /// in-process entry point `tpn whatif` uses, so the CLI's output is
    /// byte-identical to the HTTP endpoint's.
    pub fn respond_whatif_spec(&self, net: TimedPetriNet, spec: &WhatifSpec) -> Arc<String> {
        let (_, body) = self.observed(Endpoint::Whatif, || {
            self.bump(Counter::Requests, 1);
            self.bump(Counter::Whatifs, 1);
            (200, self.whatif_cached(&self.session_for(net), spec))
        });
        body
    }

    /// Assemble one what-if envelope. The envelope is always a 200 once
    /// the net and spec parse: each perturbation succeeds or fails alone
    /// in its own entry. Successful entries are cached under
    /// `(structural digest, timing hash, requests hash)` — shared
    /// across batches whose perturbations merge to the same timing
    /// point — while the perturbation echo is written outside the
    /// cached fragment (two different deltas may land on one point).
    fn whatif_cached(&self, session: &Session, spec: &WhatifSpec) -> Arc<String> {
        let base = session.net();
        let structural = base.structural_digest();
        let requests_hash = crate::spec::spec_hash(&spec.requests_canonical());
        metrics::annotate_spec(requests_hash);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("kind");
        w.string(Endpoint::Whatif.label());
        w.key("net");
        w.string(base.name());
        w.key("structural_digest");
        w.string(&structural.to_hex());
        w.key("base_digest");
        w.string(&session.digest().to_hex());
        w.key("requests");
        w.begin_array();
        for r in &spec.requests {
            w.string(r.name());
        }
        w.end_array();
        w.key("perturbations");
        w.begin_array();
        for delta in &spec.perturbations {
            self.bump(Counter::WhatifPerturbations, 1);
            w.begin_object();
            w.key("perturbation");
            w.begin_object();
            for (attr, value) in delta.iter() {
                w.key(attr);
                w.rational(value);
            }
            w.end_object();
            match self.whatif_entry(session, spec, structural, requests_hash, delta) {
                Ok(body) => {
                    w.key("status");
                    w.uint(200);
                    w.key("body");
                    w.raw(&body);
                }
                Err(e) => {
                    self.bump(Counter::WhatifRejects, 1);
                    w.key("status");
                    w.uint(u64::from(e.status()));
                    w.key("error");
                    w.raw(&error_object(e.code(), e.message()));
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        Arc::new(w.finish())
    }

    /// One perturbation's cached entry body: an ordinary session over
    /// the perturbed net, every requested analysis run against it, and
    /// the assembled fragment cached. The session and each inner
    /// analysis body live in the cache entry of the **perturbed** net's
    /// full digest — exactly the lines a plain request for that net
    /// would hit, so each entry equals the `/v1` entry for the
    /// perturbed net.
    fn whatif_entry(
        &self,
        session: &Session,
        spec: &WhatifSpec,
        structural: NetDigest,
        requests_hash: u128,
        delta: &TimingAssignment,
    ) -> Result<Arc<String>, ServiceError> {
        let timing = session.net().timing().merged(delta).hash();
        let key = CacheKey {
            digest: structural,
            kind: RequestKind::Whatif {
                timing,
                spec: requests_hash,
            },
        };
        self.cached_counting_hits(key, Counter::WhatifHits, || {
            // An unknown attribute or a negative value is a 400.
            let perturbed = session
                .net()
                .with_timing(delta)
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            let digest = perturbed.digest();
            let perturbed = self.cache.session_for(digest, perturbed);
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("digest");
            w.string(&digest.to_hex());
            w.key("timing");
            w.string(&format!("{timing:032x}"));
            w.key("results");
            w.begin_array();
            for &kind in &spec.requests {
                let body = self.analysis_cached(&perturbed, kind)?;
                w.begin_object();
                w.key("kind");
                w.string(kind.name());
                w.key("status");
                w.uint(200);
                w.key("body");
                w.raw(&body);
                w.end_object();
            }
            w.end_array();
            w.end_object();
            Ok(w.finish())
        })
    }

    /// Serve one `/v1` envelope: one net, many analyses, one shared
    /// session. Each sub-request goes through the same cached paths as
    /// its legacy endpoint (same `(digest, kind)` keys, same success
    /// bodies, same sweep/optimize/whatif counters); the envelope
    /// itself is assembled fresh — it is pure concatenation. Errors —
    /// the envelope's own and each entry's — render as the structured
    /// `{"code": …, "message": …}` object.
    pub fn respond_v1(&self, body: &str) -> (u16, Arc<String>) {
        self.observed(Endpoint::V1, || self.v1_reply(body))
    }

    /// The `/v1` body assembly behind [`Service::respond_v1`]'s
    /// observation wrapper. With the envelope's `"trace"` flag set, the
    /// response carries the spans collected *so far* for this request
    /// (every sub-request's pipeline work; the final render necessarily
    /// falls outside its own recording).
    fn v1_reply(&self, body: &str) -> (u16, Arc<String>) {
        self.bump(Counter::Requests, 1);
        self.bump(Counter::V1Envelopes, 1);
        let fail = |e: ServiceError| (e.status(), Arc::new(error_object(e.code(), e.message())));
        let (net_text, requests, trace) = {
            let _span = tpn_obs::trace::span("parse");
            match parse_envelope(body, self.config.max_sim_events) {
                Ok(parsed) => parsed,
                Err(e) => return fail(e),
            }
        };
        // `requests` counts *analyses served*, not HTTP round trips: an
        // envelope of N sub-requests reports like N legacy calls would
        // (the entry tick above covered the first; a malformed envelope
        // stays a single request).
        self.bump(Counter::Requests, requests.len() as u64 - 1);
        let net = {
            let _span = tpn_obs::trace::span("parse");
            match parse_tpn(&net_text) {
                Ok(net) => net,
                Err(e) => return fail(ServiceError::Parse(e.to_string())),
            }
        };
        let session = self.session_for(net);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("kind");
        w.string(Endpoint::V1.label());
        w.key("net");
        w.string(session.net().name());
        w.key("digest");
        w.string(&session.digest().to_hex());
        w.key("results");
        w.begin_array();
        for request in &requests {
            let result = match request {
                V1Request::Analysis(kind) => self.analysis_cached(&session, *kind),
                V1Request::Sweep(spec) => {
                    self.bump(Counter::Sweeps, 1);
                    self.sweep_cached(&session, spec)
                }
                V1Request::Optimize(spec) => {
                    self.bump(Counter::Optimizes, 1);
                    self.optimize_cached(&session, spec)
                }
                V1Request::Whatif(spec) => {
                    self.bump(Counter::Whatifs, 1);
                    Ok(self.whatif_cached(&session, spec))
                }
            };
            let (status, rendered) = match result {
                Ok(body) => (200, body),
                Err(e) => (e.status(), Arc::new(error_object(e.code(), e.message()))),
            };
            w.begin_object();
            w.key("kind");
            w.string(request.kind_name());
            w.key("status");
            w.uint(u64::from(status));
            w.key("body");
            w.raw(&rendered);
            w.end_object();
        }
        w.end_array();
        if trace {
            w.key("trace");
            metrics::write_spans(&mut w, &tpn_obs::trace::snapshot());
        }
        w.end_object();
        (200, Arc::new(w.finish()))
    }

    /// The `/stats` document: request/cache counters plus pool sizing.
    pub fn stats_json(&self) -> String {
        let stats = self.stats_snapshot();
        let rows: Vec<_> = COUNTERS.iter().zip(stats.counters).collect();
        let write_rows = |w: &mut JsonWriter, rows: &[(&CounterDef, u64)], prefix: &str| {
            for (row, value) in rows {
                w.key(row.name.strip_prefix(prefix).unwrap_or(row.name));
                w.uint(*value);
            }
        };
        // The body-cache gauges follow the cache counters; the session
        // rows close the table and render inside the "sessions" object,
        // after its live count.
        let gauges_at = rows
            .iter()
            .rposition(|(row, _)| matches!(row.source, Source::Cache(_)))
            .map_or(0, |i| i + 1);
        let sessions_at = rows
            .iter()
            .position(|(row, _)| matches!(row.source, Source::Sessions(_)))
            .unwrap_or(rows.len());
        let mut w = JsonWriter::new();
        w.begin_object();
        write_rows(&mut w, &rows[..gauges_at], "");
        w.key("entries");
        w.uint(stats.entries);
        w.key("bytes");
        w.uint(stats.bytes);
        write_rows(&mut w, &rows[gauges_at..sessions_at], "");
        w.key("sessions");
        w.begin_object();
        w.key("entries");
        w.uint(stats.session_entries);
        write_rows(&mut w, &rows[sessions_at..], "session_");
        w.end_object();
        // Per-stage artifact counters, aggregated over every session
        // this service created — the observable form of "a /sweep after
        // an /analyze reuses the TRG".
        let counters = self.cache.counters();
        w.key("artifacts");
        w.begin_object();
        for stage in STAGES {
            let snap = counters.snapshot(stage);
            w.key(stage.name());
            w.begin_object();
            w.key("artifact_hits");
            w.uint(snap.hits);
            w.key("artifact_misses");
            w.uint(snap.misses);
            w.key("artifact_builds");
            w.uint(snap.builds);
            w.end_object();
        }
        w.end_object();
        w.key("threads");
        w.uint(stats.threads);
        w.key("queue_cap");
        w.uint(stats.queue_cap);
        // Process identity and resource gauges, appended last so the
        // document stays a byte-stable extension of its pre-retention
        // shape (the golden-capture test compares the prefix).
        let proc = tpn_obs::procinfo::sample();
        w.key("process");
        w.begin_object();
        w.key("version");
        w.string(env!("CARGO_PKG_VERSION"));
        w.key("start_time_ms");
        w.uint(self.start_unix_ms);
        w.key("uptime_seconds");
        w.float(self.started.elapsed().as_secs_f64());
        w.key("rss_bytes");
        w.uint(proc.rss_bytes);
        w.key("open_fds");
        w.uint(proc.open_fds);
        w.key("os_threads");
        w.uint(proc.threads);
        w.end_object();
        // Listener connection counters, appended after `process` so
        // the document stays a byte-stable extension (the golden
        // prefix *and* the `,"process":{"version":…` tail anchor both
        // survive).
        let conn = self.conn.scalars();
        w.key("connections");
        w.begin_object();
        w.key("open");
        w.uint(conn.open);
        w.key("accepted");
        w.uint(conn.accepted);
        w.key("rejected");
        w.uint(conn.rejected);
        w.key("timeouts");
        w.uint(conn.timeouts);
        w.key("drained");
        w.uint(conn.drained);
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The liveness body `/healthz` serves while every objective is
    /// within budget (kept byte-stable for probes that compare it).
    pub fn health_json() -> String {
        r#"{"status":"ok"}"#.to_string()
    }

    /// The graded `/healthz` reply: `(200, ok)` with SLOs in budget
    /// (or metrics disabled — no data, no judgment), `(200, degraded)`
    /// when a burn threshold is crossed, `(503, unhealthy)` when fast
    /// and slow windows both burn past the page threshold.
    pub fn healthz(&self) -> (u16, String) {
        if !self.metrics.enabled() {
            return (200, Service::health_json());
        }
        let now = self.current_frame();
        let status = slo::evaluate(&self.config.slo, &self.ring, &now);
        slo::healthz_json(&status)
    }

    /// The `GET /slo` document: policy, objectives and current
    /// windowed burn rates per endpoint.
    pub fn slo_text(&self) -> String {
        let now = self.current_frame();
        let status = slo::evaluate(&self.config.slo, &self.ring, &now);
        slo::slo_json(&self.config.slo, &status)
    }

    /// The `GET /metrics/history` document for a trailing window,
    /// decimated to `step` seconds per interval; `series` is the
    /// optional comma-separated leaf-column filter.
    pub fn history_text(
        &self,
        window_s: u64,
        step_s: u64,
        series: Option<&str>,
    ) -> Result<String, ServiceError> {
        let filter = history::SeriesFilter::parse(series)?;
        history::history_json(&self.ring, tpn_obs::unix_ms(), window_s, step_s, &filter)
    }

    /// The `GET /alerts` document: rule states, transition history and
    /// active silences.
    pub fn alerts_text(&self) -> String {
        let engine = self.alerts.lock().expect("alert engine lock");
        let silences = self.silences.lock().expect("silence lock");
        alerts::alerts_json(&engine, &silences)
    }

    /// Serve one `POST /alerts/silence` body: validate the rule name
    /// and TTL, prune expired silences, and register a new one.
    pub fn respond_silence(&self, body: &str) -> (u16, String) {
        let parsed = {
            let engine = self.alerts.lock().expect("alert engine lock");
            alerts::parse_silence(body, engine.rules())
        };
        let (rule, ttl_s, comment) = match parsed {
            Ok(parsed) => parsed,
            Err(m) => return (400, error_body(&m)),
        };
        let now = tpn_obs::unix_ms();
        let until_ms = now + ttl_s * 1_000;
        let id = self.silence_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut silences = self.silences.lock().expect("silence lock");
        silences.retain(|s| s.until_ms > now);
        silences.push(Silence {
            id,
            rule: rule.clone(),
            until_ms,
            comment,
        });
        drop(silences);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("id");
        w.uint(id);
        w.key("rule");
        w.string(&rule);
        w.key("until_ms");
        w.uint(until_ms);
        w.end_object();
        (200, w.finish())
    }

    /// A frame of the live counters, as the sampler would push it.
    fn current_frame(&self) -> tpn_obs::series::Frame {
        history::collect_frame(&self.metrics, &self.stats_snapshot(), tpn_obs::unix_ms())
    }

    /// Push one retention-ring frame now and tick the alert evaluator
    /// against it — the sampler thread's tick, also driven directly by
    /// tests and benches for deterministic timelines. No-op with
    /// metrics disabled. Notification lines for unsilenced transitions
    /// are enqueued to the webhook notifier, which never blocks here:
    /// its queue push is bounded and its I/O lives on its own thread.
    pub fn sample_now(&self) {
        if !self.metrics.enabled() {
            return;
        }
        let frame = self.current_frame();
        self.ring.push(&frame);
        let mut engine = self.alerts.lock().expect("alert engine lock");
        let events = engine.tick(&self.ring, &frame);
        if events.is_empty() {
            return;
        }
        let lines: Vec<String> = {
            let silences = self.silences.lock().expect("silence lock");
            events
                .iter()
                .filter(|e| {
                    let rule = &engine.rules()[e.rule];
                    !alerts::is_silenced(&silences, &rule.name, frame.unix_ms)
                })
                .map(|e| alerts::notification_line(&engine.rules()[e.rule], e))
                .collect()
        };
        drop(engine);
        if let Some(notifier) = &self.notifier {
            for line in lines {
                notifier.enqueue(line);
            }
        }
    }

    /// The retention ring (for inspection in tests/benches).
    pub fn series(&self) -> &SeriesRing {
        &self.ring
    }

    /// Every `/stats` number, snapshotted for rendering.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let s = self.cache.stats();
        let (alerts_firing, alerts_pending) = {
            let engine = self.alerts.lock().expect("alert engine lock");
            (engine.firing_count(), engine.pending_count())
        };
        StatsSnapshot {
            counters: std::array::from_fn(|i| match COUNTERS[i].source {
                Source::Service(c) => self.counters[c as usize].load(Ordering::Relaxed),
                Source::Cache(get) | Source::Sessions(get) => get(&s),
            }),
            entries: s.entries as u64,
            bytes: s.bytes as u64,
            session_entries: s.sessions.sessions as u64,
            threads: self.config.threads as u64,
            queue_cap: self.config.queue_cap as u64,
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            start_time_seconds: self.start_unix_ms as f64 / 1_000.0,
            alerts_firing,
            alerts_pending,
            notifications_sent: self.notify.sent.load(Ordering::Relaxed),
            notifications_dropped: self.notify.dropped.load(Ordering::Relaxed),
            notifications_failed: self.notify.failed.load(Ordering::Relaxed),
        }
    }

    /// The `/metrics` document: Prometheus text exposition covering
    /// every `/stats` counter plus the request/stage latency
    /// histograms. Available even with metrics recording disabled (the
    /// request families are simply empty).
    pub fn metrics_text(&self) -> String {
        metrics::render(
            &self.metrics,
            &self.stats_snapshot(),
            self.cache.counters(),
            &self.conn,
        )
    }

    /// The `/debug/requests` document: the `n` most recent completed
    /// request traces, most recent first, one JSON object per line.
    pub fn debug_requests_text(&self, n: usize) -> String {
        metrics::debug_requests_ndjson(&self.metrics.recent_traces(n))
    }

    /// The `/debug/slow` document: the `n` most recent watchdog
    /// captures (requests that breached their latency objective),
    /// most recent first, one JSON object per line.
    pub fn debug_slow_text(&self, n: usize) -> String {
        metrics::debug_slow_ndjson(&self.metrics.recent_slow(n))
    }
}

/// Where an analysis request's front half left it. It only ever lives
/// on the stack between the two halves; boxing the large variant would
/// put an allocation on every in-process miss.
#[allow(clippy::large_enum_variant)]
enum Front {
    /// Answered: a body-cache hit, or refused before the lookup.
    Done(u16, Arc<String>),
    /// A miss or a coalesced wait, for the back half.
    Back(Analysis),
}

impl Front {
    fn done(result: Result<Arc<String>, ServiceError>) -> Front {
        let (status, body) = legacy_reply(result);
        Front::Done(status, body)
    }
}

/// What an analysis request's back half needs: the parsed net and its
/// digest (a leader builds the session from them) and the flight.
struct Analysis {
    kind: RequestKind,
    digest: NetDigest,
    net: TimedPetriNet,
    flight: Flight,
}

/// An analysis request whose front half ran on the listener's reactor
/// ([`Service::front`]), on its way to a pool worker
/// ([`Service::back`]): the back half's input plus the request's open
/// observation — its start and its detached trace.
/// Dropped unrun (the pool refused the job), its flight settles the
/// slot and the request goes unrecorded, like a request the pool
/// never ran.
pub(crate) struct Pending {
    observation: Option<(u64, Detached)>,
    analysis: Analysis,
}

/// Run a request handler, turning a panic into `panicked()`'s reply. A
/// panicking request must still answer its client and close its trace:
/// the epoll listener would otherwise wait forever for the completion
/// (or, on the reactor, die), and this thread's collector would stay
/// active, passing every later request through uncounted.
fn guarded<T>(f: impl FnOnce() -> T, panicked: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| panicked())
}

/// The 500 reply to a panicked request.
fn panic_reply() -> (u16, Arc<String>) {
    let message = "the request handler panicked";
    (500, Arc::new(error_object("internal", message)))
}

/// Render a result in the legacy routes' reply shape: 200 with the body
/// on success, `{"error": "<prefix>: <message>"}` with the mapped
/// status on failure.
fn legacy_reply(result: Result<Arc<String>, ServiceError>) -> (u16, Arc<String>) {
    match result {
        Ok(body) => (200, body),
        Err(e) => (e.status(), Arc::new(error_body(&e.to_string()))),
    }
}

/// Parse a spec-carrying request body: a JSON object whose `"net"`
/// member holds the `.tpn` text and whose remaining members form the
/// spec — the common shape of `/sweep`, `/optimize` and `/whatif`.
fn parse_spec_body<S>(
    body: &str,
    from_json: impl FnOnce(&crate::jsonval::Json) -> Result<S, ServiceError>,
) -> Result<(TimedPetriNet, S), ServiceError> {
    let _span = tpn_obs::trace::span("parse");
    let doc = crate::jsonval::Json::parse(body)
        .map_err(|e| ServiceError::BadRequest(format!("request body: {e}")))?;
    let net_text = doc
        .get("net")
        .and_then(crate::jsonval::Json::as_str)
        .ok_or_else(|| {
            ServiceError::BadRequest(
                "request body needs a \"net\" member with the .tpn text".to_string(),
            )
        })?;
    let net = parse_tpn(net_text).map_err(|e| ServiceError::Parse(e.to_string()))?;
    let spec = from_json(&doc)?;
    Ok((net, spec))
}

pub(crate) fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The JSON content type every route used before `/metrics` and
/// `/debug/requests` introduced non-JSON bodies.
pub(crate) const JSON: &str = "application/json";

/// The Prometheus text-exposition content type (format version 0.0.4).
const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Newline-delimited JSON — the `/debug/requests` body.
const NDJSON: &str = "application/x-ndjson";

/// A `u64` query parameter, `None` when absent.
fn query_param(req: &Request, name: &str) -> Result<Option<u64>, ServiceError> {
    let Some((_, v)) = req.query.iter().find(|(k, _)| k == name) else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| ServiceError::BadRequest(format!("bad {name} value {v:?}")))
}

/// A `u64` query parameter, defaulting when absent.
fn query_u64(req: &Request, name: &str, default: u64) -> Result<u64, ServiceError> {
    Ok(query_param(req, name)?.unwrap_or(default))
}

/// The request body as text, or the 400 reply to one that is not UTF-8.
fn utf8_body(req: &Request) -> Result<&str, (u16, Arc<String>)> {
    std::str::from_utf8(&req.body)
        .map_err(|_| (400, Arc::new(error_body("request body is not UTF-8"))))
}

/// Dispatch one request through [`ROUTES`]. Returns the status, the
/// response content type, and the body.
pub(crate) fn route(service: &Service, req: &Request) -> (u16, &'static str, Arc<String>) {
    let json = |(status, body)| (status, JSON, body);
    let Some(&Route {
        endpoint,
        method,
        kind,
        ..
    }) = Route::at(&req.path)
    else {
        return json(service.observed(Endpoint::Other, || {
            let message = format!("no such endpoint {}", req.path);
            (404, Arc::new(error_body(&message)))
        }));
    };
    if req.method != method {
        return json(service.observed(Endpoint::Other, || {
            let message = format!("method {} not allowed", req.method);
            (405, Arc::new(error_body(&message)))
        }));
    }
    if let Some(kind) = kind {
        // One observation around the whole request, so kind-parse and
        // budget-cap 400s are counted under the route's endpoint.
        return json(service.observed(endpoint, || {
            service.analysis_back(service.analysis_route_front(req, kind))
        }));
    }
    // The `n` most recent traces of a ring of `cap`, as NDJSON.
    let traces = |cap: usize, text: &dyn Fn(usize) -> String| {
        let (status, body) = service.observed(endpoint, || {
            let n = query_u64(req, "n", 16).map(|n| usize::try_from(n).unwrap_or(usize::MAX));
            legacy_reply(n.map(|n| Arc::new(text(n.min(cap)))))
        });
        (status, if status == 200 { NDJSON } else { JSON }, body)
    };
    let document =
        |f: &dyn Fn() -> String| json(service.observed(endpoint, || (200, Arc::new(f()))));
    match endpoint {
        Endpoint::Healthz => json(service.observed(endpoint, || {
            let (status, body) = service.healthz();
            (status, Arc::new(body))
        })),
        Endpoint::Slo => document(&|| service.slo_text()),
        Endpoint::MetricsHistory => json(service.observed(endpoint, || {
            let params =
                query_u64(req, "window", 300).and_then(|w| Ok((w, query_u64(req, "step", 5)?)));
            let series = req
                .query
                .iter()
                .find(|(k, _)| k == "series")
                .map(|(_, v)| v.as_str());
            legacy_reply(
                params
                    .and_then(|(w, s)| service.history_text(w, s, series))
                    .map(Arc::new),
            )
        })),
        Endpoint::Alerts => document(&|| service.alerts_text()),
        Endpoint::AlertsSilence => json(service.observed(endpoint, || match utf8_body(req) {
            Ok(body) => {
                let (status, body) = service.respond_silence(body);
                (status, Arc::new(body))
            }
            Err(reply) => reply,
        })),
        Endpoint::DebugSlow => traces(metrics::SLOW_RING_CAP, &|n| service.debug_slow_text(n)),
        Endpoint::Stats => document(&|| service.stats_json()),
        Endpoint::Metrics => {
            let (status, body) =
                service.observed(endpoint, || (200, Arc::new(service.metrics_text())));
            (status, PROMETHEUS, body)
        }
        Endpoint::DebugRequests => {
            traces(metrics::TRACE_RING_CAP, &|n| service.debug_requests_text(n))
        }
        Endpoint::Sweep => json(utf8_body(req).map_or_else(|e| e, |b| service.respond_sweep(b))),
        Endpoint::Optimize => {
            json(utf8_body(req).map_or_else(|e| e, |b| service.respond_optimize(b)))
        }
        Endpoint::Whatif => json(utf8_body(req).map_or_else(|e| e, |b| service.respond_whatif(b))),
        Endpoint::V1 => json(utf8_body(req).map_or_else(|e| e, |b| service.respond_v1(b))),
        _ => unreachable!("plain analyses are answered above; no path routes to `other`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLE: &str = "net c\nplace a init 1\nplace b\n\
        trans go in a out b firing 2\ntrans back in b out a firing 3";

    #[test]
    fn respond_caches_by_content() {
        let svc = Service::new(ServiceConfig::default());
        let (s1, b1) = svc.respond(RequestKind::Analyze, CYCLE);
        assert_eq!(s1, 200);
        // same net, different declaration order → same digest → hit
        let permuted = "net c\nplace b\nplace a init 1\n\
            trans back in b out a firing 3\ntrans go in a out b firing 2";
        let (s2, b2) = svc.respond(RequestKind::Analyze, permuted);
        assert_eq!(s2, 200);
        assert_eq!(b1, b2, "cache hit must be byte-identical");
        let stats = svc.cache().stats();
        assert_eq!(stats.computations, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn respond_maps_errors_to_statuses() {
        let svc = Service::new(ServiceConfig::default());
        let (status, body) = svc.respond(RequestKind::Analyze, "not a net");
        assert_eq!(status, 400);
        assert!(body.contains("parse error"), "{body}");
        let (status, body) = svc.respond(
            RequestKind::Analyze,
            "net d\nplace a init 1\nplace b\ntrans t in a out b firing 1",
        );
        assert_eq!(status, 422);
        assert!(body.contains("analysis error"), "{body}");
    }

    #[test]
    fn stats_json_shape() {
        let svc = Service::new(ServiceConfig::default());
        let (_, _) = svc.respond(RequestKind::Graph, CYCLE);
        let stats = svc.stats_json();
        assert!(stats.contains(r#""requests":1"#), "{stats}");
        assert!(stats.contains(r#""computations":1"#), "{stats}");
        assert!(stats.contains(r#""threads":4"#), "{stats}");
    }

    /// Every registry row reaches `/stats`, `/metrics` and the ring with
    /// its own value: service-owned counters are bumped to distinct
    /// values, so two rows reading one slot would show.
    #[test]
    fn every_counter_row_is_wired_to_stats_metrics_and_ring() {
        let svc = Service::new(ServiceConfig::default());
        let (_, _) = svc.respond(RequestKind::Graph, CYCLE);
        for (i, row) in COUNTERS.iter().enumerate() {
            if let Source::Service(counter) = row.source {
                svc.bump(counter, 1_000 + i as u64);
            }
        }
        let cache = svc.cache.stats();
        let stats = crate::jsonval::Json::parse(&svc.stats_json()).expect("/stats parses");
        let text = svc.metrics_text();
        let schema = history::schema();
        let frame = svc.current_frame();
        for (i, row) in COUNTERS.iter().enumerate() {
            let want = match row.source {
                // The graph request above counted one request already.
                Source::Service(c) => 1_000 + i as u64 + u64::from(c == Counter::Requests),
                Source::Cache(get) | Source::Sessions(get) => get(&cache),
            };
            // The parser rejects duplicate keys, so a hit is the only one
            // in its object.
            let (object, key) = match row.source {
                Source::Sessions(_) => (
                    stats.get("sessions").expect("sessions object"),
                    row.name.strip_prefix("session_").expect("session_ prefix"),
                ),
                _ => (&stats, row.name),
            };
            let got = object.get(key).and_then(crate::jsonval::Json::as_num);
            assert_eq!(got, Some(want.to_string().as_str()), "/stats {key}");
            let type_line = format!("# TYPE {} counter\n", row.family);
            assert_eq!(text.matches(&type_line).count(), 1, "{type_line}");
            let samples: Vec<&str> = text
                .lines()
                .filter(|l| l.split(' ').next() == Some(row.family))
                .collect();
            assert_eq!(samples, [format!("{} {want}", row.family)], "{text}");
            assert_eq!(schema.counter_index(row.name), Some(i), "{}", row.name);
            assert_eq!(frame.counters[i], want, "ring column {}", row.name);
            let rule = format!(
                r#"{{"defaults": false, "rules": [{{"name": "r", "signal": "counter_rate",
                    "series": "{}", "threshold": 1}}]}}"#,
                row.name
            );
            assert!(AlertsConfig::from_json(&rule).is_ok(), "{rule}");
        }
    }

    #[test]
    fn query_parsing() {
        let req = Request {
            method: "POST".into(),
            path: "/simulate".into(),
            query: vec![("events".into(), "100".into()), ("seed".into(), "7".into())],
            body: Vec::new(),
            close: false,
        };
        let simulate = Route::at("/simulate").and_then(|r| r.kind).unwrap();
        assert_eq!(
            simulate
                .with_params(u64::MAX, |name| query_param(&req, name))
                .unwrap(),
            RequestKind::Simulate {
                events: 100,
                seed: 7
            }
        );
        let bad = Request {
            method: "POST".into(),
            path: "/simulate".into(),
            query: vec![("events".into(), "many".into())],
            body: Vec::new(),
            close: false,
        };
        assert!(simulate
            .with_params(u64::MAX, |name| query_param(&bad, name))
            .is_err());
    }

    #[test]
    fn double_crlf_scanner() {
        assert_eq!(find_double_crlf(b"a\r\n\r\nbody"), Some(1));
        assert_eq!(find_double_crlf(b"no end"), None);
    }
}
