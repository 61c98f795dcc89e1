//! `tpn-service` — the analysis daemon.
//!
//! Every `tpn` CLI invocation re-parses its net and re-runs the full
//! exact pipeline from scratch. This crate turns the workspace into a
//! *serving* system: a request/response front end where repeated and
//! concurrent analyses of the same net are answered from a
//! content-addressed result cache. Layers, bottom-up:
//!
//! | module | contents |
//! |---|---|
//! | [`json`] | compact hand-rolled JSON writer (std-only, no serde) |
//! | [`jsonval`] | minimal JSON parser (the `/sweep` request body) |
//! | [`analysis`] | request kinds and their JSON renderings |
//! | [`spec`] | the [`Spec`] trait: canonical spec rendering + 128-bit hash |
//! | [`sweep`] | parameter-sweep specs and the compiled sweep executor |
//! | [`optimize`] | parameter-synthesis specs and the certified optimizer front end |
//! | [`whatif`] | what-if batches: one base net, many timing perturbations |
//! | [`v1`] | the unified `POST /v1` envelope: many analyses, one session |
//! | [`cache`] | the one cache keyed by [`tpn_net::NetDigest`]: each net's [`tpn_session::Session`] and response bodies, LRU, with request coalescing |
//! | [`metrics`] | the route table [`ROUTES`], per-endpoint latency histograms, `GET /metrics` exposition, request-trace ring |
//! | [`history`] | time-series retention ring + the `GET /metrics/history` document |
//! | [`slo`] | per-endpoint objectives, burn-rate health, `GET /slo` and the graded `/healthz` |
//! | [`alerts`] | declarative alert rules over the retention ring, `GET /alerts`, silences, webhook notifier |
//! | [`executor`] | fixed thread pool over a bounded work queue |
//! | [`http`] | the [`Service`], its configuration and the HTTP route table |
//! | `aio_server` | the epoll listener (Linux only): keep-alive, pipelining, admission control, streamed responses |
//!
//! There is **one cache**, keyed by the net's content digest. The
//! digest is declaration-order-independent, so any `.tpn` text
//! describing the same net shares an entry. An entry holds the net's
//! memoizing [`tpn_session::Session`] and its response bodies by
//! request kind: requests of *different* kinds against the same net
//! share the expensive pipeline artifacts (TRG, lifted domain, compiled
//! program), and concurrent identical requests are coalesced into a
//! single pipeline execution. Bodies are bounded by one byte budget,
//! sessions by count.
//!
//! # In-process use
//!
//! ```
//! use tpn_service::{RequestKind, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig::default());
//! let net = "net c\nplace a init 1\nplace b\n\
//!            trans go in a out b firing 2\ntrans back in b out a firing 3";
//! let (status, body) = service.respond(RequestKind::Analyze, net);
//! assert_eq!(status, 200);
//! assert!(body.contains("\"total_weight\":\"5\""));
//! // the second request is a cache hit: byte-identical, no recompute
//! let (_, again) = service.respond(RequestKind::Analyze, net);
//! assert_eq!(body, again);
//! assert_eq!(service.cache().stats().computations, 1);
//! ```
//!
//! # As a daemon (Linux)
//!
//! ```no_run
//! use std::sync::Arc;
//! use tpn_service::{spawn, Service, ServiceConfig};
//!
//! let service = Arc::new(Service::new(ServiceConfig::default()));
//! let handle = spawn(service, "127.0.0.1:7070").unwrap();
//! println!("serving on {}", handle.addr());
//! handle.wait(); // forever (shutdown comes from dropping the handle)
//! ```

#[cfg(target_os = "linux")]
mod aio_server;
pub mod alerts;
pub mod analysis;
pub mod cache;
pub mod executor;
pub mod history;
pub mod http;
pub mod json;
pub mod jsonval;
pub mod metrics;
pub mod optimize;
pub mod slo;
pub mod spec;
pub mod sweep;
pub mod v1;
pub mod whatif;

#[cfg(target_os = "linux")]
pub use aio_server::{spawn, ServerHandle};
pub use alerts::{AlertsConfig, RuleSpec, Silence, WebhookConfig};
pub use analysis::{
    run, run_with_session, RequestKind, ServiceError, DEFAULT_SIM_EVENTS, DEFAULT_SIM_SEED,
};
pub use cache::{AnalysisCache, CacheKey, CacheStats, SessionStats};
pub use executor::{PoolClosed, ThreadPool};
pub use http::{AioConfig, LogConfig, Service, ServiceConfig};
pub use jsonval::Json;
pub use metrics::{
    ConnScalars, ConnStats, Endpoint, RequestTrace, Route, ServiceMetrics, SlowTrace, ROUTES,
    SLOW_RING_CAP, TRACE_RING_CAP,
};
pub use optimize::{optimize_json, BoxAxisSpec, OptimizeSpec};
pub use slo::{SloConfig, DEFAULT_OBJECTIVE};
pub use spec::Spec;
pub use sweep::{spec_hash, sweep_json, SweepBackend, SweepSpec};
pub use v1::{parse_envelope, V1Request, MAX_V1_REQUESTS};
pub use whatif::{WhatifSpec, MAX_PERTURBATIONS, MAX_WHATIF_REQUESTS};
