//! The versioned unified request envelope: `POST /v1`.
//!
//! One HTTP request carries one net and *many* analyses, all executed
//! against one shared [`tpn_session::Session`] — the paper's derivation
//! chain is materialised once and every sub-request reads from it:
//!
//! ```json
//! {
//!   "net": "net c\nplace a init 1\n…",
//!   "requests": [
//!     {"kind": "analyze"},
//!     {"kind": "simulate", "events": 20000, "seed": 7},
//!     {"kind": "sweep", "spec": {"targets": ["throughput:t7"], "sweep": […]}},
//!     {"kind": "optimize", "spec": {"target": "throughput:t7", "box": […]}},
//!     {"kind": "whatif", "spec": {"perturbations": [{"E(t3)": "500"}]}}
//!   ]
//! }
//! ```
//!
//! The response is one document wrapping each sub-request's *exact*
//! legacy body (byte-identical to what the standalone endpoint would
//! return, and cached under the same `(digest, kind)` keys — a `/v1`
//! sub-request can hit a cache line a legacy request populated and
//! vice versa):
//!
//! ```json
//! {"kind":"v1","net":"c","digest":"…","results":[
//!   {"kind":"analyze","status":200,"body":{…}},
//!   {"kind":"sweep","status":200,"body":{…}}
//! ]}
//! ```
//!
//! Envelope-shaped problems (malformed JSON, unknown members, a
//! `.tpn` text that does not parse, too many requests) are a single
//! 400; per-analysis failures surface as that entry's `status`/`body`
//! without failing the siblings.

use crate::analysis::{RequestKind, ServiceError};
use crate::jsonval::Json;
use crate::metrics::{Endpoint, Route};
use crate::optimize::OptimizeSpec;
use crate::sweep::{bad, SweepSpec};
use crate::whatif::WhatifSpec;

/// Most analyses one envelope may carry.
pub const MAX_V1_REQUESTS: usize = 64;

/// One parsed sub-request of a `/v1` envelope.
#[derive(Debug, Clone)]
pub enum V1Request {
    /// A plain analysis (`analyze`, `graph`, `correctness`,
    /// `invariants`, `simulate`).
    Analysis(RequestKind),
    /// A parameter sweep with its full grid spec.
    Sweep(SweepSpec),
    /// A parameter synthesis with its full box spec.
    Optimize(OptimizeSpec),
    /// An incremental what-if batch with its perturbation spec.
    Whatif(WhatifSpec),
}

impl V1Request {
    /// The `kind` string echoed in the response entry.
    pub fn kind_name(&self) -> &'static str {
        match self {
            V1Request::Analysis(kind) => kind.name(),
            V1Request::Sweep(_) => Endpoint::Sweep.label(),
            V1Request::Optimize(_) => Endpoint::Optimize.label(),
            V1Request::Whatif(_) => Endpoint::Whatif.label(),
        }
    }
}

/// Parse a `/v1` envelope body into the net text, the request list and
/// the opt-in `"trace"` flag (when true, the response carries the
/// request's span trace). `max_sim_events` bounds `simulate` budgets
/// exactly like the legacy query-parameter route.
pub fn parse_envelope(
    body: &str,
    max_sim_events: u64,
) -> Result<(String, Vec<V1Request>, bool), ServiceError> {
    let doc = Json::parse(body).map_err(|e| bad(format!("request body: {e}")))?;
    let members = doc
        .as_obj()
        .ok_or_else(|| bad(format!("envelope must be an object, got {}", doc.kind())))?;
    for (k, _) in members {
        if !matches!(k.as_str(), "net" | "requests" | "trace") {
            return Err(bad(format!("unknown envelope member {k:?}")));
        }
    }
    let trace = match doc.get("trace") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad(format!("\"trace\" must be a boolean, got {}", v.kind())))?,
    };
    let net_text = doc
        .get("net")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("envelope needs a \"net\" member with the .tpn text"))?
        .to_string();
    let requests_json = doc
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("envelope needs a \"requests\" array"))?;
    if requests_json.is_empty() {
        return Err(bad("\"requests\" must not be empty"));
    }
    if requests_json.len() > MAX_V1_REQUESTS {
        return Err(bad(format!("more than {MAX_V1_REQUESTS} requests")));
    }
    let mut requests = Vec::with_capacity(requests_json.len());
    for r in requests_json {
        requests.push(parse_request(r, max_sim_events)?);
    }
    Ok((net_text, requests, trace))
}

/// One entry of the envelope. Its `kind` is the label of a plain
/// analysis route or of a spec-carrying one; a plain kind takes its
/// parameters as members, a spec-carrying kind its `spec`.
fn parse_request(r: &Json, max_sim_events: u64) -> Result<V1Request, ServiceError> {
    let members = r
        .as_obj()
        .ok_or_else(|| bad(format!("each request must be an object, got {}", r.kind())))?;
    let kind = r
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("each request needs a \"kind\" string"))?;
    let route = Route::labelled(kind)
        .filter(|route| {
            route.kind.is_some()
                || matches!(
                    route.endpoint,
                    Endpoint::Sweep | Endpoint::Optimize | Endpoint::Whatif
                )
        })
        .ok_or_else(|| {
            bad(format!(
                "unknown request kind {kind:?} (expected analyze, graph, correctness, \
                 invariants, simulate, sweep, optimize or whatif)"
            ))
        })?;
    let allowed = route.kind.map_or(&["spec"][..], RequestKind::params);
    for (k, _) in members {
        if k != "kind" && !allowed.contains(&k.as_str()) {
            return Err(bad(format!("unknown member {k:?} of a {kind} request")));
        }
    }
    if let Some(plain) = route.kind {
        let kind = plain.with_params(max_sim_events, |name| {
            r.get(name).map(|v| v.number(name).map_err(bad)).transpose()
        })?;
        return Ok(V1Request::Analysis(kind));
    }
    let spec = r.get("spec").ok_or_else(|| {
        let a = if kind.starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        };
        bad(format!("{a} {kind} request needs a \"spec\" object"))
    })?;
    if spec.get("net").is_some() {
        return Err(bad(format!(
            "the net comes from the envelope's \"net\" member; drop \"net\" from the {kind} spec"
        )));
    }
    Ok(match route.endpoint {
        Endpoint::Sweep => V1Request::Sweep(SweepSpec::from_json(spec)?),
        Endpoint::Optimize => V1Request::Optimize(OptimizeSpec::from_json(spec)?),
        _ => V1Request::Whatif(WhatifSpec::from_json(spec)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_parses_every_kind() {
        let body = r#"{"net":"net c","requests":[
            {"kind":"analyze"},
            {"kind":"graph"},
            {"kind":"simulate","events":100,"seed":7},
            {"kind":"sweep","spec":{"targets":["cycle_time"],"sweep":[{"symbol":"F(go)","values":["1"]}]}},
            {"kind":"optimize","spec":{"target":"cycle_time","box":[{"symbol":"F(go)","from":"1","to":"2"}]}},
            {"kind":"whatif","spec":{"perturbations":[{"F(go)":"3/2"}]}}
        ]}"#;
        let (net, requests, trace) = parse_envelope(body, 1000).unwrap();
        assert_eq!(net, "net c");
        assert!(!trace, "trace defaults to off");
        assert_eq!(requests.len(), 6);
        assert!(matches!(
            requests[2],
            V1Request::Analysis(RequestKind::Simulate {
                events: 100,
                seed: 7
            })
        ));
        assert_eq!(requests[3].kind_name(), "sweep");
        assert_eq!(requests[4].kind_name(), "optimize");
        assert_eq!(requests[5].kind_name(), "whatif");
    }

    #[test]
    fn envelope_accepts_the_trace_flag() {
        let body = r#"{"net":"net c","trace":true,"requests":[{"kind":"analyze"}]}"#;
        let (_, _, trace) = parse_envelope(body, 1000).unwrap();
        assert!(trace);
    }

    #[test]
    fn envelope_rejects_malformed_requests() {
        for (body, why) in [
            ("[]", "not an object"),
            (r#"{"requests":[{"kind":"analyze"}]}"#, "missing net"),
            (r#"{"net":"n","requests":[]}"#, "empty requests"),
            (r#"{"net":"n"}"#, "missing requests"),
            (
                r#"{"net":"n","requests":[{"kind":"frobnicate"}]}"#,
                "unknown kind",
            ),
            (
                r#"{"net":"n","requests":[{"kind":"analyze","extra":1}]}"#,
                "unknown member",
            ),
            (
                r#"{"net":"n","requests":[{"kind":"sweep"}]}"#,
                "sweep without spec",
            ),
            (
                r#"{"net":"n","requests":[{"kind":"simulate","events":100000}]}"#,
                "events over the cap",
            ),
            (
                r#"{"net":"n","requests":[{"kind":"sweep","spec":{"net":"x","targets":["cycle_time"],"sweep":[{"symbol":"F(g)","values":["1"]}]}}]}"#,
                "net inside the spec",
            ),
            (
                r#"{"net":"n","surprise":1,"requests":[{"kind":"analyze"}]}"#,
                "unknown envelope member",
            ),
            (
                r#"{"net":"n","requests":[{"kind":"whatif"}]}"#,
                "whatif without spec",
            ),
            (
                r#"{"net":"n","requests":[{"kind":"whatif","spec":{"net":"x","perturbations":[{"F(g)":"1"}]}}]}"#,
                "net inside the whatif spec",
            ),
            (
                r#"{"net":"n","trace":1,"requests":[{"kind":"analyze"}]}"#,
                "non-boolean trace",
            ),
        ] {
            let e = parse_envelope(body, 1000).unwrap_err();
            assert_eq!(e.status(), 400, "{why}");
        }
    }
}
