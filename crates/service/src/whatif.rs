//! The what-if request: one base net, a batch of timing perturbations,
//! the same analyses run for each perturbed net.
//!
//! A what-if request names a list of plain analyses (`requests`,
//! default `["analyze"]`) and a batch of **timing perturbations** —
//! partial [`TimingAssignment`]s over the
//! base net's `E(t)`/`F(t)`/`f(t)` attributes. The service answers each
//! perturbation with an ordinary [`Session`](tpn_session::Session) over
//! `base.with_timing(delta)`, so every entry equals the `/v1` entry for
//! the perturbed net: the same body on success, the same error object
//! on failure.
//!
//! ## Spec schema
//!
//! ```json
//! {
//!   "requests": ["analyze", "correctness"],
//!   "perturbations": [
//!     {"E(t3)": "500"},
//!     {"E(t3)": "2000", "F(t2)": "3/2"}
//!   ]
//! }
//! ```
//!
//! `requests` may name `analyze`, `graph`, `correctness` and
//! `invariants` (the exact, structure-derived analyses; `simulate`
//! re-runs from scratch by construction and `sweep`/`optimize` already
//! batch internally). The HTTP request body is this object plus a
//! `"net"` member carrying the `.tpn` text.
//!
//! ## Failure isolation and caching
//!
//! Each perturbation succeeds or fails alone: an unknown attribute or a
//! negative value yields that entry's 400 `bad_request` object, and a
//! perturbed net that fails to analyse yields the 422 `analysis` object
//! `/v1` returns for it, without failing the siblings. Successful
//! entries are cached under `(structural digest, timing hash, requests
//! hash)` — see [`RequestKind::Whatif`] — so two batches over
//! structurally identical nets share every perturbation they have in
//! common, whatever else each batch asks for. Each perturbed net's
//! session and analysis bodies live under its own full digest, the
//! lines a plain `/analyze` of that net hits too.

use tpn_net::TimingAssignment;

use crate::analysis::RequestKind;
use crate::json::JsonWriter;
use crate::jsonval::Json;
use crate::spec::Spec;
use crate::sweep::{bad, rational_value};
use crate::ServiceError;

/// Most perturbations one what-if batch may carry.
pub const MAX_PERTURBATIONS: usize = 256;

/// Most analyses one what-if batch may run per perturbation.
pub const MAX_WHATIF_REQUESTS: usize = 8;

/// A parsed, validated what-if specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhatifSpec {
    /// The analyses to run per perturbation, in request order.
    pub requests: Vec<RequestKind>,
    /// The timing perturbations, in request order. Each is a *partial*
    /// assignment: unnamed attributes keep their base values.
    pub perturbations: Vec<TimingAssignment>,
}

impl WhatifSpec {
    /// Parse a spec from a JSON object. A `"net"` member is ignored
    /// here (the HTTP endpoint carries the net text in-body); any other
    /// unknown member is rejected so typos cannot silently change the
    /// request's meaning.
    pub fn from_json(doc: &Json) -> Result<WhatifSpec, ServiceError> {
        let members = doc
            .as_obj()
            .ok_or_else(|| bad(format!("spec must be an object, got {}", doc.kind())))?;
        for (k, _) in members {
            if !matches!(k.as_str(), "net" | "requests" | "perturbations") {
                return Err(bad(format!("unknown spec member {k:?}")));
            }
        }
        let requests = match doc.get("requests") {
            None => vec![RequestKind::Analyze],
            Some(json) => {
                let names = json
                    .as_arr()
                    .ok_or_else(|| bad("\"requests\" must be an array of kind names"))?;
                if names.is_empty() {
                    return Err(bad("\"requests\" must not be empty"));
                }
                if names.len() > MAX_WHATIF_REQUESTS {
                    return Err(bad(format!(
                        "more than {MAX_WHATIF_REQUESTS} requests per perturbation"
                    )));
                }
                let mut kinds = Vec::with_capacity(names.len());
                for n in names {
                    let name = n
                        .as_str()
                        .ok_or_else(|| bad("each request must be a kind name string"))?;
                    // Every plain analysis but simulate, which re-runs
                    // from scratch by construction.
                    let kind = RequestKind::named(name)
                        .filter(|kind| !matches!(kind, RequestKind::Simulate { .. }))
                        .ok_or_else(|| {
                            bad(format!(
                                "unknown whatif request kind {name:?} (expected analyze, \
                                 graph, correctness or invariants)"
                            ))
                        })?;
                    if kinds.contains(&kind) {
                        return Err(bad(format!("duplicate request kind {name:?}")));
                    }
                    kinds.push(kind);
                }
                kinds
            }
        };
        let perturbations_json = doc
            .get("perturbations")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("spec needs a \"perturbations\" array"))?;
        if perturbations_json.is_empty() {
            return Err(bad("\"perturbations\" must not be empty"));
        }
        if perturbations_json.len() > MAX_PERTURBATIONS {
            return Err(bad(format!("more than {MAX_PERTURBATIONS} perturbations")));
        }
        let mut perturbations = Vec::with_capacity(perturbations_json.len());
        for p in perturbations_json {
            let entries = p.as_obj().ok_or_else(|| {
                bad(format!(
                    "each perturbation must be an object mapping attribute names to \
                     values, got {}",
                    p.kind()
                ))
            })?;
            if entries.is_empty() {
                return Err(bad("a perturbation must re-time at least one attribute"));
            }
            let mut assignment = TimingAssignment::new();
            for (attr, value) in entries {
                assignment.set(attr.clone(), rational_value(value, attr)?);
            }
            perturbations.push(assignment);
        }
        Ok(WhatifSpec {
            requests,
            perturbations,
        })
    }

    /// The canonical one-line JSON rendering: fixed member order,
    /// defaults materialised, perturbation entries in attribute-name
    /// order, rationals in reduced `n/d` form. Two specs with the same
    /// canonical form are the same request.
    pub fn canonical(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_requests(&mut w);
        w.key("perturbations");
        w.begin_array();
        for p in &self.perturbations {
            w.begin_object();
            for (attr, value) in p.iter() {
                w.key(attr);
                w.rational(value);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The canonical rendering of the `requests` half alone. Its
    /// [`spec_hash`](crate::spec::spec_hash) is the `spec` component of
    /// each perturbation's cache key: entries are addressed by *what is
    /// asked of which timing point*, never by which batch asked — two
    /// batches with different perturbation lists share every common
    /// point.
    pub fn requests_canonical(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_requests(&mut w);
        w.end_object();
        w.finish()
    }

    fn write_requests(&self, w: &mut JsonWriter) {
        w.key("requests");
        w.begin_array();
        for r in &self.requests {
            w.string(r.name());
        }
        w.end_array();
    }
}

impl Spec for WhatifSpec {
    fn canonical(&self) -> String {
        WhatifSpec::canonical(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_rational::Rational;

    #[test]
    fn spec_parses_with_defaults_and_canonicalises() {
        let doc =
            Json::parse(r#"{"perturbations":[{"E(t3)":"500"},{"F(t2)":1.5,"E(t3)":"2000"}]}"#)
                .unwrap();
        let spec = WhatifSpec::from_json(&doc).unwrap();
        assert_eq!(spec.requests, vec![RequestKind::Analyze]);
        assert_eq!(spec.perturbations.len(), 2);
        assert_eq!(
            spec.perturbations[1].get("F(t2)"),
            Some(&Rational::new(3, 2))
        );
        assert_eq!(
            spec.canonical(),
            r#"{"requests":["analyze"],"perturbations":[{"E(t3)":"500"},{"E(t3)":"2000","F(t2)":"3/2"}]}"#
        );
        assert_eq!(spec.requests_canonical(), r#"{"requests":["analyze"]}"#);
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let a = WhatifSpec::from_json(
            &Json::parse(r#"{"perturbations":[{"E(t3)":"500","F(t2)":"2"}]}"#).unwrap(),
        )
        .unwrap();
        let b = WhatifSpec::from_json(
            &Json::parse(r#"{"perturbations":[{"F(t2)":"4/2","E(t3)":"500.0"}]}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(Spec::hash(&a), Spec::hash(&b));
    }

    #[test]
    fn spec_rejects_malformed_documents() {
        for (body, why) in [
            (r#"[]"#, "not an object"),
            (
                r#"{"perturbations":[{"E(t3)":"1"}],"extra":1}"#,
                "unknown member",
            ),
            (r#"{"perturbations":[]}"#, "empty perturbations"),
            (
                r#"{"requests":[],"perturbations":[{"E(t3)":"1"}]}"#,
                "empty requests",
            ),
            (
                r#"{"requests":["simulate"],"perturbations":[{"E(t3)":"1"}]}"#,
                "simulate is not incremental",
            ),
            (
                r#"{"requests":["analyze","analyze"],"perturbations":[{"E(t3)":"1"}]}"#,
                "duplicate kind",
            ),
            (r#"{"perturbations":[{}]}"#, "empty perturbation"),
            (r#"{"perturbations":[{"E(t3)":true}]}"#, "non-numeric value"),
            (r#"{"perturbations":["E(t3)"]}"#, "non-object perturbation"),
        ] {
            let doc = Json::parse(body).unwrap();
            let e = WhatifSpec::from_json(&doc).unwrap_err();
            assert_eq!(e.status(), 400, "{why}");
            assert_eq!(e.code(), "bad_request", "{why}");
        }
    }

    #[test]
    fn caps_are_enforced() {
        let many: Vec<String> = (0..=MAX_PERTURBATIONS)
            .map(|i| format!(r#"{{"E(t{i})":"1"}}"#))
            .collect();
        let doc = Json::parse(&format!(r#"{{"perturbations":[{}]}}"#, many.join(","))).unwrap();
        assert!(WhatifSpec::from_json(&doc).is_err());
    }
}
