//! The parameter-synthesis request: JSON spec in, certified optimum out.
//!
//! An optimize request names one performance-measure **target**, a
//! **goal** (`max`/`min`) and a **box** of per-attribute bounds over the
//! net's timing/frequency symbols. The boxed attributes are lifted to
//! symbols ([`tpn_reach::LiftedDomain`]), the target's closed form is
//! exported, and [`tpn_opt::optimize`] finds the best point of
//! box ∩ validity-region — with an exact Sturm-sequence certificate for
//! one-axis boxes, and grid-seeded gradient refinement (exactly
//! re-verified) otherwise. [`optimize_json`] is the single producer of
//! optimize JSON in the workspace: `POST /optimize` and `tpn optimize`
//! both call it, so server and CLI output are byte-identical and cached
//! responses equal fresh ones.
//!
//! ## Spec schema
//!
//! ```json
//! {
//!   "target": "throughput:t7",
//!   "goal": "max",
//!   "box": [{"symbol": "E(t3)", "from": "300", "to": "2050"}],
//!   "seed_points": 4096,
//!   "tolerance": "1/1048576"
//! }
//! ```
//!
//! `goal` defaults to `"max"`, `seed_points` (the multivariate seeding
//! budget) to 4096, `tolerance` (the univariate bracket width) to a
//! `2^-20` fraction of the box width. The HTTP request body is this
//! object plus a `"net"` member carrying the `.tpn` text. Results are
//! cached under `(net digest, spec hash)` exactly like sweeps.
//!
//! ## Response
//!
//! `point` maps each boxed symbol to its optimal exact-rational value;
//! `value`/`value_f64` give the objective there; `certified` says
//! whether `certificate` is an exact proof (see
//! [`tpn_core::OptCertificate`]) or numeric evidence.

use tpn_core::{OptCertificate, OptGoal};
use tpn_opt::{optimize, OptError, OptOptions};
use tpn_rational::Rational;
use tpn_session::Session;
use tpn_symbolic::Symbol;

use crate::analysis::ServiceError;
use crate::json::JsonWriter;
use crate::jsonval::Json;
use crate::sweep::{
    bad, rational_value, resolve_symbol, resolve_target, spec_hash, TargetSpec, MAX_AXES,
};

/// Default multivariate seed-grid budget.
pub const DEFAULT_SEED_POINTS: u64 = 4096;

/// One box axis: a canonical attribute symbol and its bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxAxisSpec {
    /// Canonical symbol name, e.g. `"E(t3)"`.
    pub symbol: String,
    /// Lower bound (inclusive, strictly positive).
    pub from: Rational,
    /// Upper bound (inclusive).
    pub to: Rational,
}

/// A parsed, validated optimize specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeSpec {
    /// The measure to optimise.
    pub target: TargetSpec,
    /// Search direction.
    pub goal: OptGoal,
    /// The box, one axis per lifted attribute.
    pub axes: Vec<BoxAxisSpec>,
    /// Multivariate seed-grid point budget.
    pub seed_points: u64,
    /// Univariate bracket-width bound (`None` → box width / 2^20).
    pub tolerance: Option<Rational>,
}

impl OptimizeSpec {
    /// Parse a spec from a JSON object. A `"net"` member is ignored
    /// here (the HTTP endpoint carries the net text in-body); any other
    /// unknown member is rejected so typos cannot silently change the
    /// request's meaning.
    pub fn from_json(doc: &Json) -> Result<OptimizeSpec, ServiceError> {
        let members = doc
            .as_obj()
            .ok_or_else(|| bad(format!("spec must be an object, got {}", doc.kind())))?;
        for (k, _) in members {
            if !matches!(
                k.as_str(),
                "net" | "target" | "goal" | "box" | "seed_points" | "tolerance"
            ) {
                return Err(bad(format!("unknown spec member {k:?}")));
            }
        }
        let target = TargetSpec::parse(
            doc.get("target")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("spec needs a \"target\" string"))?,
        )?;
        let goal = match doc.get("goal") {
            None => OptGoal::Maximize,
            Some(Json::Str(s)) => OptGoal::parse(s)
                .ok_or_else(|| bad(format!("goal must be \"max\" or \"min\", got {s:?}")))?,
            Some(other) => {
                return Err(bad(format!(
                    "goal must be \"max\" or \"min\", got {}",
                    other.kind()
                )))
            }
        };
        let axes_json = doc
            .get("box")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("spec needs a \"box\" array of axes"))?;
        if axes_json.is_empty() {
            return Err(bad("\"box\" must have at least one axis"));
        }
        if axes_json.len() > MAX_AXES {
            return Err(bad(format!("more than {MAX_AXES} box axes")));
        }
        let mut axes: Vec<BoxAxisSpec> = Vec::with_capacity(axes_json.len());
        for a in axes_json {
            let members = a
                .as_obj()
                .ok_or_else(|| bad(format!("each box axis must be an object, got {}", a.kind())))?;
            for (k, _) in members {
                if !matches!(k.as_str(), "symbol" | "from" | "to") {
                    return Err(bad(format!("unknown box-axis member {k:?}")));
                }
            }
            let symbol = a
                .get("symbol")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("each box axis needs a \"symbol\" string"))?
                .to_string();
            let from = rational_value(
                a.get("from")
                    .ok_or_else(|| bad(format!("box axis {symbol:?} is missing \"from\"")))?,
                "from",
            )?;
            let to = rational_value(
                a.get("to")
                    .ok_or_else(|| bad(format!("box axis {symbol:?} is missing \"to\"")))?,
                "to",
            )?;
            if !from.is_positive() {
                return Err(bad(format!(
                    "box axis {symbol:?}: \"from\" must be strictly positive \
                     (times and frequencies are), got {from}"
                )));
            }
            if from > to {
                return Err(bad(format!("box axis {symbol:?} has from > to")));
            }
            if axes.iter().any(|b| b.symbol == symbol) {
                return Err(bad(format!("duplicate box axis {symbol:?}")));
            }
            axes.push(BoxAxisSpec { symbol, from, to });
        }
        let seed_points = match doc.get("seed_points") {
            None => DEFAULT_SEED_POINTS,
            Some(v) => {
                let n: u64 = v.number("seed_points").map_err(bad)?;
                if n == 0 {
                    return Err(bad("seed_points must be at least 1"));
                }
                n
            }
        };
        let tolerance = match doc.get("tolerance") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let t = rational_value(v, "tolerance")?;
                if !t.is_positive() {
                    return Err(bad(format!("tolerance must be positive, got {t}")));
                }
                Some(t)
            }
        };
        Ok(OptimizeSpec {
            target,
            goal,
            axes,
            seed_points,
            tolerance,
        })
    }

    /// The canonical one-line JSON rendering: fixed member order,
    /// rationals in reduced `n/d` form, defaults materialised. Two
    /// specs with the same canonical form are the same request — this
    /// string is what [`spec_hash`] fingerprints.
    pub fn canonical(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("target");
        w.string(&self.target.canonical());
        w.key("goal");
        w.string(self.goal.name());
        w.key("box");
        w.begin_array();
        for a in &self.axes {
            w.begin_object();
            w.key("symbol");
            w.string(&a.symbol);
            w.key("from");
            w.rational(&a.from);
            w.key("to");
            w.rational(&a.to);
            w.end_object();
        }
        w.end_array();
        w.key("seed_points");
        w.uint(self.seed_points);
        w.key("tolerance");
        match &self.tolerance {
            Some(t) => w.rational(t),
            None => w.null(),
        }
        w.end_object();
        w.finish()
    }
}

impl crate::spec::Spec for OptimizeSpec {
    fn canonical(&self) -> String {
        OptimizeSpec::canonical(self)
    }
}

/// Map an optimiser error onto the service's status vocabulary: spec-
/// shaped problems are 400s, analysis outcomes (infeasible region,
/// poles, exact-arithmetic overflow) are 422s.
fn opt_error(e: OptError) -> ServiceError {
    match e {
        OptError::EmptyBox
        | OptError::DuplicateSymbol { .. }
        | OptError::InvalidBounds { .. }
        | OptError::Eval(_) => ServiceError::BadRequest(e.to_string()),
        _ => ServiceError::Analysis(e.to_string()),
    }
}

/// Execute an optimize request through `session` and render the
/// response document. Returns the JSON body and whether the optimum is
/// exactly certified. Thread count and the seed budget cap come from
/// the session's [`SessionOptions`](tpn_session::SessionOptions).
/// Deterministic at any thread count (threads only parallelise the
/// seeding sweep, whose reduction is order-fixed), which makes the
/// result cacheable and the CLI output byte-comparable to the server's
/// — and the lift and exported closed form are session artifacts,
/// shared with any `/sweep` over the same axes.
pub fn optimize_json(
    session: &Session,
    spec: &OptimizeSpec,
) -> Result<(String, bool), ServiceError> {
    let _span = tpn_obs::trace::span("render");
    let net = session.net();
    let threads = session.options().threads_or_default();
    let max_seed_points = session.options().max_points_or_default();
    // The seed budget only matters when a seed grid is actually built:
    // the exact univariate engine (one box axis) never grid-seeds, so
    // a server with a small sweep cap must not reject its default spec.
    if spec.axes.len() > 1 && spec.seed_points > max_seed_points {
        return Err(bad(format!(
            "seed_points {} exceeds the limit {max_seed_points}",
            spec.seed_points
        )));
    }
    // Resolve names against the net before any expensive work.
    let swept: Vec<Symbol> = spec
        .axes
        .iter()
        .map(|a| resolve_symbol(net, &a.symbol))
        .collect::<Result<_, _>>()?;
    let target = resolve_target(net, &spec.target)?;

    // Derive the target's closed form through the lift — both the lift
    // and the exported expression are memoized session artifacts (the
    // compiled program riding along is what a sweep of the same shape
    // evaluates).
    let analysis_err = |e: tpn_session::SessionError| ServiceError::Analysis(e.to_string());
    let artifact = session
        .compiled(&swept, &[target], false)
        .map_err(analysis_err)?;
    let objective = artifact.exprs[0].clone();
    // One pass over the region (retained inside the compiled artifact,
    // so a compiled hit never re-demands the lift): the strings feed
    // the response, the constraints the solver.
    let (region_texts, region): (Vec<String>, Vec<tpn_symbolic::Constraint>) =
        artifact.lifted.domain.region_entries().into_iter().unzip();

    let axes: Vec<(Symbol, Rational, Rational)> = swept
        .iter()
        .zip(&spec.axes)
        .map(|(&s, a)| (s, a.from, a.to))
        .collect();
    let opts = OptOptions {
        threads,
        seed_points: spec.seed_points,
        tolerance: spec.tolerance,
        ..OptOptions::default()
    };
    let optimum = optimize(&objective, &axes, &region, spec.goal, &opts).map_err(opt_error)?;

    let engine = if axes.len() == 1 {
        "exact-univariate"
    } else {
        "grid-gradient"
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("kind");
    w.string("optimize");
    w.key("net");
    w.string(net.name());
    w.key("digest");
    w.string(&session.digest().to_hex());
    w.key("spec_hash");
    w.string(&format!("{:032x}", spec_hash(&spec.canonical())));
    w.key("target");
    w.string(&spec.target.canonical());
    w.key("goal");
    w.string(spec.goal.name());
    w.key("engine");
    w.string(engine);
    w.key("box");
    w.begin_array();
    for a in &spec.axes {
        w.begin_object();
        w.key("symbol");
        w.string(&a.symbol);
        w.key("from");
        w.rational(&a.from);
        w.key("to");
        w.rational(&a.to);
        w.end_object();
    }
    w.end_array();
    w.key("region");
    w.begin_array();
    for c in &region_texts {
        w.string(c);
    }
    w.end_array();
    w.key("point");
    w.begin_object();
    for (s, v) in &optimum.point {
        w.key(&s.name());
        w.rational(v);
    }
    w.end_object();
    w.key("value");
    match &optimum.value {
        Some(v) => w.rational(v),
        None => w.null(),
    }
    w.key("value_f64");
    w.float(optimum.value_f64);
    let certified = optimum.certified();
    w.key("certified");
    w.bool(certified);
    w.key("certificate");
    w.begin_object();
    w.key("kind");
    w.string(optimum.certificate.kind());
    match &optimum.certificate {
        OptCertificate::Interior {
            exact,
            bracket,
            sign_below,
            sign_above,
        } => {
            w.key("exact");
            w.bool(*exact);
            w.key("bracket");
            w.begin_array();
            w.rational(&bracket.0);
            w.rational(&bracket.1);
            w.end_array();
            w.key("derivative_sign_below");
            w.int(i128::from(*sign_below));
            w.key("derivative_sign_above");
            w.int(i128::from(*sign_above));
        }
        OptCertificate::Boundary {
            upper,
            open,
            derivative_sign,
        } => {
            w.key("end");
            w.string(if *upper { "upper" } else { "lower" });
            w.key("open");
            w.bool(*open);
            w.key("derivative_sign");
            w.int(i128::from(*derivative_sign));
        }
        OptCertificate::Pinned => {}
        OptCertificate::Refined {
            iterations,
            grad_norm,
        } => {
            w.key("iterations");
            w.uint(u64::from(*iterations));
            w.key("grad_norm");
            w.float(*grad_norm);
        }
    }
    w.end_object();
    w.end_object();
    Ok((w.finish(), certified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_session::SessionOptions;

    /// A one-shot session with an explicit thread count and point cap.
    fn sess(net: &tpn_net::TimedPetriNet, threads: usize, max_points: u64) -> Session {
        Session::new(
            net.clone(),
            SessionOptions::new()
                .threads(threads)
                .max_points(max_points),
        )
    }

    const CONFLICT: &str = "net duel\nplace p init 1\n\
        trans succeed in p out p firing 1 weight 3\n\
        trans retry in p out p firing 2 weight 1";

    fn spec(text: &str) -> OptimizeSpec {
        OptimizeSpec::from_json(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn spec_parses_and_canonicalises_with_defaults() {
        let s = spec(
            r#"{"target":"throughput:succeed","box":[{"symbol":"F(retry)","from":"1","to":"8"}]}"#,
        );
        assert_eq!(s.goal, OptGoal::Maximize);
        assert_eq!(s.seed_points, DEFAULT_SEED_POINTS);
        assert_eq!(s.tolerance, None);
        let canon = s.canonical();
        assert_eq!(
            canon,
            r#"{"target":"throughput:succeed","goal":"max","box":[{"symbol":"F(retry)","from":"1","to":"8"}],"seed_points":4096,"tolerance":null}"#
        );
        // defaults materialise: an explicit goal hashes identically
        let s2 = spec(
            r#"{"target":"throughput:succeed","goal":"max","box":[{"symbol":"F(retry)","from":"1","to":"8"}]}"#,
        );
        assert_eq!(spec_hash(&canon), spec_hash(&s2.canonical()));
        let s3 = spec(
            r#"{"target":"throughput:succeed","goal":"min","box":[{"symbol":"F(retry)","from":"1","to":"8"}]}"#,
        );
        assert_ne!(spec_hash(&canon), spec_hash(&s3.canonical()));
    }

    #[test]
    fn spec_rejects_malformed_requests() {
        for (doc, why) in [
            (r#"{"box":[]}"#, "missing target"),
            (r#"{"target":"cycle_time","box":[]}"#, "empty box"),
            (
                r#"{"target":"cycle_time","box":[{"symbol":"F(x)","from":"1","to":"2"}],"surprise":1}"#,
                "unknown member",
            ),
            (
                r#"{"target":"cycle_time","goal":"best","box":[{"symbol":"F(x)","from":"1","to":"2"}]}"#,
                "bad goal",
            ),
            (
                r#"{"target":"cycle_time","box":[{"symbol":"F(x)","from":"2","to":"1"}]}"#,
                "from > to",
            ),
            (
                r#"{"target":"cycle_time","box":[{"symbol":"F(x)","from":"0","to":"1"}]}"#,
                "non-positive from",
            ),
            (
                r#"{"target":"cycle_time","box":[{"symbol":"F(x)","from":"1","to":"2"},{"symbol":"F(x)","from":"1","to":"2"}]}"#,
                "duplicate axis",
            ),
            (
                r#"{"target":"cycle_time","box":[{"symbol":"F(x)","from":"1","to":"2"}],"seed_points":0}"#,
                "zero seed points",
            ),
            (
                r#"{"target":"cycle_time","box":[{"symbol":"F(x)","from":"1","to":"2"}],"tolerance":"-1/2"}"#,
                "negative tolerance",
            ),
        ] {
            let doc = Json::parse(doc).unwrap();
            assert!(OptimizeSpec::from_json(&doc).is_err(), "{why}");
        }
    }

    #[test]
    fn optimize_json_solves_the_conflict_net_exactly() {
        // throughput(succeed) = 3/(3 + 2·f(retry)) over f(retry):
        // strictly decreasing, so max over [1, 8] is at 1, value 3/5.
        let net = tpn_net::parse_tpn(CONFLICT).unwrap();
        let s = spec(
            r#"{"target":"throughput:succeed","box":[{"symbol":"f(retry)","from":"1","to":"8"}]}"#,
        );
        let (body, certified) = optimize_json(&sess(&net, 2, 1_000_000), &s).unwrap();
        assert!(certified, "{body}");
        assert!(body.contains(r#""engine":"exact-univariate""#), "{body}");
        assert!(body.contains(r#""point":{"f(retry)":"1"}"#), "{body}");
        assert!(body.contains(r#""value":"3/5""#), "{body}");
        assert!(
            body.contains(r#""certificate":{"kind":"boundary","end":"lower","open":false,"derivative_sign":-1}"#),
            "{body}"
        );
        // identical at any thread count (byte-for-byte)
        let (again, _) = optimize_json(&sess(&net, 7, 1_000_000), &s).unwrap();
        assert_eq!(body, again);
    }

    #[test]
    fn optimize_json_validates_against_the_net_and_limits() {
        let net = tpn_net::parse_tpn(CONFLICT).unwrap();
        // unknown box symbol
        let s = spec(
            r#"{"target":"throughput:succeed","box":[{"symbol":"F(nope)","from":"1","to":"2"}]}"#,
        );
        assert_eq!(
            optimize_json(&sess(&net, 1, 1000), &s)
                .unwrap_err()
                .status(),
            400
        );
        // unknown target
        let s = spec(
            r#"{"target":"throughput:nope","box":[{"symbol":"f(retry)","from":"1","to":"2"}]}"#,
        );
        assert_eq!(
            optimize_json(&sess(&net, 1, 1000), &s)
                .unwrap_err()
                .status(),
            400
        );
        // seed budget over the configured cap — but only where seeding
        // happens: a univariate request never builds a seed grid, so
        // the cap must not bind it…
        let s = spec(
            r#"{"target":"throughput:succeed","box":[{"symbol":"f(retry)","from":"1","to":"2"}],"seed_points":2000}"#,
        );
        assert!(optimize_json(&sess(&net, 1, 1000), &s).is_ok());
        // …while a multivariate request over the cap is a clean 400.
        let s = spec(
            r#"{"target":"throughput:succeed","box":[{"symbol":"f(retry)","from":"1","to":"2"},{"symbol":"F(succeed)","from":"1","to":"2"}],"seed_points":2000}"#,
        );
        let e = optimize_json(&sess(&net, 1, 1000), &s).unwrap_err();
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("2000"), "{e}");
    }
}
