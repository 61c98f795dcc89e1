//! The parameter-sweep request: JSON grid spec in, rows out.
//!
//! A sweep request names a set of performance-measure **targets**, a
//! cartesian grid of **axes** over the net's timing/frequency symbols,
//! a **backend** (`f64` or exact) and optionally per-axis
//! **elasticities**. [`sweep_json`] is the single producer of sweep
//! JSON in the workspace — the HTTP `/sweep` endpoint and `tpn sweep`
//! both call it, so server and CLI output are byte-identical for the
//! same net and spec, and cached responses are byte-identical to fresh
//! ones.
//!
//! ## Spec schema
//!
//! ```json
//! {
//!   "targets": ["throughput:t7", "cycle_time"],
//!   "sweep": [
//!     {"symbol": "E(t3)", "from": "300", "to": "2000", "steps": 250},
//!     {"symbol": "f(t5)", "values": ["1/100", "1/20", "1/10", "1/5"]}
//!   ],
//!   "backend": "f64",
//!   "elasticity": false
//! }
//! ```
//!
//! Targets are `throughput:<transition>`, `place_utilization:<place>`,
//! `transition_utilization:<transition>` and `cycle_time`. Axis symbols
//! use the canonical attribute grammar `E(t)` / `F(t)` / `f(t)` of
//! [`tpn_net::symbols`]; rational values are JSON strings (`"1067/10"`,
//! `"106.7"`) or plain JSON numbers. The `HTTP` request body is this
//! object plus a `"net"` member carrying the `.tpn` text.
//!
//! ## Semantics and validity region
//!
//! The net is analysed through [`tpn_reach::LiftedDomain`]: the swept
//! attributes become symbols, every timing comparison is frozen at the
//! net's own base values, and the resulting closed forms are compiled
//! (`tpn-eval`) and evaluated over the grid. The response carries the
//! recorded validity `region`, and every row ends with an `in_region`
//! flag — the row's coordinates checked **exactly** against each
//! region constraint (`null` in the astronomically unlikely case that
//! the exact check overflows `i128`). Rows with `in_region: false` are
//! evaluations of the base-point expression, not of a re-derived
//! graph, and should be read accordingly.
//!
//! Results are cached under `(net digest, spec hash)` — see
//! [`spec_hash`], a 128-bit FNV pair over the canonical spec rendering.

use tpn_eval::{sweep_exact, sweep_f64, Axis, Grid, SweepOptions};
use tpn_net::{symbols, TimedPetriNet};
use tpn_rational::Rational;
use tpn_session::Session;
use tpn_symbolic::{Assignment, Constraint, Relation, Symbol};

use crate::analysis::ServiceError;
use crate::json::JsonWriter;
use crate::jsonval::Json;

/// Most axes a grid may have (the cartesian product explodes long
/// before this bound is interesting; it bounds spec parsing).
pub const MAX_AXES: usize = 8;

/// Most targets a request may name.
pub const MAX_TARGETS: usize = 64;

/// One performance-measure target of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetSpec {
    /// `throughput:<transition>`.
    Throughput(String),
    /// `place_utilization:<place>`.
    PlaceUtilization(String),
    /// `transition_utilization:<transition>`.
    TransitionUtilization(String),
    /// `cycle_time`.
    CycleTime,
}

impl TargetSpec {
    /// Parse the `kind:name` target grammar.
    pub fn parse(s: &str) -> Result<TargetSpec, ServiceError> {
        if s == "cycle_time" {
            return Ok(TargetSpec::CycleTime);
        }
        let (kind, name) = s.split_once(':').ok_or_else(|| {
            bad(format!(
                "target {s:?} is not 'cycle_time' or '<kind>:<name>'"
            ))
        })?;
        if name.is_empty() {
            return Err(bad(format!("target {s:?} names nothing")));
        }
        match kind {
            "throughput" => Ok(TargetSpec::Throughput(name.to_string())),
            "place_utilization" => Ok(TargetSpec::PlaceUtilization(name.to_string())),
            "transition_utilization" => Ok(TargetSpec::TransitionUtilization(name.to_string())),
            other => Err(bad(format!(
                "unknown target kind {other:?} (expected throughput, place_utilization, \
                 transition_utilization or cycle_time)"
            ))),
        }
    }

    /// The canonical `kind:name` rendering (identity of the column).
    pub fn canonical(&self) -> String {
        match self {
            TargetSpec::Throughput(n) => format!("throughput:{n}"),
            TargetSpec::PlaceUtilization(n) => format!("place_utilization:{n}"),
            TargetSpec::TransitionUtilization(n) => format!("transition_utilization:{n}"),
            TargetSpec::CycleTime => "cycle_time".to_string(),
        }
    }
}

/// The values one axis takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisValues {
    /// `steps` evenly spaced values from `from` to `to` inclusive.
    Linear {
        /// First value.
        from: Rational,
        /// Last value.
        to: Rational,
        /// Number of points (≥ 1).
        steps: u64,
    },
    /// An explicit value list.
    List(Vec<Rational>),
}

/// One sweep axis: a canonical attribute symbol name and its values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisSpec {
    /// Canonical symbol name, e.g. `"E(t3)"`.
    pub symbol: String,
    /// The values the axis takes.
    pub values: AxisValues,
}

/// The evaluation backend of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepBackend {
    /// Compiled double-precision floats (the fast path).
    F64,
    /// Compiled exact rationals (overflow-checked).
    Exact,
}

impl SweepBackend {
    fn name(self) -> &'static str {
        match self {
            SweepBackend::F64 => "f64",
            SweepBackend::Exact => "exact",
        }
    }
}

/// A parsed, validated sweep specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// The measures to evaluate, in column order.
    pub targets: Vec<TargetSpec>,
    /// The grid axes, outermost first (last axis varies fastest).
    pub axes: Vec<AxisSpec>,
    /// Evaluation backend.
    pub backend: SweepBackend,
    /// Also emit per-axis elasticities `(s/f)·∂f/∂s` for every target.
    pub elasticity: bool,
}

pub(crate) fn bad(m: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(m.into())
}

/// Convert a JSON string or number to an exact rational.
pub(crate) fn rational_value(j: &Json, what: &str) -> Result<Rational, ServiceError> {
    let token = match j {
        Json::Str(s) => s.as_str(),
        Json::Num(n) => n.as_str(),
        other => {
            return Err(bad(format!(
                "{what} must be a number, got {}",
                other.kind()
            )))
        }
    };
    token
        .parse::<Rational>()
        .map_err(|e| bad(format!("{what}: {e}")))
}

impl SweepSpec {
    /// Parse a spec from a JSON object. A `"net"` member is ignored
    /// here (the HTTP endpoint carries the net text in-body); any other
    /// unknown member is rejected so typos cannot silently change the
    /// request's meaning.
    pub fn from_json(doc: &Json) -> Result<SweepSpec, ServiceError> {
        let members = doc
            .as_obj()
            .ok_or_else(|| bad(format!("spec must be an object, got {}", doc.kind())))?;
        for (k, _) in members {
            if !matches!(
                k.as_str(),
                "net" | "targets" | "sweep" | "backend" | "elasticity"
            ) {
                return Err(bad(format!("unknown spec member {k:?}")));
            }
        }
        let targets_json = doc
            .get("targets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("spec needs a \"targets\" array"))?;
        if targets_json.is_empty() {
            return Err(bad("\"targets\" must not be empty"));
        }
        if targets_json.len() > MAX_TARGETS {
            return Err(bad(format!("more than {MAX_TARGETS} targets")));
        }
        let mut targets = Vec::with_capacity(targets_json.len());
        for t in targets_json {
            let s = t
                .as_str()
                .ok_or_else(|| bad(format!("targets must be strings, got {}", t.kind())))?;
            let parsed = TargetSpec::parse(s)?;
            if targets.contains(&parsed) {
                return Err(bad(format!("duplicate target {s:?}")));
            }
            targets.push(parsed);
        }
        let axes_json = doc
            .get("sweep")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("spec needs a \"sweep\" array of axes"))?;
        if axes_json.is_empty() {
            return Err(bad("\"sweep\" must have at least one axis"));
        }
        if axes_json.len() > MAX_AXES {
            return Err(bad(format!("more than {MAX_AXES} sweep axes")));
        }
        let mut axes = Vec::with_capacity(axes_json.len());
        for a in axes_json {
            axes.push(Self::axis_from_json(a)?);
        }
        let backend = match doc.get("backend") {
            None => SweepBackend::F64,
            Some(Json::Str(s)) if s == "f64" => SweepBackend::F64,
            Some(Json::Str(s)) if s == "exact" => SweepBackend::Exact,
            Some(other) => {
                return Err(bad(format!(
                    "backend must be \"f64\" or \"exact\", got {}",
                    match other {
                        Json::Str(s) => format!("{s:?}"),
                        v => v.kind().to_string(),
                    }
                )))
            }
        };
        let elasticity = match doc.get("elasticity") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("elasticity must be a boolean"))?,
        };
        Ok(SweepSpec {
            targets,
            axes,
            backend,
            elasticity,
        })
    }

    fn axis_from_json(a: &Json) -> Result<AxisSpec, ServiceError> {
        let members = a
            .as_obj()
            .ok_or_else(|| bad(format!("each axis must be an object, got {}", a.kind())))?;
        for (k, _) in members {
            if !matches!(k.as_str(), "symbol" | "from" | "to" | "steps" | "values") {
                return Err(bad(format!("unknown axis member {k:?}")));
            }
        }
        let symbol = a
            .get("symbol")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("each axis needs a \"symbol\" string"))?
            .to_string();
        let has_linear =
            a.get("from").is_some() || a.get("to").is_some() || a.get("steps").is_some();
        let has_list = a.get("values").is_some();
        match (has_linear, has_list) {
            (true, true) => Err(bad(format!(
                "axis {symbol:?} mixes from/to/steps with values"
            ))),
            (false, false) => Err(bad(format!(
                "axis {symbol:?} needs from/to/steps or values"
            ))),
            (true, false) => {
                let from = rational_value(
                    a.get("from")
                        .ok_or_else(|| bad(format!("axis {symbol:?} is missing \"from\"")))?,
                    "from",
                )?;
                let to = rational_value(
                    a.get("to")
                        .ok_or_else(|| bad(format!("axis {symbol:?} is missing \"to\"")))?,
                    "to",
                )?;
                let steps: u64 = a
                    .get("steps")
                    .ok_or_else(|| bad(format!("axis {symbol:?} is missing \"steps\"")))?
                    .number("steps")
                    .map_err(bad)?;
                if steps == 0 {
                    return Err(bad(format!("axis {symbol:?} has zero steps")));
                }
                Ok(AxisSpec {
                    symbol,
                    values: AxisValues::Linear { from, to, steps },
                })
            }
            (false, true) => {
                let vals = a
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad(format!("axis {symbol:?}: \"values\" must be an array")))?;
                if vals.is_empty() {
                    return Err(bad(format!("axis {symbol:?} has no values")));
                }
                let values = vals
                    .iter()
                    .map(|v| rational_value(v, "axis value"))
                    .collect::<Result<Vec<Rational>, ServiceError>>()?;
                Ok(AxisSpec {
                    symbol,
                    values: AxisValues::List(values),
                })
            }
        }
    }

    /// The canonical one-line JSON rendering of the spec: fixed member
    /// order, rationals in reduced `n/d` form, defaults materialised.
    /// Two specs with the same canonical form are the same request —
    /// this string is what [`spec_hash`] fingerprints.
    pub fn canonical(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("targets");
        w.begin_array();
        for t in &self.targets {
            w.string(&t.canonical());
        }
        w.end_array();
        w.key("sweep");
        w.begin_array();
        for a in &self.axes {
            w.begin_object();
            w.key("symbol");
            w.string(&a.symbol);
            match &a.values {
                AxisValues::Linear { from, to, steps } => {
                    w.key("from");
                    w.rational(from);
                    w.key("to");
                    w.rational(to);
                    w.key("steps");
                    w.uint(*steps);
                }
                AxisValues::List(values) => {
                    w.key("values");
                    w.begin_array();
                    for v in values {
                        w.rational(v);
                    }
                    w.end_array();
                }
            }
            w.end_object();
        }
        w.end_array();
        w.key("backend");
        w.string(self.backend.name());
        w.key("elasticity");
        w.bool(self.elasticity);
        w.end_object();
        w.finish()
    }
}

impl crate::spec::Spec for SweepSpec {
    fn canonical(&self) -> String {
        SweepSpec::canonical(self)
    }
}

// `spec_hash` started life here; it now lives in [`crate::spec`] shared
// by every spec-carrying request kind. Re-exported for compatibility.
pub use crate::spec::spec_hash;

/// The per-row `in_region` evaluator: region constraints with their
/// coefficients pre-aligned to the sweep's axis order, so the render
/// loop pays one overflow-checked multiply-add per *non-zero*
/// coefficient per row — no per-row `Assignment` allocation, no
/// coefficient lookups.
pub(crate) struct RegionEval {
    /// `(constant, one coefficient per axis, relation)` per constraint.
    rows: Vec<(Rational, Vec<Rational>, Relation)>,
}

impl RegionEval {
    /// Align `constraints` to `swept` (the axis order rows decode in).
    /// Constraint symbols are always lifted symbols, hence axes.
    pub(crate) fn new(constraints: &[Constraint], swept: &[Symbol]) -> RegionEval {
        let rows = constraints
            .iter()
            .map(|c| {
                let coeffs = swept.iter().map(|&s| c.expr.coeff(s)).collect();
                (*c.expr.constant_part(), coeffs, c.rel)
            })
            .collect();
        RegionEval { rows }
    }

    /// Exact membership of one row's coordinates, with overflow-checked
    /// arithmetic (a hostile coordinate must not panic a worker):
    /// `None` (rendered as JSON `null`) when a check itself overflows.
    pub(crate) fn in_region(&self, coords: &[Rational]) -> Option<bool> {
        let mut all = true;
        for (constant, coeffs, rel) in &self.rows {
            let mut acc = *constant;
            for (coeff, value) in coeffs.iter().zip(coords) {
                if coeff.is_zero() {
                    continue;
                }
                let term = coeff.checked_mul(value).ok()?;
                acc = acc.checked_add(&term).ok()?;
            }
            let holds = match rel {
                Relation::Eq => acc.is_zero(),
                Relation::Ge => !acc.is_negative(),
                Relation::Gt => acc.is_positive(),
            };
            if !holds {
                all = false;
            }
        }
        Some(all)
    }
}

/// Resolve a canonical attribute-symbol name against the net *without*
/// interning unmatched input (the interner is process-global; a flood
/// of bogus axis names must not grow it).
pub(crate) fn resolve_symbol(net: &TimedPetriNet, name: &str) -> Result<Symbol, ServiceError> {
    for t in net.transitions() {
        let tn = net.transition(t).name();
        if name == format!("E({tn})") {
            return Ok(symbols::enabling(tn));
        }
        if name == format!("F({tn})") {
            return Ok(symbols::firing(tn));
        }
        if name == format!("f({tn})") {
            return Ok(symbols::frequency(tn));
        }
    }
    Err(bad(format!(
        "axis symbol {name:?} names no attribute of net {:?} \
         (expected E(t), F(t) or f(t) for one of its transitions)",
        net.name()
    )))
}

pub(crate) fn resolve_target(
    net: &TimedPetriNet,
    t: &TargetSpec,
) -> Result<tpn_core::ExprTarget, ServiceError> {
    use tpn_core::ExprTarget;
    match t {
        TargetSpec::Throughput(n) => net
            .transition_by_name(n)
            .map(ExprTarget::Throughput)
            .map_err(|e| bad(e.to_string())),
        TargetSpec::TransitionUtilization(n) => net
            .transition_by_name(n)
            .map(ExprTarget::TransitionUtilization)
            .map_err(|e| bad(e.to_string())),
        TargetSpec::PlaceUtilization(n) => net
            .place_by_name(n)
            .map(ExprTarget::PlaceUtilization)
            .map_err(|e| bad(e.to_string())),
        TargetSpec::CycleTime => Ok(ExprTarget::CycleTime),
    }
}

/// Execute a sweep through `session` and render the response document.
/// Returns the JSON body and the number of grid points evaluated. Each
/// row is `[[coords…], [values…], in_region]`; the trailing flag is
/// the row's coordinates checked exactly against every recorded
/// validity constraint. Thread count and point cap come from the
/// session's [`SessionOptions`](tpn_session::SessionOptions).
/// Deterministic: identical nets (by digest) and identical canonical
/// specs produce byte-identical documents at any thread count, which
/// makes the result cacheable and the CLI output comparable to the
/// server's — and the lift + compiled program are session artifacts,
/// shared with every other request over the same net.
pub fn sweep_json(session: &Session, spec: &SweepSpec) -> Result<(String, u64), ServiceError> {
    let _span = tpn_obs::trace::span("render");
    let net = session.net();
    let threads = session.options().threads_or_default();
    let max_points = session.options().max_points_or_default();
    // Resolve names against the net before any expensive work.
    let swept: Vec<Symbol> = spec
        .axes
        .iter()
        .map(|a| resolve_symbol(net, &a.symbol))
        .collect::<Result<_, _>>()?;
    let exprs_targets: Vec<tpn_core::ExprTarget> = spec
        .targets
        .iter()
        .map(|t| resolve_target(net, t))
        .collect::<Result<_, _>>()?;
    // Enforce the point cap on the declared axis sizes *before* any
    // value is materialised: a hostile `"steps": 2^40` must be a cheap
    // 400, not a terabyte allocation inside Axis::linear.
    let declared_points = spec.axes.iter().fold(1u64, |acc, a| {
        let len = match &a.values {
            AxisValues::Linear { steps, .. } => *steps,
            AxisValues::List(values) => values.len() as u64,
        };
        acc.saturating_mul(len.max(1))
    });
    if declared_points > max_points {
        return Err(bad(format!(
            "grid has {declared_points} points, more than the limit {max_points}"
        )));
    }
    let axes: Vec<Axis> = spec
        .axes
        .iter()
        .zip(&swept)
        .map(|(a, &sym)| match &a.values {
            // `steps <= max_points` here, so the usize conversion and
            // the allocation are both bounded.
            AxisValues::Linear { from, to, steps } => {
                Axis::try_linear(sym, *from, *to, *steps as usize).map_err(|e| bad(e.to_string()))
            }
            AxisValues::List(values) => Ok(Axis::list(sym, values.clone())),
        })
        .collect::<Result<_, _>>()?;
    let grid = Grid::new(axes).map_err(|e| bad(e.to_string()))?;

    // Derive the closed forms through the numerically guided lift and
    // compile them (with derivatives if elasticities are requested) —
    // both memoized session artifacts, shared across requests.
    let artifact = session
        .compiled(&swept, &exprs_targets, spec.elasticity)
        .map_err(|e| ServiceError::Analysis(e.to_string()))?;
    let compiled = &artifact.program;
    // One pass over the region (retained inside the compiled artifact,
    // so a compiled hit never re-demands the lift): the strings feed
    // the response header, the constraints the per-row evaluator.
    let (region_texts, region_constraints): (Vec<String>, Vec<Constraint>) =
        artifact.lifted.domain.region_entries().into_iter().unzip();
    let region_eval = RegionEval::new(&region_constraints, &swept);

    let opts = SweepOptions {
        threads,
        max_points,
    };
    let fixed = Assignment::new(); // every free symbol is an axis

    let n_targets = spec.targets.len();
    let n_axes = swept.len();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("kind");
    w.string("sweep");
    w.key("net");
    w.string(net.name());
    w.key("digest");
    w.string(&session.digest().to_hex());
    w.key("spec_hash");
    w.string(&format!("{:032x}", spec_hash(&spec.canonical())));
    w.key("backend");
    w.string(spec.backend.name());
    w.key("elasticity");
    w.bool(spec.elasticity);
    w.key("compiled_ops");
    w.uint(compiled.num_ops() as u64);
    w.key("region");
    w.begin_array();
    for c in &region_texts {
        w.string(c);
    }
    w.end_array();
    w.key("axes");
    w.begin_array();
    for a in &spec.axes {
        w.string(&a.symbol);
    }
    w.end_array();
    w.key("columns");
    w.begin_array();
    for t in &spec.targets {
        w.string(&t.canonical());
    }
    if spec.elasticity {
        for t in &spec.targets {
            for a in &spec.axes {
                w.string(&format!("elast:{}:{}", t.canonical(), a.symbol));
            }
        }
    }
    w.end_array();
    w.key("points");
    w.uint(grid.num_points());
    w.key("rows");
    w.begin_array();
    let mut coords: Vec<Rational> = Vec::new();
    match spec.backend {
        SweepBackend::F64 => {
            let rows = sweep_f64(compiled, &grid, &fixed, &opts).map_err(|e| bad(e.to_string()))?;
            for (i, row) in rows.iter().enumerate() {
                grid.point(i as u64, &mut coords);
                w.begin_array();
                w.begin_array();
                for c in &coords {
                    w.rational(c);
                }
                w.end_array();
                w.begin_array();
                for v in &row[..n_targets] {
                    match v {
                        Some(x) => w.float(*x),
                        None => w.null(),
                    }
                }
                if spec.elasticity {
                    for (ti, _) in spec.targets.iter().enumerate() {
                        for ai in 0..n_axes {
                            let value = row[ti];
                            let deriv = row[n_targets + ti * n_axes + ai];
                            match (value, deriv) {
                                (Some(v), Some(d)) if v != 0.0 => {
                                    w.float(coords[ai].to_f64() * d / v)
                                }
                                _ => w.null(),
                            }
                        }
                    }
                }
                w.end_array();
                match region_eval.in_region(&coords) {
                    Some(flag) => w.bool(flag),
                    None => w.null(),
                }
                w.end_array();
            }
        }
        SweepBackend::Exact => {
            let rows =
                sweep_exact(compiled, &grid, &fixed, &opts).map_err(|e| bad(e.to_string()))?;
            for (i, row) in rows.iter().enumerate() {
                grid.point(i as u64, &mut coords);
                w.begin_array();
                w.begin_array();
                for c in &coords {
                    w.rational(c);
                }
                w.end_array();
                w.begin_array();
                for v in &row[..n_targets] {
                    match v {
                        Some(x) => w.rational(x),
                        None => w.null(),
                    }
                }
                if spec.elasticity {
                    for (ti, _) in spec.targets.iter().enumerate() {
                        for ai in 0..n_axes {
                            let elast = match (&row[ti], &row[n_targets + ti * n_axes + ai]) {
                                (Some(v), Some(d)) if !v.is_zero() => coords[ai]
                                    .checked_mul(d)
                                    .and_then(|xd| xd.checked_div(v))
                                    .ok(),
                                _ => None,
                            };
                            match elast {
                                Some(e) => w.rational(&e),
                                None => w.null(),
                            }
                        }
                    }
                }
                w.end_array();
                match region_eval.in_region(&coords) {
                    Some(flag) => w.bool(flag),
                    None => w.null(),
                }
                w.end_array();
            }
        }
    }
    w.end_array();
    w.end_object();
    Ok((w.finish(), grid.num_points()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_session::SessionOptions;

    /// A one-shot session with an explicit thread count and point cap.
    fn sess(net: TimedPetriNet, threads: usize, max_points: u64) -> Session {
        Session::new(
            net,
            SessionOptions::new()
                .threads(threads)
                .max_points(max_points),
        )
    }

    fn spec_doc(extra: &str) -> Json {
        let text = format!(
            r#"{{"targets":["throughput:go"],"sweep":[{{"symbol":"F(go)","from":"1","to":"2","steps":5}}]{extra}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn spec_parses_and_canonicalises() {
        let spec = SweepSpec::from_json(&spec_doc("")).unwrap();
        assert_eq!(spec.targets, vec![TargetSpec::Throughput("go".into())]);
        assert_eq!(spec.backend, SweepBackend::F64);
        assert!(!spec.elasticity);
        let canon = spec.canonical();
        assert_eq!(
            canon,
            r#"{"targets":["throughput:go"],"sweep":[{"symbol":"F(go)","from":"1","to":"2","steps":5}],"backend":"f64","elasticity":false}"#
        );
        // defaults materialise: an explicit backend hashes identically
        let spec2 = SweepSpec::from_json(&spec_doc(r#","backend":"f64""#)).unwrap();
        assert_eq!(spec_hash(&canon), spec_hash(&spec2.canonical()));
        // a different spec hashes differently
        let spec3 = SweepSpec::from_json(&spec_doc(r#","backend":"exact""#)).unwrap();
        assert_ne!(spec_hash(&canon), spec_hash(&spec3.canonical()));
    }

    #[test]
    fn spec_rejects_malformed_requests() {
        for (doc, why) in [
            (r#"{"sweep":[]}"#, "missing targets"),
            (r#"{"targets":[],"sweep":[]}"#, "empty targets"),
            (r#"{"targets":["throughput:x"],"sweep":[]}"#, "no axes"),
            (
                r#"{"targets":["bogus:x"],"sweep":[{"symbol":"F(x)","values":["1"]}]}"#,
                "unknown target kind",
            ),
            (
                r#"{"targets":["throughput:x"],"sweep":[{"symbol":"F(x)"}]}"#,
                "axis without values",
            ),
            (
                r#"{"targets":["throughput:x"],"sweep":[{"symbol":"F(x)","from":"1","to":"2","steps":3,"values":["1"]}]}"#,
                "axis with both forms",
            ),
            (
                r#"{"targets":["throughput:x"],"sweep":[{"symbol":"F(x)","values":["1"]}],"surprise":1}"#,
                "unknown member",
            ),
            (
                r#"{"targets":["throughput:x","throughput:x"],"sweep":[{"symbol":"F(x)","values":["1"]}]}"#,
                "duplicate target",
            ),
        ] {
            let doc = Json::parse(doc).unwrap();
            assert!(SweepSpec::from_json(&doc).is_err(), "{why}");
        }
    }

    #[test]
    fn sweep_json_runs_the_cycle_net() {
        let net = tpn_net::parse_tpn(
            "net c\nplace a init 1\nplace b\n\
             trans go in a out b firing 2\ntrans back in b out a firing 3",
        )
        .unwrap();
        let spec = SweepSpec::from_json(&spec_doc("")).unwrap();
        let (body, points) = sweep_json(&sess(net.clone(), 2, 1000), &spec).unwrap();
        assert_eq!(points, 5);
        assert!(
            body.starts_with(r#"{"kind":"sweep","net":"c","digest":""#),
            "{body}"
        );
        // throughput of the 2-transition cycle is 1/(F(go)+3): at
        // F(go)=1 it is 0.25, at F(go)=2 (base) 0.2; the conflict-free
        // cycle records no comparisons, so every row is in-region
        assert!(body.contains(r#"[["1"],[0.25],true]"#), "{body}");
        assert!(body.contains(r#"[["2"],[0.2],true]"#), "{body}");
        // exact backend agrees exactly
        let exact = SweepSpec {
            backend: SweepBackend::Exact,
            ..spec
        };
        let (ebody, _) = sweep_json(&sess(net.clone(), 2, 1000), &exact).unwrap();
        assert!(ebody.contains(r#"[["1"],["1/4"],true]"#), "{ebody}");
        assert!(ebody.contains(r#"[["2"],["1/5"],true]"#), "{ebody}");
    }

    #[test]
    fn sweep_json_validates_against_the_net() {
        let net = tpn_net::parse_tpn(
            "net c\nplace a init 1\nplace b\n\
             trans go in a out b firing 2\ntrans back in b out a firing 3",
        )
        .unwrap();
        // unknown axis symbol
        let doc = Json::parse(
            r#"{"targets":["throughput:go"],"sweep":[{"symbol":"F(nope)","values":["1"]}]}"#,
        )
        .unwrap();
        let spec = SweepSpec::from_json(&doc).unwrap();
        let e = sweep_json(&sess(net.clone(), 1, 1000), &spec).unwrap_err();
        assert_eq!(e.status(), 400);
        // unknown target transition
        let doc = Json::parse(
            r#"{"targets":["throughput:nope"],"sweep":[{"symbol":"F(go)","values":["1"]}]}"#,
        )
        .unwrap();
        let spec = SweepSpec::from_json(&doc).unwrap();
        assert_eq!(
            sweep_json(&sess(net.clone(), 1, 1000), &spec)
                .unwrap_err()
                .status(),
            400
        );
        // point cap
        let spec = SweepSpec::from_json(&spec_doc("")).unwrap();
        let e = sweep_json(&sess(net.clone(), 1, 4), &spec).unwrap_err();
        assert!(e.to_string().contains("5 points"), "{e}");
    }

    #[test]
    fn hostile_grids_are_rejected_before_any_work() {
        let net = tpn_net::parse_tpn(
            "net c\nplace a init 1\nplace b\n\
             trans go in a out b firing 2\ntrans back in b out a firing 3",
        )
        .unwrap();
        // 2^40 steps must be a cheap 400, not a terabyte allocation.
        let doc = Json::parse(
            r#"{"targets":["throughput:go"],"sweep":[{"symbol":"F(go)","from":"0","to":"1","steps":1099511627776}]}"#,
        )
        .unwrap();
        let spec = SweepSpec::from_json(&doc).unwrap();
        let e = sweep_json(&sess(net.clone(), 1, 1000), &spec).unwrap_err();
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("1099511627776"), "{e}");
        // endpoints near i128::MAX must error, not panic a worker
        let doc = Json::parse(
            r#"{"targets":["throughput:go"],"sweep":[{"symbol":"F(go)","from":"1/3","to":"170141183460469231731687303715884105727","steps":2}]}"#,
        )
        .unwrap();
        let spec = SweepSpec::from_json(&doc).unwrap();
        let e = sweep_json(&sess(net.clone(), 1, 1000), &spec).unwrap_err();
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("overflows"), "{e}");
    }

    #[test]
    fn elasticity_columns_are_emitted() {
        let net = tpn_net::parse_tpn(
            "net c\nplace a init 1\nplace b\n\
             trans go in a out b firing 2\ntrans back in b out a firing 3",
        )
        .unwrap();
        let spec = SweepSpec::from_json(&spec_doc(r#","elasticity":true"#)).unwrap();
        let (body, _) = sweep_json(&sess(net.clone(), 1, 1000), &spec).unwrap();
        assert!(body.contains(r#""columns":["throughput:go","elast:throughput:go:F(go)"]"#));
        // T = 1/(x+3): elasticity = -x/(x+3); at x=1 that is -0.25
        assert!(body.contains(r#"[["1"],[0.25,-0.25],true]"#), "{body}");
    }
}
