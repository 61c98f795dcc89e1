//! The service's SLO engine: declarative objectives per endpoint,
//! multi-window burn-rate evaluation over the retention ring, and the
//! `/healthz` + `/slo` documents.
//!
//! Objectives default onto the analysis (POST) endpoints; a `tpn
//! serve --slo <file>` JSON document tunes windows, thresholds and
//! per-endpoint objectives (including enabling objectives on the GET
//! surfaces or disabling defaulted ones). Burn rates follow the
//! Google SRE multi-window recipe: a fast window makes the signal
//! responsive, a slow window keeps one spike from paging —
//! `degraded` when either window of any objective burns past the
//! degraded threshold, `unhealthy` (HTTP 503) only when an
//! objective's fast **and** slow windows both burn past the
//! unhealthy threshold.

use tpn_obs::series::{Frame, SeriesRing};
use tpn_obs::slo::{Health, Objective, WindowBurn};

use crate::history::{endpoint_error_col, endpoint_hist_col};
use crate::json::JsonWriter;
use crate::jsonval::{Json, JsonNumber};
use crate::metrics::{Endpoint, Route, ROUTES};

/// The default objective applied to every analysis endpoint: p99
/// under 250ms, at most 1% server errors.
pub const DEFAULT_OBJECTIVE: Objective = Objective {
    latency_ns: 250_000_000,
    latency_target: 0.99,
    error_target: 0.01,
};

/// Declarative SLO policy: windows, burn thresholds, and objectives.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Fast burn window, seconds (default 300 — 5 minutes).
    pub fast_window_s: u64,
    /// Slow burn window, seconds (default 3600 — 1 hour).
    pub slow_window_s: u64,
    /// Either window at or past this burn rate degrades health
    /// (default 6.0, the SRE workbook's ticket threshold).
    pub degraded_burn: f64,
    /// Both windows at or past this burn rate is unhealthy
    /// (default 14.4, the workbook's page threshold).
    pub unhealthy_burn: f64,
    /// The objective analysis endpoints get unless overridden.
    pub default_objective: Objective,
    /// Per-endpoint overrides: `Some` replaces (or enables on a GET
    /// surface), `None` disables the objective entirely.
    pub overrides: Vec<(Endpoint, Option<Objective>)>,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            fast_window_s: 300,
            slow_window_s: 3_600,
            degraded_burn: 6.0,
            unhealthy_burn: 14.4,
            default_objective: DEFAULT_OBJECTIVE,
            overrides: Vec::new(),
        }
    }
}

impl SloConfig {
    /// The effective objective of one endpoint.
    pub fn objective_for(&self, endpoint: Endpoint) -> Option<Objective> {
        if let Some((_, o)) = self.overrides.iter().rev().find(|(e, _)| *e == endpoint) {
            return *o;
        }
        // The analysis endpoints, the surfaces that compute, lead the
        // route table up to `/v1`.
        (endpoint <= Endpoint::V1).then_some(self.default_objective)
    }

    /// Parse an override document (`tpn serve --slo <file>`):
    ///
    /// ```json
    /// {
    ///   "fast_window_s": 300, "slow_window_s": 3600,
    ///   "degraded_burn": 6.0, "unhealthy_burn": 14.4,
    ///   "default": {"latency_ms": 250, "latency_target": 0.99, "error_target": 0.01},
    ///   "endpoints": {
    ///     "analyze": {"latency_ms": 50},
    ///     "stats": {"latency_ms": 10, "latency_target": 0.999},
    ///     "sweep": {"enabled": false}
    ///   }
    /// }
    /// ```
    ///
    /// Every member is optional and merges onto the defaults; endpoint
    /// objects merge onto the (possibly overridden) default objective,
    /// and `"enabled": false` disables an endpoint's objective.
    pub fn from_json(text: &str) -> Result<SloConfig, String> {
        let doc = Json::parse(text).map_err(|e| format!("slo config: {e}"))?;
        let mut cfg = SloConfig::default();
        if let Some(v) = doc.get("fast_window_s") {
            cfg.fast_window_s = number::<u64>(v, "fast_window_s")?;
        }
        if let Some(v) = doc.get("slow_window_s") {
            cfg.slow_window_s = number::<u64>(v, "slow_window_s")?;
        }
        if cfg.fast_window_s == 0 || cfg.fast_window_s > cfg.slow_window_s {
            return Err(format!(
                "slo config: fast_window_s {} must be in 1..=slow_window_s {}",
                cfg.fast_window_s, cfg.slow_window_s
            ));
        }
        if let Some(v) = doc.get("degraded_burn") {
            cfg.degraded_burn = number::<f64>(v, "degraded_burn")?;
        }
        if let Some(v) = doc.get("unhealthy_burn") {
            cfg.unhealthy_burn = number::<f64>(v, "unhealthy_burn")?;
        }
        // `is_nan` guards are explicit because `NaN <= 0.0` is false.
        if cfg.degraded_burn.is_nan()
            || cfg.degraded_burn <= 0.0
            || cfg.degraded_burn > cfg.unhealthy_burn
        {
            return Err(format!(
                "slo config: degraded_burn {} must be in (0, unhealthy_burn {}]",
                cfg.degraded_burn, cfg.unhealthy_burn
            ));
        }
        if let Some(v) = doc.get("default") {
            cfg.default_objective = parse_objective(v, cfg.default_objective, "default")?;
        }
        if let Some(endpoints) = doc.get("endpoints") {
            let members = endpoints
                .as_obj()
                .ok_or_else(|| "slo config: \"endpoints\" must be an object".to_string())?;
            for (name, v) in members {
                let endpoint = Route::labelled(name)
                    .ok_or_else(|| format!("slo config: unknown endpoint {name:?}"))?
                    .endpoint;
                let enabled = v.get("enabled").and_then(Json::as_bool).unwrap_or(true);
                let objective = if enabled {
                    Some(parse_objective(v, cfg.default_objective, name)?)
                } else {
                    None
                };
                cfg.overrides.push((endpoint, objective));
            }
        }
        Ok(cfg)
    }
}

fn number<T: JsonNumber>(v: &Json, what: &str) -> Result<T, String> {
    v.number(what).map_err(|e| format!("slo config: {e}"))
}

/// Strictly inside (0, 1); false for NaN.
fn in_unit_interval(x: f64) -> bool {
    x > 0.0 && x < 1.0
}

/// One objective object, merging present members onto `base`.
fn parse_objective(v: &Json, base: Objective, what: &str) -> Result<Objective, String> {
    let mut o = base;
    if let Some(ms) = v.get("latency_ms") {
        let ms = number::<f64>(ms, "latency_ms")?;
        if ms.is_nan() || ms <= 0.0 {
            return Err(format!("slo config: {what}.latency_ms must be positive"));
        }
        o.latency_ns = (ms * 1e6) as u64;
    }
    if let Some(t) = v.get("latency_target") {
        o.latency_target = number::<f64>(t, "latency_target")?;
        if !in_unit_interval(o.latency_target) {
            return Err(format!(
                "slo config: {what}.latency_target must be in (0, 1)"
            ));
        }
    }
    if let Some(t) = v.get("error_target") {
        o.error_target = number::<f64>(t, "error_target")?;
        if !in_unit_interval(o.error_target) {
            return Err(format!("slo config: {what}.error_target must be in (0, 1)"));
        }
    }
    Ok(o)
}

/// One endpoint's evaluated SLO state.
#[derive(Debug, Clone)]
pub(crate) struct EndpointSlo {
    pub endpoint: &'static str,
    pub objective: Objective,
    pub fast: WindowBurn,
    pub slow: WindowBurn,
    pub health: Health,
}

impl EndpointSlo {
    /// Which budget dimension is burning fastest — the label the
    /// `/healthz` reason carries.
    fn dimension(&self) -> &'static str {
        let latency = self.fast.latency_burn.max(self.slow.latency_burn);
        let error = self.fast.error_burn.max(self.slow.error_burn);
        if error > latency {
            "error"
        } else {
            "latency"
        }
    }
}

/// The full evaluation `/healthz` and `/slo` render.
#[derive(Debug, Clone)]
pub(crate) struct SloStatus {
    pub health: Health,
    pub endpoints: Vec<EndpointSlo>,
}

/// Evaluate every configured objective: each endpoint's fast and slow
/// windows are deltas of `now` against the ring frame at or before
/// the window start (an empty ring falls back to the since-boot
/// totals, i.e. a zero baseline).
pub(crate) fn evaluate(config: &SloConfig, ring: &SeriesRing, now: &Frame) -> SloStatus {
    let fast_start = ring.at_or_before(now.unix_ms.saturating_sub(config.fast_window_s * 1_000));
    let slow_start = ring.at_or_before(now.unix_ms.saturating_sub(config.slow_window_s * 1_000));
    let mut endpoints = Vec::new();
    let mut health = Health::Ok;
    for (i, route) in ROUTES.iter().enumerate() {
        let Some(objective) = config.objective_for(route.endpoint) else {
            continue;
        };
        let fast = window_burn(&objective, now, fast_start.as_ref(), i);
        let slow = window_burn(&objective, now, slow_start.as_ref(), i);
        let graded = Health::grade(&fast, &slow, config.degraded_burn, config.unhealthy_burn);
        health = health.max(graded);
        endpoints.push(EndpointSlo {
            endpoint: route.label,
            objective,
            fast,
            slow,
            health: graded,
        });
    }
    SloStatus { health, endpoints }
}

fn window_burn(
    objective: &Objective,
    now: &Frame,
    start: Option<&Frame>,
    endpoint: usize,
) -> WindowBurn {
    let hist = endpoint_hist_col(endpoint);
    let err = endpoint_error_col(endpoint);
    match start {
        Some(s) => WindowBurn::evaluate(
            objective,
            &now.hist_delta(s, hist),
            now.counter_delta(s, err),
        ),
        None => WindowBurn::evaluate(objective, &now.hists[hist], now.counters[err]),
    }
}

/// The `/healthz` document. The `ok` body is byte-stable
/// (`{"status":"ok"}`, the pre-SLO liveness reply); `degraded` and
/// `unhealthy` add machine-readable reasons, and `unhealthy` rides on
/// HTTP 503 so load balancers can act without parsing.
pub(crate) fn healthz_json(status: &SloStatus) -> (u16, String) {
    if status.health == Health::Ok {
        return (200, r#"{"status":"ok"}"#.to_string());
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("status");
    w.string(status.health.as_str());
    w.key("reasons");
    w.begin_array();
    for e in &status.endpoints {
        if e.health == Health::Ok {
            continue;
        }
        w.begin_object();
        w.key("endpoint");
        w.string(e.endpoint);
        w.key("health");
        w.string(e.health.as_str());
        w.key("dimension");
        w.string(e.dimension());
        w.key("fast_burn");
        w.float(e.fast.worst_burn());
        w.key("slow_burn");
        w.float(e.slow.worst_burn());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let code = if status.health == Health::Unhealthy {
        503
    } else {
        200
    };
    (code, w.finish())
}

/// The `GET /slo` document: policy, per-endpoint objectives and the
/// current windowed burns.
pub(crate) fn slo_json(config: &SloConfig, status: &SloStatus) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("status");
    w.string(status.health.as_str());
    w.key("fast_window_s");
    w.uint(config.fast_window_s);
    w.key("slow_window_s");
    w.uint(config.slow_window_s);
    w.key("degraded_burn");
    w.float(config.degraded_burn);
    w.key("unhealthy_burn");
    w.float(config.unhealthy_burn);
    w.key("endpoints");
    w.begin_array();
    for e in &status.endpoints {
        w.begin_object();
        w.key("endpoint");
        w.string(e.endpoint);
        w.key("health");
        w.string(e.health.as_str());
        w.key("objective");
        w.begin_object();
        w.key("latency_ms");
        w.float(e.objective.latency_ns as f64 / 1e6);
        w.key("latency_target");
        w.float(e.objective.latency_target);
        w.key("error_target");
        w.float(e.objective.error_target);
        w.end_object();
        for (key, burn) in [("fast", &e.fast), ("slow", &e.slow)] {
            w.key(key);
            w.begin_object();
            w.key("requests");
            w.uint(burn.total);
            w.key("slow_requests");
            w.uint(burn.slow);
            w.key("errors");
            w.uint(burn.errors);
            w.key("latency_burn");
            w.float(burn.latency_burn);
            w.key("error_burn");
            w.float(burn.error_burn);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history;
    use crate::metrics::{ServiceMetrics, StatsSnapshot};

    #[test]
    fn defaults_cover_analysis_endpoints_only() {
        let cfg = SloConfig::default();
        assert_eq!(
            cfg.objective_for(Endpoint::Analyze),
            Some(DEFAULT_OBJECTIVE)
        );
        assert_eq!(cfg.objective_for(Endpoint::Whatif), Some(DEFAULT_OBJECTIVE));
        assert_eq!(cfg.objective_for(Endpoint::Stats), None);
        assert_eq!(cfg.objective_for(Endpoint::Metrics), None);
    }

    #[test]
    fn config_parses_and_merges_overrides() {
        let cfg = SloConfig::from_json(
            r#"{
                "fast_window_s": 60,
                "degraded_burn": 2.0, "unhealthy_burn": 10.0,
                "default": {"latency_ms": 100},
                "endpoints": {
                    "analyze": {"latency_ms": 5, "latency_target": 0.999},
                    "stats": {"latency_ms": 10},
                    "sweep": {"enabled": false}
                }
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.fast_window_s, 60);
        assert_eq!(cfg.slow_window_s, 3_600);
        let analyze = cfg.objective_for(Endpoint::Analyze).unwrap();
        assert_eq!(analyze.latency_ns, 5_000_000);
        assert_eq!(analyze.latency_target, 0.999);
        assert_eq!(analyze.error_target, 0.01); // inherited
                                                // graph inherits the overridden default.
        assert_eq!(
            cfg.objective_for(Endpoint::Graph).unwrap().latency_ns,
            100_000_000
        );
        // stats gains an objective; sweep loses its default one.
        assert!(cfg.objective_for(Endpoint::Stats).is_some());
        assert!(cfg.objective_for(Endpoint::Sweep).is_none());
    }

    #[test]
    fn config_rejects_nonsense() {
        assert!(SloConfig::from_json("not json").is_err());
        assert!(SloConfig::from_json(r#"{"fast_window_s": 0}"#).is_err());
        assert!(SloConfig::from_json(r#"{"fast_window_s": 7200}"#).is_err());
        assert!(SloConfig::from_json(r#"{"degraded_burn": 20.0}"#).is_err());
        assert!(SloConfig::from_json(r#"{"endpoints": {"nope": {}}}"#).is_err());
        assert!(SloConfig::from_json(r#"{"default": {"latency_target": 1.5}}"#).is_err());
    }

    /// Build a frame pair exercising the burn math end to end: 100
    /// requests in the window, `slow_count` of them over the 250ms
    /// objective.
    fn status_with_slow(slow_count: u64) -> SloStatus {
        let cfg = SloConfig::default();
        let m = ServiceMetrics::new(true);
        let ring = tpn_obs::series::SeriesRing::new(history::schema(), 8);
        let base = StatsSnapshot::default();
        ring.push(&history::collect_frame(&m, &base, 1_000));
        for i in 0..100u64 {
            let ns = if i < slow_count { 1_000_000_000 } else { 1_000 };
            m.record(Endpoint::Analyze, 200, ns);
        }
        let now = history::collect_frame(&m, &base, 301_000);
        evaluate(&cfg, &ring, &now)
    }

    #[test]
    fn evaluate_grades_and_healthz_renders() {
        let ok = status_with_slow(0);
        assert_eq!(ok.health, Health::Ok);
        let (code, body) = healthz_json(&ok);
        assert_eq!((code, body.as_str()), (200, r#"{"status":"ok"}"#));

        // 50/100 over the bound: burn 50 ≥ 14.4 in both windows (both
        // window starts resolve to the same lone baseline frame).
        let hot = status_with_slow(50);
        assert_eq!(hot.health, Health::Unhealthy);
        let (code, body) = healthz_json(&hot);
        assert_eq!(code, 503);
        assert!(body.contains(r#""dimension":"latency""#), "{body}");
        let analyze = hot
            .endpoints
            .iter()
            .find(|e| e.endpoint == "analyze")
            .unwrap();
        assert_eq!(analyze.fast.total, 100);
        assert_eq!(analyze.fast.slow, 50);

        let doc = slo_json(&SloConfig::default(), &hot);
        crate::jsonval::Json::parse(&doc).expect("slo document parses");
        assert!(doc.contains(r#""status":"unhealthy""#), "{doc}");
        assert!(doc.contains(r#""latency_ms":250"#), "{doc}");
    }
}
