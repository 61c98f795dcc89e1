//! The service's alerting layer: declarative rule configuration
//! (`tpn serve --alerts <file>`), built-in defaults derived from the
//! SLO config, silences, the `GET /alerts` document, and a std-only
//! webhook notifier for firing/resolved transitions.
//!
//! The evaluator itself is [`tpn_obs::alert::AlertEngine`], ticked by
//! the sampler ([`Service::sample_now`](crate::Service)) against the
//! same frame it just pushed into the retention ring, so alert state
//! advances at sampler cadence and every judgment is a pure function
//! of frame contents — replaying identical frames reproduces the
//! `/alerts` history byte for byte.
//!
//! Notifications never touch the request path or the sampler: the
//! sampler enqueues rendered NDJSON lines into a bounded queue
//! (dropping with a counter when full) and a background worker POSTs
//! them with bounded exponential-backoff retries. A dead webhook
//! endpoint costs the daemon nothing but a counter.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tpn_obs::alert::{AlertEngine, AlertRule, Cmp, Signal};

use crate::history;
use crate::json::JsonWriter;
use crate::jsonval::{Json, JsonNumber};
use crate::metrics::{Endpoint, Route, ROUTES};
use crate::slo::SloConfig;

/// Longest accepted `window_s` / `for_s` / `resolve_s` / silence TTL,
/// seconds (one day — matching `/metrics/history`'s window bound).
const MAX_SECONDS: u64 = 86_400;

/// One parsed (but not yet bound) rule: burn-rate rules capture the
/// endpoint and take their objective from the SLO config at bind
/// time, every other signal is already resolved to ring columns.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// Unique rule name — the identity merging, events and silences
    /// key on.
    pub name: String,
    /// `false` removes a same-named built-in default (or disables
    /// this rule entirely).
    pub enabled: bool,
    /// The watched signal; `None` on a disable-only spec.
    signal: Option<SpecSignal>,
    severity: String,
    cmp: Cmp,
    threshold: f64,
    window_s: u64,
    for_s: u64,
    resolve_s: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum SpecSignal {
    Resolved(Signal),
    Burn(Endpoint),
}

/// Webhook notifier configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WebhookConfig {
    /// Target host (name or address).
    pub host: String,
    /// Target port.
    pub port: u16,
    /// Request path (leading `/`).
    pub path: String,
    /// Bounded queue capacity; transitions past it are dropped and
    /// counted.
    pub queue: usize,
    /// Retries after the first failed POST (exponential backoff).
    pub retries: u32,
}

/// Declarative alerting policy: history sizing, built-in defaults,
/// extra rules and the optional webhook sink.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertsConfig {
    /// Transition events the `/alerts` history retains (default 256).
    pub history: usize,
    /// Whether the built-in per-endpoint SLO burn rules are generated
    /// (default true).
    pub defaults: bool,
    /// User rules, merged onto the defaults by name.
    pub rules: Vec<RuleSpec>,
    /// Webhook sink for firing/resolved transitions.
    pub webhook: Option<WebhookConfig>,
}

impl Default for AlertsConfig {
    fn default() -> AlertsConfig {
        AlertsConfig {
            history: 256,
            defaults: true,
            rules: Vec::new(),
            webhook: None,
        }
    }
}

impl AlertsConfig {
    /// Parse an alerts document (`tpn serve --alerts <file>`):
    ///
    /// ```json
    /// {
    ///   "history": 256,
    ///   "defaults": true,
    ///   "webhook": {"url": "http://127.0.0.1:9400/hook", "queue": 256, "retries": 3},
    ///   "rules": [
    ///     {"name": "analyze_p99", "signal": "quantile", "series": "analyze",
    ///      "q": 0.99, "cmp": ">", "threshold_ms": 500,
    ///      "window_s": 60, "for_s": 30, "resolve_s": 60, "severity": "page"},
    ///     {"name": "rss_high", "signal": "gauge", "series": "rss_bytes",
    ///      "cmp": ">=", "threshold": 2000000000},
    ///     {"name": "req_rate", "signal": "counter_rate", "series": "requests",
    ///      "cmp": ">=", "threshold": 1000},
    ///     {"name": "burn:stats", "signal": "burn_rate", "endpoint": "stats",
    ///      "threshold": 6.0},
    ///     {"name": "slo_burn:sweep", "enabled": false}
    ///   ]
    /// }
    /// ```
    ///
    /// Signals: `counter_rate` (per-second delta of a ring counter
    /// column), `gauge` (latest gauge value), `quantile` (windowed
    /// latency quantile of an endpoint histogram, threshold in
    /// `threshold_ms`), `burn_rate` (worst SLO budget burn of an
    /// endpoint, objective from the SLO config). Series names are the
    /// ring schema's: `/stats` counters, `err.<endpoint>`, gauge and
    /// endpoint names. Omitted members default (`cmp` `">="`,
    /// `window_s` 300, `for_s`/`resolve_s` 0, `severity` `"warn"`);
    /// a rule named like a built-in default replaces it, and
    /// `{"name": ..., "enabled": false}` removes it.
    pub fn from_json(text: &str) -> Result<AlertsConfig, String> {
        let doc = Json::parse(text).map_err(|e| format!("alerts config: {e}"))?;
        let mut cfg = AlertsConfig::default();
        if let Some(v) = doc.get("history") {
            let n = number::<u64>(v, "history")?;
            if n == 0 || n > 4_096 {
                return Err(format!("alerts config: history {n} must be in 1..=4096"));
            }
            cfg.history = n as usize;
        }
        if let Some(v) = doc.get("defaults") {
            cfg.defaults = v
                .as_bool()
                .ok_or_else(|| "alerts config: \"defaults\" must be a boolean".to_string())?;
        }
        if let Some(v) = doc.get("webhook") {
            cfg.webhook = Some(parse_webhook(v)?);
        }
        if let Some(v) = doc.get("rules") {
            let rules = v
                .as_arr()
                .ok_or_else(|| "alerts config: \"rules\" must be an array".to_string())?;
            for rule in rules {
                let spec = parse_rule(rule)?;
                if cfg.rules.iter().any(|r| r.name == spec.name) {
                    return Err(format!("alerts config: duplicate rule {:?}", spec.name));
                }
                cfg.rules.push(spec);
            }
        }
        Ok(cfg)
    }

    /// Bind the configuration against an SLO config: generate the
    /// built-in defaults (one fast-window burn rule per endpoint with
    /// an objective, firing at the SLO's degraded threshold after 60s,
    /// resolving after 300s quiet), then merge the user rules by name.
    pub fn bind(&self, slo: &SloConfig) -> Vec<AlertRule> {
        let mut rules: Vec<AlertRule> = Vec::new();
        if self.defaults {
            for (i, route) in ROUTES.iter().enumerate() {
                let Some(objective) = slo.objective_for(route.endpoint) else {
                    continue;
                };
                rules.push(AlertRule {
                    name: format!("slo_burn:{}", route.label),
                    severity: "page".to_string(),
                    signal: Signal::BurnRate {
                        hist: history::endpoint_hist_col(i),
                        errors: history::endpoint_error_col(i),
                        objective,
                    },
                    cmp: Cmp::Ge,
                    threshold: slo.degraded_burn,
                    window_s: slo.fast_window_s,
                    for_s: 60,
                    resolve_s: 300,
                });
            }
        }
        for spec in &self.rules {
            if !spec.enabled {
                rules.retain(|r| r.name != spec.name);
                continue;
            }
            let signal = match spec.signal.clone() {
                Some(SpecSignal::Resolved(s)) => s,
                Some(SpecSignal::Burn(endpoint)) => Signal::BurnRate {
                    hist: history::endpoint_hist_col(endpoint.index()),
                    errors: history::endpoint_error_col(endpoint.index()),
                    objective: slo.objective_for(endpoint).unwrap_or(slo.default_objective),
                },
                // parse_rule guarantees enabled specs carry a signal.
                None => continue,
            };
            let bound = AlertRule {
                name: spec.name.clone(),
                severity: spec.severity.clone(),
                signal,
                cmp: spec.cmp,
                threshold: spec.threshold,
                window_s: spec.window_s,
                for_s: spec.for_s,
                resolve_s: spec.resolve_s,
            };
            match rules.iter_mut().find(|r| r.name == spec.name) {
                Some(slot) => *slot = bound,
                None => rules.push(bound),
            }
        }
        rules
    }

    /// Bind and wrap into a fresh engine.
    pub fn engine(&self, slo: &SloConfig) -> AlertEngine {
        AlertEngine::new(self.bind(slo), self.history)
    }
}

fn number<T: JsonNumber>(v: &Json, what: &str) -> Result<T, String> {
    v.number(what).map_err(|e| format!("alerts config: {e}"))
}

fn parse_seconds(v: &Json, what: &str, min: u64) -> Result<u64, String> {
    let n = number::<u64>(v, what)?;
    if n < min || n > MAX_SECONDS {
        return Err(format!(
            "alerts config: {what} {n} must be in {min}..={MAX_SECONDS}"
        ));
    }
    Ok(n)
}

/// Parse `{"url": "http://host:port/path", ...}`. The scheme must be
/// plain `http`; the port defaults to 80, the path to `/`.
fn parse_webhook(v: &Json) -> Result<WebhookConfig, String> {
    let url = v
        .get("url")
        .and_then(Json::as_str)
        .ok_or_else(|| "alerts config: webhook.url must be a string".to_string())?;
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("alerts config: webhook.url {url:?} must start with http://"))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let (host, port) = match authority.rsplit_once(':') {
        Some((h, p)) => (
            h,
            p.parse::<u16>()
                .map_err(|_| format!("alerts config: webhook.url port {p:?} is invalid"))?,
        ),
        None => (authority, 80),
    };
    if host.is_empty() {
        return Err(format!("alerts config: webhook.url {url:?} has no host"));
    }
    let mut cfg = WebhookConfig {
        host: host.to_string(),
        port,
        path: path.to_string(),
        queue: 256,
        retries: 3,
    };
    if let Some(q) = v.get("queue") {
        let q = number::<u64>(q, "webhook.queue")?;
        if q == 0 || q > 4_096 {
            return Err(format!(
                "alerts config: webhook.queue {q} must be in 1..=4096"
            ));
        }
        cfg.queue = q as usize;
    }
    if let Some(r) = v.get("retries") {
        let r = number::<u64>(r, "webhook.retries")?;
        if r > 10 {
            return Err(format!("alerts config: webhook.retries {r} must be <= 10"));
        }
        cfg.retries = r as u32;
    }
    Ok(cfg)
}

fn parse_rule(v: &Json) -> Result<RuleSpec, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| "alerts config: every rule needs a non-empty \"name\"".to_string())?
        .to_string();
    let enabled = v.get("enabled").and_then(Json::as_bool).unwrap_or(true);
    if !enabled {
        return Ok(RuleSpec {
            name,
            enabled: false,
            signal: None,
            severity: String::new(),
            cmp: Cmp::Ge,
            threshold: 0.0,
            window_s: 300,
            for_s: 0,
            resolve_s: 0,
        });
    }
    let schema = history::schema();
    let kind = v
        .get("signal")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("alerts config: rule {name:?} needs a \"signal\""))?;
    let series = |what: &str| {
        v.get("series")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("alerts config: rule {name:?} ({what}) needs a \"series\""))
    };
    // Thresholds: quantile rules take milliseconds (converted to the
    // signal's nanoseconds), everything else raw units.
    let mut threshold_from_ms = false;
    let signal = match kind {
        "counter_rate" => {
            let s = series("counter_rate")?;
            let column = schema.counter_index(s).ok_or_else(|| {
                format!("alerts config: rule {name:?}: unknown counter series {s:?}")
            })?;
            SpecSignal::Resolved(Signal::CounterRate { column })
        }
        "gauge" => {
            let s = series("gauge")?;
            let column = schema.gauge_index(s).ok_or_else(|| {
                format!("alerts config: rule {name:?}: unknown gauge series {s:?}")
            })?;
            SpecSignal::Resolved(Signal::Gauge { column })
        }
        "quantile" => {
            let s = series("quantile")?;
            let column = schema.hist_index(s).ok_or_else(|| {
                format!("alerts config: rule {name:?}: unknown latency series {s:?}")
            })?;
            let q = match v.get("q") {
                Some(q) => number::<f64>(q, "q")?,
                None => 0.99,
            };
            if !(q > 0.0 && q < 1.0) {
                return Err(format!(
                    "alerts config: rule {name:?}: q {q} must be in (0, 1)"
                ));
            }
            threshold_from_ms = true;
            SpecSignal::Resolved(Signal::QuantileNs { column, q })
        }
        "burn_rate" => {
            let e = v.get("endpoint").and_then(Json::as_str).ok_or_else(|| {
                format!("alerts config: rule {name:?} (burn_rate) needs an \"endpoint\"")
            })?;
            let route = Route::labelled(e)
                .ok_or_else(|| format!("alerts config: rule {name:?}: unknown endpoint {e:?}"))?;
            SpecSignal::Burn(route.endpoint)
        }
        other => {
            return Err(format!(
                "alerts config: rule {name:?}: unknown signal {other:?} \
                 (counter_rate, gauge, quantile, burn_rate)"
            ));
        }
    };
    let threshold = if threshold_from_ms {
        let ms = v.get("threshold_ms").ok_or_else(|| {
            format!("alerts config: rule {name:?} (quantile) needs a \"threshold_ms\"")
        })?;
        let ms = number::<f64>(ms, "threshold_ms")?;
        if !(ms > 0.0 && ms.is_finite()) {
            return Err(format!(
                "alerts config: rule {name:?}: threshold_ms must be positive"
            ));
        }
        ms * 1e6
    } else {
        let t = v
            .get("threshold")
            .ok_or_else(|| format!("alerts config: rule {name:?} needs a \"threshold\""))?;
        let t = number::<f64>(t, "threshold")?;
        if !t.is_finite() {
            return Err(format!(
                "alerts config: rule {name:?}: threshold must be finite"
            ));
        }
        t
    };
    let cmp = match v.get("cmp") {
        Some(c) => {
            let c = c
                .as_str()
                .ok_or_else(|| format!("alerts config: rule {name:?}: cmp must be a string"))?;
            Cmp::by_name(c).ok_or_else(|| {
                format!("alerts config: rule {name:?}: cmp {c:?} must be one of >, >=, <, <=")
            })?
        }
        None => Cmp::Ge,
    };
    let window_s = match v.get("window_s") {
        Some(w) => parse_seconds(w, "window_s", 1)?,
        None => 300,
    };
    let for_s = match v.get("for_s") {
        Some(f) => parse_seconds(f, "for_s", 0)?,
        None => 0,
    };
    let resolve_s = match v.get("resolve_s") {
        Some(r) => parse_seconds(r, "resolve_s", 0)?,
        None => 0,
    };
    let severity = v
        .get("severity")
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("alerts config: rule {name:?}: severity must be a string"))
        })
        .transpose()?
        .unwrap_or_else(|| "warn".to_string());
    Ok(RuleSpec {
        name,
        enabled: true,
        signal: Some(signal),
        severity,
        cmp,
        threshold,
        window_s,
        for_s,
        resolve_s,
    })
}

/// One active silence: transitions of `rule` are not notified until
/// `until_ms`.
#[derive(Debug, Clone)]
pub struct Silence {
    /// Server-assigned identifier.
    pub id: u64,
    /// The silenced rule's name.
    pub rule: String,
    /// Expiry, milliseconds since the Unix epoch.
    pub until_ms: u64,
    /// Operator-supplied label.
    pub comment: String,
}

/// Whether `rule` is silenced at `now_ms`.
pub(crate) fn is_silenced(silences: &[Silence], rule: &str, now_ms: u64) -> bool {
    silences
        .iter()
        .any(|s| s.rule == rule && s.until_ms > now_ms)
}

/// Parse a `POST /alerts/silence` body
/// (`{"rule": "...", "ttl_s": 600, "comment": "..."}`) against the
/// bound rule set. Returns `(rule, ttl_s, comment)`.
pub(crate) fn parse_silence(
    body: &str,
    rules: &[AlertRule],
) -> Result<(String, u64, String), String> {
    let doc = Json::parse(body).map_err(|e| format!("silence: {e}"))?;
    let rule = doc
        .get("rule")
        .and_then(Json::as_str)
        .ok_or_else(|| "silence: \"rule\" must be a string".to_string())?;
    if !rules.iter().any(|r| r.name == rule) {
        return Err(format!("silence: unknown rule {rule:?}"));
    }
    let ttl = doc
        .get("ttl_s")
        .ok_or_else(|| "silence: \"ttl_s\" is required".to_string())?;
    let ttl =
        number::<u64>(ttl, "ttl_s").map_err(|_| "silence: ttl_s must be an integer".to_string())?;
    if ttl == 0 || ttl > MAX_SECONDS {
        return Err(format!("silence: ttl_s {ttl} must be in 1..={MAX_SECONDS}"));
    }
    let comment = doc
        .get("comment")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Ok((rule.to_string(), ttl, comment))
}

/// The `GET /alerts` document: columnar per-rule state (one canonical
/// order — the engine's rule order), the bounded transition history
/// oldest first, and active silences. Every timestamp comes from the
/// evaluator's frame clock (`as_of_ms` is the last tick), so a replay
/// of identical frames renders identical bytes.
pub(crate) fn alerts_json(engine: &AlertEngine, silences: &[Silence]) -> String {
    let as_of = engine.last_tick_ms();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("as_of_ms");
    w.uint(as_of);
    w.key("firing");
    w.uint(engine.firing_count());
    w.key("pending");
    w.uint(engine.pending_count());
    w.key("rules");
    w.begin_array();
    for r in engine.rules() {
        w.string(&r.name);
    }
    w.end_array();
    w.key("severity");
    w.begin_array();
    for r in engine.rules() {
        w.string(&r.severity);
    }
    w.end_array();
    w.key("state");
    w.begin_array();
    for (i, _) in engine.rules().iter().enumerate() {
        w.string(engine.status(i).state.as_str());
    }
    w.end_array();
    w.key("since_ms");
    w.begin_array();
    for (i, _) in engine.rules().iter().enumerate() {
        w.uint(engine.status(i).since_ms);
    }
    w.end_array();
    w.key("value");
    w.begin_array();
    for (i, _) in engine.rules().iter().enumerate() {
        // NaN (never evaluated / idle window) renders as null.
        w.float(engine.status(i).value);
    }
    w.end_array();
    w.key("threshold");
    w.begin_array();
    for r in engine.rules() {
        w.float(r.threshold);
    }
    w.end_array();
    w.key("silenced");
    w.begin_array();
    for r in engine.rules() {
        w.bool(is_silenced(silences, &r.name, as_of));
    }
    w.end_array();
    w.key("history");
    w.begin_array();
    for e in engine.history() {
        w.begin_object();
        w.key("seq");
        w.uint(e.seq);
        w.key("ts_ms");
        w.uint(e.unix_ms);
        w.key("rule");
        w.string(&engine.rules()[e.rule].name);
        w.key("event");
        w.string(e.transition.as_str());
        w.key("value");
        w.float(e.value);
        w.end_object();
    }
    w.end_array();
    w.key("silences");
    w.begin_array();
    for s in silences {
        w.begin_object();
        w.key("id");
        w.uint(s.id);
        w.key("rule");
        w.string(&s.rule);
        w.key("until_ms");
        w.uint(s.until_ms);
        w.key("comment");
        w.string(&s.comment);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One webhook NDJSON line for a transition event.
pub(crate) fn notification_line(rule: &AlertRule, event: &tpn_obs::alert::AlertEvent) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ts_ms");
    w.uint(event.unix_ms);
    w.key("rule");
    w.string(&rule.name);
    w.key("severity");
    w.string(&rule.severity);
    w.key("event");
    w.string(event.transition.as_str());
    w.key("value");
    w.float(event.value);
    w.key("threshold");
    w.float(rule.threshold);
    w.key("window_s");
    w.uint(rule.window_s);
    w.end_object();
    w.finish()
}

/// Notifier outcome counters, shared between the worker thread and
/// the `/metrics` renderer.
#[derive(Debug, Default)]
pub(crate) struct NotifyCounters {
    /// Lines successfully POSTed.
    pub sent: AtomicU64,
    /// Lines dropped at the full queue.
    pub dropped: AtomicU64,
    /// Lines abandoned after exhausting retries.
    pub failed: AtomicU64,
}

struct NotifyQueue {
    lines: Mutex<VecDeque<String>>,
    available: Condvar,
    stop: AtomicBool,
    cap: usize,
    counters: Arc<NotifyCounters>,
}

/// The webhook notifier: a bounded queue drained by one background
/// worker. `enqueue` never blocks beyond the queue mutex (held only
/// for a push); the worker batches everything queued into one NDJSON
/// POST and retries transport failures with exponential backoff.
pub(crate) struct Notifier {
    queue: Arc<NotifyQueue>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Notifier {
    pub(crate) fn spawn(config: WebhookConfig, counters: Arc<NotifyCounters>) -> Notifier {
        let queue = Arc::new(NotifyQueue {
            lines: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            cap: config.queue,
            counters,
        });
        let worker_queue = queue.clone();
        let worker = std::thread::Builder::new()
            .name("tpn-notify".to_string())
            .spawn(move || worker_loop(&worker_queue, &config))
            .expect("spawn notifier thread");
        Notifier {
            queue,
            worker: Some(worker),
        }
    }

    /// Queue one NDJSON line; drops (and counts) when the queue is at
    /// capacity. Called from the sampler — must never block on I/O.
    pub(crate) fn enqueue(&self, line: String) {
        let mut lines = self.queue.lines.lock().expect("notify queue lock");
        if lines.len() >= self.queue.cap {
            self.queue.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lines.push_back(line);
        drop(lines);
        self.queue.available.notify_one();
    }
}

impl Drop for Notifier {
    fn drop(&mut self) {
        self.queue.stop.store(true, Ordering::Release);
        self.queue.available.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(queue: &NotifyQueue, config: &WebhookConfig) {
    loop {
        let batch: Vec<String> = {
            let mut lines = queue.lines.lock().expect("notify queue lock");
            while lines.is_empty() {
                if queue.stop.load(Ordering::Acquire) {
                    return;
                }
                let (guard, _) = queue
                    .available
                    .wait_timeout(lines, Duration::from_millis(200))
                    .expect("notify queue wait");
                lines = guard;
            }
            lines.drain(..).collect()
        };
        let n = batch.len() as u64;
        if post_with_retries(queue, config, &batch) {
            queue.counters.sent.fetch_add(n, Ordering::Relaxed);
        } else {
            queue.counters.failed.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// POST the batch, retrying transport/status failures with 50ms
/// shifted-left backoff. Gives up early when the notifier is being
/// dropped.
fn post_with_retries(queue: &NotifyQueue, config: &WebhookConfig, batch: &[String]) -> bool {
    for attempt in 0..=config.retries {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(50 << (attempt - 1).min(6)));
        }
        if queue.stop.load(Ordering::Acquire) {
            return false;
        }
        if post_once(config, batch).is_ok() {
            return true;
        }
    }
    false
}

/// One webhook POST: hand-rolled HTTP/1.1 over a fresh connection
/// (`Connection: close`), bounded by a 1s connect timeout and 2s
/// read/write timeouts so a black-holed endpoint cannot wedge the
/// worker. Success is any 2xx status.
fn post_once(config: &WebhookConfig, batch: &[String]) -> std::io::Result<()> {
    let addr = (config.host.as_str(), config.port)
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut body = String::new();
    for line in batch {
        body.push_str(line);
        body.push('\n');
    }
    let request = format!(
        "POST {} HTTP/1.1\r\nHost: {}:{}\r\nContent-Type: application/x-ndjson\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        config.path,
        config.host,
        config.port,
        body.len(),
        body
    );
    stream.write_all(request.as_bytes())?;
    // Read just the response head; the status line is all we judge.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if crate::http::find_double_crlf(&head).is_some() || head.len() > 16 * 1024 {
            break;
        }
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let text = std::str::from_utf8(line)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 status"))?;
    // "HTTP/1.1 200 OK" — the status code is the second token.
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(std::io::Error::other(format!("webhook status {status}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_obs::alert::AlertState;
    use tpn_obs::series::SeriesRing;

    #[test]
    fn defaults_bind_one_burn_rule_per_objective() {
        let slo = SloConfig::default();
        let rules = AlertsConfig::default().bind(&slo);
        // One rule per analysis endpoint, in ROUTES order.
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "slo_burn:analyze");
        assert_eq!(rules.len(), 9);
        assert!(names.contains(&"slo_burn:whatif"));
        for r in &rules {
            assert_eq!(r.threshold, slo.degraded_burn);
            assert_eq!(r.window_s, slo.fast_window_s);
            assert_eq!((r.for_s, r.resolve_s), (60, 300));
        }
    }

    #[test]
    fn config_parses_and_merges_onto_defaults() {
        let cfg = AlertsConfig::from_json(
            r#"{
                "history": 64,
                "webhook": {"url": "http://127.0.0.1:9400/hook", "queue": 8},
                "rules": [
                    {"name": "rss_high", "signal": "gauge", "series": "rss_bytes",
                     "cmp": ">", "threshold": 2000000000, "for_s": 120},
                    {"name": "analyze_p99", "signal": "quantile", "series": "analyze",
                     "q": 0.5, "threshold_ms": 500, "window_s": 60, "severity": "page"},
                    {"name": "err_rate", "signal": "counter_rate", "series": "err.analyze",
                     "threshold": 1},
                    {"name": "slo_burn:analyze", "signal": "burn_rate",
                     "endpoint": "analyze", "threshold": 2.5, "for_s": 0},
                    {"name": "slo_burn:sweep", "enabled": false}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.history, 64);
        let hook = cfg.webhook.as_ref().unwrap();
        assert_eq!(
            (hook.host.as_str(), hook.port, hook.path.as_str()),
            ("127.0.0.1", 9400, "/hook")
        );
        assert_eq!((hook.queue, hook.retries), (8, 3));
        let rules = cfg.bind(&SloConfig::default());
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        // sweep default removed; the three new rules appended after
        // the remaining defaults; analyze default replaced in place.
        assert!(!names.contains(&"slo_burn:sweep"));
        assert_eq!(rules.len(), 8 + 3);
        let analyze = rules.iter().find(|r| r.name == "slo_burn:analyze").unwrap();
        assert_eq!((analyze.threshold, analyze.for_s), (2.5, 0));
        let p99 = rules.iter().find(|r| r.name == "analyze_p99").unwrap();
        assert_eq!(p99.threshold, 500.0 * 1e6);
        assert_eq!(p99.severity, "page");
        let err = rules.iter().find(|r| r.name == "err_rate").unwrap();
        assert!(matches!(err.signal, Signal::CounterRate { .. }));
    }

    #[test]
    fn config_rejects_nonsense() {
        for bad in [
            "not json",
            r#"{"history": 0}"#,
            r#"{"history": 5000}"#,
            r#"{"rules": [{}]}"#,
            r#"{"rules": [{"name": "x"}]}"#,
            r#"{"rules": [{"name": "x", "signal": "nope", "threshold": 1}]}"#,
            r#"{"rules": [{"name": "x", "signal": "gauge", "series": "nope", "threshold": 1}]}"#,
            r#"{"rules": [{"name": "x", "signal": "gauge", "series": "rss_bytes"}]}"#,
            r#"{"rules": [{"name": "x", "signal": "quantile", "series": "analyze", "q": 1.5, "threshold_ms": 1}]}"#,
            r#"{"rules": [{"name": "x", "signal": "quantile", "series": "analyze", "threshold": 1}]}"#,
            r#"{"rules": [{"name": "x", "signal": "gauge", "series": "rss_bytes", "cmp": "!=", "threshold": 1}]}"#,
            r#"{"rules": [{"name": "x", "signal": "gauge", "series": "rss_bytes", "threshold": 1, "window_s": 0}]}"#,
            r#"{"rules": [{"name": "x", "signal": "burn_rate", "threshold": 1}]}"#,
            r#"{"rules": [{"name": "x", "signal": "gauge", "series": "rss_bytes", "threshold": 1},
                          {"name": "x", "signal": "gauge", "series": "rss_bytes", "threshold": 2}]}"#,
            r#"{"webhook": {"url": "ftp://x/hook"}}"#,
            r#"{"webhook": {"url": "http://:1/hook"}}"#,
            r#"{"webhook": {"url": "http://h:1/x", "queue": 0}}"#,
            r#"{"webhook": {"url": "http://h:1/x", "retries": 11}}"#,
        ] {
            assert!(AlertsConfig::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn silences_gate_by_rule_and_expiry() {
        let silences = vec![Silence {
            id: 1,
            rule: "rss_high".into(),
            until_ms: 10_000,
            comment: "maintenance".into(),
        }];
        assert!(is_silenced(&silences, "rss_high", 9_999));
        assert!(!is_silenced(&silences, "rss_high", 10_000));
        assert!(!is_silenced(&silences, "other", 9_999));
        let rules = AlertsConfig::default().bind(&SloConfig::default());
        assert!(parse_silence(r#"{"rule": "slo_burn:analyze", "ttl_s": 60}"#, &rules).is_ok());
        assert!(parse_silence(r#"{"rule": "nope", "ttl_s": 60}"#, &rules).is_err());
        assert!(parse_silence(r#"{"rule": "slo_burn:analyze", "ttl_s": 0}"#, &rules).is_err());
        assert!(parse_silence("{}", &rules).is_err());
    }

    #[test]
    fn alerts_document_is_canonical_and_replayable() {
        let cfg = AlertsConfig::from_json(
            r#"{"defaults": false, "rules": [
                {"name": "rss_high", "signal": "gauge", "series": "rss_bytes",
                 "threshold": 100, "for_s": 1, "resolve_s": 1}
            ]}"#,
        )
        .unwrap();
        let slo = SloConfig::default();
        let run = || {
            let mut engine = cfg.engine(&slo);
            let ring = SeriesRing::new(history::schema(), 16);
            let m = crate::metrics::ServiceMetrics::new(true);
            let base = crate::metrics::StatsSnapshot::default();
            for (i, rss) in [200.0, 200.0, 200.0, 0.0, 0.0, 0.0].iter().enumerate() {
                let mut f = history::collect_frame(&m, &base, (i as u64 + 1) * 1_000);
                f.gauges[history::GAUGE_RSS] = *rss;
                ring.push(&f);
                engine.tick(&ring, &f);
            }
            (alerts_json(&engine, &[]), engine.firing_count())
        };
        let (doc, firing) = run();
        assert_eq!(firing, 0); // fired at 2s, resolved at 5s
        crate::jsonval::Json::parse(&doc).expect("alerts document parses");
        assert!(doc.contains(r#""rules":["rss_high"]"#), "{doc}");
        assert!(doc.contains(r#""event":"firing""#), "{doc}");
        assert!(doc.contains(r#""event":"resolved""#), "{doc}");
        // Replaying identical frames renders identical bytes.
        assert_eq!(doc, run().0);
    }

    #[test]
    fn engine_runs_against_the_service_schema() {
        let slo = SloConfig::default();
        let mut engine = AlertsConfig::default().engine(&slo);
        let ring = SeriesRing::new(history::schema(), 8);
        let m = crate::metrics::ServiceMetrics::new(true);
        let base = crate::metrics::StatsSnapshot::default();
        let f0 = history::collect_frame(&m, &base, 1_000);
        ring.push(&f0);
        engine.tick(&ring, &f0);
        // 10 catastrophically slow analyze requests: burn goes past
        // the degraded threshold, rule goes pending (for_s 60 gates
        // actual firing).
        for _ in 0..10 {
            m.record(crate::metrics::Endpoint::Analyze, 200, 1_000_000_000);
        }
        let f1 = history::collect_frame(&m, &base, 2_000);
        ring.push(&f1);
        engine.tick(&ring, &f1);
        assert_eq!(engine.status(0).state, AlertState::Pending);
        assert_eq!(engine.pending_count(), 1);
    }
}
