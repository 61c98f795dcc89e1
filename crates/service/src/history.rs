//! Time-series retention for the service: the ring schema, frame
//! collection, and the `GET /metrics/history` document.
//!
//! The sampler (a thread [`spawn`](crate::spawn) runs every
//! `sample_interval_ms`, or [`Service::sample_now`](crate::Service)
//! directly) collects one [`Frame`] per tick — every counter of the
//! `metrics::COUNTERS` registry, per-endpoint 5xx counters and
//! duration histograms, cache and `/proc/self` gauges — into a
//! [`SeriesRing`]. Everything temporal is derived at read time from
//! frame deltas: req/s, error-ratio, cache-hit-ratio and windowed
//! latency quantiles for any trailing window the retention covers.
//!
//! `/metrics/history` renders compact JSON columns: one array entry
//! per retained interval, aligned across all arrays, `null` where an
//! interval saw no samples.

use tpn_obs::series::{Frame, SeriesRing, SeriesSchema};

use crate::analysis::ServiceError;
use crate::json::JsonWriter;
use crate::metrics::{self, ServiceMetrics, StatsSnapshot, COUNTERS, ROUTES};

/// The gauge columns, in order: cache sizing, session count, then the
/// `/proc/self` process gauges.
pub(crate) const GAUGES: [&str; 6] = [
    "cache_entries",
    "cache_bytes",
    "sessions",
    "rss_bytes",
    "open_fds",
    "os_threads",
];

// Counter column indices the renderer reads.
pub(crate) const COL_REQUESTS: usize = metrics::column("requests");
pub(crate) const COL_HITS: usize = metrics::column("hits");
pub(crate) const COL_MISSES: usize = metrics::column("misses");

// Gauge column indices.
pub(crate) const GAUGE_RSS: usize = 3;
pub(crate) const GAUGE_FDS: usize = 4;
pub(crate) const GAUGE_THREADS: usize = 5;

/// Counter column of one endpoint's 5xx responses (the error
/// dimension of its SLO window).
pub(crate) fn endpoint_error_col(endpoint: usize) -> usize {
    COUNTERS.len() + endpoint
}

/// Histogram column of one endpoint's request durations.
pub(crate) fn endpoint_hist_col(endpoint: usize) -> usize {
    endpoint
}

/// The frame layout every service ring uses.
pub(crate) fn schema() -> SeriesSchema {
    let mut counters: Vec<String> = COUNTERS.iter().map(|c| c.name.to_string()).collect();
    counters.extend(ROUTES.iter().map(|r| format!("err.{}", r.label)));
    SeriesSchema {
        counters,
        gauges: GAUGES.iter().map(|s| s.to_string()).collect(),
        hists: ROUTES.iter().map(|r| r.label.to_string()).collect(),
    }
}

/// Collect one frame from the live counters. `stats` must be freshly
/// snapshotted; `unix_ms` stamps the frame.
pub(crate) fn collect_frame(
    metrics: &ServiceMetrics,
    stats: &StatsSnapshot,
    unix_ms: u64,
) -> Frame {
    let proc = tpn_obs::procinfo::sample();
    let mut counters = stats.counters.to_vec();
    for (i, _) in ROUTES.iter().enumerate() {
        counters.push(metrics.errors_5xx(i));
    }
    Frame {
        unix_ms,
        counters,
        gauges: vec![
            stats.entries as f64,
            stats.bytes as f64,
            stats.session_entries as f64,
            proc.rss_bytes as f64,
            proc.open_fds as f64,
            proc.threads as f64,
        ],
        hists: ROUTES
            .iter()
            .map(|r| metrics.duration_snapshot(r.endpoint))
            .collect(),
    }
}

/// Validated `window`/`step` query parameters of `/metrics/history`.
pub(crate) fn validate_params(window_s: u64, step_s: u64) -> Result<(), ServiceError> {
    if window_s == 0 || window_s > 86_400 {
        return Err(ServiceError::BadRequest(format!(
            "window must be 1..=86400 seconds, got {window_s}"
        )));
    }
    if step_s == 0 || step_s > window_s {
        return Err(ServiceError::BadRequest(format!(
            "step must be 1..={window_s} seconds, got {step_s}"
        )));
    }
    if window_s / step_s > 2_000 {
        return Err(ServiceError::BadRequest(format!(
            "window/step = {} intervals exceeds the limit 2000",
            window_s / step_s
        )));
    }
    Ok(())
}

/// The frames the document derives intervals from: the retained
/// frames inside the window, decimated to `step` spacing, preceded by
/// the newest pre-window frame (the baseline the first interval's
/// deltas are taken against) when one exists.
fn select_frames(ring: &SeriesRing, now_ms: u64, window_s: u64, step_s: u64) -> Vec<Frame> {
    let cutoff = now_ms.saturating_sub(window_s.saturating_mul(1_000));
    let step_ms = step_s.saturating_mul(1_000);
    let all = ring.frames();
    let mut selected: Vec<Frame> = Vec::new();
    if let Some(baseline) = all.iter().rev().find(|f| f.unix_ms < cutoff) {
        selected.push(baseline.clone());
    }
    for f in all.into_iter().filter(|f| f.unix_ms >= cutoff) {
        match selected.last() {
            Some(prev) if f.unix_ms < prev.unix_ms.saturating_add(step_ms) => {}
            _ => selected.push(f),
        }
    }
    selected
}

/// The leaf column names `series=` may select, i.e. every array the
/// document can emit below the header block.
const SERIES_NAMES: [&str; 9] = [
    "req_s",
    "cache_hit_ratio",
    "rss_bytes",
    "open_fds",
    "threads",
    "err_s",
    "p50_ns",
    "p90_ns",
    "p99_ns",
];

/// The validated `series=` name filter: `None` selects everything, a
/// list selects only those leaf columns (the header block — `t_ms`,
/// `dt_s` and the counts — always renders).
pub(crate) struct SeriesFilter(Option<Vec<String>>);

impl SeriesFilter {
    /// Parse a comma-separated `series=` value; every name must be one
    /// of [`SERIES_NAMES`].
    pub(crate) fn parse(param: Option<&str>) -> Result<SeriesFilter, ServiceError> {
        let Some(param) = param else {
            return Ok(SeriesFilter(None));
        };
        let mut names = Vec::new();
        for name in param.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if !SERIES_NAMES.contains(&name) {
                return Err(ServiceError::BadRequest(format!(
                    "unknown series {name:?}; known: {}",
                    SERIES_NAMES.join(", ")
                )));
            }
            names.push(name.to_string());
        }
        Ok(SeriesFilter(Some(names)))
    }

    fn keeps(&self, name: &str) -> bool {
        match &self.0 {
            None => true,
            Some(names) => names.iter().any(|n| n == name),
        }
    }
}

/// Assemble the `GET /metrics/history?window=&step=&series=` document.
/// Columnar JSON: every array holds one entry per interval between
/// consecutively selected frames, aligned by index; quantile entries
/// are `null` for intervals without samples. Endpoints appear only
/// when they saw traffic inside the rendered span; `filter` drops
/// unselected leaf arrays so dashboards can fetch one column.
pub(crate) fn history_json(
    ring: &SeriesRing,
    now_ms: u64,
    window_s: u64,
    step_s: u64,
    filter: &SeriesFilter,
) -> Result<String, ServiceError> {
    validate_params(window_s, step_s)?;
    let frames = select_frames(ring, now_ms, window_s, step_s);
    let intervals: Vec<(&Frame, &Frame)> = frames.windows(2).map(|w| (&w[0], &w[1])).collect();
    let dt_s: Vec<f64> = intervals
        .iter()
        .map(|(a, b)| (b.unix_ms.saturating_sub(a.unix_ms)) as f64 / 1_000.0)
        .collect();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("now_ms");
    w.uint(now_ms);
    w.key("window_s");
    w.uint(window_s);
    w.key("step_s");
    w.uint(step_s);
    w.key("samples");
    w.uint(frames.len() as u64);
    w.key("t_ms");
    w.begin_array();
    for (_, b) in &intervals {
        w.uint(b.unix_ms);
    }
    w.end_array();
    w.key("dt_s");
    w.begin_array();
    for dt in &dt_s {
        w.float(*dt);
    }
    w.end_array();

    w.key("service");
    w.begin_object();
    if filter.keeps("req_s") {
        w.key("req_s");
        w.begin_array();
        for ((a, b), dt) in intervals.iter().zip(&dt_s) {
            rate(&mut w, b.counter_delta(a, COL_REQUESTS), *dt);
        }
        w.end_array();
    }
    if filter.keeps("cache_hit_ratio") {
        w.key("cache_hit_ratio");
        w.begin_array();
        for (a, b) in &intervals {
            let hits = b.counter_delta(a, COL_HITS);
            let total = hits + b.counter_delta(a, COL_MISSES);
            if total == 0 {
                w.null();
            } else {
                w.float(hits as f64 / total as f64);
            }
        }
        w.end_array();
    }
    w.end_object();

    w.key("process");
    w.begin_object();
    for (key, col) in [
        ("rss_bytes", GAUGE_RSS),
        ("open_fds", GAUGE_FDS),
        ("threads", GAUGE_THREADS),
    ] {
        if !filter.keeps(key) {
            continue;
        }
        w.key(key);
        w.begin_array();
        for (_, b) in &intervals {
            w.uint(b.gauges[col] as u64);
        }
        w.end_array();
    }
    w.end_object();

    w.key("endpoints");
    w.begin_object();
    for (i, route) in ROUTES.iter().enumerate() {
        let hist = endpoint_hist_col(i);
        let traffic: u64 = intervals
            .iter()
            .map(|(a, b)| b.hist_delta(a, hist).count())
            .sum();
        if traffic == 0 {
            continue;
        }
        w.key(route.label);
        w.begin_object();
        if filter.keeps("req_s") {
            w.key("req_s");
            w.begin_array();
            for ((a, b), dt) in intervals.iter().zip(&dt_s) {
                rate(&mut w, b.hist_delta(a, hist).count(), *dt);
            }
            w.end_array();
        }
        if filter.keeps("err_s") {
            w.key("err_s");
            w.begin_array();
            for ((a, b), dt) in intervals.iter().zip(&dt_s) {
                rate(&mut w, b.counter_delta(a, endpoint_error_col(i)), *dt);
            }
            w.end_array();
        }
        for (key, q) in [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)] {
            if !filter.keeps(key) {
                continue;
            }
            w.key(key);
            w.begin_array();
            for (a, b) in &intervals {
                match b.hist_delta(a, hist).quantile_ns(q) {
                    Some(ns) => w.float(ns),
                    None => w.null(),
                }
            }
            w.end_array();
        }
        w.end_object();
    }
    w.end_object();
    w.end_object();
    Ok(w.finish())
}

/// One per-second rate entry: `null` on a zero-length interval (two
/// frames with the same timestamp cannot define a rate).
fn rate(w: &mut JsonWriter, delta: u64, dt_s: f64) {
    if dt_s <= 0.0 {
        w.null();
    } else {
        w.float(delta as f64 / dt_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Endpoint;

    fn ring_with(frames: &[Frame]) -> SeriesRing {
        let ring = SeriesRing::new(schema(), 32);
        for f in frames {
            ring.push(f);
        }
        ring
    }

    fn frame_at(metrics: &ServiceMetrics, requests: u64, ts: u64) -> Frame {
        let mut stats = StatsSnapshot::default();
        stats.counters[COL_REQUESTS] = requests;
        stats.counters[COL_HITS] = requests / 2;
        stats.counters[COL_MISSES] = requests - requests / 2;
        collect_frame(metrics, &stats, ts)
    }

    #[test]
    fn schema_shapes_match_collect_frame() {
        let m = ServiceMetrics::new(true);
        let s = schema();
        let f = frame_at(&m, 0, 1_000);
        assert_eq!(f.counters.len(), s.counters.len());
        assert_eq!(f.gauges.len(), s.gauges.len());
        assert_eq!(f.hists.len(), s.hists.len());
        assert_eq!(s.counter_index("requests"), Some(COL_REQUESTS));
        assert_eq!(s.counter_index("err.analyze"), Some(endpoint_error_col(0)));
        assert_eq!(s.gauge_index("rss_bytes"), Some(GAUGE_RSS));
        assert_eq!(s.hist_index("analyze"), Some(0));
    }

    #[test]
    fn params_are_validated() {
        assert!(validate_params(300, 5).is_ok());
        assert!(validate_params(0, 5).is_err());
        assert!(validate_params(100_000, 5).is_err());
        assert!(validate_params(300, 0).is_err());
        assert!(validate_params(300, 301).is_err());
        assert!(validate_params(86_400, 1).is_err()); // too many intervals
    }

    #[test]
    fn history_reconstructs_rates_from_deltas() {
        let m = ServiceMetrics::new(true);
        // 3 frames 1s apart: 0 → 10 → 30 requests, with matching
        // analyze-endpoint latency samples.
        let f0 = frame_at(&m, 0, 10_000);
        for _ in 0..10 {
            m.record(Endpoint::Analyze, 200, 2_000_000);
        }
        let f1 = frame_at(&m, 10, 11_000);
        for _ in 0..20 {
            m.record(Endpoint::Analyze, 200, 2_000_000);
        }
        let f2 = frame_at(&m, 30, 12_000);
        let ring = ring_with(&[f0, f1, f2]);
        let doc = history_json(&ring, 12_000, 10, 1, &SeriesFilter(None)).unwrap();
        crate::jsonval::Json::parse(&doc).expect("history document parses");
        assert!(doc.contains(r#""samples":3"#), "{doc}");
        // Interval rates: 10 req/s then 20 req/s.
        assert!(doc.contains(r#""req_s":[10,20]"#), "{doc}");
        // Only the analyze endpoint saw traffic.
        assert!(doc.contains(r#""analyze":"#), "{doc}");
        assert!(!doc.contains(r#""sweep":"#), "{doc}");
        // 2ms samples: every quantile interpolates inside (1ms, 2.5ms].
        assert!(doc.contains(r#""p99_ns":["#), "{doc}");
    }

    #[test]
    fn empty_intervals_render_null_quantiles() {
        let m = ServiceMetrics::new(true);
        m.record(Endpoint::Analyze, 200, 2_000_000);
        let f0 = frame_at(&m, 1, 10_000);
        let f1 = frame_at(&m, 1, 11_000); // no new samples
        let ring = ring_with(&[f0, f1]);
        let doc = history_json(&ring, 11_000, 10, 1, &SeriesFilter(None)).unwrap();
        // The single interval has traffic 0 → analyze is omitted, but
        // the service arrays still render.
        assert!(doc.contains(r#""req_s":[0]"#), "{doc}");
        assert!(doc.contains(r#""cache_hit_ratio":[null]"#), "{doc}");
    }

    #[test]
    fn series_filter_selects_leaf_columns() {
        let m = ServiceMetrics::new(true);
        let f0 = frame_at(&m, 0, 10_000);
        for _ in 0..10 {
            m.record(Endpoint::Analyze, 200, 2_000_000);
        }
        let f1 = frame_at(&m, 10, 11_000);
        let ring = ring_with(&[f0, f1]);
        let filter = SeriesFilter::parse(Some("req_s,p99_ns")).unwrap();
        let doc = history_json(&ring, 11_000, 10, 1, &filter).unwrap();
        crate::jsonval::Json::parse(&doc).expect("filtered document parses");
        assert!(doc.contains(r#""req_s":"#), "{doc}");
        assert!(doc.contains(r#""p99_ns":"#), "{doc}");
        assert!(!doc.contains(r#""cache_hit_ratio""#), "{doc}");
        assert!(!doc.contains(r#""rss_bytes""#), "{doc}");
        assert!(!doc.contains(r#""p50_ns""#), "{doc}");
        // The header block always renders.
        assert!(doc.contains(r#""t_ms":"#), "{doc}");
        // Unknown names are a 400, not a silent empty document.
        assert!(SeriesFilter::parse(Some("req_s,nope")).is_err());
    }

    #[test]
    fn decimation_respects_step() {
        let m = ServiceMetrics::new(true);
        let frames: Vec<Frame> = (0..10)
            .map(|i| frame_at(&m, i, 10_000 + i * 1_000))
            .collect();
        let ring = ring_with(&frames);
        // step=3s over a 9s window: frames at 10s, 13s, 16s, 19s.
        let selected = select_frames(&ring, 19_000, 9, 3);
        assert_eq!(
            selected.iter().map(|f| f.unix_ms).collect::<Vec<_>>(),
            vec![10_000, 13_000, 16_000, 19_000]
        );
    }
}
