//! The repository benchmark: one client process drives the `tpn serve`
//! analysis daemon over loopback HTTP in a closed loop.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (every request is `POST /analyze`):
//!
//! | workload | conns | request | stresses |
//! |---|---|---|---|
//! | `cold_states` | 1 | a new variant of `product_cycles(3)`: 708 TRG states, 1 decision edge | TRG build and decision-graph collapse |
//! | `cold_decisions` | 1 | a new variant of `lossy_chain(32, loss 1/10)`: 98 states, 64 decision edges | rate solver, near the i128 ceiling |
//! | `warm_http` | 2 | fig1, ABP, `producer_consumer(32)`, `lossy_chain(32)`, round-robin | parse, digest, body cache, listener |
//!
//! `BENCHMARK.json` gates `cold_decisions` and `warm_http`. `cold_states`
//! runs by hand: its allocation-heavy requests follow the host's memory
//! speed, and on a shared 2-vCPU VM its p50 varied across seeds by more
//! than the 0.25 bound.
//!
//! The seed picks the net names, the declaration order and a time scale
//! `s`; no variant changes a TRG or decision graph. Every response passes
//! an oracle from outside the analyzer: closed-form throughputs on the
//! cold workloads, byte identity with the in-process body (and, for fig1,
//! with `tests/fixtures/golden/analyze.json`) on `warm_http`.
//!
//! With `--trace 0` it runs epochs: a fresh daemon is started, primed
//! and serves a fixed number of requests, so every epoch sees the same
//! daemon history; epochs repeat until `--seconds` of closed loop are
//! measured. It reports the end-to-end metrics `ops_per_s`,
//! `latency_p50_ms`, `latency_p90_ms` (client side, send to last byte;
//! an epoch has at least 100 requests, so its p90 has ten beyond it),
//! `peak_rss_mb` (the daemon's `VmHWM` at the end of an epoch) and
//! `setup_s` (start to a primed, serving daemon), each the median of its
//! per-epoch values.
//!
//! With `--trace 1` it runs such epochs for two thirds of `--seconds`,
//! alternately untraced and with a span around every HTTP round trip,
//! then spends the last third calling each layer in-process on the same
//! bodies, every call wrapped in a span. It writes the spans (request id,
//! parent, start, end, self time) to `<out-dir>/spans-<workload>-<seed>.ndjson`
//! and reports per-layer metrics; the end-to-end metric each should move:
//!
//! | metric | layer | should move |
//! |---|---|---|
//! | `parse.us`, `parse.bytes_per_us` | `parse_tpn` | `warm_http` latency, ops/s |
//! | `digest.us` | `TimedPetriNet::digest` | `warm_http` latency, ops/s |
//! | `trg.ms`, `trg.states`, `trg.edges`, `trg.states_per_s`, `trg.rss_bytes_per_state` | `Session::trg` | `cold_states` latency, `peak_rss_mb` |
//! | `decision.ms`, `decision.nodes`, `decision.edges`, `decision.ms_per_trg_ms` | `Session::decision_graph` | `cold_states` latency |
//! | `rates.ms`, `rates.max_bits` | `Session::rates` | `cold_decisions` latency |
//! | `measures.us` | `Session::performance` | `cold_decisions` latency |
//! | `render.us`, `render.bytes` | `run_with_session(Analyze)` on built artifacts | `cold_states` latency |
//! | `respond.us`, `cache.hit_ratio` (base `cache.lookups`), `cache.computations`, `sessions.evictions` | `Service::respond`, daemon `/stats` | `warm_http` latency, ops/s |
//! | `listener.server_p50_us`, `listener.overhead_us`, `listener.rejected` | listener, daemon `/metrics` and `/stats` | `warm_http` latency, ops/s |
//! | `http.us`, `trace.overhead_us` | the traced HTTP round trip, minus the untraced one | none (tracing cost) |
//!
//! `trg.rss_bytes_per_state` is the peak growth of live heap bytes while
//! one TRG is built, per state. `respond.us` is a warm hit on `warm_http`
//! and a miss on the cold workloads, like the daemon's own work there.

mod daemon;
mod gen;
mod http;
mod trace;
mod workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tpn_service::{Json, RequestKind};
use tpn_session::Session;

use daemon::Daemon;
use http::Conn;
use trace::Tracer;
use workload::Workload;

/// Fewest epochs per run: `setup_s` and `peak_rss_mb` are medians over
/// the epochs.
const MIN_EPOCHS: usize = 3;

const USAGE: &str = "usage: tpn-perfbench --tpn <tpn binary> --out-dir <dir> \
                     --workload <cold_states|cold_decisions|warm_http> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    tpn: PathBuf,
    out_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut tpn, mut out_dir, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--tpn" => tpn = Some(PathBuf::from(&value)),
            "--out-dir" => out_dir = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let missing = |what| format!("missing {what}");
    Ok(Args {
        tpn: tpn.ok_or_else(|| missing("--tpn"))?,
        out_dir: out_dir.ok_or_else(|| missing("--out-dir"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or_else(|| missing("a positive --seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// One run's result: the last line of standard output.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn add(&mut self, report: &http::LoopReport) {
        self.attempted += report.attempted;
        self.failed += report.failed;
        if let Some(e) = &report.first_error {
            eprintln!("perfbench: {e}");
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let outcome = parse_args()
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let wl = Workload::new(&args.workload, args.seed)?;
    let seconds = Duration::from_secs_f64(args.seconds);
    let out = if args.trace {
        traced(args, &wl, seconds / 3)?
    } else {
        untraced(args, &wl, seconds)?
    };
    match out.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, value, _)) => Err(format!("{name} is {value}")),
        None => Ok(out),
    }
}

/// The end-to-end run: epochs on fresh daemons until `seconds` of closed
/// loop are measured. Each metric is the median of its per-epoch values,
/// which a slow spell of the host during a few epochs does not move.
fn untraced(args: &Args, wl: &Workload, seconds: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let [mut rate, mut p50, mut p90, mut setup, mut peak] = std::array::from_fn(|_| Vec::new());
    let (mut measured, mut first) = (Duration::ZERO, 0);
    while measured < seconds || setup.len() < MIN_EPOCHS {
        let (daemon, mut conns, setup_s) = start(wl, &args.tpn)?;
        // A program too slow to finish an epoch in `seconds` still ends
        // the run within MIN_EPOCHS times `seconds`.
        let budget = http::Budget {
            duration: seconds,
            requests: wl.epoch_requests,
        };
        let mut report = drive(wl, &mut conns, budget, first, |_, _, _| {});
        out.add(&report);
        first += report.attempted;
        measured += report.elapsed;
        rate.push(report.latencies_ns.len() as f64 / report.elapsed.as_secs_f64());
        p50.push(quantile(&mut report.latencies_ns, 0.5) / 1e6);
        p90.push(quantile(&mut report.latencies_ns, 0.9) / 1e6);
        setup.push(setup_s);
        peak.push(daemon.peak_rss_kib()? as f64 / 1024.0);
    }
    out.metric("ops_per_s", quantile_f64(&mut rate, 0.5), "1/s");
    out.metric("latency_p50_ms", quantile_f64(&mut p50, 0.5), "ms");
    out.metric("latency_p90_ms", quantile_f64(&mut p90, 0.5), "ms");
    out.metric("peak_rss_mb", quantile_f64(&mut peak, 0.5), "MiB");
    out.metric("setup_s", quantile_f64(&mut setup, 0.5), "s");
    Ok(out)
}

/// Start a daemon and wait until it serves, with the workload's
/// working set primed. Returns it, the client connections and the
/// seconds this took.
fn start(wl: &Workload, tpn: &std::path::Path) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::start(tpn)?;
    let mut conns = (0..wl.conns)
        .map(|_| Conn::open(daemon.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let health = conns[0].round_trip(&http::get("/healthz"))?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    for (k, body) in wl.working_set().iter().enumerate() {
        let r = conns[0].round_trip(&http::post("/analyze", body))?;
        wl.check(k as u64, r.status, &r.body)
            .map_err(|e| format!("priming request {k}: {e}"))?;
    }
    Ok((daemon, conns, start.elapsed().as_secs_f64()))
}

/// The closed loop of `wl` over `conns`, requests numbered from `first`.
fn drive(
    wl: &Workload,
    conns: &mut [Conn],
    budget: http::Budget,
    first: u64,
    done: impl FnMut(u64, Instant, Instant),
) -> http::LoopReport {
    http::closed_loop(
        conns,
        budget,
        first,
        |k| http::post("/analyze", &wl.body(k)),
        |k, r| wl.check(k, r.status, &r.body),
        done,
    )
}

/// The per-layer run: epochs like the untraced run's, alternately
/// untraced and with a span around every HTTP round trip, for twice
/// `phase`; then in-process calls into each layer for `phase`.
fn traced(args: &Args, wl: &Workload, phase: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let (mut plain, mut first, mut epochs) = (Vec::new(), 0, 0);
    let mut counts = [0.0; 5];
    let mut durations: Vec<(f64, f64)> = Vec::new();
    let start_time = Instant::now();
    while start_time.elapsed() < 2 * phase || epochs < 2 {
        let (daemon, mut conns, _) = start(wl, &args.tpn)?;
        let (stats0, metrics0) = (daemon_counts(&daemon)?, daemon.get("/metrics")?);
        let traced_epoch = epochs % 2 == 1;
        let budget = http::Budget {
            duration: phase,
            requests: wl.epoch_requests,
        };
        let report = drive(wl, &mut conns, budget, first, |k, sent, done| {
            if traced_epoch {
                tracer.record(k, "http", sent, done)
            }
        });
        let (stats1, metrics1) = (daemon_counts(&daemon)?, daemon.get("/metrics")?);
        for (total, (after, before)) in counts.iter_mut().zip(stats1.iter().zip(stats0)) {
            *total += after - before;
        }
        let delta = duration_buckets(&metrics0, &metrics1)?;
        if durations.is_empty() {
            durations = delta;
        } else {
            for (sum, (_, n)) in durations.iter_mut().zip(delta) {
                sum.1 += n;
            }
        }
        if !traced_epoch {
            plain.extend_from_slice(&report.latencies_ns);
        }
        out.add(&report);
        first += report.attempted;
        epochs += 1;
    }
    let plain_p50_us = quantile(&mut plain, 0.5) / 1e3;
    let [hits, misses, computations, evictions, rejected] = counts;

    // In-process layers on the workload's distinct nets. One untimed
    // build of each first measures the heap a TRG takes.
    let distinct = wl.distinct();
    let options = tpn_service::ServiceConfig::default().session_options();
    let (mut heap, mut heap_states) = (0.0, 0.0);
    for k in first..first + distinct {
        let net = tpn_net::parse_tpn(&wl.body(k)).map_err(|e| e.to_string())?;
        let (states, grown) = trace::peak_heap_growth(|| {
            let session = Session::new(net, options.clone());
            session.trg().map(|trg| trg.num_states())
        });
        heap += grown as f64;
        heap_states += states.map_err(|e| e.to_string())? as f64;
    }

    let mut sizes = Vec::new();
    let start = Instant::now();
    while (sizes.len() as u64) < distinct || start.elapsed() < phase {
        let k = first;
        first += 1;
        out.attempted += 1;
        let body = wl.body(k);
        let layered = tracer.span(k, "pipeline", |t| layers(t, k, &body, options.clone()));
        let (session, rendered, layer_sizes) = match layered {
            Ok(done) => done,
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: in-process request {k}: {e}");
                continue;
            }
        };
        drop(session);
        let (status, reply) = tracer.span(k, "respond", |_| {
            wl.service.respond(RequestKind::Analyze, &body)
        });
        let checked = wl
            .check(k, 200, rendered.as_bytes())
            .and_then(|()| wl.check(k, status, reply.as_bytes()))
            .and_then(|()| match *reply == rendered {
                true => Ok(()),
                false => Err("respond and render disagree".to_string()),
            });
        if let Err(e) = checked {
            out.failed += 1;
            eprintln!("perfbench: in-process request {k}: {e}");
        }
        if (sizes.len() as u64) < distinct {
            sizes.push(layer_sizes);
        }
    }

    let dir = &args.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.ndjson", wl.name, args.seed));
    std::fs::write(&path, tracer.to_ndjson()).map_err(|e| format!("{}: {e}", path.display()))?;

    // A layer's figure is the mean over the distinct nets of its median
    // self time on each, so every net of a working set weighs the same.
    let self_us = |name| {
        let mut per_net = vec![Vec::new(); distinct as usize];
        for (request, ns) in tracer.self_times(name) {
            per_net[(request % distinct) as usize].push(ns);
        }
        let medians: Vec<f64> = per_net.iter_mut().map(|v| quantile(v, 0.5)).collect();
        medians.iter().sum::<f64>() / medians.len() as f64 / 1e3
    };
    let size = |field: fn(&Sizes) -> f64| sizes.iter().map(field).sum::<f64>() / sizes.len() as f64;
    let parse_us = self_us("parse");
    let trg_ms = self_us("trg") / 1e3;
    let decision_ms = self_us("decision") / 1e3;
    let respond_us = self_us("respond");
    let mut round_trips: Vec<u64> = tracer.self_times("http").iter().map(|t| t.1).collect();
    let http_us = quantile(&mut round_trips, 0.5) / 1e3;

    out.metric("parse.us", parse_us, "us");
    out.metric(
        "parse.bytes_per_us",
        size(|s| s.body_bytes) / parse_us,
        "B/us",
    );
    out.metric("digest.us", self_us("digest"), "us");
    out.metric("trg.ms", trg_ms, "ms");
    out.metric("trg.states", size(|s| s.states), "count");
    out.metric("trg.edges", size(|s| s.trg_edges), "count");
    out.metric(
        "trg.states_per_s",
        size(|s| s.states) / (trg_ms / 1e3),
        "1/s",
    );
    out.metric("trg.rss_bytes_per_state", heap / heap_states, "B");
    out.metric("decision.ms", decision_ms, "ms");
    out.metric("decision.nodes", size(|s| s.nodes), "count");
    out.metric("decision.edges", size(|s| s.edges), "count");
    out.metric("decision.ms_per_trg_ms", decision_ms / trg_ms, "ratio");
    out.metric("rates.ms", self_us("rates") / 1e3, "ms");
    out.metric("rates.max_bits", size(|s| s.max_bits), "bits");
    out.metric("measures.us", self_us("measures"), "us");
    out.metric("render.us", self_us("render"), "us");
    out.metric("render.bytes", size(|s| s.render_bytes), "B");
    out.metric("respond.us", respond_us, "us");
    out.metric("cache.hit_ratio", hits / (hits + misses), "ratio");
    out.metric("cache.lookups", hits + misses, "count");
    out.metric("cache.computations", computations, "count");
    out.metric("sessions.evictions", evictions, "count");
    out.metric(
        "listener.server_p50_us",
        median_of_buckets(&durations)? * 1e6,
        "us",
    );
    out.metric("listener.overhead_us", plain_p50_us - respond_us, "us");
    out.metric("listener.rejected", rejected, "count");
    out.metric("http.us", http_us, "us");
    out.metric("trace.overhead_us", http_us - plain_p50_us, "us");
    Ok(out)
}

/// Sizes of what the layers built for one request.
struct Sizes {
    body_bytes: f64,
    states: f64,
    trg_edges: f64,
    nodes: f64,
    edges: f64,
    max_bits: f64,
    render_bytes: f64,
}

/// Parse, digest and every pipeline stage of request `k`, each in its
/// own span. Returns the session (dropped by the caller, outside the
/// spans), the rendered body and the sizes.
fn layers(
    t: &mut Tracer,
    k: u64,
    body: &str,
    options: tpn_session::SessionOptions,
) -> Result<(Session, String, Sizes), String> {
    let net = t
        .span(k, "parse", |_| tpn_net::parse_tpn(black_box(body)))
        .map_err(|e| e.to_string())?;
    black_box(t.span(k, "digest", |_| net.digest()));
    let session = Session::new(net, options);
    let err = |e: tpn_session::SessionError| e.to_string();
    let trg = t.span(k, "trg", |_| session.trg()).map_err(err)?;
    let dg = t
        .span(k, "decision", |_| session.decision_graph())
        .map_err(err)?;
    let rates = t.span(k, "rates", |_| session.rates()).map_err(err)?;
    t.span(k, "measures", |_| session.performance())
        .map_err(err)?;
    let rendered = t
        .span(k, "render", |_| {
            tpn_service::run_with_session(&session, RequestKind::Analyze)
        })
        .map_err(|e| e.to_string())?;
    let bits = |x: i128| f64::from(128 - x.unsigned_abs().leading_zeros());
    let sizes = Sizes {
        body_bytes: body.len() as f64,
        states: trg.num_states() as f64,
        trg_edges: trg.num_edges() as f64,
        nodes: dg.num_nodes() as f64,
        edges: dg.num_edges() as f64,
        max_bits: rates
            .as_slice()
            .iter()
            .map(|r| bits(r.numer()).max(bits(r.denom())))
            .fold(0.0, f64::max),
        render_bytes: rendered.len() as f64,
    };
    Ok((session, rendered, sizes))
}

/// The daemon's cache hits, misses and computations, session
/// evictions and rejected connections, from `/stats`.
fn daemon_counts(daemon: &Daemon) -> Result<[f64; 5], String> {
    let stats = Json::parse(&daemon.get("/stats")?).map_err(|e| format!("/stats: {e}"))?;
    let paths: [&[&str]; 5] = [
        &["hits"],
        &["misses"],
        &["computations"],
        &["sessions", "evictions"],
        &["connections", "rejected"],
    ];
    let mut counts = [0.0; 5];
    for (count, path) in counts.iter_mut().zip(paths) {
        *count = path
            .iter()
            .try_fold(&stats, |v, key| v.get(key))
            .and_then(Json::as_num)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("/stats has no {}", path.join(".")))?;
    }
    Ok(counts)
}

/// The cumulative `(le, count)` buckets of the daemon's `analyze`
/// request-duration histogram gained between two `/metrics` scrapes.
fn duration_buckets(before: &str, after: &str) -> Result<Vec<(f64, f64)>, String> {
    let buckets = |text: &str| -> Vec<(f64, f64)> {
        let prefix = "tpn_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"";
        text.lines()
            .filter_map(|l| l.strip_prefix(prefix))
            .filter_map(|rest| {
                let (le, count) = rest.split_once("\"} ")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count.trim().parse().ok()?))
            })
            .collect()
    };
    let (before, after) = (buckets(before), buckets(after));
    if after.is_empty() || !(before.is_empty() || before.len() == after.len()) {
        return Err("no analyze duration histogram in /metrics".to_string());
    }
    // The family appears with the endpoint's first request.
    let earlier = |i: usize| before.get(i).map_or(0.0, |b| b.1);
    Ok(after
        .iter()
        .enumerate()
        .map(|(i, &(le, n))| (le, n - earlier(i)))
        .collect())
}

/// The median of a cumulative histogram, in its bound's unit,
/// interpolated inside its bucket as Prometheus does.
fn median_of_buckets(cumulative: &[(f64, f64)]) -> Result<f64, String> {
    let target = cumulative.last().map_or(0.0, |b| b.1) / 2.0;
    let (mut lower, mut below) = (0.0, 0.0);
    for &(le, count) in cumulative {
        if count >= target && count > below {
            let upper = if le.is_finite() { le } else { lower };
            return Ok(lower + (upper - lower) * (target - below) / (count - below));
        }
        (lower, below) = (le, count);
    }
    Err("no analyze requests between the scrapes".to_string())
}

/// The `q`-quantile of `values`, interpolating between order statistics.
fn quantile(values: &mut [u64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    quantile_f64(&mut v, q)
}

fn quantile_f64(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(values.len() - 1);
    values[lo] + (values[hi] - values[lo]) * frac
}
