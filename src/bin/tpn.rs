//! `tpn` — command-line driver for Timed Petri Net analysis.
//!
//! ```text
//! tpn show <net.tpn>                    print the parsed net and statistics
//! tpn dot <net.tpn>                     Graphviz rendering of the net
//! tpn graph <net.tpn>                   timed reachability graph (state table + dot)
//! tpn analyze <net.tpn> [TRANSITION..]  decision graph, rates, throughputs
//! tpn correctness <net.tpn>             deadlock/safeness/liveness report
//! tpn invariants <net.tpn>              P- and T-semiflows
//! tpn simulate <net.tpn> [EVENTS [SEED]]  Monte-Carlo run
//! tpn sweep <net.tpn> <spec.json>       compiled parameter sweep (JSON rows)
//! tpn optimize <net.tpn> <spec.json>    certified optimal timing parameters (JSON)
//! tpn whatif <net.tpn> <spec.json>      analyses of a net under a batch of timing perturbations (JSON)
//! tpn serve <addr> [OPTIONS]            HTTP analysis daemon (JSON API)
//! tpn stats <addr> [--metrics] [--watch N]  counters of a running daemon (pretty table or raw /metrics)
//! tpn top <addr> [--interval N]         live dashboard: req/s, latency, burn rates, RSS
//! tpn alerts <addr> [--watch N]         alert rule states, transition history and silences
//! tpn batch <dir> [KIND..]              run analyses over every .tpn in a directory (JSON lines)
//! ```
//!
//! Every analysis subcommand derives through a
//! [`Session`]: the net is parsed once and the
//! pipeline artifacts (TRG, decision graph, rates, lifted domains) are
//! computed once and shared — `tpn batch` with several KINDs walks the
//! chain a single time per file.
//!
//! `tpn --help` prints the command table, `tpn help <command>` (or
//! `tpn <command> --help`) the per-command usage. Nets use the `.tpn`
//! text format documented in `tpn-net` (see the README for an
//! example). All analysis commands require fully timed nets; symbolic
//! analysis is a library-level feature (constraint sets have no text
//! syntax yet).

use std::io::Write;
use std::process::ExitCode;

use timed_petri::prelude::*;
use tpn_net::invariant;
use tpn_service::{
    json, Endpoint, RequestKind, Service, ServiceConfig, DEFAULT_SIM_EVENTS, DEFAULT_SIM_SEED,
    ROUTES,
};

/// One subcommand's name, usage line and summary.
struct CommandHelp {
    name: &'static str,
    usage: &'static str,
    summary: &'static str,
}

const COMMANDS: &[CommandHelp] = &[
    CommandHelp {
        name: "show",
        usage: "tpn show <net.tpn>",
        summary: "print the parsed net and its structural statistics",
    },
    CommandHelp {
        name: "dot",
        usage: "tpn dot <net.tpn>",
        summary: "Graphviz rendering of the net",
    },
    CommandHelp {
        name: "graph",
        usage: "tpn graph <net.tpn>",
        summary: "timed reachability graph (state table + dot)",
    },
    CommandHelp {
        name: "analyze",
        usage: "tpn analyze <net.tpn> [TRANSITION..]",
        summary: "decision graph, traversal rates and throughputs (optionally only the named transitions)",
    },
    CommandHelp {
        name: "correctness",
        usage: "tpn correctness <net.tpn>",
        summary: "deadlock/safeness/liveness/reversibility report",
    },
    CommandHelp {
        name: "invariants",
        usage: "tpn invariants <net.tpn>",
        summary: "P- and T-semiflows of the net",
    },
    CommandHelp {
        name: "simulate",
        usage: "tpn simulate <net.tpn> [EVENTS [SEED]]",
        summary: "Monte-Carlo run (defaults: 1000000 events, seed 0x5EED)",
    },
    CommandHelp {
        name: "sweep",
        usage: "tpn sweep <net.tpn> <spec.json> [--threads N] [--max-points N]",
        summary: "compiled parameter sweep over a grid of timing/frequency values (JSON rows)",
    },
    CommandHelp {
        name: "optimize",
        usage: "tpn optimize <net.tpn> <spec.json> [--threads N] [--max-seed-points N]",
        summary: "find the parameter point of a box that optimises a performance measure (certified where exact)",
    },
    CommandHelp {
        name: "whatif",
        usage: "tpn whatif <net.tpn> <spec.json>",
        summary: "analyse a net under a batch of timing perturbations — each entry equals \
                  the cold analysis of its perturbed net (JSON)",
    },
    CommandHelp {
        name: "serve",
        usage: "tpn serve <addr> [--threads N] [--queue N] [--cache-bytes N] [--no-metrics] \
                [--log[=FILE]] [--log-sample N] [--slo FILE] [--alerts FILE] \
                [--sample-interval MS] [--max-conns N] [--max-requests N] [--read-timeout MS] \
                [--write-timeout MS] [--idle-timeout MS] [--inflight N] \
                [--stream-threshold BYTES] [--drain-ms MS]",
        summary: "HTTP analysis daemon with a content-addressed result cache, served by \
                  the epoll reactor (keep-alive, backpressure, streaming); Linux only",
    },
    CommandHelp {
        name: "stats",
        usage: "tpn stats <addr> [--metrics] [--watch SECS] [--ticks N]",
        summary: "fetch a running daemon's counters — pretty table from /stats, or the raw \
                  Prometheus exposition with --metrics; --watch redraws every SECS seconds",
    },
    CommandHelp {
        name: "top",
        usage: "tpn top <addr> [--interval SECS] [--window SECS] [--ticks N]",
        summary: "live terminal dashboard of a running daemon — req/s, latency quantiles, \
                  cache hit ratio, SLO burn rates and RSS from /metrics/history and /slo",
    },
    CommandHelp {
        name: "alerts",
        usage: "tpn alerts <addr> [--watch SECS] [--ticks N]",
        summary: "alert rule states of a running daemon — severity, state, value vs threshold, \
                  recent firing/resolved transitions and active silences from /alerts",
    },
    CommandHelp {
        name: "batch",
        usage: "tpn batch <dir> [KIND..]",
        summary: "run analyses over every .tpn file in a directory (parsed once, one session per \
                  file), one JSON line per file and kind",
    },
];

/// The analysis kinds `tpn batch` accepts: the plain analyses of the
/// service's route table, which also parses them
/// ([`RequestKind::named`]), so the help text cannot drift from what
/// actually parses.
fn batch_kinds() -> impl Iterator<Item = &'static str> {
    ROUTES.iter().filter(|r| r.kind.is_some()).map(|r| r.label)
}

fn batch_kind_list() -> String {
    batch_kinds().collect::<Vec<_>>().join("|")
}

fn command_help(name: &str) -> Option<&'static CommandHelp> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn usage_of(name: &str) -> String {
    let c = command_help(name).expect("known command");
    if name == "batch" {
        format!(
            "usage: {}  (KIND: {})\n  {}",
            c.usage,
            batch_kind_list(),
            c.summary
        )
    } else {
        format!("usage: {}\n  {}", c.usage, c.summary)
    }
}

fn global_usage() -> String {
    let mut out = String::from(
        "usage: tpn <COMMAND> [ARGS]\n       tpn help [COMMAND] | tpn --version\n\ncommands:\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("  {:<12} {}\n", c.name, c.summary));
    }
    out.push_str("\nNets use the line-oriented .tpn format (see the README).");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A panic is a bug in tpn, not a usage error, but the user still
    // gets one `tpn: …` line and exit 1 rather than a backtrace. The
    // daemon keeps the default hook: its handler panics are answered
    // 500 and the hook's stderr line is the operator's record of them.
    if args.first().map(String::as_str) != Some("serve") {
        std::panic::set_hook(Box::new(|_| {}));
    }
    // Every command writes through this one locked handle.
    let mut out = std::io::stdout().lock();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(&args, &mut out)?;
        Ok(out.flush()?)
    }))
    .unwrap_or_else(|panic| {
        Err(Failure::Message(format!(
            "internal error: {}",
            panic_message(&*panic)
        )))
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`tpn graph big.tpn | head`): output
        // nobody reads is not a failure, so stop quietly.
        Err(Failure::Output(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("tpn: stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(msg)) => {
            eprintln!("tpn: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped early.
enum Failure {
    /// A usage, input or analysis error, reported as one `tpn: …` line.
    Message(String),
    /// Writing to stdout failed.
    Output(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Message(msg)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure::Output(e)
    }
}

/// The text a panic was raised with (`panic!("…")` payloads are a
/// `&str` or a `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic")
}

fn load(path: &str) -> Result<TimedPetriNet, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    tpn_net::parse_tpn(&src).map_err(|e| e.to_string())
}

/// A one-shot default-options session over a loaded net — every
/// analysis subcommand derives its artifacts through this.
fn session_over(net: TimedPetriNet) -> Session {
    Session::new(net, SessionOptions::new())
}

fn run(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let cmd = match args.first() {
        Some(c) => c.as_str(),
        None => return Err(global_usage().into()),
    };
    match cmd {
        "--version" | "-V" | "version" => {
            writeln!(out, "tpn {}", env!("CARGO_PKG_VERSION"))?;
            return Ok(());
        }
        "--help" | "-h" | "help" => {
            match args.get(1) {
                Some(name) => match command_help(name) {
                    Some(_) => writeln!(out, "{}", usage_of(name))?,
                    None => {
                        return Err(format!("unknown command {name:?}\n{}", global_usage()).into())
                    }
                },
                None => writeln!(out, "{}", global_usage())?,
            }
            return Ok(());
        }
        _ => {}
    }
    if command_help(cmd).is_none() {
        return Err(format!("unknown command {cmd:?}\n{}", global_usage()).into());
    }
    // `tpn <command> --help` prints that command's usage.
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{}", usage_of(cmd))?;
        return Ok(());
    }
    match cmd {
        "serve" => return cmd_serve(&args[1..], out),
        "stats" => return cmd_stats(&args[1..], out),
        "top" => return cmd_top(&args[1..], out),
        "alerts" => return cmd_alerts(&args[1..], out),
        "batch" => return cmd_batch(&args[1..], out),
        "sweep" => return cmd_sweep(&args[1..], out),
        "optimize" => return cmd_optimize(&args[1..], out),
        "whatif" => return cmd_whatif(&args[1..], out),
        _ => {}
    }
    let path = args.get(1).ok_or_else(|| usage_of(cmd))?;
    let net = load(path)?;
    match cmd {
        "show" => {
            write!(out, "{net}")?;
            let s = net.stats();
            writeln!(
                out,
                "\n{} places, {} transitions, {} arcs, {} conflict sets ({} non-trivial), {} initial tokens",
                s.places, s.transitions, s.arcs, s.conflict_sets, s.nontrivial_conflict_sets, s.initial_tokens
            )?;
            writeln!(out, "digest {}", net.digest())?;
            Ok(())
        }
        "dot" => {
            write!(out, "{}", tpn_net::to_dot(&net))?;
            Ok(())
        }
        "graph" => {
            let session = session_over(net);
            let trg = session.trg().map_err(|e| e.to_string())?;
            let net = session.net();
            writeln!(
                out,
                "{} states, {} edges, {} decision states, {} terminal states\n",
                trg.num_states(),
                trg.num_edges(),
                trg.decision_states().len(),
                trg.terminal_states().len()
            )?;
            write!(out, "{}", trg.describe_states(net))?;
            writeln!(out, "\n{}", trg.to_dot(net))?;
            Ok(())
        }
        "analyze" => {
            let session = session_over(net);
            let dg = session.decision_graph().map_err(|e| e.to_string())?;
            let perf = session.performance().map_err(|e| e.to_string())?;
            let net = session.net();
            writeln!(out, "decision graph:")?;
            write!(out, "{}", dg.describe(net))?;
            writeln!(out, "\nrates and weights (reference edge 0):")?;
            write!(out, "{}", perf.describe(net, &dg))?;
            writeln!(out, "\nthroughput (firings per time unit):")?;
            let selected: Vec<String> = args[2..].to_vec();
            for t in net.transitions() {
                let name = net.transition(t).name();
                if !selected.is_empty() && !selected.iter().any(|s| s == name) {
                    continue;
                }
                let th = perf.throughput(&dg, t);
                writeln!(out, "  {name:<16} {th}  ≈ {:.6}", th.to_f64())?;
            }
            Ok(())
        }
        "correctness" => {
            let session = session_over(net);
            let trg = session.trg().map_err(|e| e.to_string())?;
            let net = session.net();
            let report = tpn_reach::analyze(&trg, net);
            write!(out, "{}", report.describe(net))?;
            if report.is_correct() {
                writeln!(
                    out,
                    "verdict: correct (deadlock-free, 1-safe, live, reversible)"
                )?;
            } else {
                writeln!(out, "verdict: NOT correct")?;
            }
            Ok(())
        }
        "invariants" => {
            writeln!(out, "P-semiflows (conserved token sums):")?;
            for f in invariant::p_semiflows(&net) {
                let parts: Vec<String> = f
                    .support()
                    .into_iter()
                    .map(|p| {
                        let name = net.place_name(tpn_net::PlaceId::from_index(p));
                        let w = f.weights[p];
                        if w == 1 {
                            name.to_string()
                        } else {
                            format!("{w}·{name}")
                        }
                    })
                    .collect();
                writeln!(
                    out,
                    "  {} = {}",
                    parts.join(" + "),
                    invariant::conserved_quantity(&net, &f)
                )?;
            }
            writeln!(out, "T-semiflows (marking-reproducing firing counts):")?;
            for f in invariant::t_semiflows(&net) {
                let parts: Vec<String> = f
                    .support()
                    .into_iter()
                    .map(|t| {
                        let name = net.transition(tpn_net::TransId::from_index(t)).name();
                        let w = f.weights[t];
                        if w == 1 {
                            name.to_string()
                        } else {
                            format!("{w}·{name}")
                        }
                    })
                    .collect();
                writeln!(out, "  {{{}}}", parts.join(", "))?;
            }
            writeln!(
                out,
                "covered by P-semiflows (structurally bounded): {}",
                invariant::covered_by_p_semiflows(&net)
            )?;
            Ok(())
        }
        "simulate" => {
            let events: u64 = args
                .get(2)
                .map(|s| s.parse().map_err(|_| format!("bad event count {s:?}")))
                .transpose()?
                .unwrap_or(DEFAULT_SIM_EVENTS);
            let seed: u64 = args
                .get(3)
                .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                .transpose()?
                .unwrap_or(DEFAULT_SIM_SEED);
            let stats = simulate(
                &net,
                &SimOptions {
                    seed,
                    max_events: events,
                    ..SimOptions::default()
                },
            )
            .map_err(|e| e.to_string())?;
            write!(out, "{}", stats.describe(&net))?;
            Ok(())
        }
        // Reached only if COMMANDS gains an entry without a match arm:
        // degrade to the error path rather than panicking.
        other => Err(format!("unknown command {other:?}\n{}", global_usage()).into()),
    }
}

/// `tpn sweep <net.tpn> <spec.json> [--threads N] [--max-points N]` —
/// evaluate the compiled performance expressions of a net over a
/// parameter grid. Prints exactly the JSON document the daemon's
/// `POST /sweep` endpoint returns for the same net and spec
/// (byte-identical: both go through `tpn_service::sweep_json`).
fn cmd_sweep(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    run_spec_command(args, out, "sweep", "--max-points", |session, doc| {
        let spec = tpn_service::SweepSpec::from_json(doc).map_err(|e| e.to_string())?;
        let (body, _) = tpn_service::sweep_json(session, &spec).map_err(|e| e.to_string())?;
        Ok(body)
    })
}

/// `tpn optimize <net.tpn> <spec.json> [--threads N] [--max-seed-points N]`
/// — find the parameter point of a box ∩ validity-region that
/// optimises a performance measure. Prints exactly the JSON document
/// the daemon's `POST /optimize` endpoint returns for the same net and
/// spec (byte-identical: both go through `tpn_service::optimize_json`).
fn cmd_optimize(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    run_spec_command(
        args,
        out,
        "optimize",
        "--max-seed-points",
        |session, doc| {
            let spec = tpn_service::OptimizeSpec::from_json(doc).map_err(|e| e.to_string())?;
            let (body, _) =
                tpn_service::optimize_json(session, &spec).map_err(|e| e.to_string())?;
            Ok(body)
        },
    )
}

/// Shared scaffolding of the spec-driven subcommands (`sweep`,
/// `optimize`): parse `<net.tpn> <spec.json>` plus `--threads` and one
/// command-specific budget flag (both defaulting to the server's sweep
/// configuration), load the net into a session configured with them,
/// reject an in-spec `"net"` member, and print the JSON document
/// `produce` renders — the same bytes the matching HTTP endpoint
/// serves (both derive through a session).
fn run_spec_command(
    args: &[String],
    out: &mut dyn Write,
    cmd: &str,
    budget_flag: &str,
    produce: impl FnOnce(&Session, &tpn_service::Json) -> Result<String, String>,
) -> Result<(), Failure> {
    let defaults = ServiceConfig::default();
    let mut threads = defaults.sweep_threads;
    let mut budget = defaults.max_sweep_points;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<u64, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage_of(cmd)))?;
            v.parse()
                .map_err(|_| format!("bad {name} value {v:?}\n{}", usage_of(cmd)))
        };
        match arg.as_str() {
            "--threads" => threads = flag_value("--threads")? as usize,
            flag if flag == budget_flag => budget = flag_value(budget_flag)?,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage_of(cmd)).into())
            }
            a => positional.push(a),
        }
    }
    let [net_path, spec_path] = positional.as_slice() else {
        return Err(usage_of(cmd).into());
    };
    let net = load(net_path)?;
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let doc = tpn_service::Json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    if doc.get("net").is_some() {
        return Err(format!(
            "{spec_path}: the net comes from the <net.tpn> argument; drop the \"net\" member"
        )
        .into());
    }
    let session = Session::new(
        net,
        SessionOptions::new().threads(threads).max_points(budget),
    );
    let body = produce(&session, &doc)?;
    writeln!(out, "{body}")?;
    Ok(())
}

/// `tpn whatif <net.tpn> <spec.json>` — run a batch of timing
/// perturbations against one net, answering each from an ordinary
/// session over the perturbed net. Prints exactly the JSON
/// document the daemon's `POST /whatif` endpoint returns for the same
/// net and spec (byte-identical: both assemble through the same
/// in-process [`Service`]).
fn cmd_whatif(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag {flag:?}\n{}", usage_of("whatif")).into());
    }
    let [net_path, spec_path] = args else {
        return Err(usage_of("whatif").into());
    };
    let net = load(net_path)?;
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let doc = tpn_service::Json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    if doc.get("net").is_some() {
        return Err(format!(
            "{spec_path}: the net comes from the <net.tpn> argument; drop the \"net\" member"
        )
        .into());
    }
    let spec = tpn_service::WhatifSpec::from_json(&doc).map_err(|e| e.to_string())?;
    let service = Service::new(ServiceConfig::default());
    let body = service.respond_whatif_spec(net, &spec);
    writeln!(out, "{body}")?;
    Ok(())
}

/// `tpn serve <addr> [--threads N] [--queue N] [--cache-bytes N]
/// [--no-metrics] [--log[=FILE]] [--log-sample N]`
#[cfg(target_os = "linux")]
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut addr: Option<&str> = None;
    let mut config = ServiceConfig::default();
    let mut log_requested = false;
    let mut log_path: Option<String> = None;
    let mut log_sample: u64 = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<usize, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage_of("serve")))?;
            v.parse()
                .map_err(|_| format!("bad {name} value {v:?}\n{}", usage_of("serve")))
        };
        match arg.as_str() {
            "--threads" => config.threads = flag_value("--threads")?,
            "--queue" => config.queue_cap = flag_value("--queue")?,
            "--max-conns" => config.aio.max_connections = flag_value("--max-conns")?,
            "--max-requests" => {
                config.aio.max_requests_per_conn = flag_value("--max-requests")? as u64
            }
            "--read-timeout" => config.aio.read_deadline_ms = flag_value("--read-timeout")? as u64,
            "--write-timeout" => {
                config.aio.write_deadline_ms = flag_value("--write-timeout")? as u64
            }
            "--idle-timeout" => config.aio.idle_deadline_ms = flag_value("--idle-timeout")? as u64,
            "--inflight" => config.aio.inflight = flag_value("--inflight")?,
            "--stream-threshold" => config.aio.stream_threshold = flag_value("--stream-threshold")?,
            "--drain-ms" => config.aio.drain_ms = flag_value("--drain-ms")? as u64,
            "--cache-bytes" => config.cache_bytes = flag_value("--cache-bytes")?,
            "--no-metrics" => config.metrics = false,
            "--sample-interval" => {
                config.sample_interval_ms = flag_value("--sample-interval")? as u64
            }
            "--slo" => {
                let path = it
                    .next()
                    .ok_or_else(|| format!("--slo needs a file\n{}", usage_of("serve")))?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                config.slo =
                    tpn_service::SloConfig::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--alerts" => {
                let path = it
                    .next()
                    .ok_or_else(|| format!("--alerts needs a file\n{}", usage_of("serve")))?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                config.alerts = tpn_service::AlertsConfig::from_json(&text)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            "--log" => log_requested = true,
            "--log-sample" => log_sample = flag_value("--log-sample")? as u64,
            flag if flag.starts_with("--log=") => {
                log_requested = true;
                log_path = Some(flag["--log=".len()..].to_string());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage_of("serve")).into())
            }
            a if addr.is_none() => addr = Some(a),
            extra => {
                return Err(format!("unexpected argument {extra:?}\n{}", usage_of("serve")).into())
            }
        }
    }
    if log_requested {
        if !config.metrics {
            return Err(format!(
                "--log requires metrics (drop --no-metrics)\n{}",
                usage_of("serve")
            )
            .into());
        }
        config.log = Some(tpn_service::LogConfig {
            path: log_path,
            sample: log_sample,
        });
    }
    let addr = addr.ok_or_else(|| usage_of("serve"))?;
    let service = std::sync::Arc::new(Service::new(config));
    let handle = tpn_service::spawn(service, addr).map_err(|e| format!("{addr}: {e}"))?;
    writeln!(out, "tpn-service listening on http://{}", handle.addr())?;
    let paths = |method| {
        let paths: Vec<&str> = ROUTES
            .iter()
            .filter(|r| r.method == method)
            .map(|r| r.path)
            .collect();
        paths.join(" ")
    };
    writeln!(
        out,
        "endpoints: POST {} · GET {}",
        paths("POST"),
        paths("GET")
    )?;
    handle.wait();
    Ok(())
}

/// The daemon's only listener is the epoll reactor.
#[cfg(not(target_os = "linux"))]
fn cmd_serve(_args: &[String], _out: &mut dyn Write) -> Result<(), Failure> {
    Err("serve requires Linux (epoll)".to_string().into())
}

/// Fetch one endpoint's JSON document from a daemon.
fn get_json(addr: &str, endpoint: Endpoint) -> Result<tpn_service::Json, String> {
    let path = endpoint.route().path;
    let body = http_get(addr, path)?;
    tpn_service::Json::parse(&body).map_err(|e| format!("{addr}{path}: {e}"))
}

/// Fetch one path from a daemon over a single `Connection: close`
/// HTTP/1.1 exchange. Returns the response body; non-200 statuses are
/// an error carrying the body text.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};

    let addr = addr.strip_prefix("http://").unwrap_or(addr);
    let addr = addr.strip_suffix('/').unwrap_or(addr);
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head
        .split(' ')
        .nth(1)
        .ok_or_else(|| format!("{addr}: malformed status line"))?;
    if status != "200" {
        return Err(format!("{addr}{path}: HTTP {status}: {body}"));
    }
    Ok(body.to_string())
}

/// `tpn stats <addr> [--metrics] [--watch SECS] [--ticks N]` — fetch
/// and display a running daemon's counters. The default view renders
/// `/stats` as aligned `name  value` lines (nested objects flattened
/// with dotted names); `--metrics` prints the raw Prometheus
/// exposition instead. `--watch SECS` redraws every SECS seconds
/// (`--ticks N` stops after N frames; mostly for scripting and tests).
fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut addr: Option<&str> = None;
    let mut raw_metrics = false;
    let mut watch: Option<u64> = None;
    let mut ticks: u64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<u64, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage_of("stats")))?;
            v.parse()
                .map_err(|_| format!("bad {name} value {v:?}\n{}", usage_of("stats")))
        };
        match arg.as_str() {
            "--metrics" => raw_metrics = true,
            "--watch" => watch = Some(flag_value("--watch")?),
            "--ticks" => ticks = flag_value("--ticks")?,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage_of("stats")).into())
            }
            a if addr.is_none() => addr = Some(a),
            extra => {
                return Err(format!("unexpected argument {extra:?}\n{}", usage_of("stats")).into())
            }
        }
    }
    let addr = addr.ok_or_else(|| usage_of("stats"))?;
    let frame = || -> Result<String, String> {
        if raw_metrics {
            return http_get(addr, Endpoint::Metrics.route().path);
        }
        let doc = get_json(addr, Endpoint::Stats)?;
        let mut rows: Vec<(String, String)> = Vec::new();
        flatten_stats("", &doc, &mut rows)?;
        let table: Vec<Vec<String>> = rows.into_iter().map(|(k, v)| vec![k, v]).collect();
        Ok(aligned_table(&table))
    };
    match watch {
        None => {
            write!(out, "{}", frame()?)?;
            Ok(())
        }
        Some(secs) => watch_loop(secs, ticks, frame, out),
    }
}

/// `tpn top <addr> [--interval SECS] [--window SECS] [--ticks N]` —
/// live terminal dashboard over `/metrics/history` and `/slo`:
/// service-wide req/s, cache hit ratio and RSS sparklines, then one
/// aligned row per endpoint with current rates, latency quantiles,
/// burn rates and health. Redraws every `--interval` seconds (default
/// 2); `--ticks N` stops after N frames (default: run until ^C).
fn cmd_top(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut addr: Option<&str> = None;
    let mut interval: u64 = 2;
    let mut window: u64 = 60;
    let mut ticks: u64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<u64, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage_of("top")))?;
            v.parse()
                .map_err(|_| format!("bad {name} value {v:?}\n{}", usage_of("top")))
        };
        match arg.as_str() {
            "--interval" => interval = flag_value("--interval")?.max(1),
            "--window" => window = flag_value("--window")?.max(1),
            "--ticks" => ticks = flag_value("--ticks")?,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage_of("top")).into())
            }
            a if addr.is_none() => addr = Some(a),
            extra => {
                return Err(format!("unexpected argument {extra:?}\n{}", usage_of("top")).into())
            }
        }
    }
    let addr = addr.ok_or_else(|| usage_of("top"))?;
    let step = interval.min(window);
    watch_loop(interval, ticks, || top_frame(addr, window, step), out)
}

/// `tpn alerts <addr> [--watch SECS] [--ticks N]` — render a running
/// daemon's `/alerts` document: one aligned row per rule (severity,
/// state, last value vs threshold, time in state, silenced), then the
/// most recent firing/resolved transitions. `--watch SECS` redraws
/// every SECS seconds (`--ticks N` stops after N frames).
fn cmd_alerts(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut addr: Option<&str> = None;
    let mut watch: Option<u64> = None;
    let mut ticks: u64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<u64, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage_of("alerts")))?;
            v.parse()
                .map_err(|_| format!("bad {name} value {v:?}\n{}", usage_of("alerts")))
        };
        match arg.as_str() {
            "--watch" => watch = Some(flag_value("--watch")?),
            "--ticks" => ticks = flag_value("--ticks")?,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage_of("alerts")).into())
            }
            a if addr.is_none() => addr = Some(a),
            extra => {
                return Err(format!("unexpected argument {extra:?}\n{}", usage_of("alerts")).into())
            }
        }
    }
    let addr = addr.ok_or_else(|| usage_of("alerts"))?;
    match watch {
        None => {
            write!(out, "{}", alerts_frame(addr)?)?;
            Ok(())
        }
        Some(secs) => watch_loop(secs, ticks, || alerts_frame(addr), out),
    }
}

/// Assemble one `tpn alerts` frame from a daemon's `/alerts` document.
fn alerts_frame(addr: &str) -> Result<String, String> {
    let doc = get_json(addr, Endpoint::Alerts)?;
    let as_of_ms = json_f64(doc.get("as_of_ms")).unwrap_or(0.0);
    let firing = json_f64(doc.get("firing")).unwrap_or(0.0) as u64;
    let pending = json_f64(doc.get("pending")).unwrap_or(0.0) as u64;
    let mut out = format!("tpn alerts — {addr} · {firing} firing · {pending} pending\n\n");

    let str_col = |name: &str| -> Vec<String> {
        doc.get(name)
            .and_then(|a| a.as_arr())
            .map(|arr| {
                arr.iter()
                    .map(|v| v.as_str().unwrap_or("?").to_string())
                    .collect()
            })
            .unwrap_or_default()
    };
    let rules = str_col("rules");
    let severity = str_col("severity");
    let state = str_col("state");
    let since = float_col(doc.get("since_ms"));
    let value = float_col(doc.get("value"));
    let threshold = float_col(doc.get("threshold"));
    let silenced: Vec<bool> = doc
        .get("silenced")
        .and_then(|a| a.as_arr())
        .map(|arr| arr.iter().map(|v| v.as_bool().unwrap_or(false)).collect())
        .unwrap_or_default();

    let mut table: Vec<Vec<String>> = vec![[
        "rule",
        "severity",
        "state",
        "value",
        "threshold",
        "for",
        "silenced",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()];
    for (i, rule) in rules.iter().enumerate() {
        let in_state = since
            .get(i)
            .copied()
            .flatten()
            .map(|ms| format!("{:.0}s", (as_of_ms - ms).max(0.0) / 1_000.0));
        table.push(vec![
            rule.clone(),
            severity.get(i).cloned().unwrap_or_default(),
            state.get(i).cloned().unwrap_or_default(),
            fmt_opt(value.get(i).copied().flatten(), |v| format!("{v:.3}")),
            fmt_opt(threshold.get(i).copied().flatten(), |v| format!("{v:.3}")),
            in_state.unwrap_or_else(|| "-".to_string()),
            if silenced.get(i).copied().unwrap_or(false) {
                "yes".to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    if table.len() > 1 {
        out.push_str(&aligned_table(&table));
    } else {
        out.push_str("no alert rules configured\n");
    }

    let history: &[tpn_service::Json] = doc
        .get("history")
        .and_then(|h| h.as_arr())
        .unwrap_or_default();
    if !history.is_empty() {
        out.push_str("\nrecent transitions (oldest first):\n");
        let mut rows: Vec<Vec<String>> = Vec::new();
        for event in history.iter().rev().take(10).rev() {
            let ago = json_f64(event.get("ts_ms"))
                .map(|ms| format!("{:.0}s ago", (as_of_ms - ms).max(0.0) / 1_000.0))
                .unwrap_or_else(|| "-".to_string());
            rows.push(vec![
                format!("  {ago}"),
                event
                    .get("rule")
                    .and_then(|r| r.as_str())
                    .unwrap_or("?")
                    .to_string(),
                event
                    .get("event")
                    .and_then(|e| e.as_str())
                    .unwrap_or("?")
                    .to_string(),
                fmt_opt(json_f64(event.get("value")), |v| format!("{v:.3}")),
            ]);
        }
        out.push_str(&aligned_table(&rows));
    }
    Ok(out)
}

/// Assemble one `tpn top` frame from a daemon's `/metrics/history`
/// and `/slo` documents.
fn top_frame(addr: &str, window_s: u64, step_s: u64) -> Result<String, String> {
    // Only the leaf series the dashboard renders — the filter keeps the
    // transferred document small on daemons with many endpoints.
    let path = format!(
        "{}?window={window_s}&step={step_s}\
         &series=req_s,cache_hit_ratio,rss_bytes,err_s,p50_ns,p99_ns",
        Endpoint::MetricsHistory.route().path
    );
    let history = http_get(addr, &path)?;
    let history = tpn_service::Json::parse(&history).map_err(|e| format!("{addr}{path}: {e}"))?;
    let stats = get_json(addr, Endpoint::Stats)?;
    let slo = get_json(addr, Endpoint::Slo)?;
    let alerts = get_json(addr, Endpoint::Alerts)?;

    let status = slo.get("status").and_then(|s| s.as_str()).unwrap_or("?");
    let samples = json_f64(history.get("samples")).unwrap_or(0.0) as u64;
    let service = history.get("service");
    let req_s = float_col(service.and_then(|s| s.get("req_s")));
    let hit_ratio = float_col(service.and_then(|s| s.get("cache_hit_ratio")));
    let rss = float_col(history.get("process").and_then(|p| p.get("rss_bytes")));

    let mut out = format!(
        "tpn top — {addr} · status {status} · window {window_s}s step {step_s}s · {samples} samples\n"
    );
    // Banner row: names of the rules currently firing, if any.
    let firing: Vec<&str> = {
        let rules = alerts.get("rules").and_then(|a| a.as_arr()).unwrap_or(&[]);
        let states = alerts.get("state").and_then(|a| a.as_arr()).unwrap_or(&[]);
        rules
            .iter()
            .zip(states)
            .filter(|(_, s)| s.as_str() == Some("firing"))
            .filter_map(|(r, _)| r.as_str())
            .collect()
    };
    if !firing.is_empty() {
        out.push_str(&format!(
            "ALERTS: {} firing — {}\n",
            firing.len(),
            firing.join(", ")
        ));
    }
    out.push('\n');
    let headline = vec![
        vec![
            "req/s".to_string(),
            fmt_opt(last_value(&req_s), |v| format!("{v:.1}")),
            sparkline(&req_s),
        ],
        vec![
            "cache hit".to_string(),
            fmt_opt(last_value(&hit_ratio), |v| format!("{:.0}%", v * 100.0)),
            sparkline(&hit_ratio),
        ],
        vec![
            "rss".to_string(),
            fmt_opt(last_value(&rss), |v| {
                format!("{:.1} MiB", v / (1024.0 * 1024.0))
            }),
            sparkline(&rss),
        ],
        {
            let conns = stats.get("connections");
            let count = |key: &str| {
                json_f64(conns.and_then(|c| c.get(key)))
                    .map(|v| v as u64)
                    .unwrap_or(0)
            };
            vec![
                "conns".to_string(),
                format!("{} open", count("open")),
                format!(
                    "accepted {} · rejected {} · timeouts {} · drained {}",
                    count("accepted"),
                    count("rejected"),
                    count("timeouts"),
                    count("drained"),
                ),
            ]
        },
    ];
    out.push_str(&aligned_table(&headline));
    out.push('\n');

    // Per-endpoint burn rates and health from /slo, keyed by name.
    let slo_rows: &[tpn_service::Json] =
        slo.get("endpoints").and_then(|e| e.as_arr()).unwrap_or(&[]);
    let slo_of = |name: &str| -> Option<&tpn_service::Json> {
        slo_rows
            .iter()
            .find(|row| row.get("endpoint").and_then(|e| e.as_str()) == Some(name))
    };

    let mut table: Vec<Vec<String>> = vec![[
        "endpoint", "req/s", "err/s", "p50", "p99", "fast", "slow", "health",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()];
    let empty: &[(String, tpn_service::Json)] = &[];
    let endpoints = history
        .get("endpoints")
        .and_then(|e| e.as_obj())
        .unwrap_or(empty);
    for (name, cols) in endpoints {
        let slo_row = slo_of(name);
        table.push(vec![
            name.clone(),
            fmt_opt(last_value(&float_col(cols.get("req_s"))), |v| {
                format!("{v:.1}")
            }),
            fmt_opt(last_value(&float_col(cols.get("err_s"))), |v| {
                format!("{v:.1}")
            }),
            fmt_opt(last_value(&float_col(cols.get("p50_ns"))), fmt_ns),
            fmt_opt(last_value(&float_col(cols.get("p99_ns"))), fmt_ns),
            fmt_opt(worst_burn(slo_row, "fast"), |v| format!("{v:.2}")),
            fmt_opt(worst_burn(slo_row, "slow"), |v| format!("{v:.2}")),
            slo_row
                .and_then(|r| r.get("health"))
                .and_then(|h| h.as_str())
                .unwrap_or("-")
                .to_string(),
        ]);
    }
    // Objectives that are burning without traffic in the rendered
    // window (e.g. a since-boot slow window) still deserve a row.
    for row in slo_rows {
        let (Some(name), Some(health)) = (
            row.get("endpoint").and_then(|e| e.as_str()),
            row.get("health").and_then(|h| h.as_str()),
        ) else {
            continue;
        };
        if health == "ok" || endpoints.iter().any(|(n, _)| n == name) {
            continue;
        }
        table.push(vec![
            name.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            fmt_opt(worst_burn(Some(row), "fast"), |v| format!("{v:.2}")),
            fmt_opt(worst_burn(Some(row), "slow"), |v| format!("{v:.2}")),
            health.to_string(),
        ]);
    }
    if table.len() > 1 {
        out.push_str(&aligned_table(&table));
    } else {
        out.push_str("no endpoint traffic in window\n");
    }
    Ok(out)
}

/// The worst of an `/slo` endpoint row's latency and error burns over
/// one window (`"fast"` or `"slow"`).
fn worst_burn(row: Option<&tpn_service::Json>, window: &str) -> Option<f64> {
    let w = row?.get(window)?;
    let latency = json_f64(w.get("latency_burn"));
    let error = json_f64(w.get("error_burn"));
    match (latency, error) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (one, other) => one.or(other),
    }
}

/// Redraw loop shared by `tpn top` and `tpn stats --watch`: render a
/// frame, clear the terminal (ANSI, only when stdout is a tty — piped
/// output stays parseable), print, sleep, repeat. `ticks == 0` runs
/// until interrupted; otherwise stops after that many frames.
fn watch_loop(
    interval_s: u64,
    ticks: u64,
    mut frame: impl FnMut() -> Result<String, String>,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    use std::io::IsTerminal;
    let clear = std::io::stdout().is_terminal();
    let mut drawn = 0u64;
    loop {
        let body = frame()?;
        if clear {
            write!(out, "\x1b[2J\x1b[H")?;
        }
        write!(out, "{body}")?;
        out.flush()?;
        drawn += 1;
        if ticks != 0 && drawn >= ticks {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval_s.max(1)));
    }
}

/// Render rows as a left-aligned table, two spaces between columns,
/// trailing whitespace trimmed. Width is per column over all rows
/// (measured in chars — good enough for the box-drawing sparklines).
fn aligned_table(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            if i + 1 < row.len() {
                line.extend(std::iter::repeat_n(' ', widths[i] - cell.chars().count()));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// A JSON number as f64 (`None` for nulls and non-numbers).
fn json_f64(v: Option<&tpn_service::Json>) -> Option<f64> {
    v?.as_num()?.parse().ok()
}

/// A JSON array of numbers-or-nulls as a sample column.
fn float_col(v: Option<&tpn_service::Json>) -> Vec<Option<f64>> {
    v.and_then(|a| a.as_arr())
        .map(|arr| arr.iter().map(|x| json_f64(Some(x))).collect())
        .unwrap_or_default()
}

/// The most recent non-null sample of a column.
fn last_value(col: &[Option<f64>]) -> Option<f64> {
    col.iter().rev().flatten().next().copied()
}

fn fmt_opt(v: Option<f64>, f: impl Fn(f64) -> String) -> String {
    v.map(f).unwrap_or_else(|| "-".to_string())
}

/// Nanoseconds as a human latency (`870µs`, `1.24ms`, `2.1s`).
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// A column of samples as a unicode sparkline; nulls render as spaces.
fn sparkline(values: &[Option<f64>]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().flatten().copied().collect();
    if finite.is_empty() {
        return String::new();
    }
    let max = finite.iter().copied().fold(f64::MIN, f64::max);
    let min = finite.iter().copied().fold(f64::MAX, f64::min);
    values
        .iter()
        .map(|v| match v {
            None => ' ',
            Some(x) => {
                let t = if max > min {
                    (x - min) / (max - min)
                } else {
                    0.5
                };
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Flatten a `/stats` document into dotted `name → value` rows,
/// preserving the server's member order.
fn flatten_stats(
    prefix: &str,
    doc: &tpn_service::Json,
    rows: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let members = doc
        .as_obj()
        .ok_or_else(|| format!("unexpected /stats shape at {prefix:?}"))?;
    for (key, value) in members {
        let name = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        match value {
            tpn_service::Json::Obj(_) => flatten_stats(&name, value, rows)?,
            other => {
                let rendered = match other.as_num() {
                    Some(n) => n.to_string(),
                    None => other
                        .as_str()
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("{other:?}")),
                };
                rows.push((name, rendered));
            }
        }
    }
    Ok(())
}

/// `tpn batch <dir> [KIND..]` — one JSON line per `.tpn` file and
/// requested kind. Each file is **parsed once** and every kind runs
/// against the same shared session, so e.g.
/// `tpn batch nets analyze graph correctness` builds each net's TRG a
/// single time. Identical nets (by content digest) are computed once
/// across files too, thanks to the service's shared cache.
fn cmd_batch(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let dir = args.first().ok_or_else(|| usage_of("batch"))?;
    let mut kinds = Vec::with_capacity(args.len());
    for name in &args[1..] {
        kinds.push(
            RequestKind::named(name)
                .ok_or_else(|| format!("unknown analysis {name:?}\n{}", usage_of("batch")))?,
        );
    }
    if kinds.is_empty() {
        kinds.push(RequestKind::Analyze);
    }
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "tpn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{dir}: no .tpn files").into());
    }
    let service = Service::new(ServiceConfig::default());
    let mut failures = 0usize;
    for path in &files {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        match std::fs::read_to_string(path) {
            Err(e) => {
                failures += 1;
                writeln!(
                    out,
                    "{{\"file\":{},\"error\":{}}}",
                    json::escape(&name),
                    json::escape(&e.to_string())
                )?;
            }
            Ok(src) => {
                // One parse, one session, every kind.
                for (status, body) in service.respond_many(&kinds, &src) {
                    if status == 200 {
                        // `body` already carries the digest; wrap it verbatim.
                        writeln!(
                            out,
                            "{{\"file\":{},\"result\":{body}}}",
                            json::escape(&name)
                        )?;
                    } else {
                        failures += 1;
                        // body is the {"error":…} document
                        writeln!(
                            out,
                            "{{\"file\":{},\"status\":{status},\"result\":{body}}}",
                            json::escape(&name)
                        )?;
                    }
                }
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} failure(s) over {} file(s)", files.len()).into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dispatched_command_is_in_the_table() {
        // run() special-cases these before the generic match; each must
        // stay documented in COMMANDS or `--help` would not mention it.
        for name in [
            "show",
            "dot",
            "graph",
            "analyze",
            "correctness",
            "invariants",
            "simulate",
            "sweep",
            "optimize",
            "whatif",
            "serve",
            "stats",
            "top",
            "alerts",
            "batch",
        ] {
            assert!(command_help(name).is_some(), "{name} missing from COMMANDS");
        }
    }

    #[test]
    fn aligned_table_pads_columns_and_trims_trailing_space() {
        let rows = vec![
            vec!["endpoint".to_string(), "req/s".to_string()],
            vec!["analyze".to_string(), "12.5".to_string()],
            vec!["v1".to_string(), "3.0".to_string()],
        ];
        assert_eq!(
            aligned_table(&rows),
            "endpoint  req/s\nanalyze   12.5\nv1        3.0\n"
        );
    }

    #[test]
    fn sparkline_scales_to_extremes_and_blanks_nulls() {
        let line = sparkline(&[Some(0.0), None, Some(1.0)]);
        assert_eq!(line, "▁ █");
        assert_eq!(sparkline(&[]), "");
        // A flat series renders mid-height, not a panic on max == min.
        assert_eq!(sparkline(&[Some(5.0), Some(5.0)]), "▅▅");
    }

    #[test]
    fn fmt_ns_picks_the_readable_unit() {
        assert_eq!(fmt_ns(870.0), "870ns");
        assert_eq!(fmt_ns(870_500.0), "870.5µs");
        assert_eq!(fmt_ns(1_240_000.0), "1.24ms");
        assert_eq!(fmt_ns(2_100_000_000.0), "2.10s");
    }

    #[test]
    fn batch_usage_names_every_accepted_kind() {
        let usage = usage_of("batch");
        for name in batch_kinds() {
            assert!(usage.contains(name), "{name} missing from {usage:?}");
            assert!(RequestKind::named(name).is_some(), "{name} does not parse");
        }
    }
}
