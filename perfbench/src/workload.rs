//! The workloads: what each request carries, how many connections
//! carry it, and the oracle each response must pass.

use std::sync::Arc;

use tpn_rational::Rational;
use tpn_service::{RequestKind, Service, ServiceConfig};

use crate::gen::{self, Style};

/// The listener streams bodies larger than this as chunked frames.
const STREAM_THRESHOLD: usize = 64 * 1024;

pub const NAMES: [&str; 3] = ["cold_states", "cold_decisions", "warm_http"];

pub struct Workload {
    pub name: &'static str,
    /// Closed-loop client connections.
    pub conns: usize,
    /// Requests each fresh daemon serves in the untraced run.
    pub epoch_requests: u64,
    inputs: Inputs,
    /// An in-process service configured like the daemon; for
    /// `warm_http` it already holds the working set.
    pub service: Service,
}

enum Inputs {
    /// One net, renamed for every request so that each misses both
    /// cache tiers; everything after its `net` line is fixed.
    Cold {
        prefix: &'static str,
        style: Style,
        rest: String,
        /// Substrings every response must contain, besides its name.
        needles: Vec<String>,
        /// Decision-graph edges every response must list.
        edges: usize,
    },
    /// A fixed working set, requested round-robin.
    Warm {
        bodies: Vec<String>,
        expected: Vec<Arc<String>>,
    },
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let style = Style::new(seed);
        let cold = |name,
                    prefix,
                    base: tpn_net::TimedPetriNet,
                    states: usize,
                    edges,
                    exact: Vec<(String, Rational)>,
                    epoch_requests| {
            let text = style.render(&base, &style.name(prefix, 0));
            let (_, rest) = text
                .split_once('\n')
                .expect("a rendered net has a net line");
            let mut needles = vec![format!("\"states\":{states},")];
            needles.extend(
                exact
                    .into_iter()
                    .map(|(t, r)| format!("{{\"transition\":\"{t}\",\"exact\":\"{r}\",")),
            );
            Workload {
                name,
                conns: 1,
                epoch_requests,
                inputs: Inputs::Cold {
                    prefix,
                    style,
                    rest: rest.to_string(),
                    needles,
                    edges,
                },
                service: Service::new(ServiceConfig::default()),
            }
        };
        Ok(match name {
            "cold_states" => cold(
                "cold_states",
                "pc3",
                gen::product_cycles(3),
                708,
                1,
                (0..3)
                    .flat_map(|i| {
                        let r = gen::cycle_throughput(i, style.scale);
                        [(format!("go_{i}"), r), (format!("back_{i}"), r)]
                    })
                    .collect(),
                400,
            ),
            "cold_decisions" => cold(
                "cold_decisions",
                "lc32",
                gen::lossy_chain(32),
                98,
                64,
                vec![(
                    "arrive".to_string(),
                    gen::lossy_arrive(32, gen::HOP_TIME * style.scale),
                )],
                200,
            ),
            "warm_http" => {
                let fig1 = read("tests/fixtures/fig1.tpn")?;
                let golden = read("tests/fixtures/golden/analyze.json")?;
                let service = Service::new(ServiceConfig::default());
                let bodies = vec![
                    fig1,
                    style.render(&gen::alternating_bit(), &style.name("abp", 0)),
                    style.render(&gen::producer_consumer_32(), &style.name("pc32", 0)),
                    style.render(&gen::lossy_chain(32), &style.name("lc32", 0)),
                ];
                let mut expected = Vec::new();
                for body in &bodies {
                    let (status, reply) = service.respond(RequestKind::Analyze, body);
                    if status != 200 || reply.len() > STREAM_THRESHOLD {
                        return Err(format!(
                            "warm body must analyze to at most {STREAM_THRESHOLD} bytes, got \
                             status {status} with {} bytes",
                            reply.len()
                        ));
                    }
                    expected.push(reply);
                }
                if *expected[0] != golden {
                    return Err(
                        "fig1 analyzes differently from tests/fixtures/golden/analyze.json"
                            .to_string(),
                    );
                }
                Workload {
                    name: "warm_http",
                    conns: 2,
                    epoch_requests: 4000,
                    inputs: Inputs::Warm { bodies, expected },
                    service,
                }
            }
            other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
        })
    }

    /// The `.tpn` text of request `k`.
    pub fn body(&self, k: u64) -> String {
        match &self.inputs {
            Inputs::Cold {
                prefix,
                style,
                rest,
                ..
            } => format!("net {}\n{rest}", style.name(prefix, k)),
            Inputs::Warm { bodies, .. } => bodies[k as usize % bodies.len()].clone(),
        }
    }

    /// How many distinct nets the requests cycle through.
    pub fn distinct(&self) -> u64 {
        match &self.inputs {
            Inputs::Cold { .. } => 1,
            Inputs::Warm { bodies, .. } => bodies.len() as u64,
        }
    }

    /// The bodies that prime the daemon's cache during set-up.
    pub fn working_set(&self) -> &[String] {
        match &self.inputs {
            Inputs::Cold { .. } => &[],
            Inputs::Warm { bodies, .. } => bodies,
        }
    }

    /// The oracle: does `body`, answered with `status`, correctly
    /// analyze request `k`?
    pub fn check(&self, k: u64, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            let text = String::from_utf8_lossy(&body[..body.len().min(200)]);
            return Err(format!("status {status}: {text}"));
        }
        match &self.inputs {
            Inputs::Cold {
                prefix,
                style,
                needles,
                edges,
                ..
            } => {
                let body = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
                let name = format!("\"net\":\"{}\"", style.name(prefix, k));
                for needle in std::iter::once(&name).chain(needles) {
                    if !body.contains(needle.as_str()) {
                        return Err(format!("body lacks {needle}"));
                    }
                }
                let listed = body.matches("{\"from\":").count();
                if listed != *edges {
                    return Err(format!("{listed} decision edges, expected {edges}"));
                }
                Ok(())
            }
            Inputs::Warm { expected, .. } => {
                let want = &expected[k as usize % expected.len()];
                if body == want.as_bytes() {
                    Ok(())
                } else {
                    Err(format!(
                        "body differs from the in-process body of request {k}"
                    ))
                }
            }
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}
