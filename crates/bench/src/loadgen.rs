//! An epoll-based HTTP load generator for the serving-tier benches.
//!
//! One thread drives every client connection through a
//! [`Poller`] event loop — the same reactor
//! primitives the server's listener uses — so a single core can hold
//! tens of thousands of concurrent keep-alive connections against
//! `tpn serve`. Responses are reassembled with the shared
//! [`ResponseParser`], which also
//! decodes the chunked framing the server streams large bodies with.
//!
//! Each connection issues its requests back-to-back on one keep-alive
//! socket and redials only when the server closes it (the
//! per-connection request cap) or the exchange fails.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use tpn_aio::http1::ResponseParser;
use tpn_aio::poll::{interest, Event, Poller};

/// One request shape in the round-robin mix.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    pub method: String,
    pub target: String,
    pub body: String,
}

impl RequestSpec {
    pub fn new(method: &str, target: &str, body: &str) -> RequestSpec {
        RequestSpec {
            method: method.to_string(),
            target: target.to_string(),
            body: body.to_string(),
        }
    }

    fn wire(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{}",
            self.method,
            self.target,
            self.body.len(),
            self.body,
        )
        .into_bytes()
    }
}

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent connections held open.
    pub connections: usize,
    /// Total requests to complete across all connections.
    pub requests: u64,
    /// The request mix, issued round-robin per completed response.
    pub mix: Vec<RequestSpec>,
    /// Abort the run (counting unfinished requests as errors) after
    /// this long.
    pub deadline: Duration,
}

/// What happened.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// Responses fully received with a 2xx status.
    pub ok: u64,
    /// Responses fully received with any other status.
    pub non_2xx: u64,
    /// Requests lost to transport errors, parse failures, redial
    /// failures, or the run deadline.
    pub errors: u64,
    /// Wall-clock time from first byte sent to last response.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Completed responses (any status) per second of wall clock.
    pub fn req_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.ok + self.non_2xx) as f64 / secs
    }
}

struct Client {
    stream: TcpStream,
    parser: ResponseParser,
    out: Vec<u8>,
    out_pos: usize,
    readable: bool,
    writable: bool,
    /// A request is in flight on this connection.
    awaiting: bool,
    /// Requests this connection has issued (drives the mix index).
    issued: u64,
}

/// Outcome of driving a client through one readiness event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ClientState {
    /// Still usable; may or may not have a request in flight.
    Alive,
    /// Peer closed after a complete exchange (the server's
    /// per-connection request cap) — redial, not an error.
    Closed,
    /// Transport or parse failure with a response still owed.
    Failed,
}

/// Drive `cfg.requests` requests against `addr`. Returns the counts
/// and wall-clock; per-request latency lives in the server's own
/// histograms (`/metrics`), where it is measured without client-side
/// scheduling noise.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> io::Result<LoadReport> {
    assert!(!cfg.mix.is_empty(), "request mix must not be empty");
    let connections = cfg.connections.max(1);
    // Client fds plus the poller itself, with slack for redials.
    let _ = tpn_aio::rlimit::ensure_nofile(connections as u64 * 2 + 256);
    let mut poller = Poller::new()?;
    let mut report = LoadReport::default();
    let mut clients: Vec<Option<Client>> = Vec::with_capacity(connections);
    let mut issued_total: u64 = 0;

    let dial = |poller: &Poller, token: u64| -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        poller.add(stream.as_raw_fd(), token, interest::READ | interest::WRITE)?;
        Ok(Client {
            stream,
            parser: ResponseParser::new(),
            out: Vec::new(),
            out_pos: 0,
            readable: false,
            writable: true,
            awaiting: false,
            issued: 0,
        })
    };

    let started = Instant::now();
    for token in 0..connections {
        match dial(&poller, token as u64) {
            Ok(client) => clients.push(Some(client)),
            Err(_) => {
                clients.push(None);
                report.errors += 1;
            }
        }
    }

    // Seed every live connection with its first request.
    for (token, slot) in clients.iter_mut().enumerate() {
        if let Some(client) = slot {
            if issued_total < cfg.requests {
                let spec = &cfg.mix[(issued_total % cfg.mix.len() as u64) as usize];
                client.out = spec.wire();
                client.out_pos = 0;
                client.awaiting = true;
                client.issued += 1;
                issued_total += 1;
                let _ = token;
            }
        }
    }

    let mut events: Vec<Event> = Vec::new();
    let deadline = started + cfg.deadline;
    loop {
        let done = report.ok + report.non_2xx + report.errors;
        let in_flight = clients.iter().flatten().filter(|c| c.awaiting).count() as u64;
        if done >= cfg.requests || (in_flight == 0 && issued_total >= cfg.requests) {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            report.errors += cfg.requests.saturating_sub(done);
            break;
        }
        poller.wait(
            &mut events,
            Some((deadline - now).min(Duration::from_millis(500))),
        )?;
        for event in &events {
            let token = event.token as usize;
            let Some(slot) = clients.get_mut(token) else {
                continue;
            };
            let Some(client) = slot.as_mut() else {
                continue;
            };
            if event.readable || event.hangup {
                client.readable = true;
            }
            if event.writable {
                client.writable = true;
            }
            let state = drive_client(client, &mut report);
            if state != ClientState::Alive {
                // Redial on both clean closes and failures, so the
                // target request count is still attempted.
                if state == ClientState::Failed {
                    report.errors += 1;
                }
                let issued = client.issued;
                *slot = None;
                if issued_total < cfg.requests {
                    match dial(&poller, token as u64) {
                        Ok(mut fresh) => {
                            fresh.issued = issued;
                            let spec = &cfg.mix[(issued_total % cfg.mix.len() as u64) as usize];
                            fresh.out = spec.wire();
                            fresh.out_pos = 0;
                            fresh.awaiting = true;
                            fresh.issued += 1;
                            issued_total += 1;
                            *slot = Some(fresh);
                        }
                        Err(_) => report.errors += 1,
                    }
                }
            } else if !client.awaiting && issued_total < cfg.requests {
                let spec = &cfg.mix[(issued_total % cfg.mix.len() as u64) as usize];
                client.out = spec.wire();
                client.out_pos = 0;
                client.awaiting = true;
                client.issued += 1;
                issued_total += 1;
                if drive_client(client, &mut report) == ClientState::Failed {
                    report.errors += 1;
                    *slot = None;
                }
            }
        }
    }
    report.elapsed = started.elapsed();
    Ok(report)
}

/// Flush pending request bytes and consume whatever responses have
/// arrived.
fn drive_client(client: &mut Client, report: &mut LoadReport) -> ClientState {
    // Write side.
    while client.writable && client.out_pos < client.out.len() {
        match client.stream.write(&client.out[client.out_pos..]) {
            Ok(0) => return ClientState::Failed,
            Ok(n) => client.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => client.writable = false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ClientState::Failed,
        }
    }
    // Read side. Responses are polled as bytes arrive, so by the time
    // EOF is observed any complete response has already been counted.
    let mut chunk = [0u8; 16 * 1024];
    while client.readable {
        match client.stream.read(&mut chunk) {
            Ok(0) => {
                return if client.awaiting {
                    ClientState::Failed
                } else {
                    ClientState::Closed
                };
            }
            Ok(n) => {
                client.parser.feed(&chunk[..n]);
                loop {
                    match client.parser.poll() {
                        Ok(Some(resp)) => {
                            if resp.status / 100 == 1 {
                                continue; // interim 100 Continue
                            }
                            client.awaiting = false;
                            if resp.status / 100 == 2 {
                                report.ok += 1;
                            } else {
                                report.non_2xx += 1;
                            }
                            if resp.close {
                                return ClientState::Closed;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return ClientState::Failed,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => client.readable = false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ClientState::Failed,
        }
    }
    ClientState::Alive
}
