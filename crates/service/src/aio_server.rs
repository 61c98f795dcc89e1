//! The epoll listener: one reactor thread multiplexing every
//! connection, compute on the worker pool. It is the daemon's only
//! listener, so the daemon serves on Linux only.
//!
//! The listener holds every connection as a small state machine in a
//! [`Slab`]. The reactor thread runs an edge-triggered [`Poller`]
//! loop, resumes the incremental HTTP/1.1 parser with whatever bytes
//! each readiness event delivers, and writes responses out — small
//! bodies as one `Content-Length` write, bodies over the streaming
//! threshold as `Transfer-Encoding: chunked` frames through a bounded
//! per-connection write buffer.
//!
//! Which work runs where:
//!
//! - **On the reactor:** HTTP framing, and the front half of a `POST`
//!   to a plain analysis route (`/analyze`, `/graph`, `/correctness`,
//!   `/invariants`, `/simulate`) whose body is at most
//!   [`INLINE_MAX_BODY`] bytes — parse, digest and the one cache lookup
//!   ([`Service::respond`]). A body-cache hit (or a request refused
//!   before the lookup) is answered in the same loop turn: its reply
//!   goes onto a ready queue local to the reactor, drained after the
//!   turn's events, with no pool job, condvar, eventfd or completion
//!   lock. Each connection gets at most one inline answer per drain,
//!   and inline answers take no in-flight budget.
//! - **On the [`ThreadPool`]:** a miss's computation or a coalesced
//!   wait (the back half, carrying the parsed net, the cache flight and
//!   the request's open observation), and every other request whole.
//!   Workers push the finished response onto a completion queue and
//!   nudge the reactor through its eventfd [`Waker`].
//!
//! Admission control has three layers, all tunable via
//! [`AioConfig`](crate::http::AioConfig):
//!
//! - a hard connection cap — connections beyond it get an immediate
//!   `503` and close;
//! - an in-flight request budget — at the budget the reactor
//!   deregisters the listener (accept-pause), pushing overload into
//!   the kernel backlog instead of its own memory, and re-registers
//!   when work drains (epoll level-checks at registration, so the
//!   parked backlog surfaces immediately);
//! - per-connection deadlines on a [`TimerWheel`] — idle keep-alive,
//!   slow-read (the slow-loris bound) and write-stall timers, the
//!   write timer re-armed on every write that makes progress.
//!
//! Shutdown is a graceful drain: stop accepting, close idle and
//! still-reading connections immediately, give in-flight responses
//! [`AioConfig::drain_ms`](crate::http::AioConfig::drain_ms) to
//! flush, then close whatever remains.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpn_aio::http1::{HttpError, HttpLimits, RequestParser};
use tpn_aio::poll::{interest, Event, Poller};
use tpn_aio::slab::Slab;
use tpn_aio::timer::TimerWheel;
use tpn_aio::wake::Waker;

use crate::executor::ThreadPool;
use crate::http::{route, AioConfig, Pending, Request, Service, JSON};
use crate::json::error_body;
use crate::metrics::Route;

/// Fixed poller tokens for the two non-connection descriptors. Slab
/// tokens are `(generation << 32) | index` and reach these values only
/// after ~2^32 slot reuses of the highest slot — never in practice.
const LISTENER: u64 = u64::MAX;
const WAKER: u64 = u64::MAX - 1;

/// Timer wheel tick and length: 6.4 s per rotation; longer deadlines
/// (the 30 s read and 60 s idle defaults) ride extra rotations.
const WHEEL_GRANULARITY_MS: u64 = 100;
const WHEEL_SLOTS: usize = 64;

/// No deadline armed (the connection is parked on the worker pool,
/// which is bounded by the in-flight budget, not a timer).
const NO_DEADLINE: u64 = u64::MAX;

/// Cap on the request line plus headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest `.tpn` body whose front half (parse, digest, cache lookup)
/// the reactor runs itself: every connection waits while it does, so
/// larger bodies go whole to the pool. `lossy_chain(32)`'s 3.5 KiB
/// parse and digest in under 30 µs, so the largest inline body holds
/// the reactor for about a tenth of a millisecond.
const INLINE_MAX_BODY: usize = 16 * 1024;

/// Bytes the reactor reads from a socket at a time.
const READ_CHUNK: usize = 16 * 1024;

/// The reason phrase of a response status line.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Where a connection's state machine currently sits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Keep-alive gap: no request bytes buffered.
    Idle,
    /// A partial request is buffered; the read deadline is armed.
    Reading,
    /// A complete request is on the worker pool.
    Busy,
    /// A response (or parse-error response) is flushing out.
    Writing,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    phase: Phase,
    /// Userspace readiness (edge-triggered: set by events, cleared on
    /// `WouldBlock`).
    readable: bool,
    writable: bool,
    /// The peer closed its write side; serve what is buffered, then
    /// close.
    eof: bool,
    /// Input processing suspended because the in-flight budget is
    /// spent; the token sits in the reactor's parked queue and gets
    /// re-driven as completions free budget.
    parked: bool,
    /// Staged output bytes; `out_pos..` is still unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// A body streaming out as chunked frames: `(body, offset)`.
    streaming: Option<(Arc<String>, usize)>,
    /// Close once the current response has flushed.
    close_after: bool,
    /// Responses dispatched on this connection (keep-alive bound).
    served: u64,
    opened: Instant,
    /// Current logical deadline on the reactor clock ([`NO_DEADLINE`]
    /// when parked on the pool).
    deadline_at: u64,
    /// Earliest wheel entry armed for this token, if any — wheel
    /// entries are never cancelled, only ignored or re-inserted when
    /// they fire.
    wheel_at: Option<u64>,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.out_pos < self.out.len() || self.streaming.is_some()
    }
}

/// One finished request: handed back from a pool worker, or answered
/// on the reactor.
struct Completion {
    token: u64,
    status: u16,
    content_type: &'static str,
    body: Arc<String>,
}

/// Why a connection is being closed, for the counter taxonomy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Normal lifecycle: client close, keep-alive bound, response
    /// with `Connection: close`, transport error.
    Normal,
    /// A read or write deadline fired.
    Timeout,
    /// Graceful drain at shutdown.
    Drained,
}

struct Reactor {
    service: Arc<Service>,
    pool: ThreadPool,
    poller: Poller,
    waker: Waker,
    listener: TcpListener,
    conns: Slab<Conn>,
    wheel: TimerWheel,
    completions: Arc<Mutex<std::collections::VecDeque<Completion>>>,
    /// Requests the reactor answered itself, waiting to be written out
    /// at the end of the loop turn (answering inside `dispatch` would
    /// re-enter `drive` once per pipelined request).
    ready: std::collections::VecDeque<Completion>,
    /// The buffer every socket read lands in before the parser copies
    /// it, allocated once.
    read_buf: Box<[u8]>,
    /// Connections whose input processing is suspended on the
    /// in-flight budget, in arrival order. Tokens may be stale by the
    /// time they are popped; the slab's generation check skips those.
    parked: std::collections::VecDeque<u64>,
    cfg: AioConfig,
    /// Resolved in-flight budget (`cfg.inflight`, or the pool queue
    /// capacity when 0 — which also guarantees `try_execute` never
    /// finds the queue full).
    budget: usize,
    inflight: usize,
    /// Listener deregistered from the poller (accept-pause).
    paused: bool,
    draining: bool,
    drain_until: u64,
    start: Instant,
    stop: Arc<AtomicBool>,
    limits: HttpLimits,
}

impl Reactor {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = self.now_ms();
            let timeout = if !self.ready.is_empty() {
                // Inline answers are waiting: poll without blocking.
                Some(Duration::ZERO)
            } else if self.draining {
                // Poll the drain budget even if no fd turns ready.
                Some(Duration::from_millis(
                    WHEEL_GRANULARITY_MS.min(self.drain_until.saturating_sub(now).max(1)),
                ))
            } else {
                self.wheel
                    .next_timeout_ms(now)
                    .map(|ms| Duration::from_millis(ms.max(1)))
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for event in &events {
                match event.token {
                    WAKER => self.waker.drain(),
                    LISTENER => self.accept_ready(),
                    token => self.conn_event(token, event),
                }
            }
            self.drain_completions();
            self.drain_ready();
            let now = self.now_ms();
            self.fire_timers(now);
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain(now);
            }
            if self.draining && (self.conns.is_empty() || now >= self.drain_until) {
                for token in self.conns.tokens() {
                    self.close(token, CloseReason::Drained);
                }
                break;
            }
        }
    }

    // ---- admission ----

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE under fd
                // exhaustion): stop this batch; the next readiness
                // event retries.
                Err(_) => break,
            };
            if self.draining {
                continue;
            }
            if self.conns.len() >= self.cfg.max_connections {
                reject_over_capacity(stream, &self.service);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.service.connections().opened();
            let conn = Conn {
                stream,
                parser: RequestParser::new(self.limits),
                phase: Phase::Idle,
                readable: false,
                // A fresh socket is writable; if not, the first write
                // returns WouldBlock and clears this.
                writable: true,
                eof: false,
                parked: false,
                out: Vec::new(),
                out_pos: 0,
                streaming: None,
                close_after: false,
                served: 0,
                opened: Instant::now(),
                deadline_at: NO_DEADLINE,
                wheel_at: None,
            };
            let token = self.conns.insert(conn);
            let now = self.now_ms();
            let idle = self.cfg.idle_deadline_ms;
            {
                let conn = self.conns.get_mut(token).expect("just inserted");
                arm(conn, &mut self.wheel, token, now + idle);
            }
            let fd = {
                use std::os::fd::AsRawFd;
                self.conns
                    .get(token)
                    .expect("just inserted")
                    .stream
                    .as_raw_fd()
            };
            if self
                .poller
                .add(fd, token, interest::READ | interest::WRITE)
                .is_err()
            {
                self.close(token, CloseReason::Normal);
            }
        }
    }

    fn pause_accept(&mut self) {
        if !self.paused {
            use std::os::fd::AsRawFd;
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.paused = true;
        }
    }

    fn resume_accept(&mut self) {
        if self.paused && !self.draining {
            use std::os::fd::AsRawFd;
            if self
                .poller
                .add(self.listener.as_raw_fd(), LISTENER, interest::READ)
                .is_ok()
            {
                self.paused = false;
            }
        }
    }

    // ---- event dispatch ----

    fn conn_event(&mut self, token: u64, event: &Event) {
        let Some(conn) = self.conns.get_mut(token) else {
            // Stale token: the connection closed earlier this batch.
            return;
        };
        if event.error {
            self.close(token, CloseReason::Normal);
            return;
        }
        if event.readable || event.hangup {
            conn.readable = true;
        }
        if event.writable {
            conn.writable = true;
        }
        self.drive(token);
    }

    /// Push the connection's state machine as far as readiness allows.
    fn drive(&mut self, token: u64) {
        // Flush staged output first (a response mid-write, or an
        // interim 100 Continue queued during Reading).
        let chunk = self.cfg.write_chunk;
        let write_deadline = self.now_ms() + self.cfg.write_deadline_ms;
        let idle_deadline = self.now_ms() + self.cfg.idle_deadline_ms;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.pending_out() {
            match flush_out(conn, chunk) {
                FlushOutcome::Progress => {
                    if conn.phase == Phase::Writing {
                        // The client is consuming: re-arm the stall
                        // timer from now.
                        conn.deadline_at = write_deadline;
                        arm(conn, &mut self.wheel, token, write_deadline);
                    }
                    if conn.pending_out() {
                        return; // WouldBlock with data left
                    }
                }
                FlushOutcome::Blocked => return,
                FlushOutcome::Error => {
                    self.close(token, CloseReason::Normal);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.phase == Phase::Writing && !conn.pending_out() {
            // Response fully flushed.
            if conn.close_after {
                self.close(token, CloseReason::Normal);
                return;
            }
            conn.phase = Phase::Idle;
            arm(conn, &mut self.wheel, token, idle_deadline);
        }
        let phase = self.conns.get(token).map(|c| c.phase);
        if matches!(phase, Some(Phase::Idle) | Some(Phase::Reading)) {
            self.process_input(token);
        }
    }

    /// Read, parse and (maybe) dispatch — the Idle/Reading engine.
    fn process_input(&mut self, token: u64) {
        let read_deadline = self.now_ms() + self.cfg.read_deadline_ms;
        let idle_deadline = self.now_ms() + self.cfg.idle_deadline_ms;
        loop {
            if self.inflight >= self.budget {
                // Budget spent: accept-pause alone cannot throttle
                // keep-alive clients already connected, so park this
                // connection — its bytes stay in the parser buffer and
                // the kernel socket — and re-drive it as completions
                // free budget, instead of shedding with a 503.
                let Some(conn) = self.conns.get_mut(token) else {
                    return;
                };
                if !conn.parked {
                    conn.parked = true;
                    self.parked.push_back(token);
                }
                return;
            }
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            match conn.parser.poll() {
                Err(e) => {
                    self.error_response(token, &e);
                    return;
                }
                Ok(Some(req)) => {
                    self.dispatch(token, req);
                    return;
                }
                Ok(None) => {}
            }
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.parser.wants_continue() {
                conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                let chunk_cap = self.cfg.write_chunk;
                if matches!(flush_out(conn, chunk_cap), FlushOutcome::Error) {
                    self.close(token, CloseReason::Normal);
                    return;
                }
            }
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.eof {
                // Peer finished sending and nothing dispatchable is
                // left: a clean close (mid-request EOFs get no
                // reply).
                self.close(token, CloseReason::Normal);
                return;
            }
            if !conn.readable {
                // Out of input: settle the phase and its deadline.
                let mid = conn.parser.mid_request();
                if mid && conn.phase != Phase::Reading {
                    conn.phase = Phase::Reading;
                    arm(conn, &mut self.wheel, token, read_deadline);
                } else if !mid && conn.phase != Phase::Idle {
                    conn.phase = Phase::Idle;
                    arm(conn, &mut self.wheel, token, idle_deadline);
                }
                return;
            }
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => conn.eof = true,
                Ok(n) => conn.parser.feed(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token, CloseReason::Normal);
                    return;
                }
            }
        }
    }

    /// Serve one complete request: a small analysis request's front
    /// half here (answering a hit on the ready queue), everything else
    /// on the worker pool.
    fn dispatch(&mut self, token: u64, req: Request) {
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            conn.phase = Phase::Busy;
            conn.deadline_at = NO_DEADLINE;
            conn.close_after = req.close;
            conn.served += 1;
        }
        // One table lookup: a small request to a plain analysis route
        // runs its front half here.
        let inline = Route::at(&req.path)
            .filter(|r| r.method == req.method && req.body.len() <= INLINE_MAX_BODY)
            .and_then(|r| Some((r.endpoint, r.kind?)));
        let work = match inline {
            Some((endpoint, kind)) => match self.service.front(&req, endpoint, kind) {
                Ok((status, body)) => {
                    self.ready.push_back(Completion {
                        token,
                        status,
                        content_type: JSON,
                        body,
                    });
                    return;
                }
                Err(pending) => Work::Back(pending),
            },
            None => Work::Route(req),
        };
        self.inflight += 1;
        if self.inflight >= self.budget {
            self.pause_accept();
        }
        let svc = Arc::clone(&self.service);
        let completions = Arc::clone(&self.completions);
        let waker = self.waker.clone();
        let job = move || {
            let (status, content_type, body) = match work {
                Work::Route(req) => route(&svc, &req),
                Work::Back(pending) => {
                    let (status, body) = svc.back(pending);
                    (status, JSON, body)
                }
            };
            completions
                .lock()
                .expect("completion queue lock")
                .push_back(Completion {
                    token,
                    status,
                    content_type,
                    body,
                });
            waker.wake();
        };
        match self.pool.try_execute(job) {
            Ok(None) => {}
            Ok(Some(_)) => {
                // Queue full despite the budget (only reachable with
                // an explicit inflight override above queue_cap):
                // shed the request instead of blocking the reactor.
                self.inflight -= 1;
                let body = Arc::new(error_body("server is overloaded"));
                self.respond(token, 503, JSON, &body, true);
            }
            Err(_) => {
                self.inflight -= 1;
                self.close(token, CloseReason::Normal);
            }
        }
    }

    /// Answer a parse error with its status and `{"error": …}` body,
    /// then close.
    fn error_response(&mut self, token: u64, e: &HttpError) {
        let (status, body) = match e {
            HttpError::Malformed(m) => (400, error_body(m)),
            HttpError::TooLarge => (413, error_body("request body too large")),
            HttpError::Unsupported(m) => (501, error_body(m)),
        };
        self.respond(token, status, JSON, &Arc::new(body), true);
    }

    /// Stage one response on the connection and start flushing it.
    /// `force_close` closes regardless of keep-alive state.
    fn respond(
        &mut self,
        token: u64,
        status: u16,
        content_type: &'static str,
        body: &Arc<String>,
        force_close: bool,
    ) {
        let now = self.now_ms();
        let write_deadline = now + self.cfg.write_deadline_ms;
        let max_requests = self.cfg.max_requests_per_conn.max(1);
        let threshold = self.cfg.stream_threshold;
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let close =
            force_close || conn.close_after || conn.served >= max_requests || draining || conn.eof;
        conn.close_after = close;
        let connection = if close { "close" } else { "keep-alive" };
        // The head is written straight into the staging buffer (writes
        // into a `Vec` cannot fail).
        let out = &mut conn.out;
        let _ = write!(
            out,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
            reason(status)
        );
        if body.len() > threshold {
            out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
            let _ = write!(out, "Connection: {connection}\r\n\r\n");
            conn.streaming = Some((Arc::clone(body), 0));
        } else {
            let _ = write!(
                out,
                "Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
                body.len()
            );
            out.extend_from_slice(body.as_bytes());
        }
        conn.phase = Phase::Writing;
        conn.deadline_at = write_deadline;
        arm(conn, &mut self.wheel, token, write_deadline);
        self.drive(token);
    }

    /// Write out the inline answers queued before this drain began.
    /// An answer re-drives its connection, which may queue that
    /// connection's next pipelined answer: it waits for the next turn,
    /// behind every other connection's.
    fn drain_ready(&mut self) {
        for _ in 0..self.ready.len() {
            let Some(c) = self.ready.pop_front() else {
                break;
            };
            if self.conns.get(c.token).is_some() {
                self.respond(c.token, c.status, c.content_type, &c.body, false);
            }
        }
    }

    fn drain_completions(&mut self) {
        loop {
            let completion = {
                let mut queue = self.completions.lock().expect("completion queue lock");
                queue.pop_front()
            };
            let Some(c) = completion else { break };
            self.inflight = self.inflight.saturating_sub(1);
            if self.conns.get(c.token).is_some() {
                self.respond(c.token, c.status, c.content_type, &c.body, false);
            }
            // else: the client vanished while we computed.
        }
        // Freed budget goes to parked connections first (they were
        // throttled earliest), then to the listener.
        while self.inflight < self.budget {
            let Some(token) = self.parked.pop_front() else {
                break;
            };
            let Some(conn) = self.conns.get_mut(token) else {
                continue; // closed while parked; generation mismatch
            };
            if !conn.parked {
                continue;
            }
            conn.parked = false;
            self.drive(token);
        }
        if self.paused && self.inflight < self.budget {
            self.resume_accept();
        }
    }

    // ---- deadlines ----

    fn fire_timers(&mut self, now: u64) {
        let mut fired = Vec::new();
        self.wheel.advance(now, |token| fired.push(token));
        for token in fired {
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            conn.wheel_at = None;
            if conn.deadline_at == NO_DEADLINE {
                continue; // parked on the pool; no timer applies
            }
            if now < conn.deadline_at {
                // Deadline moved later since this entry was armed:
                // re-insert at the real deadline (lazy cancellation).
                let t = conn.deadline_at;
                arm(conn, &mut self.wheel, token, t);
                continue;
            }
            match conn.phase {
                Phase::Idle => self.close(token, CloseReason::Normal),
                Phase::Reading => {
                    // A slow-drip client gets a 400, then the close.
                    self.service.connections().timeout();
                    let body = Arc::new(error_body("request read deadline exceeded"));
                    self.respond(token, 400, JSON, &body, true);
                }
                Phase::Writing => {
                    self.service.connections().timeout();
                    self.close(token, CloseReason::Timeout);
                }
                Phase::Busy => {}
            }
        }
    }

    // ---- teardown ----

    fn begin_drain(&mut self, now: u64) {
        self.draining = true;
        self.drain_until = now + self.cfg.drain_ms;
        self.pause_accept();
        for token in self.conns.tokens() {
            let phase = self.conns.get(token).map(|c| c.phase);
            if matches!(phase, Some(Phase::Idle) | Some(Phase::Reading)) {
                self.close(token, CloseReason::Drained);
            }
        }
    }

    fn close(&mut self, token: u64, why: CloseReason) {
        let Some(conn) = self.conns.remove(token) else {
            return;
        };
        let stats = self.service.connections();
        match why {
            CloseReason::Normal => {}
            // `timeout()` for deadline closes that also send a
            // response body is counted at the respond site; this arm
            // covers closes with nothing more to say.
            CloseReason::Timeout => {}
            CloseReason::Drained => stats.drain(),
        }
        stats.closed(conn.opened.elapsed().as_nanos() as u64);
        // Dropping the stream closes the fd, which deregisters it
        // from epoll; stale events for this token fail the slab's
        // generation check.
        drop(conn);
    }
}

/// What a pool job runs: a whole request, or the back half of one
/// whose front half ran on the reactor.
enum Work {
    Route(Request),
    Back(Box<Pending>),
}

/// Best-effort `503` for a connection over the hard cap: one
/// nonblocking write, then drop. The socket was never admitted, so
/// only the reject counter moves.
fn reject_over_capacity(stream: TcpStream, service: &Service) {
    service.connections().reject();
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let body = error_body("connection limit reached");
    let head = format!(
        "HTTP/1.1 503 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        reason(503),
        JSON,
        body.len(),
        body,
    );
    let _ = stream.write(head.as_bytes());
}

enum FlushOutcome {
    /// Wrote at least one byte (possibly everything).
    Progress,
    /// `WouldBlock` before any byte moved.
    Blocked,
    /// Transport error; the connection is dead.
    Error,
}

/// Write staged bytes, refilling from the streaming body in
/// `write_chunk`-sized chunked frames, until done or `WouldBlock`.
/// The staged buffer never holds more than one frame beyond what the
/// kernel has refused — that bound is the whole point of streaming.
fn flush_out(conn: &mut Conn, write_chunk: usize) -> FlushOutcome {
    let mut progressed = false;
    loop {
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            let Some((body, offset)) = conn.streaming.take() else {
                return if progressed {
                    FlushOutcome::Progress
                } else {
                    FlushOutcome::Blocked
                };
            };
            let bytes = body.as_bytes();
            let take = write_chunk.max(1).min(bytes.len() - offset);
            let _ = write!(conn.out, "{take:x}\r\n");
            conn.out.extend_from_slice(&bytes[offset..offset + take]);
            conn.out.extend_from_slice(b"\r\n");
            if offset + take < bytes.len() {
                conn.streaming = Some((body, offset + take));
            } else {
                conn.out.extend_from_slice(b"0\r\n\r\n");
            }
        }
        if !conn.writable {
            return if progressed {
                FlushOutcome::Progress
            } else {
                FlushOutcome::Blocked
            };
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushOutcome::Error,
            Ok(n) => {
                conn.out_pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.writable = false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return FlushOutcome::Error,
        }
    }
}

/// Arm (or tighten) the wheel entry backing `conn`'s current
/// deadline. Entries are append-only: a later deadline leaves the
/// earlier entry in place to fire, notice `deadline_at` moved, and
/// re-insert itself.
fn arm(conn: &mut Conn, wheel: &mut TimerWheel, token: u64, deadline_ms: u64) {
    conn.deadline_at = deadline_ms;
    match conn.wheel_at {
        Some(at) if at <= deadline_ms => {}
        _ => {
            wheel.insert(token, deadline_ms);
            conn.wheel_at = Some(deadline_ms);
        }
    }
}

/// A running HTTP server. Dropping the handle shuts the server down;
/// [`ServerHandle::wait`] blocks forever (the `tpn serve` foreground
/// mode).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor_thread: Option<JoinHandle<()>>,
    sampler_thread: Option<JoinHandle<()>>,
    /// Wakes the reactor's `epoll_wait` so it sees the stop flag.
    waker: Waker,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections, join the threads.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    /// Block until the server exits (it only exits via shutdown, so
    /// this parks the caller for the server's lifetime).
    pub fn wait(mut self) {
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.sampler_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reactor_thread.take() {
            self.waker.wake();
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// The retention sampler: one frame every `sample_interval_ms`,
/// sleeping in short slices so shutdown is prompt.
fn spawn_sampler(
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
) -> io::Result<Option<JoinHandle<()>>> {
    let interval_ms = service.config().sample_interval_ms;
    if !service.metrics().enabled() || interval_ms == 0 {
        return Ok(None);
    }
    let service = Arc::clone(service);
    let stop = Arc::clone(stop);
    let interval = Duration::from_millis(interval_ms);
    let thread = std::thread::Builder::new()
        .name("tpn-sampler".to_string())
        .spawn(move || {
            service.sample_now();
            let slice = Duration::from_millis(50).min(interval);
            let mut next = Instant::now() + interval;
            while !stop.load(Ordering::SeqCst) {
                if Instant::now() >= next {
                    service.sample_now();
                    next += interval;
                }
                std::thread::sleep(slice);
            }
        })?;
    Ok(Some(thread))
}

/// Bind `addr` and serve `service` on the epoll reactor until the
/// handle is shut down. The daemon's only listener, so Linux only.
pub fn spawn(service: Arc<Service>, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let cfg = service.config().aio.clone();
    // Each connection is one fd; leave generous headroom for the
    // listener, eventfd, epoll fd and the rest of the process.
    let _ = tpn_aio::rlimit::ensure_nofile(cfg.max_connections as u64 * 2 + 256);
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    {
        use std::os::fd::AsRawFd;
        poller.add(listener.as_raw_fd(), LISTENER, interest::READ)?;
        poller.add(waker.fd(), WAKER, interest::READ)?;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let sampler_thread = spawn_sampler(&service, &stop)?;
    let pool = ThreadPool::new(service.config().threads, service.config().queue_cap);
    let budget = if cfg.inflight == 0 {
        pool.queue_cap()
    } else {
        cfg.inflight
    };
    let limits = HttpLimits {
        max_head_bytes: MAX_HEAD_BYTES,
        max_body_bytes: service.config().max_body_bytes,
    };
    let mut reactor = Reactor {
        service,
        pool,
        poller,
        waker: waker.clone(),
        listener,
        conns: Slab::new(),
        wheel: TimerWheel::new(WHEEL_GRANULARITY_MS, WHEEL_SLOTS),
        completions: Arc::new(Mutex::new(std::collections::VecDeque::new())),
        ready: std::collections::VecDeque::new(),
        read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
        parked: std::collections::VecDeque::new(),
        cfg,
        budget: budget.max(1),
        inflight: 0,
        paused: false,
        draining: false,
        drain_until: 0,
        start: Instant::now(),
        stop: Arc::clone(&stop),
        limits,
    };
    let reactor_thread = std::thread::Builder::new()
        .name("tpn-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ServerHandle {
        addr: local,
        stop,
        reactor_thread: Some(reactor_thread),
        sampler_thread,
        waker,
    })
}
