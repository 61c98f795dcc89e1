//! A minimal HTTP/1.1 client and the closed loop that drives the daemon.
//!
//! Sockets stay blocking; one thread waits on all of its connections
//! with `poll(2)` and reads only from those that are readable, so at most
//! `nproc` connections need no extra threads. Responses are parsed
//! incrementally (`Content-Length` or chunked bodies).

use std::ffi::{c_int, c_ulong};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long one request may take before the loop gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One complete response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server will close the connection after this response.
    pub close: bool,
}

/// The wire bytes of `POST <path>` carrying `body`.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The wire bytes of `GET <path>`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parse one response from the front of `buf`: `Ok(None)` while it is
/// incomplete, otherwise the response and the bytes it used.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let (mut length, mut chunked, mut close) = (0, false, false);
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let start = head_end + 4;
    let body = if chunked {
        dechunk(&buf[start..])?
    } else {
        (buf.len() >= start + length).then(|| (buf[start..start + length].to_vec(), length))
    };
    Ok(body.map(|(body, used)| {
        (
            Response {
                status,
                body,
                close,
            },
            start + used,
        )
    }))
}

/// Decode a chunked body (the server sends no trailers).
fn dechunk(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, String> {
    let mut body = Vec::new();
    let mut pos = 0;
    loop {
        let Some(eol) = find(&buf[pos..], b"\r\n") else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&buf[pos..pos + eol]).map_err(|_| "bad chunk size")?;
        let size = line.split(';').next().unwrap_or_default().trim();
        let size =
            usize::from_str_radix(size, 16).map_err(|_| format!("bad chunk size {size:?}"))?;
        pos += eol + 2;
        if buf.len() < pos + size + 2 {
            return Ok(None);
        }
        if size == 0 {
            return Ok(Some((body, pos + 2)));
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        pos += size + 2;
    }
}

/// One keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(1 << 17),
        })
    }

    fn reopen(&mut self) -> io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }

    fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Read what the socket holds (blocks only if nothing is readable).
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed by the server".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The next complete response already in the buffer, if any.
    fn take(&mut self) -> Result<Option<Response>, String> {
        let parsed = parse_response(&self.buf)?;
        Ok(parsed.map(|(response, used)| {
            self.buf.drain(..used);
            response
        }))
    }

    /// One blocking request/response exchange.
    pub fn round_trip(&mut self, wire: &[u8]) -> Result<Response, String> {
        self.send(wire).map_err(|e| format!("write: {e}"))?;
        loop {
            if let Some(response) = self.take()? {
                if response.close {
                    self.reopen().map_err(|e| format!("reconnect: {e}"))?;
                }
                return Ok(response);
            }
            self.fill()?;
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Wait up to `timeout_ms` for any of `fds` to become readable.
fn wait_readable(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<()> {
    // SAFETY: `fds` is an exclusively borrowed, initialised array of
    // `fds.len()` structs laid out as `struct pollfd`, valid for the
    // whole call; `poll` writes only their `revents` fields.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// What one closed-loop run saw.
#[derive(Default)]
pub struct LoopReport {
    /// Latency of every successful request, send to last response byte.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// From the first send to the last completion.
    pub elapsed: Duration,
    pub first_error: Option<String>,
}

impl LoopReport {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

/// When a closed loop stops sending new requests.
#[derive(Clone, Copy)]
pub struct Budget {
    pub duration: Duration,
    pub requests: u64,
}

/// A closed loop: every connection keeps exactly one request in flight
/// and sends its next request as soon as the response is in, until the
/// budget is spent. Request `k` is `wire(k)`, numbered from `first`;
/// `check(k, response)` decides whether it succeeded; `done(k, sent,
/// finished)` sees the timing of every completed request.
pub fn closed_loop(
    conns: &mut [Conn],
    budget: Budget,
    first: u64,
    mut wire: impl FnMut(u64) -> Vec<u8>,
    mut check: impl FnMut(u64, &Response) -> Result<(), String>,
    mut done: impl FnMut(u64, Instant, Instant),
) -> LoopReport {
    let mut report = LoopReport::default();
    let start = Instant::now();
    let deadline = start + budget.duration;
    let end = first.saturating_add(budget.requests);
    let mut next = first;
    let mut inflight: Vec<Option<(u64, Instant)>> = vec![None; conns.len()];
    let mut send_next = |k: u64, conn: &mut Conn, report: &mut LoopReport| {
        report.attempted += 1;
        let bytes = wire(k);
        let sent = Instant::now();
        match conn.send(&bytes) {
            Ok(()) => Some((k, sent)),
            Err(e) => {
                report.fail(format!("request {k}: write: {e}"));
                if let Err(e) = conn.reopen() {
                    report.fail(format!("reconnect: {e}"));
                }
                None
            }
        }
    };
    for (conn, slot) in conns.iter_mut().zip(&mut inflight) {
        if next < end {
            *slot = send_next(next, conn, &mut report);
            next += 1;
        }
    }
    let mut last_done = start;
    while inflight.iter().any(Option::is_some) {
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        if let Err(e) = wait_readable(&mut fds, 1000) {
            report.fail(format!("poll: {e}"));
            break;
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let Some((k, sent)) = inflight[i] else {
                continue;
            };
            if fds[i].revents == 0 {
                if sent.elapsed() > REQUEST_TIMEOUT {
                    report.fail(format!("request {k}: no response in {REQUEST_TIMEOUT:?}"));
                    inflight[i] = None;
                }
                continue;
            }
            let response = match conn.fill().and_then(|()| conn.take()) {
                Ok(None) => continue,
                Ok(Some(response)) => Ok(response),
                Err(e) => Err(e),
            };
            let finished = Instant::now();
            inflight[i] = None;
            let reopen = match response {
                Ok(response) => {
                    last_done = finished;
                    match check(k, &response) {
                        Ok(()) => {
                            report
                                .latencies_ns
                                .push((finished - sent).as_nanos() as u64);
                            done(k, sent, finished);
                        }
                        Err(e) => report.fail(format!("request {k}: {e}")),
                    }
                    response.close
                }
                Err(e) => {
                    report.fail(format!("request {k}: {e}"));
                    true
                }
            };
            if reopen {
                if let Err(e) = conn.reopen() {
                    report.fail(format!("reconnect: {e}"));
                    continue;
                }
            }
            if next < end && finished < deadline {
                inflight[i] = send_next(next, conn, &mut report);
                next += 1;
            }
        }
    }
    report.elapsed = last_done - start;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_content_length_and_chunked_responses() {
        let plain = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..plain.len() {
            assert!(
                parse_response(&plain[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
        let (r, used) = parse_response(plain).unwrap().unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), r.close, used),
            (200, &b"hello"[..], false, plain.len())
        );

        let chunked = b"HTTP/1.1 422 X\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        for cut in 0..chunked.len() {
            assert!(
                parse_response(&chunked[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
        let (r, used) = parse_response(chunked).unwrap().unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), r.close, used),
            (422, &b"abcde"[..], true, chunked.len())
        );
    }
}
