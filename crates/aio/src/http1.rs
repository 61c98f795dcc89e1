//! Incremental HTTP/1.1 message parsing.
//!
//! The request parser behind `tpn-service`'s epoll listener, fed
//! whatever each readiness event delivers. Bytes arrive via
//! [`RequestParser::feed`] in arbitrary splits; [`RequestParser::poll`]
//! returns a request exactly when one is complete, leaving any
//! pipelined remainder buffered for the next poll. Error messages
//! match the service's historical responses byte-for-byte (pinned by
//! the captured wire goldens in the workspace's `tests/aio.rs`).
//!
//! The module also carries a [`ResponseParser`] (status line, fixed or
//! chunked bodies) used by the load generator and the differential
//! test suite to reassemble streamed responses.

/// Parser limits. Both default to the service's historical caps.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Maximum bytes buffered while hunting for the end of the header
    /// section.
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1 << 20,
        }
    }
}

/// Protocol-level parse failure. The variants map onto the service's
/// response statuses: 400, 413, 501.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    Malformed(String),
    TooLarge,
    Unsupported(String),
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// The client asked for (or its HTTP version implies) closing the
    /// connection after this response.
    pub close: bool,
}

struct HeadInfo {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    content_length: usize,
    expect_continue: bool,
    close: bool,
    /// Total head bytes including the terminating blank line.
    head_len: usize,
}

pub struct RequestParser {
    limits: HttpLimits,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for the header terminator, so
    /// slow-drip clients cost O(n) total instead of O(n²) rescans.
    scanned: usize,
    head: Option<HeadInfo>,
    continue_signaled: bool,
}

impl RequestParser {
    pub fn new(limits: HttpLimits) -> RequestParser {
        RequestParser {
            limits,
            buf: Vec::with_capacity(1024),
            scanned: 0,
            head: None,
            continue_signaled: false,
        }
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (head-in-progress, body-in-progress,
    /// or a pipelined follow-up request).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once the header section of the in-flight request is
    /// complete (so an EOF now means a truncated body, not a closed
    /// idle connection).
    pub fn in_body(&self) -> bool {
        self.head.is_some()
    }

    /// True while any partial request sits in the buffer.
    pub fn mid_request(&self) -> bool {
        self.head.is_some() || !self.buf.is_empty()
    }

    /// Returns true exactly once per request when the client sent
    /// `Expect: 100-continue`, its header section is parsed, and the
    /// body has not fully arrived — the moment to write the interim
    /// `100 Continue` response.
    pub fn wants_continue(&mut self) -> bool {
        match &self.head {
            Some(head)
                if head.expect_continue
                    && !self.continue_signaled
                    && self.buf.len() - head.head_len < head.content_length =>
            {
                self.continue_signaled = true;
                true
            }
            _ => false,
        }
    }

    /// Try to complete a request from the buffered bytes. `Ok(None)`
    /// means more input is needed.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        if self.head.is_none() {
            match self.find_head_end() {
                Some(head_end) => {
                    let head = parse_head(&self.buf[..head_end], &self.limits)?;
                    self.head = Some(head);
                }
                None => {
                    if self.buf.len() > self.limits.max_head_bytes {
                        return Err(HttpError::Malformed("header section too large".into()));
                    }
                    return Ok(None);
                }
            }
        }
        let head = self.head.as_ref().expect("head parsed above");
        let available = self.buf.len() - head.head_len;
        if available < head.content_length {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let body = self.buf[head.head_len..head.head_len + head.content_length].to_vec();
        // Keep pipelined bytes; they are the start of the next request.
        self.buf.drain(..head.head_len + head.content_length);
        self.scanned = 0;
        self.continue_signaled = false;
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
            close: head.close,
        }))
    }

    /// Incremental `\r\n\r\n` search; returns the index where the
    /// terminator starts (head length excluding the blank line is the
    /// same value; total head length is this plus four).
    fn find_head_end(&mut self) -> Option<usize> {
        let start = self.scanned.saturating_sub(3);
        let found = self.buf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|pos| start + pos);
        if found.is_none() {
            self.scanned = self.buf.len();
        }
        found
    }
}

fn parse_head(raw: &[u8], limits: &HttpLimits) -> Result<HeadInfo, HttpError> {
    let head = String::from_utf8_lossy(raw).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let http10 = version == "HTTP/1.0";
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: Vec<(String, String)> = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    let mut content_length: Option<usize> = None;
    let mut expect_continue = false;
    let mut connection_close = http10;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
                // Conflicting duplicate Content-Length headers are a
                // request-smuggling vector (RFC 7230 §3.3.2): two
                // intermediaries that disagree on which value wins
                // disagree on where the next request starts. The
                // pre-refactor reader silently let the last one win.
                // Identical repeats are tolerated per the RFC.
                match content_length {
                    Some(previous) if previous != parsed => {
                        return Err(HttpError::Malformed(
                            "conflicting Content-Length headers".into(),
                        ));
                    }
                    _ => content_length = Some(parsed),
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && !value.trim().eq_ignore_ascii_case("identity")
            {
                // Bodies are framed by Content-Length only; silently
                // reading a chunked body as empty would mis-serve a
                // well-formed request (RFC 7230 §3.3.1: respond 501).
                return Err(HttpError::Unsupported(format!(
                    "Transfer-Encoding {:?} not supported; use Content-Length",
                    value.trim()
                )));
            } else if name.eq_ignore_ascii_case("expect")
                && value.trim().eq_ignore_ascii_case("100-continue")
            {
                expect_continue = true;
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        connection_close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        connection_close = false;
                    }
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge);
    }
    Ok(HeadInfo {
        method,
        path: path.to_string(),
        query,
        content_length,
        expect_continue,
        close: connection_close,
        head_len: raw.len() + 4,
    })
}

/// One parsed response (for the load generator and tests).
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Body arrived with `Transfer-Encoding: chunked` (already
    /// decoded into `body`).
    pub chunked: bool,
    /// Server signaled `Connection: close`.
    pub close: bool,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

enum RespState {
    Head,
    FixedBody { meta: RespMeta, remaining: usize },
    ChunkSize { meta: RespMeta },
    ChunkData { meta: RespMeta, remaining: usize },
    ChunkDataCrlf { meta: RespMeta },
    Trailer { meta: RespMeta },
}

struct RespMeta {
    status: u16,
    headers: Vec<(String, String)>,
    chunked: bool,
    close: bool,
    body: Vec<u8>,
}

pub struct ResponseParser {
    buf: Vec<u8>,
    scanned: usize,
    state: Option<RespState>,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseParser {
    pub fn new() -> ResponseParser {
        ResponseParser {
            buf: Vec::new(),
            scanned: 0,
            state: Some(RespState::Head),
        }
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Complete the next response if the buffer holds one. Interim
    /// `100 Continue` responses are returned like any other (with an
    /// empty body); callers expecting a final response poll again.
    pub fn poll(&mut self) -> Result<Option<Response>, HttpError> {
        loop {
            match self.state.take().expect("state always present") {
                RespState::Head => {
                    let start = self.scanned.saturating_sub(3);
                    let head_end = self.buf[start..]
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map(|pos| start + pos);
                    let Some(head_end) = head_end else {
                        self.scanned = self.buf.len();
                        self.state = Some(RespState::Head);
                        return Ok(None);
                    };
                    let meta = parse_response_head(&self.buf[..head_end])?;
                    self.buf.drain(..head_end + 4);
                    self.scanned = 0;
                    // 1xx/204/304 carry no body regardless of headers.
                    if meta.status / 100 == 1 || meta.status == 204 || meta.status == 304 {
                        self.state = Some(RespState::Head);
                        return Ok(Some(finish(meta)));
                    }
                    if meta.chunked {
                        self.state = Some(RespState::ChunkSize { meta });
                    } else {
                        let remaining = meta
                            .headers
                            .iter()
                            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
                            .map(|(_, v)| {
                                v.trim()
                                    .parse::<usize>()
                                    .map_err(|_| HttpError::Malformed("bad Content-Length".into()))
                            })
                            .transpose()?
                            .ok_or_else(|| {
                                HttpError::Malformed("response without body framing".into())
                            })?;
                        self.state = Some(RespState::FixedBody { meta, remaining });
                    }
                }
                RespState::FixedBody {
                    mut meta,
                    remaining,
                } => {
                    let take = remaining.min(self.buf.len());
                    meta.body.extend_from_slice(&self.buf[..take]);
                    self.buf.drain(..take);
                    let remaining = remaining - take;
                    if remaining == 0 {
                        self.state = Some(RespState::Head);
                        return Ok(Some(finish(meta)));
                    }
                    self.state = Some(RespState::FixedBody { meta, remaining });
                    return Ok(None);
                }
                RespState::ChunkSize { meta } => {
                    let Some(line_end) = find_crlf(&self.buf) else {
                        self.state = Some(RespState::ChunkSize { meta });
                        return Ok(None);
                    };
                    let line = String::from_utf8_lossy(&self.buf[..line_end]).into_owned();
                    self.buf.drain(..line_end + 2);
                    let size_str = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_str, 16).map_err(|_| {
                        HttpError::Malformed(format!("bad chunk size {size_str:?}"))
                    })?;
                    if size == 0 {
                        self.state = Some(RespState::Trailer { meta });
                    } else {
                        self.state = Some(RespState::ChunkData {
                            meta,
                            remaining: size,
                        });
                    }
                }
                RespState::ChunkData {
                    mut meta,
                    remaining,
                } => {
                    let take = remaining.min(self.buf.len());
                    meta.body.extend_from_slice(&self.buf[..take]);
                    self.buf.drain(..take);
                    let remaining = remaining - take;
                    if remaining == 0 {
                        self.state = Some(RespState::ChunkDataCrlf { meta });
                    } else {
                        self.state = Some(RespState::ChunkData { meta, remaining });
                        return Ok(None);
                    }
                }
                RespState::ChunkDataCrlf { meta } => {
                    if self.buf.len() < 2 {
                        self.state = Some(RespState::ChunkDataCrlf { meta });
                        return Ok(None);
                    }
                    if &self.buf[..2] != b"\r\n" {
                        return Err(HttpError::Malformed("chunk missing CRLF".into()));
                    }
                    self.buf.drain(..2);
                    self.state = Some(RespState::ChunkSize { meta });
                }
                RespState::Trailer { meta } => {
                    // Trailer section: zero or more header lines, then
                    // a blank line.
                    let Some(line_end) = find_crlf(&self.buf) else {
                        self.state = Some(RespState::Trailer { meta });
                        return Ok(None);
                    };
                    self.buf.drain(..line_end + 2);
                    if line_end == 0 {
                        self.state = Some(RespState::Head);
                        return Ok(Some(finish(meta)));
                    }
                    self.state = Some(RespState::Trailer { meta });
                }
            }
        }
    }
}

fn finish(meta: RespMeta) -> Response {
    Response {
        status: meta.status,
        headers: meta.headers,
        body: meta.body,
        chunked: meta.chunked,
        close: meta.close,
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn parse_response_head(raw: &[u8]) -> Result<RespMeta, HttpError> {
    let head = String::from_utf8_lossy(raw).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let version = parts
        .next()
        .filter(|v| v.starts_with("HTTP/1."))
        .ok_or_else(|| HttpError::Malformed("bad status line".into()))?;
    let _ = version;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed("bad status code".into()))?;
    let mut headers = Vec::new();
    let mut chunked = false;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_string();
            let value = value.trim().to_string();
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
            if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                close = true;
            }
            headers.push((name, value));
        }
    }
    Ok(RespMeta {
        status,
        headers,
        chunked,
        close,
        body: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shot(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.feed(bytes);
        parser.poll()
    }

    #[test]
    fn simple_get() {
        let req = one_shot(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn query_pairs_and_body() {
        let req =
            one_shot(b"POST /simulate?events=5&seed=7 HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyz")
                .unwrap()
                .unwrap();
        assert_eq!(
            req.query,
            vec![
                ("events".to_string(), "5".to_string()),
                ("seed".to_string(), "7".to_string())
            ]
        );
        assert_eq!(req.body, b"wxyz");
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let raw = b"POST /analyze HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabcGET /next HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new(HttpLimits::default());
        let mut got = Vec::new();
        for byte in raw.iter() {
            parser.feed(std::slice::from_ref(byte));
            while let Some(req) = parser.poll().unwrap() {
                got.push(req);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].path, "/analyze");
        assert_eq!(got[0].body, b"abc");
        assert!(got[0].close);
        assert_eq!(got[1].path, "/next");
        assert!(!got[1].close);
    }

    #[test]
    fn error_messages_match_the_historical_reader() {
        assert_eq!(
            one_shot(b" / HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::Malformed("empty request line".into())
        );
        assert_eq!(
            one_shot(b"GET\r\n\r\n").unwrap_err(),
            HttpError::Malformed("missing request target".into())
        );
        assert_eq!(
            one_shot(b"GET /\r\n\r\n").unwrap_err(),
            HttpError::Malformed("missing HTTP version".into())
        );
        assert_eq!(
            one_shot(b"GET / HTTP/2\r\n\r\n").unwrap_err(),
            HttpError::Malformed("unsupported HTTP/2".into())
        );
        assert_eq!(
            one_shot(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err(),
            HttpError::Malformed("bad Content-Length".into())
        );
        assert_eq!(
            one_shot(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            HttpError::Unsupported(
                "Transfer-Encoding \"chunked\" not supported; use Content-Length".into()
            )
        );
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            (1 << 20) + 1
        );
        assert_eq!(one_shot(huge.as_bytes()).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn conflicting_content_length_rejected_identical_tolerated() {
        assert_eq!(
            one_shot(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n")
                .unwrap_err(),
            HttpError::Malformed("conflicting Content-Length headers".into())
        );
        let req = one_shot(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn oversized_head_rejected_while_incomplete() {
        let mut parser = RequestParser::new(HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        });
        parser.feed(&[b'A'; 100]);
        assert_eq!(
            parser.poll().unwrap_err(),
            HttpError::Malformed("header section too large".into())
        );
    }

    #[test]
    fn wants_continue_fires_once_before_body() {
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.feed(b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n");
        assert!(parser.poll().unwrap().is_none());
        assert!(parser.wants_continue());
        assert!(!parser.wants_continue(), "signal must fire exactly once");
        parser.feed(b"ok");
        let req = parser.poll().unwrap().unwrap();
        assert_eq!(req.body, b"ok");
        assert!(!parser.wants_continue());
    }

    #[test]
    fn http10_closes_by_default() {
        let req = one_shot(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.close);
        let req = one_shot(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.close);
        let req = one_shot(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
    }

    #[test]
    fn response_fixed_body_roundtrip() {
        let mut parser = ResponseParser::new();
        parser.feed(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}");
        let resp = parser.poll().unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{}");
        assert!(resp.close);
        assert!(!resp.chunked);
        assert_eq!(resp.header("content-type"), Some("application/json"));
    }

    #[test]
    fn response_chunked_reassembles_across_splits() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        for split in 0..raw.len() {
            let mut parser = ResponseParser::new();
            parser.feed(&raw[..split]);
            let early = parser.poll().unwrap();
            parser.feed(&raw[split..]);
            let resp = match early {
                Some(r) => r,
                None => parser.poll().unwrap().expect("complete after full feed"),
            };
            assert_eq!(resp.body, b"Wikipedia", "split at {split}");
            assert!(resp.chunked);
        }
    }

    #[test]
    fn interim_100_then_final_response() {
        let mut parser = ResponseParser::new();
        parser.feed(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
        let interim = parser.poll().unwrap().unwrap();
        assert_eq!(interim.status, 100);
        assert!(interim.body.is_empty());
        let final_resp = parser.poll().unwrap().unwrap();
        assert_eq!(final_resp.status, 200);
        assert_eq!(final_resp.body, b"hi");
    }
}
