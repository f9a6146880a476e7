//! HTTP/1.1: message types, serialization, and an incremental stream
//! parser (Content-Length and chunked bodies, keep-alive semantics).

use std::collections::VecDeque;
use std::io::Write;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method (GET, POST, CONNECT, …).
    pub method: String,
    /// Request target (path, or authority for CONNECT).
    pub target: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Builds a GET request for `path` on `host`.
    pub fn get(host: &str, path: &str) -> Self {
        HttpRequest {
            method: "GET".into(),
            target: path.into(),
            headers: vec![("Host".into(), host.into())],
            body: Vec::new(),
        }
    }

    /// Builds a CONNECT request for `authority` (e.g. `host:443`).
    pub fn connect(authority: &str) -> Self {
        HttpRequest {
            method: "CONNECT".into(),
            target: authority.into(),
            headers: vec![("Host".into(), authority.into())],
            body: Vec::new(),
        }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The value of `name`, case-insensitively.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The Host header, if present.
    pub fn host(&self) -> Option<&str> {
        self.header_value("Host")
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let start = self.method.len() + self.target.len() + 12;
        let mut out = Vec::with_capacity(head_capacity(start, &self.headers) + self.body.len());
        put(&mut out, &[self.method.as_bytes(), b" ", self.target.as_bytes(), b" HTTP/1.1\r\n"]);
        put_headers(&mut out, &self.headers);
        if !self.body.is_empty() && self.header_value("Content-Length").is_none() {
            write!(out, "Content-Length: {}\r\n", self.body.len()).expect(VEC_WRITE);
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Why writing a head cannot fail.
const VEC_WRITE: &str = "writing to a Vec is infallible";

/// Bytes a head of `start` start-line bytes and `headers` needs, with room
/// for the `Content-Length` line and chunk framing `encode` may add — so
/// head and body are written into one allocation that never grows.
fn head_capacity(start: usize, headers: &[(String, String)]) -> usize {
    start + headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum::<usize>() + 64
}

fn put(out: &mut Vec<u8>, parts: &[&[u8]]) {
    for part in parts {
        out.extend_from_slice(part);
    }
}

fn put_headers(out: &mut Vec<u8>, headers: &[(String, String)]) {
    for (n, v) in headers {
        put(out, &[n.as_bytes(), b": ", v.as_bytes(), b"\r\n"]);
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Builds a response with a body.
    pub fn new(status: u16, body: Vec<u8>) -> Self {
        let reason = match status {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            407 => "Proxy Authentication Required",
            429 => "Too Many Requests",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        HttpResponse { status, reason: reason.into(), headers: Vec::new(), body }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The value of `name`, case-insensitively.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The `max-age` freshness lifetime (seconds) from the
    /// `Cache-Control` header, if one is advertised.
    pub fn max_age_secs(&self) -> Option<u64> {
        let cc = self.header_value("Cache-Control")?;
        for directive in cc.split(',') {
            if let Some(v) = directive.trim().strip_prefix("max-age=") {
                return v.trim().parse().ok();
            }
        }
        None
    }

    /// Serializes to wire bytes (adds Content-Length automatically).
    pub fn encode(&self) -> Vec<u8> {
        let start = self.reason.len() + 16;
        let mut out = Vec::with_capacity(head_capacity(start, &self.headers) + self.body.len());
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason).expect(VEC_WRITE);
        put_headers(&mut out, &self.headers);
        let is_chunked = self
            .header_value("Transfer-Encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        if !is_chunked && self.header_value("Content-Length").is_none() {
            write!(out, "Content-Length: {}\r\n", self.body.len()).expect(VEC_WRITE);
        }
        out.extend_from_slice(b"\r\n");
        if is_chunked {
            // Emit as a single chunk plus terminator.
            write!(out, "{:x}\r\n", self.body.len()).expect(VEC_WRITE);
            out.extend_from_slice(&self.body);
            out.extend_from_slice(b"\r\n0\r\n\r\n");
        } else {
            out.extend_from_slice(&self.body);
        }
        out
    }
}

/// A parsed message: request or response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpMessage {
    /// A request.
    Request(HttpRequest),
    /// A response.
    Response(HttpResponse),
}

/// Error from the incremental parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The start line was not recognizable HTTP.
    BadStartLine(String),
    /// A header line was malformed.
    BadHeader(String),
    /// Chunked framing was malformed.
    BadChunk,
    /// Content-Length was not a number.
    BadContentLength,
}

impl core::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HttpParseError::BadStartLine(l) => write!(f, "bad HTTP start line: {l:?}"),
            HttpParseError::BadHeader(l) => write!(f, "bad HTTP header: {l:?}"),
            HttpParseError::BadChunk => write!(f, "bad chunked encoding"),
            HttpParseError::BadContentLength => write!(f, "bad content-length"),
        }
    }
}

impl std::error::Error for HttpParseError {}

#[derive(Debug)]
enum ParseState {
    Head,
    Body { msg: HttpMessage, remaining: usize },
    Chunked { msg: HttpMessage },
}

/// Incremental HTTP/1.1 parser. Feed arbitrary stream fragments with
/// [`HttpParser::push`]; complete messages come out in order.
///
/// # Examples
///
/// ```
/// use sc_netproto::http::{HttpParser, HttpMessage, HttpRequest};
///
/// let mut p = HttpParser::new();
/// let wire = HttpRequest::get("scholar.google.com", "/").encode();
/// let msgs = p.push(&wire).unwrap();
/// assert!(matches!(&msgs[0], HttpMessage::Request(r) if r.method == "GET"));
/// ```
#[derive(Debug)]
pub struct HttpParser {
    buf: Vec<u8>,
    state: ParseState,
    ready: VecDeque<HttpMessage>,
}

impl Default for HttpParser {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        HttpParser { buf: Vec::new(), state: ParseState::Head, ready: VecDeque::new() }
    }

    /// Feeds bytes; returns all messages completed by this push.
    ///
    /// # Errors
    ///
    /// Returns a parse error on malformed framing; the parser should be
    /// discarded afterwards.
    pub fn push(&mut self, data: &[u8]) -> Result<Vec<HttpMessage>, HttpParseError> {
        self.buf.extend_from_slice(data);
        loop {
            match &mut self.state {
                ParseState::Head => {
                    let Some(head_end) = find_double_crlf(&self.buf) else { break };
                    let head = self.buf[..head_end].to_vec();
                    self.buf.drain(..head_end + 4);
                    let (msg, body_kind) = parse_head(&head)?;
                    match body_kind {
                        BodyKind::None => self.ready.push_back(msg),
                        BodyKind::Length(0) => self.ready.push_back(msg),
                        BodyKind::Length(n) => {
                            self.state = ParseState::Body { msg, remaining: n };
                        }
                        BodyKind::Chunked => {
                            self.state = ParseState::Chunked { msg };
                        }
                    }
                }
                ParseState::Body { msg, remaining } => {
                    if self.buf.len() < *remaining {
                        break;
                    }
                    let body: Vec<u8> = self.buf.drain(..*remaining).collect();
                    let mut msg = std::mem::replace(msg, HttpMessage::Request(HttpRequest::get("", "/")));
                    match &mut msg {
                        HttpMessage::Request(r) => r.body = body,
                        HttpMessage::Response(r) => r.body = body,
                    }
                    self.ready.push_back(msg);
                    self.state = ParseState::Head;
                }
                ParseState::Chunked { msg } => {
                    // Try to consume all chunks currently buffered.
                    match try_parse_chunked(&self.buf)? {
                        None => break,
                        Some((body, consumed)) => {
                            self.buf.drain(..consumed);
                            let mut msg =
                                std::mem::replace(msg, HttpMessage::Request(HttpRequest::get("", "/")));
                            match &mut msg {
                                HttpMessage::Request(r) => r.body = body,
                                HttpMessage::Response(r) => r.body = body,
                            }
                            self.ready.push_back(msg);
                            self.state = ParseState::Head;
                        }
                    }
                }
            }
        }
        Ok(self.ready.drain(..).collect())
    }
}

enum BodyKind {
    None,
    Length(usize),
    Chunked,
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8]) -> Result<(HttpMessage, BodyKind), HttpParseError> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("");
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((n, v)) = line.split_once(':') else {
            return Err(HttpParseError::BadHeader(line.to_string()));
        };
        headers.push((n.trim().to_string(), v.trim().to_string()));
    }
    let get_header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    };
    let chunked = get_header("Transfer-Encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let content_length = match get_header("Content-Length") {
        Some(v) => Some(v.parse::<usize>().map_err(|_| HttpParseError::BadContentLength)?),
        None => None,
    };
    let body_kind = if chunked {
        BodyKind::Chunked
    } else {
        match content_length {
            Some(n) => BodyKind::Length(n),
            None => BodyKind::None,
        }
    };

    if let Some(rest) = start.strip_prefix("HTTP/1.1 ").or_else(|| start.strip_prefix("HTTP/1.0 ")) {
        let mut parts = rest.splitn(2, ' ');
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpParseError::BadStartLine(start.to_string()))?;
        let reason = parts.next().unwrap_or("").to_string();
        Ok((
            HttpMessage::Response(HttpResponse { status, reason, headers, body: Vec::new() }),
            body_kind,
        ))
    } else {
        let mut parts = start.split(' ');
        let method = parts.next().unwrap_or("").to_string();
        let target = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("");
        if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/") {
            return Err(HttpParseError::BadStartLine(start.to_string()));
        }
        Ok((
            HttpMessage::Request(HttpRequest { method, target, headers, body: Vec::new() }),
            body_kind,
        ))
    }
}

/// Attempts to parse a complete chunked body from the front of `buf`.
/// Returns `(body, bytes_consumed)` or `None` if more data is needed.
fn try_parse_chunked(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, HttpParseError> {
    let mut body = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            return Ok(None);
        };
        let size_str = std::str::from_utf8(&rest[..line_end]).map_err(|_| HttpParseError::BadChunk)?;
        let size = usize::from_str_radix(size_str.trim(), 16).map_err(|_| HttpParseError::BadChunk)?;
        let chunk_start = pos + line_end + 2;
        if size == 0 {
            // Expect trailing CRLF.
            if buf.len() < chunk_start + 2 {
                return Ok(None);
            }
            if &buf[chunk_start..chunk_start + 2] != b"\r\n" {
                return Err(HttpParseError::BadChunk);
            }
            return Ok(Some((body, chunk_start + 2)));
        }
        if buf.len() < chunk_start + size + 2 {
            return Ok(None);
        }
        body.extend_from_slice(&buf[chunk_start..chunk_start + size]);
        if &buf[chunk_start + size..chunk_start + size + 2] != b"\r\n" {
            return Err(HttpParseError::BadChunk);
        }
        pos = chunk_start + size + 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The head as `format!` renders it line by line — what `encode` wrote
    /// before it wrote into the buffer directly.
    fn formatted(start: String, headers: &[(String, String)], extra: Option<String>) -> Vec<u8> {
        let mut head = start;
        for (n, v) in headers {
            head += &format!("{n}: {v}\r\n");
        }
        head += &extra.unwrap_or_default();
        (head + "\r\n").into_bytes()
    }

    #[test]
    fn encode_writes_what_format_rendered_into_one_allocation() {
        // A request with a body: Content-Length is added.
        let mut req = HttpRequest::get("scholar.google.com", "/scholar?q=gfw&hl=en")
            .header("User-Agent", "Chrome/56.0")
            .header("Sc-Trace", "00000000000007e1-000000000000002a");
        req.method = "POST".into();
        req.body = vec![b'q'; 300];
        let mut want = formatted(
            format!("{} {} HTTP/1.1\r\n", req.method, req.target),
            &req.headers,
            Some(format!("Content-Length: {}\r\n", req.body.len())),
        );
        want.extend_from_slice(&req.body);
        let wire = req.encode();
        assert_eq!(wire, want);
        assert!(wire.capacity() >= wire.len() && wire.capacity() <= wire.len() + 96, "sized once");

        // A chunked response: no Content-Length, one chunk and the terminator.
        let resp = HttpResponse::new(200, vec![b'x'; 0x1234])
            .header("Content-Type", "application/octet-stream")
            .header("Transfer-Encoding", "chunked");
        let mut want = formatted(format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason), &resp.headers, None);
        want.extend_from_slice(format!("{:x}\r\n", resp.body.len()).as_bytes());
        want.extend_from_slice(&resp.body);
        want.extend_from_slice(b"\r\n0\r\n\r\n");
        let wire = resp.encode();
        assert_eq!(wire, want);
        assert!(wire.capacity() <= wire.len() + 96, "sized once");

        // A bodiless one: Content-Length: 0 all the same.
        let resp = HttpResponse::new(304, Vec::new()).header("ETag", "\"v1\"");
        let want = formatted(
            format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason),
            &resp.headers,
            Some("Content-Length: 0\r\n".into()),
        );
        assert_eq!(resp.encode(), want);
        // And a bodiless request adds none.
        let req = HttpRequest::connect("scholar.google.com:443");
        assert_eq!(req.encode(), formatted("CONNECT scholar.google.com:443 HTTP/1.1\r\n".into(), &req.headers, None));
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::get("scholar.google.com", "/scholar?q=gfw")
            .header("User-Agent", "Chrome/56.0");
        let mut p = HttpParser::new();
        let msgs = p.push(&req.encode()).unwrap();
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            HttpMessage::Request(r) => {
                assert_eq!(r.method, "GET");
                assert_eq!(r.target, "/scholar?q=gfw");
                assert_eq!(r.host(), Some("scholar.google.com"));
                assert_eq!(r.header_value("user-agent"), Some("Chrome/56.0"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_with_body_roundtrip() {
        let resp = HttpResponse::new(200, b"<html>scholar</html>".to_vec())
            .header("Content-Type", "text/html");
        let mut p = HttpParser::new();
        let msgs = p.push(&resp.encode()).unwrap();
        match &msgs[0] {
            HttpMessage::Response(r) => {
                assert_eq!(r.status, 200);
                assert_eq!(r.body, b"<html>scholar</html>");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parser_handles_fragmented_input() {
        let req = HttpRequest {
            method: "POST".into(),
            target: "/submit".into(),
            headers: vec![("Host".into(), "x".into())],
            body: vec![7u8; 1000],
        };
        let wire = req.encode();
        let mut p = HttpParser::new();
        let mut all = Vec::new();
        for chunk in wire.chunks(13) {
            all.extend(p.push(chunk).unwrap());
        }
        assert_eq!(all.len(), 1);
        match &all[0] {
            HttpMessage::Request(r) => assert_eq!(r.body.len(), 1000),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parser_handles_pipelined_messages() {
        let a = HttpRequest::get("h", "/1").encode();
        let b = HttpRequest::get("h", "/2").encode();
        let mut wire = a;
        wire.extend(b);
        let mut p = HttpParser::new();
        let msgs = p.push(&wire).unwrap();
        assert_eq!(msgs.len(), 2);
    }

    #[test]
    fn chunked_response_roundtrip() {
        let resp = HttpResponse::new(200, b"chunked payload".to_vec())
            .header("Transfer-Encoding", "chunked");
        let wire = resp.encode();
        let mut p = HttpParser::new();
        // Fragment through chunk boundaries.
        let mut msgs = Vec::new();
        for c in wire.chunks(7) {
            msgs.extend(p.push(c).unwrap());
        }
        match &msgs[0] {
            HttpMessage::Response(r) => assert_eq!(r.body, b"chunked payload"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_start_line_is_error() {
        let mut p = HttpParser::new();
        assert!(p.push(b"NONSENSE\r\n\r\n").is_err());
    }

    #[test]
    fn bad_content_length_is_error() {
        let mut p = HttpParser::new();
        assert!(p
            .push(b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
            .is_err());
    }

    #[test]
    fn connect_request_shape() {
        let req = HttpRequest::connect("scholar.google.com:443");
        assert_eq!(req.method, "CONNECT");
        assert_eq!(req.target, "scholar.google.com:443");
    }

    #[test]
    fn not_modified_roundtrip_and_max_age() {
        let resp = HttpResponse::new(304, Vec::new())
            .header("ETag", "\"abc123\"")
            .header("Cache-Control", "public, max-age=30");
        let wire = resp.encode();
        assert!(wire.starts_with(b"HTTP/1.1 304 Not Modified\r\n"));
        let mut p = HttpParser::new();
        let msgs = p.push(&wire).unwrap();
        match &msgs[0] {
            HttpMessage::Response(r) => {
                assert_eq!(r.status, 304);
                assert!(r.body.is_empty());
                assert_eq!(r.max_age_secs(), Some(30));
                assert_eq!(r.header_value("etag"), Some("\"abc123\""));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(HttpResponse::new(200, Vec::new()).max_age_secs(), None);
    }

    #[test]
    fn zero_length_body_completes_immediately() {
        let mut p = HttpParser::new();
        let msgs = p.push(b"GET / HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(msgs.len(), 1);
    }
}
