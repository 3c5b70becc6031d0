//! A from-scratch HTTP/1.1 request/response layer.
//!
//! Deliberately minimal — exactly what a schema-discovery service needs
//! and nothing more: request-line + header parsing with hard size
//! limits, `Content-Length` bodies (chunked transfer encoding is
//! rejected with 501), keep-alive, and structured JSON error bodies.
//!
//! The parser is the *incremental* [`HeadParser`]: it accepts bytes in
//! arbitrary chunks (down to one byte at a time) and suspends cleanly
//! between them, which is what the epoll reactor needs to resume a
//! parse across `EAGAIN` (`tests/reactor_proto.rs` proves chunk
//! invariance over arbitrary partitions). Bodies, the 413 policy and
//! draining belong to the reactor's connection state machines.

/// Maximum accepted request-line length (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted total header bytes per request.
pub const MAX_HEADER_BYTES: usize = 32 * 1024;
/// How many declared-but-oversized body bytes the reactor drains after
/// answering 413 before giving up and closing the connection instead.
/// Draining keeps the connection aligned on the next request boundary
/// so keep-alive survives a bounded oversize; past this cap closing is
/// cheaper than reading.
pub const DRAIN_CAP: usize = 256 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component (no query string).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything before the body, parsed. Produced incrementally by
/// [`HeadParser`]; the body-size policy (413) is deliberately *not*
/// applied here — the declared length must survive so the reactor can
/// decide whether draining the oversized body is worth keeping the
/// connection.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Upper-cased method.
    pub method: String,
    /// Decoded path component.
    pub path: String,
    /// Decoded query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl RequestHead {
    /// Attach the body and produce the full [`Request`].
    pub fn into_request(self, body: Vec<u8>) -> Request {
        Request {
            method: self.method,
            path: self.path,
            query: self.query,
            headers: self.headers,
            body,
            keep_alive: self.keep_alive,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Clean connection close before any byte of a new request — the
    /// normal end of a keep-alive exchange, not an error.
    Eof,
    /// Malformed request (bad request line, bad header, bad
    /// `Content-Length`, truncated body).
    BadRequest(String),
    /// Request line exceeded [`MAX_REQUEST_LINE`].
    UriTooLong,
    /// Headers exceeded [`MAX_HEADER_BYTES`].
    HeaderTooLarge,
    /// Declared body exceeds the configured limit. Carries the declared
    /// length so the reactor can drain a bounded body and keep the
    /// connection, or close when draining would cost more than a
    /// re-dial.
    PayloadTooLarge {
        /// The configured `max_body` limit.
        limit: usize,
        /// What the `Content-Length` header declared.
        declared: usize,
    },
    /// A feature this server does not speak (chunked encoding).
    NotImplemented(String),
}

impl HttpError {
    /// The error response to send, if one makes sense (clean EOF gets
    /// none — there is nobody left to talk to).
    pub fn to_response(&self) -> Option<Response> {
        match self {
            HttpError::Eof => None,
            HttpError::BadRequest(m) => Some(Response::error(400, "bad_request", m)),
            HttpError::UriTooLong => Some(Response::error(
                414,
                "uri_too_long",
                &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            )),
            HttpError::HeaderTooLarge => Some(Response::error(
                431,
                "header_too_large",
                &format!("headers exceed {MAX_HEADER_BYTES} bytes"),
            )),
            HttpError::PayloadTooLarge { limit, .. } => Some(Response::error(
                413,
                "payload_too_large",
                &format!("request body exceeds the {limit}-byte limit"),
            )),
            HttpError::NotImplemented(m) => Some(Response::error(501, "not_implemented", m)),
        }
    }
}

enum Stage {
    RequestLine,
    Headers {
        method: String,
        target: String,
        http11: bool,
        headers: Vec<(String, String)>,
        header_bytes: usize,
    },
    Done,
}

/// An incremental request-head parser: feed it byte slices as they
/// arrive, get a [`RequestHead`] back once the blank line lands.
///
/// The parser is *chunk-invariant*: any partition of the same byte
/// stream — including one byte at a time — produces the same head or
/// the same error, because every decision is made on completed lines
/// and the size limits are checked against accumulated totals, never
/// against chunk shapes.
pub struct HeadParser {
    stage: Stage,
    line: Vec<u8>,
}

impl Default for HeadParser {
    fn default() -> HeadParser {
        HeadParser::new()
    }
}

impl HeadParser {
    /// A parser positioned at the start of a request.
    pub fn new() -> HeadParser {
        HeadParser {
            stage: Stage::RequestLine,
            line: Vec::new(),
        }
    }

    /// Whether any byte of the current request has been consumed.
    pub fn started(&self) -> bool {
        !self.line.is_empty() || !matches!(self.stage, Stage::RequestLine)
    }

    /// The error the reactor surfaces when the peer closes the
    /// stream at the current parse position: clean EOF before the first
    /// byte is the normal end of keep-alive; anything later is a
    /// truncated request.
    pub fn eof_error(&self) -> HttpError {
        if self.started() {
            HttpError::BadRequest("unexpected end of stream".into())
        } else {
            HttpError::Eof
        }
    }

    /// Consume bytes from `input`. Returns how many bytes were used and
    /// the parsed head once complete; unconsumed bytes (the body, or a
    /// pipelined next request) stay with the caller. After an error the
    /// parser must be discarded.
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Option<RequestHead>), HttpError> {
        let mut consumed = 0;
        while consumed < input.len() {
            if matches!(self.stage, Stage::Done) {
                break;
            }
            let rest = &input[consumed..];
            let newline = rest.iter().position(|b| *b == b'\n');
            let take = newline.map(|i| i + 1).unwrap_or(rest.len());
            let (limit, over): (usize, fn() -> HttpError) = match &self.stage {
                Stage::RequestLine => (MAX_REQUEST_LINE, || HttpError::UriTooLong),
                Stage::Headers { header_bytes, .. } => {
                    (MAX_HEADER_BYTES.saturating_sub(*header_bytes), || {
                        HttpError::HeaderTooLarge
                    })
                }
                Stage::Done => unreachable!("loop exits on Done"),
            };
            // `+ 2` slack for the line terminator.
            if self.line.len() + take > limit + 2 {
                return Err(over());
            }
            self.line.extend_from_slice(&rest[..take]);
            consumed += take;
            if newline.is_none() {
                break;
            }
            while matches!(self.line.last(), Some(b'\n') | Some(b'\r')) {
                self.line.pop();
            }
            let text = String::from_utf8(std::mem::take(&mut self.line))
                .map_err(|_| HttpError::BadRequest("non-UTF-8 request data".into()))?;
            if let Some(head) = self.take_line(text)? {
                return Ok((consumed, Some(head)));
            }
        }
        Ok((consumed, None))
    }

    fn take_line(&mut self, line: String) -> Result<Option<RequestHead>, HttpError> {
        if matches!(self.stage, Stage::RequestLine) {
            let mut parts = line.split(' ');
            let (method, target, version) =
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
                        (m, t, v)
                    }
                    _ => {
                        return Err(HttpError::BadRequest(format!(
                            "malformed request line {line:?}"
                        )))
                    }
                };
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::BadRequest(format!(
                    "unsupported protocol version {version:?}"
                )));
            }
            self.stage = Stage::Headers {
                method: method.to_ascii_uppercase(),
                target: target.to_owned(),
                http11: version == "HTTP/1.1",
                headers: Vec::new(),
                header_bytes: 0,
            };
            return Ok(None);
        }
        if line.is_empty() {
            let stage = std::mem::replace(&mut self.stage, Stage::Done);
            let Stage::Headers {
                method,
                target,
                http11,
                headers,
                ..
            } = stage
            else {
                unreachable!("request-line stage handled above");
            };
            return Ok(Some(finish_head(method, target, http11, headers)?));
        }
        let Stage::Headers {
            headers,
            header_bytes,
            ..
        } = &mut self.stage
        else {
            return Ok(None);
        };
        *header_bytes += line.len() + 2;
        if *header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::HeaderTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {line:?}")))?;
        if !is_token(name) {
            return Err(HttpError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        Ok(None)
    }
}

/// An RFC 9110 token: what a header name must be. Whitespace or a
/// control byte in a name would let another parser on the path read the
/// header under a different name.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Validate the collected head lines and assemble the [`RequestHead`].
/// The body's framing is read from every framing header, not the first:
/// a `Transfer-Encoding` or a differing `Content-Length` behind an
/// accepted one is refused, since a proxy that reads the other one would
/// cut the stream at another request boundary.
fn finish_head(
    method: String,
    target: String,
    http11: bool,
    headers: Vec<(String, String)>,
) -> Result<RequestHead, HttpError> {
    let all = |n: &'static str| {
        (headers.iter())
            .filter(move |(name, _)| name == n)
            .map(|(_, v)| v.as_str())
    };
    if let Some(te) = all("transfer-encoding").find(|te| !te.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::NotImplemented(format!(
            "transfer-encoding {te:?} is not supported; send a Content-Length body"
        )));
    }
    let mut content_length = None;
    for v in all("content-length") {
        let n = Some(v)
            .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| HttpError::BadRequest(format!("invalid Content-Length {v:?}")))?;
        if content_length.is_some_and(|first| first != n) {
            return Err(HttpError::BadRequest(
                "conflicting Content-Length headers".into(),
            ));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    let keep_alive = match all("connection").next().map(str::to_ascii_lowercase) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => http11,
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    let query = raw_query
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();

    Ok(RequestHead {
        method,
        path: percent_decode(raw_path),
        query,
        headers,
        content_length,
        keep_alive,
    })
}

/// Minimal percent-decoding (`%XX` and `+` as space) for paths and
/// query components. Invalid escapes pass through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                // Two hex digits: `from_str_radix` alone would take `+1`.
                let hex = |b: u8| (b as char).to_digit(16);
                match hex(bytes[i + 1]).zip(hex(bytes[i + 2])) {
                    Some((hi, lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Length`, `Connection` are added on
    /// write).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with this status.
    pub fn empty(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.as_bytes().to_vec(),
        }
    }

    /// An `application/json` response serialized from `value`.
    pub fn json<T: serde::Serialize + ?Sized>(status: u16, value: &T) -> Response {
        let body = serde_json::to_string(value)
            .unwrap_or_else(|e| format!("{{\"error\":{{\"message\":\"serialize: {e}\"}}}}"));
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// The structured JSON error body every failure path uses:
    /// `{"error":{"status":…,"code":…,"message":…}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        let value = serde::Value::Object(vec![(
            "error".to_owned(),
            serde::Value::Object(vec![
                ("status".to_owned(), serde::Value::U64(u64::from(status))),
                ("code".to_owned(), serde::Value::Str(code.to_owned())),
                ("message".to_owned(), serde::Value::Str(message.to_owned())),
            ]),
        )]);
        Response::json(status, &value)
    }

    /// Builder-style extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Canonical reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            410 => "Gone",
            411 => "Length Required",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serialize the full response (status line, headers, body) into a
    /// byte vector — the reactor queues these on connection write
    /// buffers.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                Response::reason(self.status)
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(
            if keep_alive {
                "Connection: keep-alive\r\n"
            } else {
                "Connection: close\r\n"
            }
            .as_bytes(),
        );
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_BODY: usize = 64 * 1024 * 1024;

    /// Feed the head through the incremental parser `chunk` bytes at a
    /// time, then apply the body limit and attach the remaining bytes
    /// as the body exactly like the reactor does.
    fn parse_in_chunks(raw: &str, chunk: usize, max_body: usize) -> Result<Request, HttpError> {
        let bytes = raw.as_bytes();
        let mut parser = HeadParser::new();
        let mut pos = 0;
        while pos < bytes.len() {
            let end = (pos + chunk).min(bytes.len());
            let (used, head) = parser.feed(&bytes[pos..end])?;
            pos += used;
            if let Some(head) = head {
                if head.content_length > max_body {
                    return Err(HttpError::PayloadTooLarge {
                        limit: max_body,
                        declared: head.content_length,
                    });
                }
                let rest = &bytes[pos..];
                if rest.len() < head.content_length {
                    return Err(HttpError::BadRequest(
                        "request body shorter than Content-Length".into(),
                    ));
                }
                let body = rest[..head.content_length].to_vec();
                return Ok(head.into_request(body));
            }
        }
        Err(parser.eof_error())
    }

    /// The whole request in one `feed` call.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        parse_in_chunks(raw, raw.len().max(1), MAX_BODY)
    }

    /// The worst-case partition.
    fn parse_byte_at_a_time(raw: &str) -> Result<Request, HttpError> {
        parse_in_chunks(raw, 1, MAX_BODY)
    }

    #[test]
    fn parses_a_full_request() {
        let raw = "POST /sessions/s1/ingest?from=3&mode=a%20b HTTP/1.1\r\n\
             Host: localhost\r\n\
             Content-Length: 5\r\n\
             \r\n\
             hello";
        for req in [parse(raw).unwrap(), parse_byte_at_a_time(raw).unwrap()] {
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/sessions/s1/ingest");
            assert_eq!(req.query_param("from"), Some("3"));
            assert_eq!(req.query_param("mode"), Some("a b"));
            assert_eq!(req.header("host"), Some("localhost"));
            assert_eq!(req.body, b"hello");
            assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        }
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?} should be a bad request"
            );
            assert!(
                matches!(parse_byte_at_a_time(raw), Err(HttpError::BadRequest(_))),
                "{raw:?} should be a bad request byte-at-a-time"
            );
        }
    }

    #[test]
    fn clean_eof_is_distinguished_from_truncation() {
        assert!(matches!(parse(""), Err(HttpError::Eof)));
        assert!(matches!(parse("GET / HTT"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(parse_byte_at_a_time(""), Err(HttpError::Eof)));
        assert!(matches!(
            parse_byte_at_a_time("GET / HTT"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn size_limits_fire() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_REQUEST_LINE));
        assert!(matches!(parse(&long), Err(HttpError::UriTooLong)));
        assert!(matches!(
            parse_byte_at_a_time(&long),
            Err(HttpError::UriTooLong)
        ));

        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            format!("X-Pad: {}\r\n", "y".repeat(1000)).repeat(40)
        );
        assert!(matches!(parse(&many), Err(HttpError::HeaderTooLarge)));
        assert!(matches!(
            parse_byte_at_a_time(&many),
            Err(HttpError::HeaderTooLarge)
        ));

        let big = "POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n";
        assert!(matches!(parse(big), Err(HttpError::PayloadTooLarge { .. })));
    }

    #[test]
    fn payload_too_large_carries_the_declared_length() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n";
        match parse_in_chunks(raw, raw.len(), 1024) {
            Err(HttpError::PayloadTooLarge { limit, declared }) => {
                assert_eq!(limit, 1024);
                assert_eq!(declared, 999_999_999_999);
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn head_parser_reports_leftover_bytes_for_pipelining() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut parser = HeadParser::new();
        let (used, head) = parser.feed(raw).unwrap();
        let head = head.expect("first head complete");
        assert_eq!(head.path, "/a");
        assert_eq!(used, raw.len() / 2, "second request left unconsumed");
        let mut second = HeadParser::new();
        let (used2, head2) = second.feed(&raw[used..]).unwrap();
        assert_eq!(head2.expect("second head complete").path, "/b");
        assert_eq!(used + used2, raw.len());
    }

    /// Each of these framings is read one way here and may be read
    /// another way by a proxy in front: a second `Content-Length` that
    /// differs, a signed one, a `Transfer-Encoding` behind an `identity`
    /// one, a header name with whitespace or a control byte in it. All
    /// are refused, whole and byte at a time.
    #[test]
    fn ambiguous_framing_is_refused() {
        for (raw, status) in [
            ("POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 12\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: +7\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: 7, 7\r\n\r\n", 400),
            (
                "POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            ("POST / HTTP/1.1\r\nContent-Length\t: 9\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\n\rContent-Length: 9\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nX\u{0}: 1\r\n\r\n", 400),
        ] {
            for parsed in [parse(raw), parse_byte_at_a_time(raw)] {
                let response = parsed.err().and_then(|e| e.to_response());
                assert_eq!(response.map(|r| r.status), Some(status), "{raw:?}");
            }
        }
        let same = "POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 003\r\n\r\nabc";
        assert_eq!(parse(same).unwrap().body, b"abc");
    }

    #[test]
    fn percent_escapes_take_two_hex_digits() {
        let req = parse("GET /a%+1b%2Fc%4?k%-1=%41%zz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/a% 1b/c%4");
        assert_eq!(req.query, [("k%-1".to_owned(), "A%zz".to_owned())]);
    }

    #[test]
    fn chunked_encoding_is_not_implemented() {
        let raw = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::NotImplemented(_))));
    }

    #[test]
    fn error_responses_are_structured_json() {
        let resp = HttpError::PayloadTooLarge {
            limit: 1024,
            declared: 4096,
        }
        .to_response()
        .unwrap();
        assert_eq!(resp.status, 413);
        let v: serde::Value =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("status"), Some(&serde::Value::U64(413)));
        assert_eq!(
            err.get("code").and_then(|c| c.as_str()),
            Some("payload_too_large")
        );
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let resp = Response::text(200, "hi").with_header("ETag", "\"abc\"");
        let text = String::from_utf8(resp.to_bytes(true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("ETag: \"abc\"\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
