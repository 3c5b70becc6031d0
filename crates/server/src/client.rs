//! A small blocking HTTP/1.1 client for the pg-serve API.
//!
//! Used by the CLI's end-to-end tests and the bench crate's load
//! generator; deliberately speaks only what the server speaks:
//! `Content-Length` bodies, keep-alive, no redirects, no TLS. The
//! connection is cached across requests and transparently re-dialed
//! once when a pooled connection turns out to be stale (the server
//! closed it between requests).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> io::Result<serde::Value> {
        serde_json::from_str(&self.text())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON body: {e}")))
    }
}

/// A keep-alive client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` with a 30-second I/O timeout.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            conn: None,
        }
    }

    /// Override the per-operation read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, &[], &[])
    }

    /// `GET path` with extra request headers.
    pub fn get_with_headers(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        self.request("GET", path, headers, &[])
    }

    /// `POST path` with a body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, &[], body)
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, &[], &[])
    }

    /// `POST path`, retrying 503 backpressure responses up to
    /// `max_retries` times. Sleeps the server's own `Retry-After`
    /// (delta-seconds) when present, else 100ms, capped at 2s per wait
    /// — the polite way to ride out a full session ingest queue or a
    /// saturated worker pool. The final response (any status) is
    /// returned once retries are spent.
    pub fn post_with_retry(
        &mut self,
        path: &str,
        body: &[u8],
        max_retries: u32,
    ) -> io::Result<ClientResponse> {
        let mut attempt = 0u32;
        loop {
            let resp = self.post(path, body)?;
            if resp.status != 503 || attempt >= max_retries {
                return Ok(resp);
            }
            let delay = retry_after(&resp)
                .unwrap_or(Duration::from_millis(100))
                .min(Duration::from_secs(2));
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Send one request, reusing the pooled connection when possible.
    /// A stale pooled connection (closed by the server since the last
    /// exchange) is re-dialed and the request retried once — safe here
    /// because the retry only happens when not a single response byte
    /// arrived.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let fresh = self.conn.is_none();
        self.ensure_connected()?;
        match self.send_once(method, path, headers, body) {
            Ok(resp) => Ok(resp),
            Err(e) if !fresh && retryable(&e) => {
                self.conn = None;
                self.ensure_connected()?;
                self.send_once(method, path, headers, body)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(())
    }

    fn send_once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let conn = self.conn.as_mut().expect("ensure_connected ran");
        let mut out = Vec::with_capacity(body.len() + 256);
        out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\n").as_bytes());
        out.extend_from_slice(b"Host: pg-serve\r\n");
        for (name, value) in headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if !body.is_empty() || method == "POST" {
            out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
        conn.get_mut().write_all(&out)?;

        let resp = read_response(conn)?;
        let close = resp
            .header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close"));
        if close {
            self.conn = None;
        }
        Ok(resp)
    }
}

/// The `Retry-After` delay of a response, if present and parseable
/// (delta-seconds form only — the HTTP-date form is not worth speaking
/// between our own binaries).
fn retry_after(resp: &ClientResponse) -> Option<Duration> {
    resp.header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn read_crlf_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a full response arrived",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Parse one response off `reader` (exposed for tests that speak to the
/// server through in-memory or fault-wrapped streams).
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let status_line = read_crlf_line(reader)?;
    let mut parts = status_line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| bad_response(&status_line))?,
        _ => return Err(bad_response(&status_line)),
    };
    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn bad_response(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed status line {line:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_with_body() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 13\r\nConnection: keep-alive\r\n\r\n{\"name\":\"s1\"}";
        let resp = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(
            resp.json().unwrap().get("name").and_then(|v| v.as_str()),
            Some("s1")
        );
    }

    #[test]
    fn truncated_responses_error_instead_of_hanging() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_response(&mut &raw[..]).is_err());
        let raw = b"HTTP/1.1 200";
        assert!(read_response(&mut &raw[..]).is_err());
    }

    #[test]
    fn retry_after_parses_delta_seconds_only() {
        let resp = |headers: Vec<(String, String)>| ClientResponse {
            status: 503,
            headers,
            body: Vec::new(),
        };
        let r = resp(vec![("retry-after".into(), "2".into())]);
        assert_eq!(retry_after(&r), Some(Duration::from_secs(2)));
        let r = resp(vec![("retry-after".into(), "soon".into())]);
        assert_eq!(retry_after(&r), None);
        let r = resp(vec![]);
        assert_eq!(retry_after(&r), None);
    }
}
