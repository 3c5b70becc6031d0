//! HTTP protocol-level tests against a real listening server: malformed
//! requests, size limits, unknown routes, truncated bodies, and
//! keep-alive — everything a misbehaving client can throw at the wire.

use pg_serve::client::read_response;
use pg_serve::ServerConfig;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

mod util;
use util::{node_line, TestServer};

/// Send raw bytes on a fresh connection, return everything the server
/// answers before closing.
fn raw_exchange(server: &TestServer, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(bytes).expect("send");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

#[test]
fn malformed_request_lines_get_400() {
    let server = TestServer::start(ServerConfig::default());
    for raw in [
        "GET\r\n\r\n",
        "GET / HTTP/1.1 junk\r\n\r\n",
        "FETCH / SPDY/9\r\n\r\n",
        "GET / HTTP/1.1\r\nno-colon-header\r\n\r\n",
    ] {
        let resp = raw_exchange(&server, raw.as_bytes());
        assert!(
            resp.starts_with("HTTP/1.1 400 "),
            "{raw:?} answered {resp:?}"
        );
        assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
    }
}

#[test]
fn oversized_bodies_get_413_without_reading_them() {
    let server = TestServer::start(ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    });
    // Declare 1 MiB but send none of it: the server must answer from
    // the header alone.
    let resp = raw_exchange(
        &server,
        b"POST /sessions/s/ingest HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");
    assert!(resp.contains("payload_too_large"), "{resp}");
}

/// Regression: a 413 used to leave the declared body unread on the
/// wire, so the next "request" on the connection parsed from the
/// middle of the rejected body. A bounded oversize must now be drained
/// and the connection stays aligned for keep-alive reuse.
#[test]
fn oversized_body_within_drain_cap_keeps_the_connection_usable() {
    let server = TestServer::start(ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 4 KiB body: over max_body, under the drain cap. Send all of it.
    let body = vec![b'z'; 4096];
    let mut wire = format!(
        "POST /sessions/s/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    (&stream).write_all(&wire).expect("send oversized");
    let resp = read_response(&mut reader).expect("413 response");
    assert_eq!(resp.status, 413, "{}", resp.text());
    assert_ne!(
        resp.header("connection"),
        Some("close"),
        "bounded oversize must keep the connection"
    );

    // The very next request on the same connection parses cleanly —
    // proof the rejected body was consumed, not left on the wire.
    (&stream)
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("follow-up");
    let resp = read_response(&mut reader).expect("follow-up response");
    assert_eq!(resp.status, 200, "{}", resp.text());
}

/// Past the drain cap, reading the rejected body would cost more than
/// a re-dial: the 413 carries `Connection: close` and the server hangs
/// up instead of draining megabytes.
#[test]
fn oversized_body_beyond_drain_cap_closes_the_connection() {
    let server = TestServer::start(ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(
            b"POST /sessions/s/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\n\r\n",
        )
        .expect("send head");
    let resp = read_response(&mut reader).expect("413 response");
    assert_eq!(resp.status, 413, "{}", resp.text());
    assert_eq!(resp.header("connection"), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "server wrote after Connection: close");
}

#[test]
fn unknown_routes_get_404_and_wrong_methods_405() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    let resp = client.get("/no/such/route").unwrap();
    assert_eq!(resp.status, 404);
    let err = resp.json().unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("not_found")
    );

    let resp = client.post("/healthz", b"").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
}

#[test]
fn chunked_transfer_encoding_gets_501() {
    let server = TestServer::start(ServerConfig::default());
    let resp = raw_exchange(
        &server,
        b"POST /sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 501 "), "{resp}");
}

#[test]
fn truncated_jsonl_mid_body_is_quarantined_not_500() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    let resp = client.post("/sessions", br#"{"name":"trunc"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());

    // A complete line followed by a record cut mid-JSON: the
    // Content-Length is honest (the *stream* is fine), the payload
    // just ends in the middle of a record — exactly what a producer
    // crash leaves behind.
    let body = format!(
        "{}\n{{\"kind\":\"node\",\"id\":2,\"lab",
        node_line(1, "A", "")
    );
    let resp = client
        .post("/sessions/trunc/ingest", body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("nodes"), Some(&serde::Value::U64(1)));
    assert_eq!(v.get("quarantined"), Some(&serde::Value::U64(1)));
    let reason = v
        .get("quarantine")
        .and_then(|q| q.as_array())
        .and_then(|a| a.first())
        .and_then(|e| e.get("reason"))
        .and_then(|r| r.as_str())
        .unwrap_or_default()
        .to_owned();
    assert!(
        !reason.is_empty(),
        "quarantine entry must explain itself: {v:?}"
    );

    // The session survived and keeps accepting work.
    let resp = client
        .post("/sessions/trunc/ingest", node_line(3, "B", "").as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let server = TestServer::start(ServerConfig::default());
    let stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream);
    for i in 0..5 {
        reader
            .get_mut()
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let resp = read_response(&mut reader).expect("response");
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.header("connection"), Some("keep-alive"), "request {i}");
    }
    // An explicit close is honored.
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let resp = read_response(&mut reader).expect("response");
    assert_eq!(resp.header("connection"), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "server wrote after Connection: close");
}

#[test]
fn metrics_report_requests_by_route_pattern() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    client.post("/sessions", br#"{"name":"m1"}"#).unwrap();
    client.get("/sessions/m1").unwrap();
    client.get("/sessions/nope").unwrap();
    let text = client.get("/metrics").unwrap().text();
    assert!(
        text.contains("pg_serve_requests_total{route=\"/sessions\",status=\"201\"} 1"),
        "{text}"
    );
    // Both the hit and the 404 land under the same pattern label.
    assert!(
        text.contains("pg_serve_requests_total{route=\"/sessions/{id}\",status=\"200\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("pg_serve_requests_total{route=\"/sessions/{id}\",status=\"404\"} 1"),
        "{text}"
    );
    assert!(text.contains("pg_serve_session_batches_total{session=\"m1\"} 0"));
}

/// A line nested 300 000 deep once overflowed the decoding worker's
/// stack and took the whole server down. It is now refused at the depth
/// cap like any other malformed line: quarantined under `skip`, the
/// batch rejected (422) under `strict`, and the server keeps serving
/// either way.
#[test]
fn a_deeply_nested_line_is_refused_and_the_server_keeps_serving() {
    let server = TestServer::start(ServerConfig::default());
    let levels = 300_000;
    let line = format!(
        "{{\"kind\":\"node\",\"id\":1,\"labels\":[],\"props\":{{}},\"x\":{}{}}}\n",
        "[".repeat(levels),
        "]".repeat(levels)
    );
    for (name, on_error, status) in [("deep", "skip", 200), ("deep_strict", "strict", 422)] {
        let spec = format!(r#"{{"name":"{name}","on_error":"{on_error}"}}"#);
        let resp = server.client().post("/sessions", spec.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let resp = server
            .client()
            .post(&format!("/sessions/{name}/ingest"), line.as_bytes())
            .unwrap();
        assert_eq!(resp.status, status, "{on_error}: {}", resp.text());
        if on_error == "skip" {
            let v = resp.json().unwrap();
            assert_eq!(v.get("quarantined"), Some(&serde::Value::U64(1)), "{v:?}");
        }
        let health = server.client().get("/healthz").unwrap();
        assert_eq!(health.status, 200, "{}", health.text());
    }
    let metrics = server.client().get("/metrics").unwrap().text();
    assert!(
        metrics.contains("pg_serve_session_quarantined_total{session=\"deep\"} 1\n"),
        "{metrics}"
    );
}
