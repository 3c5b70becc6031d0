//! Protocol and concurrency battery for the event-driven serving
//! layer.
//!
//! Three layers of proof:
//!
//! 1. **Parser chunk-invariance** (proptest): the incremental
//!    [`HeadParser`] fed any partition of a byte stream — down to one
//!    byte at a time — produces exactly the head (or exactly the
//!    error) that one-shot parsing produces. This is the property that
//!    lets the epoll reactor suspend a parse across `EAGAIN` at any
//!    byte.
//! 2. **Wire-level protocol conduct** against a live server:
//!    requests split across many TCP writes, pipelined
//!    requests answered in order, slowloris connections killed by the
//!    timeout wheel, mid-body disconnects that must not poison the
//!    session.
//! 3. **One request, one batch**: an ingest body of any size, under any
//!    error policy, applies as exactly one batch with the canonical
//!    schema hash of offline one-shot discovery; a torn body applies
//!    nothing; and per-session backpressure surfaces as 503 +
//!    `Retry-After` without ever dropping an acknowledged batch.

use pg_hive::serialize::content_hash_hex;
use pg_hive::{HiveConfig, PgHive};
use pg_serve::client::read_response;
use pg_serve::http::HttpError;
use pg_serve::{HeadParser, RequestHead, ServerConfig};
use pg_store::jsonl::Element;
use pg_synth::{random_schema, synthesize, SchemaParams, SynthSpec};
use proptest::prelude::*;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

mod util;
use util::TestServer;

/// Feed `bytes` to a fresh parser as one slice. Returns the head plus
/// how many bytes the parser consumed, or the error.
fn parse_one_shot(bytes: &[u8]) -> Result<(Option<RequestHead>, usize), HttpError> {
    let mut p = HeadParser::new();
    let (consumed, head) = p.feed(bytes)?;
    Ok((head, consumed))
}

/// Feed `bytes` split at `cuts` (sorted offsets), chunk by chunk.
fn parse_chunked(bytes: &[u8], cuts: &[usize]) -> Result<(Option<RequestHead>, usize), HttpError> {
    let mut p = HeadParser::new();
    let mut consumed_total = 0;
    let mut start = 0;
    let bounds: Vec<usize> = cuts.iter().copied().chain([bytes.len()]).collect();
    for end in bounds {
        let chunk = &bytes[start..end];
        start = end;
        let (consumed, head) = p.feed(chunk)?;
        consumed_total += consumed;
        if let Some(h) = head {
            return Ok((Some(h), consumed_total));
        }
        // An incomplete parse must consume every byte it was given —
        // nothing buffers outside the parser.
        assert_eq!(consumed, chunk.len(), "incomplete parse left bytes behind");
    }
    Ok((None, consumed_total))
}

fn same_head(a: &RequestHead, b: &RequestHead) {
    assert_eq!(a.method, b.method);
    assert_eq!(a.path, b.path);
    assert_eq!(a.query, b.query);
    assert_eq!(a.headers, b.headers);
    assert_eq!(a.content_length, b.content_length);
    assert_eq!(a.keep_alive, b.keep_alive);
}

/// Error identity down to the variant (messages included for the
/// variants that carry one — they must not depend on chunking either).
fn same_error(a: &HttpError, b: &HttpError) {
    match (a, b) {
        (HttpError::BadRequest(ma), HttpError::BadRequest(mb)) => assert_eq!(ma, mb),
        (HttpError::UriTooLong, HttpError::UriTooLong) => {}
        (HttpError::HeaderTooLarge, HttpError::HeaderTooLarge) => {}
        (
            HttpError::PayloadTooLarge {
                limit: la,
                declared: da,
            },
            HttpError::PayloadTooLarge {
                limit: lb,
                declared: db,
            },
        ) => {
            assert_eq!(la, lb);
            assert_eq!(da, db);
        }
        (HttpError::NotImplemented(ma), HttpError::NotImplemented(mb)) => assert_eq!(ma, mb),
        (x, y) => panic!("divergent errors: {x:?} vs {y:?}"),
    }
}

/// A well-formed request (head + body bytes) with plausible variety.
fn valid_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::sample::select(vec!["GET", "POST", "DELETE", "put"]),
        prop::collection::vec("[a-z0-9_]{1,12}", 1..4),
        prop::option::of(("[a-z]{1,6}", "[a-z0-9]{0,8}")),
        prop::collection::vec(("X-[A-Za-z]{1,14}", "[ -~]{0,24}"), 0..4),
        0usize..200,
        any::<bool>(),
    )
        .prop_map(
            |(method, segs, query, extra_headers, body_len, keep_alive)| {
                let mut target = format!("/{}", segs.join("/"));
                if let Some((k, v)) = &query {
                    target.push_str(&format!("?{k}={v}"));
                }
                let mut req = format!("{method} {target} HTTP/1.1\r\nHost: x\r\n");
                for (name, value) in &extra_headers {
                    req.push_str(&format!("{name}: {value}\r\n"));
                }
                if body_len > 0 {
                    req.push_str(&format!("Content-Length: {body_len}\r\n"));
                }
                if !keep_alive {
                    req.push_str("Connection: close\r\n");
                }
                req.push_str("\r\n");
                let mut bytes = req.into_bytes();
                bytes.extend(std::iter::repeat_n(b'x', body_len));
                bytes
            },
        )
}

/// Sorted unique cut offsets inside `len` bytes.
fn cuts_for(len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..len.max(1), 0..24).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chunk partition of a valid request parses to the identical
    /// head, consuming the identical byte count.
    #[test]
    fn head_parser_is_chunk_invariant(req in valid_request(), seed in any::<u64>()) {
        let cuts: Vec<usize> = (0..req.len())
            .filter(|i| (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(*i as u32)) & 7 == 0)
            .collect();
        let (head_a, used_a) = parse_one_shot(&req).expect("valid request parses");
        let (head_b, used_b) = parse_chunked(&req, &cuts).expect("valid request parses chunked");
        let (head_a, head_b) = (head_a.expect("complete"), head_b.expect("complete"));
        same_head(&head_a, &head_b);
        prop_assert_eq!(used_a, used_b);
        // Byte-at-a-time — the most hostile partition of all.
        let every: Vec<usize> = (1..req.len()).collect();
        let (head_c, used_c) = parse_chunked(&req, &every).expect("byte-at-a-time parses");
        same_head(&head_a, &head_c.expect("complete"));
        prop_assert_eq!(used_a, used_c);
    }

    /// Arbitrary bytes — mostly garbage — fed under arbitrary
    /// partitions: the parser never panics, never loops, and reaches
    /// exactly the verdict (head, error, or still-incomplete) that
    /// one-shot parsing reaches.
    #[test]
    fn malformed_bytes_parse_identically_under_any_partition(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        cuts in cuts_for(300),
    ) {
        let cuts: Vec<usize> = cuts.into_iter().filter(|c| *c < bytes.len()).collect();
        let one = parse_one_shot(&bytes);
        let chunked = parse_chunked(&bytes, &cuts);
        match (one, chunked) {
            (Ok((None, a)), Ok((None, b))) => prop_assert_eq!(a, b),
            (Ok((Some(ha), a)), Ok((Some(hb), b))) => {
                same_head(&ha, &hb);
                prop_assert_eq!(a, b);
            }
            (Err(ea), Err(eb)) => same_error(&ea, &eb),
            (x, y) => {
                let x = x.map(|(h, n)| (h.is_some(), n));
                let y = y.map(|(h, n)| (h.is_some(), n));
                prop_assert!(false, "verdicts diverged: {:?} vs {:?}", x, y);
            }
        }
    }
}

/// Read exactly one HTTP response off a raw stream.
fn one_response(reader: &mut BufReader<TcpStream>) -> pg_serve::ClientResponse {
    read_response(reader).expect("response")
}

/// A request head is split across many small TCP writes with pauses:
/// the server must reassemble and answer normally. Exercises the
/// reactor's parser-resume path.
#[test]
fn split_writes_reassemble() {
    let server = TestServer::start(ServerConfig::default());
    let stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let body = br#"{"name":"split"}"#;
    let head = format!(
        "POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    for chunk in wire.chunks(7) {
        (&stream).write_all(chunk).expect("write chunk");
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp = one_response(&mut reader);
    assert_eq!(resp.status, 201, "{}", resp.text());

    // The connection stays usable for a follow-up request.
    (&stream)
        .write_all(b"GET /sessions/split HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("second request");
    let resp = one_response(&mut reader);
    assert_eq!(resp.status, 200, "{}", resp.text());
}

/// Several requests written back-to-back in one TCP segment must be
/// answered in order on the same connection.
#[test]
fn pipelined_requests_answered_in_order() {
    let server = TestServer::start(ServerConfig::default());
    let mut admin = server.client();
    let resp = admin.post("/sessions", br#"{"name":"pipe"}"#).unwrap();
    assert_eq!(resp.status, 201);

    let stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let line = util::node_line(1, "A", r#""x":{"Int":1}"#);
    let mut wire = Vec::new();
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    wire.extend_from_slice(
        format!(
            "POST /sessions/pipe/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        )
        .as_bytes(),
    );
    wire.extend_from_slice(b"GET /sessions/pipe HTTP/1.1\r\nHost: x\r\n\r\n");
    wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    (&stream).write_all(&wire).expect("pipelined write");

    let healthz = one_response(&mut reader);
    assert_eq!(healthz.status, 200);
    let ingest = one_response(&mut reader);
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let v = ingest.json().expect("ingest JSON");
    assert_eq!(v.get("nodes"), Some(&serde::Value::U64(1)));
    let summary = one_response(&mut reader);
    assert_eq!(summary.status, 200);
    assert!(summary.text().contains("\"pipe\""), "{}", summary.text());
    let metrics = one_response(&mut reader);
    assert_eq!(metrics.status, 200);
}

/// A connection that trickles a partial request head and then stalls
/// must be killed by the reactor's timer wheel, and counted.
#[test]
fn slowloris_connections_are_killed_by_the_timeout() {
    let server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A started-but-stalled request head: the *read* timeout applies.
    (&stream).write_all(b"GET /heal").expect("partial head");
    let started = Instant::now();
    let mut buf = [0u8; 256];
    let n = (&stream).read(&mut buf).expect("server closes, not us");
    assert_eq!(n, 0, "expected EOF, got {:?}", &buf[..n]);
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "kill took {:?}",
        started.elapsed()
    );
    let rendered = server.metrics.render(&[]);
    let count: u64 = rendered
        .lines()
        .find_map(|l| l.strip_prefix("pg_serve_idle_timeouts_total "))
        .expect("idle timeout counter rendered")
        .trim()
        .parse()
        .expect("counter parses");
    assert!(count >= 1, "slowloris kill not counted:\n{rendered}");
}

/// An idle keep-alive connection (complete exchange, then silence) is
/// closed by the idle timeout rather than held forever.
#[test]
fn idle_keepalive_connections_are_reaped() {
    let server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_millis(400),
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let resp = one_response(&mut reader);
    assert_eq!(resp.status, 200);
    // Now say nothing. The server hangs up on us.
    let mut buf = [0u8; 16];
    let n = reader.read(&mut buf).expect("server closes");
    assert_eq!(n, 0, "expected EOF after idling");
}

/// Dropping a connection mid-body applies nothing — not even the
/// complete lines of a multi-megabyte body that arrived before the tear
/// — and leaves the session usable: the next client ingests normally
/// and the discovery state answers queries.
#[test]
fn mid_body_disconnect_leaves_the_session_unpoisoned() {
    let server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut admin = server.client();
    let resp = admin.post("/sessions", br#"{"name":"cut"}"#).unwrap();
    assert_eq!(resp.status, 201);
    let before = admin.get("/sessions/cut").unwrap().json().unwrap();

    // Small declared body, half sent, then drop.
    {
        let stream = TcpStream::connect(server.addr).expect("connect");
        (&stream)
            .write_all(
                b"POST /sessions/cut/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nhalf",
            )
            .unwrap();
        drop(stream);
    }
    // Large declared body: over 2 MiB of complete lines plus a torn
    // line, then drop.
    {
        let stream = TcpStream::connect(server.addr).expect("connect");
        let mut lines = String::new();
        for i in 0.. {
            if lines.len() > 2 << 20 {
                break;
            }
            lines += &(util::node_line(i, "A", r#""x":{"Int":1}"#) + "\n");
        }
        let head = format!(
            "POST /sessions/cut/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            4 << 20
        );
        (&stream).write_all(head.as_bytes()).unwrap();
        (&stream).write_all(lines.as_bytes()).unwrap();
        (&stream).write_all(b"{\"kind\":\"nod").unwrap();
        std::thread::sleep(Duration::from_millis(300));
        drop(stream);
    }
    std::thread::sleep(Duration::from_millis(200));

    let after = admin.get("/sessions/cut").unwrap().json().unwrap();
    for field in ["batches", "nodes", "version", "hash"] {
        assert_eq!(after.get(field), before.get(field), "{field}: {after:?}");
    }
    assert_eq!(after.get("batches"), Some(&serde::Value::U64(0)));

    // The session still ingests and answers.
    let line = util::node_line(999, "B", r#""y":{"Int":2}"#);
    let resp = admin
        .post("/sessions/cut/ingest", line.as_bytes())
        .expect("post after disconnects");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let resp = admin.get("/sessions/cut/schema").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
}

/// Build the full JSONL serialization of a synthetic graph, nodes
/// before edges (so no forward references), as one newline-joined body,
/// plus the offline one-shot discovery hash of the same graph.
fn graph_body_and_offline_hash(seed: u64, size: usize) -> (String, String) {
    let schema = random_schema(&SchemaParams::default(), seed);
    let graph = synthesize(&SynthSpec::new(schema).sized_for(size), seed ^ 0x5eed).graph;
    let offline = PgHive::new(HiveConfig::default()).discover_graph(&graph);
    let expected = content_hash_hex(&offline.schema);
    let mut lines: Vec<String> = graph
        .nodes()
        .map(|n| serde_json::to_string(&Element::Node(n.clone())).expect("node"))
        .collect();
    lines.extend(
        graph
            .edges()
            .map(|e| serde_json::to_string(&Element::Edge(e.clone())).expect("edge")),
    );
    (lines.join("\n"), expected)
}

/// Synthetic elements whose JSONL serialization exceeds 1 MiB.
const BIG_BODY_ELEMENTS: usize = 9000;

/// A body over 1 MiB is one batch under every error policy: the
/// response carries no `slices` field, `batch_index` and the session's
/// `batches` advance by exactly one, and the schema hash is that of
/// offline one-shot discovery.
#[test]
fn large_body_is_one_batch_identical_to_offline_discovery() {
    let (body, expected) = graph_body_and_offline_hash(7, BIG_BODY_ELEMENTS);
    assert!(body.len() > 1 << 20, "body of {} bytes", body.len());
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    for (name, policy) in [("skip", "skip"), ("strict", "strict"), ("cap", "cap:0")] {
        let create = format!(r#"{{"name":"{name}","on_error":"{policy}"}}"#);
        let resp = client.post("/sessions", create.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let resp = client
            .post(&format!("/sessions/{name}/ingest"), body.as_bytes())
            .expect("large ingest");
        assert_eq!(resp.status, 200, "{name}: {}", resp.text());
        let v = resp.json().expect("ingest JSON");
        assert!(v.get("slices").is_none(), "{name}: {v:?}");
        assert_eq!(v.get("batch_index"), Some(&serde::Value::U64(0)), "{name}");
        assert_eq!(v.get("quarantined"), Some(&serde::Value::U64(0)), "{name}");

        let summary = client
            .get(&format!("/sessions/{name}"))
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(
            summary.get("batches"),
            Some(&serde::Value::U64(1)),
            "{name}"
        );
        let hash = summary.get("hash").and_then(|h| h.as_str()).unwrap();
        assert_eq!(
            hash, expected,
            "{name}: served schema diverged from offline"
        );
    }
}

/// A full per-session ingest queue answers 503 with a parseable
/// `Retry-After`, recovers once permits free up, and loses none of the
/// batches it acknowledged.
#[test]
fn backpressure_503_recovers_without_losing_batches() {
    let (body, expected) = graph_body_and_offline_hash(11, 240);
    let server = TestServer::start(ServerConfig {
        session_queue: 2,
        ..ServerConfig::default()
    });
    let mut client = server.client();
    let resp = client.post("/sessions", br#"{"name":"bp"}"#).unwrap();
    assert_eq!(resp.status, 201);

    // Hold every permit the session has, exactly as in-flight ingests
    // would.
    let live = server.registry.get("bp").expect("session registered");
    let permits: Vec<_> = std::iter::from_fn(|| live.try_ingest_permit())
        .take(8)
        .collect();
    assert_eq!(permits.len(), 2, "session_queue=2 grants two permits");

    let resp = client
        .post("/sessions/bp/ingest", body.as_bytes())
        .expect("busy post");
    assert_eq!(resp.status, 503, "{}", resp.text());
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("Retry-After on 503")
        .trim()
        .parse()
        .expect("delta-seconds Retry-After");
    assert!(retry_after >= 1);
    assert!(resp.text().contains("session_busy"), "{}", resp.text());

    // A rejected batch is *not* applied.
    let summary = client.get("/sessions/bp").unwrap().json().unwrap();
    assert_eq!(
        summary.get("batches"),
        Some(&serde::Value::U64(0)),
        "{summary:?}"
    );

    // Free the queue on a delay; a retrying client rides it out.
    let unblock = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(permits);
    });
    let resp = client
        .post_with_retry("/sessions/bp/ingest", body.as_bytes(), 10)
        .expect("retrying post");
    unblock.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    // Everything that was acknowledged — exactly one batch — is in the
    // discovery state: hash equals offline one-shot discovery.
    let summary = client.get("/sessions/bp").unwrap().json().unwrap();
    let hash = summary.get("hash").and_then(|h| h.as_str()).unwrap();
    assert_eq!(hash, expected, "acked batch lost or mangled");

    let rendered = server.metrics.render(&[]);
    let rejections: u64 = rendered
        .lines()
        .find_map(|l| l.strip_prefix("pg_serve_session_busy_rejections_total "))
        .expect("session busy counter rendered")
        .trim()
        .parse()
        .unwrap();
    assert!(rejections >= 1, "backpressure not counted:\n{rendered}");
}

/// Connections over the admission cap are refused with 503 and a
/// `Retry-After`, and the metric counts them.
#[test]
fn connection_limit_rejects_excess_connections() {
    let server = TestServer::start(ServerConfig {
        max_connections: 4,
        ..ServerConfig::default()
    });
    // Saturate the admission slots with idle keep-alive connections.
    let mut held = Vec::new();
    for _ in 0..4 {
        let stream = TcpStream::connect(server.addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream)
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let resp = one_response(&mut reader);
        assert_eq!(resp.status, 200);
        held.push(stream);
    }
    // The next connection must be turned away at the door.
    let stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = read_response(&mut reader).expect("rejection response");
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.header("retry-after").is_some());
    drop(held);

    let rendered = server.metrics.render(&[]);
    let count: u64 = rendered
        .lines()
        .find_map(|l| l.strip_prefix("pg_serve_connection_limit_rejections_total "))
        .expect("limit counter rendered")
        .trim()
        .parse()
        .unwrap();
    assert!(count >= 1);
}
